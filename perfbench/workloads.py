"""The four benchmark workloads.

Each workload has three parts, run in one fresh process per repetition
(see ``rep.py``):

* ``setup`` -- imports, building the spec grid, and any cache warming;
  counted in ``setup_s``.
* ``body`` -- the timed call through the public entry point
  (``repro.cli.main`` or ``execute_grid``); counted in ``wall_s``.
* ``cells`` / ``stores`` / ``accuracy`` -- after the clock stops: the
  outputs to check, the simulated store count, and the analytical
  model's error against the DES on this workload's reference cells.

Why each workload exists is recorded in ``BENCHMARK.json``; ``MOVES``
records which layer metric should move which end-to-end metric on it.
"""

from __future__ import annotations

import io
import random
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_SEED = 7

#: ``workload -> {per-layer metric: the end-to-end metric it moves}``.
MOVES = {
    "sweep-irregular-cold": {
        "trace.generate_s": "wall_s",
        "run.executor_overhead_s": "wall_s",
        "run.outcome_store_s": "wall_s",
        "sim.replay_s": "stores_per_s",
        "sim.build_s": "stores_per_s",
        "core.phase_ops_s": "stores_per_s",
        "stage.packetizer_rwq_s": "stores_per_s",
    },
    "collectives-fattree-warm": {
        "trace.generate_s": "setup_s",
        "sim.replay_s": "stores_per_s",
        "sim.build_s": "stores_per_s",
        "core.phase_ops_s": "stores_per_s (expected flat)",
        "interconnect.batch_runs": "stores_per_s",
        "stage.link_serialization_s": "stores_per_s",
        "stage.metrics_classify_s": "stores_per_s",
    },
    "design-sweep-analytical": {
        "trace.generate_s": "setup_s",
        "analytical.predict_s": "wall_s",
        "run.executor_overhead_s": "wall_s",
        "analysis.report_s": "wall_s",
    },
    "observed-run": {
        "obs.export_s": "wall_s",
        "obs.events": "none (count)",
        "interconnect.event_runs": "stores_per_s",
        "sim.replay_s": "stores_per_s",
    },
}


@dataclass
class Cell:
    """One executed run to check: label, spec, metrics, failure text."""

    label: str
    spec: object
    metrics: object = None
    degraded: bool = False
    error: str | None = None


@dataclass
class State:
    seed: int
    tmp: Path
    argv: list = field(default_factory=list)
    specs: list = field(default_factory=list)
    cache: object = None
    captured: list = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    rc: int | None = None
    extra: dict = field(default_factory=dict)


def label(spec) -> str:
    return f"{spec.workload}/{spec.paradigm}/{spec.n_gpus}g"


def rel_err(predicted: float, measured: float) -> float:
    if measured == 0:
        return 0.0 if predicted == 0 else float("inf")
    return abs(predicted - measured) / measured


def speedup_errors(groups) -> tuple[list[float], list[float]]:
    """``(speedup errors, wire errors)`` over ``(baseline pair,
    [cell pairs])`` groups, each pair ``(analytical, des)`` metrics."""
    speed, wire = [], []
    for (b_ana, b_des), pairs in groups:
        for ana, des in pairs:
            speed.append(rel_err(
                b_ana.total_time_ns / ana.total_time_ns,
                b_des.total_time_ns / des.total_time_ns,
            ))
            wire.append(rel_err(ana.bytes.total, des.bytes.total))
    return speed, wire


def _capture_grid(state: State) -> None:
    """Keep every cell ``execute_grid`` returns (workers included)."""
    import repro.run
    import repro.run.executor

    inner = repro.run.executor.execute_grid

    def execute_grid(*args, **kwargs):
        result = inner(*args, **kwargs)
        state.outcomes.extend(getattr(result, "cells", result))
        return result

    repro.run.executor.execute_grid = execute_grid
    repro.run.execute_grid = execute_grid


def _grid_cells(state: State) -> list[Cell]:
    from repro.run import CellFailure

    cells = []
    for o in state.outcomes:
        if isinstance(o, CellFailure):
            cells.append(Cell(label(o.spec), o.spec, error=f"{o.kind}: {o.message}"))
        else:
            cells.append(Cell(label(o.spec), o.spec, o.metrics, o.degraded))
    return cells


def _analytical(spec, cache):
    from repro.run import RunContext

    return RunContext(spec.with_options(fidelity="analytical"), cache).run()


def _sweep_accuracy(state: State, cache) -> tuple[list[float], list[float]]:
    """Every DES cell of a CLI paradigm sweep predicted analytically;
    one group per workload, normalized by that workload's baseline."""
    groups = {}
    for c in _grid_cells(state):
        if c.metrics is None:
            continue
        pair = (_analytical(c.spec, cache), c.metrics)
        g = groups.setdefault(c.spec.workload, [None, []])
        if c.spec.n_gpus == 1:
            g[0] = pair
        else:
            g[1].append(pair)
    return speedup_errors(g for g in groups.values() if g[0] is not None)


def _sweep_stores(state: State, cache) -> int:
    return sum(
        cache.get_or_generate(c.spec).total_remote_stores()
        for c in _grid_cells(state)
    )


# -- sweep-irregular-cold ------------------------------------------


class SweepIrregularCold:
    name = "sweep-irregular-cold"
    #: Pool workers running the cells (1: cells run in this process).
    jobs = 2

    def setup(self, state: State) -> None:
        import repro.cli  # noqa: F401  (import cost belongs to setup)

        state.argv = [
            "sweep", "pagerank,sssp,ct,hit,als", "paradigm",
            "--gpus", "4", "--seed", str(state.seed), "--jobs", str(self.jobs),
            "--trace-cache", str(state.tmp / "cache"),
        ]
        _capture_grid(state)

    def body(self, state: State) -> None:
        import repro.cli

        state.rc = repro.cli.main(state.argv, out=io.StringIO())

    def cells(self, state: State) -> list[Cell]:
        return _grid_cells(state)

    def _cache(self, state: State):
        from repro.run import TraceCache

        return TraceCache(state.tmp / "cache")

    def stores(self, state: State) -> int:
        return _sweep_stores(state, self._cache(state))

    def accuracy(self, state: State):
        return _sweep_accuracy(state, self._cache(state))


# -- collectives-fattree-warm ----------------------------------------


class CollectivesFatTreeWarm(SweepIrregularCold):
    name = "collectives-fattree-warm"
    jobs = 1

    def setup(self, state: State) -> None:
        import repro.cli
        from repro import registry
        from repro.run import RunSpec, TraceCache

        cache_dir = state.tmp / "cache"
        state.argv = [
            "sweep", "collectives", "paradigm", "--topology", "fat_tree",
            "--gpus", "16", "--fanout", "4", "--seed", str(state.seed),
            "--jobs", str(self.jobs), "--trace-cache", str(cache_dir),
        ]
        # Warm the trace cache only: the outcome store stays empty, so
        # the timed sweep replays every cell.
        cache = TraceCache(cache_dir)
        for name in repro.cli.COLLECTIVE_WORKLOADS:
            workload = registry.workloads.resolve(name)()
            for n_gpus in (1, 16):
                cache.get_or_generate(
                    RunSpec.for_workload(workload, n_gpus=n_gpus, seed=state.seed)
                )
        _capture_grid(state)

    def cells(self, state: State) -> list[Cell]:
        cells = _grid_cells(state)
        for c in cells:  # the warm-up must have covered every trace
            o = next(o for o in state.outcomes if o.spec is c.spec)
            if getattr(o, "cache_stats", {}).get("misses"):
                c.error = "trace cache was not warm"
        return cells


# -- design-sweep-analytical ------------------------------------------

HPC_WORKLOADS = ("als", "ct", "diffusion", "eqwp", "hit", "jacobi", "pagerank", "sssp")
COLLECTIVES = ("allreduce_ring", "allreduce_tree", "allgather", "alltoall", "pipeline")
COLLECTIVE_SHAPE = {"n_gpus": 8, "topology": "fat_tree"}

#: Seed of the DES reference sample, fixed so every run compares the
#: same cells (``--seed`` varies the traces, not the sample).
SAMPLE_SEED = 0


def design_sweep_specs(seed: int) -> list:
    """The 546-spec analytical design space: 13 workloads, PCIe gen 3-5,
    barrier costs for p2p/dma, sub-header sizes and queue depths for
    finepack (42 variants per workload)."""
    from repro.core.config import FinePackConfig
    from repro.interconnect.pcie import GENERATIONS
    from repro.run import RunSpec

    shapes = [(w, {}) for w in HPC_WORKLOADS]
    shapes += [(w, COLLECTIVE_SHAPE) for w in COLLECTIVES]
    specs = []
    for workload, shape in shapes:
        for gen in (3, 4, 5):
            common = dict(workload=workload, generation=GENERATIONS[gen],
                          fidelity="analytical", seed=seed, **shape)
            for paradigm in ("p2p", "dma"):
                for barrier in (1_000.0, 2_000.0):
                    specs.append(RunSpec(paradigm=paradigm, barrier_ns=barrier, **common))
            for sub in (2, 3, 4, 5, 6):
                for entries in (32, 64):
                    specs.append(RunSpec(
                        paradigm="finepack",
                        finepack=FinePackConfig(
                            subheader_bytes=sub, queue_entries_per_partition=entries
                        ),
                        **common,
                    ))
    return specs


def sample_specs(specs: list) -> list:
    """One spec drawn uniformly from each (workload, paradigm) stratum,
    so every workload and paradigm of the space is checked."""
    rng = random.Random(SAMPLE_SEED)
    strata: dict = {}
    for s in specs:
        strata.setdefault((s.workload, s.paradigm), []).append(s)
    return [rng.choice(strata[k]) for k in sorted(strata)]


def design_label(spec) -> str:
    return (
        f"{label(spec)}/gen{spec.generation.gen}/b{spec.barrier_ns:g}"
        f"/sub{spec.finepack.subheader_bytes}"
        f"/q{spec.finepack.queue_entries_per_partition}"
    )


class DesignSweepAnalytical:
    name = "design-sweep-analytical"
    jobs = 1

    def setup(self, state: State) -> None:
        from repro.run import TraceCache

        state.specs = design_sweep_specs(state.seed)
        state.cache = TraceCache()
        for spec in state.specs:
            state.cache.get_or_generate(spec)

    def body(self, state: State) -> None:
        import repro.analysis
        import repro.run

        outcomes = repro.run.execute_grid(state.specs, jobs=self.jobs, trace_cache=state.cache)
        state.outcomes = outcomes
        rows = [
            [design_label(o.spec), o.metrics.total_time_ns / 1e6,
             o.metrics.wire_bytes / 1e6, o.metrics.goodput, o.metrics.efficiency]
            for o in outcomes
        ]
        repro.analysis.format_table(
            "design sweep (analytical)",
            ["config", "time_ms", "wire_MB", "goodput", "efficiency"],
            rows,
        )

    def cells(self, state: State) -> list[Cell]:
        return [
            Cell(design_label(o.spec), o.spec, o.metrics, o.degraded)
            for o in state.outcomes
        ]

    def stores(self, state: State) -> int:
        return sum(
            state.cache.get_or_generate(o.spec).total_remote_stores()
            for o in state.outcomes
        )

    def accuracy(self, state: State):
        """A DES replay of the stratified sample, each cell and its
        1-GPU baseline, against the analytical prediction."""
        from repro.run import RunContext

        by_key = {o.spec.key(): o.metrics for o in state.outcomes}
        baselines: dict = {}
        groups, des_cells = [], []
        for spec in sample_specs(state.specs):
            des_spec = spec.with_options(fidelity="des")
            des = RunContext(des_spec, state.cache).run()
            base = spec.single_gpu_baseline()
            if base.key() not in baselines:
                baselines[base.key()] = (
                    RunContext(base, state.cache).run(),
                    RunContext(base.with_options(fidelity="des"), state.cache).run(),
                )
            groups.append((baselines[base.key()], [(by_key[spec.key()], des)]))
            des_cells.append(Cell(design_label(des_spec), des_spec, des))
        state.extra["des_cells"] = des_cells
        return speedup_errors(groups)


# -- observed-run --------------------------------------------------------


class ObservedRun:
    name = "observed-run"
    jobs = 1

    def setup(self, state: State) -> None:
        import repro.cli  # noqa: F401
        from repro.run.context import RunContext

        state.extra["export"] = state.tmp / "trace.json"
        state.argv = [
            "run", "pagerank", "finepack", "--gpus", "4", "--iterations", "3",
            "--seed", str(state.seed), "--trace-out", str(state.extra["export"]),
        ]
        state.extra["run"] = inner = RunContext.run

        def run(ctx):
            metrics = inner(ctx)
            state.captured.append((ctx, metrics))
            return metrics

        RunContext.run = run

    def body(self, state: State) -> None:
        import repro.cli
        from repro.run.context import RunContext

        try:
            state.rc = repro.cli.main(state.argv, out=io.StringIO())
        finally:
            RunContext.run = state.extra["run"]

    def cells(self, state: State) -> list[Cell]:
        from repro.obs import validate_chrome_trace_file

        cells = [Cell(label(ctx.spec), ctx.spec, m) for ctx, m in state.captured]
        try:
            obj = validate_chrome_trace_file(str(state.extra["export"]))
            if not obj["traceEvents"]:
                raise ValueError("export holds no events")
        except (OSError, ValueError) as exc:  # unreadable, not JSON, or off-schema
            for c in cells:
                c.error = f"chrome trace export: {exc}"
        return cells

    def stores(self, state: State) -> int:
        return sum(ctx.trace.total_remote_stores() for ctx, _ in state.captured)

    def accuracy(self, state: State):
        from repro.run import RunContext

        groups = []
        for ctx, des in state.captured:
            cache = ctx.trace_cache
            base = ctx.spec.single_gpu_baseline()
            b_des = RunContext(base, cache).run()
            b_ana = _analytical(base, cache)
            groups.append(((b_ana, b_des), [(_analytical(ctx.spec, cache), des)]))
        return speedup_errors(groups)


REGISTRY = {
    cls.name: cls
    for cls in (SweepIrregularCold, CollectivesFatTreeWarm, DesignSweepAnalytical, ObservedRun)
}
