"""One repetition of one workload, in a fresh process.

Run by ``run.py``; prints nothing and writes one JSON record to
``--out``: raw setup and wall seconds with the kernel times that
normalize them, the simulated store count, the cell check results and
fingerprints, peak RSS, and on request the accuracy errors (``--post
1``) or the per-layer metrics (``--trace 1``; the spans cover setup
and body, so cache warming in setup shows as ``trace.generate_s``).
``--setup-only 1`` stops after setup and records only its time.
``--t0`` is the parent's ``time.monotonic()`` just before it started
this process, so ``setup_s`` includes interpreter start-up.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(HERE.parent / "src"))

from checks import check_cells, fingerprints, load_goldens  # noqa: E402
from kernel import Sampler, effective_kernel_ms, time_kernel  # noqa: E402
from workloads import DEFAULT_SEED, REGISTRY, State  # noqa: E402

#: Kernel passes timed right after setup, outside the clocks.
SETUP_KERNEL_PASSES = 8

#: ``per-layer metric -> span name`` whose self time it sums.
SPAN_METRICS = {
    "trace.generate_s": "trace.generate",
    "run.executor_overhead_s": "run.execute_grid",
    "run.outcome_store_s": "run.outcome_store",
    "sim.build_s": "sim.build",
    "sim.replay_s": "sim.replay",
    "core.phase_ops_s": "core.phase_ops",
    "analytical.predict_s": "analytical.predict",
    "obs.export_s": "obs.export",
    "analysis.report_s": "analysis.report",
}

PARADIGMS = ("p2p", "dma", "finepack")

COUNT_METRICS = (
    "trace.ops",
    "run.retries",
    "sim.stores",
    "sim.messages",
    "core.phase_ops_declined",
    "interconnect.batch_runs",
    "interconnect.event_runs",
    "interconnect.wire_bytes",
    "analytical.predict_calls",
    "obs.events",
)


def peak_rss_mib() -> float:
    """Peak resident set of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def sample_workers(sampler: Sampler, directory: Path) -> None:
    """Time the kernel in forked pool workers too, keeping only passes
    during which the supervisor (this process) was idle.  After every
    cell a worker appends its samples to ``kernel-<pid>.txt`` (the
    contended ones to ``contended-<pid>.txt``) and the time its passes
    took inside that cell to ``busy-<pid>.txt``."""
    from repro.run.context import RunContext

    root = os.getpid()
    inner = RunContext.execute

    def execute(ctx):
        busy = sampler.busy_s
        try:
            return inner(ctx)
        finally:
            if os.getpid() != root:
                directory.mkdir(parents=True, exist_ok=True)
                pid = os.getpid()
                for name, samples in (("kernel", sampler.samples),
                                      ("contended", sampler.contended)):
                    with open(directory / f"{name}-{pid}.txt", "a") as f:
                        f.writelines(f"{t!r} {ms!r}\n" for t, ms in samples)
                with open(directory / f"busy-{pid}.txt", "a") as f:
                    f.write(f"{sampler.busy_s - busy!r}\n")
                sampler.samples, sampler.contended = [], []

    RunContext.execute = execute
    os.register_at_fork(after_in_child=lambda: sampler.restart_in_child(root))


def worker_samples(directory: Path, name: str = "kernel") -> list[tuple[float, float]]:
    return [
        tuple(map(float, line.split()))
        for path in sorted(directory.glob(f"{name}-*.txt"))
        for line in path.read_text().splitlines()
    ]


def worker_busy_s(directory: Path) -> float:
    """Seconds the workers' kernel passes took inside cells, summed."""
    return sum(
        float(line)
        for path in directory.glob("busy-*.txt")
        for line in path.read_text().splitlines()
    )


def layer_metrics(rec, profiler) -> dict[str, float]:
    """Per-layer raw seconds and counts from the recorded spans."""
    from repro.perf import STAGES
    from spans import self_time_by

    spans, counts = rec.collect()
    rec.flush_dir.mkdir(parents=True, exist_ok=True)
    with open(rec.flush_dir / "all.jsonl", "w") as f:
        f.writelines(json.dumps(asdict(s)) + "\n" for s in spans)
    own = self_time_by(spans, lambda s: s.name)
    out = {metric: own.get(name, 0.0) for metric, name in SPAN_METRICS.items()}
    by_paradigm = self_time_by(
        spans, lambda s: s.tag if s.name == "sim.replay" else None
    )
    for p in PARADIGMS:
        out[f"sim.replay_s.{p}"] = by_paradigm.get(p, 0.0)
    for name in COUNT_METRICS:
        out[name] = counts.get(name, 0.0)
    lookups = counts.get("trace.lookups", 0.0)
    out["trace.cache_hit_ratio"] = counts.get("trace.hits", 0.0) / lookups if lookups else 0.0
    packets = counts.get("core.packets", 0.0)
    out["core.stores_per_packet"] = (
        counts.get("core.packed_stores", 0.0) / packets if packets else 0.0
    )
    stage_ns = dict(profiler.stage_ns())
    for stage in STAGES:
        ns = stage_ns.get(stage, 0.0) + counts.get(f"stage.{stage}_ns", 0.0)
        out[f"stage.{stage}_s"] = ns / 1e9
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(REGISTRY))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--post", type=int, default=0)
    ap.add_argument("--setup-only", type=int, default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    state = State(seed=args.seed, tmp=Path(args.tmp))
    workload = REGISTRY[args.workload]()
    rec = profiler = None
    if args.trace:
        import instrument
        from repro.perf import StageProfiler, profiled
        from spans import SpanRecorder

        rec = SpanRecorder(state.tmp / "spans")
        profiler = StageProfiler()
        uninstall = instrument.install(rec, profiler)
        profiling = profiled(profiler)
        profiling.__enter__()

    # Kernel samples: during setup plus a short block right after it
    # (outside both clocks) for setup_s; during the body, from the
    # processes that run the cells -- the pool workers when there are
    # any, since a supervisor competing with them measures contention,
    # and of theirs only the passes the supervisor left alone.
    sampler = Sampler()
    if rec is not None:
        sampler.on_pass = lambda t0, dt: rec.mark("bench.kernel", t0, t0 + dt)
    sampler.start()
    workload.setup(state)
    sampler.stop()
    t_setup = time.monotonic()
    setup_raw = t_setup - args.t0 - sampler.busy_s
    setup_kernel = sampler.samples + time_kernel(SETUP_KERNEL_PASSES)
    if args.setup_only:
        Path(args.out).write_text(json.dumps({
            "setup_raw_s": setup_raw,
            "setup_kernel_ms": effective_kernel_ms(setup_kernel),
        }))
        return 0
    sample_workers(sampler, state.tmp / "kernel")
    sampler.samples, sampler.busy_s = [], 0.0
    if workload.jobs == 1:
        sampler.start()
    t_body = time.monotonic()
    if rec is not None:
        with rec.span("bench.body"):
            workload.body(state)
    else:
        workload.body(state)
    t_end = time.monotonic()
    sampler.stop()
    rss = peak_rss_mib()
    if rec is not None:
        # Only the body is traced: the checks below also look traces up.
        profiling.__exit__(None, None, None)
        uninstall()

    cells = workload.cells(state)
    if state.rc not in (None, 0):
        for c in cells:
            c.error = f"command exited {state.rc}"
    golden = None
    if args.seed == DEFAULT_SEED:
        golden = load_goldens().get(args.workload, {})
    kernel_dir = state.tmp / "kernel"
    # Kernel passes inside cells delay the body; with ``jobs`` workers
    # running cells side by side, each worker's share of the delay is
    # its own passes, so the body lost their sum over ``jobs``.
    wall_raw = t_end - t_body - sampler.busy_s - worker_busy_s(kernel_dir) / workload.jobs
    # A supervisor busy through every worker pass leaves no quiet sample.
    kernel = sampler.samples + (
        worker_samples(kernel_dir) or worker_samples(kernel_dir, "contended")
    )
    record = {
        "setup_raw_s": setup_raw,
        "wall_raw_s": wall_raw,
        "setup_kernel_ms": effective_kernel_ms(setup_kernel),
        "kernel_ms": effective_kernel_ms(kernel),
        "stores": workload.stores(state),
        "checks": check_cells(cells, golden),
        "fingerprints": fingerprints(cells),
    }
    if args.post:
        t_post = time.monotonic()
        speed, wire = workload.accuracy(state)
        record["accuracy"] = {
            "analytical_speedup_err_mean": statistics.fmean(speed),
            "analytical_speedup_err_max": max(speed),
            "analytical_wire_err_max": max(wire),
        }
        extra = state.extra.get("des_cells", [])
        if extra:
            for c in extra:
                c.label = f"des:{c.label}"
            record["checks"].update(check_cells(extra, golden))
            record["post_fingerprints"] = fingerprints(extra)
        record["accuracy_s"] = time.monotonic() - t_post
    if rec is not None:
        record["layers"] = layer_metrics(rec, profiler)
    record["peak_rss_mib"] = rss
    Path(args.out).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
