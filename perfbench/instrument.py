"""Wrap the public entry points of each layer with spans and counts.

Installed only in the traced run.  Nothing here changes which code
path the program takes: each wrapper calls the original and records
around it.  Forked pool workers inherit the wrappers (the patched
attributes live in module and class dictionaries copied by ``fork``).

Layers and the calls wrapped:

=========================  ==============================================
``trace``                  ``TraceCache.get_or_generate``
``run``                    ``execute_grid``, ``RunContext.execute``,
                           ``OutcomeStore.get`` / ``put``
``sim``                    ``MultiGPUSystem.build`` / ``run``
``core``                   ``FinePackEgress.phase_ops``
``interconnect``           ``build_plan`` as the system calls it (a
                           replay on the vectorized transport plan)
``analytical``             ``predict_metrics``
``obs``                    ``write_chrome_trace``
``analysis``               ``format_table``, ``format_link_timeline``
=========================  ==============================================
"""

from __future__ import annotations

import functools
import os

from spans import SpanRecorder


def cell_id(spec) -> str:
    return f"{spec.workload}/{spec.paradigm}/{spec.n_gpus}g/{spec.key()[:8]}"


def install(rec: SpanRecorder, profiler=None):
    """Wrap every layer entry point; returns a function that removes
    the wrappers.  ``profiler`` is the run's active
    :class:`~repro.perf.StageProfiler`, whose per-worker counters are
    shipped with the worker's spans."""
    import repro.analysis
    import repro.analytical
    import repro.cli
    import repro.obs
    import repro.run
    import repro.run.executor
    import repro.sim.system
    from repro.core.egress import FinePackEgress
    from repro.obs.counters import CounterRegistry
    from repro.run.cache import TraceCache
    from repro.run.context import RunContext
    from repro.run.outcomes import OutcomeStore
    from repro.sim.system import MultiGPUSystem

    patches: list = []  # (owner, attribute, original)

    def _patch(owner, attr: str, make) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def uninstall() -> None:
        while patches:
            owner, attr, original = patches.pop()
            setattr(owner, attr, original)

    def worker_flush() -> None:
        if profiler is not None:
            for stage, ns in profiler.stage_ns().items():
                rec.count(f"stage.{stage}_ns", ns)
            profiler.registry = CounterRegistry()
        rec.flush()

    def after_fork() -> None:
        rec.after_fork_in_child()
        if profiler is not None:
            profiler.registry = CounterRegistry()

    os.register_at_fork(after_in_child=after_fork)

    def spanned(name, after=None, cell=None, tag=None):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                s = rec.open(
                    name,
                    cell(*args, **kwargs) if cell else None,
                    tag(*args, **kwargs) if tag else None,
                )
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec.close(s)
                if after is not None:
                    after(s, result, *args, **kwargs)
                return result

            return wrapper

        return make

    # -- trace --------------------------------------------------------
    def get_or_generate(fn):
        @functools.wraps(fn)
        def wrapper(self, spec, *args, **kwargs):
            misses = self.stats()["misses"]
            s = rec.open("trace.lookup")
            try:
                trace = fn(self, spec, *args, **kwargs)
            finally:
                rec.close(s)
            rec.count("trace.lookups")
            if self.stats()["misses"] > misses:
                s.name = "trace.generate"
                rec.count("trace.ops", trace.total_remote_stores())
            else:
                rec.count("trace.hits")
            return trace

        return wrapper

    _patch(TraceCache, "get_or_generate", get_or_generate)

    # -- run ----------------------------------------------------------
    def grid_after(span, result, *args, **kwargs):
        stats = getattr(result, "retry_stats", None) or {}
        rec.count("run.retries", stats.get("retried", 0))

    # The package re-exports the executor's function: patch both names.
    grid = spanned("run.execute_grid", after=grid_after)
    _patch(repro.run.executor, "execute_grid", grid)
    _patch(repro.run, "execute_grid", lambda _: repro.run.executor.execute_grid)

    def execute(fn):
        inner = spanned("run.cell", cell=lambda self: cell_id(self.spec))(fn)

        @functools.wraps(fn)
        def wrapper(self):
            try:
                return inner(self)
            finally:
                if rec.in_worker:
                    worker_flush()

        return wrapper

    _patch(RunContext, "execute", execute)
    _patch(OutcomeStore, "get", spanned("run.outcome_store"))
    _patch(OutcomeStore, "put", spanned("run.outcome_store"))

    # -- sim + interconnect -------------------------------------------
    def build(original):
        func = original.__func__
        inner = spanned("sim.build")(func)
        return classmethod(inner)

    _patch(MultiGPUSystem, "build", build)

    plans = {"n": 0}

    def build_plan(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            plans["n"] += 1
            return fn(*args, **kwargs)

        return wrapper

    _patch(repro.sim.system, "build_plan", build_plan)

    def system_run(fn):
        @functools.wraps(fn)
        def wrapper(self, trace, paradigm, *args, **kwargs):
            before = plans["n"]
            s = rec.open(
                "sim.replay",
                cell=rec.cell or f"{trace.name}/{paradigm.name}/{trace.n_gpus}g",
                tag=paradigm.name,
            )
            try:
                metrics = fn(self, trace, paradigm, *args, **kwargs)
            finally:
                rec.close(s)
            rec.count(
                "interconnect.batch_runs" if plans["n"] > before
                else "interconnect.event_runs"
            )
            rec.count("sim.stores", trace.total_remote_stores())
            rec.count("sim.messages", metrics.packets.messages)
            rec.count("interconnect.wire_bytes", metrics.bytes.total)
            if paradigm.name == "finepack":
                rec.count("core.packed_stores", sum(metrics.packets.packed_counts))
                rec.count("core.packets", len(metrics.packets.packed_counts))
            return metrics

        return wrapper

    _patch(MultiGPUSystem, "run", system_run)

    # -- core ---------------------------------------------------------
    def phase_ops_after(span, result, *args, **kwargs):
        if result is None:
            rec.count("core.phase_ops_declined")

    _patch(FinePackEgress, "phase_ops", spanned("core.phase_ops", after=phase_ops_after))

    # -- analytical, obs, analysis ------------------------------------
    _patch(
        repro.analytical,
        "predict_metrics",
        spanned("analytical.predict",
                after=lambda *a, **k: rec.count("analytical.predict_calls")),
    )
    _patch(
        repro.obs,
        "write_chrome_trace",
        spanned("obs.export",
                after=lambda span, obj, *a, **k: rec.count(
                    "obs.events", len(obj["traceEvents"]))),
    )
    report = spanned("analysis.report")
    _patch(repro.analysis, "format_table", report)
    _patch(repro.cli, "format_table", report)
    _patch(repro.analysis, "format_link_timeline", report)
    return uninstall
