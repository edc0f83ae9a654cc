"""Traced runs take the fast path and export the scalar path's bytes.

A tracer used to force the scalar egress and the event-driven
transport, so a traced run explained different code from the run it
observed.  Now the FinePack phase path emits its remote-write-queue
events in bulk and the batch transport replays the per-message events
from its time columns.  The contract is the one every fast path keeps:
for the same spec, the fast traced run's Chrome export and JSONL stream
are byte-identical to the scalar traced run's
(``perf_overrides(PerfConfig.all_off())``).

Every grid cell runs at least two iterations, so FinePack phases that
repeat are replayed from the phase memo, not only recorded.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.system as system_module
from repro.core.egress import FinePackEgress
from repro.faults import load_scenario
from repro.obs import Tracer, validate_chrome_trace, write_chrome_trace, write_jsonl
from repro.perf import PerfConfig, perf_overrides
from repro.run import RunContext, RunSpec, TraceCache

PARADIGMS = ("p2p", "dma", "wc", "finepack")

TOPOLOGIES = {
    "single_switch": {"n_gpus": 4},
    "two_level": {"n_gpus": 8},
    "fat_tree": {"n_gpus": 16, "topology_params": {"fanout": 4}},
}

#: Small sizes: one stencil (phases repeat, so the memo replays) and
#: one irregular workload whose stores force FinePack window-miss
#: flushes between the release flushes.
WORKLOAD_PARAMS = {
    "ct": {"total_corrections": 3000},
    "jacobi": {"n": 256},
}


@contextmanager
def path_counts():
    """Count batched transport iterations and declined FinePack phases."""
    counts = {"batched": 0, "declined": 0}
    batched = system_module.MultiGPUSystem._iteration_batched
    phase_ops = FinePackEgress.phase_ops

    def count_batched(self, *args, **kwargs):
        counts["batched"] += 1
        return batched(self, *args, **kwargs)

    def count_declined(self, *args, **kwargs):
        out = phase_ops(self, *args, **kwargs)
        if out is None:
            counts["declined"] += 1
        return out

    system_module.MultiGPUSystem._iteration_batched = count_batched
    FinePackEgress.phase_ops = count_declined
    try:
        yield counts
    finally:
        system_module.MultiGPUSystem._iteration_batched = batched
        FinePackEgress.phase_ops = phase_ops


def traced_exports(spec: RunSpec, config: PerfConfig, cache: TraceCache):
    """(chrome bytes, jsonl bytes, path counts) of one traced run; the
    counts include the invariant checker's engine-time checks."""
    tracer = Tracer()
    check = tracer.checker.engine_time
    with perf_overrides(config), path_counts() as counts:
        counts["engine_checks"] = 0

        def counted_check(now_ns):
            counts["engine_checks"] += 1
            check(now_ns)

        tracer.checker.engine_time = counted_check
        RunContext(spec, trace_cache=cache, tracer=tracer).execute()
    chrome, jsonl = io.StringIO(), io.StringIO()
    write_chrome_trace(chrome, {spec.paradigm: tracer})
    write_jsonl(jsonl, tracer)
    return chrome.getvalue(), jsonl.getvalue(), counts


def assert_same_text(what: str, fast: str, scalar: str) -> None:
    # Not ``assert fast == scalar``: diffing megabytes of JSON in the
    # failure report would take minutes.
    if fast != scalar:
        at = len(os.path.commonprefix([fast, scalar]))
        pytest.fail(
            f"{what} differs from the scalar run's at offset {at}:\n"
            f"  fast:   {fast[max(0, at - 60):at + 60]!r}\n"
            f"  scalar: {scalar[max(0, at - 60):at + 60]!r}"
        )


def assert_fast_export_matches_scalar(spec: RunSpec) -> dict:
    cache = TraceCache()
    fast = traced_exports(spec, PerfConfig.all_on(), cache)
    scalar = traced_exports(spec, PerfConfig.all_off(), cache)
    assert_same_text("Chrome export", fast[0], scalar[0])
    assert_same_text("JSONL stream", fast[1], scalar[1])
    # The batch replay makes the event engine's monotonic-time check
    # once per message, like the engine.
    assert fast[2].pop("engine_checks") == scalar[2].pop("engine_checks")
    assert scalar[2]["batched"] == 0
    return fast[2]


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
@pytest.mark.parametrize("paradigm", PARADIGMS)
@pytest.mark.parametrize("workload", sorted(WORKLOAD_PARAMS))
def test_traced_export_matches_scalar(workload, paradigm, topology):
    shape = TOPOLOGIES[topology]
    spec = RunSpec(
        workload=workload,
        workload_params=WORKLOAD_PARAMS[workload],
        paradigm=paradigm,
        topology=topology,
        iterations=2,
        **shape,
    )
    counts = assert_fast_export_matches_scalar(spec)
    # The traced fast run really ran the fast paths.
    assert counts == {"batched": 2, "declined": 0}


#: (topology, params, n_gpus) shapes the samples draw from.
SAMPLED_FABRICS = [
    ("single_switch", {}, 2),
    ("single_switch", {}, 4),
    ("two_level", {}, 4),
    ("two_level", {}, 8),
    ("fat_tree", {"fanout": 2}, 4),
    ("fat_tree", {"fanout": 2}, 8),
    ("switched_mesh", {"planes": 2}, 4),
]

SAMPLED_WORKLOADS = {
    "ct": {"total_corrections": 2000},
    "jacobi": {"n": 128},
    "pagerank": {"n": 2000},
    "sssp": {"n": 2000},
    "allreduce_ring": {"message_bytes": 2048, "chunk_bytes": 512},
}


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(
    workload=st.sampled_from(sorted(SAMPLED_WORKLOADS)),
    paradigm=st.sampled_from(PARADIGMS),
    fabric=st.sampled_from(SAMPLED_FABRICS),
    iterations=st.integers(min_value=2, max_value=3),
)
def test_sampled_specs_export_like_scalar(workload, paradigm, fabric, iterations):
    topology, topology_params, n_gpus = fabric
    spec = RunSpec(
        workload=workload,
        workload_params=SAMPLED_WORKLOADS[workload],
        paradigm=paradigm,
        topology=topology,
        topology_params=topology_params,
        n_gpus=n_gpus,
        iterations=iterations,
    )
    counts = assert_fast_export_matches_scalar(spec)
    # Collectives lower to one trace iteration per step, so only the
    # path taken is fixed, not the iteration count.
    assert counts["batched"] > 0 and counts["declined"] == 0


def test_armed_faults_trace_on_the_scalar_transport():
    # Fault-armed links are stateful, so the transport stays
    # event-driven under a tracer -- and the export still matches.
    schedule = load_scenario("flaky-retimer")
    spec = RunSpec(
        workload="jacobi",
        workload_params={"n": 256},
        paradigm="finepack",
        n_gpus=2,
        iterations=2,
        scenario=schedule.to_json(indent=None),
        intensity=0.5,
        topology=schedule.topology or "single_switch",
        with_credits=schedule.with_credits,
    )
    counts = assert_fast_export_matches_scalar(spec)
    assert counts["batched"] == 0
    tracer = Tracer()
    RunContext(spec, tracer=tracer).execute()
    buf = io.StringIO()
    obj = write_chrome_trace(buf, tracer)
    assert len(obj["traceEvents"]) > len(tracer.events)
    validate_chrome_trace(json.loads(buf.getvalue()))
