"""Unit tier for FinePack phase memoization (``FinePackEgress.phase_ops``).

The contract: feeding a phase's op columns through ``phase_ops`` --
fresh or replayed from the content-addressed memo -- produces exactly
the messages and stat mutations of the scalar per-op path
(``on_store``/``on_atomic``/``on_release``), differing in nothing but
wall-clock cost.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import FinePackConfig
from repro.core.egress import FinePackEgress
from repro.interconnect.message import MessageKind
from repro.interconnect.pcie import PCIE_GEN4, PCIeProtocol
from repro.obs import EventKind, Tracer
from repro.perf.config import PerfConfig, perf_overrides
from repro.perf.harness import fingerprint_metrics
from repro.run import RunContext, RunSpec, TraceCache

N_GPUS = 4
SRC = 0


def _engine(**kwargs) -> FinePackEgress:
    return FinePackEgress(
        FinePackConfig(), PCIeProtocol(PCIE_GEN4), SRC, N_GPUS, **kwargs
    )


def _columns(seed: int = 3, n: int = 200):
    """A store stream with window misses, tag hits and atomic conflicts."""
    rng = np.random.default_rng(seed)
    addrs = (rng.integers(0, 64, n) * 16 + rng.integers(0, 3, n) * 4096).astype(
        np.int64
    )
    sizes = rng.choice([4, 8, 16], n).astype(np.int64)
    dsts = rng.choice([d for d in range(N_GPUS) if d != SRC], n).astype(np.int64)
    is_atomic = rng.random(n) < 0.05
    times = np.linspace(10.0, 900.0, n)
    return addrs, sizes, dsts, times, is_atomic


def _run_scalar(engine, addrs, sizes, dsts, times, is_atomic, release_time):
    msgs = []
    for a, s, d, t, atomic in zip(
        addrs.tolist(),
        sizes.tolist(),
        dsts.tolist(),
        times.tolist(),
        is_atomic.tolist(),
    ):
        if atomic:
            msgs.extend(engine.on_atomic(a, s, d, t))
        else:
            msgs.extend(engine.on_store(a, s, d, t))
    msgs.extend(engine.on_release(release_time))
    return msgs


def _message_view(msg):
    view = [
        msg.src,
        msg.dst,
        msg.payload_bytes,
        msg.overhead_bytes,
        msg.kind,
        msg.issue_time.hex(),
        msg.stores_packed,
    ]
    if msg.kind is MessageKind.FINEPACK:
        starts, lengths = msg.meta["ranges"]
        view.append((starts.tolist(), lengths.tolist()))
        packet = msg.meta["packet"]
        view.append(
            (packet.base_addr, [(s.offset, s.length) for s in packet.subs])
        )
    else:
        view.append(msg.meta["range1"])
    return view


def _partition_stats(engine):
    return {
        d: (
            p.stats.stores_in,
            p.stats.store_hits,
            p.stats.packets,
            list(p.stats.flushes.items()),
            list(p.stats.stores_per_packet),
        )
        for d, p in engine.queue.partitions.items()
    }


def test_phase_ops_matches_scalar_across_repeats():
    addrs, sizes, dsts, times, is_atomic = _columns()
    fast, scalar = _engine(), _engine()
    # Three phases with the same content but shifted times: phase 1
    # records the template, phases 2-3 replay it from the memo.
    for k in range(3):
        shift = 1000.0 * k
        got = fast.phase_ops(
            addrs, sizes, dsts, times + shift, is_atomic, 1000.0 + shift
        )
        assert got is not None
        want = _run_scalar(
            scalar, addrs, sizes, dsts, times + shift, is_atomic, 1000.0 + shift
        )
        assert [_message_view(m) for m in got] == [
            _message_view(m) for m in want
        ]
    assert vars(fast.stats) == vars(scalar.stats)
    assert _partition_stats(fast) == _partition_stats(scalar)
    assert fast.packetizer.packets_built == scalar.packetizer.packets_built
    assert len(fast._memo) == 1


def test_distinct_streams_get_distinct_templates():
    a1, s1, d1, t1, at1 = _columns(seed=1)
    a2, s2, d2, t2, at2 = _columns(seed=2)
    engine = _engine()
    engine.phase_ops(a1, s1, d1, t1, at1, 1000.0)
    engine.phase_ops(a2, s2, d2, t2, at2, 1000.0)
    assert len(engine._memo) == 2


@pytest.mark.parametrize(
    "kwargs",
    [{"flush_timeout_ns": 500.0}, {"windows": 2}],
    ids=["timeout-policy", "multi-window"],
)
def test_stateful_configurations_decline(kwargs):
    engine = _engine(**kwargs)
    addrs, sizes, dsts, times, is_atomic = _columns(n=20)
    assert engine.phase_ops(addrs, sizes, dsts, times, is_atomic, 1e3) is None


def _traced_engine() -> FinePackEgress:
    engine = _engine()
    # A short cadence puts counter samples inside the phases.
    engine.tracer = Tracer(sample_every_ns=100.0)
    return engine


def _wide_columns():
    """Stores spread over many lines: partitions fill up, so inserts
    force ``entries_full`` flushes."""
    addrs, sizes, dsts, times, is_atomic = _columns(n=400)
    rng = np.random.default_rng(5)
    addrs = (rng.integers(0, 1 << 16, addrs.size) & ~15).astype(np.int64)
    return addrs, sizes, dsts, times, is_atomic


@pytest.mark.parametrize(
    "columns,flush_reason",
    [(_columns, "atomic_conflict"), (_wide_columns, "entries_full")],
    ids=["atomic-conflicts", "insert-flushes"],
)
def test_traced_phase_ops_matches_per_op_hooks(columns, flush_reason):
    addrs, sizes, dsts, times, is_atomic = columns()
    fast, untraced, scalar = _traced_engine(), _engine(), _traced_engine()
    # Phase 1 records the template, phases 2-3 replay it: the tracer
    # sees the per-op hooks' events either way.
    for k in range(3):
        shift = 1000.0 * k
        cols = (addrs, sizes, dsts, times + shift, is_atomic, 1000.0 + shift)
        got = fast.phase_ops(*cols)
        plain = untraced.phase_ops(*cols)
        want = _run_scalar(scalar, *cols)
        assert [_message_view(m) for m in got] == [_message_view(m) for m in want]
        assert [_message_view(m) for m in plain] == [_message_view(m) for m in want]
    assert len(fast._memo) == 1
    assert fast.tracer.events == scalar.tracer.events
    names = {e.name for e in fast.tracer.events}
    assert f"flush:{flush_reason}" in names
    assert any(e.kind is EventKind.COUNTER_SAMPLE for e in fast.tracer.events)
    assert fast.tracer.summary() == scalar.tracer.summary()
    assert _partition_stats(fast) == _partition_stats(scalar)


def test_tracer_attached_after_untraced_recording():
    # A template recorded untraced holds no tracer records: the traced
    # phase re-records it instead of replaying an event-less template.
    addrs, sizes, dsts, times, is_atomic = _columns()
    fast, scalar = _engine(), _engine()
    fast.phase_ops(addrs, sizes, dsts, times, is_atomic, 1000.0)
    _run_scalar(scalar, addrs, sizes, dsts, times, is_atomic, 1000.0)
    fast.tracer, scalar.tracer = Tracer(), Tracer()
    cols = (addrs, sizes, dsts, times + 1000.0, is_atomic, 2000.0)
    got = fast.phase_ops(*cols)
    want = _run_scalar(scalar, *cols)
    assert [_message_view(m) for m in got] == [_message_view(m) for m in want]
    assert fast.tracer.events == scalar.tracer.events
    assert fast._memo[next(iter(fast._memo))].rwq_records is not None


def test_patched_hooks_decline():
    # Validation harnesses wrap the per-op hooks on the instance; the
    # columnar path must not route around them.
    engine = _engine()
    engine.on_store = lambda *a, **k: []
    addrs, sizes, dsts, times, is_atomic = _columns(n=20)
    assert engine.phase_ops(addrs, sizes, dsts, times, is_atomic, 1e3) is None


def test_buffered_state_declines():
    engine = _engine()
    engine.queue.insert(64, 8, 1)
    addrs, sizes, dsts, times, is_atomic = _columns(n=20)
    assert engine.phase_ops(addrs, sizes, dsts, times, is_atomic, 1e3) is None


@pytest.mark.parametrize("workload", ["jacobi", "hit", "sssp"])
def test_run_fingerprint_invariant_under_memo(workload):
    spec = RunSpec(workload=workload, paradigm="finepack", n_gpus=4, iterations=3)
    cache = TraceCache()
    with perf_overrides(PerfConfig.all_on()):
        on = fingerprint_metrics(RunContext(spec, trace_cache=cache).run())
    with perf_overrides(PerfConfig(memo_egress=False)):
        off = fingerprint_metrics(RunContext(spec, trace_cache=cache).run())
    assert on == off
