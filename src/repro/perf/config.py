"""Process-global fast-path toggles (:class:`PerfConfig`).

The vectorized fast paths change *how* the simulator computes, never
*what* it computes: every toggle here selects between a scalar reference
implementation and a numpy-batched one that is proven byte-identical in
``RunMetrics``/``LinkStats`` (see ``tests/perf/test_equivalence.py``).
Because the toggles cannot affect results, they are deliberately **not**
part of :class:`~repro.run.spec.RunSpec` -- a spec's content hash
addresses *experiments*, and two runs of the same spec with different
perf settings must produce the same bytes.

The active configuration is process-global:

* :func:`get_perf_config` / :func:`set_perf_config` read/replace it;
* :func:`perf_overrides` is a context manager for scoped changes
  (what the equivalence tests and ``repro profile --scalar`` use);
* the ``REPRO_PERF`` environment variable seeds the initial value:
  ``off``/``0``/``scalar`` disables every fast path, a comma list like
  ``vector_rwq=0,batch_events=1`` flips individual toggles.

Worker processes of the parallel executor inherit ``REPRO_PERF``
through the environment, so a sweep forced scalar stays scalar.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace

#: Environment variable seeding the process's initial configuration.
PERF_ENV = "REPRO_PERF"


@dataclass(frozen=True, slots=True)
class PerfConfig:
    """Which vectorized fast paths are active (all on by default).

    Attributes
    ----------
    vector_rwq:
        Bit-arithmetic entry costing in the remote write queue and
        vectorized run extraction in the packetizer (the FinePack
        per-store hot path).
    vector_egress:
        Struct-of-arrays message building for passthrough (p2p) egress:
        a whole phase's stores become one array batch instead of one
        ``WireMessage`` object each.
    vector_transport:
        Bulk link-serialization arithmetic: per-link batched busy
        chains, visited in topological route order with traffic merged
        in global issue order, instead of one discrete event per
        message.  Falls back to the event-driven path whenever a run
        uses fault injection, flow-control credits, link error rates,
        or (only) a topology whose route adjacency is cyclic (see
        ``repro.perf.transport``); a tracer replays the per-message
        events from the batch's time columns instead.
    batch_events:
        The discrete-event engine drains same-timestamp event runs in
        an inlined loop without per-event dispatch overhead.
    memo_egress:
        Content-addressed per-phase memoization of the FinePack
        packetizer/remote-write-queue: a phase whose op columns
        (addresses, sizes, destinations, atomic flags) were already
        packetized this run replays the recorded messages and stats
        with fresh issue times instead of re-packetizing from scratch
        (see ``FinePackEgress.phase_ops``).
    """

    vector_rwq: bool = True
    vector_egress: bool = True
    vector_transport: bool = True
    batch_events: bool = True
    memo_egress: bool = True

    @classmethod
    def all_on(cls) -> "PerfConfig":
        return cls()

    @classmethod
    def all_off(cls) -> "PerfConfig":
        """The scalar reference configuration."""
        return cls(
            vector_rwq=False,
            vector_egress=False,
            vector_transport=False,
            batch_events=False,
            memo_egress=False,
        )

    @classmethod
    def from_env(cls, value: str | None = None) -> "PerfConfig":
        """Parse ``$REPRO_PERF`` (or an explicit string) into a config.

        ``""``/unset -> all on; ``off``/``0``/``false``/``scalar`` ->
        all off; otherwise a comma-separated ``name=0|1`` list applied
        on top of the all-on default.
        """
        raw = os.environ.get(PERF_ENV, "") if value is None else value
        raw = raw.strip().lower()
        if not raw or raw in ("on", "1", "true", "fast"):
            return cls.all_on()
        if raw in ("off", "0", "false", "scalar"):
            return cls.all_off()
        known = {f.name for f in fields(cls)}
        overrides: dict[str, bool] = {}
        for item in raw.split(","):
            name, _, flag = item.strip().partition("=")
            if name not in known:
                raise ValueError(
                    f"unknown {PERF_ENV} toggle {name!r}; known: {sorted(known)}"
                )
            overrides[name] = flag.strip() in ("", "1", "true", "on")
        return replace(cls.all_on(), **overrides)

    def as_dict(self) -> dict[str, bool]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


_active: PerfConfig = PerfConfig.from_env()


def get_perf_config() -> PerfConfig:
    """The process's active fast-path configuration."""
    return _active


def set_perf_config(config: PerfConfig) -> PerfConfig:
    """Replace the active configuration; returns the previous one."""
    global _active
    if not isinstance(config, PerfConfig):
        raise TypeError(f"expected PerfConfig, got {type(config).__name__}")
    previous = _active
    _active = config
    return previous


@contextmanager
def perf_overrides(config: PerfConfig | None = None, **toggles: bool):
    """Scoped configuration override.

    Pass a full :class:`PerfConfig` or individual keyword toggles
    (applied on top of the current configuration)::

        with perf_overrides(PerfConfig.all_off()):
            reference = ctx.run()
        with perf_overrides(vector_rwq=False):
            ...
    """
    if config is None:
        config = replace(_active, **toggles)
    elif toggles:
        raise TypeError("pass either a PerfConfig or keyword toggles, not both")
    previous = set_perf_config(config)
    try:
        yield config
    finally:
        set_perf_config(previous)
