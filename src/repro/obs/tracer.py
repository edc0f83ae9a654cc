"""The structured event tracer.

One :class:`Tracer` observes one simulation run.  Call sites throughout
the simulator hold an optional tracer reference and guard every hook
with ``if tracer is not None`` -- a single pointer comparison -- so a
run without tracing pays essentially nothing.  With tracing on, the
tracer:

* records typed :class:`~repro.obs.events.TraceEvent` objects into an
  in-memory stream (exported later via :mod:`repro.obs.export`),
* maintains a :class:`~repro.obs.counters.CounterRegistry` of
  counters/gauges/histograms and snapshots it into ``COUNTER_SAMPLE``
  events on a configurable cadence of simulated time,
* forwards every event to subscribers -- by default an
  :class:`~repro.obs.invariants.InvariantChecker` that asserts
  conservation laws as the run progresses.

Emission methods are *typed* (``message_injected``, ``rwq_flush``,
``kernel`` ...) rather than free-form so event attributes stay
schema-stable across the codebase.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .counters import CounterRegistry
from .events import EventKind, TraceEvent
from .invariants import InvariantChecker

if TYPE_CHECKING:  # pragma: no cover
    from ..core.remote_write_queue import FlushedWindow
    from ..interconnect.message import WireMessage


class Tracer:
    """Collects one run's structured event stream.

    Parameters
    ----------
    sample_every_ns:
        Cadence (simulated ns) of counter-registry snapshots; ``None``
        disables sampling.
    check_invariants:
        Attach an online :class:`InvariantChecker` (the default).  The
        checker raises :class:`~repro.obs.invariants.InvariantViolation`
        the moment a conservation law breaks.
    """

    def __init__(
        self,
        sample_every_ns: float | None = 10_000.0,
        check_invariants: bool = True,
    ) -> None:
        if sample_every_ns is not None and sample_every_ns <= 0:
            raise ValueError(f"sample_every_ns must be positive: {sample_every_ns}")
        self.events: list[TraceEvent] = []
        self.counters = CounterRegistry()
        self.checker: InvariantChecker | None = (
            InvariantChecker() if check_invariants else None
        )
        self._subscribers: list[Callable[[TraceEvent], None]] = []
        if self.checker is not None:
            self._subscribers.append(self.checker.observe)
        self._sample_every = sample_every_ns
        self._next_sample = sample_every_ns if sample_every_ns is not None else None
        self._max_time_ns = 0.0
        self._msg_seq = 0
        self._rwq_pending: dict[str, int] = {}
        self._finished = False

    # -- plumbing ----------------------------------------------------

    def subscribe(self, fn: Callable[[TraceEvent], None]) -> None:
        """Register a callback invoked on every emitted event."""
        self._subscribers.append(fn)

    def _emit(
        self,
        kind: EventKind,
        time_ns: float,
        track: str,
        name: str,
        dur_ns: float,
        attrs: dict,
    ) -> None:
        # Positional construction and an inlined cadence check: this
        # runs once per event, hundreds of thousands of times per run.
        event = TraceEvent(kind, time_ns, track, name, dur_ns, attrs)
        self.events.append(event)
        for fn in self._subscribers:
            fn(event)
        end = time_ns + dur_ns if dur_ns > 0 else time_ns
        if end > self._max_time_ns:
            self._max_time_ns = end
        if self._next_sample is not None and self._max_time_ns >= self._next_sample:
            self._sample()

    def _sample(self) -> None:
        snap = self.counters.snapshot()
        # One sample per crossed cadence boundary would replay identical
        # values on big time jumps; a single sample at the crossing is
        # enough for a piecewise-constant counter track.
        event = TraceEvent(
            EventKind.COUNTER_SAMPLE,
            self._next_sample,
            "counters",
            "counters",
            0.0,
            snap,
        )
        self.events.append(event)
        for fn in self._subscribers:
            fn(event)
        assert self._sample_every is not None
        periods = int(self._max_time_ns // self._sample_every) + 1
        self._next_sample = periods * self._sample_every

    # -- message lifecycle ------------------------------------------
    #
    # Each public hook takes a WireMessage; the private ``_msg_*``
    # helpers take its fields, so the batch transport's column replay
    # (:meth:`transport_batch`) emits exactly the same events.

    def message_injected(self, msg: "WireMessage", time_ns: float) -> int:
        """Record a message entering the interconnect; returns its id."""
        return self._msg_injected(
            msg.src,
            msg.dst,
            msg.kind.value,
            msg.payload_bytes,
            msg.overhead_bytes,
            msg.stores_packed,
            time_ns,
        )

    def message_delivered(self, msg_id: int, msg: "WireMessage", time_ns: float) -> None:
        self._msg_delivered(
            msg_id, f"flow gpu{msg.src}->gpu{msg.dst}", msg.kind.value,
            msg.payload_bytes, time_ns,
        )

    def message_drained(self, msg_id: int, msg: "WireMessage", time_ns: float) -> None:
        self._emit(
            EventKind.MSG_DRAINED,
            time_ns,
            f"flow gpu{msg.src}->gpu{msg.dst}",
            msg.kind.value,
            0.0,
            {"msg_id": msg_id},
        )

    def message_dropped(self, msg_id: int, msg: "WireMessage", time_ns: float) -> None:
        self.counters.counter("payload_bytes_dropped").inc(msg.payload_bytes)
        self.counters.gauge("payload_bytes_in_flight").add(-msg.payload_bytes)
        self._emit(
            EventKind.MSG_DROPPED,
            time_ns,
            f"flow gpu{msg.src}->gpu{msg.dst}",
            msg.kind.value,
            0.0,
            {"msg_id": msg_id, "payload_bytes": msg.payload_bytes},
        )

    def _msg_injected(
        self,
        src: int,
        dst: int,
        kind: str,
        payload: int,
        overhead: int,
        stores: int,
        time_ns: float,
    ) -> int:
        mid = self._msg_seq
        self._msg_seq += 1
        wire = payload + overhead
        c = self.counters
        c.counter("messages_injected").inc()
        c.counter("payload_bytes_injected").inc(payload)
        c.counter("wire_bytes_injected").inc(wire)
        c.gauge("payload_bytes_in_flight").add(payload)
        c.histogram("packet_wire_bytes").observe(wire)
        c.histogram("stores_per_packet").observe(stores)
        self._emit(
            EventKind.MSG_INJECTED,
            time_ns,
            f"flow gpu{src}->gpu{dst}",
            kind,
            0.0,
            {
                "msg_id": mid,
                "src": src,
                "dst": dst,
                "payload_bytes": payload,
                "overhead_bytes": overhead,
                "stores_packed": stores,
            },
        )
        return mid

    def _msg_delivered(
        self, msg_id: int, flow: str, kind: str, payload: int, time_ns: float
    ) -> None:
        c = self.counters
        c.counter("payload_bytes_delivered").inc(payload)
        c.gauge("payload_bytes_in_flight").add(-payload)
        self._emit(
            EventKind.MSG_DELIVERED,
            time_ns,
            flow,
            kind,
            0.0,
            {"msg_id": msg_id, "payload_bytes": payload},
        )

    # -- interconnect -----------------------------------------------

    def link_transmit(
        self,
        link_name: str,
        msg: "WireMessage",
        start_ns: float,
        end_ns: float,
        credit_bytes: int | None = None,
    ) -> None:
        """Record one serialization occupancy of one link direction."""
        attrs: dict = {
            "wire_bytes": msg.wire_bytes,
            "src": msg.src,
            "dst": msg.dst,
        }
        if credit_bytes is not None:
            attrs["credit_bytes"] = credit_bytes
        self._link_tx(link_name, msg.kind.value, start_ns, end_ns, attrs)

    def _link_tx(
        self, link_name: str, kind: str, start_ns: float, end_ns: float, attrs: dict
    ) -> None:
        self.counters.counter(f"link_wire_bytes:{link_name}").inc(attrs["wire_bytes"])
        self._emit(
            EventKind.LINK_TX, start_ns, link_name, kind, end_ns - start_ns, attrs
        )

    def transport_batch(self, messages: Iterable[tuple]) -> None:
        """Emit the events of an already-computed batch transport.

        ``messages`` holds one ``(src, dst, kind, payload_bytes,
        overhead_bytes, stores_packed, issue_ns, links, hop_starts,
        hop_ends, delivered_ns, drained_ns)`` tuple per message, in
        global issue order (the order the event engine would have
        injected them): ``links`` names the links the message crossed
        and ``hop_starts[h]``/``hop_ends[h]`` its serialization on hop
        ``h``.  The calls -- engine-time check, injection, one link
        span per hop, delivery, drain -- replay the event-driven
        engine's per-message sequence, so the stream, counters and
        cadence samples are identical to a scalar run's.
        """
        checker = self.checker
        for (
            src, dst, kind, payload, overhead, stores, issue_ns,
            links, starts, ends, delivered_ns, drained_ns,
        ) in messages:
            if checker is not None:
                checker.engine_time(issue_ns)
            mid = self._msg_injected(
                src, dst, kind, payload, overhead, stores, issue_ns
            )
            wire = payload + overhead
            for link_name, start_ns, end_ns in zip(links, starts, ends):
                self._link_tx(
                    link_name,
                    kind,
                    start_ns,
                    end_ns,
                    {"wire_bytes": wire, "src": src, "dst": dst},
                )
            flow = f"flow gpu{src}->gpu{dst}"
            self._msg_delivered(mid, flow, kind, payload, delivered_ns)
            self._emit(
                EventKind.MSG_DRAINED, drained_ns, flow, kind, 0.0, {"msg_id": mid}
            )

    # -- faults ------------------------------------------------------

    def fault_injected(
        self,
        fault_kind: str,
        link_pattern: str,
        start_ns: float,
        end_ns: float,
        links: tuple[str, ...] = (),
    ) -> None:
        """Declare one scheduled fault at arm time.

        Emitted once per :class:`~repro.faults.schedule.FaultEvent` when
        a :class:`~repro.faults.injector.FaultInjector` arms a topology.
        Declaring faults up front switches the invariant checker into
        fault-aware mode: ``MSG_DROPPED`` events become legal (byte
        conservation still holds modulo the declared drops).
        """
        self.counters.counter("faults_injected").inc()
        attrs: dict = {
            "fault": fault_kind,
            "link": link_pattern,
            "start_ns": start_ns,
        }
        # Permanent faults have an infinite window; JSON exporters choke
        # on Infinity, so only finite closings are recorded.
        if end_ns != float("inf"):
            attrs["end_ns"] = end_ns
        if links:
            attrs["links"] = list(links)
        self._emit(
            EventKind.FAULT_INJECTED,
            0.0,
            "faults",
            f"{fault_kind}:{link_pattern}",
            0.0,
            attrs,
        )

    def link_state_change(
        self,
        link_name: str,
        state: str,
        time_ns: float,
        until_ns: float | None = None,
    ) -> None:
        """Record a link-health transition (``"down"`` / ``"up"``)."""
        self.counters.counter(f"link_state:{state}").inc()
        attrs: dict = {"state": state}
        if until_ns is not None and until_ns != float("inf"):
            attrs["until_ns"] = until_ns
        self._emit(
            EventKind.LINK_STATE,
            time_ns,
            link_name,
            state,
            0.0,
            attrs,
        )

    # -- remote write queue -----------------------------------------

    def rwq_enqueue(
        self,
        gpu: int,
        dst: int,
        addr: int,
        size: int,
        time_ns: float,
        pending_entries: int,
    ) -> None:
        self.rwq_phase(
            gpu, ((0, dst, pending_entries, addr, size, None),), (time_ns,), time_ns
        )

    def rwq_flush(
        self,
        gpu: int,
        dst: int,
        window: "FlushedWindow",
        data_bytes: int,
        time_ns: float,
        pending_entries: int,
    ) -> None:
        record = (
            0,
            dst,
            pending_entries,
            data_bytes,
            window.stores_absorbed,
            window.reason.value,
        )
        self.rwq_phase(gpu, (record,), (time_ns,), time_ns)

    def rwq_phase(
        self,
        gpu: int,
        records: tuple[tuple, ...],
        stamps: Sequence[float],
        release_time: float,
    ) -> None:
        """Emit one recorded FinePack phase's remote-write-queue events.

        ``records`` come from the egress engine's columnar phase path,
        in the order the per-op hooks would have fired:
        ``(slot, dst, pending_entries, addr, size, None)`` for a
        buffered store and ``(slot, dst, pending_entries, data_bytes,
        stores_absorbed, reason)`` for a flushed window.  ``slot``
        indexes ``stamps`` (the phase's op issue times); ``-1`` marks
        the end-of-phase release at ``release_time``.  The result is
        the exact sequence of :meth:`rwq_enqueue`/:meth:`rwq_flush`
        calls -- events, counter updates and cadence samples alike.
        """
        tracks: dict[int, str] = {}
        last_pending = self._rwq_pending
        counters = self.counters
        emit = self._emit
        # Fetched on first use, when the registry would create them;
        # buffered stores are the per-store hot path, so their counters
        # are updated in place.
        pending_gauge = enqueued = None
        for slot, dst, pending, a, b, reason in records:
            track = tracks.get(dst)
            if track is None:
                track = tracks[dst] = f"rwq gpu{gpu}->gpu{dst}"
            time_ns = release_time if slot < 0 else stamps[slot]
            if pending_gauge is None:
                pending_gauge = counters.gauge("rwq_pending_entries")
            pending_gauge.value += pending - last_pending.get(track, 0)
            last_pending[track] = pending
            if reason is None:
                if enqueued is None:
                    enqueued = counters.counter("rwq_stores_enqueued")
                enqueued.value += 1.0
                emit(
                    EventKind.RWQ_ENQUEUE,
                    time_ns,
                    track,
                    "store",
                    0.0,
                    {"addr": a, "size": b, "pending_entries": pending},
                )
                continue
            counters.counter(f"rwq_flushes:{reason}").inc()
            counters.histogram("rwq_flush_data_bytes").observe(a)
            emit(
                EventKind.RWQ_FLUSH,
                time_ns,
                track,
                f"flush:{reason}",
                0.0,
                {
                    "reason": reason,
                    "data_bytes": a,
                    "stores_absorbed": b,
                    "pending_entries": pending,
                },
            )

    # -- execution structure ----------------------------------------

    def kernel(self, gpu: int, start_ns: float, end_ns: float, iteration: int) -> None:
        self._emit(
            EventKind.KERNEL,
            start_ns,
            f"gpu{gpu}",
            f"kernel it{iteration}",
            end_ns - start_ns,
            {"gpu": gpu, "iteration": iteration},
        )

    def fence_release(self, gpu: int, time_ns: float) -> None:
        self._emit(
            EventKind.FENCE_RELEASE,
            time_ns,
            f"gpu{gpu}",
            "release",
            0.0,
            {"gpu": gpu},
        )

    def barrier(self, iteration: int, start_ns: float, end_ns: float) -> None:
        self._emit(
            EventKind.BARRIER,
            start_ns,
            "system",
            f"barrier it{iteration}",
            end_ns - start_ns,
            {"iteration": iteration},
        )

    def iteration(self, index: int, start_ns: float, end_ns: float) -> None:
        self._emit(
            EventKind.ITERATION,
            start_ns,
            "system",
            f"iteration {index}",
            end_ns - start_ns,
            {"index": index},
        )

    # -- grid executor ------------------------------------------------
    #
    # Grid-level events live on the "grid" track and carry *executor
    # wall-clock* nanoseconds since grid start, not simulated time --
    # they describe the orchestration layer, not the fabric.

    def cell_retried(
        self,
        index: int,
        key: str,
        attempt: int,
        kind: str,
        error_type: str,
        time_ns: float,
    ) -> None:
        """A grid cell is re-queued after a failed attempt."""
        self.counters.counter("cells_retried").inc()
        self._emit(
            EventKind.CELL_RETRIED,
            time_ns,
            "grid",
            f"retry cell {index}",
            0.0,
            {
                "index": index,
                "key": key,
                "attempt": attempt,
                "failure": kind,
                "error": error_type,
            },
        )

    def cell_quarantined(
        self,
        index: int,
        key: str,
        attempts: int,
        kind: str,
        error_type: str,
        time_ns: float,
    ) -> None:
        """A grid cell exhausted its retry budget."""
        self.counters.counter("cells_quarantined").inc()
        self._emit(
            EventKind.CELL_QUARANTINED,
            time_ns,
            "grid",
            f"quarantine cell {index}",
            0.0,
            {
                "index": index,
                "key": key,
                "attempts": attempts,
                "failure": kind,
                "error": error_type,
            },
        )

    def outcome_cache(self, result: str, key: str, time_ns: float) -> None:
        """One :class:`OutcomeStore` lookup (``result``: hit/miss)."""
        self.counters.counter(f"outcome_cache:{result}").inc()
        self._emit(
            EventKind.OUTCOME_CACHE,
            time_ns,
            "grid",
            f"outcome {result}",
            0.0,
            {"result": result, "key": key},
        )

    # -- engine hook -------------------------------------------------

    def engine_step(self, now_ns: float) -> None:
        """Per-event engine callback: invariant check only, no event."""
        if self.checker is not None:
            self.checker.engine_time(now_ns)

    # -- lifecycle ----------------------------------------------------

    def finish(self) -> None:
        """Close the run: final conservation checks, final sample."""
        if self._finished:
            return
        self._finished = True
        if self._next_sample is not None and self.events:
            self._next_sample = self._max_time_ns
            self._sample()
        if self.checker is not None:
            self.checker.finish()

    def summary(self) -> dict:
        """Compact roll-up for reports and export metadata."""
        return {
            "events": len(self.events),
            "max_time_ns": self._max_time_ns,
            "counters": self.counters.snapshot(),
            "histograms": self.counters.histogram_summary(),
        }
