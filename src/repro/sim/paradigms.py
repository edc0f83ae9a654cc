"""Inter-GPU communication paradigms (paper Sec. V).

Each paradigm turns a :class:`KernelPhase`'s communication into wire
messages with paradigm-specific timing:

* :class:`P2PStoreParadigm` -- remote stores leave as individual TLPs
  *during* the kernel (compute/communication overlap, poor goodput).
* :class:`WriteCombiningParadigm` -- stores pass a cacheline-granular
  combining buffer first (the "write combining alone" comparison).
* :class:`GPSParadigm` -- write combining at full-line granularity plus
  GPS's subscription filter: stores to replicas the consumer never
  reads are elided entirely (modelling MICRO'21 GPS's first-order
  effects).
* :class:`FinePackParadigm` -- stores pass the FinePack remote write
  queue and packetizer (the paper's design).
* :class:`BulkDMAParadigm` -- no stores during compute; whole regions
  are copied at the kernel boundary (no overlap, per-call software
  overhead, over-transfer of un-updated bytes).
* :class:`InfiniteBandwidthParadigm` -- the paper's upper bound: the
  memcpy paradigm with transfer time analytically elided.

Stores are injected spread uniformly across the kernel's compute window
(data is produced as the kernel progresses), which is what gives the
store-based paradigms their overlap.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from ..core.config import FinePackConfig
from ..registry import paradigms as _registry
from ..core.egress import (
    FinePackEgress,
    PassthroughEgress,
    WriteCombiningEgress,
)
from ..interconnect.message import MessageKind, WireMessage
from ..interconnect.pcie import PCIeProtocol
from ..perf.config import get_perf_config
from ..trace.intervals import IntervalSet
from ..trace.stream import KernelPhase


def _issue_times(n: int, start: float, end: float) -> np.ndarray:
    """Spread ``n`` store issue times uniformly across (start, end]."""
    if n == 0:
        return np.empty(0)
    return start + (end - start) * (np.arange(1, n + 1) / n)


def _interleave_atomics(addrs, sizes, dsts, atomics):
    """Columnar equivalent of the scalar atomic-interleave loop.

    The scalar path spreads atomics evenly through the store stream
    with shifting ``list.insert`` positions ``(i + 1) * stride + i``;
    ``np.insert`` positions refer to the pre-insert array, so those map
    back to ``(i + 1) * stride`` and the running ``min(len(ops), ...)``
    clamp becomes a clamp to the store count.  Returns the interleaved
    ``(addrs, sizes, dsts, is_atomic)`` columns.
    """
    n_stores = int(addrs.size)
    if atomics.count == 0:
        return addrs, sizes, dsts, np.zeros(n_stores, dtype=bool)
    stride = max(1, (n_stores + 1) // (atomics.count + 1))
    at = np.minimum((np.arange(atomics.count) + 1) * stride, n_stores)
    return (
        np.insert(addrs, at, atomics.addrs),
        np.insert(sizes, at, atomics.sizes),
        np.insert(dsts, at, atomics.dsts),
        np.insert(np.zeros(n_stores, dtype=bool), at, True),
    )


class Paradigm(abc.ABC):
    """Base class: converts phases to timed wire messages."""

    #: Short identifier used in reports and the runner registry.
    name: str = "abstract"
    #: Whether communication overlaps the kernel (True for store-based).
    overlaps_compute: bool = True

    @abc.abstractmethod
    def attach(self, n_gpus: int, protocol: PCIeProtocol) -> None:
        """Create per-GPU state for a system of ``n_gpus`` GPUs."""

    @abc.abstractmethod
    def phase_messages(
        self,
        phase: KernelPhase,
        compute_start: float,
        compute_end: float,
        consumer_reads: dict[int, IntervalSet],
    ) -> list[WireMessage]:
        """Messages generated by one GPU's phase, stamped with issue times."""


class _StoreParadigm(Paradigm):
    """Shared logic for paradigms that push individual stores."""

    def __init__(self) -> None:
        self.engines: list = []

    def _make_engine(self, gpu: int, n_gpus: int, protocol: PCIeProtocol):
        raise NotImplementedError

    def attach(self, n_gpus: int, protocol: PCIeProtocol) -> None:
        self.engines = [
            self._make_engine(g, n_gpus, protocol) for g in range(n_gpus)
        ]

    def _filter_stores(
        self, phase: KernelPhase, consumer_reads: dict[int, IntervalSet]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Hook for subscription-style filtering (default: keep all)."""
        s = phase.stores
        return s.addrs, s.sizes, s.dsts

    def _phase_op_columns(
        self,
        phase: KernelPhase,
        compute_start: float,
        compute_end: float,
        consumer_reads: dict[int, IntervalSet],
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One phase's op stream as ``(addrs, sizes, dsts, times,
        is_atomic)`` columns: subscription-filtered stores with atomics
        interleaved in issue order, stamped with uniform issue times.
        The single source of op ordering for every downstream path
        (columnar engines, batching, and the scalar fallback)."""
        addrs, sizes, dsts = self._filter_stores(phase, consumer_reads)
        n_ops = int(addrs.size) + phase.atomics.count
        times = _issue_times(n_ops, compute_start, compute_end)
        addrs, sizes, dsts, is_atomic = _interleave_atomics(
            addrs, sizes, dsts, phase.atomics
        )
        return addrs, sizes, dsts, times, is_atomic

    def phase_messages(
        self,
        phase: KernelPhase,
        compute_start: float,
        compute_end: float,
        consumer_reads: dict[int, IntervalSet],
    ) -> list[WireMessage]:
        engine = self.engines[phase.gpu]
        addrs, sizes, dsts, times, is_atomic = self._phase_op_columns(
            phase, compute_start, compute_end, consumer_reads
        )
        phase_ops = getattr(engine, "phase_ops", None)
        if phase_ops is not None and get_perf_config().memo_egress:
            # Columnar entry: the engine consumes the phase's op arrays
            # directly (and may replay a memoized packetization); falls
            # through to the per-op loop when the engine declines.
            out = phase_ops(addrs, sizes, dsts, times, is_atomic, compute_end)
            if out is not None:
                return out
        msgs: list[WireMessage] = []
        for atomic, a, n, d, t in zip(
            is_atomic.tolist(),
            addrs.tolist(),
            sizes.tolist(),
            dsts.tolist(),
            times.tolist(),
        ):
            if atomic:
                msgs.extend(engine.on_atomic(a, n, d, t))
            else:
                msgs.extend(engine.on_store(a, n, d, t))
        # Kernel end is a system-scoped release: flush everything.
        msgs.extend(engine.on_release(compute_end))
        return msgs

    def phase_batch(
        self,
        phase: KernelPhase,
        compute_start: float,
        compute_end: float,
        consumer_reads: dict[int, IntervalSet],
    ):
        """Array form of :meth:`phase_messages`, for batchable engines.

        Returns a :class:`repro.perf.batch.MessageBatch` covering the
        phase's whole op stream, or ``None`` when this paradigm's
        engine cannot batch (stateful engines) -- the caller then uses
        :meth:`phase_messages`.  The op ordering, issue times, stats
        mutations and release call are exactly the scalar path's.
        """
        engine = self.engines[phase.gpu]
        batch_ops = getattr(engine, "batch_ops", None)
        if batch_ops is None:
            return None
        addrs, sizes, dsts, times, is_atomic = self._phase_op_columns(
            phase, compute_start, compute_end, consumer_reads
        )
        batch = batch_ops(addrs, sizes, dsts, times, is_atomic)
        if batch is None:
            return None
        # Kernel end release: a no-op for batchable (stateless) engines
        # beyond its stats side effect.
        release = engine.on_release(compute_end)
        assert not release, "batchable engines must not emit on release"
        return batch


@_registry.register("p2p")
class P2PStoreParadigm(_StoreParadigm):
    """Raw fine-grained peer-to-peer stores (today's hardware)."""

    name = "p2p"

    def _make_engine(self, gpu: int, n_gpus: int, protocol: PCIeProtocol):
        return PassthroughEgress(protocol, gpu)


@_registry.register("wc")
class WriteCombiningParadigm(_StoreParadigm):
    """Cacheline write combining without FinePack packing."""

    name = "wc"

    def __init__(self, entries: int = 64) -> None:
        super().__init__()
        self.entries = entries

    def _make_engine(self, gpu: int, n_gpus: int, protocol: PCIeProtocol):
        return WriteCombiningEgress(protocol, gpu, n_gpus, entries=self.entries)


@_registry.register("gps")
class GPSParadigm(_StoreParadigm):
    """GPS-style proactive replication (Sec. VI-B comparison).

    Two first-order effects of GPS are modelled: (1) replica
    *subscription* -- traffic to replicas that never read the data is
    elided; (2) sector-granularity replication -- flushed lines ship
    rounded out to 32 B sectors, over-transferring the untouched bytes
    within each touched sector (the paper's "unneeded transfers within
    a cacheline").

    Two subscription modes:

    * ``"learned"`` (default, GPS's actual mechanism): epoch 0
      publishes everything; each epoch's observed reads unsubscribe
      written-but-unread pages for later epochs.
    * ``"oracle"``: stores whose bytes the consumer never reads are
      dropped from the start -- an upper bound on subscription savings.
    """

    name = "gps"

    def __init__(
        self,
        entries: int = 64,
        sector_bytes: int = 32,
        subscription: str = "learned",
        page_bytes: int = 4096,
    ) -> None:
        if subscription not in ("learned", "oracle"):
            raise ValueError(f"unknown subscription mode {subscription!r}")
        super().__init__()
        self.entries = entries
        self.sector_bytes = sector_bytes
        self.subscription = subscription
        self.page_bytes = page_bytes
        self.tables: list = []

    def _make_engine(self, gpu: int, n_gpus: int, protocol: PCIeProtocol):
        return WriteCombiningEgress(
            protocol, gpu, n_gpus, entries=self.entries, sector_bytes=self.sector_bytes
        )

    def attach(self, n_gpus: int, protocol: PCIeProtocol) -> None:
        super().attach(n_gpus, protocol)
        from .gps import SubscriptionTable

        self.tables = [
            SubscriptionTable(page_bytes=self.page_bytes) for _ in range(n_gpus)
        ]

    def _filter_stores(
        self, phase: KernelPhase, consumer_reads: dict[int, IntervalSet]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        s = phase.stores
        if s.count == 0:
            return s.addrs, s.sizes, s.dsts
        if self.subscription == "learned":
            table = self.tables[phase.gpu]
            keep = table.filter_stores(s.addrs, s.sizes, s.dsts)
            # This phase's consumers' reads become the learning signal
            # for the next epoch.
            table.learn_epoch(consumer_reads)
            return s.addrs[keep], s.sizes[keep], s.dsts[keep]
        keep = np.zeros(s.count, dtype=bool)
        for dst in s.destinations():
            reads = consumer_reads.get(dst, IntervalSet.empty())
            if not reads:
                continue
            idx = np.flatnonzero(s.dsts == dst)
            a = s.addrs[idx]
            e = a + s.sizes[idx]
            # A store survives subscription if any of its bytes are read:
            # the last read interval starting before the store's end must
            # extend past the store's start.
            i = np.searchsorted(reads.starts, e, side="left") - 1
            ok = (i >= 0) & (reads.ends[np.clip(i, 0, None)] > a)
            keep[idx[ok]] = True
        return s.addrs[keep], s.sizes[keep], s.dsts[keep]


@_registry.register("finepack")
class FinePackParadigm(_StoreParadigm):
    """The paper's design: remote write queue + packetizer.

    ``flush_timeout_ns`` and ``windows`` expose the optional Sec. IV-B
    timeout flush and Sec. IV-C multi-window extensions (both off in
    the paper's evaluation and by default).
    """

    name = "finepack"

    def __init__(
        self,
        config: FinePackConfig | None = None,
        flush_timeout_ns: float | None = None,
        windows: int = 1,
    ) -> None:
        super().__init__()
        self.config = config or FinePackConfig()
        self.flush_timeout_ns = flush_timeout_ns
        self.windows = windows

    def _make_engine(self, gpu: int, n_gpus: int, protocol: PCIeProtocol):
        return FinePackEgress(
            self.config,
            protocol,
            gpu,
            n_gpus,
            flush_timeout_ns=self.flush_timeout_ns,
            windows=self.windows,
        )


@_registry.register("dma")
@dataclass
class BulkDMAParadigm(Paradigm):
    """Kernel-boundary memcpy of whole regions (no overlap).

    ``per_call_overhead_ns`` models the runtime/driver software stack
    each ``cudaMemcpyPeerAsync`` traverses (paper Sec. II-B: these
    "become cost prohibitive if the granularity of the transfer is
    small").
    """

    per_call_overhead_ns: float = 5_000.0
    name = "dma"
    overlaps_compute = False

    def attach(self, n_gpus: int, protocol: PCIeProtocol) -> None:
        self.protocol = protocol

    def phase_messages(
        self,
        phase: KernelPhase,
        compute_start: float,
        compute_end: float,
        consumer_reads: dict[int, IntervalSet],
    ) -> list[WireMessage]:
        msgs: list[WireMessage] = []
        t = compute_end
        for transfer in phase.dma:
            t += self.per_call_overhead_ns
            payload, overhead = self.protocol.bulk_transfer_cost(transfer.nbytes)
            msgs.append(
                WireMessage(
                    src=phase.gpu,
                    dst=transfer.dst,
                    payload_bytes=payload,
                    overhead_bytes=overhead,
                    kind=MessageKind.DMA_CHUNK,
                    issue_time=t,
                    stores_packed=0,
                    meta={
                        "ranges": (
                            np.asarray([transfer.dst_addr], dtype=np.int64),
                            np.asarray([transfer.nbytes], dtype=np.int64),
                        )
                    },
                )
            )
        return msgs


@_registry.register("dma_sliced")
class SlicedDMAParadigm(BulkDMAParadigm):
    """Expert-tuned memcpy: subdivided kernels with overlapped copies.

    The paper (Sec. II-A) notes that expert programmers can subdivide
    kernels and issue memcpys in smaller pieces that overlap with the
    remaining compute -- at significant programming cost.  This
    paradigm models that port: each phase's copies are split into
    ``slices`` chunks, and chunk *i* is issued as soon as the *i*-th
    slice of the kernel completes, overlapping all but the final
    slice's transfer with compute.
    """

    name = "dma_sliced"
    overlaps_compute = True

    def __init__(self, slices: int = 4, per_call_overhead_ns: float = 5_000.0):
        if slices < 1:
            raise ValueError(f"slices must be >= 1, got {slices}")
        super().__init__(per_call_overhead_ns=per_call_overhead_ns)
        self.slices = slices

    def phase_messages(
        self,
        phase: KernelPhase,
        compute_start: float,
        compute_end: float,
        consumer_reads: dict[int, IntervalSet],
    ) -> list[WireMessage]:
        msgs: list[WireMessage] = []
        duration = compute_end - compute_start
        t_engine = compute_start
        for i in range(self.slices):
            slice_done = compute_start + duration * (i + 1) / self.slices
            t_engine = max(t_engine, slice_done)
            for transfer in phase.dma:
                chunk = transfer.nbytes // self.slices
                offset = i * chunk
                if i == self.slices - 1:
                    chunk = transfer.nbytes - offset
                if chunk <= 0:
                    continue
                t_engine += self.per_call_overhead_ns
                payload, overhead = self.protocol.bulk_transfer_cost(chunk)
                msgs.append(
                    WireMessage(
                        src=phase.gpu,
                        dst=transfer.dst,
                        payload_bytes=payload,
                        overhead_bytes=overhead,
                        kind=MessageKind.DMA_CHUNK,
                        issue_time=t_engine,
                        stores_packed=0,
                        meta={"range1": (transfer.dst_addr + offset, chunk)},
                    )
                )
        return msgs


@_registry.register("infinite")
class InfiniteBandwidthParadigm(BulkDMAParadigm):
    """Upper bound: memcpy paradigm with transfer time elided.

    The paper models it by "analytically eliding the data transfer
    time"; we emit no messages at all, so iteration time is pure
    compute plus barrier.
    """

    name = "infinite"

    def __init__(self) -> None:
        super().__init__(per_call_overhead_ns=0.0)

    def phase_messages(self, phase, compute_start, compute_end, consumer_reads):
        return []


def make_paradigm(name: str, **kwargs) -> Paradigm:
    """Instantiate a paradigm by registry name.

    Raises :class:`repro.registry.RegistryError` (a :class:`KeyError`)
    with close-match suggestions for unknown names.
    """
    return _registry.resolve(name)(**kwargs)
