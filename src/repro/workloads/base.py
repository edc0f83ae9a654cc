"""Workload framework: base class and trace-building helpers.

A workload runs its real algorithm partitioned over N virtual GPUs and
records what each GPU's kernels would do: compute work, remote stores
(at warp/L1-coalesced transaction granularity), consumer read sets, and
the bulk-copy plan of a memcpy-paradigm port.  The same object produces
the 1-GPU baseline trace (no remote traffic, full problem per kernel).
"""

from __future__ import annotations

import abc

import numpy as np

from ..gpu.coalescer import coalesce_stream
from ..gpu.memory import MemorySpace, ReplicatedBuffer
from ..trace.columns import (
    DEFAULT_CHUNK_OPS,
    ColumnBlockBuilder,
    blocks_to_trace,
    drain_blocks,
)
from ..trace.intervals import IntervalSet
from ..trace.stream import RemoteStoreBatch, WorkloadTrace


class MultiGPUWorkload(abc.ABC):
    """Base class for the eight applications of paper Sec. V.

    The native emission interface is :meth:`iter_phases`: a generator
    yielding ``(iteration, KernelPhase)`` pairs iteration-major (every
    iteration exactly one phase per GPU, in GPU order) and *returning*
    the trace metadata dict -- metadata may summarize the finished run
    (SSSP's reached count), so it only exists once the stream ends.
    :meth:`iter_columns` packs that stream into bounded
    :class:`~repro.trace.columns.ColumnBlock` chunks for streaming
    consumers (the spill-while-generating trace cache), and
    :meth:`generate_trace` is a thin adapter assembling the blocks into
    a whole :class:`WorkloadTrace`.  Subclasses implement
    :meth:`iter_phases`.
    """

    #: Short identifier used in reports ("jacobi", "sssp", ...).
    name: str = "abstract"
    #: The paper's characterization of the communication pattern.
    comm_pattern: str = "unknown"

    @abc.abstractmethod
    def iter_phases(self, n_gpus: int, iterations: int = 3, seed: int = 7):
        """Yield ``(iteration, KernelPhase)``; return the metadata dict."""

    def iter_columns(
        self,
        n_gpus: int,
        iterations: int = 3,
        seed: int = 7,
        chunk_ops: int = DEFAULT_CHUNK_OPS,
    ):
        """Yield :class:`ColumnBlock` chunks; return the metadata dict.

        The streamed chunks carry exactly the phases
        :meth:`iter_phases` emits -- chunking never splits a phase, so
        any chunk size reassembles to the identical trace (the
        property the trace cache's spill-while-generating path and the
        Hypothesis identity test both rely on).
        """
        builder = ColumnBlockBuilder(chunk_ops)
        gen = self.iter_phases(n_gpus, iterations=iterations, seed=seed)
        while True:
            try:
                iteration, phase = next(gen)
            except StopIteration as stop:
                metadata = dict(stop.value or {})
                break
            block = builder.add(iteration, phase)
            if block is not None:
                yield block
        tail = builder.finish()
        if tail is not None:
            yield tail
        return metadata

    def generate_trace(
        self, n_gpus: int, iterations: int = 3, seed: int = 7
    ) -> WorkloadTrace:
        """Execute the workload and return its whole trace (an adapter
        over :meth:`iter_columns`)."""
        blocks, metadata = drain_blocks(
            self.iter_columns(n_gpus, iterations=iterations, seed=seed)
        )
        return blocks_to_trace(self.name, n_gpus, blocks, metadata)

    def spec_params(self) -> dict:
        """Constructor kwargs that recreate this instance.

        The run layer (:class:`repro.run.RunSpec`) identifies a
        workload by registry name plus these parameters, so traces can
        be content-addressed and runs rebuilt in worker processes.  The
        default introspects ``__init__`` and reads the same-named
        attributes; workloads that transform an argument before storing
        it must keep the original under the parameter's name (see
        ``PagerankWorkload.band_fraction``) or override this method.
        """
        import inspect

        params: dict = {}
        for p in inspect.signature(type(self).__init__).parameters.values():
            if p.name == "self" or p.kind in (
                inspect.Parameter.VAR_POSITIONAL,
                inspect.Parameter.VAR_KEYWORD,
            ):
                continue
            if not hasattr(self, p.name):
                raise TypeError(
                    f"{type(self).__name__} does not store constructor "
                    f"parameter {p.name!r}; override spec_params()"
                )
            params[p.name] = getattr(self, p.name)
        return params

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r} pattern={self.comm_pattern!r}>"


def push_elements(
    element_ids: np.ndarray,
    elem_bytes: int,
    dst_gpu: int,
    dst_base: int,
    warp_size: int = 32,
) -> RemoteStoreBatch:
    """Build the store batch for pushing elements into a peer replica.

    ``element_ids`` are indices into the destination buffer, in the
    order the kernel's threads emit them (one element per thread).  The
    thread-level stream is passed through the warp/L1 coalescer, so
    adjacent element ids merge into wider transactions exactly as the
    hardware would merge them.
    """
    element_ids = np.asarray(element_ids, dtype=np.int64)
    if element_ids.size == 0:
        return RemoteStoreBatch.empty()
    addrs = dst_base + element_ids * elem_bytes
    sizes = np.full(element_ids.size, elem_bytes, dtype=np.int64)
    tx_addrs, tx_sizes, _ = coalesce_stream(addrs, sizes, warp_size=warp_size)
    dsts = np.full(tx_addrs.size, dst_gpu, dtype=np.int64)
    return RemoteStoreBatch(tx_addrs, tx_sizes, dsts)


def interleave(element_ids: np.ndarray, ways: int = 32) -> np.ndarray:
    """Reorder a push stream as ``ways`` round-robin CTA streams.

    GPU thread blocks are scheduled dynamically, so the global store
    order interleaves many CTAs' streams: elements that are adjacent in
    index space end up far apart in *issue* order.  This is what keeps
    irregular pushes at their natural 4-8 B granularity instead of
    artificially merging in the L1 because a trace was generated in
    sorted order.
    """
    element_ids = np.asarray(element_ids, dtype=np.int64)
    if ways <= 1 or element_ids.size <= ways:
        return element_ids
    pad = (-element_ids.size) % ways
    padded = np.concatenate([element_ids, np.full(pad, -1, dtype=np.int64)])
    out = padded.reshape(-1, ways).T.ravel()
    return out[out >= 0]


def element_intervals(
    element_ids: np.ndarray, elem_bytes: int, base: int
) -> IntervalSet:
    """Byte intervals covering the given elements of a buffer."""
    element_ids = np.asarray(element_ids, dtype=np.int64)
    if element_ids.size == 0:
        return IntervalSet.empty()
    starts = base + element_ids * elem_bytes
    return IntervalSet.from_ranges(starts, np.full(element_ids.size, elem_bytes))


def contiguous_interval(base: int, nbytes: int) -> IntervalSet:
    return IntervalSet.from_ranges([base], [nbytes])


def replicate(
    memory: MemorySpace, name: str, nbytes: int
) -> ReplicatedBuffer:
    """Allocate one replica of a buffer on every GPU."""
    return memory.alloc_replicated(name, nbytes)
