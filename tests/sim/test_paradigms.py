"""Communication paradigm tests."""

import numpy as np
import pytest

from repro import registry
from repro.gpu.compute import KernelWork
from repro.interconnect.message import MessageKind
from repro.interconnect.pcie import PCIE_GEN4, PCIeProtocol
from repro.sim.paradigms import (
    BulkDMAParadigm,
    FinePackParadigm,
    GPSParadigm,
    InfiniteBandwidthParadigm,
    P2PStoreParadigm,
    make_paradigm,
)
from repro.trace.intervals import IntervalSet
from repro.trace.stream import DMATransfer, KernelPhase, RemoteStoreBatch

BASE = 1 << 34


def phase(addrs=(), sizes=(), dsts=(), dma=()):
    stores = RemoteStoreBatch(
        np.asarray(addrs, np.int64), np.asarray(sizes, np.int64), np.asarray(dsts, np.int64)
    ) if len(addrs) else RemoteStoreBatch.empty()
    return KernelPhase(
        gpu=0,
        work=KernelWork(flops=1, dram_bytes=1),
        stores=stores,
        dma=list(dma),
    )


@pytest.fixture
def proto():
    return PCIeProtocol(PCIE_GEN4)


class TestRegistry:
    def test_all_names(self):
        assert set(registry.paradigms.names()) == {
            "p2p", "wc", "gps", "finepack", "dma", "dma_sliced", "infinite",
        }

    def test_make_by_name(self):
        assert isinstance(make_paradigm("finepack"), FinePackParadigm)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            make_paradigm("carrier-pigeon")


class TestStoreParadigms:
    def test_p2p_issue_times_spread_across_kernel(self, proto):
        p = P2PStoreParadigm()
        p.attach(2, proto)
        ph = phase([BASE, BASE + 256, BASE + 512], [8, 8, 8], [1, 1, 1])
        msgs = p.phase_messages(ph, 0.0, 300.0, {})
        times = [m.issue_time for m in msgs]
        assert times == [100.0, 200.0, 300.0]

    def test_finepack_flushes_at_kernel_end(self, proto):
        p = FinePackParadigm()
        p.attach(2, proto)
        ph = phase([BASE, BASE + 256], [8, 8], [1, 1])
        msgs = p.phase_messages(ph, 0.0, 100.0, {})
        assert len(msgs) == 1
        assert msgs[0].kind is MessageKind.FINEPACK
        assert msgs[0].issue_time == 100.0

    def test_gps_subscription_filter(self, proto):
        p = GPSParadigm(subscription="oracle")
        p.attach(2, proto)
        ph = phase([BASE, BASE + 4096], [8, 8], [1, 1])
        reads = {1: IntervalSet.from_ranges([BASE], [8])}
        msgs = p.phase_messages(ph, 0.0, 100.0, reads)
        # Only the subscribed (read) store survives; its 8 B round out
        # to a full 32 B sector.
        assert sum(m.payload_bytes for m in msgs) == 32
        assert msgs[0].meta["range1"] == (BASE, 32)

    def test_gps_drops_everything_without_readers(self, proto):
        p = GPSParadigm(subscription="oracle")
        p.attach(2, proto)
        ph = phase([BASE], [8], [1])
        assert p.phase_messages(ph, 0.0, 100.0, {}) == []


class TestDMA:
    def test_messages_after_compute_with_overhead(self, proto):
        p = BulkDMAParadigm(per_call_overhead_ns=1000.0)
        p.attach(2, proto)
        ph = phase(dma=[
            DMATransfer(dst=1, dst_addr=BASE, nbytes=4096),
            DMATransfer(dst=1, dst_addr=BASE + 8192, nbytes=4096),
        ])
        msgs = p.phase_messages(ph, 0.0, 500.0, {})
        assert [m.issue_time for m in msgs] == [1500.0, 2500.0]
        assert all(m.kind is MessageKind.DMA_CHUNK for m in msgs)
        assert msgs[0].payload_bytes == 4096

    def test_no_overlap_flag(self):
        assert BulkDMAParadigm.overlaps_compute is False


class TestInfinite:
    def test_no_messages(self, proto):
        p = InfiniteBandwidthParadigm()
        p.attach(2, proto)
        ph = phase([BASE], [8], [1], dma=[DMATransfer(dst=1, dst_addr=BASE, nbytes=64)])
        assert p.phase_messages(ph, 0.0, 100.0, {}) == []
