"""End-to-end integration: the paper's qualitative claims must hold on
the scaled-down suite."""

import pytest

from repro.analysis import geomean
from repro.run import RunSpec, labeled_sweep

FIGURE9 = ("p2p", "dma", "finepack", "infinite")


class Comparison:
    """One workload under several paradigms plus the 1-GPU baseline."""

    def __init__(self, workload: str, paradigms=FIGURE9, **params):
        base = RunSpec(workload=workload, workload_params=params, iterations=2)
        self.points = labeled_sweep(
            {p: base.with_options(paradigm=p) for p in paradigms}
        ).by_label()
        self.runs = {label: p.metrics for label, p in self.points.items()}

    def speedup(self, paradigm: str) -> float:
        return self.points[paradigm].speedup

    def speedups(self) -> dict[str, float]:
        return {label: p.speedup for label, p in self.points.items()}


@pytest.fixture(scope="module")
def jacobi():
    return Comparison("jacobi", n=512)


@pytest.fixture(scope="module")
def pagerank():
    # Evaluation scale: the scaled-down variants are launch-overhead
    # dominated and compress the paradigm gaps.
    return Comparison("pagerank", paradigms=("p2p", "dma", "finepack", "wc", "infinite"))


@pytest.fixture(scope="module")
def sssp():
    return Comparison("sssp", n=16_000)


@pytest.fixture(scope="module")
def ct():
    return Comparison("ct")


class TestRegularApplications:
    def test_p2p_scales_well(self, jacobi):
        """Fig. 9: P2P stores achieve considerable speedups for the
        regular (full-cacheline-store) applications -- essentially the
        whole infinite-bandwidth opportunity."""
        assert jacobi.speedup("p2p") > 0.95 * jacobi.speedup("infinite")

    def test_finepack_matches_p2p(self, jacobi):
        assert jacobi.speedup("finepack") == pytest.approx(
            jacobi.speedup("p2p"), rel=0.05
        )

    def test_dma_below_store_paradigms(self, jacobi):
        assert jacobi.speedup("dma") < jacobi.speedup("p2p")


class TestIrregularApplications:
    def test_p2p_near_or_below_single_gpu(self, pagerank):
        """Fig. 9: raw P2P stores can be a net slowdown."""
        assert pagerank.speedup("p2p") < 1.2

    def test_finepack_recovers_scaling(self, pagerank):
        assert pagerank.speedup("finepack") > 1.5 * pagerank.speedup("p2p")

    def test_ordering_p2p_dma_finepack(self, sssp):
        sp = sssp.speedups()
        assert sp["p2p"] < sp["finepack"]
        assert sp["dma"] < sp["finepack"]

    def test_finepack_within_opportunity(self, pagerank):
        assert pagerank.speedup("finepack") <= pagerank.speedup("infinite") + 1e-9


class TestDataVolume:
    def test_finepack_moves_less_than_p2p(self, pagerank, sssp):
        for result in (pagerank, sssp):
            fp = result.runs["finepack"].wire_bytes
            assert result.runs["p2p"].wire_bytes > 1.5 * fp

    def test_finepack_beats_write_combining(self, pagerank):
        """Sec. VI-A: FinePack reduces wire data vs WC alone (~24%)."""
        fp = pagerank.runs["finepack"].wire_bytes
        wc = pagerank.runs["wc"].wire_bytes
        assert wc / fp > 1.1

    def test_p2p_overhead_share_is_large(self, sssp):
        b = sssp.runs["p2p"].bytes
        assert b.overhead > b.useful  # tiny stores: headers dominate


class TestCTOutlier:
    def test_low_coalescing(self, ct):
        """Fig. 11: CT packs far fewer stores per packet."""
        assert ct.runs["finepack"].packets.mean_stores_per_packet < 15

    def test_still_scales(self, ct):
        """Fig. 9: CT scales well anyway -- it is compute bound."""
        assert ct.speedup("finepack") > 2.5
        assert ct.speedup("dma") > 1.8

    def test_finepack_close_to_p2p(self, ct):
        """With no spatial locality FinePack cannot beat raw stores."""
        assert ct.speedup("finepack") == pytest.approx(ct.speedup("p2p"), rel=0.1)


class TestAggregate:
    def test_geomean_sanity(self, jacobi, pagerank, sssp, ct):
        results = [jacobi, pagerank, sssp, ct]
        fp = geomean([r.speedup("finepack") for r in results])
        inf = geomean([r.speedup("infinite") for r in results])
        assert 1.5 < fp <= inf
        # FinePack captures a large share of the opportunity (paper: 71%).
        assert fp / inf > 0.5
