"""The paper's paradigm comparison, run through the run layer on a
scaled-down workload."""

import pytest

from repro.analysis import bytes_normalized_to, geomean
from repro.run import RunContext, RunSpec, SweepRun, labeled_sweep

JACOBI = RunSpec(workload="jacobi", workload_params={"n": 256}, iterations=2)


@pytest.fixture(scope="module")
def comparison() -> SweepRun:
    return labeled_sweep(
        {p: JACOBI.with_options(paradigm=p)
         for p in ("p2p", "dma", "finepack", "infinite")}
    )


def speedups(sweep: SweepRun) -> dict[str, float]:
    return {p.label: p.speedup for p in sweep.points}


class TestCompareParadigms:
    def test_all_paradigms_present(self, comparison):
        assert set(comparison.by_label()) == {"p2p", "dma", "finepack", "infinite"}

    def test_speedups_positive(self, comparison):
        assert all(v > 0 for v in speedups(comparison).values())

    def test_infinite_is_upper_bound(self, comparison):
        sp = speedups(comparison)
        assert sp["infinite"] >= max(sp["p2p"], sp["dma"], sp["finepack"]) - 1e-9

    def test_bytes_normalized_reference_is_one(self, comparison):
        norm = bytes_normalized_to(comparison, "dma")
        assert norm["dma"]["total"] == pytest.approx(1.0)

    def test_bytes_categories_sum(self, comparison):
        norm = bytes_normalized_to(comparison, "dma")
        for row in norm.values():
            assert row["useful"] + row["protocol_overhead"] + row["wasted"] == pytest.approx(
                row["total"]
            )

    def test_normalize_to_empty_reference_rejected(self, comparison):
        with pytest.raises(ValueError):
            bytes_normalized_to(comparison, "infinite")


class TestRunWorkload:
    def test_explicit_trace_reuse(self):
        spec = JACOBI.with_options(paradigm="finepack")
        trace = RunContext(spec).trace
        a = RunContext(spec, trace=trace).run()
        b = RunContext(spec, trace=trace).run()
        assert a.total_time_ns == b.total_time_ns
        assert a.wire_bytes == b.wire_bytes


class TestGeomean:
    def test_value(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            geomean([])

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])
