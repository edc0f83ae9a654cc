"""Breakdown analysis tests on a real (small) comparison."""

import pytest

from repro.analysis.breakdown import (
    breakdown_rows,
    data_reduction_factors,
    wasted_fraction,
)
from repro.run import RunSpec, labeled_sweep


@pytest.fixture(scope="module")
def comparison():
    base = RunSpec(
        workload="pagerank",
        workload_params={"n": 8_000, "avg_degree": 8},
        iterations=2,
    )
    return labeled_sweep(
        {p: base.with_options(paradigm=p)
         for p in ("p2p", "dma", "finepack", "infinite")}
    )


class TestBreakdown:
    def test_rows_exclude_infinite(self, comparison):
        rows = breakdown_rows(comparison)
        assert {r[1] for r in rows} == {"p2p", "dma", "finepack"}

    def test_rows_sum_consistent(self, comparison):
        for row in breakdown_rows(comparison):
            _, _, useful, overhead, wasted, total = row
            assert useful + overhead + wasted == pytest.approx(total)

    def test_finepack_reduces_data_vs_p2p(self, comparison):
        factors = data_reduction_factors(comparison)
        assert factors["p2p"] > 1.2

    def test_wasted_fraction_bounds(self, comparison):
        for point in comparison.points:
            assert 0.0 <= wasted_fraction(point.metrics) <= 1.0
