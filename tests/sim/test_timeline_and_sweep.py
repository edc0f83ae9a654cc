"""Timeline rendering, link utilization, and sweep utility tests."""

import pytest

from repro.core.config import FinePackConfig
from repro.interconnect.pcie import PCIE_GEN4, PCIE_GEN6
from repro.run import RunContext, RunOutcome, RunSpec, SweepPoint, SweepRun, labeled_sweep
from repro.sim.metrics import LinkUtilization, RunMetrics
from repro.sim.timeline import render_comparison, render_timeline

PAGERANK = RunSpec(workload="pagerank", workload_params={"n": 12_000}, iterations=2)


def run(paradigm: str) -> RunMetrics:
    return RunContext(PAGERANK.with_options(paradigm=paradigm)).run()


@pytest.fixture(scope="module")
def metrics():
    return run("p2p")


class TestLinkUtilization:
    def test_populated_after_run(self, metrics):
        assert metrics.links.by_link
        assert 0.0 < metrics.links.peak <= 1.0
        assert 0.0 < metrics.links.mean <= metrics.links.peak

    def test_gpu_egress_subset(self, metrics):
        egress = metrics.links.gpu_egress()
        assert egress
        assert all(name.startswith("gpu") for name in egress)

    def test_empty_default(self):
        assert LinkUtilization().peak == 0.0
        assert LinkUtilization().mean == 0.0

    def test_comm_bound_paradigm_busier(self):
        p2p = run("p2p")
        fp = run("finepack")
        assert p2p.links.peak > fp.links.peak


class TestTimeline:
    def test_render_contains_iterations(self, metrics):
        text = render_timeline(metrics)
        assert "it 0" in text and "it 1" in text
        assert "egress link utilization" in text

    def test_render_empty_run(self):
        m = RunMetrics(workload="x", paradigm="y", n_gpus=2)
        assert "(no iterations)" in render_timeline(m)

    def test_render_comparison_bars(self):
        runs = {p: run(p) for p in ("p2p", "finepack")}
        text = render_comparison(runs)
        assert "p2p" in text and "finepack" in text
        assert "ms" in text


def outcome(label: str = "x") -> RunOutcome:
    return RunOutcome(
        spec=RunSpec(workload=label),
        metrics=RunMetrics(workload=label, paradigm="y", n_gpus=2),
    )


class TestSweep:
    def test_subheader_sweep(self):
        result = labeled_sweep({
            f"{b}B": PAGERANK.with_options(
                paradigm="finepack", finepack=FinePackConfig(subheader_bytes=b)
            )
            for b in (2, 4, 5)
        })
        assert {p.label for p in result.points} == {"2B", "4B", "5B"}
        assert all(p.speedup > 0 for p in result.points)
        # best() selects the maximum-speedup point.  (At this reduced
        # scale the physics of the sweet spot is exercised by the
        # integration suite and Fig. 12 bench, not here.)
        assert result.best().speedup == max(p.speedup for p in result.points)

    def test_generation_sweep(self):
        result = labeled_sweep({
            label: PAGERANK.with_options(paradigm="p2p", generation=gen)
            for label, gen in {"gen4": PCIE_GEN4, "gen6": PCIE_GEN6}.items()
        })
        by = result.by_label()
        assert by["gen6"].speedup >= by["gen4"].speedup

    def test_single_gpu_time_positive(self):
        result = labeled_sweep({"p2p": PAGERANK.with_options(paradigm="p2p")})
        assert result.baseline.spec.n_gpus == 1
        assert result.baseline.metrics.total_time_ns > 0

    def test_empty_sweep_best_raises(self):
        with pytest.raises(ValueError):
            SweepRun(baseline=outcome()).best()

    def test_best_breaks_ties_by_label(self):
        """Exact speedup ties must resolve deterministically by label,
        not by the insertion order of the labeled specs."""

        def point(label, speedup):
            return SweepPoint(label=label, outcome=outcome(), speedup=speedup)

        # Adversarial insertion order: the tied winners arrive with the
        # lexicographically larger label first.
        result = SweepRun(
            baseline=outcome(),
            points=[point("zeta", 2.0), point("alpha", 2.0), point("mid", 1.5)],
        )
        assert result.best().label == "alpha"
        reversed_result = SweepRun(
            baseline=outcome(), points=list(reversed(result.points))
        )
        assert reversed_result.best().label == "alpha"

    def test_best_prefers_higher_speedup_over_label(self):
        result = SweepRun(
            baseline=outcome(),
            points=[
                SweepPoint(label="aaa", outcome=outcome(), speedup=1.0),
                SweepPoint(label="zzz", outcome=outcome(), speedup=3.0),
            ],
        )
        assert result.best().label == "zzz"
