"""Plumbing of ``fidelity="analytical"`` through spec, context,
executor, and CLI."""

from __future__ import annotations

import io
import pickle

import pytest

from repro.cli import main
from repro.run import RunContext, RunSpec, labeled_sweep, refine_top_k
from repro.sim.metrics import RunMetrics


def run_cli(*argv) -> str:
    out = io.StringIO()
    assert main(list(argv), out=out) == 0
    return out.getvalue()


PARTITION_SCENARIO = (
    '{"events": [{"at_ms": 0.0, "kind": "link_down", "src": 0, "dst": 1}]}'
)


class TestSpec:
    def test_rejects_unknown_fidelity(self):
        with pytest.raises(ValueError, match="fidelity"):
            RunSpec(workload="jacobi", fidelity="approximate")

    def test_rejects_analytical_with_scenario(self):
        with pytest.raises(ValueError, match="event-ordered"):
            RunSpec(
                workload="jacobi",
                scenario=PARTITION_SCENARIO,
                fidelity="analytical",
            )

    def test_key_distinguishes_fidelity(self):
        des = RunSpec(workload="jacobi")
        ana = des.with_options(fidelity="analytical")
        assert des.key() != ana.key()
        # ...but the trace is fidelity-independent: same workload
        # events feed both tiers, so cached traces are shared.
        assert des.trace_key() == ana.trace_key()

    def test_baseline_inherits_fidelity(self):
        ana = RunSpec(workload="jacobi", fidelity="analytical")
        assert ana.single_gpu_baseline().fidelity == "analytical"


class TestContext:
    def test_analytical_dispatch_builds_no_system(self):
        spec = RunSpec(
            workload="jacobi", paradigm="p2p", n_gpus=2, iterations=1,
            fidelity="analytical",
        )
        ctx = RunContext(spec)
        metrics = ctx.run()
        assert metrics.fidelity == "analytical"
        assert ctx._system is None  # no event loop was constructed

    def test_tracer_rejected(self):
        spec = RunSpec(
            workload="jacobi", n_gpus=2, iterations=1, fidelity="analytical"
        )
        with pytest.raises(ValueError, match="discrete events"):
            RunContext(spec, tracer=object()).run()


class TestMetricsAttribute:
    def test_instance_override_survives_pickle(self):
        spec = RunSpec(
            workload="jacobi", paradigm="p2p", n_gpus=2, iterations=1,
            fidelity="analytical",
        )
        metrics = RunContext(spec).run()
        clone = pickle.loads(pickle.dumps(metrics))
        assert clone.fidelity == "analytical"

    def test_class_default_is_des(self):
        assert RunMetrics.fidelity == "des"

    def test_summary_tags_non_default_fidelity_only(self):
        spec = RunSpec(workload="jacobi", n_gpus=2, iterations=1)
        des = RunContext(spec).run()
        ana = RunContext(spec.with_options(fidelity="analytical")).run()
        assert "fidelity" not in des.summary()
        assert ana.summary()["fidelity"] == "analytical"


class TestRefineTopK:
    def test_top_point_refined_to_des(self):
        labeled = {
            p: RunSpec(
                workload="jacobi", paradigm=p, n_gpus=2, iterations=1,
                fidelity="analytical",
            )
            for p in ("p2p", "finepack")
        }
        sweep = labeled_sweep(labeled)
        assert all(p.metrics.fidelity == "analytical" for p in sweep.points)
        refined_run, refined_labels = refine_top_k(sweep, labeled, 1)
        assert len(refined_labels) == 1
        assert len(refined_run.points) == len(sweep.points)
        by_label = {p.label: p for p in refined_run.points}
        for label, point in by_label.items():
            expected = "des" if label in refined_labels else "analytical"
            assert point.metrics.fidelity == expected
        # The refined baseline is a DES run too, so speedups compare
        # like against like for the winners.
        assert refined_run.baseline.spec.fidelity == "des"

    def test_k_zero_is_identity(self):
        labeled = {
            "p2p": RunSpec(
                workload="jacobi", paradigm="p2p", n_gpus=2, iterations=1,
                fidelity="analytical",
            )
        }
        sweep = labeled_sweep(labeled)
        same, refined = refine_top_k(sweep, labeled, 0)
        assert same is sweep
        assert refined == set()


class TestCLI:
    def test_run_reports_fidelity(self):
        text = run_cli(
            "run", "jacobi", "finepack", "--gpus", "2", "--iterations", "1",
            "--fidelity", "analytical",
        )
        assert "analytical" in text

    def test_sweep_refine_labels_rows(self):
        text = run_cli(
            "sweep", "jacobi", "paradigm", "--gpus", "2", "--iterations", "1",
            "--fidelity", "analytical", "--refine-top", "1",
        )
        assert "des (refined)" in text
        assert "analytical" in text

    def test_compare_has_fidelity_column(self):
        text = run_cli(
            "compare", "jacobi", "--gpus", "2", "--iterations", "1",
            "--paradigms", "p2p", "finepack", "--fidelity", "analytical",
        )
        assert "fidelity" in text
        assert "analytical" in text

    def test_refine_requires_analytical(self):
        with pytest.raises(SystemExit):
            run_cli(
                "sweep", "jacobi", "paradigm", "--gpus", "2",
                "--iterations", "1", "--refine-top", "1",
            )

    def test_trace_out_requires_des(self, tmp_path):
        with pytest.raises(SystemExit):
            run_cli(
                "run", "jacobi", "finepack", "--gpus", "2",
                "--iterations", "1", "--fidelity", "analytical",
                "--trace-out", str(tmp_path / "t.json"),
            )

    def test_error_rate_requires_des(self):
        with pytest.raises(SystemExit):
            run_cli(
                "run", "jacobi", "finepack", "--gpus", "2",
                "--iterations", "1", "--fidelity", "analytical",
                "--error-rate", "0.1",
            )

    def test_chaos_requires_des(self):
        with pytest.raises(SystemExit):
            run_cli(
                "chaos", "jacobi", "--gpus", "2", "--iterations", "1",
                "--fidelity", "analytical",
            )
