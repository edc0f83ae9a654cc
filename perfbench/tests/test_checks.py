"""Output checks: invariants at any seed, goldens at the default one."""

from checks import check_cells
from repro.perf.harness import fingerprint_metrics
from repro.sim.metrics import RunMetrics
from workloads import Cell, design_sweep_specs, sample_specs, speedup_errors


def metrics(useful=10, redundant=2, overhead=5, time_ns=100.0):
    m = RunMetrics(workload="w", paradigm="p2p", n_gpus=4, total_time_ns=time_ns)
    m.bytes.useful = useful
    m.bytes.wasted_redundant = redundant
    m.bytes.overhead = overhead
    return m


def test_healthy_cell_passes_invariants_and_golden():
    m = metrics()
    cell = Cell("w/p2p/4g", None, m)
    assert check_cells([cell], None) == {"w/p2p/4g": []}
    golden = {"w/p2p/4g": fingerprint_metrics(m)}
    assert check_cells([cell], golden) == {"w/p2p/4g": []}


def test_failures_are_reported():
    bad_bytes = metrics(useful=-1)
    degraded = metrics()
    degraded.degraded = True
    cells = [
        Cell("bytes", None, bad_bytes),
        Cell("degraded", None, degraded),
        Cell("raised", None, error="error: boom"),
        Cell("golden", None, metrics(time_ns=99.0)),
        Cell("missing", None, metrics()),
    ]
    golden = {"golden": fingerprint_metrics(metrics())}
    out = check_cells(cells, golden)
    assert any("bytes not conserved" in e for e in out["bytes"])
    assert any("degraded" in e for e in out["degraded"])
    assert "error: boom" in out["raised"]
    assert any("fingerprint" in e for e in out["golden"])
    assert "no golden fingerprint" in out["missing"]


def test_no_cells_is_a_failure():
    assert check_cells([], None) == {"no cells": ["no cells captured"]}


def test_speedup_error_arithmetic():
    base_ana, base_des = metrics(time_ns=200.0), metrics(time_ns=100.0)
    ana, des = metrics(time_ns=100.0), metrics(time_ns=100.0, useful=20)
    speed, wire = speedup_errors([((base_ana, base_des), [(ana, des)])])
    # analytical speedup 2.0 vs DES speedup 1.0
    assert speed == [1.0]
    assert wire == [abs(17 - 27) / 27]


def test_design_sample_is_stratified_and_fixed():
    specs = design_sweep_specs(7)
    assert len(specs) == 546
    sample = sample_specs(specs)
    assert sample == sample_specs(specs)
    assert len({(s.workload, s.paradigm) for s in sample}) == len(sample) == 39
