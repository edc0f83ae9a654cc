"""BENCHMARK.json: metric-name and unit grammar, and the workloads it
lists are the ones the benchmark runs."""

import re

import pytest

import run
import workloads

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.mark.parametrize("name", [*run.END_TO_END, *run.PER_LAYER, *run.WORKLOADS])
def test_name_grammar(name):
    assert NAME.fullmatch(name), name


@pytest.mark.parametrize("unit", sorted({*run.END_TO_END.values(), *run.PER_LAYER.values()}))
def test_unit_grammar(unit):
    assert UNIT.fullmatch(unit), unit


def test_bad_names_are_rejected():
    for bad in ("_x", "a b", "wall/s", "x" * 65, ""):
        assert not NAME.fullmatch(bad)


def test_benchmark_json_keys():
    assert set(run.BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert run.BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert run.BENCHMARK["paths"] == ["perfbench"]
    assert 1 <= run.BENCHMARK["run_seconds"] <= 60


def test_benchmark_json_metrics():
    e2e = {m["name"]: m for m in run.BENCHMARK["end_to_end"]}
    layer = {m["name"]: m for m in run.BENCHMARK["per_layer"]}
    assert len(e2e) == len(run.BENCHMARK["end_to_end"])
    assert len(layer) == len(run.BENCHMARK["per_layer"])
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    for m in e2e.values():
        assert set(m) == {"name", "unit", "better", "bound"}
        assert m["better"] in ("higher", "lower") and 0 < m["bound"] <= 0.25
    for m in layer.values():
        assert set(m) == {"name", "unit", "better"}
        assert m["better"] in ("higher", "lower")


def test_workloads_have_why_and_layer_mapping():
    assert sorted(run.WORKLOADS) == sorted(workloads.REGISTRY) == sorted(workloads.MOVES)
    for w in run.BENCHMARK["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"], w["name"]
        for layer_metric in workloads.MOVES[w["name"]]:
            assert layer_metric in run.PER_LAYER, layer_metric
