"""Exporter tests: Chrome trace validity, JSONL round-trip, determinism."""

import hashlib
import io
import json

import pytest

from repro.obs import (
    EventKind,
    TraceSchemaError,
    Tracer,
    chrome_trace_dict,
    read_jsonl,
    validate_chrome_trace,
    validate_chrome_trace_file,
    write_chrome_trace,
    write_jsonl,
)
from repro.run import RunContext, RunSpec


def traced_run(iterations=1):
    tracer = Tracer()
    spec = RunSpec(
        workload="jacobi", workload_params={"n": 256}, n_gpus=2,
        iterations=iterations,
    )
    RunContext(spec, tracer=tracer).run()
    return tracer


@pytest.fixture(scope="module")
def tracer():
    return traced_run()


class TestChromeTrace:
    def test_valid_and_loads(self, tracer, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), tracer)
        obj = chrome_trace_dict(tracer)
        validate_chrome_trace(obj)
        reloaded = validate_chrome_trace_file(str(path))
        assert reloaded == json.loads(json.dumps(obj))

    def test_streamed_bytes_equal_json_dumps(self, tracer):
        other = traced_run(iterations=2)
        for tracers, metadata in (
            (tracer, None),
            ({"a": tracer, "b": other}, {"k": 1, "argv": ["run", "x"]}),
        ):
            buf = io.StringIO()
            write_chrome_trace(buf, tracers, metadata=metadata)
            want = json.dumps(chrome_trace_dict(tracers, metadata=metadata))
            assert buf.getvalue() == want

    def test_streamed_bytes_equal_json_dumps_edge_values(self):
        # Non-finite floats, non-ASCII names and nested attrs take the
        # encoder's slow paths; the streamed bytes must still match.
        t = Tracer(sample_every_ns=None, check_invariants=False)
        t.kernel(0, 0.0, float("inf"), iteration=0)
        t.fault_injected("link_fail", "gpü0->*", -0.0, 5.5, links=("a", 'b"c'))
        t.link_state_change("gpü0->sw0", "down", float("nan"))
        buf = io.StringIO()
        write_chrome_trace(buf, {"rün \u2603": t})
        assert buf.getvalue() == json.dumps(chrome_trace_dict({"rün \u2603": t}))

    def test_returned_events_are_the_written_ones(self, tracer):
        obj = write_chrome_trace(io.StringIO(), tracer, metadata={"k": 1})
        want = chrome_trace_dict(tracer, metadata={"k": 1})
        assert len(obj["traceEvents"]) == len(want["traceEvents"])
        assert list(obj["traceEvents"]) == want["traceEvents"]
        assert obj["metadata"] == want["metadata"]
        assert obj["displayTimeUnit"] == want["displayTimeUnit"]

    def test_phases_match_kinds(self, tracer):
        obj = chrome_trace_dict(tracer)
        phases = {e["cat"]: e["ph"] for e in obj["traceEvents"] if "cat" in e}
        assert phases["link_tx"] == "X"
        assert phases["kernel"] == "X"
        assert phases["msg_injected"] == "i"
        assert phases["counter_sample"] == "C"

    def test_tracks_become_named_threads(self, tracer):
        obj = chrome_trace_dict(tracer)
        thread_names = {
            e["args"]["name"]
            for e in obj["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "system" in thread_names
        assert any(t.startswith("gpu") for t in thread_names)
        assert any(t.startswith("flow ") for t in thread_names)

    def test_multiple_tracers_merge_as_processes(self, tracer):
        other = traced_run(iterations=2)
        obj = chrome_trace_dict({"a": tracer, "b": other}, metadata={"k": 1})
        pids = {e["pid"] for e in obj["traceEvents"]}
        assert pids == {0, 1}
        assert set(obj["metadata"]["runs"]) == {"a", "b"}
        assert obj["metadata"]["k"] == 1

    def test_timestamps_are_microseconds(self, tracer):
        obj = chrome_trace_dict(tracer)
        spans = [e for e in obj["traceEvents"] if e["ph"] == "X"]
        native_max = max(e.end_ns for e in tracer.events)
        assert max(e["ts"] + e["dur"] for e in spans) <= native_max * 1e-3 + 1e-9

    def test_accepts_file_object(self, tracer):
        buf = io.StringIO()
        write_chrome_trace(buf, tracer)
        validate_chrome_trace(json.loads(buf.getvalue()))


class TestPinnedBytes:
    """The exported bytes of a fixed traced run, pinned.

    The digests were recorded before the tracer's emission path and the
    Chrome writer were rewritten for speed; any change in event order,
    attributes, counter samples or encoding shows up here."""

    def test_ct_finepack_export_digests(self):
        tracer = Tracer(sample_every_ns=2_000.0)
        spec = RunSpec(
            workload="ct",
            workload_params={"total_corrections": 3000},
            paradigm="finepack",
            n_gpus=4,
            iterations=2,
        )
        RunContext(spec, tracer=tracer).run()
        chrome, jsonl = io.StringIO(), io.StringIO()
        write_chrome_trace(chrome, {"ct": tracer}, metadata={"k": 1})
        write_jsonl(jsonl, tracer)
        assert len(tracer.events) == 2737
        assert hashlib.sha256(chrome.getvalue().encode()).hexdigest() == (
            "817bba31a62ffe5f515bb8fc12f9e82d48d1d19fcfdebbdb9c198a90ab4516b4"
        )
        assert hashlib.sha256(jsonl.getvalue().encode()).hexdigest() == (
            "8c6dbc7991eee6954708977bdf6782a5ebdbaecbdb0b0d89c57dab0036cf8e57"
        )


class TestValidator:
    def test_rejects_non_dict(self):
        with pytest.raises(TraceSchemaError):
            validate_chrome_trace([])

    def test_rejects_missing_events(self):
        with pytest.raises(TraceSchemaError, match="traceEvents"):
            validate_chrome_trace({})

    def test_rejects_bad_phase(self):
        bad = {"traceEvents": [{"name": "x", "ph": "Z", "ts": 0, "pid": 0, "tid": 0}]}
        with pytest.raises(TraceSchemaError, match="phase"):
            validate_chrome_trace(bad)

    def test_rejects_span_without_duration(self):
        bad = {"traceEvents": [{"name": "x", "ph": "X", "ts": 0, "pid": 0, "tid": 0}]}
        with pytest.raises(TraceSchemaError, match="dur"):
            validate_chrome_trace(bad)

    def test_rejects_non_numeric_counter(self):
        bad = {
            "traceEvents": [
                {"name": "c", "ph": "C", "ts": 0, "pid": 0, "tid": 0, "args": {"v": "hi"}}
            ]
        }
        with pytest.raises(TraceSchemaError, match="numeric"):
            validate_chrome_trace(bad)


class TestJsonl:
    def test_round_trip(self, tracer, tmp_path):
        path = tmp_path / "events.jsonl"
        write_jsonl(str(path), tracer)
        events = read_jsonl(str(path))
        assert len(events) == len(tracer.events)
        for a, b in zip(events, tracer.events):
            assert a.kind is b.kind
            assert a.time_ns == b.time_ns
            assert a.track == b.track
            assert a.dur_ns == b.dur_ns
            assert a.attrs == b.attrs

    def test_round_trip_supports_replay(self, tracer):
        from repro.obs import InvariantChecker

        buf = io.StringIO()
        write_jsonl(buf, tracer)
        buf.seek(0)
        checker = InvariantChecker.replay(read_jsonl(buf))
        assert checker.events_checked == len(tracer.events)
        assert checker.barriers_checked >= 1


class TestDeterminism:
    def test_identical_runs_export_identically(self):
        a, b = io.StringIO(), io.StringIO()
        write_chrome_trace(a, traced_run())
        write_chrome_trace(b, traced_run())
        assert a.getvalue() == b.getvalue()

    def test_different_configs_differ(self, tracer):
        a, b = io.StringIO(), io.StringIO()
        write_chrome_trace(a, tracer)
        write_chrome_trace(b, traced_run(iterations=2))
        assert a.getvalue() != b.getvalue()
