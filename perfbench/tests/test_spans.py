"""Self-time arithmetic of the span recorder."""

from spans import Span, SpanRecorder, covered, self_time_by, self_times


def span(id, start, end, parent=None, name="x", tag=None):
    return Span(id=id, name=name, start=start, end=end, parent=parent, tag=tag)


def test_covered_merges_overlaps_and_clips():
    assert covered([], 0, 10) == 0
    assert covered([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    # Clipped to the parent's interval.
    assert covered([(-5, 2), (9, 20)], 0, 10) == 3
    # Touching intervals merge without double counting.
    assert covered([(0, 4), (4, 6)], 0, 10) == 6


def test_self_time_nested():
    spans = [
        span("a", 0.0, 10.0),
        span("b", 1.0, 4.0, parent="a"),
        span("c", 2.0, 3.0, parent="b"),
        span("d", 6.0, 9.0, parent="a"),
    ]
    own = self_times(spans)
    assert own["a"] == 10 - 3 - 3
    assert own["b"] == 3 - 1
    assert own["c"] == 1
    assert own["d"] == 3


def test_self_time_parallel_children_count_once():
    # Two pool workers run cells at the same time under one grid span:
    # the grid's self time is its duration minus the union of the cells.
    spans = [
        span("grid", 0.0, 10.0, name="run.execute_grid"),
        span("w1", 1.0, 6.0, parent="grid", name="run.cell"),
        span("w2", 2.0, 8.0, parent="grid", name="run.cell"),
    ]
    own = self_time_by(spans, lambda s: s.name)
    assert own["run.execute_grid"] == 10 - 7
    assert own["run.cell"] == 5 + 6


def test_self_time_by_tag_skips_none():
    spans = [
        span("r1", 0.0, 2.0, name="sim.replay", tag="p2p"),
        span("r2", 2.0, 5.0, name="sim.replay", tag="finepack"),
        span("o", 5.0, 6.0, name="other"),
    ]
    by = self_time_by(spans, lambda s: s.tag if s.name == "sim.replay" else None)
    assert by == {"p2p": 2.0, "finepack": 3.0}


def test_recorder_links_parents_and_inherits_cell(tmp_path):
    rec = SpanRecorder(tmp_path)
    with rec.span("outer", cell="cell-1") as outer:
        with rec.span("inner") as inner:
            pass
    assert inner.parent == outer.id
    assert inner.cell == "cell-1"
    assert [s.name for s in rec.spans] == ["inner", "outer"]
    assert all(s.end >= s.start for s in rec.spans)


def test_recorder_flush_and_collect_round_trip(tmp_path):
    rec = SpanRecorder(tmp_path)
    with rec.span("a"):
        rec.count("hits", 2)
    rec.flush()
    assert rec.spans == [] and not rec.counts
    with rec.span("b"):
        rec.count("hits")
    spans, counts = rec.collect()
    assert sorted(s.name for s in spans) == ["a", "b"]
    assert counts == {"hits": 3}


def test_marked_kernel_passes_are_excluded_from_self_time(tmp_path):
    rec = SpanRecorder(tmp_path)
    with rec.span("sim.replay") as replay:
        rec.mark("bench.kernel", replay.start, replay.start)
    kernel = next(s for s in rec.spans if s.name == "bench.kernel")
    assert kernel.parent == replay.id
    # A pass inside the span is subtracted from the span's self time.
    replay.start, replay.end = 0.0, 10.0
    kernel.start, kernel.end = 4.0, 5.0
    assert self_times(rec.spans)[replay.id] == 9.0
