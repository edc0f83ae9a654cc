"""Span recorder for the traced benchmark run.

A span is one call into a layer: name, start, end, the span that was
open when it started (its parent), the grid cell it belongs to, and an
optional tag (the paradigm of a replay).  Spans are kept in memory and
written out when the run ends; forked pool workers inherit the open
stack, so a worker's cell spans point at the ``execute_grid`` span of
the parent process, and each worker appends its spans to a per-process
file after every cell.

A layer's self time is its span's duration minus the part of that
interval its child spans cover (see :func:`self_times`).  Counts
recorded at the same boundaries (cache hits, declined fast paths,
wire bytes) travel with the spans.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    id: str
    name: str
    start: float
    end: float | None = None
    parent: str | None = None
    cell: str | None = None
    tag: str | None = None


class SpanRecorder:
    """Records spans of the current process (and, through ``flush_dir``,
    of its forked children)."""

    def __init__(self, flush_dir: str | Path | None = None) -> None:
        self.flush_dir = Path(flush_dir) if flush_dir is not None else None
        self.root_pid = os.getpid()
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[Span] = []
        self._ids = itertools.count(1)
        self._clock = time.perf_counter

    # -- recording --------------------------------------------------

    @property
    def cell(self) -> str | None:
        """The cell of the innermost open span."""
        return self._stack[-1].cell if self._stack else None

    def _new(self, name: str, start: float, cell: str | None, tag: str | None) -> Span:
        parent = self._stack[-1] if self._stack else None
        if cell is None and parent is not None:
            cell = parent.cell
        return Span(
            id=f"{os.getpid()}:{next(self._ids)}",
            name=name,
            start=start,
            parent=parent.id if parent is not None else None,
            cell=cell,
            tag=tag,
        )

    def open(self, name: str, cell: str | None = None, tag: str | None = None) -> Span:
        span = self._new(name, self._clock(), cell, tag)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self._clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        self.spans.append(span)

    @contextmanager
    def span(self, name: str, cell: str | None = None, tag: str | None = None):
        s = self.open(name, cell, tag)
        try:
            yield s
        finally:
            self.close(s)

    def mark(self, name: str, start: float, end: float) -> None:
        """Record an already finished span under the open one (safe to
        call from a signal handler: it leaves the stack alone)."""
        span = self._new(name, start, None, None)
        span.end = end
        self.spans.append(span)

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    # -- processes --------------------------------------------------

    @property
    def in_worker(self) -> bool:
        return os.getpid() != self.root_pid

    def after_fork_in_child(self) -> None:
        """Forget the parent's finished spans and counts; keep its open
        stack so new spans link to the span that forked us."""
        self.spans = []
        self.counts = defaultdict(float)

    def flush(self) -> None:
        """Append this process's spans and counts to its file, then
        forget them (workers call this after every cell)."""
        if self.flush_dir is None:
            raise RuntimeError("no flush directory configured")
        self.flush_dir.mkdir(parents=True, exist_ok=True)
        path = self.flush_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a") as f:
            for s in self.spans:
                f.write(json.dumps({"span": asdict(s)}) + "\n")
            f.write(json.dumps({"counts": dict(self.counts)}) + "\n")
        self.spans = []
        self.counts = defaultdict(float)

    def collect(self) -> tuple[list[Span], dict[str, float]]:
        """This process's records merged with every flushed file."""
        spans = list(self.spans)
        counts: dict[str, float] = defaultdict(float, self.counts)
        if self.flush_dir is not None and self.flush_dir.is_dir():
            for path in sorted(self.flush_dir.glob("spans-*.jsonl")):
                for line in path.read_text().splitlines():
                    rec = json.loads(line)
                    if "span" in rec:
                        spans.append(Span(**rec["span"]))
                    else:
                        for k, v in rec["counts"].items():
                            counts[k] += v
        return spans, dict(counts)


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """``{span id: self seconds}``: duration minus the union of its
    children's intervals (children may overlap when they ran in
    parallel worker processes)."""
    children: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - covered(children.get(s.id, []), s.start, s.end)
        for s in spans
    }


def self_time_by(spans: list[Span], key) -> dict:
    """Self seconds summed by ``key(span)`` (spans mapping to ``None``
    are skipped)."""
    own = self_times(spans)
    out: dict = defaultdict(float)
    for s in spans:
        k = key(s)
        if k is not None:
            out[k] += own[s.id]
    return dict(out)
