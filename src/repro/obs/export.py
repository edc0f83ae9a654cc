"""Trace exporters: Chrome ``trace_event`` JSON and compact JSONL.

Two formats:

* :func:`write_chrome_trace` -- the Chrome/Perfetto ``trace_event``
  JSON object format (open it in ``chrome://tracing`` or
  https://ui.perfetto.dev).  Tracks become named threads; span events
  export as complete ("X") events, instants as "i", counter samples as
  "C".  Multiple tracers (e.g. one per sweep configuration) merge into
  one file as separate processes.
* :func:`write_jsonl` -- one event per line in the tracer's native
  schema, for ad-hoc ``jq``/pandas analysis and replay into an
  :class:`~repro.obs.invariants.InvariantChecker`.

Both exports are byte-deterministic for a deterministic run: track ids
are assigned in first-appearance order and JSON keys are emitted in
schema order.  :func:`write_chrome_trace` streams: it never builds the
``traceEvents`` list :func:`chrome_trace_dict` returns, yet writes the
bytes ``json.dumps(chrome_trace_dict(...))`` would.

:func:`validate_chrome_trace` is a dependency-free structural validator
used by tests and ``make verify`` to guarantee emitted files actually
load in trace viewers.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from itertools import islice
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import IO, Iterable, Iterator, Mapping

from .events import SPAN_KINDS, EventKind, TraceEvent
from .tracer import Tracer

#: Chrome trace timestamps are microseconds; ours are nanoseconds.
_NS_TO_US = 1e-3

#: Event phases the validator accepts (the subset we emit).
_VALID_PHASES = frozenset({"X", "i", "C", "M"})


class TraceSchemaError(ValueError):
    """An exported trace object violates the Chrome trace_event schema."""


def _track_order(events: Iterable[TraceEvent]) -> list[str]:
    """Tracks in first-appearance order (deterministic tid assignment)."""
    seen: dict[str, None] = {}
    for e in events:
        if e.track not in seen:
            seen[e.track] = None
    return list(seen)


def _process_header(pid: int, process_name: str | None, tids: dict[str, int]) -> list[dict]:
    """The ``M`` (metadata) events naming a process and its threads."""
    out: list[dict] = []
    if process_name is not None:
        out.append(
            {
                "name": "process_name",
                "ph": "M",
                "ts": 0,
                "pid": pid,
                "tid": 0,
                "args": {"name": process_name},
            }
        )
    for track, tid in tids.items():
        out.append(
            {
                "name": "thread_name",
                "ph": "M",
                "ts": 0,
                "pid": pid,
                "tid": tid,
                "args": {"name": track},
            }
        )
    return out


def _phase(kind: EventKind) -> str:
    if kind is EventKind.COUNTER_SAMPLE:
        return "C"
    return "X" if kind in SPAN_KINDS else "i"


def chrome_trace_events(
    tracer: Tracer, pid: int = 0, process_name: str | None = None
) -> list[dict]:
    """Convert one tracer's stream to Chrome ``traceEvents`` dicts."""
    tids = {track: i + 1 for i, track in enumerate(_track_order(tracer.events))}
    out = _process_header(pid, process_name, tids)
    for e in tracer.events:
        base = {
            "name": e.name,
            "cat": e.kind.value,
            "ts": e.time_ns * _NS_TO_US,
            "pid": pid,
            "tid": tids[e.track],
        }
        ph = _phase(e.kind)
        base["ph"] = ph
        if ph == "X":
            base["dur"] = e.dur_ns * _NS_TO_US
        elif ph == "i":
            base["s"] = "t"
        base["args"] = dict(e.attrs)
        out.append(base)
    return out


def _as_mapping(tracers: Tracer | Mapping[str, Tracer]) -> Mapping[str, Tracer]:
    return {"run": tracers} if isinstance(tracers, Tracer) else tracers


def _metadata(
    tracers: Mapping[str, Tracer], metadata: Mapping[str, object] | None
) -> dict:
    meta: dict[str, object] = {
        "tool": "repro.obs",
        "runs": {label: tracer.summary() for label, tracer in tracers.items()},
    }
    if metadata:
        meta.update(metadata)
    return meta


def chrome_trace_dict(
    tracers: Tracer | Mapping[str, Tracer],
    metadata: Mapping[str, object] | None = None,
) -> dict:
    """Build the full Chrome trace object.

    Pass a single tracer for one run, or a ``{label: tracer}`` mapping
    (e.g. one per sweep configuration) to merge runs as separate
    processes in one file.
    """
    tracers = _as_mapping(tracers)
    events: list[dict] = []
    for pid, (label, tracer) in enumerate(tracers.items()):
        events.extend(chrome_trace_events(tracer, pid=pid, process_name=label))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "metadata": _metadata(tracers, metadata),
    }


#: The C encoder with ``json.dumps``' default settings, callable on one
#: value at a time (``json.dumps`` itself rebuilds it on every call).
_ENCODER = json.JSONEncoder()
_encode_value = c_make_encoder(
    {}, _ENCODER.default, encode_basestring_ascii, None,
    ": ", ", ", False, False, True,
)


def _number(value: float) -> str:
    """``json.dumps(value)`` for a float (``repr`` when finite)."""
    return float.__repr__(value) if value - value == 0.0 else _ENCODER.encode(value)


def _encoded_events(tracer: Tracer, pid: int, tids: dict[str, int]) -> Iterator[str]:
    """Each event's JSON text, as ``json.dumps`` would encode its dict.

    Everything but the timestamps and attributes is fixed per
    (kind, track, name), so that part is encoded once and cached.
    """
    cached: dict[tuple, tuple[str, str, bool]] = {}
    encode = _encode_value
    for e in tracer.events:
        key = (e.kind, e.track, e.name)
        parts = cached.get(key)
        if parts is None:
            ph = _phase(e.kind)
            head = _ENCODER.encode({"name": e.name, "cat": e.kind.value})
            mid = f', "pid": {pid}, "tid": {tids[e.track]}, "ph": "{ph}"'
            if ph == "X":
                mid += ', "dur": '
            elif ph == "i":
                mid += ', "s": "t", "args": '
            else:
                mid += ', "args": '
            parts = cached[key] = (head[:-1] + ', "ts": ', mid, ph == "X")
        head, mid, span = parts
        ts = _number(e.time_ns * _NS_TO_US)
        args = "".join(encode(e.attrs, 0))
        if span:
            dur = _number(e.dur_ns * _NS_TO_US)
            yield f'{head}{ts}{mid}{dur}, "args": {args}}}'
        else:
            yield f"{head}{ts}{mid}{args}}}"


class _WrittenEvents(Sequence):
    """The ``traceEvents`` of a streamed export, built only on access."""

    def __init__(self, tracers: Mapping[str, Tracer], count: int) -> None:
        self._tracers = tracers
        self._count = count
        self._events: list[dict] | None = None

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index):
        if self._events is None:
            self._events = chrome_trace_dict(self._tracers)["traceEvents"]
        return self._events[index]


#: Events encoded per write; bounds the text held in memory at once.
_CHUNK_EVENTS = 8192


def write_chrome_trace(
    path_or_file: str | IO[str],
    tracers: Tracer | Mapping[str, Tracer],
    metadata: Mapping[str, object] | None = None,
) -> dict:
    """Stream a Chrome trace JSON file.

    The bytes equal ``json.dumps(chrome_trace_dict(tracers, metadata))``
    but the event dicts are never built: the export is written in
    chunks of pre-encoded events.  Returns the exported object's
    ``displayTimeUnit`` and ``metadata``, with ``traceEvents`` as a
    read-only sequence whose length is the number of events written
    (its dicts are built only if indexed).
    """
    tracers = _as_mapping(tracers)
    meta = _metadata(tracers, metadata)

    def _dump(f: IO[str]) -> int:
        f.write('{"traceEvents": [')
        written = 0
        for pid, (label, tracer) in enumerate(tracers.items()):
            tids = {track: i + 1 for i, track in enumerate(_track_order(tracer.events))}
            header = [_ENCODER.encode(e) for e in _process_header(pid, label, tids)]
            events = _encoded_events(tracer, pid, tids)
            chunk = header + list(islice(events, _CHUNK_EVENTS))
            while chunk:
                f.write((", " if written else "") + ", ".join(chunk))
                written += len(chunk)
                chunk = list(islice(events, _CHUNK_EVENTS))
        f.write('], "displayTimeUnit": "ns", "metadata": ')
        f.write(_ENCODER.encode(meta))
        f.write("}")
        return written

    if hasattr(path_or_file, "write"):
        count = _dump(path_or_file)
    else:
        with open(path_or_file, "w") as f:
            count = _dump(f)
    return {
        "traceEvents": _WrittenEvents(tracers, count),
        "displayTimeUnit": "ns",
        "metadata": meta,
    }


def write_jsonl(path_or_file: str | IO[str], tracer: Tracer) -> None:
    """Write the native event stream, one JSON object per line."""

    def _dump(f: IO[str]) -> None:
        for e in tracer.events:
            f.write("".join(_encode_value(e.to_jsonable(), 0)))
            f.write("\n")

    if hasattr(path_or_file, "write"):
        _dump(path_or_file)
    else:
        with open(path_or_file, "w") as f:
            _dump(f)


def read_jsonl(path_or_file: str | IO[str]) -> list[TraceEvent]:
    """Load a JSONL stream back into typed events (for offline replay)."""

    def _load(f: IO[str]) -> list[TraceEvent]:
        events = []
        for line in f:
            line = line.strip()
            if not line:
                continue
            raw = json.loads(line)
            events.append(
                TraceEvent(
                    kind=EventKind(raw["kind"]),
                    time_ns=raw["time_ns"],
                    track=raw["track"],
                    name=raw["name"],
                    dur_ns=raw.get("dur_ns", 0.0),
                    attrs=raw.get("attrs", {}),
                )
            )
        return events

    if hasattr(path_or_file, "read"):
        return _load(path_or_file)
    with open(path_or_file) as f:
        return _load(f)


def validate_chrome_trace(obj: object) -> None:
    """Structurally validate a Chrome trace object; raises on problems.

    Checks the subset of the ``trace_event`` format this exporter emits:
    a ``traceEvents`` list whose entries carry the required keys with
    the right types for their phase.  A file passing this check loads
    in ``chrome://tracing`` and Perfetto.
    """
    if not isinstance(obj, dict):
        raise TraceSchemaError(f"trace must be a JSON object, got {type(obj).__name__}")
    events = obj.get("traceEvents")
    if not isinstance(events, list):
        raise TraceSchemaError("trace object lacks a 'traceEvents' list")
    for i, e in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(e, dict):
            raise TraceSchemaError(f"{where} is not an object")
        ph = e.get("ph")
        if ph not in _VALID_PHASES:
            raise TraceSchemaError(f"{where} has invalid phase {ph!r}")
        if not isinstance(e.get("name"), str):
            raise TraceSchemaError(f"{where} lacks a string 'name'")
        for key in ("pid", "tid"):
            if not isinstance(e.get(key), int):
                raise TraceSchemaError(f"{where} lacks an integer {key!r}")
        ts = e.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            raise TraceSchemaError(f"{where} has invalid ts {ts!r}")
        if ph == "X":
            dur = e.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise TraceSchemaError(f"{where} complete event has invalid dur {dur!r}")
        if ph == "C":
            args = e.get("args")
            if not isinstance(args, dict) or not all(
                isinstance(v, (int, float)) for v in args.values()
            ):
                raise TraceSchemaError(f"{where} counter args must be numeric")
        if ph == "M":
            if e["name"] not in ("process_name", "thread_name"):
                raise TraceSchemaError(f"{where} unknown metadata {e['name']!r}")
            args = e.get("args")
            if not isinstance(args, dict) or not isinstance(args.get("name"), str):
                raise TraceSchemaError(f"{where} metadata lacks args.name")


def validate_chrome_trace_file(path: str) -> dict:
    """Load and validate a Chrome trace JSON file; returns the object."""
    with open(path) as f:
        obj = json.load(f)
    validate_chrome_trace(obj)
    return obj
