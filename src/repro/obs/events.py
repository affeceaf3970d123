"""JSONL trace events: writer, reader, and schema validator.

Every line of a trace file is one JSON object.  Three event types exist
(the schema the CI smoke job validates, documented in
``docs/OBSERVABILITY.md``):

``span``
    A finished timed region: ``name`` (str), ``id`` (int), ``parent``
    (int or null), ``ts`` (epoch seconds at entry), ``dur_s`` (float),
    ``attrs`` (object).
``event``
    An instantaneous marker: ``name`` (str), ``ts`` (epoch seconds),
    ``span`` (enclosing span id or null), ``attrs`` (object).
``run``
    One header line per trace: ``schema`` (the version string),
    ``name`` (str), ``ts`` (epoch seconds), ``attrs`` (object).

Running ``python -m repro.obs.events TRACE.jsonl`` validates a file and
exits non-zero on the first malformed line — the CI smoke job's check.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro.errors import ObservabilityError
from repro.io.applog import read_records

__all__ = ["SCHEMA_VERSION", "JsonlWriter", "read_jsonl",
           "validate_event", "validate_trace_file", "main"]

SCHEMA_VERSION = "c2bound.trace/1"

# type -> {field: allowed types}; None in the tuple permits JSON null.
_REQUIRED: dict[str, dict[str, tuple]] = {
    "span": {"name": (str,), "id": (int,), "parent": (int, type(None)),
             "ts": (int, float), "dur_s": (int, float), "attrs": (dict,)},
    "event": {"name": (str,), "ts": (int, float),
              "span": (int, type(None)), "attrs": (dict,)},
    "run": {"schema": (str,), "name": (str,), "ts": (int, float),
            "attrs": (dict,)},
}


class JsonlWriter:
    """Line-buffered JSON-lines sink (one ``run`` header, then events)."""

    def __init__(self, path: "str | Path", *, run_name: str = "trace",
                 **run_attrs) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("w", buffering=1)
        self.write({"type": "run", "schema": SCHEMA_VERSION,
                    "name": run_name, "ts": time.time(),
                    "attrs": dict(run_attrs)})

    def write(self, obj: dict) -> None:
        """Append one event object as a JSON line."""
        if self._fh is None:
            return
        self._fh.write(json.dumps(obj, default=str) + "\n")

    def close(self) -> None:
        """Flush and close the file (idempotent)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JsonlWriter":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


def read_jsonl(path: "str | Path") -> list[dict]:
    """Every complete line of a JSONL file (torn final line skipped)."""
    return read_records(path, ObservabilityError)[0]


def validate_event(obj) -> list[str]:
    """Schema problems of one event object (empty list = valid)."""
    if not isinstance(obj, dict):
        return [f"event is {type(obj).__name__}, not an object"]
    etype = obj.get("type")
    if etype not in _REQUIRED:
        return [f"unknown event type {etype!r} "
                f"(expected one of {sorted(_REQUIRED)})"]
    problems = []
    for field, types in _REQUIRED[etype].items():
        if field not in obj:
            problems.append(f"{etype} event missing field {field!r}")
        elif not isinstance(obj[field], types) or (
                isinstance(obj[field], bool) and bool not in types):
            problems.append(
                f"{etype} field {field!r} has type "
                f"{type(obj[field]).__name__}")
    return problems


def validate_trace_file(path: "str | Path") -> list[str]:
    """Schema problems of a whole trace file (empty list = valid).

    Beyond per-event checks, requires a leading ``run`` header with the
    current schema version and referential integrity of span parents.
    """
    try:
        events, torn = read_records(path, ObservabilityError)
    except (OSError, ObservabilityError) as exc:
        return [f"unreadable trace: {exc}"]
    problems = ([f"final line is torn (no newline): {torn[:60]!r}"]
                if torn else [])
    if not events:
        return problems + ["trace is empty (expected a run header line)"]
    head = events[0]
    if head.get("type") != "run":
        problems.append("first line is not a 'run' header")
    elif head.get("schema") != SCHEMA_VERSION:
        problems.append(f"schema {head.get('schema')!r} != {SCHEMA_VERSION!r}")
    for i, obj in enumerate(events):
        problems.extend(f"line {i + 1}: {p}" for p in validate_event(obj))
    span_ids = {obj["id"] for obj in events
                if obj.get("type") == "span" and isinstance(obj.get("id"), int)}
    for i, obj in enumerate(events):
        if obj.get("type") == "span":
            parent = obj.get("parent")
            if parent is not None and parent not in span_ids:
                problems.append(f"line {i + 1}: span parent {parent} "
                                "references no span in this trace")
    return problems


def main(argv: "list[str] | None" = None) -> int:
    """``python -m repro.obs.events TRACE.jsonl`` — validate a trace."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if len(argv) != 1:
        print("usage: python -m repro.obs.events TRACE.jsonl",
              file=sys.stderr)
        return 2
    problems = validate_trace_file(argv[0])
    if problems:
        for p in problems:
            print(p, file=sys.stderr)
        return 1
    print(f"OK: {argv[0]} ({len(read_jsonl(argv[0]))} events)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
