"""Append-only JSONL logs: the one reader of the format, and the writer
of its header logs (traces are written by ``repro.obs.events.JsonlWriter``).

Checkpoint journals, the job registry and traces share one crash rule, set out in ``docs/ROBUSTNESS.md`` ("Append-only
logs"): only the final line can be torn, and it is dropped; a corrupt
complete line is refused; a header log with no complete line is a
torn, empty log; resume heals by truncating to the last newline.
Stdlib only: callers pass in their error type and torn-tail counter.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Protocol, TypeVar

__all__ = ["AppendLog", "LogScan", "encode", "parse_lines", "read_first",
           "read_log", "read_records", "split_lines"]


class _Counter(Protocol):
    def inc(self, amount: int = 1) -> None: ...


def encode(record: dict) -> str:
    """One record as its log line (sorted keys: canonical bytes)."""
    return json.dumps(record, sort_keys=True) + "\n"


def split_lines(data: bytes) -> "tuple[list[bytes], bytes]":
    """``data`` → (its complete lines, the unterminated remainder)."""
    end = data.rfind(b"\n") + 1
    return data[:end].split(b"\n")[:-1], data[end:]


def parse_lines(lines: "Iterable[bytes]", path: "str | os.PathLike[str]",
                error: "type[Exception]", *,
                first_line: int = 1) -> "list[dict]":
    """Complete lines → JSON objects, skipping blank lines.

    A complete line cannot be torn, so one that is not a JSON object
    raises ``error`` naming the file and the line number.
    """
    out: "list[dict]" = []
    for lineno, raw in enumerate(lines, start=first_line):
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw)
        except ValueError as exc:
            raise error(f"{path} line {lineno}: corrupt complete line "
                        f"(not a torn tail): {exc}") from exc
        if not isinstance(obj, dict):
            raise error(f"{path} line {lineno} is "
                        f"{type(obj).__name__}, not an object")
        out.append(obj)
    return out


def read_records(path: "str | os.PathLike[str]",
                 error: "type[Exception]") -> "tuple[list[dict], bytes]":
    """(every complete line of ``path`` as an object, the torn tail).

    ``OSError`` propagates: what a missing file means is the caller's.
    """
    lines, torn = split_lines(Path(path).read_bytes())
    return parse_lines(lines, path, error), torn


def read_first(path: "str | os.PathLike[str]") -> "dict | None":
    """The first complete line of ``path`` as an object, else ``None``."""
    try:
        with open(path, "rb") as handle:
            line = handle.readline()
        obj = json.loads(line) if line.endswith(b"\n") else None
    except (OSError, ValueError):
        return None
    return obj if isinstance(obj, dict) else None


@dataclass
class LogScan:
    """A header log read back; ``end`` is the length of its complete lines."""

    path: Path
    header: dict
    records: "list[dict]"
    end: int


def read_log(path: "str | os.PathLike[str]", schema: str,
             error: "type[Exception]", torn: _Counter) -> "LogScan | None":
    """Read a header log; ``None`` when it is missing or header-less.

    A torn tail is dropped and counted on ``torn``.  A first complete
    line that is not a ``{"type": "header", "schema": schema}`` object
    raises ``error``.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return None
    except OSError as exc:
        raise error(f"cannot read {path}: {exc}") from exc
    lines, tail = split_lines(data)
    if tail:
        torn.inc()
    records = parse_lines(lines, path, error)
    if not records:
        return None
    header = records[0]
    if header.get("type") != "header" or header.get("schema") != schema:
        raise error(f"{path} has an invalid header "
                    f"(schema {header.get('schema')!r})")
    return LogScan(path, header, records[1:], len(data) - len(tail))


_Log = TypeVar("_Log", bound="AppendLog")


class AppendLog:
    """A header log open for appending; subclasses encode its records."""

    def __init__(self, path: Path, header: dict, handle: "IO[str]") -> None:
        self.path = path
        self.header = header
        self._handle = handle

    @classmethod
    def _create(cls: "type[_Log]", path: "str | os.PathLike[str]",
                header: dict) -> _Log:
        """Start ``path`` afresh with ``header`` (truncating any old file)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = open(path, "w")
        handle.write(encode(header))
        handle.flush()
        return cls(path, header, handle)

    @classmethod
    def _reopen(cls: "type[_Log]", scan: LogScan) -> _Log:
        """Heal ``scan``'s file (cut its torn tail), then append after it."""
        os.truncate(scan.path, scan.end)
        return cls(scan.path, scan.header, open(scan.path, "a"))

    def append(self, records: "Iterable[dict]") -> None:
        """Append records as whole lines: one write, one flush."""
        self._handle.write("".join(encode(record) for record in records))
        self._handle.flush()

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        if not self._handle.closed:
            self._handle.flush()
            self._handle.close()

    def __enter__(self: _Log) -> _Log:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
