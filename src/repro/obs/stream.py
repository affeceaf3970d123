"""Streaming consumption of ``c2bound.trace/1`` JSONL traces.

The producer side of the observability stack (:mod:`repro.obs.span`,
:mod:`repro.obs.events`) appends whole JSON lines to a trace file while
a run executes.  This module is the *consumer* half: a reader that
follows such a file while it grows, and the folds the ``c2bound
tail``/``report`` commands feed its events to.

- :class:`TraceReader` — a pull-based tailer.  Each :meth:`~TraceReader.poll`
  yields exactly the events appended since the previous poll, never a
  partial line: an append-only writer can only tear the *final* line of
  the file, and the reader simply leaves an un-terminated tail in place
  until the terminating newline arrives (the append-only log rule of
  :mod:`repro.io.applog`, shared with checkpoint replay).
- :func:`follow` — the reader's polls of a growing file, until it goes
  idle.
- Incremental aggregators — :class:`SpanRollup` (per-name count / total
  / self-time plus parent→child edge rollups, computed online) and
  :class:`ProgressAggregator` (live sweep progress from ``dse.batch``
  spans: evaluations, rate, run completion).  Each has a ``handle``
  method taking one event dict.

Consumption is observable itself: ``obs.stream.polls`` /
``obs.stream.events`` / ``obs.stream.torn_tails`` / ``obs.stream.resets``
count reader activity in the process-wide registry.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable, Iterator

from repro.errors import ObservabilityError
from repro.io.applog import parse_lines, split_lines
from repro.obs.registry import get_registry

__all__ = ["TraceReader", "SpanRollup", "ProgressAggregator", "follow"]


class TraceReader:
    """Pull-based tailer over a growing JSONL trace file.

    Parameters
    ----------
    path:
        The trace file.  It may not exist yet; polls before creation
        yield nothing.

    Guarantees:

    - every complete line is yielded exactly once, in file order;
    - a torn (newline-less) tail is never yielded — it stays buffered
      in the *file* (the reader re-reads from its byte offset) until
      the writer completes it;
    - a truncated or replaced file (size shrank below the offset) is
      treated as a fresh trace: the offset resets and subsequent events
      stream from the top (counted in ``obs.stream.resets``).
    """

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)
        self.offset = 0
        #: complete lines consumed so far (names a corrupt line's number)
        self.lineno = 0
        registry = get_registry()
        self._ctr_polls = registry.counter("obs.stream.polls")
        self._ctr_events = registry.counter("obs.stream.events")
        self._ctr_torn = registry.counter("obs.stream.torn_tails")
        self._ctr_resets = registry.counter("obs.stream.resets")

    def poll(self) -> "list[dict]":
        """Events appended since the last poll (possibly empty)."""
        self._ctr_polls.inc()
        try:
            size = self.path.stat().st_size
        except OSError:
            return []  # not created yet (or momentarily unlinked)
        if size < self.offset:
            # Truncated or rotated underneath us: start over.
            self.offset = self.lineno = 0
            self._ctr_resets.inc()
        if size == self.offset:
            return []
        with self.path.open("rb") as fh:
            fh.seek(self.offset)
            data = fh.read(size - self.offset)
        lines, tail = split_lines(data)
        if tail:
            # A torn tail stays in the file, unconsumed, until the
            # writer terminates the line.
            self._ctr_torn.inc()
        if not lines:
            return []
        self.offset += len(data) - len(tail)
        events = parse_lines(lines, self.path, ObservabilityError,
                             first_line=self.lineno + 1)
        self.lineno += len(lines)
        self._ctr_events.inc(len(events))
        return events

    def read_all(self) -> "list[dict]":
        """Drain everything currently readable (repeated polls)."""
        out: list[dict] = []
        while True:
            batch = self.poll()
            if not batch:
                return out
            out.extend(batch)


class SpanRollup:
    """Online span-tree rollup: per-name totals, self-times and edges.

    Spans arrive in *exit* order (children strictly before their
    parent), so the rollup can attribute **self-time** — a span's
    duration minus its direct children's — with memory bounded by the
    number of spans still open at the producer, not by trace length:
    child durations accumulate under the parent's *id* only until the
    parent's own exit record arrives and retires the entry.

    Aggregates kept per span *name*: count, total seconds, self
    seconds.  Edge rollups (``(parent name, child name) -> count,
    seconds``) reconstruct the shape of the call tree for flame-style
    rendering; root spans appear under the parent name ``None``.
    """

    def __init__(self) -> None:
        #: name -> [count, total_s, self_s]
        self.aggregates: "dict[str, list]" = {}
        #: (parent name | None, child name) -> [count, total_s]
        self.edges: "dict[tuple[str | None, str], list]" = {}
        #: open parent id -> {"total": s, "children": {name: [count, s]}}
        self._pending: "dict[int, dict]" = {}
        self.spans = 0
        self.events = 0
        self.first_ts: "float | None" = None
        self.last_ts: "float | None" = None

    # -- consumption --------------------------------------------------------
    def handle(self, event: dict) -> None:
        """Fold one trace event (any type) into the rollup."""
        etype = event.get("type")
        ts = event.get("ts")
        if isinstance(ts, (int, float)):
            self._touch(float(ts))
        if etype == "span":
            self._handle_span(event)
        elif etype == "event":
            self.events += 1

    def _touch(self, ts: float, dur: float = 0.0) -> None:
        if self.first_ts is None or ts < self.first_ts:
            self.first_ts = ts
        end = ts + dur
        if self.last_ts is None or end > self.last_ts:
            self.last_ts = end

    def _handle_span(self, event: dict) -> None:
        name = event.get("name")
        dur = event.get("dur_s")
        if not isinstance(name, str) or not isinstance(dur, (int, float)):
            return
        dur = float(dur)
        ts = event.get("ts")
        if isinstance(ts, (int, float)):
            self._touch(float(ts), dur)
        self.spans += 1
        span_id = event.get("id")
        parent = event.get("parent")
        # Children exited first: their accumulated time is waiting
        # under our id.  Pop it — the entry is retired here, which is
        # what keeps memory bounded by the open-span count.
        pending = self._pending.pop(span_id, None) if isinstance(
            span_id, int) else None
        child_total = 0.0
        if pending is not None:
            child_total = pending["total"]
            for child_name, (count, seconds) in pending["children"].items():
                edge = self.edges.setdefault((name, child_name), [0, 0.0])
                edge[0] += count
                edge[1] += seconds
        agg = self.aggregates.setdefault(name, [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += dur
        agg[2] += max(0.0, dur - child_total)
        if isinstance(parent, int):
            slot = self._pending.setdefault(
                parent, {"total": 0.0, "children": {}})
            slot["total"] += dur
            child = slot["children"].setdefault(name, [0, 0.0])
            child[0] += 1
            child[1] += dur
        else:
            edge = self.edges.setdefault((None, name), [0, 0.0])
            edge[0] += 1
            edge[1] += dur

    # -- results ------------------------------------------------------------
    @property
    def window_s(self) -> float:
        """Observed trace window (first event to last span end)."""
        if self.first_ts is None or self.last_ts is None:
            return 0.0
        return max(0.0, self.last_ts - self.first_ts)

    def self_seconds(self) -> "dict[str, float]":
        """Per-span-name self-time (duration minus direct children)."""
        return {name: agg[2] for name, agg in self.aggregates.items()}

    def total_seconds(self) -> "dict[str, float]":
        """Per-span-name inclusive duration totals."""
        return {name: agg[1] for name, agg in self.aggregates.items()}

    def children_of(self, parent: "str | None") -> "list[tuple[str, int, float]]":
        """``(child name, count, seconds)`` edges under ``parent``,
        heaviest first."""
        out = [(child, edge[0], edge[1])
               for (p, child), edge in self.edges.items() if p == parent]
        out.sort(key=lambda row: (-row[2], row[0]))
        return out

    def snapshot(self) -> dict:
        """JSON-ready summary of the rollup so far."""
        return {
            "spans": self.spans,
            "events": self.events,
            "window_s": self.window_s,
            "names": {
                name: {"count": agg[0], "total_s": agg[1],
                       "self_s": agg[2]}
                for name, agg in sorted(self.aggregates.items())
            },
        }


class ProgressAggregator:
    """Live sweep progress from the span stream.

    Watches ``dse.batch`` spans (one per
    ``BudgetedEvaluator.evaluate_batch`` call, attrs ``size`` /
    ``fresh`` / ``cached``) for evaluation throughput, the ``run``
    header for the trace start, and root ``experiment.*`` spans for
    run completion.  Everything is O(1) per event.
    """

    def __init__(self) -> None:
        self.run_name: "str | None" = None
        self.started_ts: "float | None" = None
        self.last_ts: "float | None" = None
        self.batches = 0
        self.fresh = 0
        self.cached = 0
        self.completed: "list[str]" = []

    def handle(self, event: dict) -> None:
        """Fold one trace event into the progress view."""
        etype = event.get("type")
        ts = event.get("ts")
        if isinstance(ts, (int, float)):
            dur = event.get("dur_s", 0.0)
            end = float(ts) + (float(dur)
                               if isinstance(dur, (int, float)) else 0.0)
            if self.last_ts is None or end > self.last_ts:
                self.last_ts = end
            if self.started_ts is None or float(ts) < self.started_ts:
                self.started_ts = float(ts)
        if etype == "run":
            name = event.get("name")
            if isinstance(name, str):
                self.run_name = name
        elif etype == "span":
            name = event.get("name")
            if not isinstance(name, str):
                return
            if name == "dse.batch":
                attrs = event.get("attrs") or {}
                self.batches += 1
                fresh = attrs.get("fresh")
                cached = attrs.get("cached")
                size = attrs.get("size")
                if isinstance(fresh, (int, float)):
                    self.fresh += int(fresh)
                elif isinstance(size, (int, float)):
                    self.fresh += int(size)
                if isinstance(cached, (int, float)):
                    self.cached += int(cached)
            elif (name.startswith("experiment.")
                    and event.get("parent") is None):
                self.completed.append(name)

    @property
    def evaluations(self) -> int:
        """Fresh + cached evaluations observed so far."""
        return self.fresh + self.cached

    @property
    def elapsed_s(self) -> float:
        """Trace-time seconds between the first and latest event."""
        if self.started_ts is None or self.last_ts is None:
            return 0.0
        return max(0.0, self.last_ts - self.started_ts)

    @property
    def rate(self) -> float:
        """Evaluations per trace-time second (0 before any)."""
        elapsed = self.elapsed_s
        return self.evaluations / elapsed if elapsed > 0 else 0.0

    @property
    def done(self) -> bool:
        """Whether a root experiment span has been observed."""
        return bool(self.completed)

    def snapshot(self) -> dict:
        """JSON-ready progress summary."""
        return {
            "run": self.run_name,
            "elapsed_s": self.elapsed_s,
            "batches": self.batches,
            "evaluations": self.evaluations,
            "fresh": self.fresh,
            "cached": self.cached,
            "rate_per_s": self.rate,
            "completed": list(self.completed),
            "done": self.done,
        }

    def format_line(self) -> str:
        """One human-readable progress line (the ``tail`` output)."""
        head = f"+{self.elapsed_s:7.1f}s"
        body = (f"evals={self.evaluations}"
                f" (fresh={self.fresh} cached={self.cached})"
                f" batches={self.batches} rate={self.rate:.0f}/s")
        if self.done:
            body += f" done [{', '.join(self.completed)}]"
        return f"{head} {body}"


def follow(path: "str | Path", *, interval_s: float = 0.5,
           idle_timeout_s: "float | None" = 10.0,
           sleep: Callable[[float], None] = time.sleep,
           ) -> "Iterator[list[dict]]":
    """Poll a trace file every ``interval_s`` seconds, yielding each
    poll's events (possibly none).

    Ends once no new events have arrived for ``idle_timeout_s`` seconds
    (``None`` never idles out); a consumer that sees the run finish
    simply stops iterating.  ``sleep`` is injectable so tests drive the
    loop instantly.
    """
    reader = TraceReader(path)
    idle_polls = 0
    while True:
        events = reader.poll()
        yield events
        idle_polls = 0 if events else idle_polls + 1
        if (idle_timeout_s is not None
                and idle_polls * interval_s >= idle_timeout_s):
            return
        sleep(interval_s)
