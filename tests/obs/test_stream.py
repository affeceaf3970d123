"""Streaming trace consumption: torn-tail healing and live aggregates.

The load-bearing property: an append-only writer can only tear the
*final* line of a trace, and :class:`~repro.obs.stream.TraceReader`
must be indistinguishable from a one-shot read of the finished file no
matter how the bytes dribbled in — byte-by-byte, in adversarial chunk
sizes, with polls interleaved anywhere.  Hypothesis drives the chunk
schedule.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ObservabilityError
from repro.obs.stream import (
    ProgressAggregator,
    SpanRollup,
    TraceReader,
    follow,
)


def _line(obj: dict) -> bytes:
    return json.dumps(obj).encode() + b"\n"


def _trace_bytes(events: "list[dict]") -> bytes:
    return b"".join(_line(e) for e in events)


def _events(n: int) -> "list[dict]":
    out = [{"type": "run", "schema": "c2bound.trace/1", "name": "t",
            "ts": 0.0, "attrs": {}}]
    for i in range(n):
        out.append({"type": "span", "name": "sim.run", "id": i + 1,
                    "parent": None, "ts": float(i), "dur_s": 0.5,
                    "attrs": {"i": i}})
    return out


# ---------------------------------------------------------------------------
# TraceReader


class TestTraceReader:
    def test_missing_file_yields_nothing(self, tmp_path):
        reader = TraceReader(tmp_path / "absent.jsonl")
        assert reader.poll() == []
        assert reader.read_all() == []

    def test_one_shot_read(self, tmp_path):
        events = _events(5)
        path = tmp_path / "t.jsonl"
        path.write_bytes(_trace_bytes(events))
        assert TraceReader(path).read_all() == events

    def test_torn_tail_is_invisible_until_completed(self, tmp_path):
        path = tmp_path / "t.jsonl"
        events = _events(2)
        payload = _trace_bytes(events)
        # Everything but the final newline: the last line is torn.
        path.write_bytes(payload[:-1])
        reader = TraceReader(path)
        assert reader.read_all() == events[:-1]
        # Writer completes the line -> exactly the missing event.
        path.write_bytes(payload)
        assert reader.read_all() == [events[-1]]
        assert reader.read_all() == []

    def test_torn_tail_counts_once_per_poll_that_ends_at_it(
            self, tmp_path, fresh_registry):
        # One complete line plus a torn tail: the poll returns the line
        # and counts the torn tail, as the metrics catalog says.
        path = tmp_path / "t.jsonl"
        events = _events(1)
        path.write_bytes(_line(events[0]) + _line(events[1])[:-1])
        assert TraceReader(path).poll() == [events[0]]
        assert fresh_registry.counter("obs.stream.torn_tails").value == 1

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(min_value=1, max_value=8))
    def test_any_chunk_schedule_equals_one_shot_read(
            self, tmp_path_factory, data, n):
        """Adversarial byte-dribble == one-shot read, never partial JSON."""
        events = _events(n)
        payload = _trace_bytes(events)
        # A random partition of the payload into append chunks
        # (including 1-byte chunks that tear every line repeatedly).
        cuts = sorted(data.draw(st.sets(
            st.integers(min_value=1, max_value=len(payload) - 1),
            max_size=24)))
        bounds = [0, *cuts, len(payload)]
        path = tmp_path_factory.mktemp("stream") / "t.jsonl"
        reader = TraceReader(path)
        seen: "list[dict]" = []
        with path.open("ab") as fh:
            for lo, hi in zip(bounds, bounds[1:]):
                fh.write(payload[lo:hi])
                fh.flush()
                batch = reader.read_all()
                # No partial JSON can ever surface: everything yielded
                # is one of the written events, in order.
                seen.extend(batch)
        seen.extend(reader.read_all())
        assert seen == events

    def test_truncation_resets_to_fresh_trace(self, tmp_path):
        path = tmp_path / "t.jsonl"
        first = _events(3)
        path.write_bytes(_trace_bytes(first))
        reader = TraceReader(path)
        assert reader.read_all() == first
        # The file is replaced by a shorter, different trace.
        second = _events(1)
        path.write_bytes(_trace_bytes(second))
        assert reader.read_all() == second

    def test_corrupt_complete_line_raises(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_bytes(b'{"type": "run"}\nnot json at all\n')
        reader = TraceReader(path)
        with pytest.raises(ObservabilityError, match="corrupt complete"):
            reader.read_all()

    def test_non_object_line_raises(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_bytes(b"[1, 2, 3]\n")
        with pytest.raises(ObservabilityError, match="not an object"):
            TraceReader(path).poll()


# ---------------------------------------------------------------------------
# SpanRollup


def _span(name, sid, parent, ts, dur, **attrs):
    return {"type": "span", "name": name, "id": sid, "parent": parent,
            "ts": ts, "dur_s": dur, "attrs": attrs}


class TestSpanRollup:
    def test_known_tree_self_times_and_edges(self):
        # root(10) -> a(4) -> b(1);  root -> a(2)   [exit order: leaves first]
        rollup = SpanRollup()
        for event in [
            _span("b", 3, 2, 1.0, 1.0),
            _span("a", 2, 1, 0.5, 4.0),
            _span("a", 4, 1, 5.0, 2.0),
            _span("root", 1, None, 0.0, 10.0),
        ]:
            rollup.handle(event)
        self_s = rollup.self_seconds()
        assert self_s["b"] == pytest.approx(1.0)
        assert self_s["a"] == pytest.approx(5.0)      # 4-1 + 2
        assert self_s["root"] == pytest.approx(4.0)   # 10 - (4+2)
        # Sum of self-times == root duration: nothing double-counted.
        assert sum(self_s.values()) == pytest.approx(10.0)
        assert rollup.children_of(None) == [("root", 1, 10.0)]
        assert rollup.children_of("root") == [("a", 2, 6.0)]
        assert rollup.children_of("a") == [("b", 1, 1.0)]
        assert rollup.window_s == pytest.approx(10.0)

    def test_pending_memory_is_retired_on_parent_arrival(self):
        rollup = SpanRollup()
        rollup.handle(_span("child", 2, 1, 0.0, 1.0))
        assert len(rollup._pending) == 1
        rollup.handle(_span("parent", 1, None, 0.0, 2.0))
        assert rollup._pending == {}

    def test_concurrent_children_clamp_self_time_at_zero(self):
        # Parallel children sum past the parent's duration (wall-clock
        # overlap): self-time clamps at zero instead of going negative.
        rollup = SpanRollup()
        rollup.handle(_span("c", 2, 1, 0.0, 3.0))
        rollup.handle(_span("c", 3, 1, 0.0, 3.0))
        rollup.handle(_span("p", 1, None, 0.0, 4.0))
        assert rollup.self_seconds()["p"] == 0.0

    def test_snapshot_shape(self):
        rollup = SpanRollup()
        rollup.handle(_span("x", 1, None, 0.0, 1.5))
        rollup.handle({"type": "event", "name": "mark", "ts": 0.5,
                       "span": 1, "attrs": {}})
        snap = rollup.snapshot()
        assert snap["spans"] == 1 and snap["events"] == 1
        assert snap["names"]["x"] == {"count": 1, "total_s": 1.5,
                                      "self_s": 1.5}


# ---------------------------------------------------------------------------
# ProgressAggregator + follow


class TestProgress:
    def test_batches_fold_into_progress(self):
        progress = ProgressAggregator()
        progress.handle({"type": "run", "name": "sweep", "ts": 0.0,
                         "schema": "c2bound.trace/1", "attrs": {}})
        progress.handle(_span("dse.batch", 1, None, 1.0, 2.0,
                              size=10, fresh=8, cached=2))
        progress.handle(_span("dse.batch", 2, None, 4.0, 1.0,
                              size=5, fresh=5, cached=0))
        assert progress.fresh == 13 and progress.cached == 2
        assert progress.evaluations == 15
        assert progress.elapsed_s == pytest.approx(5.0)
        assert progress.rate == pytest.approx(3.0)
        assert not progress.done
        progress.handle(_span("experiment.fig12", 9, None, 0.0, 5.0))
        assert progress.done
        line = progress.format_line()
        assert "evals=15" in line and "experiment.fig12" in line

    def test_follow_stops_on_idle_timeout(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_bytes(_trace_bytes(_events(2)))
        slept = []
        polls = list(follow(path, interval_s=0.1, idle_timeout_s=0.3,
                            sleep=slept.append))
        seen = [event for events in polls for event in events]
        assert len(seen) == 3
        assert polls[1:] == [[], [], []]  # three idle polls make 0.3s
        assert slept  # idled through the timeout, never blocked for real

    def test_follow_until_predicate(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_bytes(_trace_bytes(_events(1)))
        progress = ProgressAggregator()
        total = 0
        # interval 0 never idles out: only the consumer's predicate
        # ends the loop.
        for events in follow(path, interval_s=0.0, sleep=lambda _s: None):
            for event in events:
                progress.handle(event)
            total += len(events)
            if progress.batches >= 0:
                break
        assert total == 2
