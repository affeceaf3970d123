"""Span nesting, the JSONL round trip, and the schema validator."""

from __future__ import annotations

import json

from repro.obs import (
    SCHEMA_VERSION,
    JsonlWriter,
    Tracer,
    configure_tracing,
    disable_tracing,
    get_tracer,
    read_jsonl,
    validate_event,
    validate_trace_file,
)
from repro.obs.span import _NULL_SPAN


class TestSpanNesting:
    def test_disabled_tracer_returns_shared_noop(self):
        tracer = Tracer(enabled=False)
        s = tracer.span("anything", attr=1)
        assert s is _NULL_SPAN
        assert tracer.span("other") is s
        with s:
            s.set_attr(ignored=True)  # must not raise
        assert tracer.aggregates == {}

    def test_parent_child_ids(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer(enabled=True, sink=JsonlWriter(path))
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("inner"):
                pass
        tracer.close()
        events = [e for e in read_jsonl(path) if e["type"] == "span"]
        # Spans are emitted at exit: the two inners first, then outer.
        by_name = {}
        for e in events:
            by_name.setdefault(e["name"], []).append(e)
        outer = by_name["outer"][0]
        assert outer["parent"] is None
        for inner in by_name["inner"]:
            assert inner["parent"] == outer["id"]
            assert inner["dur_s"] >= 0.0

    def test_aggregates_count_and_accumulate(self):
        tracer = Tracer(enabled=True)
        for _ in range(3):
            with tracer.span("work"):
                pass
        assert tracer.aggregates["work"][0] == 3
        assert tracer.aggregates["work"][1] >= 0.0
        table = tracer.timing_table()
        assert table is not None
        assert table.column("span") == ["work"]
        assert table.column("count") == [3]

    def test_timing_table_empty_is_none(self):
        assert Tracer(enabled=True).timing_table() is None

    def test_exception_tagged_and_propagated(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer(enabled=True, sink=JsonlWriter(path))
        try:
            with tracer.span("boom"):
                raise ValueError("x")
        except ValueError:
            pass
        tracer.close()
        spans = [e for e in read_jsonl(path) if e["type"] == "span"]
        assert spans[0]["attrs"]["error"] == "ValueError"

    def test_configure_and_disable_global(self, tmp_path):
        tracer = configure_tracing(tmp_path / "g.jsonl")
        assert get_tracer() is tracer
        with get_tracer().span("s"):
            get_tracer().event("marker", k=1)
        disable_tracing()
        assert get_tracer().enabled is False
        problems = validate_trace_file(tmp_path / "g.jsonl")
        assert problems == []


class TestEventSchema:
    def test_round_trip_validates(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer(enabled=True, sink=JsonlWriter(path, run_name="test"))
        with tracer.span("a", n=2):
            tracer.event("point", detail="d")
        tracer.close()
        events = read_jsonl(path)
        assert events[0]["type"] == "run"
        assert events[0]["schema"] == SCHEMA_VERSION
        assert all(validate_event(e) == [] for e in events)
        assert validate_trace_file(path) == []
        point = [e for e in events if e["type"] == "event"][0]
        assert point["attrs"] == {"detail": "d"}
        assert isinstance(point["span"], int)

    def test_validator_flags_problems(self, tmp_path):
        assert validate_event({"type": "span"})  # missing fields
        assert validate_event([1, 2])  # not an object
        assert validate_event({"type": "nope"})
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(
            {"type": "span", "name": "s", "id": 0, "parent": 99,
             "ts": 0.0, "dur_s": 0.0, "attrs": {}}) + "\n")
        problems = validate_trace_file(bad)
        assert any("run" in p for p in problems)  # no header
        assert any("parent" in p for p in problems)  # dangling parent

    def test_empty_trace_invalid(self, tmp_path):
        empty = tmp_path / "e.jsonl"
        empty.write_text("")
        assert validate_trace_file(empty)

    def test_torn_final_line_is_a_reported_problem(self, tmp_path, capsys):
        from repro.obs.events import main
        path = tmp_path / "t.jsonl"
        with JsonlWriter(path):
            pass
        with path.open("a") as fh:
            fh.write('{"type": "event", "na')  # writer killed mid-line
        # The shared reader drops the torn tail; the validator still
        # reports it, so the CI trace check fails the file.
        assert len(read_jsonl(path)) == 1
        problems = validate_trace_file(path)
        assert len(problems) == 1 and "torn" in problems[0]
        assert main([str(path)]) == 1
        assert "torn" in capsys.readouterr().err

    def test_module_validator_cli(self, tmp_path, capsys):
        from repro.obs.events import main
        path = tmp_path / "t.jsonl"
        with JsonlWriter(path):
            pass
        assert main([str(path)]) == 0
        assert "OK" in capsys.readouterr().out
        assert main([]) == 2
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{}\n")
        assert main([str(bad)]) == 1
