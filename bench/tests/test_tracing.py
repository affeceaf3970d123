"""Self time and coverage from a synthetic span tree."""

import pytest

from repro.obs import get_tracer
from repro.obs.events import validate_trace_file

from bench.tracing import BenchTrace


def _tree(trace: BenchTrace) -> None:
    # bench.op (10 s)
    #   dse.batch (6 s)
    #     dse.chunk.execute (4 s)
    #   cache.key (3 s)
    root, batch = trace.new_id(), trace.new_id()
    trace.record("dse.chunk.execute", 101.0, 4.0, parent=batch)
    trace.record("dse.batch", 100.5, 6.0, span_id=batch, parent=root)
    trace.record("cache.key", 106.6, 3.0, parent=root)
    trace.record("bench.op", 100.0, 10.0, span_id=root, rid="op-0")


def test_self_time_is_duration_minus_children():
    trace = BenchTrace()
    _tree(trace)
    self_s = trace.rollup().self_seconds()
    assert self_s == pytest.approx({"bench.op": 1.0, "dse.batch": 2.0,
                                    "dse.chunk.execute": 4.0,
                                    "cache.key": 3.0})
    layers = trace.layer_seconds()
    assert layers["dse.evaluate.self_s"] == pytest.approx(2.0)
    assert layers["dse.pool.execute_s"] == pytest.approx(4.0)
    assert layers["cache.key_s"] == pytest.approx(3.0)
    assert layers["sim.loop_s"] == 0.0


def test_coverage_is_the_share_of_root_time_under_layer_spans():
    trace = BenchTrace()
    _tree(trace)
    assert trace.coverage() == pytest.approx(0.9)
    assert BenchTrace().coverage() == 0.0


def test_overlapping_children_clamp_self_time_at_zero():
    trace = BenchTrace()
    root = trace.new_id()
    for _ in range(2):  # two pool workers busy in parallel
        trace.record("dse.chunk.execute", 0.0, 5.0, parent=root)
    trace.record("bench.op", 0.0, 6.0, span_id=root)
    assert trace.rollup().self_seconds()["bench.op"] == 0.0
    assert trace.coverage() == 1.0


def test_live_spans_nest_under_benchmark_spans(tmp_path):
    trace = BenchTrace()
    with trace.span("never.recorded"):
        pass  # stopped: a no-op
    trace.start()
    try:
        with trace.span("bench.op", rid="op-0"):
            with get_tracer().span("dse.batch"):
                pass
    finally:
        trace.stop()
    assert [e["name"] for e in trace.events] == ["dse.batch", "bench.op"]
    assert trace.events[0]["parent"] == trace.events[1]["id"]
    path = trace.dump(tmp_path / "t.jsonl", run_name="bench.test")
    assert validate_trace_file(path) == []
