"""Chunk-timing spans: queue-wait, execute and IPC recorded separately.

The profiler cannot attribute pool time honestly if a chunk's
wall-clock is lumped into one span: waiting behind busy workers,
in-worker simulation and pickling round-trips call for three different
fixes.  `FabricEvaluator` therefore records three externally-timed
spans per completed unit (``dse.chunk.queue_wait`` / ``execute`` /
``ipc``) — these tests pin their presence, attrs and additivity.  With
stealing off the unit count is fixed: each slot cuts its own backlog
into ``unit_size`` pieces.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dse import FabricEvaluator, SimulatorEvaluator
from repro.dse.fabric import config_shard, owner_of_shard
from repro.obs import configure_tracing, disable_tracing
from repro.obs.stream import SpanRollup, TraceReader
from repro.workloads import parsec_like

CHUNK_SPANS = ("dse.chunk.queue_wait", "dse.chunk.execute",
               "dse.chunk.ipc")


@pytest.fixture
def traced(tmp_path):
    path = tmp_path / "trace.jsonl"
    configure_tracing(path)
    try:
        yield path
    finally:
        disable_tracing()


@pytest.fixture(scope="module")
def sim_evaluator() -> SimulatorEvaluator:
    return SimulatorEvaluator(parsec_like("blackscholes", n_ops=300),
                              seed=1)


def _configs(n: int, evaluator) -> "list[dict]":
    """``n`` distinct design points, half owned by each of two slots.

    The fabric evaluates each distinct point once, so the points must
    differ; splitting them evenly fixes how many units each slot cuts
    its backlog into when stealing is off.
    """
    by_slot: "dict[int, list[dict]]" = {0: [], 1: []}
    for rob in range(32, 256):
        config = {"n": 1 + rob % 2, "issue_width": 2, "rob_size": rob,
                  "a1": 0.5, "a2": 8.0}
        slot = owner_of_shard(config_shard(evaluator, config), 2)
        if len(by_slot[slot]) < n // 2:
            by_slot[slot].append(config)
    return by_slot[0] + by_slot[1]


def _rollup(path) -> SpanRollup:
    rollup = SpanRollup()
    for event in TraceReader(path).read_all():
        rollup.handle(event)
    return rollup


class TestChunkSpans:
    def test_pool_run_emits_all_three_per_chunk(self, traced,
                                                sim_evaluator):
        configs = _configs(8, sim_evaluator)
        with FabricEvaluator(sim_evaluator, workers=2, unit_size=2,
                             steal=False) as pool:
            costs = pool.evaluate_batch(configs)
        assert np.all(np.isfinite(costs))
        rollup = _rollup(traced)
        n_chunks = 4
        for name in CHUNK_SPANS:
            assert name in rollup.aggregates, name
            count, total, _self = rollup.aggregates[name]
            assert count == n_chunks, (name, count)
            assert total >= 0.0
        # Execute time is real work, not epsilon bookkeeping.
        assert rollup.aggregates["dse.chunk.execute"][1] > 0.0

    def test_chunk_spans_carry_chunk_and_size_attrs(self, traced,
                                                    sim_evaluator):
        with FabricEvaluator(sim_evaluator, workers=2, unit_size=3,
                             steal=False) as pool:
            pool.evaluate_batch(_configs(6, sim_evaluator))
        by_name: "dict[str, list[dict]]" = {}
        for event in TraceReader(traced).read_all():
            if event.get("name") in CHUNK_SPANS:
                by_name.setdefault(event["name"], []).append(event)
        for name in CHUNK_SPANS:
            # ``chunk`` names the worker slot that ran the unit.
            assert len(by_name[name]) == 2
            assert {e["attrs"]["chunk"] for e in by_name[name]} <= {0, 1}
            assert all(e["attrs"]["size"] == 3 for e in by_name[name])

    def test_serial_inline_path_emits_no_chunk_spans(self, traced,
                                                     sim_evaluator):
        with FabricEvaluator(sim_evaluator, workers=1) as pool:
            pool.evaluate_batch(_configs(4, sim_evaluator))
        rollup = _rollup(traced)
        for name in CHUNK_SPANS:
            assert name not in rollup.aggregates
        # The inline path still simulates under sim.run as before.
        assert "sim.run" in rollup.aggregates

    def test_disabled_tracer_records_nothing(self, tmp_path,
                                             sim_evaluator):
        disable_tracing()
        with FabricEvaluator(sim_evaluator, workers=2,
                             unit_size=2) as pool:
            costs = pool.evaluate_batch(_configs(4, sim_evaluator))
        assert np.all(np.isfinite(costs))
