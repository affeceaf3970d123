"""Write-behind buffers survive graceful shutdown (satellite of the
service PR): ``FabricEvaluator.close()`` flushes its evaluator's
store, the process-exit safety net flushes every live store, and the
flush is observable as a ``sim.cache.flush`` span."""

from __future__ import annotations

import json

from repro.dse import FabricEvaluator, SurrogateEvaluator
from repro.obs import JsonlWriter, configure_tracing, disable_tracing, read_jsonl
from repro.sim.cache_store import SimCacheStore, flush_all_stores


class CachingEvaluator:
    """Minimal evaluator exposing a ``cache`` attribute like
    SimulatorEvaluator does."""

    def __init__(self, cache):
        self.cache = cache

    def evaluate(self, config):
        return float(config["x"])

    def evaluate_batch(self, configs):
        return [self.evaluate(c) for c in configs]


class TestCloseFlushes:
    def test_parallel_evaluator_close_flushes_store(self, tmp_path):
        store = SimCacheStore(tmp_path / "cache", write_behind=64)
        store.put("deadbeef00000000", 1.25)
        assert store.stats()["pending_writes"] == 1

        pooled = FabricEvaluator(CachingEvaluator(store), workers=1)
        pooled.close()
        assert store.stats()["pending_writes"] == 0
        # The entry is on disk, not just in memory.
        cold = SimCacheStore(tmp_path / "cache")
        assert cold.get("deadbeef00000000") == 1.25

    def test_close_emits_flush_span(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        configure_tracing(trace)
        try:
            store = SimCacheStore(tmp_path / "cache", write_behind=64)
            store.put("deadbeef00000001", 2.5)
            pooled = FabricEvaluator(CachingEvaluator(store), workers=1)
            pooled.close()
        finally:
            disable_tracing()
        spans = [e for e in read_jsonl(trace)
                 if e.get("type") == "span" and e["name"] == "sim.cache.flush"]
        assert len(spans) == 1
        assert spans[0]["attrs"]["entries"] == 1

    def test_close_without_cache_attr_is_fine(self):
        pooled = FabricEvaluator(
            object.__new__(SurrogateEvaluator), workers=1)
        pooled.close()  # no cache attribute anywhere: must not raise


class TestFlushAllStores:
    def test_flushes_every_live_write_behind_store(self, tmp_path):
        a = SimCacheStore(tmp_path / "a", write_behind=16)
        b = SimCacheStore(tmp_path / "b", write_behind=16)
        a.put("aa00000000000000", 1.0)
        b.put("bb00000000000000", 2.0)
        b.put("bb00000000000001", 3.0)
        assert flush_all_stores() == 3
        assert a.stats()["pending_writes"] == 0
        assert b.stats()["pending_writes"] == 0

    def test_idempotent_and_empty_safe(self, tmp_path):
        store = SimCacheStore(tmp_path / "c", write_behind=16)
        store.put("cc00000000000000", 4.0)
        assert flush_all_stores() >= 1
        assert store.get("cc00000000000000") == 4.0
        # Nothing pending anywhere now; a second sweep writes nothing
        # for this store (other suites' stores may still be alive).
        assert store.stats()["pending_writes"] == 0

    def test_write_through_store_not_registered(self, tmp_path):
        from repro.sim import cache_store

        before = len(cache_store._live_stores)
        SimCacheStore(tmp_path / "wt")  # write-through: nothing to lose
        assert len(cache_store._live_stores) == before
