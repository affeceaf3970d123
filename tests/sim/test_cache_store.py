"""Unit tests for the persistent content-addressed simulation store."""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.obs import get_registry
from repro.runconfig import RunConfig, current, install
from repro.sim.cache_store import (
    SHARD_COUNT,
    SHARD_PREFIX_LEN,
    SIM_MODEL_VERSION,
    SimCacheStore,
    cached_simulate_chip_cost,
    fingerprint,
    resolve_store,
    shard_of_key,
    sim_cache_key,
    sim_cache_keys,
)
from repro.sim.config import CoreMicroConfig, SimulatedChip
from repro.workloads.gups import GUPS
from repro.workloads.parsec import parsec_like


@pytest.fixture(autouse=True)
def _isolate_default_store():
    """Each test starts with no store in the run config."""
    install(replace(current(), sim_cache=None))


# ----- keys ----------------------------------------------------------------
def test_key_is_stable_across_equal_inputs():
    chip = replace(SimulatedChip(), n_cores=2)
    assert sim_cache_key(chip, parsec_like("fluidanimate", n_ops=500), 7) \
        == sim_cache_key(replace(SimulatedChip(), n_cores=2),
                         parsec_like("fluidanimate", n_ops=500), 7)


def test_key_is_sensitive_to_every_input():
    chip = replace(SimulatedChip(), n_cores=2)
    wl = parsec_like("fluidanimate", n_ops=500)
    base = sim_cache_key(chip, wl, 7)
    assert sim_cache_key(replace(chip, n_cores=4), wl, 7) != base
    assert sim_cache_key(
        replace(chip, core=CoreMicroConfig(issue_width=2)), wl, 7) != base
    assert sim_cache_key(
        replace(chip, l1=replace(chip.l1, size_kib=64.0)), wl, 7) != base
    assert sim_cache_key(chip, parsec_like("fluidanimate", n_ops=501),
                         7) != base
    assert sim_cache_key(chip, GUPS(updates=500, table_kib=64.0), 7) != base
    assert sim_cache_key(chip, wl, 8) != base


def test_batch_keys_keep_the_payload_format():
    # Entries persisted before batch keying stay addressable: the
    # payload is still the compact JSON list below, per chip.
    wl = parsec_like("fluidanimate", n_ops=500)
    chips = [replace(SimulatedChip(), n_cores=n) for n in (2, 4, 2)]
    want = [hashlib.sha256(json.dumps(
        ["simulate_chip_cost", SIM_MODEL_VERSION, fingerprint(chip),
         fingerprint(wl), 7], separators=(",", ":")).encode()).hexdigest()
        for chip in chips]
    assert sim_cache_keys(chips, wl, 7) == want
    assert [sim_cache_key(chip, wl, 7) for chip in chips] == want


def test_key_folds_in_the_model_version_salt(monkeypatch):
    chip = replace(SimulatedChip(), n_cores=2)
    wl = parsec_like("fluidanimate", n_ops=500)
    base = sim_cache_key(chip, wl, 7)
    monkeypatch.setattr("repro.sim.cache_store.SIM_MODEL_VERSION",
                        SIM_MODEL_VERSION + ".bumped")
    assert sim_cache_key(chip, wl, 7) != base


def test_fingerprint_handles_arrays_floats_and_plain_objects():
    assert fingerprint(1.5) == ["f", "1.5"]
    assert fingerprint(np.float64(1.5)) == ["f", "1.5"]
    a = fingerprint(np.arange(4))
    b = fingerprint(np.arange(4))
    assert a == b
    assert fingerprint(np.arange(5)) != a

    class Odd:
        __slots__ = ()
    with pytest.raises(InvalidParameterError, match="cannot fingerprint"):
        fingerprint(Odd())


# ----- store mechanics -----------------------------------------------------
def test_put_get_round_trip_is_exact(tmp_path):
    store = SimCacheStore(tmp_path / "cache")
    cost = 0.1 + 0.2  # a float whose repr exposes rounding (0.30000...4)
    key = "ab" + "0" * 62
    store.put(key, cost)
    assert store.get(key) == cost
    # Bypass the memory front: a fresh instance reads from disk.
    assert SimCacheStore(tmp_path / "cache").get(key) == cost


def test_get_miss_and_corrupt_entry(tmp_path):
    store = SimCacheStore(tmp_path / "cache")
    key = "cd" + "1" * 62
    assert store.get(key) is None
    path = store.path_for(key)
    path.parent.mkdir(parents=True)
    path.write_text("{not json")
    assert store.get(key) is None  # corrupt entry is a plain miss
    assert store.misses == 2


def test_entry_records_provenance(tmp_path):
    store = SimCacheStore(tmp_path / "cache")
    key = "ef" + "2" * 62
    store.put(key, 3.25, seed=7, workload="GUPS")
    entry = json.loads(store.path_for(key).read_text())
    assert entry == {"cost": "3.25", "model_version": SIM_MODEL_VERSION,
                     "seed": 7, "workload": "GUPS"}


def test_memory_front_evicts_lru(tmp_path):
    registry = get_registry()
    registry.reset()
    store = SimCacheStore(tmp_path / "cache", memory_entries=2)
    keys = [f"{i:02d}" + "3" * 62 for i in range(3)]
    for i, key in enumerate(keys):
        store.put(key, float(i))
    assert len(store._mem) == 2
    assert registry.counter("sim.cache.evictions").value == 1
    # The evicted key still reads (from disk) and every value survives.
    assert [store.get(k) for k in keys] == [0.0, 1.0, 2.0]


def test_stats_and_clear(tmp_path):
    store = SimCacheStore(tmp_path / "cache")
    for i in range(3):
        store.put(f"{i:02d}" + "4" * 62, float(i))
    stats = store.stats()
    assert stats["entries"] == 3
    assert stats["bytes"] > 0
    assert stats["model_version"] == SIM_MODEL_VERSION
    assert store.clear() == 3
    assert store.stats()["entries"] == 0
    assert store.get("00" + "4" * 62) is None


def test_pickle_ships_configuration_only(tmp_path):
    store = SimCacheStore(tmp_path / "cache", memory_entries=7)
    store.put("aa" + "5" * 62, 1.5)
    clone = pickle.loads(pickle.dumps(store))
    assert clone.root == store.root
    assert clone.memory_entries == 7
    assert len(clone._mem) == 0          # fresh LRU front
    assert clone.get("aa" + "5" * 62) == 1.5  # disk is shared


def _put_repeatedly(start, root, key, cost, rounds):
    store = SimCacheStore(root)
    start.wait(timeout=60)
    for _ in range(rounds):
        store.put(key, cost)


def _get_through_fresh_stores(start, root, key, rounds, results):
    seen = set()
    start.wait(timeout=60)
    for _ in range(rounds):
        seen.add(SimCacheStore(root).get(key))   # empty front: reads disk
    results.put((sorted(seen, key=repr),
                 get_registry().counter("sim.cache.corrupt").value))


def test_concurrent_writers_never_expose_a_torn_entry(tmp_path):
    # Two processes write one key over and over while a third reads it
    # through fresh stores: temp file plus os.replace means a reader sees
    # no entry or the whole entry, never a half-written one.
    root, key, cost = tmp_path / "cache", "bb" + "6" * 62, 0.1 + 0.2
    ctx = multiprocessing.get_context("spawn")
    start, results = ctx.Barrier(3), ctx.Queue()
    procs = [ctx.Process(target=_put_repeatedly,
                         args=(start, root, key, cost, 1000))
             for _ in range(2)]
    procs.append(ctx.Process(target=_get_through_fresh_stores,
                             args=(start, root, key, 2000, results)))
    for proc in procs:
        proc.start()
    seen, corrupt = results.get(timeout=120)
    for proc in procs:
        proc.join(timeout=120)
    assert [proc.exitcode for proc in procs] == [0, 0, 0]
    assert set(seen) <= {None, cost}, seen
    assert corrupt == 0
    assert SimCacheStore(root).get(key) == cost


# ----- tiered semantics: shards, write-behind --------------------------------
def _k(prefix: str, fill: str = "7") -> str:
    return prefix + fill * (64 - len(prefix))


def test_shard_of_key_matches_path_layout(tmp_path):
    store = SimCacheStore(tmp_path / "cache")
    for prefix in ("00", "ab", "ff"):
        key = _k(prefix)
        shard = shard_of_key(key)
        assert 0 <= shard < SHARD_COUNT
        assert shard == int(prefix, 16)
        assert store.path_for(key).parent.name == key[:SHARD_PREFIX_LEN]


def test_front_hit_vs_disk_hit_accounting(tmp_path):
    registry = get_registry()
    registry.reset()
    store = SimCacheStore(tmp_path / "cache")
    key = _k("aa")
    store.put(key, 1.25)
    assert store.get(key) == 1.25            # served by the memory front
    assert store.front_hits == 1
    assert registry.counter("sim.cache.front_hits").value == 1

    fresh = SimCacheStore(tmp_path / "cache")
    assert fresh.get(key) == 1.25            # disk hit: promotes to front
    assert fresh.front_hits == 0 and fresh.hits == 1
    assert fresh.get(key) == 1.25            # now a front hit
    assert fresh.front_hits == 1
    assert fresh.stats()["disk_hits"] == 1


def test_write_behind_buffers_until_batch_flush(tmp_path):
    registry = get_registry()
    registry.reset()
    store = SimCacheStore(tmp_path / "cache", write_behind=3)
    keys = [_k(f"{i:02d}") for i in range(3)]
    store.put(keys[0], 0.0)
    store.put(keys[1], 1.0)
    # Nothing persisted yet — and the buffered entries still read.
    assert not list(store.root.glob("??/*.json"))
    assert store.stats()["pending_writes"] == 2
    assert store.get(keys[0]) == 0.0
    store.put(keys[2], 2.0)                  # hits the batch size: flush
    assert store.stats()["pending_writes"] == 0
    assert store.flushed == 3
    assert len(list(store.root.glob("??/*.json"))) == 3
    assert registry.counter("sim.cache.stores").value == 3


def test_write_behind_flushes_on_close_and_context_exit(tmp_path):
    key = _k("bb")
    with SimCacheStore(tmp_path / "cache", write_behind=64) as store:
        store.put(key, 4.5, seed=3)
        assert not list(store.root.glob("??/*.json"))
    # Context exit flushed — provenance included.
    entry = json.loads(store.path_for(key).read_text())
    assert entry["cost"] == "4.5" and entry["seed"] == 3
    assert store.close() is None             # idempotent


def test_crash_loses_only_buffered_entries(tmp_path):
    store = SimCacheStore(tmp_path / "cache", write_behind=64)
    store.put(_k("cc"), 1.0)
    del store                                # "crash": no flush ran
    assert SimCacheStore(tmp_path / "cache").get(_k("cc")) in (None, 1.0)


def test_pending_entry_survives_front_eviction(tmp_path):
    store = SimCacheStore(tmp_path / "cache", memory_entries=1,
                          write_behind=64)
    first, second = _k("d0"), _k("d1")
    store.put(first, 1.0)
    store.put(second, 2.0)                   # evicts `first` from the front
    assert first not in store._mem
    # Still answered without file I/O (and re-promoted to the front).
    assert store.get(first) == 1.0
    assert store.front_hits == 1
    assert first in store._mem


def test_scoped_view_shares_root_and_overrides_knobs(tmp_path):
    store = SimCacheStore(tmp_path / "cache", memory_entries=7)
    view = store.scoped(write_behind=5)
    assert view.root == store.root
    assert view.memory_entries == 7
    assert view.write_behind == 5
    # The original is untouched (write-through).
    assert store.write_behind == 0
    key = _k("01")
    view.put(key, 3.0)
    view.flush()
    assert store.get(key) == 3.0             # same disk tier


def test_pickle_carries_tier_configuration(tmp_path):
    store = SimCacheStore(tmp_path / "cache", write_behind=9)
    store.put(_k("03", "9"), 1.0)            # buffered, never pickled
    clone = pickle.loads(pickle.dumps(store))
    assert clone.write_behind == 9
    assert len(clone._pending) == 0


def test_stats_tier_breakdown(tmp_path):
    store = SimCacheStore(tmp_path / "cache", write_behind=2)
    store.put(_k("0a"), 1.0)
    store.put(_k("1b"), 2.0)                 # flush fires (batch of 2)
    store.put(_k("2c"), 3.0)                 # buffered
    store.get(_k("0a"))
    stats = store.stats()
    assert stats["front_capacity"] == store.memory_entries
    assert stats["front_hits"] == 1
    assert stats["disk_hits"] == 0
    assert stats["pending_writes"] == 1
    assert stats["write_behind"] == 2
    assert stats["flushed"] == 2
    assert stats["shards_populated"] == 2
    assert stats["shard_count"] == SHARD_COUNT


def test_quarantine_still_works_with_write_behind(tmp_path):
    store = SimCacheStore(tmp_path / "cache", write_behind=4)
    key = _k("ee")
    path = store.path_for(key)
    path.parent.mkdir(parents=True)
    path.write_text("{torn")
    assert store.get(key) is None
    assert store.corrupt == 1
    assert not path.exists()                 # moved aside
    assert (store.quarantine_dir() / path.name).exists()
    store.put(key, 5.0)
    store.flush()
    assert SimCacheStore(tmp_path / "cache").get(key) == 5.0


def test_invalid_tier_knobs_rejected(tmp_path):
    with pytest.raises(InvalidParameterError):
        SimCacheStore(tmp_path / "c", memory_entries=0)
    with pytest.raises(InvalidParameterError):
        SimCacheStore(tmp_path / "c", write_behind=-1)


# ----- default-store resolution -------------------------------------------
def test_resolve_store_modes(tmp_path):
    assert resolve_store(None) is None
    assert resolve_store("default") is None  # no default configured
    store = SimCacheStore(tmp_path / "cache")
    assert resolve_store(store) is store
    made = resolve_store(tmp_path / "other")
    assert isinstance(made, SimCacheStore)
    assert made.root == tmp_path / "other"


def test_default_store_from_env(monkeypatch, tmp_path):
    monkeypatch.setenv("C2BOUND_SIM_CACHE", str(tmp_path / "envcache"))
    # An emptied slot re-seeds from the environment on first use.
    install(None)
    store = resolve_store("default")
    assert store is not None
    assert store.root == tmp_path / "envcache"
    # An installed config overrides the environment.
    install(RunConfig(sim_cache=None))
    assert resolve_store("default") is None


# ----- the cached entry point ---------------------------------------------
def test_cached_simulate_matches_direct_and_skips_resimulation(tmp_path):
    from repro.sim.cmp import simulate_chip_cost

    chip = replace(SimulatedChip(), n_cores=2)
    wl = parsec_like("fluidanimate", n_ops=800)
    store = SimCacheStore(tmp_path / "cache")
    registry = get_registry()
    registry.reset()
    cold = cached_simulate_chip_cost(chip, wl, 7, store)
    assert registry.counter("sim.runs").value == 1
    warm = cached_simulate_chip_cost(chip, wl, 7, store)
    assert registry.counter("sim.runs").value == 1  # no new simulation
    direct = simulate_chip_cost(chip, wl, 7)
    assert cold == warm == direct
    assert store.hits == 1 and store.misses == 1


def test_cached_simulate_without_any_store_is_uncached(tmp_path):
    from repro.sim.cmp import simulate_chip_cost

    chip = replace(SimulatedChip(), n_cores=2)
    wl = parsec_like("fluidanimate", n_ops=400)
    assert cached_simulate_chip_cost(chip, wl, 7) \
        == simulate_chip_cost(chip, wl, 7)
