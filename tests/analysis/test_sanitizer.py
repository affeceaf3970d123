"""Runtime concurrency sanitizer: arming, finding records, and the
store/fabric integration path.

The acceptance scenario lives here: a foreign-shard entry smuggled
directly into the write-behind buffer (bypassing ``put``'s ownership
gate) must surface as a ``foreign-shard-write`` finding naming the
shard and the worker slot.
"""

from __future__ import annotations

import json
import pickle
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.analysis.sanitizer import (SANITIZE_SCHEMA, check_shard_write,
                                      load_findings, record_finding)
from repro.obs import get_registry
from repro.runconfig import RunConfig, current, install
from repro.sim.cache_store import SimCacheStore, shard_of_key


def _k(prefix: str, fill: str = "7") -> str:
    return prefix + fill * (64 - len(prefix))


def _configure(**settings) -> None:
    install(replace(current(), **settings))


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    """Isolate every test from the session's sanitizer settings
    (``pytest --sanitize`` arms them globally)."""
    monkeypatch.delenv("C2BOUND_SANITIZE", raising=False)
    monkeypatch.delenv("C2BOUND_SANITIZE_LOG", raising=False)
    _configure(sanitize=False, sanitize_log=None)


# ---- environment parsing ----------------------------------------------------


def test_disabled_by_default():
    config = RunConfig.from_env()
    assert config.sanitize is False
    assert config.sanitize_log is None


@pytest.mark.parametrize("value,armed", [
    ("1", True), ("yes", True), ("0", False), ("", False),
])
def test_env_flag_parsing(monkeypatch, value, armed):
    monkeypatch.setenv("C2BOUND_SANITIZE", value)
    assert RunConfig.from_env().sanitize is armed


# ---- record_finding ---------------------------------------------------------


def test_record_finding_counts_and_logs(tmp_path):
    log = tmp_path / "findings.jsonl"
    _configure(sanitize_log=str(log))
    counter = get_registry().counter("analysis.sanitize.findings")
    before = counter.value
    record = record_finding("foreign-shard-write", shard=3, key="abc")
    assert counter.value == before + 1
    assert record["schema"] == SANITIZE_SCHEMA
    assert record["kind"] == "foreign-shard-write"
    [line] = log.read_text().splitlines()
    assert json.loads(line) == record


def test_record_finding_without_log_still_counts():
    counter = get_registry().counter("analysis.sanitize.findings")
    before = counter.value
    record_finding("foreign-shard-write", shard=1)
    assert counter.value == before + 1


def test_record_finding_swallows_log_errors(tmp_path):
    # An unwritable log (here: a directory) must not raise — the
    # sanitizer observes, it never crashes the observed code.
    _configure(sanitize_log=str(tmp_path))
    record_finding("foreign-shard-write", shard=1)


def test_load_findings_missing_file_is_empty(tmp_path):
    assert load_findings(tmp_path / "nope.jsonl") == []


def test_load_findings_skips_a_torn_tail(tmp_path):
    log = tmp_path / "findings.jsonl"
    _configure(sanitize_log=str(log))
    record_finding("foreign-shard-write", shard=1)
    with log.open("a") as fh:
        fh.write('{"kind": "foreign-')  # writer killed mid-append
    assert [f["shard"] for f in load_findings(log)] == [1]


# ---- check_shard_write ------------------------------------------------------


def _stub_store(owned):
    return SimpleNamespace(owned_shards=owned, root="/cache",
                           sanitize_slot=4)


def test_check_passes_unrestricted_and_owned_writes():
    assert check_shard_write(_stub_store(None), _k("03"), 3) is None
    assert check_shard_write(_stub_store(frozenset({3})),
                             _k("03"), 3) is None


def test_check_flags_foreign_write():
    finding = check_shard_write(_stub_store(frozenset({1, 2})),
                                _k("ff"), 255)
    assert finding is not None
    assert finding["kind"] == "foreign-shard-write"
    assert finding["shard"] == 255
    assert finding["owned_shards"] == [1, 2]
    assert finding["slot"] == 4
    assert finding["store_root"] == "/cache"


# ---- store integration ------------------------------------------------------


@pytest.fixture
def armed(tmp_path):
    log = tmp_path / "findings.jsonl"
    _configure(sanitize=True, sanitize_log=str(log))
    return log


def test_denied_put_produces_no_finding(armed, tmp_path):
    # put() refuses foreign shards before the choke point, so the legal
    # path never trips the sanitizer.
    owned_key, foreign_key = _k("03"), _k("ff")
    store = SimCacheStore(tmp_path / "cache", write_behind=8,
                          owned_shards=frozenset({shard_of_key(owned_key)}))
    store.put(owned_key, 1.0)
    store.put(foreign_key, 2.0)
    store.flush()
    assert store.denied == 1
    assert load_findings(armed) == []


def test_injected_foreign_write_is_detected_with_shard_and_slot(
        armed, tmp_path):
    owned_key, foreign_key = _k("03"), _k("ff")
    store = SimCacheStore(tmp_path / "cache", write_behind=8,
                          owned_shards=frozenset({shard_of_key(owned_key)}))
    store.sanitize_slot = 7
    # Smuggle a foreign entry past put()'s ownership gate, the way a
    # scoping regression would.
    store._pending[foreign_key] = (2.0, {})
    store.flush()
    [finding] = load_findings(armed)
    assert finding["kind"] == "foreign-shard-write"
    assert finding["shard"] == shard_of_key(foreign_key) == 255
    assert finding["slot"] == 7
    assert finding["key"] == foreign_key
    assert finding["owned_shards"] == [shard_of_key(owned_key)]
    assert finding["schema"] == SANITIZE_SCHEMA


def test_pickle_roundtrip_keeps_slot_and_rearms(armed, tmp_path):
    store = SimCacheStore(tmp_path / "cache",
                          owned_shards=frozenset({3}))
    store.sanitize_slot = 5
    clone = pickle.loads(pickle.dumps(store))
    assert clone.sanitize_slot == 5
    assert clone._sanitize is True
    # Unpickling re-reads the run config (workers inherit it), so a
    # disarmed process yields a disarmed clone.
    _configure(sanitize=False)
    cold = pickle.loads(pickle.dumps(store))
    assert cold.sanitize_slot == 5
    assert cold._sanitize is False


def test_arming_is_read_at_construction(tmp_path):
    # A store built disarmed stays disarmed: no per-write config reads.
    foreign_key = _k("ff")
    store = SimCacheStore(tmp_path / "cache", write_behind=8,
                          owned_shards=frozenset({3}))
    assert store._sanitize is False
    log = tmp_path / "late.jsonl"
    _configure(sanitize=True, sanitize_log=str(log))
    store._pending[foreign_key] = (2.0, {})
    store.flush()
    assert load_findings(log) == []


def test_fabric_stamps_slot_on_scoped_stores(armed, tmp_path):
    from repro.dse.fabric import FabricEvaluator, owned_shards_of

    inner = SimpleNamespace(cache=SimCacheStore(tmp_path / "cache"),
                            evaluate=lambda config: 0.0)
    fabric = FabricEvaluator(inner, workers=2, write_behind=4)
    view = fabric._slot_evaluator(1)
    assert view.cache.sanitize_slot == 1
    assert view.cache.owned_shards == owned_shards_of(1, fabric.workers)
    assert view.cache._sanitize is True
