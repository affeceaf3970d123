"""Overhead guard for the runtime concurrency sanitizer.

The contract (module docstring of :mod:`repro.analysis.sanitizer`):
disabled, the per-write cost is one cached boolean test — unmeasurable
next to the file I/O it gates.  Like ``tests/obs/test_stream_overhead
.py``, the bound is enforced on the per-operation cost of the added
code itself (a buffered ``put``, a legal ownership check) with a
generous absolute ceiling, not on a ratio of two noisy end-to-end
timings.  The *semantic* half of the guarantee — arming is read once
at construction, never per write — is pinned in ``test_sanitizer.py``.
"""

from __future__ import annotations

import time
from dataclasses import replace

import pytest

from repro.analysis.sanitizer import check_shard_write
from repro.runconfig import current, install
from repro.sim.cache_store import SimCacheStore, shard_of_key


def _k(prefix: str, fill: str = "7") -> str:
    return prefix + fill * (64 - len(prefix))


@pytest.fixture(autouse=True)
def _disarmed():
    install(replace(current(), sanitize=False, sanitize_log=None))


def test_disabled_buffered_put_stays_microseconds(tmp_path):
    # The sanitizer adds zero code to the buffered put path (its check
    # sits in _persist); a regression that leaks per-put work — a config
    # read, a log probe — would blow this ceiling immediately.
    keys = [_k(f"{i % 256:02x}", f"{i % 10:d}") for i in range(2000)]
    best = float("inf")
    for _ in range(3):
        store = SimCacheStore(tmp_path / "cache", write_behind=10 ** 9,
                              memory_entries=4096)
        t0 = time.perf_counter()
        for key in keys:
            store.put(key, 1.0)
        best = min(best, (time.perf_counter() - t0) / len(keys))
    assert best < 50e-6, f"buffered put took {best * 1e6:.1f}us"


def test_armed_legal_check_stays_microseconds():
    # Armed but legal (the common case in a sanitized run): the
    # ownership test itself must stay far below the disk write it
    # precedes.
    store = SimCacheStore.__new__(SimCacheStore)
    store.owned_shards = frozenset(range(64))
    key = _k("03")
    shard = shard_of_key(key)
    reps = 2000
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _i in range(reps):
            check_shard_write(store, key, shard)
        best = min(best, (time.perf_counter() - t0) / reps)
    assert best < 50e-6, f"legal check took {best * 1e6:.1f}us"
