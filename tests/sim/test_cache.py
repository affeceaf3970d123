"""Tests for the set-associative cache."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.sim.cache import SetAssociativeCache
from repro.sim.config import CacheConfig


def make_cache(**kw) -> SetAssociativeCache:
    return SetAssociativeCache(CacheConfig(**kw))


class TestGeometry:
    def test_sets_and_ways(self):
        c = make_cache(size_kib=32.0, assoc=8, line_bytes=64)
        assert c.num_sets == 64
        assert c.assoc == 8

    def test_tiny_cache_clamps(self):
        c = make_cache(size_kib=0.0625, assoc=8, line_bytes=64)  # 1 line
        assert c.num_sets >= 1

    def test_line_and_bank(self):
        c = make_cache(line_bytes=64, banks=4)
        assert c.line_of(129) == 2
        assert c.bank_of(129) == 2 % 4

    def test_negative_address_rejected(self):
        with pytest.raises(InvalidParameterError):
            make_cache().line_of(-1)


class TestHitMissSemantics:
    def test_first_touch_misses_second_hits(self):
        c = make_cache()
        assert not c.access(0x1000)
        assert c.access(0x1000)

    def test_same_line_different_word(self):
        c = make_cache(line_bytes=64)
        c.access(0)
        assert c.access(63)
        assert not c.access(64)

    def test_lru_eviction_order(self):
        # Direct-mapped-like: 2 ways, fill 3 lines of one set.
        c = make_cache(size_kib=0.125, assoc=2, line_bytes=64)  # 2 lines
        sets = c.num_sets
        stride = sets * 64
        a, b, d = 0, stride, 2 * stride  # same set
        c.access(a)
        c.access(b)
        c.access(a)      # a is MRU
        c.access(d)      # evicts b (LRU)
        assert c.access(a)
        assert not c.access(b)

    def test_probe_does_not_fill(self):
        c = make_cache()
        assert not c.probe(0)
        assert not c.access(0)
        assert c.probe(0)

    def test_invalidate(self):
        c = make_cache()
        c.access(0)
        assert c.invalidate(0)
        assert not c.access(0)
        assert not c.invalidate(4096 * 64)

    def test_miss_rate_counter(self):
        c = make_cache()
        for addr in (0, 0, 64, 64):
            c.access(addr)
        assert c.miss_rate == pytest.approx(0.5)
        c.reset_stats()
        assert c.miss_rate == 0.0

    def test_streaming_miss_rate(self):
        # Sequential 8B elements on 64B lines: 1/8 miss rate.
        c = make_cache(size_kib=32.0)
        addrs = np.arange(4096) * 8
        misses = sum(0 if c.access(int(a)) else 1 for a in addrs)
        assert misses == 512

    def test_working_set_larger_than_cache_thrashes(self):
        c = make_cache(size_kib=1.0, assoc=2, line_bytes=64)
        # Cyclic sweep over 4x the capacity: LRU thrashes to ~100% misses.
        lines = 4 * c.num_sets * c.assoc
        for _round in range(3):
            for i in range(lines):
                c.access(i * 64)
        c.reset_stats()
        for i in range(lines):
            c.access(i * 64)
        assert c.miss_rate == 1.0


class TestRowsOnFirstTouch:
    """Set rows exist only for sets a run has touched."""

    @staticmethod
    def rows(c: SetAssociativeCache) -> "tuple[int, int, int]":
        return len(c._tags), len(c._lru), len(c._dirty)

    def test_fresh_cache_holds_no_rows(self):
        assert self.rows(make_cache()) == (0, 0, 0)

    def test_queries_on_an_untouched_set_create_no_row(self):
        c = make_cache()
        assert not c.probe(0)
        assert not c.invalidate(0)
        assert not c.is_dirty(0)
        assert not c.set_dirty(0)
        assert self.rows(c) == (0, 0, 0)
        assert c.writebacks == 0

    def test_access_builds_only_its_own_set(self):
        c = make_cache()
        line = c.num_sets + 3  # set 3, tag 1
        c.access_rw(line * 64, write=True)
        assert sorted(c._tags) == sorted(c._lru) == sorted(c._dirty) == [3]
        assert c.is_dirty(line * 64)
        # A miss in another set of the same queries still builds nothing.
        assert not c.probe(64)
        assert not c.invalidate(64)
        assert sorted(c._tags) == [3]
        # A new row starts empty: the filled way is the only live one.
        assert sorted(c._tags[3]) == [-1] * (c.assoc - 1) + [1]


class TestConfigValidation:
    def test_bad_line_size(self):
        with pytest.raises(InvalidParameterError):
            CacheConfig(line_bytes=48)

    def test_bad_capacity(self):
        with pytest.raises(InvalidParameterError):
            CacheConfig(size_kib=0.0)

    def test_bad_mshr(self):
        with pytest.raises(InvalidParameterError):
            CacheConfig(mshr_entries=0)
