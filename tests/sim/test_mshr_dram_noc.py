"""Tests for MSHRs, the DRAM model and the mesh NoC."""

from __future__ import annotations

import pytest

from repro.errors import InvalidParameterError
from repro.sim.config import DRAMConfig, NoCConfig
from repro.sim.dram import DRAMModel
from repro.sim.mshr import MSHRFile
from repro.sim.noc import MeshNoC


class TestMSHR:
    def test_allocate_and_retire(self):
        m = MSHRFile(2)
        m.allocate(1, fill_time=100, now=0)
        assert m.outstanding(0) == 1
        assert m.outstanding(100) == 0

    def test_merge(self):
        m = MSHRFile(2)
        m.allocate(1, fill_time=100, now=0)
        assert m.merge(1, now=10) == 100
        assert m.secondary_merges == 1

    def test_merge_missing_line_rejected(self):
        m = MSHRFile(2)
        with pytest.raises(InvalidParameterError):
            m.merge(7, now=0)

    def test_full_file_stalls(self):
        m = MSHRFile(2)
        m.allocate(1, fill_time=50, now=0)
        m.allocate(2, fill_time=80, now=0)
        assert m.earliest_free_time(10) == 50
        assert m.stall_events == 1

    def test_allocate_full_raises(self):
        m = MSHRFile(1)
        m.allocate(1, fill_time=50, now=0)
        with pytest.raises(InvalidParameterError):
            m.allocate(2, fill_time=60, now=0)

    def test_duplicate_line_rejected(self):
        m = MSHRFile(4)
        m.allocate(1, fill_time=50, now=0)
        with pytest.raises(InvalidParameterError):
            m.allocate(1, fill_time=70, now=0)

    def test_lookup(self):
        m = MSHRFile(2)
        m.allocate(3, fill_time=42, now=0)
        assert m.lookup(3, now=0) == 42
        assert m.lookup(3, now=42) is None


class TestDRAM:
    def test_row_hit_faster_than_conflict(self):
        cfg = DRAMConfig()
        d = DRAMModel(cfg)
        t1 = d.access(0, 0)
        assert t1 == cfg.row_miss + cfg.bus_cycles  # first touch
        t2 = d.access(8, t1)  # same row
        assert t2 - t1 == cfg.row_hit + cfg.bus_cycles
        far = cfg.row_bytes * cfg.banks * 10  # same bank, other row
        t3 = d.access(far, t2)
        assert t3 - t2 == cfg.row_conflict + cfg.bus_cycles

    def test_bank_queueing_serializes(self):
        d = DRAMModel(DRAMConfig())
        t1 = d.access(0, 0)
        t2 = d.access(16, 0)  # same bank, same row, same arrival
        assert t2 > t1

    def test_different_banks_parallel(self):
        cfg = DRAMConfig()
        d = DRAMModel(cfg)
        t1 = d.access(0, 0)
        t2 = d.access(cfg.row_bytes, 0)  # next bank
        assert t2 == pytest.approx(t1, abs=cfg.row_hit + cfg.bus_cycles)
        assert d.bank_of(0) != d.bank_of(cfg.row_bytes)

    def test_row_hit_rate(self):
        d = DRAMModel(DRAMConfig())
        t = 0
        for i in range(10):
            t = d.access(i * 8, t)
        assert d.row_hit_rate == pytest.approx(0.9)

    def test_stats_reset(self):
        d = DRAMModel(DRAMConfig())
        d.access(0, 0)
        d.reset_stats()
        assert d.requests == 0

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            DRAMConfig(row_hit=0)
        with pytest.raises(InvalidParameterError):
            DRAMConfig(row_hit=300, row_miss=200)
        with pytest.raises(InvalidParameterError):
            DRAMModel(DRAMConfig()).bank_of(-5)


class TestNoC:
    def test_hop_count(self):
        noc = MeshNoC(16, NoCConfig())
        assert noc.side == 4
        assert noc.hops(0, 0) == 0
        assert noc.hops(0, 3) == 3
        assert noc.hops(0, 15) == 6  # corner to corner

    def test_latency(self):
        noc = MeshNoC(16, NoCConfig(hop_latency=2, router_latency=1))
        assert noc.latency(0, 5) == 1 + 2 * noc.hops(0, 5)
        assert noc.round_trip(0, 5) == 2 * noc.latency(0, 5)

    def test_single_node(self):
        noc = MeshNoC(1, NoCConfig())
        assert noc.latency(0, 0) == noc.config.router_latency

    def test_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            MeshNoC(4, NoCConfig()).hops(0, 4)

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 17, 256])
    def test_latency_is_mesh_arithmetic_for_every_pair(self, n):
        cfg = NoCConfig(hop_latency=3, router_latency=2)
        noc = MeshNoC(n, cfg)
        want = [[cfg.router_latency + cfg.hop_latency * noc.hops(s, d)
                 for d in range(n)] for s in range(n)]
        assert [[noc.latency(s, d) for d in range(n)]
                for s in range(n)] == want
        assert noc.traversals == n * n

    def test_latency_table_fills_on_first_read(self):
        noc = MeshNoC(256, NoCConfig())
        assert len(noc._lat) == 0
        noc.latency(255, 0)
        noc.latency(255, 0)
        assert len(noc._lat) == 1

    def test_latency_range_check(self):
        noc = MeshNoC(10, NoCConfig())
        for src, dst in [(0, 10), (10, 0), (-1, 0), (0, -1)]:
            with pytest.raises(InvalidParameterError):
                noc.latency(src, dst)
