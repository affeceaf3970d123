"""Tests for the core model and the CMP simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.camat import TraceAnalyzer
from repro.errors import SimulationError
from repro.sim import (
    CMPSimulator,
    CacheConfig,
    CoreMicroConfig,
    SimulatedChip,
)
from repro.sim.config import DRAMConfig, NoCConfig


def run_single_core(addresses, gaps=None, **chip_kw):
    addresses = np.asarray(addresses, dtype=np.int64)
    if gaps is None:
        gaps = np.zeros_like(addresses)
    chip = SimulatedChip(n_cores=1, **chip_kw)
    return CMPSimulator(chip).run([(addresses, np.asarray(gaps))])


class TestSingleCore:
    def test_pure_hits_after_warmup(self):
        # Gaps let the cold-miss fill complete before the re-touches.
        res = run_single_core([0, 0, 0, 0], gaps=[0, 4000, 4000, 4000])
        core = res.cores[0]
        assert core.l1_misses == 1
        assert core.l1_hits == 3

    def test_back_to_back_same_line_merges(self):
        # With no gaps all re-touches land inside the fill window and
        # ride the MSHR entry as secondary misses.
        res = run_single_core([0, 0, 0, 0])
        core = res.cores[0]
        assert core.l1_misses == 4
        assert core.mshr.secondary_merges if hasattr(core, "mshr") else True

    def test_finish_cycle_positive_and_ipc(self):
        res = run_single_core(np.arange(64) * 64)
        assert res.exec_cycles > 0
        assert 0 < res.ipc

    def test_compute_only_gaps_lengthen_run(self):
        addrs = np.zeros(16, dtype=np.int64)
        short = run_single_core(addrs)
        long = run_single_core(addrs, gaps=np.full(16, 1000))
        assert long.exec_cycles > short.exec_cycles

    def test_trace_roundtrip_through_analyzer(self):
        res = run_single_core(np.arange(128) * 8)
        stats = res.core_stats(0)
        assert stats.accesses == 128
        assert stats.camat <= stats.amat + 1e-9

    def test_mshr_limits_miss_concurrency(self):
        # Random far-apart lines with no compute gaps: misses pile up
        # to the MSHR limit but not beyond (merges aside).
        rng = np.random.default_rng(3)
        addrs = rng.integers(0, 1 << 28, 600) * 64
        chip_kw = dict(l1=CacheConfig(mshr_entries=4),
                       core=CoreMicroConfig(issue_width=8, rob_size=512))
        res = run_single_core(addrs, **chip_kw)
        stats = res.core_stats(0)
        # Distinct-line misses overlap at most mshr_entries deep, plus
        # the lookup-stage access that joins the moment an entry
        # retires (the +1) — but far below the 40+ of an unlimited file.
        assert stats.miss_concurrency <= 4 + 1.5

    def test_blocking_cache_serializes_misses(self):
        rng = np.random.default_rng(4)
        addrs = rng.integers(0, 1 << 28, 200) * 64
        res_blocking = run_single_core(
            addrs, l1=CacheConfig(mshr_entries=1))
        res_nonblocking = run_single_core(
            addrs, l1=CacheConfig(mshr_entries=16))
        assert res_blocking.exec_cycles > res_nonblocking.exec_cycles

    def test_wider_issue_not_slower(self):
        addrs = (np.arange(512) % 64) * 8
        slow = run_single_core(addrs, core=CoreMicroConfig(issue_width=1))
        fast = run_single_core(addrs, core=CoreMicroConfig(issue_width=8))
        assert fast.exec_cycles <= slow.exec_cycles

    def test_bigger_rob_not_slower(self):
        rng = np.random.default_rng(5)
        addrs = rng.integers(0, 1 << 26, 400) * 64
        small = run_single_core(addrs, core=CoreMicroConfig(rob_size=8))
        big = run_single_core(addrs, core=CoreMicroConfig(rob_size=256))
        assert big.exec_cycles <= small.exec_cycles

    def test_stream_count_mismatch_rejected(self):
        chip = SimulatedChip(n_cores=2)
        with pytest.raises(SimulationError):
            CMPSimulator(chip).run([(np.array([0]), np.array([0]))])

    def test_negative_gap_rejected(self):
        with pytest.raises(SimulationError):
            run_single_core([0, 64], gaps=[0, -1])


class TestHierarchy:
    def test_l2_hit_cheaper_than_dram(self):
        # Two misses to the same line from L1 after eviction hit in L2.
        line = 1 << 20
        # Thrash L1 between the two touches of `line`.
        thrash = [(i + 2) * (1 << 12) for i in range(4096)]
        addrs = [line] + [t * 64 for t in range(4096)] + [line]
        res = run_single_core(np.asarray(addrs, dtype=np.int64))
        assert res.l2_trace is not None

    def test_dram_trace_only_on_l2_miss(self):
        res = run_single_core([0, 0, 0])
        # Single line: one L2 access (the cold miss), one DRAM access.
        assert len(res.l2_trace) == 1
        assert len(res.dram_trace) == 1

    def test_l2_capacity_effect(self):
        rng = np.random.default_rng(6)
        # Working set ~1MB: fits a 2MB L2 slice, thrashes a 64KB one.
        addrs = rng.integers(0, 1 << 20, 3000)
        addrs = (addrs // 64) * 64
        small = run_single_core(addrs, l2_slice=CacheConfig(
            size_kib=64.0, assoc=16, hit_latency=15, mshr_entries=16))
        big = run_single_core(addrs, l2_slice=CacheConfig(
            size_kib=2048.0, assoc=16, hit_latency=15, mshr_entries=16))
        assert big.exec_cycles < small.exec_cycles

    def test_apc_layer_ordering(self):
        # Three-tier locality (L1-resident hot set, L2-resident warm
        # set, cold DRAM tail): APC must decrease down the hierarchy.
        rng = np.random.default_rng(7)
        hot = rng.integers(0, 256, 4000) * 8           # 2KB: fits L1
        warm = (1 << 30) + rng.integers(0, 4096, 1500) * 64  # 256KB: fits L2
        cold = rng.integers(0, 1 << 24, 500) * 64
        addrs = np.concatenate([hot, warm, cold]).astype(np.int64)
        rng.shuffle(addrs)
        res = run_single_core(addrs, gaps=np.full(addrs.size, 3))
        apc = res.layer_apc().as_dict()
        assert apc["L1"] > apc["LLC"] > apc["DRAM"]


class TestMultiCore:
    def test_contention_slows_shared_dram(self):
        rng = np.random.default_rng(8)
        def streams(n):
            return [((rng.integers(0, 1 << 26, 300) * 64).astype(np.int64),
                     np.zeros(300, dtype=np.int64)) for _ in range(n)]
        solo = CMPSimulator(SimulatedChip(
            n_cores=1, dram=DRAMConfig(banks=1))).run(streams(1))
        quad = CMPSimulator(SimulatedChip(
            n_cores=4, dram=DRAMConfig(banks=1))).run(streams(4))
        # Four cores hammering one DRAM bank: per-core time worsens.
        assert quad.exec_cycles > solo.exec_cycles

    def test_per_core_results(self):
        rng = np.random.default_rng(9)
        chip = SimulatedChip(n_cores=4)
        streams = [
            ((rng.integers(0, 1 << 20, 200) * 64).astype(np.int64),
             np.zeros(200, dtype=np.int64))
            for _ in range(4)]
        res = CMPSimulator(chip).run(streams)
        assert len(res.cores) == 4
        assert all(c.mem_ops == 200 for c in res.cores)
        assert res.total_instructions == sum(
            c.instructions for c in res.cores)

    @pytest.mark.parametrize("use_kernel", [True, False])
    def test_idle_cores_add_nothing_to_layer_apc(self, use_kernel):
        # Six updates over eight cores leave the last two streams empty.
        from dataclasses import replace

        from repro.workloads.gups import GUPS

        chip = replace(SimulatedChip(), n_cores=8)
        streams = GUPS(updates=6).streams(8, np.random.default_rng(0))
        assert [len(s[0]) for s in streams] == [1, 1, 1, 1, 1, 1, 0, 0]
        res = CMPSimulator(chip, use_kernel=use_kernel).run(streams)
        apc = res.layer_apc()
        busy = [res.core_stats(i) for i in range(6)]
        assert apc.l1.accesses == 6
        assert apc.l1.active_cycles == sum(
            s.memory_active_wall_cycles for s in busy)
        with pytest.raises(SimulationError):
            res.core_stats(7)

    def test_noc_distance_affects_remote_l2(self):
        # Larger mesh hop latency slows L2-bound runs.
        rng = np.random.default_rng(10)
        addrs = (rng.integers(0, 1 << 14, 2000) * 64).astype(np.int64)
        streams = [(addrs.copy(), np.zeros(2000, dtype=np.int64))
                   for _ in range(4)]
        near = CMPSimulator(SimulatedChip(
            n_cores=4, noc=NoCConfig(hop_latency=1))).run(streams)
        far = CMPSimulator(SimulatedChip(
            n_cores=4, noc=NoCConfig(hop_latency=40))).run(streams)
        assert far.exec_cycles > near.exec_cycles
