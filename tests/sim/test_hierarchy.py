"""Direct unit tests for the shared memory hierarchy."""

from __future__ import annotations

import importlib.util
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.cmp import CMPSimulator
from repro.sim.config import SimulatedChip
from repro.sim.core import CoreModel
from repro.sim.hierarchy import MemoryHierarchy
from repro.sim.noc import MeshNoC

# The benchmark's centre chips are defined once, in the memory-profile
# script, so the bounds below and the profile it prints use one geometry.
_SPEC = importlib.util.spec_from_file_location(
    "sim_memory_profile",
    Path(__file__).resolve().parents[2] / "scripts" / "sim_memory_profile.py")
sim_memory_profile = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(sim_memory_profile)


@pytest.fixture
def hierarchy() -> MemoryHierarchy:
    return MemoryHierarchy(SimulatedChip(n_cores=4))


@pytest.fixture
def built(monkeypatch) -> "list[MemoryHierarchy]":
    """Every hierarchy a ``CMPSimulator`` builds during the test."""
    hierarchies = []

    class Recording(MemoryHierarchy):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            hierarchies.append(self)

    monkeypatch.setattr("repro.sim.cmp.MemoryHierarchy", Recording)
    return hierarchies


class TestServiceMiss:
    def test_cold_miss_goes_to_dram(self, hierarchy):
        done = hierarchy.service_miss(0, 0, time=0)
        cfg = hierarchy.chip.l2_slice
        assert done >= cfg.hit_latency + hierarchy.chip.dram.row_miss
        assert hierarchy.l2_accesses == 1
        assert hierarchy.l2_hits == 0
        assert hierarchy.dram.requests == 1

    def test_second_touch_hits_l2(self, hierarchy):
        t1 = hierarchy.service_miss(0, 0, time=0)
        t2 = hierarchy.service_miss(0, 0, time=t1 + 1000)
        assert hierarchy.l2_hits == 1
        # An L2 hit is far cheaper than the DRAM round trip.
        assert (t2 - (t1 + 1000)) < t1

    def test_l2_secondary_merge(self, hierarchy):
        # Two cores miss the same line while the fill is in flight.
        t1 = hierarchy.service_miss(0, 0, time=0)
        hierarchy.service_miss(1, 0, time=5)
        assert hierarchy.dram.requests == 1  # merged, no second DRAM trip

    def test_slice_interleaving(self, hierarchy):
        line_bytes = hierarchy.chip.l2_slice.line_bytes
        homes = {hierarchy.slice_of(line) for line in range(8)}
        assert homes == {0, 1, 2, 3}

    def test_negative_time_rejected(self, hierarchy):
        with pytest.raises(SimulationError):
            hierarchy.service_miss(0, 0, time=-1)

    def test_remote_slice_pays_noc(self, hierarchy):
        # Same line state, different requester distances.
        line_bytes = hierarchy.chip.l2_slice.line_bytes
        # Line homed at slice 3; requester 3 is local, requester 0 remote.
        addr = 3 * line_bytes
        t_local = hierarchy.service_miss(3, addr, time=0)
        t_remote = hierarchy.service_miss(0, addr, time=100000)
        local_latency = t_local - 0
        remote_latency = t_remote - 100000
        assert remote_latency > local_latency - hierarchy.chip.dram.row_miss


class TestWriteback:
    def test_writeback_installs_in_l2(self, hierarchy):
        hierarchy.writeback(0, 0, time=0)
        assert hierarchy.slices[hierarchy.slice_of(0)].probe(0)

    def test_l2_dirty_eviction_writes_dram(self):
        from dataclasses import replace
        chip = SimulatedChip(n_cores=1)
        chip = replace(chip, l2_slice=replace(chip.l2_slice, size_kib=2.0,
                                              assoc=2))
        h = MemoryHierarchy(chip)
        lines = chip.l2_slice.num_lines
        for i in range(3 * lines):
            h.writeback(0, i * 64, time=i * 10)
        assert h.dram_writes > 0


class TestCoherenceDirectory:
    def test_register_l1s_validates_count(self, hierarchy):
        with pytest.raises(SimulationError):
            hierarchy.register_l1s([])

    def test_upgrade_without_registry_is_noop(self, hierarchy):
        assert hierarchy.upgrade(0, 0, time=42) == 42


class TestDeterminism:
    def test_same_seed_same_result(self):
        from repro.sim import CMPSimulator
        from repro.workloads import parsec_like
        wl = parsec_like("ocean", n_ops=3000)
        chip = SimulatedChip(n_cores=2)

        def run():
            rng = np.random.default_rng(77)
            return CMPSimulator(chip).run(wl.streams(2, rng))

        a = run()
        b = run()
        assert a.exec_cycles == b.exec_cycles
        assert a.cores[0].records == b.cores[0].records
        assert a.invalidations == b.invalidations


def test_aps_wide_centre_chip_builds_in_bounded_memory():
    """Set-up is sized to what a run touches, not to the chip.

    The Fig. 12 APS centre: 256 cores with about 15 memory operations
    each, 49-set x 8-way L1s and 22-set x 16-way L2 slices.  Building
    every tag row and every NoC pair eagerly traced about 9.4 MiB;
    rows on first touch and pair latencies on first read trace about
    1.4-1.7 MiB.
    """
    chip, _ = sim_memory_profile.centre_chip("aps-wide")
    assert chip.n_cores == 256
    assert (chip.l1.num_sets, chip.l1.assoc) == (49, 8)
    assert (chip.l2_slice.num_sets, chip.l2_slice.assoc) == (22, 16)
    rng = np.random.default_rng(0)
    streams = [(rng.integers(0, 1 << 20, 15) * 64, np.ones(15, np.int64))
               for _ in range(chip.n_cores)]
    tracemalloc.start()
    try:
        hierarchy = MemoryHierarchy(chip)
        cores = [CoreModel(i, chip.core, chip.l1, addresses, gaps)
                 for i, (addresses, gaps) in enumerate(streams)]
        hierarchy.register_l1s([core.l1 for core in cores])
        traced, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traced < 2.5 * 2**20


def _traced_peak_of_centre_run(name: str):
    """Chip, traced peak (bytes) and memory-op count of one run."""
    chip, workload = sim_memory_profile.centre_chip(name)
    streams = workload.streams(
        chip.n_cores, np.random.default_rng(sim_memory_profile.SEED))
    tracemalloc.start()
    try:
        result = CMPSimulator(chip).run(streams)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return chip, peak, sum(core.mem_ops for core in result.cores)


def test_aps_narrow_centre_run_peaks_in_bounded_memory():
    """Per-access simulator state is unboxed.

    The aps-narrow centre: 10 cores, 128 KiB L1s, 256 KiB L2 slices and
    a canneal-like stream of 19,908 memory operations (stream seed 1).
    With a boxed ``(start, hit, penalty)`` tuple per L1, L2 and DRAM
    access and a boxed 5-int hot row per op, one run traced a 16.6 MiB
    peak; with int64 record columns and flat line/write lists it
    traced 11.2 MiB; with the coherence directory as bitmasks, L1-miss
    fields derived on demand and the instruction-index column unboxed,
    7.2 MiB.  With the per-op line, issue and ROB-boundary columns
    typed, the completion column a ring bounded by the ROB and each
    set's dirty bits one mask, it traces 4.5 MiB (deterministic across
    runs of one interpreter).
    """
    chip, peak, mem_ops = _traced_peak_of_centre_run("aps-narrow")
    assert (chip.n_cores, chip.l1.size_kib, chip.l2_slice.size_kib) == (
        10, 128.0, 256.0)
    assert mem_ops == 19908
    assert peak < 5.0 * 2**20


def test_aps_wide_centre_run_peaks_in_bounded_memory():
    """A whole aps-wide centre run, not only its build, is bounded.

    256 cores, 49-set x 8-way L1s, 22-set x 16-way L2 slices and
    3,790 memory operations between them (stream seed 1): one run
    traced 5.3 MiB with boxed per-op columns and a dirty list per
    touched set, 4.3 MiB with typed columns and dirty masks, and
    traces 3.7 MiB with a slotted ``CoreModel`` that builds no ROB
    deque unless the scalar path runs it.  A finished core's ROB deque
    is not rebuilt at the kernel's final flush, which would cost a
    tuple per pair on every one of the 256 cores.
    """
    chip, peak, mem_ops = _traced_peak_of_centre_run("aps-wide")
    assert chip.n_cores == 256
    assert (chip.l1.num_sets, chip.l1.assoc) == (49, 8)
    assert (chip.l2_slice.num_sets, chip.l2_slice.assoc) == (22, 16)
    assert mem_ops == 3790
    assert peak < 4.0 * 2**20


@pytest.mark.parametrize("use_kernel", [True, False])
def test_directory_tracks_sharers_past_64_cores(built, use_kernel):
    """The sharer bitmask is unbounded: cores 64 and 70 are bits too.

    Cores 0, 64 and 70 read one line at cycle 0; core 64 writes it
    long after its fill has landed, a write hit on a shared line.  The
    upgrade must invalidate exactly the copies of cores 0 and 70 and
    leave core 64 the sole sharer.
    """
    chip = SimulatedChip(n_cores=72)
    address = 5 * chip.l1.line_bytes
    empty = (np.zeros(0, np.int64), np.zeros(0, np.int64))
    streams = [empty] * chip.n_cores
    streams[0] = streams[70] = (np.array([address]), np.array([0]))
    streams[64] = (np.array([address, address]), np.array([0, 4000]),
                   np.array([False, True]))
    result = CMPSimulator(chip, use_kernel=use_kernel).run(streams)
    (hierarchy,) = built
    assert result.invalidations == hierarchy.invalidations == 2
    assert result.upgrades == 1
    assert [c for c in range(chip.n_cores)
            if hierarchy._l1_caches[c].probe(address)] == [64]
    line = address // chip.l2_slice.line_bytes
    assert hierarchy._sharers[line] == 1 << 64


@pytest.mark.parametrize("use_kernel", [True, False])
def test_dirty_mask_tracks_the_highest_way(built, use_kernel):
    """A set's dirty bits are one mask; bit 15 of a 16-way set counts.

    One core with a one-line L1 and a 2-set x 16-way L2 slice walks the
    even lines of L2 set 0.  Lines 2..30 fill ways 0-14; the write to
    line 32 fills way 15 clean and dirties the L1 copy, which the read
    of line 34 evicts: the writeback hits way 15 and sets bit 15.
    Lines 36..62 then take ways 1-14 and line 64 evicts way 15, its one
    writeback draining to DRAM.
    """
    base = SimulatedChip()
    chip = replace(base, n_cores=1,
                   l1=replace(base.l1, size_kib=0.0625, assoc=1),
                   l2_slice=replace(base.l2_slice, size_kib=2.0))
    assert (chip.l1.num_sets, chip.l1.assoc) == (1, 1)
    assert (chip.l2_slice.num_sets, chip.l2_slice.assoc) == (2, 16)
    lb = chip.l2_slice.line_bytes

    def run(lines: "list[int]"):
        addresses = np.array(lines, np.int64) * lb
        writes = addresses == 32 * lb
        streams = [(addresses, np.zeros(len(lines), np.int64), writes)]
        result = CMPSimulator(chip, use_kernel=use_kernel).run(streams)
        return result, built[-1]

    prefix = list(range(2, 36, 2))  # up to line 34
    result, hierarchy = run(prefix)
    (l2,) = hierarchy.slices
    assert l2._dirty == {0: 1 << 15}
    assert result.l1_writebacks == 1
    assert l2.writebacks == hierarchy.dram_writes == 0
    # set_dirty on an evicted line (2 went for 34) and invalidate of a
    # clean present line (4) leave the mask as it is.
    assert not l2.set_dirty(2 * lb)
    assert l2._dirty == {0: 1 << 15}
    assert l2.invalidate(4 * lb)
    assert l2._dirty == {0: 1 << 15}
    assert l2.writebacks == 0
    assert l2.is_dirty(32 * lb) and not l2.is_dirty(6 * lb)

    result, hierarchy = run(prefix + list(range(36, 66, 2)))
    (l2,) = hierarchy.slices
    assert l2.writebacks == hierarchy.dram_writes == result.dram_writes == 1
    assert not l2._dirty.get(0, 0)
    assert not l2.probe(32 * lb)


@pytest.mark.xfail(strict=True, reason=(
    "a clean L1 eviction leaves its sharer bit set, so a later writer "
    "pays a round trip to a core that no longer holds the line; fixing "
    "it changes simulated costs"))
@pytest.mark.parametrize("use_kernel", [True, False])
def test_clean_eviction_drops_the_sharer(built, use_kernel):
    """A core that evicted a line clean is not a sharer any more.

    Core 0 reads line 5 and evicts it from its one-line L1 by reading
    line 7.  Core 1 writes line 5 long after: a write miss that hits
    in the L2 at the home slice, with no other L1 holding the line.
    Its penalty must be the NoC round trip to the home slice plus the
    L2 hit latency, with no invalidation round trip to core 0.
    """
    base = SimulatedChip()
    chip = replace(base, n_cores=2,
                   l1=replace(base.l1, size_kib=0.0625, assoc=1))
    lb = chip.l1.line_bytes
    streams = [
        (np.array([5 * lb, 7 * lb]), np.zeros(2, np.int64)),
        (np.array([5 * lb]), np.array([40_000]), np.array([True])),
    ]
    result = CMPSimulator(chip, use_kernel=use_kernel).run(streams)
    (hierarchy,) = built
    assert hierarchy.invalidations == 0
    assert not hierarchy._l1_caches[0].probe(5 * lb)
    home = 5 % chip.n_cores
    one_way = MeshNoC(chip.n_cores, chip.noc).latency(1, home)
    assert hierarchy.l2_hits == 1
    assert result.cores[1].penalties[0] == (
        2 * one_way + chip.l2_slice.hit_latency)
