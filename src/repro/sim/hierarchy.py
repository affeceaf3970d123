"""Shared memory hierarchy: address-interleaved L2 slices + DRAM + NoC.

The L2 is physically distributed (one slice per core, line-interleaved,
as in the paper's Fig. 3 schematic) but logically shared: any core may
hit in any slice, paying the NoC round trip.  Each slice has its own tag
store, banks and MSHRs; misses go to the shared banked DRAM.

The hierarchy also records per-layer access intervals so that APC
(Fig. 13) and per-layer C-AMAT can be measured after the run via the
standard :class:`repro.camat.TraceAnalyzer`.  The records are flat
``array('q')`` buffers of int pairs, not per-access objects; the
finished buffers go to :class:`repro.sim.cmp.SimulationResult`, which
builds the layer traces from them when they are read.
"""

from __future__ import annotations

from array import array

from repro.errors import SimulationError
from repro.sim.cache import SetAssociativeCache
from repro.sim.config import SimulatedChip
from repro.sim.dram import DRAMModel
from repro.sim.mshr import MSHRFile
from repro.sim.noc import MeshNoC

__all__ = ["MemoryHierarchy"]


class MemoryHierarchy:
    """Shared L2 + DRAM servicing L1 misses from all cores."""

    def __init__(self, chip: SimulatedChip,
                 l1_caches: "list[SetAssociativeCache] | None" = None) -> None:
        self.chip = chip
        n = chip.n_cores
        self.slices = [SetAssociativeCache(chip.l2_slice) for _ in range(n)]
        self.slice_mshrs = [MSHRFile(chip.l2_slice.mshr_entries)
                            for _ in range(n)]
        # Per-slice, per-bank next-free times (pipelined lookups).
        self._bank_free = [[0] * chip.l2_slice.banks for _ in range(n)]
        # Hot-path scalars (chip config is frozen, so these cannot drift).
        self._n_cores = n
        self._line_bytes = chip.l2_slice.line_bytes
        self._l2_banks = chip.l2_slice.banks
        self._l2_hit_latency = chip.l2_slice.hit_latency
        self.dram = DRAMModel(chip.dram)
        self.noc = MeshNoC(n, chip.noc)
        # The NoC's flat ``src * n + dst`` latency table, indexed
        # directly on the miss path: each pair is computed on its first
        # read and never changes after (only `traversals` advances).
        self._noc_lat = self.noc._lat
        self.l2_accesses = 0
        self.l2_hits = 0
        # Flat record buffers: ``(start, miss_penalty)`` per L2 access
        # (its hit cycles are the slice hit latency) and ``(start,
        # latency)`` per DRAM demand access.
        self._l2_records = array("q")
        self._dram_records = array("q")
        # MSI-lite directory: line number -> sharer bitmask, with bit
        # ``1 << core_id`` set per sharer (Python ints are unbounded, so
        # any core count fits).  Active only when the per-core L1s
        # register themselves (the CMP simulator wires this up); a None
        # registry means non-coherent private L1s, the paper's other
        # Fig. 3 variant.
        self._l1_caches = l1_caches
        self._sharers: dict[int, int] = {}
        self.invalidations = 0
        self.upgrades = 0
        self.dram_writes = 0

    def slice_of(self, line: int) -> int:
        """Home slice of a cache line (line-interleaved)."""
        return line % self.chip.n_cores

    def register_l1s(self, caches: "list[SetAssociativeCache]") -> None:
        """Attach the per-core L1s (enables the coherence directory)."""
        if len(caches) != self.chip.n_cores:
            raise SimulationError(
                f"need {self.chip.n_cores} L1s, got {len(caches)}")
        self._l1_caches = caches

    # ----- MSI-lite coherence -------------------------------------------
    def _invalidate_sharers(self, core_id: int, address: int,
                            l1_line: int) -> int:
        """Invalidate every other sharer's L1 copy; returns extra cycles.

        The writer pays one NoC round trip to the furthest sharer
        (invalidations travel in parallel); a dirty remote copy's
        writeback is accounted by the victim cache itself.
        """
        if self._l1_caches is None:
            return 0
        own = 1 << core_id
        # Walk the other sharers' set bits, lowest first.  Order cannot
        # change the result: only the max and the counters depend on it.
        others = self._sharers.get(l1_line, 0) & ~own
        self._sharers[l1_line] = own
        extra = 0
        while others:
            low = others & -others
            others ^= low
            other = low.bit_length() - 1
            if self._l1_caches[other].invalidate(address):
                self.invalidations += 1
            extra = max(extra, self.noc.round_trip(core_id, other))
        return extra

    def upgrade(self, core_id: int, address: int, time: int) -> int:
        """Write hit on a (possibly shared) line: gain ownership.

        Returns the cycle at which the write may retire — ``time`` when
        the line is already exclusive, later when other sharers must be
        invalidated first.
        """
        if self._l1_caches is None:
            return time
        l1_line = address // self.chip.l2_slice.line_bytes
        sharers = self._sharers.get(l1_line)
        if sharers is None or sharers == 1 << core_id:
            self._sharers[l1_line] = 1 << core_id
            return time
        self.upgrades += 1
        return time + self._invalidate_sharers(core_id, address, l1_line)

    def writeback(self, core_id: int, address: int, time: int) -> None:
        """Accept a dirty L1 victim into its home L2 slice."""
        line = address // self._line_bytes
        home = line % self._n_cores
        self.noc.traversals += 1
        arrive = time + self._noc_lat[core_id * self._n_cores + home]
        bank = line % self._l2_banks
        bank_free = self._bank_free[home]
        start = arrive if arrive >= bank_free[bank] else bank_free[bank]
        bank_free[bank] = start + 1
        _, l2_victim = self.slices[home].access_rw(address, write=True)
        if l2_victim is not None:
            # Dirty L2 victim drains to DRAM (fire-and-forget write).
            self.dram.access(l2_victim * self._line_bytes, start)
            self.dram_writes += 1
        self._sharers.pop(line, None)

    def service_miss(self, core_id: int, address: int, time: int,
                     write: bool = False) -> int:
        """Service an L1 miss issued by ``core_id`` at ``time``.

        Returns the cycle at which the fill reaches the requesting L1.
        Write misses additionally gain ownership (invalidating other
        sharers) when coherence is enabled.
        """
        if time < 0:
            raise SimulationError(f"negative request time {time}")
        line = address // self._line_bytes
        home = line % self._n_cores
        noc = self.noc
        noc.traversals += 1
        arrive = time + self._noc_lat[core_id * self._n_cores + home]
        if self._l1_caches is not None:
            if write:
                arrive += self._invalidate_sharers(core_id, address, line)
            else:
                self._sharers[line] = self._sharers.get(line, 0) | 1 << core_id
        bank = line % self._l2_banks
        bank_free = self._bank_free[home]
        start = arrive if arrive >= bank_free[bank] else bank_free[bank]
        bank_free[bank] = start + 1
        self.l2_accesses += 1
        hit_lat = self._l2_hit_latency
        mshr = self.slice_mshrs[home]
        # Inlined mshr.lookup (guarded retire + map probe).
        mheap = mshr._heap
        if mheap and mheap[0][0] <= start:
            mshr._retire(start)
        outstanding = mshr._pending.get(line)
        if outstanding is not None:
            # Secondary miss at L2: ride the in-flight fill.
            done = int(outstanding)
            penalty = max(done - start - hit_lat, 0)
            self._l2_records.extend((start, penalty))
        else:
            l2_hit, l2_victim = self.slices[home].access_rw(
                address, write=False)
            if l2_victim is not None:
                self.dram.access(l2_victim * self._line_bytes, start)
                self.dram_writes += 1
            if l2_hit:
                self.l2_hits += 1
                done = start + hit_lat
                self._l2_records.extend((start, 0))
            else:
                alloc = max(start + hit_lat,
                            int(mshr.earliest_free_time(start)))
                dram_done = int(self.dram.access(address, alloc))
                self._dram_records.extend((alloc, dram_done - alloc))
                mshr.allocate(line, dram_done, alloc)
                done = dram_done
                self._l2_records.extend((start, done - start - hit_lat))
        noc.traversals += 1
        return done + self._noc_lat[home * self._n_cores + core_id]

    @property
    def l2_miss_rate(self) -> float:
        """Observed shared-L2 miss rate."""
        if self.l2_accesses == 0:
            return 0.0
        return 1.0 - self.l2_hits / self.l2_accesses

    def stats(self) -> dict:
        """Flat per-layer counter values for metrics publication.

        Keys are dotted metric suffixes (``l2.hits``,
        ``dram.queue_wait_cycles``, ...) so the CMP simulator can
        publish them under the ``sim.`` namespace verbatim.
        """
        out = {
            "l2.accesses": self.l2_accesses,
            "l2.hits": self.l2_hits,
            "l2.misses": self.l2_accesses - self.l2_hits,
            "l2.writebacks": sum(s.writebacks for s in self.slices),
            "coherence.invalidations": self.invalidations,
            "coherence.upgrades": self.upgrades,
            "dram.writes": self.dram_writes,
        }
        for name, value in _sum_stats(m.stats() for m in self.slice_mshrs):
            out[f"l2.mshr_{name}"] = value
        for name, value in self.dram.stats().items():
            out[f"dram.{name}"] = value
        return out


def _sum_stats(dicts) -> "list[tuple[str, float]]":
    """Element-wise sum of homogeneous stat dicts (as sorted items)."""
    totals: dict[str, float] = {}
    for d in dicts:
        for key, value in d.items():
            totals[key] = totals.get(key, 0) + value
    return sorted(totals.items())
