"""The CMP simulator: globally time-ordered multi-core execution.

Cores are advanced one memory operation at a time through a min-heap
keyed on each core's next issue time, so requests reach the shared L2
slices and DRAM banks in (approximately) chronological order and
contention is modeled faithfully.  The result bundles per-core traces,
per-layer traces and the aggregate statistics consumed by the C2-Bound
validation experiments (Figs. 12-13).
"""

from __future__ import annotations

import gc
import heapq
import threading
from array import array
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import SimulationError
from repro.obs import get_registry, get_tracer
from repro.sim.config import SimulatedChip
from repro.sim.core import CoreModel, CoreResult
from repro.sim.hierarchy import MemoryHierarchy
from repro.sim.kernel import KernelStats, kernel_eligible, run_epoch_kernel

# Trace analysis and APC load on first use: a cost-only run, every
# point of a search, never builds a trace (tests/test_imports.py).
if TYPE_CHECKING:
    from repro.camat.analyzer import TraceStatistics
    from repro.camat.trace import AccessTrace
    from repro.metrics.apc import APCMeasurement, LayerAPC

__all__ = ["CMPSimulator", "SimulationResult", "StreamMemo",
           "simulate_chip_cost"]


class StreamMemo:
    """The last few ``workload.streams(n_cores, default_rng(seed))`` draws.

    Streams depend only on the workload, the core count and the seed,
    and every point of an APS search shares all three, so one draw
    serves the whole search.  Entries are keyed on the workload's
    fingerprint JSON (the workload part of a result-cache key), the
    core count and the seed; the ``entries`` most recently used are
    kept.  Their arrays are read-only, so no caller can change what the
    next one reads.  Safe to share between threads: a miss draws
    outside the lock, and of two threads that miss on one key, the
    second to finish returns the first one's (equal) draw.
    """

    def __init__(self, entries: int) -> None:
        self.entries = entries
        self._streams: "OrderedDict[tuple, tuple]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._streams)

    def streams(self, workload, n_cores: int, seed: int) -> tuple:
        """Per-core streams, drawn on a miss and shared on a hit."""
        from repro.sim.cache_store import workload_json

        key = (workload_json(workload), n_cores, int(seed))
        with self._lock:
            streams = self._streams.get(key)
            if streams is not None:
                self._streams.move_to_end(key)
                return streams
        streams = tuple(
            tuple(_read_only(column) for column in stream)
            for stream in workload.streams(n_cores,
                                           np.random.default_rng(seed)))
        with self._lock:
            stored = self._streams.get(key)
            if stored is not None:  # another thread drew it meanwhile
                self._streams.move_to_end(key)
                return stored
            while len(self._streams) >= self.entries:
                self._streams.popitem(last=False)
            self._streams[key] = streams
        return streams


def _read_only(column) -> np.ndarray:
    column = np.asarray(column)
    column.flags.writeable = False
    return column


#: The process's stream memo: a handful of entries covers a search (one
#: core count) or a pool worker's share of a sweep (a few core counts).
_STREAMS = StreamMemo(entries=4)


def simulate_chip_cost(chip: SimulatedChip, workload, seed: int) -> float:
    """Cycles per instruction of ``workload`` on ``chip`` — one design point.

    A module-level entry (not a method or closure) so a process pool can
    pickle the ``(chip, workload, seed)`` triple and fan design points
    across workers: this is the unit of work
    :class:`repro.dse.fabric.FabricEvaluator` dispatches.  Streams are
    drawn from a generator seeded per draw, so the cost of a
    configuration is a pure function of its arguments — identical in
    every process.  Draws are shared through the process's
    :class:`StreamMemo`, so points with the same core count, workload
    and seed draw their streams once.
    """
    result = CMPSimulator(chip).run(
        _STREAMS.streams(workload, chip.n_cores, seed))
    instructions = result.total_instructions
    if instructions == 0:
        return float("inf")
    return result.exec_cycles / instructions


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one CMP simulation.

    Attributes
    ----------
    chip:
        The simulated configuration.
    cores:
        Per-core results (length ``n_cores``).
    exec_cycles:
        Chip-level execution time: the slowest core's finish cycle.
    l2_records, dram_records:
        The shared layers' access records as flat int64 pairs:
        ``(start, miss_penalty)`` per L2 access, ``(start, latency)``
        per DRAM demand access.  :attr:`l2_trace` and
        :attr:`dram_trace` are built from them on first read.
    """

    chip: SimulatedChip
    cores: tuple[CoreResult, ...]
    exec_cycles: int
    l2_records: "array[int]"
    dram_records: "array[int]"
    l1_writebacks: int = 0
    invalidations: int = 0
    upgrades: int = 0
    dram_writes: int = 0

    @property
    def total_instructions(self) -> int:
        """Instructions summed over cores."""
        return sum(c.instructions for c in self.cores)

    @property
    def ipc(self) -> float:
        """Chip-level instructions per cycle."""
        if self.exec_cycles == 0:
            return 0.0
        return self.total_instructions / self.exec_cycles

    @cached_property
    def l2_trace(self) -> "AccessTrace | None":
        """Cycle-level trace of all L2 accesses (None if there were none).

        Built on first read, like :meth:`CoreResult.trace`, so a
        cost-only run never builds it.  Every access's hit cycles are
        the slice hit latency.
        """
        from repro.camat.trace import AccessTrace

        if not self.l2_records:
            return None
        starts, penalties = _pair_columns(self.l2_records)
        return AccessTrace.from_arrays(
            starts, np.full(starts.size, self.chip.l2_slice.hit_latency,
                            dtype=np.int64),
            penalties)

    @cached_property
    def dram_trace(self) -> "AccessTrace | None":
        """Cycle-level trace of all DRAM accesses (None if there were none).

        Built on first read like :attr:`l2_trace`; each access is one
        hit window of its latency (at least one cycle).
        """
        from repro.camat.trace import AccessTrace

        if not self.dram_records:
            return None
        starts, latencies = _pair_columns(self.dram_records)
        return AccessTrace.from_arrays(starts, np.maximum(latencies, 1),
                                       np.zeros(starts.size, dtype=np.int64))

    def core_trace(self, core_id: int) -> AccessTrace:
        """L1-level access trace of one core."""
        return self.cores[core_id].trace()

    def summary(self):
        """One-glance result table (chip stats + per-core highlights)."""
        from repro.io.results import ResultTable
        table = ResultTable(["metric", "value"],
                            title="Simulation summary")
        table.add_row("cores", self.chip.n_cores)
        table.add_row("instructions", self.total_instructions)
        table.add_row("cycles", self.exec_cycles)
        table.add_row("IPC", self.ipc)
        mem_ops = sum(c.mem_ops for c in self.cores)
        table.add_row("memory ops", mem_ops)
        if mem_ops:
            misses = sum(c.l1_misses for c in self.cores)
            table.add_row("L1 miss rate", misses / mem_ops)
        table.add_row("L1 writebacks", self.l1_writebacks)
        table.add_row("coherence invalidations", self.invalidations)
        table.add_row("coherence upgrades", self.upgrades)
        table.add_row("DRAM writes", self.dram_writes)
        return table

    def core_stats(self, core_id: int) -> TraceStatistics:
        """Full C-AMAT statistics of one core's trace (memoized)."""
        from repro.camat.analyzer import TraceAnalyzer

        cache = self.__dict__.get("_stats_cache")
        if cache is None:
            cache = {}
            # Frozen dataclass: stash the memo dict past __setattr__.
            object.__setattr__(self, "_stats_cache", cache)
        stats = cache.get(core_id)
        if stats is None:
            stats = TraceAnalyzer().analyze(self.core_trace(core_id))
            cache[core_id] = stats
        return stats

    def layer_apc(self) -> LayerAPC:
        """APC for L1 / LLC / DRAM (the paper's Fig. 13 measurement).

        L1 counts all processor accesses across cores; active cycles are
        measured per core and summed (each core's L1 is a separate
        device, matching the per-layer APC definition).  A core whose
        stream was empty adds no accesses and no active cycles.  The
        per-core analyzer pass is shared with :meth:`core_stats` — each
        trace is analyzed at most once per result, and the final
        measurement is memoized.
        """
        cached = self.__dict__.get("_layer_apc_cache")
        if cached is not None:
            return cached
        from repro.camat.analyzer import TraceAnalyzer
        from repro.metrics.apc import APCMeasurement, LayerAPC

        analyzer = TraceAnalyzer()
        # Same collector pause as CMPSimulator.run: the analyzer sweep
        # allocates only arrays that stay live until the measurement is
        # assembled, so mid-analysis passes free nothing.
        enabled = gc.isenabled()
        if enabled:
            gc.disable()
        try:
            l1_acc = 0
            l1_active = 0
            for core_id, core in enumerate(self.cores):
                if not core.mem_ops:
                    continue
                stats = self.core_stats(core_id)
                l1_acc += stats.accesses
                l1_active += stats.memory_active_wall_cycles
            def layer(trace: "AccessTrace | None") -> APCMeasurement:
                if trace is None:
                    return APCMeasurement(accesses=0, active_cycles=0)
                stats = analyzer.analyze(trace)
                return APCMeasurement(
                    accesses=stats.accesses,
                    active_cycles=stats.memory_active_wall_cycles)
            result = LayerAPC(
                l1=APCMeasurement(accesses=l1_acc, active_cycles=l1_active),
                llc=layer(self.l2_trace),
                dram=layer(self.dram_trace),
            )
        finally:
            if enabled:
                gc.enable()
        object.__setattr__(self, "_layer_apc_cache", result)
        return result


def _pair_columns(pairs: "array[int]") -> "tuple[np.ndarray, np.ndarray]":
    """The two columns of a finished flat pair buffer, as int64 views."""
    columns = np.frombuffer(pairs, dtype=np.int64).reshape(-1, 2)
    return columns[:, 0], columns[:, 1]


class CMPSimulator:
    """Run per-core instruction streams through a shared hierarchy.

    Parameters
    ----------
    chip:
        The configuration to simulate.
    coherent:
        Whether the per-core L1s join the MSI-lite directory.
    use_kernel:
        ``False`` runs the scalar reference loop instead of the epoch kernel.
    """

    def __init__(self, chip: SimulatedChip, *, coherent: bool = True,
                 use_kernel: bool = True) -> None:
        self.chip = chip
        self.coherent = coherent
        self.use_kernel = use_kernel
        # Flat per-layer counters of the most recent run() — the same
        # dict the metrics publication uses, minus the kernel.* keys
        # (so it digests identically with the kernel on or off).
        self.last_layer_stats: dict = {}

    def run(self, streams: "list[tuple]") -> SimulationResult:
        """Simulate the chip on per-core streams.

        Each stream is ``(addresses, gaps)`` or
        ``(addresses, gaps, writes)`` with a boolean write mask.  With
        single-threaded cores the list supplies one stream per core;
        with SMT (``chip.core.smt_threads > 1``) it supplies
        ``n_cores * smt_threads`` streams, grouped consecutively per
        core.  With ``coherent=True`` (default) the per-core L1s
        participate in the MSI-lite directory at the shared L2 (the
        paper's "coherent ... L2 cache" variant).

        The collector is paused for the whole run (and restored on
        return, even on error): the containers a run allocates (cache
        rows, MSHR heap pairs, directory entries, the scalar path's ROB
        pairs) stay reachable until the result is built, so generational
        passes mid-run are pure overhead — they scan the entire live
        heap and free nothing.
        """
        enabled = gc.isenabled()
        if enabled:
            gc.disable()
        try:
            return self._run(streams)
        finally:
            if enabled:
                gc.enable()

    def _run(self, streams: "list[tuple]") -> SimulationResult:
        smt = self.chip.core.smt_threads
        expected = self.chip.n_cores * smt
        if len(streams) != expected:
            raise SimulationError(
                f"need {expected} streams "
                f"({self.chip.n_cores} cores x {smt} threads), "
                f"got {len(streams)}")
        hierarchy = MemoryHierarchy(self.chip)
        if smt == 1:
            cores = [
                CoreModel(i, self.chip.core, self.chip.l1, *stream)
                for i, stream in enumerate(streams)
            ]
        else:
            from repro.sim.smt import SMTCoreModel
            cores = [
                SMTCoreModel(i, self.chip.core, self.chip.l1,
                             streams[i * smt:(i + 1) * smt])
                for i in range(self.chip.n_cores)
            ]
        if self.coherent:
            hierarchy.register_l1s([core.l1 for core in cores])
        kernel_stats: "KernelStats | None" = None
        bypassed = False
        with get_tracer().span("sim.run", cores=self.chip.n_cores,
                               smt=smt, coherent=self.coherent):
            if self.use_kernel and kernel_eligible(self.chip):
                kernel_stats = run_epoch_kernel(cores, hierarchy)
            else:
                bypassed = self.use_kernel
                heap: list[tuple[int, int]] = []
                for core in cores:
                    if not core.done:
                        heapq.heappush(
                            heap, (core.peek_issue_time(), core.core_id))
                heappush = heapq.heappush
                heappop = heapq.heappop
                while heap:
                    _, cid = heappop(heap)
                    nxt = cores[cid].advance(hierarchy)
                    if nxt is not None:
                        heappush(heap, (nxt, cid))
        results = tuple(core.result() for core in cores)
        exec_cycles = max((r.finish_cycle for r in results), default=0)
        self.last_layer_stats = self._publish_metrics(
            cores, results, hierarchy, exec_cycles, kernel_stats, bypassed)
        return SimulationResult(
            chip=self.chip,
            cores=results,
            exec_cycles=exec_cycles,
            l2_records=hierarchy._l2_records,
            dram_records=hierarchy._dram_records,
            l1_writebacks=sum(core.l1.writebacks for core in cores),
            invalidations=hierarchy.invalidations,
            upgrades=hierarchy.upgrades,
            dram_writes=hierarchy.dram_writes,
        )

    @staticmethod
    def _publish_metrics(cores, results, hierarchy, exec_cycles,
                         kernel_stats: "KernelStats | None",
                         bypassed: bool) -> dict:
        """Publish this run's per-layer counters under the ``sim.``
        namespace (cumulative over a process; one batch per run, so the
        cost is independent of the instruction count).  Returns the
        layer-counter dict *without* the ``kernel.*`` keys — the
        kernel-invariant view the golden digests pin."""
        registry = get_registry()
        stats: dict[str, float] = {
            "runs": 1,
            "instructions": sum(r.instructions for r in results),
            "mem_ops": sum(r.mem_ops for r in results),
            "cycles": exec_cycles,
            "l1.hits": sum(r.l1_hits for r in results),
            "l1.misses": sum(r.l1_misses for r in results),
            "l1.writebacks": sum(core.l1.writebacks for core in cores),
            "prefetches.issued": sum(r.prefetches_issued for r in results),
            "prefetches.useful": sum(r.prefetches_useful for r in results),
        }
        for core in cores:
            for name, value in core.mshr.stats().items():
                key = f"l1.mshr_{name}"
                stats[key] = stats.get(key, 0) + value
        stats.update(hierarchy.stats())
        layer_stats = dict(stats)
        if kernel_stats is not None:
            stats.update(kernel_stats.as_dict())
        if bypassed:
            stats["kernel.bypass_runs"] = 1
        for name, value in stats.items():
            if value:
                registry.counter(f"sim.{name}").inc(value)
        return layer_stats
