"""Out-of-order core model (interval style).

A core executes an instruction stream given as parallel arrays
``(addresses, gaps)``: access ``j`` touches ``addresses[j]`` after
``gaps[j]`` non-memory instructions.  The model captures exactly the
mechanisms that create C-AMAT's concurrency parameters:

- *issue bandwidth*: instructions issue at ``issue_width`` per cycle;
- *ROB reach*: access ``j`` cannot issue until the instruction
  ``rob_size`` older has committed (in-order commit), which bounds how
  many misses can overlap (memory-level parallelism);
- *L1 banking*: same-cycle lookups to distinct banks proceed in
  parallel (hit concurrency), same-bank lookups serialize by one cycle;
- *MSHRs*: outstanding line misses are bounded by the L1 MSHR file, with
  secondary misses merging.

Hot-path layout: the per-access loop reads plain Python lists and typed
``array('q')`` columns (NumPy scalar indexing costs ~10x a list index,
an ``array('q')`` index sits between the two) and writes each access's
start and miss penalty into two preallocated ``array('q')`` columns
(the hit latency is one per-core constant).  No per-access record
object is built: :class:`CoreResult` holds the two columns, and its
:class:`repro.camat.AccessTrace` views them through ``np.frombuffer``
on first read, via the columnar
:meth:`~repro.camat.trace.AccessTrace.from_arrays` fast path.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from itertools import repeat
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import SimulationError
from repro.sim.cache import SetAssociativeCache
from repro.sim.config import CacheConfig, CoreMicroConfig
from repro.sim.hierarchy import MemoryHierarchy
from repro.sim.mshr import MSHRFile

# AccessTrace and the prefetchers load on first use: a cost-only run
# builds no trace, and the default L1 has no prefetcher.
if TYPE_CHECKING:
    from repro.camat.trace import AccessTrace

__all__ = ["CoreModel", "CoreResult"]


@dataclass(frozen=True)
class CoreResult:
    """Summary of one core's execution.

    Attributes
    ----------
    core_id:
        Index of the core.
    instructions:
        Total instructions executed (memory + compute).
    mem_ops:
        Memory operations executed.
    finish_cycle:
        Cycle at which the last instruction committed.
    l1_hits, l1_misses:
        L1 outcome counts.
    starts, penalties:
        Per-access start cycle and miss penalty, as int64 columns in
        access order.
    hit_latency:
        Hit cycles of every access (the L1 hit latency).
    """

    core_id: int
    instructions: int
    mem_ops: int
    finish_cycle: int
    l1_hits: int
    l1_misses: int
    starts: "array[int]"
    penalties: "array[int]"
    hit_latency: int
    prefetches_issued: int = 0
    prefetches_useful: int = 0

    @property
    def records(self) -> "tuple[tuple[int, int, int], ...]":
        """Per-access ``(start, hit_cycles, miss_penalty)`` tuples."""
        return tuple(zip(self.starts.tolist(), repeat(self.hit_latency),
                         self.penalties.tolist()))

    @property
    def f_mem(self) -> float:
        """Fraction of instructions that access memory."""
        return self.mem_ops / self.instructions if self.instructions else 0.0

    @property
    def l1_miss_rate(self) -> float:
        """Observed L1 miss rate."""
        total = self.l1_hits + self.l1_misses
        return self.l1_misses / total if total else 0.0

    @property
    def cpi(self) -> float:
        """Cycles per instruction over the whole run."""
        if self.instructions == 0:
            return 0.0
        return self.finish_cycle / self.instructions

    def trace(self) -> AccessTrace:
        """The core's L1-level access trace (for C-AMAT analysis).

        Built on first read and memoized, so a cost-only run never
        builds one and repeated analyses (``layer_apc`` +
        ``core_stats``) share it.  Its start and penalty columns are
        views of the record columns, not copies.
        """
        cached = self.__dict__.get("_trace")
        if cached is None:
            if not self.mem_ops:
                raise SimulationError("core executed no memory operations")
            from repro.camat.trace import AccessTrace

            cached = AccessTrace.from_arrays(
                np.frombuffer(self.starts, dtype=np.int64),
                np.full(self.mem_ops, self.hit_latency, dtype=np.int64),
                np.frombuffer(self.penalties, dtype=np.int64))
            # Frozen dataclass: memoize past the __setattr__ guard.
            object.__setattr__(self, "_trace", cached)
        return cached


class CoreModel:
    """Stepwise executor for one core (driven by the CMP event loop).

    The layout is fixed (``__slots__``): a 256-core chip builds 256 of
    these per run, and a per-instance ``__dict__`` of about 35 entries
    was one of the largest allocation sites at a run's peak.  Two
    members exist only when used: the ROB deque ``_outstanding`` is
    ``None`` until the first :meth:`step` (the epoch kernel keeps its
    own ROB window and builds the deque only at a fallback seam), and
    ``_prefetched_lines`` only when the L1 has a prefetcher.
    """

    __slots__ = (
        "core_id", "micro", "l1", "mshr", "_issue_width", "_rob_size",
        "_line_bytes", "_l1_banks", "_hit_latency", "_mshr_entries",
        "_mshr_pending", "_mshr_heap", "addresses", "gaps", "writes",
        "instr_index", "_base_issue", "_n_ops", "_next", "_bank_free",
        "_outstanding", "_starts", "_penalties", "_last_done",
        "_retire_op", "_retire_max", "_issue_barrier", "_prefetcher",
        "_prefetched_lines", "prefetches_issued", "prefetches_useful",
        # Lazily boxed per-op columns (see __getattr__).
        "_addr_list", "_instr_list", "_write_list",
    )

    def __init__(self, core_id: int, micro: CoreMicroConfig,
                 l1_config: CacheConfig,
                 addresses: np.ndarray, gaps: np.ndarray,
                 writes: "np.ndarray | None" = None, *,
                 shared_l1: "SetAssociativeCache | None" = None,
                 shared_mshr: "MSHRFile | None" = None,
                 shared_banks: "list[int] | None" = None,
                 issue_width_override: "int | None" = None) -> None:
        addresses = np.asarray(addresses, dtype=np.int64)
        gaps = np.asarray(gaps, dtype=np.int64)
        if addresses.shape != gaps.shape or addresses.ndim != 1:
            raise SimulationError("addresses and gaps must be equal 1-D arrays")
        if np.any(gaps < 0) or np.any(addresses < 0):
            raise SimulationError("addresses and gaps must be non-negative")
        if writes is None:
            writes = np.zeros(addresses.shape, dtype=bool)
        writes = np.asarray(writes, dtype=bool)
        if writes.shape != addresses.shape:
            raise SimulationError("write mask must match the address array")
        self.core_id = core_id
        self.micro = micro
        self.l1 = (shared_l1 if shared_l1 is not None
                   else SetAssociativeCache(l1_config))
        self.mshr = (shared_mshr if shared_mshr is not None
                     else MSHRFile(l1_config.mshr_entries))
        self._issue_width = (issue_width_override
                             if issue_width_override is not None
                             else micro.issue_width)
        self._rob_size = micro.rob_size
        cfg = self.l1.config
        self._line_bytes = cfg.line_bytes
        self._l1_banks = cfg.banks
        self._hit_latency = cfg.hit_latency
        self._mshr_entries = cfg.mshr_entries
        # The MSHR file's live containers (mutated in place, never
        # rebound — see the MSHRFile docstring), probed directly on the
        # per-op fast path.
        self._mshr_pending = self.mshr._pending
        self._mshr_heap = self.mshr._heap
        self.addresses = addresses
        self.gaps = gaps
        self.writes = writes
        # Instruction index of each memory op: gaps before it plus earlier ops.
        self.instr_index = (np.cumsum(gaps)
                            + np.arange(addresses.size, dtype=np.int64))
        # Hot-loop views: NumPy scalar indexing costs ~10x a list
        # index, so the loops never index an ndarray.
        # The address, write and instruction-index columns are boxed to
        # lists on first read (__getattr__): both paths read the write
        # flags, but only the scalar path reads the addresses and
        # instruction indexes, so a kernel run that never falls back
        # leaves them unboxed.
        # Bandwidth-limited issue cycle of each op, divided out once
        # into a typed column (8 bytes per op, no int object per op).
        self._base_issue = array(
            "q", (self.instr_index // self._issue_width).tobytes())
        self._n_ops = addresses.size
        self._next = 0
        self._bank_free = (shared_banks if shared_banks is not None
                           else [0] * l1_config.banks)
        # (instr idx, done) pairs of the ROB window; created by the
        # first step, so a core the kernel drains alone never has one.
        self._outstanding: "deque[tuple[int, int]] | None" = None
        # Preallocated, zeroed record columns: op ``j``'s start cycle
        # and miss penalty (its hit cycles are ``_hit_latency``).  Both
        # the scalar path and the epoch kernel (:mod:`repro.sim.kernel`)
        # store into them in place; :meth:`result` hands them over
        # as they are.
        self._starts = array("q", bytes(8 * self._n_ops))
        self._penalties = array("q", bytes(8 * self._n_ops))
        self._last_done = 0
        # Committed-done watermark: the max completion time among entries
        # retired for the *current* op (reset per op), so peek/step never
        # rescan the deque.
        self._retire_op = -1
        self._retire_max = 0
        # Structural stall: when the MSHR file fills, the pipeline blocks
        # until an entry frees, so younger ops cannot issue past this cycle.
        self._issue_barrier = 0
        if l1_config.prefetch == "nextline":
            from repro.sim.prefetch import NextLinePrefetcher
            self._prefetcher = NextLinePrefetcher(l1_config.prefetch_degree)
        elif l1_config.prefetch == "stride":
            from repro.sim.prefetch import StridePrefetcher
            self._prefetcher = StridePrefetcher(l1_config.prefetch_degree)
        else:
            self._prefetcher = None
        if self._prefetcher is not None:
            self._prefetched_lines: set[int] = set()
        self.prefetches_issued = 0
        self.prefetches_useful = 0

    def __getattr__(self, name: str):
        # Lazily boxed per-op columns, cached on first access (their
        # slots start unset, so only the first read lands here).  The
        # epoch kernel reads ``_write_list`` too; ``_addr_list`` and
        # ``_instr_list`` are read only by the scalar ``step``/``advance``
        # and by a peek with a non-empty ROB window, so a kernel run
        # with no fallbacks never converts them.
        if name == "_addr_list":
            value: list = self.addresses.tolist()
        elif name == "_instr_list":
            value = self.instr_index.tolist()
        elif name == "_write_list":
            value = self.writes.tolist()
        else:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        setattr(self, name, value)
        return value

    # ----- event-loop interface -------------------------------------------
    @property
    def done(self) -> bool:
        """Whether all memory ops have been processed."""
        return self._next >= self._n_ops

    def peek_issue_time(self) -> int:
        """Lower bound on the next op's issue cycle (for event ordering).

        The committed-done watermark (``_retire_op``/``_retire_max``)
        makes the ROB check amortized O(1): it resets per op, each deque
        entry pops exactly once, and a repeated peek of the same op
        returns the accumulated maximum — matching the historical
        semantics where every peek rescanned the whole deque.  The same
        watermark is shared with :meth:`step` (inlined in both, this is
        the innermost event-loop code).
        """
        j = self._next
        if j >= self._n_ops:
            raise SimulationError("core already finished")
        t = self._base_issue[j]
        if self._issue_barrier > t:
            t = self._issue_barrier
        # ROB: the op cannot issue before the instruction rob_size older
        # has committed; memory ops are the only long-latency entries.
        if self._retire_op != j:
            self._retire_op = j
            self._retire_max = 0
        outstanding = self._outstanding
        committed = self._retire_max
        if outstanding:
            bound = self._instr_list[j] - self._rob_size
            while outstanding and outstanding[0][0] <= bound:
                done_t = outstanding.popleft()[1]
                if done_t > committed:
                    committed = done_t
        self._retire_max = committed
        return t if t >= committed else committed

    def advance(self, hierarchy: MemoryHierarchy) -> "int | None":
        """Process one op; returns the next op's issue bound (or None).

        The fused step-then-peek the event loop spins on — one method
        call per op instead of ``step``/``done``/``peek_issue_time``,
        with the peek body inlined (the golden differential tests pin
        it to :meth:`peek_issue_time` exactly).
        """
        self.step(hierarchy)
        j = self._next
        if j >= self._n_ops:
            return None
        t = self._base_issue[j]
        barrier = self._issue_barrier
        if barrier > t:
            t = barrier
        if self._retire_op != j:
            self._retire_op = j
            self._retire_max = 0
        bound = self._instr_list[j] - self._rob_size
        outstanding = self._outstanding
        committed = self._retire_max
        while outstanding and outstanding[0][0] <= bound:
            done_t = outstanding.popleft()[1]
            if done_t > committed:
                committed = done_t
        self._retire_max = committed
        return t if t >= committed else committed

    def step(self, hierarchy: MemoryHierarchy) -> int:
        """Process one memory op; returns its completion cycle."""
        j = self._next
        if j >= self._n_ops:
            raise SimulationError("core already finished")
        self._next = j + 1
        idx = self._instr_list[j]
        address = self._addr_list[j]
        is_write = self._write_list[j]
        issue = self._base_issue[j]
        if self._issue_barrier > issue:
            issue = self._issue_barrier
        # In-order commit / ROB occupancy (same watermark as peek).
        if self._retire_op != j:
            self._retire_op = j
            self._retire_max = 0
        bound = idx - self._rob_size
        outstanding = self._outstanding
        if outstanding is None:
            outstanding = self._outstanding = deque()
        committed = self._retire_max
        while outstanding and outstanding[0][0] <= bound:
            done_t = outstanding.popleft()[1]
            if done_t > committed:
                committed = done_t
        self._retire_max = committed
        if committed > issue:
            issue = committed
        # L1 bank port (1-cycle pipelined occupancy per bank).
        line = address // self._line_bytes
        bank = line % self._l1_banks
        bank_free = self._bank_free
        if bank_free[bank] > issue:
            issue = bank_free[bank]
        bank_free[bank] = issue + 1
        hit_lat = self._hit_latency
        mshr = self.mshr
        l1 = self.l1
        # Inlined mshr.lookup (guarded retire + map probe).
        mheap = self._mshr_heap
        if mheap and mheap[0][0] <= issue:
            mshr._retire(issue)
        outstanding_fill = self._mshr_pending.get(line)
        if outstanding_fill is not None:
            # Secondary miss: ride the in-flight fill (counts as a miss).
            l1.misses += 1
            mshr.merge(line, issue)
            if is_write:
                l1.set_dirty(address)
            done = max(int(outstanding_fill), issue + hit_lat)
        else:
            hit, victim = l1.access_rw(address, write=is_write)
            if victim is not None:
                hierarchy.writeback(self.core_id,
                                    victim * self._line_bytes, issue)
            if hit:
                done = issue + hit_lat
                if is_write:
                    # Coherence upgrade: gain ownership if shared.
                    done = max(done, hierarchy.upgrade(
                        self.core_id, address, issue) + hit_lat)
            else:
                alloc = max(issue + hit_lat,
                            int(mshr.earliest_free_time(issue)))
                if alloc > issue + hit_lat:
                    # The file was full: the pipeline blocks until the
                    # entry frees; no younger instruction issues earlier.
                    self._issue_barrier = max(self._issue_barrier, alloc)
                done = hierarchy.service_miss(self.core_id, address, alloc,
                                              write=is_write)
                mshr.allocate(line, done, alloc)
        penalty = done - issue - hit_lat
        self._starts[j] = issue
        self._penalties[j] = penalty if penalty > 0 else 0
        outstanding.append((idx, done))
        if done > self._last_done:
            self._last_done = done
        if self._prefetcher is not None:
            was_hit = penalty <= 0 and outstanding_fill is None
            if was_hit and line in self._prefetched_lines:
                self.prefetches_useful += 1
                self._prefetched_lines.discard(line)
            targets = (self._prefetcher.on_hit(line) if was_hit
                       else self._prefetcher.on_miss(line))
            self._issue_prefetches(hierarchy, targets, issue + hit_lat)
        return done

    def _issue_prefetches(self, hierarchy: MemoryHierarchy,
                          lines: "list[int]", time: int) -> None:
        """Fire-and-forget prefetch fills, bounded by spare MSHRs.

        Prefetches never steal the last MSHR entry from demand misses
        and never stall the pipeline; a dirty victim displaced by a
        prefetch fill is written back like any other.
        """
        for line in lines:
            if self.mshr.outstanding(time) >= self._mshr_entries - 1:
                break
            address = line * self._line_bytes
            if (self.l1.probe(address)
                    or self.mshr.lookup(line, time) is not None):
                continue
            fill_time = hierarchy.service_miss(self.core_id, address, time)
            self.mshr.allocate(line, fill_time, time)
            victim = self.l1.fill(address)
            if victim is not None:
                hierarchy.writeback(self.core_id,
                                    victim * self._line_bytes, time)
            self._prefetched_lines.add(line)
            self.prefetches_issued += 1

    # ----- results --------------------------------------------------------
    def result(self) -> CoreResult:
        """Finalize and summarize (call after the event loop drains)."""
        if not self.done:
            raise SimulationError("core has unprocessed memory ops")
        total_instr = (int(self.gaps.sum()) + self._n_ops)
        bw_finish = total_instr // max(self._issue_width, 1)
        return CoreResult(
            core_id=self.core_id,
            instructions=total_instr,
            mem_ops=int(self._n_ops),
            finish_cycle=max(self._last_done, bw_finish),
            l1_hits=self.l1.hits,
            l1_misses=self.l1.misses,
            starts=self._starts,
            penalties=self._penalties,
            hit_latency=self._hit_latency,
            prefetches_issued=self.prefetches_issued,
            prefetches_useful=self.prefetches_useful,
        )
