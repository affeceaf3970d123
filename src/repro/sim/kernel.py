"""Batched structure-of-arrays epoch kernel for the CMP event loop.

The scalar event loop (:meth:`repro.sim.cmp.CMPSimulator.run` driving
:meth:`repro.sim.core.CoreModel.advance`) pays Python dispatch per
memory operation: a heap pop, a bound method call, a dozen attribute
loads, and per-access address arithmetic.  This kernel removes all of
it while reproducing the scalar semantics *bit for bit* (held to the
scalar loop by the Hypothesis suite
``tests/sim/test_kernel_differential.py``, and with it to the golden
digests and seeded corpus of ``tests/sim/test_differential_golden.py``):

- **Structure-of-arrays epoch prep** — the per-op columns the loop
  indexes are computed with NumPy once per core and held as flat
  ``array('q')`` columns (the L1 line, the bandwidth-limited issue
  cycle, the ROB pop boundary), 8 bytes per op with no int object
  behind each; only the write flags are a list (of the two bool
  singletons).  The loop derives the L1 set, tag and bank from the
  line with three integer ops.  Fields only an L1 miss needs
  are derived on demand: a primary miss reads its address from the
  int64 column and computes the L2 line, home slice and bank, and, when
  it gets that far, the L2 set and tag and the DRAM bank and row; the
  NoC latency comes from the mesh formula.  A coherent write hit
  derives only the L2 line.
- **Epoch batching** — after popping a core from the ready heap, the
  kernel keeps advancing that core while its next op's issue bound
  provably precedes every other core's next bound (strict
  ``(bound, core_id)`` tuple order, exactly the scalar heap's
  comparison).  Each such maximal run is one *epoch*: per-core state is
  one flat list unpacked into locals in a single bytecode, and the heap
  is touched once per epoch instead of once per op.  The popped bound
  is *carried* into the op as its issue floor — it equals
  ``CoreModel.peek_issue_time()`` by construction, and the ROB
  watermark pops it folded in have already happened, so the scalar
  re-derivation (barrier max, deque drain) is skipped entirely.
- **Pointer-based ROB window** — the scalar path's ``_outstanding``
  deque of ``(instr, done)`` pairs is replaced by a single integer
  pointer ``p`` over the precomputed instruction-index column and a
  ``dones`` ring of completion cycles, op ``j`` in slot ``j & mask``:
  the in-order-commit watermark pops become two list indexes, and the
  per-op append disappears.  The ring is a power-of-two list longer
  than the ROB (or the core's op count, if smaller), so the window,
  at most ``rob_size`` ops, never wraps onto itself.  A core holds no
  deque until a fallback seam materializes one from a non-empty
  ``[p, j)`` window, so the scalar path always sees its exact state
  and a run with no fallback creates no deque; a finished core is left
  without one (nothing reads it again).
- **Monolithic inlining** — the L1 lookup, MSHR probe/retire/allocate,
  MSI-lite directory bookkeeping, L2 slice lookup, DRAM bank/row-buffer
  timing and NoC latency lookup are inlined into one loop body
  operating on the *live containers* of the scalar models (tag rows,
  LRU rows, MSHR dict+heap, DRAM bank lists, the sharers directory).
  There is no shadow state: the kernel and the scalar path read and
  write the same objects, so control can move between them at any op
  boundary.  Writes are inlined too — the dirty bit (one mask int per
  set, bit ``1 << way``), secondary-merge ``set_dirty`` and the
  contention-free ownership grab (no other sharer) are all plain dict
  and int operations.

Fallback contract
-----------------
Rare structural events leave the fast path and execute through the
unmodified scalar :meth:`CoreModel.advance`:

- multi-sharer coherence transitions — a write to a line another core
  shares (upgrade-with-invalidations on a hit, invalidate-on-miss),
  where remote L1 tag stores and NoC round trips get involved;
- prefetch-enabled and SMT configurations (whole-run bypass — the
  kernel never engages; see :func:`kernel_eligible`).

MSHR-full stalls (the structural ``_issue_barrier`` pipeline block) are
*not* fallbacks: saturated workloads hit them on a large fraction of
ops, so the kernel reproduces the scalar stall inline — the
``stall_events`` count, the stale-pair heap walk and the barrier
update, exactly as :meth:`MSHRFile.earliest_free_time` would.

The fallback decision is taken *before the op's first irreversible
mutation*: the only state touched by then is the ROB commit watermark
and lazy MSHR retirement, both of which are idempotent under re-entry
(the watermark resumes, retirement is monotonic), so the scalar path
re-executes the op from an equivalent state.  Around each fallback the
kernel flushes its scalar locals into the model objects and reloads
them after — the containers themselves are always shared.  Per-op
fallbacks are counted and published as ``sim.kernel.fallbacks``;
whole-run bypasses as ``sim.kernel.bypass_runs``; fast-path ops and
epochs as ``sim.kernel.ops`` / ``sim.kernel.epochs``.

Reference
---------
Every eligible run takes the kernel.  ``CMPSimulator(chip,
use_kernel=False)`` runs the scalar loop instead; it is the only
reference the kernel is held to, bit for bit, and the golden corpus
pins what both must compute.
"""

from __future__ import annotations

from array import array
from collections import deque
from heapq import heappop, heappush
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import InvalidParameterError
from repro.sim.noc import _mesh_latency

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.sim.core import CoreModel
    from repro.sim.hierarchy import MemoryHierarchy

__all__ = ["KernelStats", "kernel_eligible", "run_epoch_kernel"]


def kernel_eligible(chip) -> bool:
    """Whether a chip configuration can run through the epoch kernel.

    SMT interleaving (shared L1/MSHR/bank state between thread
    contexts) and prefetch-triggered fills are structural per-op events
    by construction, so those configurations bypass the kernel
    wholesale (counted as ``sim.kernel.bypass_runs``).
    """
    return chip.core.smt_threads == 1 and chip.l1.prefetch == "none"


class KernelStats:
    """Telemetry of one kernel run (plain counters)."""

    __slots__ = ("ops", "fallbacks", "epochs")

    def __init__(self) -> None:
        self.ops = 0
        self.fallbacks = 0
        self.epochs = 0

    def as_dict(self) -> "dict[str, int]":
        """Flat ``kernel.*`` metric suffixes for publication."""
        return {"kernel.ops": self.ops, "kernel.fallbacks": self.fallbacks,
                "kernel.epochs": self.epochs}


# Per-core kernel state is one flat list (not an object): an epoch
# binds all of it into locals with a single UNPACK_SEQUENCE, an order
# of magnitude cheaper than ~30 slotted attribute loads at the observed
# handful of ops per epoch.  Layout — indexes 0..23 are fixed for the
# whole run (SoA columns, live container aliases, geometry), the tail
# S[_MUT:] holds the mutable scalar snapshot written back at epoch end:
#
#   0 writes       per-op write flag (core._write_list, a list of bools)
#   1 lines        per-op L1 line number (array('q')); set, tag and bank
#                  are derived in the loop (line % sets1, line // sets1,
#                  line % banks1)
#   2 addr_at      core.addresses.item: op j's address as a Python int,
#                  read only on the L1-miss and coherent write-hit
#                  paths, which derive their L2/DRAM fields from it
#   3 instr        instruction index column (core.instr_index, int64
#                  ndarray; boxed only for the [p, j) deque window
#                  at flush seams)
#   4 base_issue   bandwidth-limited issue column (core._base_issue,
#                  array('q'), shared with the scalar path)
#   5 pmax         ROB pop boundary column (array('q')): the commit
#                  pointer after op j's watermark drain is exactly
#                  min(j, bisect_right(instr, instr[j] - rob_size)),
#                  a pure function of the static columns — precomputed
#                  so the per-op drain is a pointer compare
#   6 dones        ring of completion cycles, op j at j & (len - 1)
#                  (kernel-maintained list; see the ROB bullet above)
#   7 bank_free  8 tags1  9 lru1  10 dirty1 (set -> dirty-way mask)
#   11 pending  12 pending.get
#   13 heap1  14 starts  15 penalties  (live CoreModel containers; the
#                  last two are the zeroed array('q') record columns —
#                  each op's slots are stored once, so a zero penalty
#                  needs no store)
#   16 n_ops  17 hit_lat  18 sets1  19 banks1  20 mshr_capacity
#   21 line_bytes  22 l1 object  23 core object
#   -- mutable tail (_MUT = 24) --
#   24 j  25 barrier  26 retire_max  27 last_done  28 tick1  29 hits1
#   30 misses1  31 prim1  32 sec1  33 stall1  34 p
#
# ``last_done`` is the running max of completion times, kept per op
# as the scalar step keeps it: the ring forgets committed ops.
# ``l1.writebacks`` is deliberately NOT mirrored: a coherence
# invalidation triggered by *another* core's write fallback bumps it on
# the live object between this core's epochs, so the kernel always
# increments it in place.  ``_retire_op`` needs no slot either — it is
# ``j`` by construction at every seam (each op is peeked exactly once
# before it is processed).
_MUT = 24


def _core_state(core: "CoreModel") -> list:
    """Build one core's kernel state list (SoA columns + aliases)."""
    addr = core.addresses
    l1cfg = core.l1.config
    # The static int columns every op indexes are typed: an
    # ``array('q')`` index boxes the int it reads, about 15 ns more
    # than a list index, but the column holds 8 bytes per op where a
    # list holds a pointer and an int object.  The completion ring is
    # a list: it is written and read once per op and stays small.  The
    # write list is the scalar path's own.  An L1 miss reads its
    # address as a Python int straight from the int64 column
    # (``ndarray.item``).
    instr_idx = core.instr_index
    pmax = np.minimum(
        np.searchsorted(instr_idx, instr_idx - core._rob_size,
                        side="right"),
        np.arange(core._n_ops, dtype=np.int64))
    state = [
        core._write_list, array("q", (addr // l1cfg.line_bytes).tobytes()),
        addr.item, instr_idx, core._base_issue, array("q", pmax.tobytes()),
        [0] * (1 << min(core._rob_size, core._n_ops).bit_length()),
        core._bank_free, core.l1._tags, core.l1._lru, core.l1._dirty,
        core.mshr._pending, core.mshr._pending.get, core.mshr._heap,
        core._starts, core._penalties, core._n_ops, core._hit_latency,
        core.l1.num_sets, l1cfg.banks, core.mshr.capacity,
        core._line_bytes, core.l1, core,
    ]
    state.extend(0 for _ in range(11))
    _reload_core(state)
    return state


def _reload_core(state: list) -> None:
    """Sync the mutable tail (and the dones window) from the live core.

    Called after any scalar execution (initial peeks, fallback
    ``advance``): the ROB pointer is re-derived from the deque length —
    the deque always holds exactly the ops ``[p, core._next)``, and a
    core without one has an empty window — and the completion column
    is refreshed from the deque pairs (covering the op the scalar path
    just processed).  It creates no deque.
    """
    core = state[23]
    out = core._outstanding or ()
    p = core._next - len(out)
    dones = state[6]
    mask = len(dones) - 1
    for off, pair in enumerate(out):
        dones[(p + off) & mask] = pair[1]
    l1 = core.l1
    mshr = core.mshr
    state[_MUT:] = (core._next, core._issue_barrier, core._retire_max,
                    core._last_done, l1._tick, l1.hits, l1.misses,
                    mshr.primary_misses, mshr.secondary_merges,
                    mshr.stall_events, p)


def _flush_core(state: list) -> None:
    """Push the mutable tail back into the live core objects.

    Materializes the ``_outstanding`` deque from a non-empty ``[p, j)``
    window so a fallback ``advance`` sees exactly the state the scalar
    loop would have left; an empty window leaves the core without a
    deque (``None``, which the scalar path reads as empty and replaces
    at its next ``step``).  A finished core is left without one too:
    nothing reads it again (``step``, ``advance`` and the peek refuse a
    finished core, ``result`` reads ``_last_done``), and building it
    would cost a tuple per pair at the end of every run.
    """
    core = state[23]
    (j, barrier, retire_max, last_done, tick1, hits1, misses1,
     prim1, sec1, stall1, p) = state[_MUT:]
    core._next = j
    core._issue_barrier = barrier
    n_ops = state[16]
    core._retire_op = j if j < n_ops else n_ops - 1
    core._retire_max = retire_max
    core._last_done = last_done
    l1 = core.l1
    l1._tick = tick1
    l1.hits = hits1
    l1.misses = misses1
    mshr = core.mshr
    mshr.primary_misses = prim1
    mshr.secondary_merges = sec1
    mshr.stall_events = stall1
    if p < j < n_ops:
        dones = state[6]
        mask = len(dones) - 1
        core._outstanding = deque(zip(state[3][p:j].tolist(),
                                      [dones[i & mask] for i in range(p, j)]))
    else:
        core._outstanding = None


class _HierState:
    """Mirror of the hierarchy's scalar counters (kernel-local view).

    Containers (tag rows, MSHR dict+heap, DRAM bank lists, record
    buffers, the sharers directory) are aliased, never copied; only flat
    counters are mirrored, and :meth:`flush`/:meth:`reload` carry them
    across the fallback seam.  ``invalidations``/``upgrades`` are
    deliberately not mirrored — only scalar fallbacks touch them,
    always on the live object.
    """

    __slots__ = (
        "hierarchy", "n_cores", "hl2", "sets2", "cap2",
        "tags2", "lru2", "dirty2", "tick2", "hits2", "misses2", "wb2",
        "pend2", "heap2", "prim2", "sec2", "stall2",
        "bank_free2", "l2_records", "dram_records", "sharers", "coherent",
        "l2_accesses", "l2_hits", "traversals",
        "dram_open", "dram_free", "row_hit_c", "row_miss_c", "row_conf_c",
        "bus_c", "row_bytes", "dram_banks", "line_bytes2",
        "dreq", "drh", "drm", "drc", "dbusy", "dwait", "dlast",
        "dram_writes",
    )

    def __init__(self, hierarchy: "MemoryHierarchy") -> None:
        self.hierarchy = hierarchy
        chip = hierarchy.chip
        self.n_cores = chip.n_cores
        self.hl2 = chip.l2_slice.hit_latency
        self.sets2 = hierarchy.slices[0].num_sets
        self.cap2 = chip.l2_slice.mshr_entries
        self.line_bytes2 = hierarchy._line_bytes
        self.tags2 = [s._tags for s in hierarchy.slices]
        self.lru2 = [s._lru for s in hierarchy.slices]
        self.dirty2 = [s._dirty for s in hierarchy.slices]
        self.pend2 = [m._pending for m in hierarchy.slice_mshrs]
        self.heap2 = [m._heap for m in hierarchy.slice_mshrs]
        self.bank_free2 = hierarchy._bank_free
        self.l2_records = hierarchy._l2_records
        self.dram_records = hierarchy._dram_records
        self.sharers = hierarchy._sharers
        self.coherent = hierarchy._l1_caches is not None
        dram = hierarchy.dram
        self.dram_open = dram._open_row
        self.dram_free = dram._bank_free
        cfg = dram.config
        self.row_hit_c = cfg.row_hit
        self.row_miss_c = cfg.row_miss
        self.row_conf_c = cfg.row_conflict
        self.bus_c = cfg.bus_cycles
        self.row_bytes = cfg.row_bytes
        self.dram_banks = cfg.banks
        self.reload()

    def reload(self) -> None:
        """Pull the counter mirror from the live objects."""
        h = self.hierarchy
        self.tick2 = [s._tick for s in h.slices]
        self.hits2 = [s.hits for s in h.slices]
        self.misses2 = [s.misses for s in h.slices]
        self.wb2 = [s.writebacks for s in h.slices]
        self.prim2 = [m.primary_misses for m in h.slice_mshrs]
        self.sec2 = [m.secondary_merges for m in h.slice_mshrs]
        self.stall2 = [m.stall_events for m in h.slice_mshrs]
        self.l2_accesses = h.l2_accesses
        self.l2_hits = h.l2_hits
        self.traversals = h.noc.traversals
        dram = h.dram
        self.dreq = dram.requests
        self.drh = dram.row_hits
        self.drm = dram.row_misses
        self.drc = dram.row_conflicts
        self.dbusy = dram.busy_cycles
        self.dwait = dram.queue_wait_cycles
        self.dlast = dram._last_end
        self.dram_writes = h.dram_writes

    def flush(self) -> None:
        """Push the counter mirror back into the live objects."""
        h = self.hierarchy
        for i, s in enumerate(h.slices):
            s._tick = self.tick2[i]
            s.hits = self.hits2[i]
            s.misses = self.misses2[i]
            s.writebacks = self.wb2[i]
        for i, m in enumerate(h.slice_mshrs):
            m.primary_misses = self.prim2[i]
            m.secondary_merges = self.sec2[i]
            m.stall_events = self.stall2[i]
        h.l2_accesses = self.l2_accesses
        h.l2_hits = self.l2_hits
        h.noc.traversals = self.traversals
        dram = h.dram
        dram.requests = self.dreq
        dram.row_hits = self.drh
        dram.row_misses = self.drm
        dram.row_conflicts = self.drc
        dram.busy_cycles = self.dbusy
        dram.queue_wait_cycles = self.dwait
        dram._last_end = self.dlast
        h.dram_writes = self.dram_writes


def run_epoch_kernel(cores: "list[CoreModel]",
                     hierarchy: "MemoryHierarchy") -> KernelStats:
    """Drain all cores through the epoch kernel (in-place).

    Equivalent — observable-state bit-identical — to the scalar loop::

        while heap:
            _, cid = heappop(heap)
            nxt = cores[cid].advance(hierarchy)
            if nxt is not None:
                heappush(heap, (nxt, cid))

    On return every core is drained (``core.done``) and every model
    object holds exactly the state the scalar loop would have left,
    except that no core holds a ROB deque, which nothing reads after
    the core's last op.
    The caller, :meth:`repro.sim.cmp.CMPSimulator.run`, pauses the
    collector for the whole run, this drain included.
    """
    stats = KernelStats()
    hpush = heappush
    hpop = heappop
    states = [_core_state(core) for core in cores]
    hs = _HierState(hierarchy)

    heap: "list[tuple[int, int]]" = []
    for core in cores:
        if not core.done:
            hpush(heap, (core.peek_issue_time(), core.core_id))
        # peek mutates the ROB watermark: refresh the snapshot.
        _reload_core(states[core.core_id])

    inf = float("inf")
    # Hierarchy-level locals hoisted out of the epoch loop.  Counters
    # (trav/l2acc/.../dwr) are rebound across every fallback seam;
    # container aliases never need rebinding.
    hl2 = hs.hl2
    sets2 = hs.sets2
    cap2 = hs.cap2
    lb2 = hs.line_bytes2
    tags2 = hs.tags2
    lru2 = hs.lru2
    dirty2 = hs.dirty2
    tick2 = hs.tick2
    hits2 = hs.hits2
    misses2 = hs.misses2
    wb2 = hs.wb2
    pend2 = hs.pend2
    heap2 = hs.heap2
    prim2 = hs.prim2
    stall2 = hs.stall2
    bank_free2 = hs.bank_free2
    l2rec_append = hs.l2_records.append
    dramrec_append = hs.dram_records.append
    sharers = hs.sharers
    sharers_get = sharers.get
    sharers_pop = sharers.pop
    coherent = hs.coherent
    n2 = hs.n_cores
    l2b = hierarchy._l2_banks
    noc_flat = hierarchy._noc_lat
    noc_side = hierarchy.noc.side
    noc_cfg = hierarchy.noc.config
    dram_open = hs.dram_open
    dram_free = hs.dram_free
    row_hit_c = hs.row_hit_c
    row_miss_c = hs.row_miss_c
    row_conf_c = hs.row_conf_c
    bus_c = hs.bus_c
    dram_row_bytes = hs.row_bytes
    dram_banks = hs.dram_banks
    dram_span = dram_row_bytes * dram_banks
    trav = hs.traversals
    l2acc = hs.l2_accesses
    l2h = hs.l2_hits
    dreq = hs.dreq
    drh = hs.drh
    drm = hs.drm
    drc = hs.drc
    dbusy = hs.dbusy
    dwait = hs.dwait
    dlast = hs.dlast
    dwr = hs.dram_writes
    fallbacks = 0
    epochs = 0

    while heap:
        t, cid = hpop(heap)
        if heap:
            top_t, top_c = heap[0]
        else:
            top_t, top_c = inf, -1
        epochs += 1
        S = states[cid]
        (writes, lines, addr_at, _, base_issue, pmax, dones, bank_free,
         tags1, lru1, dirty1, pending, pending_get, heap1, starts, pens,
         n_ops, hit_lat, sets1, banks1, capacity1, lb1, l1_obj, core_obj,
         j, barrier, retire_max, last_done, tick1, hits1, misses1,
         prim1, sec1, stall1, p) = S
        cbit = 1 << cid
        dmask = len(dones) - 1
        nf1 = heap1[0][0] if heap1 else inf

        while True:
            # ===== one memory op (scalar CoreModel.step, inlined) =====
            # ``t`` carries this op's issue bound — the scalar heap key
            # — so the ROB/barrier front-end (already folded into it by
            # the previous peek) is not re-derived.  Only the L1 bank
            # port can push the issue cycle later.
            w = writes[j]
            line = lines[j]
            s1 = line % sets1
            tg = line // sets1
            b1 = line % banks1
            issue = t
            bfb = bank_free[b1]
            if bfb > issue:
                issue = bfb
            # Lazy MSHR retirement at the issue cycle (idempotent).
            if nf1 <= issue:
                while heap1 and heap1[0][0] <= issue:
                    fill_t, ln = hpop(heap1)
                    if pending_get(ln) == fill_t:
                        del pending[ln]
                nf1 = heap1[0][0] if heap1 else inf
            fill = pending_get(line)
            if fill is not None:
                # ----- secondary miss: ride the in-flight fill -------
                bank_free[b1] = issue + 1
                misses1 += 1
                sec1 += 1
                if w:
                    # set_dirty on the (possibly evicted) filled line.
                    row = tags1[s1]
                    if tg in row:
                        dirty1[s1] = (dirty1.get(s1, 0)
                                      | 1 << row.index(tg))
                floor = issue + hit_lat
                done = fill if fill >= floor else floor
                starts[j] = issue
                pen = done - floor
                if pen > 0:
                    pens[j] = pen
            else:
                fb = False
                row = tags1[s1]
                if tg in row:
                    # ----- L1 hit ------------------------------------
                    if w and coherent:
                        ln2 = addr_at(j) // lb2
                        s = sharers_get(ln2)
                        if s is not None and s != cbit:
                            # Upgrade with remote invalidations:
                            # structural -> scalar fallback.
                            fb = True
                    if not fb:
                        bank_free[b1] = issue + 1
                        tick1 += 1
                        way = row.index(tg)
                        lru1[s1][way] = tick1
                        hits1 += 1
                        if w:
                            dirty1[s1] = dirty1.get(s1, 0) | 1 << way
                            if coherent:
                                # Contention-free ownership grab
                                # (hierarchy.upgrade, zero extra).
                                sharers[ln2] = cbit
                        done = issue + hit_lat
                        # A hit's penalty is the column's zero.
                        starts[j] = issue
                else:
                    # ----- primary miss ------------------------------
                    a = addr_at(j)
                    ln2 = a // lb2
                    if w and coherent:
                        s = sharers_get(ln2)
                        if s is not None and s != cbit:
                            # Write miss must invalidate remote
                            # sharers: structural -> fallback.
                            fb = True
                    if not fb:
                        bank_free[b1] = issue + 1
                        tick1 += 1
                        misses1 += 1
                        lru_row = lru1[s1]
                        victim = lru_row.index(min(lru_row))
                        vt = row[victim]
                        # The victim way's dirty bit becomes ``w``.
                        dm = dirty1.get(s1, 0)
                        was = dm >> victim & 1
                        if was != w:
                            dirty1[s1] = dm ^ 1 << victim
                        if was and vt >= 0:
                            # Dirty victim drains through the hierarchy
                            # (rare: only write workloads mint dirty
                            # lines).  Live-object counter — see the
                            # state-layout note.
                            l1_obj.writebacks += 1
                            wb_line = vt * sets1 + s1
                        else:
                            wb_line = -1
                        row[victim] = tg
                        lru_row[victim] = tick1
                        if wb_line >= 0:
                            # hierarchy.writeback, inlined: NoC hop,
                            # L2 bank queue, write-allocate fill at the
                            # home slice (no l2_accesses count), dirty
                            # L2 victim draining to DRAM, directory
                            # entry dropped.
                            wline = (wb_line * lb1) // lb2
                            whome = wline % n2
                            trav += 1
                            warr = issue + noc_flat[cid * n2 + whome]
                            wbf = bank_free2[whome]
                            wbank = wline % l2b
                            wfree = wbf[wbank]
                            wstart = warr if warr >= wfree else wfree
                            wbf[wbank] = wstart + 1
                            wt = tick2[whome] + 1
                            tick2[whome] = wt
                            ws2 = wline % sets2
                            wtg = wline // sets2
                            wrow = tags2[whome][ws2]
                            if wtg in wrow:
                                wway = wrow.index(wtg)
                                lru2[whome][ws2][wway] = wt
                                wdm = dirty2[whome]
                                wdm[ws2] = wdm.get(ws2, 0) | 1 << wway
                                hits2[whome] += 1
                            else:
                                misses2[whome] += 1
                                wlr = lru2[whome][ws2]
                                wv = wlr.index(min(wlr))
                                wvt = wrow[wv]
                                # The filled way is dirty: write-allocate.
                                wdm = dirty2[whome]
                                wmask = wdm.get(ws2, 0)
                                wdm[ws2] = wmask | 1 << wv
                                if wmask >> wv & 1 and wvt >= 0:
                                    wb2[whome] += 1
                                    va = (wvt * sets2 + ws2) * lb2
                                    vb = ((va // dram_row_bytes)
                                          % dram_banks)
                                    vr = va // (dram_row_bytes
                                                * dram_banks)
                                    dvf = dram_free[vb]
                                    ds = (wstart if wstart >= dvf
                                          else dvf)
                                    dwait += ds - wstart
                                    orow = dram_open[vb]
                                    if orow == vr:
                                        lat = row_hit_c
                                        drh += 1
                                    elif orow < 0:
                                        lat = row_miss_c
                                        drm += 1
                                    else:
                                        lat = row_conf_c
                                        drc += 1
                                    df = ds + lat + bus_c
                                    dram_open[vb] = vr
                                    dram_free[vb] = float(df)
                                    dreq += 1
                                    dbusy += df - ds
                                    if df > dlast:
                                        dlast = df
                                    dwr += 1
                                wrow[wv] = wtg
                                wlr[wv] = wt
                            sharers_pop(wline, None)
                        base = issue + hit_lat
                        if len(pending) < capacity1:
                            alloc = base
                        else:
                            # MSHR-full structural stall, inline:
                            # earliest_free_time's stall count, stale-
                            # pair walk and the issue-barrier update.
                            stall1 += 1
                            while heap1:
                                fill_t, ln = heap1[0]
                                if pending_get(ln) == fill_t:
                                    break
                                hpop(heap1)
                            else:
                                raise InvalidParameterError(
                                    "MSHR bookkeeping corrupt: full "
                                    "file with an empty heap")
                            nf1 = fill_t
                            alloc = base if base >= fill_t else fill_t
                            if alloc > base and alloc > barrier:
                                barrier = alloc
                        # ----- hierarchy.service_miss, inlined -------
                        home = ln2 % n2
                        # Mesh latency is symmetric: the way back costs
                        # the way out.
                        nlat = _mesh_latency(cid, home, noc_side, noc_cfg)
                        trav += 1
                        arrive = alloc + nlat
                        if coherent:
                            if w:
                                # _invalidate_sharers with no remote
                                # sharer: claim ownership, zero extra.
                                sharers[ln2] = cbit
                            else:
                                sharers[ln2] = sharers_get(ln2, 0) | cbit
                        bf2 = bank_free2[home]
                        b2 = ln2 % l2b
                        b2f = bf2[b2]
                        start = arrive if arrive >= b2f else b2f
                        bf2[b2] = start + 1
                        l2acc += 1
                        m2p = pend2[home]
                        m2h = heap2[home]
                        if m2h and m2h[0][0] <= start:
                            while m2h and m2h[0][0] <= start:
                                fill_t, ln = hpop(m2h)
                                if m2p.get(ln) == fill_t:
                                    del m2p[ln]
                        fill2 = m2p.get(ln2)
                        if fill2 is not None:
                            # Secondary miss at L2: ride the fill.
                            done2 = fill2
                            pen2 = done2 - start - hl2
                            l2rec_append(start)
                            l2rec_append(pen2 if pen2 > 0 else 0)
                        else:
                            t2 = tick2[home] + 1
                            tick2[home] = t2
                            s2 = ln2 % sets2
                            tg2 = ln2 // sets2
                            row2 = tags2[home][s2]
                            if tg2 in row2:
                                lru2[home][s2][row2.index(tg2)] = t2
                                hits2[home] += 1
                                l2h += 1
                                done2 = start + hl2
                                l2rec_append(start)
                                l2rec_append(0)
                            else:
                                misses2[home] += 1
                                lr2 = lru2[home][s2]
                                v2 = lr2.index(min(lr2))
                                vt2 = row2[v2]
                                # The filled way is clean.
                                d2 = dirty2[home]
                                d2m = d2.get(s2, 0)
                                was2 = d2m >> v2 & 1
                                if was2:
                                    d2[s2] = d2m ^ 1 << v2
                                if was2 and vt2 >= 0:
                                    wb2[home] += 1
                                    # Dirty L2 victim drains to DRAM.
                                    va = (vt2 * sets2 + s2) * lb2
                                    vb = ((va // dram_row_bytes)
                                          % dram_banks)
                                    vr = va // (dram_row_bytes
                                                * dram_banks)
                                    dvf = dram_free[vb]
                                    ds = start if start >= dvf else dvf
                                    dwait += ds - start
                                    orow = dram_open[vb]
                                    if orow == vr:
                                        lat = row_hit_c
                                        drh += 1
                                    elif orow < 0:
                                        lat = row_miss_c
                                        drm += 1
                                    else:
                                        lat = row_conf_c
                                        drc += 1
                                    df = ds + lat + bus_c
                                    dram_open[vb] = vr
                                    dram_free[vb] = float(df)
                                    dreq += 1
                                    dbusy += df - ds
                                    if df > dlast:
                                        dlast = df
                                    dwr += 1
                                row2[v2] = tg2
                                lr2[v2] = t2
                                base2 = start + hl2
                                if len(m2p) < cap2:
                                    alloc2 = base2
                                else:
                                    # L2 MSHR full: allocation stalls
                                    # until the earliest live fill
                                    # (MSHRFile.earliest_free_time).
                                    stall2[home] += 1
                                    while m2h:
                                        fill_t, ln = m2h[0]
                                        if m2p.get(ln) == fill_t:
                                            break
                                        hpop(m2h)
                                    else:
                                        raise InvalidParameterError(
                                            "MSHR bookkeeping corrupt: "
                                            "full file with an empty "
                                            "heap")
                                    alloc2 = (base2 if base2 >= fill_t
                                              else fill_t)
                                # ----- demand DRAM access ------------
                                db = (a // dram_row_bytes) % dram_banks
                                dr = a // dram_span
                                dbf = dram_free[db]
                                ds = alloc2 if alloc2 >= dbf else dbf
                                dwait += ds - alloc2
                                orow = dram_open[db]
                                if orow == dr:
                                    lat = row_hit_c
                                    drh += 1
                                elif orow < 0:
                                    lat = row_miss_c
                                    drm += 1
                                else:
                                    lat = row_conf_c
                                    drc += 1
                                df = ds + lat + bus_c
                                dram_open[db] = dr
                                dram_free[db] = float(df)
                                dreq += 1
                                dbusy += df - ds
                                if df > dlast:
                                    dlast = df
                                dram_done = int(df)
                                dramrec_append(alloc2)
                                dramrec_append(dram_done - alloc2)
                                if m2h and m2h[0][0] <= alloc2:
                                    while m2h and m2h[0][0] <= alloc2:
                                        fill_t, ln = hpop(m2h)
                                        if m2p.get(ln) == fill_t:
                                            del m2p[ln]
                                m2p[ln2] = dram_done
                                hpush(m2h, (dram_done, ln2))
                                prim2[home] += 1
                                done2 = dram_done
                                l2rec_append(start)
                                l2rec_append(done2 - start - hl2)
                        trav += 1
                        done = done2 + nlat
                        # ----- L1 MSHR allocate (retire, insert) -----
                        if nf1 <= alloc:
                            while heap1 and heap1[0][0] <= alloc:
                                fill_t, ln = hpop(heap1)
                                if pending_get(ln) == fill_t:
                                    del pending[ln]
                            nf1 = heap1[0][0] if heap1 else inf
                        pending[line] = done
                        hpush(heap1, (done, line))
                        if done < nf1:
                            nf1 = done
                        prim1 += 1
                        starts[j] = issue
                        pen = done - issue - hit_lat
                        if pen > 0:
                            pens[j] = pen
                if fb:
                    # ===== structural event: scalar fallback =========
                    # Nothing irreversible has happened for op ``j``
                    # (ROB watermark and MSHR retirement are
                    # idempotent), so CoreModel.advance re-executes it
                    # exactly.  Flush both mirrors, call, reload.
                    S[_MUT:] = (j, barrier, retire_max, last_done,
                                tick1, hits1, misses1, prim1, sec1,
                                stall1, p)
                    _flush_core(S)
                    hs.traversals = trav
                    hs.l2_accesses = l2acc
                    hs.l2_hits = l2h
                    hs.dreq = dreq
                    hs.drh = drh
                    hs.drm = drm
                    hs.drc = drc
                    hs.dbusy = dbusy
                    hs.dwait = dwait
                    hs.dlast = dlast
                    hs.dram_writes = dwr
                    hs.flush()
                    nxt = core_obj.advance(hierarchy)
                    fallbacks += 1
                    _reload_core(S)
                    hs.reload()
                    (j, barrier, retire_max, last_done, tick1, hits1,
                     misses1, prim1, sec1, stall1, p) = S[_MUT:]
                    tick2 = hs.tick2
                    hits2 = hs.hits2
                    misses2 = hs.misses2
                    wb2 = hs.wb2
                    prim2 = hs.prim2
                    stall2 = hs.stall2
                    trav = hs.traversals
                    l2acc = hs.l2_accesses
                    l2h = hs.l2_hits
                    dreq = hs.dreq
                    drh = hs.drh
                    drm = hs.drm
                    drc = hs.drc
                    dbusy = hs.dbusy
                    dwait = hs.dwait
                    dlast = hs.dlast
                    dwr = hs.dram_writes
                    nf1 = heap1[0][0] if heap1 else inf
                    if nxt is None:
                        break
                    t = nxt
                    if t < top_t or (t == top_t and cid < top_c):
                        continue
                    hpush(heap, (t, cid))
                    break
            # ===== commit bookkeeping + next-op issue bound ==========
            dones[j & dmask] = done
            if done > last_done:
                last_done = done
            j += 1
            if j >= n_ops:
                break
            nt = base_issue[j]
            if barrier > nt:
                nt = barrier
            # ROB in-order-commit watermark: the precomputed pop
            # boundary makes the drain a pointer compare (one pop in
            # steady state), folding the popped completion times into
            # the issue bound exactly as the deque drain would.
            q = pmax[j]
            if p < q:
                committed = dones[p & dmask]
                p += 1
                while p < q:
                    d = dones[p & dmask]
                    if d > committed:
                        committed = d
                    p += 1
                retire_max = committed
                if committed > nt:
                    nt = committed
            else:
                retire_max = 0
            t = nt
            # ===== epoch continuation: provably still the front ======
            if t < top_t or (t == top_t and cid < top_c):
                continue
            hpush(heap, (t, cid))
            break
        # ----- epoch end: write the scalar snapshot back -------------
        S[_MUT:] = (j, barrier, retire_max, last_done, tick1, hits1,
                    misses1, prim1, sec1, stall1, p)

    hs.traversals = trav
    hs.l2_accesses = l2acc
    hs.l2_hits = l2h
    hs.dreq = dreq
    hs.drh = drh
    hs.drm = drm
    hs.drc = drc
    hs.dbusy = dbusy
    hs.dwait = dwait
    hs.dlast = dlast
    hs.dram_writes = dwr
    for S in states:
        _flush_core(S)
    hs.flush()
    stats.fallbacks = fallbacks
    stats.epochs = epochs
    stats.ops = sum(S[16] for S in states) - fallbacks
    return stats
