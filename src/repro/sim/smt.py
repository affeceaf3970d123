"""Simultaneous multithreading (SMT) core model.

Paper Section II-A: "out-of-order execution, multi-issue pipeline,
multi-threading and chip multiprocessor (CMP) can all increase C_H and
C_M."  The SMT core realizes the multi-threading mechanism: ``T``
hardware threads share one L1 (tags, banks and MSHRs) and the core's
issue bandwidth, while each thread keeps a private ROB partition — so a
thread stalled on a miss does not block its siblings, whose accesses
overlap with the outstanding miss and raise the measured concurrency.

Modeling choices:

- issue bandwidth is statically partitioned (``issue_width / T`` per
  thread, at least 1) — the common fetch-policy simplification;
- the ROB is split evenly across threads;
- the shared L1/MSHR/bank state is exactly the single-thread machinery
  of :class:`repro.sim.core.CoreModel`, instantiated once and shared.
"""

from __future__ import annotations

from array import array
from typing import Sequence

import numpy as np

from repro.errors import SimulationError
from repro.sim.cache import SetAssociativeCache
from repro.sim.config import CacheConfig, CoreMicroConfig
from repro.sim.core import CoreModel, CoreResult
from repro.sim.hierarchy import MemoryHierarchy
from repro.sim.mshr import MSHRFile

__all__ = ["SMTCoreModel"]


class SMTCoreModel:
    """``T`` hardware threads multiplexed onto one physical core.

    Presents the same event-loop interface as
    :class:`repro.sim.core.CoreModel` (``done`` / ``peek_issue_time`` /
    ``step`` / ``result``), so the CMP simulator drives both uniformly.
    """

    def __init__(self, core_id: int, micro: CoreMicroConfig,
                 l1_config: CacheConfig,
                 thread_streams: Sequence[tuple]) -> None:
        if not thread_streams:
            raise SimulationError("need at least one thread stream")
        n_threads = len(thread_streams)
        if n_threads != micro.smt_threads:
            raise SimulationError(
                f"core configured for {micro.smt_threads} threads, "
                f"got {n_threads} streams")
        self.core_id = core_id
        self.micro = micro
        self.l1 = SetAssociativeCache(l1_config)
        self._mshr = MSHRFile(l1_config.mshr_entries)
        self._banks = [0] * l1_config.banks
        per_thread_width = max(micro.issue_width // n_threads, 1)
        per_thread_rob = max(micro.rob_size // n_threads, 1)
        thread_micro = CoreMicroConfig(
            issue_width=micro.issue_width,
            rob_size=per_thread_rob,
            smt_threads=1)
        self.threads = [
            CoreModel(core_id, thread_micro, l1_config, *stream,
                      shared_l1=self.l1, shared_mshr=self._mshr,
                      shared_banks=self._banks,
                      issue_width_override=per_thread_width)
            for stream in thread_streams
        ]

    @property
    def mshr(self) -> MSHRFile:
        """The core's (thread-shared) MSHR file."""
        return self._mshr

    # ----- event-loop interface -------------------------------------------
    @property
    def done(self) -> bool:
        """Whether every thread has drained."""
        return all(t.done for t in self.threads)

    def peek_issue_time(self) -> int:
        """Earliest issuable next op across threads."""
        times = [t.peek_issue_time() for t in self.threads if not t.done]
        if not times:
            raise SimulationError("core already finished")
        return min(times)

    def step(self, hierarchy: MemoryHierarchy) -> int:
        """Advance the thread with the earliest issuable op."""
        ready = [(t.peek_issue_time(), i)
                 for i, t in enumerate(self.threads) if not t.done]
        if not ready:
            raise SimulationError("core already finished")
        _, pick = min(ready)
        return self.threads[pick].step(hierarchy)

    def advance(self, hierarchy: MemoryHierarchy) -> "int | None":
        """Process one op; returns the next op's issue bound (or None)."""
        self.step(hierarchy)
        if self.done:
            return None
        return self.peek_issue_time()

    # ----- results ----------------------------------------------------------
    def result(self) -> CoreResult:
        """Merged per-core result (records interleaved by start cycle).

        Thread columns are concatenated in thread order and merged by a
        stable sort on start, so equal starts keep thread order.
        """
        parts = [t.result() for t in self.threads]
        starts = np.concatenate(
            [np.frombuffer(p.starts, dtype=np.int64) for p in parts])
        penalties = np.concatenate(
            [np.frombuffer(p.penalties, dtype=np.int64) for p in parts])
        order = np.argsort(starts, kind="stable")
        return CoreResult(
            core_id=self.core_id,
            instructions=sum(p.instructions for p in parts),
            mem_ops=sum(p.mem_ops for p in parts),
            finish_cycle=max(p.finish_cycle for p in parts),
            l1_hits=self.l1.hits,
            l1_misses=self.l1.misses,
            starts=array("q", starts[order].tobytes()),
            penalties=array("q", penalties[order].tobytes()),
            hit_latency=self.l1.config.hit_latency,
            prefetches_issued=sum(p.prefetches_issued for p in parts),
            prefetches_useful=sum(p.prefetches_useful for p in parts),
        )
