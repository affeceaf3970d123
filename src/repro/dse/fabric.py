"""The sweep fabric: the one process pool every pooled DSE path uses.

A fixed carving of a batch into ordered chunks lets one slow chunk
serialize the tail of a sweep — the exact straggler pathology the
paper's own concurrency-over-capacity lens (C-AMAT) warns about in
memory systems.  :class:`FabricEvaluator` schedules by *shard routing
plus stealing* instead:

1. **Key once, evaluate each key once** — the parent keys the whole
   batch in one pass (:func:`config_keys`).  When the inner evaluator
   exposes ``cache_keys_for``/``cache_key_for`` (the simulator path) the
   key is the content address the store persists the cost under, whose
   contract is that equal keys mean equal costs; otherwise it is a hash
   of the canonical configuration.  Only the first configuration of
   each key is dispatched, and its cost is copied to every duplicate
   index (a simulated sweep over ``a0``, which the simulator ignores,
   asks for each chip many times).
2. **Deterministic routing** — every key names one of the
   :data:`~repro.sim.cache_store.SHARD_COUNT` shards
   (:func:`~repro.sim.cache_store.shard_of_key`; on the simulator path
   the *store's own* hash prefix), and each worker slot's backlog starts
   as a contiguous shard range (:func:`owner_of_shard`).  Routing is
   scheduling only: it places work and re-queues lost units; it is not
   a write permission.
3. **Work-stealing** — each slot drains its own backlog in input order;
   an idle slot steals the *tail half* of the largest remaining backlog
   (``dse.fabric.steals`` counter, ``dse.fabric.steal`` trace events),
   so a straggler shard is finished by everyone instead of serializing
   the sweep.  ``steal=False`` is the fixed-routing case: each slot
   only ever drains its own shard range.
4. **Ordered reassembly** — results land by original batch index, so
   costs are bit-identical for any steal schedule, worker count, or
   crash/recovery sequence (every evaluator is a pure function of the
   configuration).  ``tests/dse/test_fabric.py`` and
   ``scripts/fabric_equivalence_check.py`` prove workers=1 ≡ workers=N ≡
   forced-steal ≡ kill-and-resume.

Tiered-cache integration: workers receive the inner evaluator with its
store re-scoped (:meth:`~repro.sim.cache_store.SimCacheStore.scoped`)
to a write-behind buffer, and each task flushes the buffer before
returning, so whichever worker simulates a key persists it.  Entries
are content-addressed and written by temp file plus ``os.replace``, so
concurrent writers of one key need no coordination, and a warm pass
writes nothing.

Fault tolerance: a unit lost to a dead worker, a missed
``chunk_timeout`` or a pickled-back :class:`~repro.errors.TransientError`
is re-queued at the front of its owner's backlog on a rebuilt pool up to
``retry_policy.max_attempts`` attempts, then degrades to exact serial
in-parent evaluation, so one poisoned input cannot sink a sweep.
:class:`~repro.errors.FatalError` (and any exception outside the
taxonomy) propagates immediately.  Every step is published through the
``resilience.*`` counters.
"""

from __future__ import annotations

import copy
import hashlib
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    CancelledError,
    ProcessPoolExecutor,
    wait,
)
from typing import Callable, Sequence

import numpy as np

from repro.dse.evaluate import batch_evaluate, canonical_key, is_feasible
from repro.errors import (
    DeadlineExceededError,
    DesignSpaceError,
    ReproError,
    TransientError,
)
from repro.obs import get_registry, get_tracer
from repro.resilience.policy import Deadline, RetryPolicy, retry_call
from repro.sim.cache_store import SHARD_COUNT, SimCacheStore, shard_of_key

__all__ = ["FabricEvaluator", "config_keys", "config_shard",
           "make_pool_evaluator", "owner_of_shard"]


def config_keys(evaluator, configs: Sequence[dict]) -> "list[str]":
    """Content address of every configuration under an evaluator, in one
    pass.

    Prefers the evaluator's own keys — a batch ``cache_keys_for``, else
    a per-configuration ``cache_key_for`` (the simulator path) — so
    fabric routing follows the disk shards.  Evaluators
    without either fall back to a SHA-256 of the canonical
    configuration: just as deterministic, merely unrelated to any
    on-disk layout.  Either way equal keys mean equal costs, which is
    what lets :meth:`FabricEvaluator.evaluate_batch` evaluate each key
    once.
    """
    batch = getattr(evaluator, "cache_keys_for", None)
    if batch is not None:
        return list(batch(configs))
    hook = getattr(evaluator, "cache_key_for", None)
    if hook is not None:
        return [hook(c) for c in configs]
    return [hashlib.sha256(repr(canonical_key(c)).encode()).hexdigest()
            for c in configs]


def config_shard(evaluator, config: dict) -> int:
    """Deterministic shard index of a configuration under an evaluator
    (the shard of its :func:`config_keys` key)."""
    return shard_of_key(config_keys(evaluator, [config])[0])


def owner_of_shard(shard: int, workers: int) -> int:
    """The worker slot a shard's work is routed to: contiguous ranges,
    load-balanced.

    Slot ``w`` gets shards ``[ceil(w*S/W), ceil((w+1)*S/W))`` — every
    shard has exactly one slot for any worker count.
    """
    return shard * workers // SHARD_COUNT


def _evaluate_unit(evaluator,
                   configs: list) -> "tuple[list[float], float, float]":
    """Worker-side unit of work: scalar-evaluate in order, then flush.

    Module-level so the pool can pickle it.  The trailing flush matters:
    the worker evaluator carries a write-behind store whose buffer would
    die with the task otherwise.

    Returns ``(costs, t_start, exec_s)``: ``t_start`` is the worker's
    ``perf_counter`` reading when it picked the task up and ``exec_s``
    the pure evaluation time.  On Linux ``perf_counter`` is
    ``CLOCK_MONOTONIC`` — comparable across processes — which lets the
    parent split submit-to-result latency into queue-wait, execute and
    IPC components (clamped to zero where the clocks disagree).
    """
    t_start = time.perf_counter()
    costs = [float(evaluator.evaluate(c)) for c in configs]
    store = getattr(evaluator, "cache", None)
    flush = getattr(store, "flush", None)
    if flush is not None:
        flush()
    return costs, t_start, time.perf_counter() - t_start


def make_pool_evaluator(inner, *, workers: int = 1,
                        **kwargs) -> "FabricEvaluator":
    """The pooled wrapper for ``inner``: a :class:`FabricEvaluator`.

    Extra keyword arguments pass through to the fabric.
    """
    return FabricEvaluator(inner, workers=workers, **kwargs)


def _worker_evaluator(inner, write_behind: int):
    """The inner evaluator as shipped to the workers.

    When it carries a :class:`~repro.sim.cache_store.SimCacheStore`, the
    workers get a shallow copy whose store is scoped to a write-behind
    buffer; other evaluators ship as-is.
    """
    store = getattr(inner, "cache", None)
    if not isinstance(store, SimCacheStore):
        return inner
    evaluator = copy.copy(inner)
    evaluator.cache = store.scoped(write_behind=write_behind)
    return evaluator


class FabricEvaluator:
    """Shard-routed, work-stealing process-pool evaluator.

    Parameters
    ----------
    inner:
        The wrapped evaluator (pickled with each unit; must be picklable
        when ``workers > 1``).
    workers:
        Worker-slot count (default 1).  With one worker batches run
        inline (no pool, no shards — still bit-identical).
    steal:
        Enable work-stealing (default).  Disabled, each slot only ever
        drains its own shard range — stragglers serialize again, which
        is exactly the fixed-routing leg the equivalence suite
        compares.
    unit_size:
        Configurations per pool task.  ``None`` picks
        ``ceil(len(batch) / (16 * workers))`` — small units keep steals
        meaningful.  ``1`` forces maximal stealing (the differential
        suite's adversarial leg).
    write_behind:
        Write-behind buffer size of the workers' scoped store (``0``
        restores write-through in the workers).
    retry_policy:
        Governs unit resubmission after worker crashes / timeouts /
        transient errors (default
        :class:`~repro.resilience.policy.RetryPolicy`).
    chunk_timeout:
        Per-unit deadline in seconds from submission; a unit that does
        not complete in time is treated as lost (the pool is killed and
        rebuilt — running tasks cannot be cancelled) and re-queued.
        ``None`` waits forever.
    sleep:
        Backoff hook between recovery rounds — injectable so tests run
        instantly while recording the deterministic schedule.
    deadline:
        Optional overall time budget (a job's, when the server runs
        sweeps): retry backoffs are clamped to it and recovery stops at
        expiry with :class:`~repro.errors.DeadlineExceededError` instead
        of sleeping past it.

    The pool is created lazily on the first pooled batch and reused
    until :meth:`close` (also a context manager).
    """

    def __init__(self, inner, *, workers: int = 1,
                 steal: bool = True, unit_size: "int | None" = None,
                 write_behind: int = 64,
                 retry_policy: "RetryPolicy | None" = None,
                 chunk_timeout: "float | None" = None,
                 sleep: Callable[[float], None] = time.sleep,
                 deadline: "Deadline | None" = None) -> None:
        if workers < 1:
            raise DesignSpaceError(f"workers must be >= 1, got {workers}")
        self.inner = inner
        self.workers = int(workers)
        if unit_size is not None and unit_size < 1:
            raise DesignSpaceError(
                f"unit size must be >= 1, got {unit_size}")
        if write_behind < 0:
            raise DesignSpaceError(
                f"write_behind must be >= 0, got {write_behind}")
        if chunk_timeout is not None and chunk_timeout <= 0:
            raise DesignSpaceError(
                f"chunk timeout must be > 0 or None, got {chunk_timeout}")
        self.steal = bool(steal)
        self.unit_size = unit_size
        self.write_behind = int(write_behind)
        self.retry_policy = (retry_policy if retry_policy is not None
                             else RetryPolicy())
        self.chunk_timeout = chunk_timeout
        self.deadline = deadline
        self._sleep = sleep
        self._pool: "ProcessPoolExecutor | None" = None
        self._worker = _worker_evaluator(inner, self.write_behind)
        registry = get_registry()
        self._ctr_steals = registry.counter("dse.fabric.steals")
        self._ctr_units = registry.counter("dse.fabric.units")
        self._ctr_timeouts = registry.counter("resilience.chunk_timeouts")
        self._ctr_crashes = registry.counter("resilience.worker_crashes")
        self._ctr_rebuilds = registry.counter("resilience.pool_rebuilds")
        self._ctr_serial = registry.counter("resilience.serial_fallbacks")
        self._ctr_retries = registry.counter("resilience.retries")

    # ---- evaluator protocol ----------------------------------------------

    def evaluate(self, config: dict) -> float:
        """Scalar pass-through (no pool round-trip for one point).

        Transient failures retry in-process under the evaluator's
        policy; fatal ones propagate.
        """
        return retry_call(lambda: float(self.inner.evaluate(config)),
                          policy=self.retry_policy, sleep=self._sleep,
                          deadline=self.deadline, what="scalar evaluation")

    def is_feasible(self, config: dict) -> bool:
        """Delegates to the wrapped evaluator's design-rule check."""
        return is_feasible(self.inner, config)

    def evaluate_batch(self, configs: Sequence[dict]) -> np.ndarray:
        """Costs of ``configs`` in input order, fabric-scheduled.

        Each distinct key (:func:`config_keys`) is evaluated once, by its
        first configuration; duplicates receive a copy of its cost.
        """
        configs = list(configs)
        if not configs:
            return np.empty(0, dtype=float)
        position: "dict[str, int]" = {}
        unique: "list[dict]" = []
        fan_out: "list[int]" = []
        for key, config in zip(config_keys(self.inner, configs), configs):
            j = position.get(key)
            if j is None:
                j = position[key] = len(unique)
                unique.append(config)
            fan_out.append(j)
        if self.workers == 1:
            costs = self._serial_batch(unique, what="inline batch")
        else:
            costs = self._run_fabric(unique, list(position))
        return costs if len(unique) == len(configs) else costs[fan_out]

    def _serial_batch(self, configs: list, *, what: str) -> np.ndarray:
        """In-parent batch with transient-failure retries."""
        return retry_call(lambda: batch_evaluate(self.inner, configs),
                          policy=self.retry_policy, sleep=self._sleep,
                          deadline=self.deadline, what=what)


    # ---- scheduling core --------------------------------------------------

    def _run_fabric(self, configs: list, keys: "list[str]") -> np.ndarray:
        """Drain every slot's backlog through the pool, recovering lost
        units.

        ``keys`` are the configurations' distinct content addresses.

        A unit is lost when its worker dies, when it misses
        ``chunk_timeout``, or when it raises a transient error.  A dead
        worker or a missed timeout kills and rebuilds the pool, and every
        unit still in flight on it is lost with it (charged an attempt
        collaterally — the bound still holds because the fallback is
        exact serial evaluation).  Units that exhaust
        ``retry_policy.max_attempts`` pool attempts are evaluated
        in-parent once the pool has drained.
        """
        tracer = get_tracer()
        n = len(configs)
        shards = [shard_of_key(key) for key in keys]
        out = np.empty(n, dtype=float)
        unit = self.unit_size
        if unit is None:
            unit = max(1, -(-n // (16 * self.workers)))
        backlogs: "list[deque[int]]" = [deque() for _ in range(self.workers)]
        for i, shard in enumerate(shards):
            backlogs[owner_of_shard(shard, self.workers)].append(i)
        attempts = [0] * n
        serial_queue: "list[int]" = []
        lost: "list[tuple[int, list[int]]]" = []
        free = set(range(self.workers))
        inflight: dict = {}
        t_done: dict = {}

        def settle(fut) -> bool:
            """Collect one resolved unit; True when it died with its pool."""
            slot, indices, t_submit = inflight.pop(fut)
            free.add(slot)
            try:
                costs, t_start, exec_s = fut.result()
            except (BrokenExecutor, CancelledError):
                self._ctr_crashes.inc()
                tracer.event("resilience.chunk_lost", chunk=slot,
                             reason="crash")
                lost.append((slot, indices))
                return True
            except TransientError:
                tracer.event("resilience.chunk_lost", chunk=slot,
                             reason="transient")
                lost.append((slot, indices))
                return False
            for i, cost in zip(indices, costs):
                out[i] = cost
            self._record_unit_timing(slot, len(indices), t_submit,
                                     t_done.get(fut), t_start, exec_s)
            return False

        round_no = 0
        pool = self._ensure_pool()
        while True:
            for slot in sorted(free):
                indices = self._next_unit(slot, backlogs, unit, tracer)
                if not indices:
                    continue
                t_submit = time.perf_counter()
                fut = pool.submit(_evaluate_unit, self._worker,
                                  [configs[i] for i in indices])
                fut.add_done_callback(
                    lambda f: t_done.setdefault(f, time.perf_counter()))
                inflight[fut] = (slot, indices, t_submit)
                free.discard(slot)
                self._ctr_units.inc()
            if not inflight:
                break
            done, _pending = wait(list(inflight),
                                  timeout=self._wait_s(inflight),
                                  return_when=FIRST_COMPLETED)
            need_rebuild = any([settle(fut) for fut in done])
            if self.chunk_timeout is not None:
                now = time.perf_counter()
                for fut, (slot, indices, t_submit) in list(inflight.items()):
                    if now - t_submit >= self.chunk_timeout:
                        del inflight[fut]
                        free.add(slot)
                        self._ctr_timeouts.inc()
                        tracer.event("resilience.chunk_lost", chunk=slot,
                                     reason="timeout")
                        lost.append((slot, indices))
                        need_rebuild = True
            if need_rebuild:
                # Killing the pool ends every unit still in flight on it;
                # the reap resolves their futures, so collect them now
                # rather than let them break the rebuilt pool later.
                self._teardown_pool(kill=True)
                self._ctr_rebuilds.inc()
                for fut in list(inflight):
                    settle(fut)
                pool = self._ensure_pool()
            if lost:
                round_no += 1
                self._recover(lost, attempts, shards, backlogs, serial_queue,
                              round_no, tracer)
                lost.clear()
        if serial_queue:
            order = sorted(serial_queue)
            costs = self._serial_batch([configs[i] for i in order],
                                       what="serial fallback")
            for i, cost in zip(order, costs):
                out[i] = cost
        return out

    def _wait_s(self, inflight: dict) -> "float | None":
        """How long the scheduler may block before the oldest in-flight
        unit misses ``chunk_timeout`` (``None``: no timeout)."""
        if self.chunk_timeout is None:
            return None
        oldest = min(t_submit for _slot, _indices, t_submit
                     in inflight.values())
        return max(0.0, oldest + self.chunk_timeout - time.perf_counter())

    def _recover(self, lost: "list[tuple[int, list[int]]]",
                 attempts: "list[int]", shards: "list[int]",
                 backlogs: "list[deque[int]]", serial_queue: "list[int]",
                 round_no: int, tracer) -> None:
        """One recovery round: charge every lost unit an attempt, then
        re-queue it or degrade it to serial, and back off.

        ``resilience.retries`` counts each re-queued unit and
        ``resilience.serial_fallbacks`` each unit degraded to in-parent
        evaluation.  The backoff is checked against the deadline first:
        when it would outlive the job, raise instead of sleeping.
        """
        policy = self.retry_policy
        requeued = 0
        for slot, indices in lost:
            for i in indices:
                attempts[i] += 1
            retry = [i for i in indices if attempts[i] < policy.max_attempts]
            spent = [i for i in indices if attempts[i] >= policy.max_attempts]
            if retry:
                requeued += 1
                self._ctr_retries.inc()
                # Lost work goes back to the FRONT of its owner's
                # backlog (reversed appendleft preserves order), so
                # recovery never reorders evaluation within a shard.
                for i in reversed(retry):
                    backlogs[owner_of_shard(
                        shards[i], self.workers)].appendleft(i)
            if spent:
                self._ctr_serial.inc()
                tracer.event("resilience.serial_fallback", chunk=slot,
                             attempts=policy.max_attempts)
                serial_queue.extend(spent)
        if not requeued:
            return
        delay = policy.delay(round_no)
        remaining = (self.deadline.remaining()
                     if self.deadline is not None else None)
        if remaining is not None and delay >= remaining:
            raise DeadlineExceededError(
                f"job deadline expires before {requeued} lost unit(s) "
                "could be resubmitted",
                timeout_s=self.deadline.timeout_s)
        with tracer.span("resilience.backoff", round=round_no,
                         chunks=requeued):
            self._sleep(delay)

    def _next_unit(self, slot: int, backlogs: "list[deque[int]]",
                   unit: int, tracer) -> "list[int]":
        """Pop the next unit for a slot, stealing first when idle.

        Stealing takes the *tail* half of the largest backlog (ties →
        lowest victim slot), so the victim keeps draining its head in
        input order while the thief works the far end.
        """
        own = backlogs[slot]
        if not own and self.steal:
            victim = -1
            largest = 0
            for v, backlog in enumerate(backlogs):
                if v != slot and len(backlog) > largest:
                    largest = len(backlog)
                    victim = v
            if victim >= 0:
                move = max(1, largest // 2)
                stolen = [backlogs[victim].pop() for _ in range(move)]
                stolen.reverse()
                own.extend(stolen)
                self._ctr_steals.inc()
                tracer.event("dse.fabric.steal", thief=slot, victim=victim,
                             moved=move)
        take = min(unit, len(own))
        return [own.popleft() for _ in range(take)]

    def _record_unit_timing(self, slot: int, size: int, t_submit: float,
                            t_done: "float | None", t_start: float,
                            exec_s: float) -> None:
        """Attribute one completed unit's latency to three spans.

        ``dse.chunk.queue_wait`` (submit to worker pick-up),
        ``dse.chunk.execute`` (worker-side evaluation) and
        ``dse.chunk.ipc`` (the remainder of submit-to-result: task and
        result pickling plus result-queue transit).  All three are
        parented under the live ``dse.batch`` span; no-ops while
        tracing is disabled.
        """
        tracer = get_tracer()
        if not tracer.enabled:
            return
        queue_wait = max(0.0, t_start - t_submit)
        exec_s = max(0.0, exec_s)
        tracer.record_span("dse.chunk.queue_wait", queue_wait,
                           chunk=slot, size=size)
        tracer.record_span("dse.chunk.execute", exec_s,
                           chunk=slot, size=size)
        if t_done is not None:
            ipc = max(0.0, (t_done - t_submit) - queue_wait - exec_s)
            tracer.record_span("dse.chunk.ipc", ipc,
                               chunk=slot, size=size)

    # ---- pool lifecycle ---------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def _teardown_pool(self, *, kill: bool = False) -> None:
        """Shut the current pool down, hard-stopping workers if asked.

        ``ProcessPoolExecutor`` cannot cancel a running task, so after a
        timeout the only way to reclaim the worker is to terminate it;
        ``shutdown`` then reaps processes and queue threads so nothing
        leaks across rebuilds.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        if kill:
            procs = getattr(pool, "_processes", None) or {}
            for proc in list(procs.values()):
                if proc.is_alive():
                    proc.terminate()
        try:
            pool.shutdown(wait=True, cancel_futures=True)
        except (OSError, RuntimeError):
            # A pool whose workers died mid-shutdown can raise while
            # reaping; the processes are gone either way.
            pass

    def close(self) -> None:
        """Shut the pool down and flush the inner evaluator's cache
        buffer (idempotent, broken-pool safe) — a graceful stop must
        not strand write-behind entries in memory."""
        self._teardown_pool()
        store = getattr(self.inner, "cache", None)
        flush = getattr(store, "flush", None)
        if flush is not None:
            flush()

    def __enter__(self) -> "FabricEvaluator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC-time best effort
        try:
            self.close()
        except (ReproError, OSError, RuntimeError):
            # Interpreter teardown: modules may be half-gone; anything
            # else (e.g. KeyboardInterrupt) should surface.
            pass
