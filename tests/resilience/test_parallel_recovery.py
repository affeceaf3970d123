"""The process pool under injected faults: recovery must be invisible.

A sweep through :class:`~repro.dse.fabric.FabricEvaluator` that loses
workers, times out units, or sees transient failures must hand back
results bit-identical to a fault-free run, with exactly-once budget
charging on the wrapping ``BudgetedEvaluator``.
"""

from __future__ import annotations

import pytest

from repro.dse.evaluate import BudgetedEvaluator, batch_evaluate
from repro.dse.fabric import FabricEvaluator, config_shard, owner_of_shard
from repro.errors import DeadlineExceededError, FatalError
from repro.resilience import (
    Deadline,
    Fault,
    FaultPlan,
    FaultyEvaluator,
    RetryPolicy,
    config_token,
)

NO_JITTER = RetryPolicy(max_attempts=3, base_delay=0.01, jitter=0.0)


@pytest.fixture
def sweep(configs):
    """A deterministic 48-point sweep: several units per slot."""
    return configs[:48]


def _plan(tmp_path, *faults) -> FaultPlan:
    return FaultPlan(seed=5, state_dir=str(tmp_path / "fuse"),
                     faults=tuple(faults))


def _pool(inner, **kwargs) -> FabricEvaluator:
    kwargs = {"workers": 2, "unit_size": 8, "retry_policy": NO_JITTER,
              "sleep": lambda s: None, **kwargs}
    return FabricEvaluator(inner, **kwargs)


class TestWorkerCrashRecovery:
    def test_broken_pool_mid_sweep_is_bit_identical(
            self, tmp_path, surrogate, sweep, fresh_registry):
        want = batch_evaluate(surrogate, sweep)
        victim = sweep[17]
        plan = _plan(tmp_path, Fault(kind="crash",
                                     token=config_token(victim),
                                     worker_only=True))
        parallel = _pool(FaultyEvaluator(surrogate, plan))
        budget = BudgetedEvaluator(parallel)
        try:
            got = budget.evaluate_batch(sweep)
        finally:
            parallel.close()
        assert (got == want).all()
        # Exactly-once: every point charged once, none lost or doubled.
        assert budget.evaluations == len(sweep)
        assert budget.evaluations_cached == 0
        counters = fresh_registry.snapshot()["counters"]
        assert counters["dse.evaluations"] == len(sweep)
        assert counters["resilience.worker_crashes"] >= 1
        assert counters["resilience.pool_rebuilds"] >= 1

    def test_one_crash_counts_every_lost_unit(
            self, tmp_path, surrogate, sweep, fresh_registry):
        # Head of each slot's backlog: slot 0's first unit crashes its
        # worker at once while slot 1's first unit is still stalled, so
        # one crash loses both in-flight units in the same round.
        owners = [owner_of_shard(config_shard(surrogate, c), 2)
                  for c in sweep]
        crasher = sweep[owners.index(0)]
        staller = sweep[owners.index(1)]
        plan = _plan(tmp_path,
                     Fault(kind="crash", token=config_token(crasher),
                           worker_only=True),
                     Fault(kind="delay", token=config_token(staller),
                           delay_s=2.0, worker_only=True))
        parallel = _pool(FaultyEvaluator(surrogate, plan))
        try:
            got = parallel.evaluate_batch(sweep)
        finally:
            parallel.close()
        assert (got == batch_evaluate(surrogate, sweep)).all()
        counters = fresh_registry.snapshot()["counters"]
        assert counters["resilience.pool_rebuilds"] == 1
        assert counters["resilience.worker_crashes"] == 2
        # One resubmission per lost unit, not one per recovery round.
        assert counters["resilience.retries"] == 2
        assert counters.get("resilience.serial_fallbacks", 0) == 0

    def test_persistent_crasher_degrades_to_serial(
            self, tmp_path, surrogate, sweep, fresh_registry):
        want = batch_evaluate(surrogate, sweep)
        victim = sweep[9]
        # times=None: the unit can never survive a pool attempt.
        plan = _plan(tmp_path, Fault(kind="crash",
                                     token=config_token(victim),
                                     times=None, worker_only=True))
        policy = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)
        parallel = _pool(FaultyEvaluator(surrogate, plan),
                         retry_policy=policy)
        try:
            got = parallel.evaluate_batch(sweep)
        finally:
            parallel.close()
        assert (got == want).all()
        counters = fresh_registry.snapshot()["counters"]
        assert counters["resilience.serial_fallbacks"] >= 1
        assert counters["resilience.worker_crashes"] >= 2

    def test_close_survives_a_broken_pool(self, tmp_path, surrogate,
                                          sweep):
        parallel = _pool(surrogate)
        parallel.evaluate_batch(sweep)   # spin the pool up
        pool = parallel._pool
        assert pool is not None
        for proc in pool._processes.values():
            proc.terminate()
        parallel.close()                 # must not raise
        parallel.close()                 # idempotent


class TestTransientAndTimeout:
    def test_transient_chunk_retried_without_rebuild(
            self, tmp_path, surrogate, sweep, fresh_registry):
        want = batch_evaluate(surrogate, sweep)
        victim = sweep[5]
        plan = _plan(tmp_path, Fault(kind="transient",
                                     token=config_token(victim), times=2))
        sleeps: list[float] = []
        parallel = _pool(FaultyEvaluator(surrogate, plan),
                         sleep=sleeps.append)
        try:
            got = parallel.evaluate_batch(sweep)
        finally:
            parallel.close()
        assert (got == want).all()
        counters = fresh_registry.snapshot()["counters"]
        assert counters["resilience.retries"] == 2
        assert counters.get("resilience.pool_rebuilds", 0) == 0
        # Backoff follows the policy's deterministic schedule.
        assert sleeps == [NO_JITTER.delay(1), NO_JITTER.delay(2)]

    def test_chunk_timeout_recovers(self, tmp_path, surrogate, sweep,
                                    fresh_registry):
        want = batch_evaluate(surrogate, sweep)
        victim = sweep[3]
        plan = _plan(tmp_path, Fault(kind="delay",
                                     token=config_token(victim),
                                     delay_s=30.0))
        parallel = _pool(FaultyEvaluator(surrogate, plan), chunk_timeout=1.0)
        try:
            got = parallel.evaluate_batch(sweep)
        finally:
            parallel.close()
        assert (got == want).all()
        counters = fresh_registry.snapshot()["counters"]
        assert counters["resilience.chunk_timeouts"] >= 1
        assert counters["resilience.pool_rebuilds"] >= 1

    def test_expired_deadline_raises_without_sleeping(
            self, tmp_path, surrogate, sweep):
        now = [0.0]
        deadline = Deadline(5.0, clock=lambda: now[0])
        now[0] = 10.0
        plan = _plan(tmp_path, Fault(kind="transient",
                                     token=config_token(sweep[5])))
        sleeps: list[float] = []
        parallel = _pool(FaultyEvaluator(surrogate, plan),
                         sleep=sleeps.append, deadline=deadline)
        try:
            with pytest.raises(DeadlineExceededError):
                parallel.evaluate_batch(sweep)
        finally:
            parallel.close()
        assert sleeps == []

    def test_fatal_fault_propagates(self, tmp_path, surrogate, sweep):
        plan = _plan(tmp_path, Fault(kind="fatal",
                                     token=config_token(sweep[0])))
        parallel = _pool(FaultyEvaluator(surrogate, plan))
        try:
            with pytest.raises(FatalError):
                parallel.evaluate_batch(sweep)
        finally:
            parallel.close()


class TestSerialPaths:
    def test_workers_1_batch_retries_inline(self, tmp_path, surrogate,
                                            sweep, fresh_registry):
        want = batch_evaluate(surrogate, sweep[:8])
        plan = _plan(tmp_path, Fault(kind="transient",
                                     token=config_token(sweep[2])))
        sleeps: list[float] = []
        parallel = _pool(FaultyEvaluator(surrogate, plan), workers=1,
                         sleep=sleeps.append)
        got = parallel.evaluate_batch(sweep[:8])
        parallel.close()
        assert (got == want).all()
        assert sleeps == [NO_JITTER.delay(1)]
        assert fresh_registry.snapshot()["counters"][
            "resilience.retries"] == 1

    def test_scalar_evaluate_retries(self, tmp_path, surrogate, sweep):
        config = sweep[0]
        plan = _plan(tmp_path, Fault(kind="transient",
                                     token=config_token(config)))
        parallel = _pool(FaultyEvaluator(surrogate, plan), workers=1)
        assert parallel.evaluate(config) == float(
            surrogate.evaluate(config))
        parallel.close()
