"""CI chaos smoke: recovery and resume must be invisible in the results.

Two end-to-end checks over the real DSE stack (``docs/ROBUSTNESS.md``):

1. **Fault-injected sweep** — a parallel sweep through the process pool
   (:func:`~repro.dse.fabric.make_pool_evaluator`) with a seeded
   :class:`~repro.resilience.FaultPlan` (a worker crash, a transient
   failure and a 30 s stall against a 2 s unit deadline) must produce
   costs bit-identical to a fault-free serial sweep, with exactly-once
   budget charging on the wrapping
   :class:`~repro.dse.evaluate.BudgetedEvaluator`.
2. **Kill-and-resume round trip** — a checkpointed brute-force search
   is hard-killed mid-sweep in a child process
   (:class:`~repro.resilience.ExitAfter`, exit status 77), then resumed
   from the journal the corpse left behind; the resumed run must match
   an uninterrupted run bit-for-bit, including its evaluation count.

Exits non-zero with a diagnostic on any violation.  Usage::

    PYTHONPATH=src python scripts/chaos_check.py [state-dir]
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.core.params import ApplicationProfile, MachineParameters
from repro.dse.brute import brute_force_search
from repro.dse.evaluate import (
    BudgetedEvaluator,
    SurrogateEvaluator,
    batch_evaluate,
)
from repro.dse.fabric import make_pool_evaluator
from repro.dse.space import DesignSpace, Parameter
from repro.laws.gfunction import PowerLawG
from repro.obs import get_registry
from repro.resilience import (
    CRASH_EXIT_STATUS,
    ExitAfter,
    Fault,
    FaultPlan,
    FaultyEvaluator,
    RetryPolicy,
    config_token,
    load_journal,
)
from repro.runconfig import current, install

KILL_AFTER = 500  # fresh evaluations the child survives before "SIGKILL"


def _space() -> DesignSpace:
    return DesignSpace([
        Parameter("a0", (0.25, 0.5, 1.0, 2.0)),
        Parameter("a1", (0.1, 0.25, 0.5, 1.0)),
        Parameter("a2", (0.5, 1.0, 2.0, 4.0)),
        Parameter("n", (2, 8, 32, 64)),
        Parameter("issue_width", (1, 2, 4, 8)),
        Parameter("rob_size", (32, 128, 512)),
    ])


def _surrogate() -> SurrogateEvaluator:
    app = ApplicationProfile(f_seq=0.02, f_mem=0.35, concurrency=4.0,
                             g=PowerLawG(1.0))
    machine = MachineParameters(total_area=400.0, shared_area=40.0)
    return SurrogateEvaluator(app, machine)


def _fail(message: str) -> None:
    print(f"FAIL: {message}")
    sys.exit(1)


def check_faulted_sweep(state_dir: Path) -> None:
    space = _space()
    configs = [space.config_at(i) for i in range(0, space.size, 9)][:64]
    surrogate = _surrogate()
    want = batch_evaluate(surrogate, configs)

    plan = FaultPlan(seed=7, state_dir=str(state_dir / "fuse"), faults=(
        Fault(kind="crash", token=config_token(configs[11]),
              worker_only=True),
        Fault(kind="transient", token=config_token(configs[23])),
        # Twice, in workers only: a unit in flight when the crash hits
        # dies with the pool, which may burn the first stall before any
        # deadline; a unit that exhausts its attempts runs in-parent.
        Fault(kind="delay", token=config_token(configs[37]),
              delay_s=30.0, times=2, worker_only=True),
    ))
    parallel = make_pool_evaluator(
        FaultyEvaluator(surrogate, plan), workers=2, unit_size=8,
        chunk_timeout=2.0,
        retry_policy=RetryPolicy(base_delay=0.01, jitter=0.0),
        sleep=lambda s: None)
    budget = BudgetedEvaluator(parallel)
    try:
        got = budget.evaluate_batch(configs)
    finally:
        parallel.close()

    if not np.array_equal(got, want):
        _fail("fault-injected sweep is not bit-identical to the "
              "fault-free sweep")
    if budget.evaluations != len(configs) or budget.evaluations_cached:
        _fail(f"budget drift under faults: {budget.evaluations} fresh / "
              f"{budget.evaluations_cached} cached, expected "
              f"{len(configs)} / 0")
    counters = get_registry().snapshot()["counters"]
    for name in ("resilience.worker_crashes", "resilience.pool_rebuilds",
                 "resilience.chunk_timeouts", "resilience.retries"):
        if not counters.get(name):
            _fail(f"expected fault recovery to publish {name}")
    print(f"chaos sweep OK: {len(configs)} costs bit-identical under "
          f"crash+transient+delay "
          f"(crashes={counters['resilience.worker_crashes']}, "
          f"timeouts={counters['resilience.chunk_timeouts']}, "
          f"retries={counters['resilience.retries']})")


def run_child(checkpoint_dir: Path) -> None:
    """Child mode: checkpointed sweep that dies after KILL_AFTER evals."""
    install(replace(current(), checkpoint=checkpoint_dir))
    brute_force_search(_space(), ExitAfter(_surrogate(), n=KILL_AFTER),
                       batch_size=64)
    sys.exit("unreachable: ExitAfter must have killed the sweep")


def check_kill_and_resume(state_dir: Path) -> None:
    checkpoint_dir = state_dir / "checkpoints"
    env = dict(os.environ)
    src = Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, __file__, "--child", str(checkpoint_dir)],
        env=env, timeout=600)
    if proc.returncode != CRASH_EXIT_STATUS:
        _fail(f"child sweep exited {proc.returncode}, expected the "
              f"injected kill status {CRASH_EXIT_STATUS}")

    space = _space()
    _, partial, _ = load_journal(checkpoint_dir / "brute.jsonl")
    if not 0 < len(partial) < space.size:
        _fail(f"killed run journaled {len(partial)} evaluations, "
              f"expected a partial ledger")

    baseline = brute_force_search(space, _surrogate())
    previous = install(replace(current(), checkpoint=checkpoint_dir,
                               resume=True))
    resumed = brute_force_search(space, _surrogate())
    install(previous)

    if (resumed.best_config != baseline.best_config
            or resumed.best_cost != baseline.best_cost):
        _fail("resumed search result differs from the uninterrupted run")
    if resumed.evaluations != baseline.evaluations:
        _fail(f"resumed run charged {resumed.evaluations} evaluations, "
              f"uninterrupted run charged {baseline.evaluations}")
    _, evals, _ = load_journal(checkpoint_dir / "brute.jsonl")
    if len(evals) != baseline.evaluations:
        _fail(f"healed journal ledgers {len(evals)} evaluations, "
              f"expected {baseline.evaluations}")
    print(f"kill-and-resume OK: killed at {len(partial)} journaled "
          f"evals, resumed to the same optimum with "
          f"{resumed.evaluations} exactly-once charges")


def main(argv: "list[str]") -> int:
    if len(argv) >= 2 and argv[1] == "--child":
        run_child(Path(argv[2]))
        return 1  # unreachable
    state_dir = (Path(argv[1]) if len(argv) > 1
                 else Path(tempfile.mkdtemp(prefix="chaos-")))
    state_dir.mkdir(parents=True, exist_ok=True)
    check_faulted_sweep(state_dir)
    check_kill_and_resume(state_dir)
    print("chaos smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
