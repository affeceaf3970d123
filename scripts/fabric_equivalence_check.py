"""CI check: the sweep fabric never changes a swept cost, anywhere.

Runs two fixed design sweeps through every scheduling regime the fabric
supports — inline (one slot), stealing on, stealing forced (``unit_size=1``
on the points whose keys all route to one slot, so the other slots start
idle and steal in the first scheduling round, however fast the workers
run), stealing disabled (fixed ownership), a mid-sweep worker crash, and a
journaled kill-then-resume round trip — and asserts every cost array is
bit-identical (``np.array_equal`` on raw float64, no tolerance) to a
plain per-point loop, with identical ``dse.evaluations`` accounting.  The steal schedule, crash
recovery and resume replay must all be invisible in the results
(``docs/DSE_PERFORMANCE.md``).

The sweeps are a 96-point surrogate sweep and a small simulator sweep
with an ``a0`` axis, which the simulator ignores: its design points
share content addresses, so it also checks that the fabric's key-once
step (evaluate each distinct key once, fan the cost out) is invisible,
and that every leg leaves exactly one store entry per distinct key.

Usage::

    PYTHONPATH=src python scripts/fabric_equivalence_check.py [--workers N]

Exit code 0 on equivalence; 1 with a diff summary otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.core.params import ApplicationProfile, MachineParameters
from repro.dse.evaluate import (
    BudgetedEvaluator,
    SimulatorEvaluator,
    SurrogateEvaluator,
    canonical_key,
)
from repro.dse.fabric import FabricEvaluator, config_keys, owner_of_shard
from repro.dse.space import DesignSpace, Parameter
from repro.laws.gfunction import PowerLawG
from repro.obs import MetricsRegistry, set_registry
from repro.resilience import (
    Fault,
    FaultPlan,
    FaultyEvaluator,
    CheckpointJournal,
    RetryPolicy,
    config_token,
    load_journal,
)
from repro.sim.cache_store import SimCacheStore, shard_of_key
from repro.workloads.parsec import parsec_like

NO_JITTER = RetryPolicy(max_attempts=3, base_delay=0.01, jitter=0.0)


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


def _configs() -> "list[dict]":
    space = _space()
    return [space.config_at(i) for i in range(0, space.size, 7)][:96]


def _sim_configs() -> "list[dict]":
    """36 points over 12 chips: ``a0`` is the innermost axis."""
    space = DesignSpace([
        Parameter("n", (1, 2, 4)),
        Parameter("issue_width", (2, 4)),
        Parameter("l2_kib", (64.0, 128.0)),
        Parameter("a0", (0.5, 1.0, 2.0)),
    ])
    return [dict(space.config_at(i), l1_kib=16.0, rob_size=32)
            for i in range(space.size)]


@dataclass
class Case:
    """One sweep: its design points and a factory for a fresh evaluator
    whose state (a result store, if any) lives under a given directory."""

    name: str
    configs: "list[dict]"
    evaluator: "Callable[[Path], object]"


def _cases() -> "list[Case]":
    surrogate = _surrogate()
    workload = parsec_like("blackscholes", n_ops=300)
    return [
        Case("surrogate", _configs(), lambda root: surrogate),
        Case("simulator", _sim_configs(),
             lambda root: SimulatorEvaluator(
                 workload, seed=5, cache=SimCacheStore(root / "store"))),
    ]


def _store_ok(evaluator, configs: "list[dict]") -> "tuple[bool, str]":
    """One store entry per distinct key (when the evaluator has a store)."""
    store = getattr(evaluator, "cache", None)
    if not isinstance(store, SimCacheStore):
        return True, ""
    distinct = len(set(config_keys(evaluator, configs)))
    entries = SimCacheStore(store.root).stats()["entries"]
    return entries == distinct, f", entries={entries}/{distinct}"


def _one_slot(evaluator, configs: "list[dict]", workers: int) -> "list[int]":
    """Indices of the configurations routed to the busiest slot.

    Fed only these, every other slot starts with an empty backlog, and
    the fabric's first scheduling round (which submits to every free
    slot before it waits on any result) makes them steal, provided the
    busy slot holds at least two distinct keys.
    """
    owners = [owner_of_shard(shard_of_key(key), workers)
              for key in config_keys(evaluator, configs)]
    busiest = max(range(workers), key=owners.count)
    return [i for i, owner in enumerate(owners) if owner == busiest]


def _leg(builder, configs) -> "tuple[np.ndarray, int, dict]":
    """Run one scheduling regime under a fresh metrics registry.

    Returns (costs, budget evaluations, counter snapshot); every leg
    wraps its evaluator in a BudgetedEvaluator so the exactly-once
    charging contract is part of what gets compared.
    """
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        with builder() as pool:
            budget = BudgetedEvaluator(pool)
            costs = budget.evaluate_batch(configs)
            evals = budget.evaluations
            budget.close()
        return costs, evals, registry.snapshot()["counters"]
    finally:
        set_registry(previous)


def check_legs(case: Case, state_dir: Path,
               workers: int) -> "tuple[np.ndarray, int, bool]":
    configs = case.configs
    plan = FaultPlan(seed=5, state_dir=str(state_dir / "fuse"), faults=(
        Fault(kind="crash", token=config_token(configs[17]),
              worker_only=True),))

    legs = {
        "serial": lambda ev: FabricEvaluator(ev, workers=1),
        "fabric steal=on": lambda ev: FabricEvaluator(ev, workers=workers),
        "fabric steal forced": lambda ev: FabricEvaluator(
            ev, workers=workers, unit_size=1),
        "fabric steal=off": lambda ev: FabricEvaluator(
            ev, workers=workers, steal=False),
        "fabric worker crash": lambda ev: FabricEvaluator(
            FaultyEvaluator(ev, plan), workers=workers, unit_size=8,
            retry_policy=NO_JITTER, sleep=lambda s: None),
    }

    # The reference is a plain per-point loop: no fabric, no batching.
    loop = case.evaluator(state_dir / "loop")
    reference = np.array([float(loop.evaluate(c)) for c in configs])
    evals_ref = len({canonical_key(c) for c in configs})
    every = list(range(len(configs)))
    one_slot = _one_slot(loop, configs, workers)
    failed = False
    for n, (label, builder) in enumerate(legs.items()):
        picked = one_slot if "forced" in label else every
        batch = [configs[i] for i in picked]
        want = reference[picked]
        want_evals = len({canonical_key(c) for c in batch})
        evaluator = case.evaluator(state_dir / f"leg-{n}")
        costs, evals, counters = _leg(lambda: builder(evaluator), batch)
        ok, detail = _store_ok(evaluator, batch)
        ok = (ok and np.array_equal(costs, want) and evals == want_evals
              and counters["dse.evaluations"] == want_evals)
        if "forced" in label:
            steals = counters.get("dse.fabric.steals", 0)
            detail += f", points={len(batch)}, steals={steals}"
            ok = ok and steals > 0
        elif label == "fabric steal=off":
            ok = ok and not counters.get("dse.fabric.steals")
        elif "crash" in label:
            detail += (f", crashes="
                       f"{counters.get('resilience.worker_crashes', 0)}")
            ok = ok and counters.get("resilience.worker_crashes")
        detail = f" ({detail[2:]})" if detail else ""
        print(f"  {label}: {'OK' if ok else 'DIVERGED'}{detail}")
        if not ok:
            failed = True
            for config, a, b in zip(batch, costs, want):
                if a != b:
                    print(f"    config {config}: {a!r} != {b!r}")
            if evals != want_evals:
                print(f"    charged {evals} evaluations, expected "
                      f"{want_evals}")
    return reference, evals_ref, failed


def check_kill_and_resume(case: Case, state_dir: Path, workers: int,
                          reference: np.ndarray, evals_ref: int) -> bool:
    """Journaled fabric sweep killed halfway, then resumed exactly-once."""
    configs = case.configs
    evaluator = case.evaluator(state_dir / "resume")
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        journal = state_dir / "brute.jsonl"
        half = configs[:len(configs) // 2]
        with FabricEvaluator(evaluator, workers=workers) as fabric:
            budget = BudgetedEvaluator(
                fabric, checkpoint=CheckpointJournal.create(journal,
                                                            method="brute"))
            budget.evaluate_batch(half)
            budget.close()  # the "corpse" leaves its journal behind

        registry.reset()
        _header, restored, _states = load_journal(journal)
        if not restored:
            print("  kill-and-resume: DIVERGED (interrupted half "
                  "journaled nothing)")
            return True
        with FabricEvaluator(evaluator, workers=workers,
                             unit_size=1) as fabric:
            budget = BudgetedEvaluator(fabric, method="brute",
                                       checkpoint=journal, resume=True)
            costs = budget.evaluate_batch(configs)
            evals = budget.evaluations
            budget.close()
        counters = registry.snapshot()["counters"]

        _header, final, _states = load_journal(journal)
        keys = [k for k, _ in final]
        distinct = len({canonical_key(c) for c in configs})
        ok, detail = _store_ok(evaluator, configs)
        ok = (ok and np.array_equal(costs, reference)
              and evals == evals_ref
              and counters["dse.evaluations"] == evals_ref
              and len(keys) == len(set(keys)) == distinct)
        print(f"  kill-and-resume: {'OK' if ok else 'DIVERGED'} "
              f"(restored={len(restored)}, journaled={len(keys)}{detail})")
        if not ok and evals != evals_ref:
            print(f"    resumed run charged {evals} evaluations, "
                  f"uninterrupted charged {evals_ref}")
        return not ok
    finally:
        set_registry(previous)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=4,
                        help="fabric slots for the parallel legs "
                             "(default 4)")
    parser.add_argument("state_dir", nargs="?", default=None,
                        help="scratch directory for the journal round "
                             "trip (default: a fresh temp dir)")
    args = parser.parse_args(argv)
    state_dir = (Path(args.state_dir) if args.state_dir
                 else Path(tempfile.mkdtemp(prefix="fabric-eq-")))
    state_dir.mkdir(parents=True, exist_ok=True)

    failed = False
    for case in _cases():
        print(f"{case.name} sweep:")
        case_dir = state_dir / case.name
        reference, evals_ref, diverged = check_legs(case, case_dir,
                                                    args.workers)
        diverged |= check_kill_and_resume(case, case_dir, args.workers,
                                          reference, evals_ref)
        failed |= diverged
        digest = hashlib.sha256(np.asarray(reference).tobytes()).hexdigest()
        print(f"{len(case.configs)} design points, {evals_ref} evaluations, "
              f"costs sha256[:16]={digest[:16]}")
    if failed:
        print("fabric equivalence FAILED", file=sys.stderr)
        return 1
    print("all legs bit-identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
