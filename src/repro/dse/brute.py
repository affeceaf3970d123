"""Exhaustive design-space sweep (the conventional baseline).

The paper's reference point: traversing the full 10^6-point space took
128 Xeons four weeks.  :func:`brute_force_search` performs the same
traversal against any evaluator (practical here only with the analytic
surrogate, which is the documented substitution).

The sweep is batched: configurations stream through
``BudgetedEvaluator.evaluate_batch`` in ``batch_size`` chunks, so the
surrogate path vectorizes over NumPy columns and the simulator path can
fan out across a :class:`~repro.dse.fabric.FabricEvaluator` pool.
Design-rule-infeasible points (Eq. 12) are skipped *before* the budget
is charged — a practitioner never submits a simulation that violates
the area budget, so they cost nothing in Fig. 12's meter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dse.batch import chunked, resolve_batch_size
from repro.dse.evaluate import BudgetedEvaluator, Evaluator, is_feasible
from repro.dse.space import DesignSpace
from repro.obs import get_tracer

__all__ = ["BruteForceResult", "brute_force_search"]


@dataclass(frozen=True)
class BruteForceResult:
    """Outcome of a full sweep.

    Attributes
    ----------
    best_config:
        Global optimum over the grid.
    best_cost:
        Its cost.
    evaluations:
        Number of evaluator calls (== number of feasible points).
    skipped_infeasible:
        Points rejected by the design-rule check without simulating.
    """

    best_config: dict
    best_cost: float
    evaluations: int
    skipped_infeasible: int = 0


def brute_force_search(space: DesignSpace, evaluator: Evaluator, *,
                       batch_size: "int | None" = None) -> BruteForceResult:
    """Evaluate every feasible configuration; return the global optimum."""
    budget = (evaluator if isinstance(evaluator, BudgetedEvaluator)
              else BudgetedEvaluator(evaluator, method="brute"))
    batch_size = resolve_batch_size(batch_size)
    best_cost = float("inf")
    best_config: dict = {}
    skipped = 0
    with get_tracer().span("dse.brute.sweep", space_size=space.size,
                           batch_size=batch_size):
        for chunk in chunked(space, batch_size):
            feasible = [c for c in chunk if is_feasible(budget, c)]
            skipped += len(chunk) - len(feasible)
            if not feasible:
                continue
            costs = budget.evaluate_batch(feasible)
            i = int(np.argmin(costs))
            if costs[i] < best_cost:
                best_cost = float(costs[i])
                best_config = feasible[i]
    return BruteForceResult(best_config=best_config, best_cost=best_cost,
                            evaluations=budget.evaluations,
                            skipped_infeasible=skipped)
