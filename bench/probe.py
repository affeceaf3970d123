"""Thin observers the workloads put between a search and its pool."""

from __future__ import annotations

from typing import Callable

from repro.dse import is_feasible
from repro.obs import get_registry

from bench.stats import digest


class PoolProbe:
    """Records every ``(config, cost)`` a search sends to the pool.

    Sits where the search's :class:`~repro.dse.BudgetedEvaluator`
    expects its inner evaluator, so it sees exactly the fresh design
    points, in the order the search charges them.  Each batch (and the
    pool's shutdown) runs inside ``span("dse.pool")``, under which the
    pool records its own ``dse.chunk.*`` spans in a traced run.
    """

    def __init__(self, pool, span: Callable) -> None:
        self.pool = pool
        self.span = span
        self.configs: "list[dict]" = []
        self.costs: "list[float]" = []

    def evaluate_batch(self, configs):
        with self.span("dse.pool", size=len(configs)):
            costs = self.pool.evaluate_batch(configs)
        self.configs.extend(configs)
        self.costs.extend(float(c) for c in costs)
        return costs

    def evaluate(self, config: dict) -> float:
        return float(self.evaluate_batch([config])[0])

    def is_feasible(self, config: dict) -> bool:
        return is_feasible(self.pool, config)

    def close(self) -> None:
        with self.span("dse.pool", phase="close"):
            self.pool.close()

    def costs_digest(self) -> str:
        """Digest of every charged point and its cost, in charge order."""
        return digest([[sorted(c.items()), cost]
                       for c, cost in zip(self.configs, self.costs)])


def counters(prefix: str = "") -> "dict[str, float]":
    """The process registry's counters under ``prefix`` (for deltas)."""
    snapshot = get_registry().snapshot()["counters"]
    return {k: v for k, v in snapshot.items() if k.startswith(prefix)}


def counter_delta(before: dict, after: dict) -> "dict[str, float]":
    return {k: after[k] - before.get(k, 0) for k in after
            if after[k] != before.get(k, 0)}
