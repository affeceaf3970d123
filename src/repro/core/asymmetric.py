"""Asymmetric CMP extension (paper Section VII: "The extension of
C2-Bound to asymmetric CMP DSE is straightforward").

Following Hill & Marty's asymmetric topology (one large core plus many
identical small cores), the sequential portion runs on the large core and
the parallel portion runs on everything:

    T = IC0 * cycle * [ f_seq * q_big
                        + g(N_eff) * (1 - f_seq) / N_eff * q_small ]

where ``q_x = CPI_exe(A_x) + f_mem * C-AMAT_x * (1 - overlap)`` and the
parallel side's effective width counts the big core as
``perf_big / perf_small`` small-core equivalents.  The area constraint
(Eq. 12 generalized) is

    A = (A_big + A1_big + A2_big)
        + N_small * (A0 + A1 + A2) + Ac.

The optimizer reuses the symmetric machinery: for a fixed
``(big-core budget, N_small)`` pair the two per-core splits are solved
independently (the objective is separable), then the outer pair is
searched on a grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.camat_model import CAMATModel
from repro.core.chip import ChipConfig
from repro.core.lagrange import LagrangianSystem
from repro.core.optimizer import split_budget
from repro.core.params import ApplicationProfile, MachineParameters
from repro.errors import InvalidParameterError

__all__ = ["AsymmetricDesign", "AsymmetricOptimizer"]


@dataclass(frozen=True)
class AsymmetricDesign:
    """An asymmetric design point: one big core + ``n_small`` small ones.

    Attributes
    ----------
    big:
        The large core's area split (a ``ChipConfig`` with ``n == 1``).
    small:
        The small cores' per-core split (``n == n_small``).
    execution_time:
        The asymmetric objective value.
    problem_size:
        ``g(N_eff) * IC0``.
    """

    big: ChipConfig
    small: ChipConfig
    execution_time: float
    problem_size: float

    @property
    def n_small(self) -> int:
        return self.small.n

    @property
    def throughput(self) -> float:
        return self.problem_size / self.execution_time

    def total_area(self, shared_area: float) -> float:
        """Generalized Eq. 12 for the asymmetric floorplan."""
        return (self.big.per_core_area
                + self.small.cores_area + shared_area)


class AsymmetricOptimizer:
    """Optimize an asymmetric CMP under the C2-Bound objective."""

    def __init__(self, app: ApplicationProfile, machine: MachineParameters,
                 camat_model: "CAMATModel | None" = None) -> None:
        self.app = app
        self.machine = machine
        self.camat_model = camat_model if camat_model is not None else CAMATModel()
        self.lagrangian = LagrangianSystem(app, machine, self.camat_model)

    # ----- per-budget area split (shared with the symmetric path) ------
    def _split_budget(self, budget: float) -> tuple[float, float, float, float]:
        """Best (a0, a1, a2, q) for one core given an area budget."""
        return split_budget(self.machine, budget,
                            self.lagrangian.per_instruction_time)

    def evaluate(self, big_budget: float, n_small: int) -> AsymmetricDesign:
        """Evaluate one (big-core budget, small-core count) pair."""
        if n_small < 1:
            raise InvalidParameterError(
                f"need >= 1 small core, got {n_small}")
        m = self.machine
        remaining = m.core_budget_area - big_budget
        if remaining <= 0:
            raise InvalidParameterError(
                f"big-core budget {big_budget} exhausts the chip")
        small_budget = remaining / n_small
        b0, b1, b2, q_big = self._split_budget(big_budget)
        s0, s1, s2, q_small = self._split_budget(small_budget)
        app = self.app
        # Parallel side: the big core contributes q_small/q_big
        # small-core equivalents of throughput.
        n_eff = n_small + q_small / q_big
        g_n = float(app.g(max(n_eff, 1.0)))
        time = app.ic0 * m.cycle_time * (
            app.f_seq * q_big
            + g_n * (1.0 - app.f_seq) * q_small / n_eff)
        return AsymmetricDesign(
            big=ChipConfig(n=1, a0=b0, a1=b1, a2=b2),
            small=ChipConfig(n=n_small, a0=s0, a1=s1, a2=s2),
            execution_time=time,
            problem_size=g_n * app.ic0,
        )

    def optimize(self, *, n_max: "int | None" = None,
                 budget_points: int = 12) -> AsymmetricDesign:
        """Grid-search the (big budget, N_small) plane.

        Uses the same case split as the symmetric optimizer: throughput
        for ``g(N) >= O(N)``, time otherwise.
        """
        m = self.machine
        total = m.core_budget_area
        min_core = m.min_core_area + 2 * m.min_cache_area
        if n_max is None:
            n_max = max(int(total / min_core) - 1, 1)
        maximize_throughput = self.app.g.at_least_linear()
        best: "AsymmetricDesign | None" = None
        big_budgets = np.geomspace(min_core * 1.01, total * 0.5,
                                   budget_points)
        n_grid = np.unique(np.clip(np.round(
            np.geomspace(1, n_max, 24)).astype(int), 1, n_max))
        for big_budget in big_budgets:
            for n_small in n_grid:
                small_budget = (total - big_budget) / int(n_small)
                if small_budget <= min_core:
                    continue
                design = self.evaluate(float(big_budget), int(n_small))
                if best is None:
                    best = design
                elif maximize_throughput:
                    if design.throughput > best.throughput:
                        best = design
                elif design.execution_time < best.execution_time:
                    best = design
        if best is None:
            raise InvalidParameterError(
                "no feasible asymmetric design in the search grid")
        return best
