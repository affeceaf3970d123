"""Multi-phase / multi-programmed optimization (paper Eq. 8 generalized).

"As the parallel degree i can be from 1 to N, Eq. (8) can be generalized
... in real CMP DSE we have implemented the generalized version."

A real execution is a weighted mixture of phases, each with its own
``f_mem``, concurrency and scale function (the paper's Fig. 7 setting,
and the phase behaviour Section IV adapts to).  One chip must serve the
whole mixture, so the design objective is the weighted per-work cost

    J = sum_i  w_i * q_i(A0, A1, A2) * scale_i(N) / g_i(N)

with ``q_i`` the phase's per-instruction time and ``scale_i`` the
Sun-Ni time scaling.  Dividing by ``g_i`` makes the objective a cost
per unit of (scaled) work, which is finite and comparable across both
optimization regimes — it reduces to time minimization for fixed-size
phases and to inverse throughput for scalable ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.camat_model import CAMATModel
from repro.core.chip import ChipConfig
from repro.core.constraints import AreaBudget
from repro.core.lagrange import LagrangianSystem
from repro.core.optimizer import split_budget
from repro.core.params import ApplicationProfile, MachineParameters
from repro.errors import InvalidParameterError
from repro.solvers import integer_minimize

__all__ = ["PhaseWeight", "MultiPhaseResult", "MultiPhaseOptimizer"]


@dataclass(frozen=True)
class PhaseWeight:
    """One phase of the mixture.

    Attributes
    ----------
    profile:
        The phase's application profile.
    weight:
        Fraction of dynamic instructions spent in this phase, ``> 0``.
    """

    profile: ApplicationProfile
    weight: float

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise InvalidParameterError(
                f"phase weight must be positive, got {self.weight}")


@dataclass(frozen=True)
class MultiPhaseResult:
    """Outcome of a multi-phase optimization.

    Attributes
    ----------
    config:
        The single chip configuration serving every phase.
    cost:
        The weighted per-work cost at the optimum.
    per_phase_cost:
        Each phase's contribution (already weighted).
    """

    config: ChipConfig
    cost: float
    per_phase_cost: tuple[float, ...]


class MultiPhaseOptimizer:
    """Optimize one chip for a weighted mixture of phases."""

    def __init__(self, phases: Sequence[PhaseWeight],
                 machine: MachineParameters,
                 camat_model: "CAMATModel | None" = None) -> None:
        if not phases:
            raise InvalidParameterError("need at least one phase")
        total = sum(p.weight for p in phases)
        self.phases = tuple(PhaseWeight(p.profile, p.weight / total)
                            for p in phases)
        self.machine = machine
        model = camat_model if camat_model is not None else CAMATModel()
        self._systems = [LagrangianSystem(p.profile, machine, model)
                         for p in self.phases]
        self._budget = AreaBudget(machine)

    # ----- objective --------------------------------------------------------
    def phase_costs(self, config: ChipConfig) -> tuple[float, ...]:
        """Weighted per-work cost of each phase at a configuration."""
        costs = []
        for phase, system in zip(self.phases, self._systems):
            q = system.per_instruction_time(config.a0, config.a1, config.a2)
            app = phase.profile
            g_n = float(app.g(float(config.n)))
            scale = app.f_seq + g_n * (1.0 - app.f_seq) / config.n
            costs.append(phase.weight * q * scale / g_n)
        return tuple(costs)

    def cost(self, config: ChipConfig) -> float:
        """The mixture objective."""
        return float(sum(self.phase_costs(config)))

    # ----- optimization -----------------------------------------------------
    def area_split(self, n: int) -> ChipConfig:
        """Optimal shared split for ``n`` cores (nested Brent on the
        weighted per-instruction time)."""

        def weighted_q(a0: float, a1: float, a2: float) -> float:
            return sum(p.weight * s.per_instruction_time(a0, a1, a2)
                       for p, s in zip(self.phases, self._systems))

        a0, a1, a2, _ = split_budget(
            self.machine, self._budget.per_core_budget(n), weighted_q)
        return ChipConfig(n=n, a0=a0, a1=a1, a2=a2)

    def optimize(self, *, n_min: int = 1,
                 n_max: "int | None" = None) -> MultiPhaseResult:
        """Search the integer N axis for the mixture optimum."""
        if n_max is None:
            n_max = self._budget.max_feasible_cores()
        cache: dict[int, ChipConfig] = {}

        def objective(n: int) -> float:
            if n not in cache:
                cache[n] = self.area_split(n)
            return self.cost(cache[n])

        res = integer_minimize(objective, n_min, n_max)
        config = cache[int(res.x)]
        return MultiPhaseResult(
            config=config,
            cost=self.cost(config),
            per_phase_cost=self.phase_costs(config),
        )
