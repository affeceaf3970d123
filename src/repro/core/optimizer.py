"""The C2-Bound optimizer: solve Eq. 13 with the paper's case split.

For each candidate core count ``N`` the per-core area budget
``B = (A - Ac)/N`` is split between core logic and the two cache levels
by minimizing the per-instruction time (a smooth 2-D problem solved by
nested Brent searches, optionally polished by the Newton/KKT solver of
:class:`repro.core.lagrange.LagrangianSystem`).  The outer search over the
integer ``N`` then follows Fig. 6:

- case I, ``g(N) >= O(N)``: no finite ``N`` minimizes time — maximize
  throughput ``W/T``;
- case II, ``g(N) < O(N)``: minimize execution time ``T``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.camat_model import CAMATModel
from repro.core.chip import ChipConfig
from repro.core.constraints import AreaBudget, pollack_cpi
from repro.core.lagrange import LagrangianSystem
from repro.core.params import ApplicationProfile, MachineParameters
from repro.errors import ConvergenceError, InvalidParameterError
from repro.solvers import brent_minimize, integer_minimize
from repro.solvers.grid import unique_ints

__all__ = ["DesignPoint", "OptimizationResult", "C2BoundOptimizer",
           "split_budget"]


def split_budget(machine: MachineParameters, budget: float,
                 q: Callable[[float, float, float], float],
                 ) -> tuple[float, float, float, float]:
    """Best ``(a0, a1, a2, q)`` for one core of area ``budget``.

    Minimizes the per-instruction time ``q(a0, a1, a2)`` over the
    simplex ``a0 + a1 + a2 = budget`` with the machine's minimum sizes
    as bounds: an outer Brent search over ``a0``, an inner one over
    ``a1`` for each ``a0``.
    """
    m = machine
    min_rest = 2.0 * m.min_cache_area
    if budget <= m.min_core_area + min_rest:
        raise InvalidParameterError(
            f"per-core budget {budget:.4f} below minimum "
            f"{m.min_core_area + min_rest:.4f}")

    def cache_split(a0: float) -> tuple[float, float, float]:
        rest = budget - a0
        lo = m.min_cache_area
        hi = rest - m.min_cache_area
        if hi <= lo:
            a1 = rest / 2.0
            return a1, rest - a1, q(a0, a1, rest - a1)
        a1, q_min = brent_minimize(lambda v: q(a0, v, rest - v),
                                   lo, hi, tol=1e-6)
        return a1, rest - a1, q_min

    a0, _ = brent_minimize(lambda v: cache_split(v)[2],
                           m.min_core_area, budget - min_rest, tol=1e-6)
    a1, a2, q_min = cache_split(a0)
    return a0, a1, a2, q_min


@dataclass(frozen=True)
class DesignPoint:
    """A fully evaluated design: configuration plus model metrics.

    Attributes
    ----------
    config:
        The chip skeleton ``(N, A0, A1, A2)``.
    cpi_exe:
        Pollack CPI of one core.
    amat, camat:
        Memory latency metrics at this cache allocation.
    problem_size:
        Scaled problem size ``W = g(N) * W0`` (instruction count).
    execution_time:
        Eq. 10's ``J_D``.
    """

    config: ChipConfig
    cpi_exe: float
    amat: float
    camat: float
    problem_size: float
    execution_time: float

    @property
    def throughput(self) -> float:
        """``W / T`` — the case-I objective."""
        return self.problem_size / self.execution_time

    @property
    def n(self) -> int:
        """Core count shortcut."""
        return self.config.n


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of a full C2-Bound optimization.

    Attributes
    ----------
    best:
        The winning design point.
    regime:
        ``'superlinear' | 'linear' | 'sublinear'`` — the ``g`` regime.
    case:
        ``'maximize-throughput'`` (case I) or ``'minimize-time'``
        (case II) per Fig. 6.
    evaluations:
        Number of (analytic) design evaluations performed.
    curve:
        Design points evaluated along the N axis, ordered by N (useful
        for plotting the Figs. 8-11 style sweeps).
    """

    best: DesignPoint
    regime: str
    case: str
    evaluations: int
    curve: tuple[DesignPoint, ...] = field(default_factory=tuple)


class C2BoundOptimizer:
    """Solve the CMP DSE optimization of Eq. 13.

    Parameters
    ----------
    app:
        Application profile (``f_seq``, ``f_mem``, ``g``, ``C`` …).
    machine:
        Machine parameters (area budget, Pollack constants …).
    camat_model:
        Cache-area-to-C-AMAT model; a default two-level model is used if
        omitted.
    """

    def __init__(self, app: ApplicationProfile, machine: MachineParameters,
                 camat_model: "CAMATModel | None" = None) -> None:
        self.app = app
        self.machine = machine
        self.camat_model = camat_model if camat_model is not None else CAMATModel()
        self.lagrangian = LagrangianSystem(app, machine, self.camat_model)
        self.budget = AreaBudget(machine)

    # ----- per-N area split ---------------------------------------------------
    def area_split(self, n: int) -> ChipConfig:
        """Optimal ``(A0, A1, A2)`` for ``n`` cores (nested Brent).

        Minimizes ``CPI_exe(A0) + S*AMAT(A1, A2)`` over the simplex
        ``A0 + A1 + A2 = B`` with the machine's minimum sizes as bounds.
        """
        a0, a1, a2, _ = split_budget(
            self.machine, self.budget.per_core_budget(n),
            self.lagrangian.per_instruction_time)
        return ChipConfig(n=n, a0=a0, a1=a1, a2=a2)

    def refine_newton(self, config: ChipConfig) -> ChipConfig:
        """Polish an area split with the KKT Newton solver (Eq. 13).

        Falls back to the input configuration if Newton diverges or walks
        outside the feasible box (e.g. when a minimum-size bound is
        active, where the interior KKT system has no root).
        """
        n = config.n
        lam0 = -self.lagrangian.dq_da0(config.a0) / n
        x0 = np.array([config.a0, config.a1, config.a2, lam0])
        try:
            res = self.lagrangian.solve(n, x0, raise_on_failure=False)
        except InvalidParameterError:
            return config
        if not res.converged:
            return config
        a0, a1, a2, _ = (float(v) for v in res.x)
        m = self.machine
        if (a0 < m.min_core_area or a1 < m.min_cache_area
                or a2 < m.min_cache_area):
            return config
        candidate = ChipConfig(n=n, a0=a0, a1=a1, a2=a2)
        old_q = self.lagrangian.per_instruction_time(
            config.a0, config.a1, config.a2)
        new_q = self.lagrangian.per_instruction_time(a0, a1, a2)
        return candidate if new_q <= old_q else config

    # ----- evaluation -----------------------------------------------------
    def evaluate(self, n: int, *, newton_polish: bool = False) -> DesignPoint:
        """Optimal design point for a fixed core count ``n``."""
        config = self.area_split(n)
        if newton_polish:
            config = self.refine_newton(config)
        cpi = float(pollack_cpi(config.a0, self.machine.pollack_k0,
                                self.machine.pollack_phi0))
        amat = float(self.camat_model.amat(config.a1, config.a2))
        camat = amat / self.app.concurrency
        jd = self.lagrangian.objective(config)
        w = float(self.app.g(float(n))) * self.app.ic0
        return DesignPoint(config=config, cpi_exe=cpi, amat=amat,
                           camat=camat, problem_size=w, execution_time=jd)

    def sweep(self, ns: "np.ndarray | list[int]") -> list[DesignPoint]:
        """Evaluate a list of core counts (the Figs. 8-11 sweeps)."""
        return [self.evaluate(int(n)) for n in ns]

    # ----- the full optimization (Fig. 6) ---------------------------------
    def optimize(self, *, n_min: int = 1, n_max: "int | None" = None,
                 record_curve: bool = False) -> OptimizationResult:
        """Run the case-split optimization over the integer ``N``.

        Parameters
        ----------
        n_min, n_max:
            Core-count search range; ``n_max`` defaults to the largest
            feasible count under the machine's minimum areas.
        record_curve:
            Also record a geometric sample of design points along N.
        """
        if n_max is None:
            n_max = self.budget.max_feasible_cores()
        if n_max < n_min:
            raise InvalidParameterError(
                f"empty N range [{n_min}, {n_max}]")
        regime = self.app.g.regime()
        case = ("maximize-throughput" if self.app.g.at_least_linear()
                else "minimize-time")
        cache: dict[int, DesignPoint] = {}

        def point(n: int) -> DesignPoint:
            if n not in cache:
                cache[n] = self.evaluate(n)
            return cache[n]

        if case == "maximize-throughput":
            objective = lambda n: -point(n).throughput
        else:
            objective = lambda n: point(n).execution_time
        res = integer_minimize(objective, n_min, n_max)
        best = point(int(res.x))
        curve: tuple[DesignPoint, ...] = ()
        if record_curve:
            ns = unique_ints(np.clip(np.round(
                np.geomspace(max(n_min, 1), n_max, 48)).astype(int),
                n_min, n_max))
            curve = tuple(point(n) for n in ns)
        return OptimizationResult(best=best, regime=regime, case=case,
                                  evaluations=len(cache), curve=curve)
