"""The Lagrangian of Eq. 13 and its stationarity (KKT) system.

For a fixed core count ``N`` the decision variables are the per-core
areas and the multiplier, ``x = (A0, A1, A2, lambda)``, minimizing

    L = J_D(A0, A1, A2; N) + lambda * (N*(A0+A1+A2) + Ac - A).

``J_D`` (Eq. 10) factorizes as ``K(N) * (CPI_exe(A0) + S * AMAT(A1, A2))``
with ``K(N) = IC0 * (f_seq + g(N)(1-f_seq)/N) * cycle`` and
``S = f_mem * (1 - overlap) / C``, so the partial derivatives have closed
forms through Pollack's rule and the power-law miss curves.  The system is
solved with :func:`repro.solvers.newton_solve`; Section III-C's
observation — ``dL/dN > 0`` iff ``g(N) >= O(N)`` — is exposed as
:meth:`LagrangianSystem.dJ_dN` plus the regime predicate on ``g``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.camat_model import CAMATModel
from repro.core.chip import ChipConfig
from repro.core.constraints import pollack_cpi
from repro.core.objective import objective_jd
from repro.core.params import ApplicationProfile, MachineParameters
from repro.errors import InvalidParameterError

if TYPE_CHECKING:
    from repro.solvers.newton import NewtonResult

__all__ = ["LagrangianSystem"]


@dataclass(frozen=True)
class LagrangianSystem:
    """Stationarity system of Eq. 13 for a fixed ``N``."""

    app: ApplicationProfile
    machine: MachineParameters
    camat_model: CAMATModel

    # ----- objective pieces ---------------------------------------------------
    def scaling_factor(self, n: int) -> float:
        """``K(N)/IC0``: the Sun-Ni time-scaling of Eq. 10."""
        if n < 1:
            raise InvalidParameterError(f"N must be >= 1, got {n}")
        g_n = float(self.app.g(float(n)))
        return self.app.f_seq + g_n * (1.0 - self.app.f_seq) / n

    def stall_scale(self) -> float:
        """``S = f_mem * (1 - overlap) / C`` applied to AMAT."""
        return (self.app.f_mem * (1.0 - self.app.overlap_ratio)
                / self.app.concurrency)

    def per_instruction_time(self, a0: float, a1: float, a2: float) -> float:
        """``CPI_exe(A0) + S * AMAT(A1, A2)`` in cycles.

        Pure-scalar fast path: this is the innermost function of the
        nested area search, called thousands of times per optimization, so
        it avoids NumPy scalar overhead (see the profiling guidance in the
        project's HPC style notes).
        """
        if a0 <= 0 or a1 <= 0 or a2 <= 0:
            raise InvalidParameterError(
                f"areas must be positive, got ({a0}, {a1}, {a2})")
        m = self.machine
        cpi = m.pollack_k0 / math.sqrt(a0) + m.pollack_phi0
        cm = self.camat_model
        density = cm.area_model.kib_per_area_unit
        c1 = cm.l1_curve
        c2 = cm.l2_curve
        mr1 = c1.base_miss_rate * (a1 * density / c1.base_capacity_kib) ** (-c1.alpha)
        mr1 = min(max(mr1, c1.compulsory_floor), 1.0)
        mr2 = c2.base_miss_rate * (a2 * density / c2.base_capacity_kib) ** (-c2.alpha)
        mr2 = min(max(mr2, c2.compulsory_floor), 1.0)
        amat = cm.latencies.l1_hit + mr1 * (cm.latencies.l2_hit
                                            + mr2 * cm.latencies.dram)
        return cpi + self.stall_scale() * amat

    def objective(self, config: ChipConfig) -> float:
        """Eq. 10's ``J_D`` at a full design point."""
        cpi = pollack_cpi(config.a0, self.machine.pollack_k0,
                          self.machine.pollack_phi0)
        camat = self.camat_model.camat(config.a1, config.a2,
                                       self.app.concurrency)
        return float(objective_jd(
            ic0=self.app.ic0, cpi_exe=cpi, f_mem=self.app.f_mem,
            camat_value=camat, f_seq=self.app.f_seq, g=self.app.g,
            n=config.n, overlap_ratio=self.app.overlap_ratio,
            cycle_time=self.machine.cycle_time))

    # ----- analytic partials --------------------------------------------------
    def dq_da0(self, a0: float) -> float:
        """d(per-instr time)/dA0 = -k0/2 * A0^{-3/2} (Pollack)."""
        if a0 <= 0:
            raise InvalidParameterError(f"A0 must be positive, got {a0}")
        return -0.5 * self.machine.pollack_k0 * a0 ** (-1.5)

    def dq_da1(self, a1: float, a2: float) -> float:
        """d(per-instr time)/dA1 through the L1 miss curve.

        Uses the smooth (unclipped) power law; zero outside the
        power-law's active range, matching the clipped curve.
        """
        m = self.camat_model
        cap1 = m.area_model.capacity_kib(a1)
        mr1 = float(m.l1_curve.miss_rate(cap1))
        if mr1 <= m.l1_curve.compulsory_floor or mr1 >= 1.0:
            return 0.0
        # d MR1/d A1 = -alpha * MR1 / A1 (power law in capacity == in area)
        dmr1 = -m.l1_curve.alpha * mr1 / a1
        return self.stall_scale() * dmr1 * float(m.avg_miss_penalty(a2))

    def dq_da2(self, a1: float, a2: float) -> float:
        """d(per-instr time)/dA2 through the L2 miss curve."""
        m = self.camat_model
        cap2 = m.area_model.capacity_kib(a2)
        mr2 = float(m.l2_curve.miss_rate(cap2))
        if mr2 <= m.l2_curve.compulsory_floor or mr2 >= 1.0:
            return 0.0
        dmr2 = -m.l2_curve.alpha * mr2 / a2
        return (self.stall_scale() * float(m.l1_miss_rate(a1))
                * dmr2 * m.latencies.dram)

    # ----- KKT residual ---------------------------------------------------
    def residual(self, x: np.ndarray, n: int) -> np.ndarray:
        """Stationarity residual at ``x = (A0, A1, A2, lambda)``.

        The three gradient rows are divided by ``K(N) * IC0 * cycle`` (a
        positive constant absorbed into ``lambda``), which keeps the
        system well scaled across ``N``.
        """
        a0, a1, a2, lam = (float(v) for v in x)
        if min(a0, a1, a2) <= 0:
            # Push the solver back into the domain with a large residual.
            return np.full(4, 1e6, dtype=float)
        n_term = float(n)
        return np.array([
            self.dq_da0(a0) + lam * n_term,
            self.dq_da1(a1, a2) + lam * n_term,
            self.dq_da2(a1, a2) + lam * n_term,
            n_term * (a0 + a1 + a2) + self.machine.shared_area
            - self.machine.total_area,
        ])

    def solve(self, n: int, x0: "np.ndarray | None" = None,
              **newton_kwargs) -> NewtonResult:
        """Solve the KKT system for fixed ``N`` with damped Newton.

        The default initial guess splits the per-core budget evenly and
        seeds ``lambda`` from the A0 gradient.
        """
        from repro.solvers.newton import newton_solve

        budget = self.machine.core_budget_area / n
        if budget <= (self.machine.min_core_area
                      + 2 * self.machine.min_cache_area):
            raise InvalidParameterError(
                f"N={n} leaves no feasible per-core budget ({budget:.4f})")
        if x0 is None:
            a = budget / 3.0
            lam0 = -self.dq_da0(a) / n
            x0 = np.array([a, a, a, lam0])
        return newton_solve(lambda x: self.residual(x, n), x0, **newton_kwargs)

    # ----- N-direction analysis ------------------------------------------
    def dJ_dN(self, config: ChipConfig, *, step: float = 1e-3) -> float:
        """Numerical ``dJ_D/dN`` at fixed areas (Section III-C analysis).

        Positive for all ``N`` iff the workload scales at least linearly
        (``g(N) >= O(N)``) — the paper's case-I criterion.
        """
        n = float(config.n)
        h = max(step * n, step)

        def jd(n_val: float) -> float:
            g_n = float(self.app.g(n_val))
            scale = self.app.f_seq + g_n * (1.0 - self.app.f_seq) / n_val
            q = self.per_instruction_time(config.a0, config.a1, config.a2)
            return self.app.ic0 * q * scale * self.machine.cycle_time

        return (jd(n + h) - jd(max(n - h, 1.0))) / (n + h - max(n - h, 1.0))
