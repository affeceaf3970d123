"""Numerical solver substrate used by the C2-Bound optimizer.

The paper solves the Lagrangian stationarity system (Eq. 13) with Newton's
method ("We have implemented an efficient solver for the nonlinear equation
set").  This package provides that solver plus the scalar/grid minimizers
used to locate optima over the integer core count ``N``.

Public API
----------
- :func:`newton_solve` — damped Newton with numerical Jacobian fallback.
- :func:`numeric_jacobian` — central-difference Jacobian.
- :func:`backtracking_line_search` — Armijo line search on the residual norm.
- :func:`golden_section_minimize` — derivative-free scalar minimizer.
- :func:`brent_minimize` — Brent's method (parabolic + golden section).
- :func:`grid_minimize` / :func:`grid_refine_minimize` — coarse-to-fine
  bounded search used by APS to refine analytic solutions.
- :func:`integer_minimize` — exact minimizer over an integer interval.
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.solvers.jacobian import numeric_jacobian
    from repro.solvers.linesearch import backtracking_line_search
    from repro.solvers.newton import NewtonResult, newton_solve
    from repro.solvers.scalar import brent_minimize, golden_section_minimize
    from repro.solvers.grid import (
        GridResult,
        grid_minimize,
        grid_refine_minimize,
        integer_minimize,
    )

__all__ = [
    "NewtonResult",
    "newton_solve",
    "numeric_jacobian",
    "backtracking_line_search",
    "golden_section_minimize",
    "brent_minimize",
    "GridResult",
    "grid_minimize",
    "grid_refine_minimize",
    "integer_minimize",
]

__getattr__, __dir__ = attach(__name__, __file__)
