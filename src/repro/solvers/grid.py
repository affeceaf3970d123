"""Bounded grid search with iterative refinement.

The APS algorithm (paper Fig. 6, lines 14-16) simulates "the adjacent
regions in the design space nearby the solution presented by the analytical
model".  These helpers implement the coarse-to-fine pattern used both by
the analytic optimizer (over the integer core count) and by APS itself
(over discrete microarchitecture parameters).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.errors import InvalidParameterError

__all__ = ["GridResult", "grid_minimize", "grid_refine_minimize",
           "integer_minimize", "unique_ints"]


def unique_ints(values: np.ndarray) -> "list[int]":
    """Distinct values of an integer array, ascending, as Python ints.

    Equal to ``np.unique(values).tolist()``, without ``np.unique``: on
    NumPy 2.4 its first call imports ``numpy.ma`` (about 1 MiB), which
    the design-space search otherwise never needs.
    """
    return sorted(set(values.tolist()))


@dataclass(frozen=True)
class GridResult:
    """Outcome of a grid search.

    Attributes
    ----------
    x:
        Argmin found.
    fun:
        Objective value at ``x``.
    evaluations:
        Number of objective evaluations performed (the "simulation count"
        when the objective is a simulator run).
    """

    x: float
    fun: float
    evaluations: int


def grid_minimize(
    func: Callable[[float], float],
    points: Sequence[float],
) -> GridResult:
    """Evaluate ``func`` on ``points`` and return the minimizer."""
    pts = np.asarray(list(points), dtype=float)
    if pts.size == 0:
        raise InvalidParameterError("grid_minimize needs at least one point")
    values = np.array([func(float(p)) for p in pts], dtype=float)
    finite = np.isfinite(values)
    if not finite.any():
        raise InvalidParameterError("objective is non-finite on entire grid")
    values = np.where(finite, values, np.inf)
    idx = int(np.argmin(values))
    return GridResult(x=float(pts[idx]), fun=float(values[idx]),
                      evaluations=int(pts.size))


def grid_refine_minimize(
    func: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    points_per_level: int = 16,
    levels: int = 4,
    log_scale: bool = False,
) -> GridResult:
    """Coarse-to-fine grid search on ``[lo, hi]``.

    Each level zooms into the bracket around the current best point and
    re-grids.  With ``log_scale`` the grid is geometric, which suits the
    core-count axis where the paper sweeps 1..1000.
    """
    if not (hi > lo):
        raise InvalidParameterError(f"need hi > lo, got [{lo}, {hi}]")
    if log_scale and lo <= 0:
        raise InvalidParameterError("log_scale requires lo > 0")
    if points_per_level < 3:
        raise InvalidParameterError("points_per_level must be >= 3")
    a, b = float(lo), float(hi)
    total_evals = 0
    best_x = a
    best_f = np.inf
    for _ in range(levels):
        if log_scale:
            pts = np.geomspace(a, b, points_per_level)
        else:
            pts = np.linspace(a, b, points_per_level)
        res = grid_minimize(func, pts)
        total_evals += res.evaluations
        if res.fun < best_f:
            best_x, best_f = res.x, res.fun
        # Zoom to one grid cell either side of the best point.
        idx = int(np.argmin(np.abs(pts - res.x)))
        a = float(pts[max(idx - 1, 0)])
        b = float(pts[min(idx + 1, len(pts) - 1)])
        if b <= a:
            break
    return GridResult(x=best_x, fun=best_f, evaluations=total_evals)


def integer_minimize(
    func: Callable[[int], float],
    lo: int,
    hi: int,
    *,
    exhaustive_below: int = 4096,
) -> GridResult:
    """Minimize over integers in ``[lo, hi]``.

    Small ranges are swept exhaustively; larger ranges use a geometric
    coarse pass followed by an exhaustive local sweep, which is exact for
    the unimodal objectives of Eq. 10 and a good heuristic otherwise.
    """
    if hi < lo:
        raise InvalidParameterError(f"need hi >= lo, got [{lo}, {hi}]")
    lo, hi = int(lo), int(hi)
    span = hi - lo + 1
    if span <= exhaustive_below:
        values = [(func(n), n) for n in range(lo, hi + 1)]
        fun, x = min(values, key=lambda t: (t[0], t[1]))
        return GridResult(x=float(x), fun=float(fun), evaluations=span)
    # Coarse geometric pass, then recursive geometric refinement of the
    # bracket around the winner until it is small enough to sweep.
    evals = 0
    seen: dict[int, float] = {}

    def eval_at(n: int) -> float:
        nonlocal evals
        if n not in seen:
            seen[n] = func(n)
            evals += 1
        return seen[n]

    cur_lo, cur_hi = lo, hi
    while cur_hi - cur_lo + 1 > 64:
        pts = unique_ints(np.clip(np.round(
            np.geomspace(max(cur_lo, 1), cur_hi, 32)).astype(int),
            cur_lo, cur_hi))
        values = [(eval_at(n), n) for n in pts]
        _, x = min(values, key=lambda t: (t[0], t[1]))
        idx = bisect_left(pts, x)
        new_lo = pts[max(idx - 1, 0)]
        new_hi = pts[min(idx + 1, len(pts) - 1)]
        if (new_lo, new_hi) == (cur_lo, cur_hi):
            break
        cur_lo, cur_hi = new_lo, new_hi
    values = [(eval_at(n), n) for n in range(cur_lo, cur_hi + 1)]
    fun, x = min(values, key=lambda t: (t[0], t[1]))
    return GridResult(x=float(x), fun=float(fun), evaluations=evals)
