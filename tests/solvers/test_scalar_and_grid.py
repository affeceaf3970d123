"""Tests for the scalar minimizers and grid search."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidParameterError
from repro.solvers import (
    brent_minimize,
    golden_section_minimize,
    grid_minimize,
    grid_refine_minimize,
    integer_minimize,
)
from repro.solvers.grid import unique_ints


class TestGoldenSection:
    def test_parabola(self):
        x, f = golden_section_minimize(lambda v: (v - 2.5) ** 2, 0.0, 10.0)
        assert x == pytest.approx(2.5, abs=1e-6)
        assert f == pytest.approx(0.0, abs=1e-10)

    def test_boundary_minimum(self):
        x, _ = golden_section_minimize(lambda v: v, 1.0, 5.0)
        assert x == pytest.approx(1.0, abs=1e-5)

    def test_invalid_bracket(self):
        with pytest.raises(InvalidParameterError):
            golden_section_minimize(lambda v: v, 5.0, 1.0)


class TestBrent:
    def test_parabola(self):
        x, _ = brent_minimize(lambda v: (v - 1.234) ** 2, -10.0, 10.0)
        assert x == pytest.approx(1.234, abs=1e-7)

    def test_nonsmooth(self):
        x, _ = brent_minimize(lambda v: abs(v - 3.0), 0.0, 10.0)
        assert x == pytest.approx(3.0, abs=1e-6)

    def test_transcendental(self):
        # min of x - sin(x) + x^2/10 near 0... use cosh-like bowl instead.
        x, _ = brent_minimize(lambda v: math.cosh(v - 0.7), -5.0, 5.0)
        assert x == pytest.approx(0.7, abs=1e-6)

    @given(c=st.floats(-5.0, 5.0))
    @settings(max_examples=100, deadline=None)
    def test_quartic_bowl(self, c):
        x, _ = brent_minimize(lambda v: (v - c) ** 4 + 1.0, -10.0, 10.0)
        assert x == pytest.approx(c, abs=1e-3)


class TestGrid:
    def test_grid_minimize(self):
        res = grid_minimize(lambda v: (v - 3.0) ** 2, [0, 1, 2, 3, 4])
        assert res.x == 3.0
        assert res.evaluations == 5

    def test_grid_minimize_empty(self):
        with pytest.raises(InvalidParameterError):
            grid_minimize(lambda v: v, [])

    def test_grid_all_nonfinite(self):
        with pytest.raises(InvalidParameterError):
            grid_minimize(lambda v: float("inf"), [1.0, 2.0])

    def test_grid_refine(self):
        res = grid_refine_minimize(lambda v: (v - math.pi) ** 2, 0.0, 10.0,
                                   points_per_level=9, levels=6)
        assert res.x == pytest.approx(math.pi, abs=1e-3)

    def test_grid_refine_log_scale(self):
        res = grid_refine_minimize(lambda v: (math.log(v) - 3.0) ** 2,
                                   1.0, 1e4, log_scale=True)
        assert res.x == pytest.approx(math.exp(3.0), rel=1e-2)

    def test_grid_refine_log_needs_positive(self):
        with pytest.raises(InvalidParameterError):
            grid_refine_minimize(lambda v: v, 0.0, 1.0, log_scale=True)


class TestIntegerMinimize:
    def test_exhaustive_small_range(self):
        res = integer_minimize(lambda n: (n - 37) ** 2, 1, 100)
        assert res.x == 37
        assert res.evaluations == 100

    def test_large_range_unimodal(self):
        res = integer_minimize(lambda n: (n - 12345) ** 2, 1, 100000)
        assert res.x == 12345
        assert res.evaluations < 1000

    def test_ties_prefer_smaller(self):
        res = integer_minimize(lambda n: 0.0, 5, 10)
        assert res.x == 5

    def test_empty_range_rejected(self):
        with pytest.raises(InvalidParameterError):
            integer_minimize(lambda n: n, 5, 4)

    @given(target=st.integers(1, 50000))
    @settings(max_examples=50, deadline=None)
    def test_unimodal_exactness(self, target):
        res = integer_minimize(lambda n: abs(n - target), 1, 50000)
        assert res.x == target


class TestUniqueInts:
    """``unique_ints`` stands in for ``np.unique`` on the search path."""

    @given(st.lists(st.integers(-2**40, 2**40), max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_equals_np_unique(self, values):
        a = np.asarray(values, dtype=np.int64)
        got = unique_ints(a)
        assert got == np.unique(a).tolist()
        assert all(type(v) is int for v in got)

    @pytest.mark.parametrize("lo,hi", [(1, 100), (1, 100000), (2, 256),
                                       (37, 5000), (64, 129)])
    def test_integer_minimize_coarse_pass_inputs(self, lo, hi):
        a = np.clip(np.round(np.geomspace(max(lo, 1), hi, 32)).astype(int),
                    lo, hi)
        assert unique_ints(a) == np.unique(a).tolist()

    def test_fluidanimate_space_matches_np_unique_grid(self):
        from repro.experiments.fig12_aps import fluidanimate_space

        def reference(lo, hi, k):
            vals = np.unique(np.round(np.geomspace(lo, hi, k)).astype(int))
            extras = [v for v in range(lo, hi + 1) if v not in vals]
            vals = sorted(set(vals) | set(extras[: k - len(vals)]))
            return tuple(int(v) for v in vals[:k])

        for k in range(2, 13):
            space = {p.name: p for p in fluidanimate_space(k).parameters}
            for name, lo, hi in [("n", 2, 256), ("issue_width", 1, 10),
                                 ("rob_size", 16, 512)]:
                values = space[name].values
                assert values == reference(lo, hi, k)
                assert all(type(v) is int for v in values)

    def test_optimizer_curve_matches_np_unique(self):
        from repro.core.optimizer import C2BoundOptimizer
        from repro.experiments.fig12_aps import fluidanimate_profile

        app, machine = fluidanimate_profile()
        opt = C2BoundOptimizer(app, machine)
        n_max = opt.budget.max_feasible_cores()
        for n_min in (1, 3):
            curve = opt.optimize(n_min=n_min, record_curve=True).curve
            ns = np.unique(np.clip(np.round(
                np.geomspace(n_min, n_max, 48)).astype(int), n_min, n_max))
            assert [p.config.n for p in curve] == ns.tolist()
