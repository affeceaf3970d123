"""Tests for the multi-phase (generalized Eq. 8) optimizer."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.asymmetric import AsymmetricOptimizer
from repro.core.constraints import AreaBudget
from repro.core.multiphase import (
    MultiPhaseOptimizer,
    PhaseWeight,
)
from repro.core.optimizer import C2BoundOptimizer
from repro.core.params import ApplicationProfile, MachineParameters
from repro.errors import InvalidParameterError
from repro.laws.gfunction import PowerLawG


@pytest.fixture(scope="module")
def machine():
    return MachineParameters()


def compute_phase() -> ApplicationProfile:
    return ApplicationProfile(name="compute", f_seq=0.02, f_mem=0.1,
                              concurrency=2.0, g=PowerLawG(0.5))


def memory_phase() -> ApplicationProfile:
    return ApplicationProfile(name="memory", f_seq=0.02, f_mem=0.8,
                              concurrency=2.0, g=PowerLawG(0.5))


class TestMultiPhase:
    def test_single_fixed_size_phase_matches_single_profile(self, machine):
        # For a fixed-size phase (g = 1) the per-work mixture objective
        # IS execution time, so the single-profile optimizer and the
        # one-phase mixture must agree exactly.
        app = ApplicationProfile(name="fixed", f_seq=0.05, f_mem=0.4,
                                 concurrency=2.0, g=PowerLawG(0.0))
        multi = MultiPhaseOptimizer([PhaseWeight(app, 1.0)], machine)
        res = multi.optimize(n_max=256)
        single = C2BoundOptimizer(app, machine).optimize(n_max=256)
        assert res.config.n == single.best.n

    def test_weights_normalized(self, machine):
        phases = [PhaseWeight(compute_phase(), 2.0),
                  PhaseWeight(memory_phase(), 6.0)]
        opt = MultiPhaseOptimizer(phases, machine)
        assert sum(p.weight for p in opt.phases) == pytest.approx(1.0)

    def test_mixture_interpolates_cache_allocation(self, machine):
        # The shared chip's cache share sits between the two phases'
        # dedicated optima and tracks the memory phase's weight.
        def cache_share(weight_mem: float) -> float:
            opt = MultiPhaseOptimizer(
                [PhaseWeight(compute_phase(), 1.0 - weight_mem),
                 PhaseWeight(memory_phase(), weight_mem)], machine)
            cfg = opt.area_split(32)
            return (cfg.a1 + cfg.a2) / cfg.per_core_area

        lo = cache_share(0.1)
        hi = cache_share(0.9)
        assert hi > lo

    def test_per_phase_costs_sum_to_total(self, machine):
        opt = MultiPhaseOptimizer(
            [PhaseWeight(compute_phase(), 0.5),
             PhaseWeight(memory_phase(), 0.5)], machine)
        res = opt.optimize(n_max=128)
        assert res.cost == pytest.approx(sum(res.per_phase_cost))

    def test_memory_heavy_mixture_costs_more(self, machine):
        light = MultiPhaseOptimizer(
            [PhaseWeight(compute_phase(), 0.9),
             PhaseWeight(memory_phase(), 0.1)], machine).optimize(n_max=128)
        heavy = MultiPhaseOptimizer(
            [PhaseWeight(compute_phase(), 0.1),
             PhaseWeight(memory_phase(), 0.9)], machine).optimize(n_max=128)
        assert heavy.cost > light.cost

    def test_validation(self, machine):
        with pytest.raises(InvalidParameterError):
            MultiPhaseOptimizer([], machine)
        with pytest.raises(InvalidParameterError):
            PhaseWeight(compute_phase(), 0.0)


@settings(max_examples=60, deadline=None)
@given(frac=st.floats(min_value=0.0, max_value=1.0),
       f_mem=st.floats(min_value=0.0, max_value=0.9),
       concurrency=st.floats(min_value=1.0, max_value=8.0),
       alpha=st.floats(min_value=0.0, max_value=1.5))
def test_reductions_split_the_area_exactly_like_the_symmetric_optimizer(
        frac, f_mem, concurrency, alpha):
    # A one-phase mixture and one core of an asymmetric chip given the
    # symmetric per-core budget are the symmetric problem: the same
    # split, float for float, at every feasible core count.
    machine = MachineParameters()
    budget = AreaBudget(machine)
    n = 1 + round(frac * (budget.max_feasible_cores() - 1))
    app = ApplicationProfile(name="p", f_seq=0.05, f_mem=f_mem,
                             concurrency=concurrency, g=PowerLawG(alpha))
    split = C2BoundOptimizer(app, machine).area_split(n)
    multi = MultiPhaseOptimizer([PhaseWeight(app, 1.0)], machine)
    assert multi.area_split(n) == split
    asym = AsymmetricOptimizer(app, machine)
    assert asym._split_budget(budget.per_core_budget(n))[:3] == (
        split.a0, split.a1, split.a2)
