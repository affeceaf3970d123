"""Integration: the persistent sim cache under the DSE evaluators.

The contract of :mod:`repro.sim.cache_store` inside a search: caching
changes *wall time only*.  Costs are bit-identical with and without a
store, and :class:`repro.dse.BudgetedEvaluator` charges exactly the same
budget — the Fig. 12 "number of simulations" counts fresh evaluations of
distinct configurations whether or not the simulator behind them
answered from disk.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.dse.evaluate import BudgetedEvaluator, SimulatorEvaluator
from repro.obs import get_registry
from repro.runconfig import current, install
from repro.sim.cache_store import SimCacheStore
from repro.sim.config import SimulatedChip
from repro.workloads.parsec import parsec_like


@pytest.fixture(autouse=True)
def _no_ambient_store():
    install(replace(current(), sim_cache=None))


def _small_space() -> list[dict]:
    configs = [{"n": n, "issue_width": iw, "rob_size": 32,
                "l1_kib": 16.0, "l2_kib": 128.0}
               for n in (1, 2) for iw in (2, 4)]
    # Duplicates exercise the budget cache on top of the sim cache.
    return configs + [dict(configs[0]), dict(configs[2])]


def _make(workload, cache):
    base = replace(SimulatedChip(), n_cores=2)
    return BudgetedEvaluator(
        SimulatorEvaluator(workload, seed=99, base_chip=base, cache=cache))


def test_cached_and_uncached_costs_and_budgets_are_identical(tmp_path):
    wl = parsec_like("fluidanimate", n_ops=600)
    configs = _small_space()
    plain = _make(wl, cache=None)
    cached = _make(wl, cache=SimCacheStore(tmp_path / "store"))
    costs_plain = [plain.evaluate(c) for c in configs]
    costs_cached = [cached.evaluate(c) for c in configs]
    assert costs_plain == costs_cached  # bit-identical floats
    assert plain.evaluations == cached.evaluations == 4
    assert plain.evaluations_cached == cached.evaluations_cached == 2


def test_warm_store_charges_budget_but_runs_no_simulations(tmp_path):
    wl = parsec_like("fluidanimate", n_ops=600)
    store = SimCacheStore(tmp_path / "store")
    configs = _small_space()
    first = _make(wl, cache=store)
    costs_first = [first.evaluate(c) for c in configs]

    registry = get_registry()
    registry.reset()
    second = _make(wl, cache=store)  # fresh budget, same persistent store
    costs_second = [second.evaluate(c) for c in configs]
    assert costs_second == costs_first
    # The budget meter is unchanged by the warm store...
    assert second.evaluations == first.evaluations == 4
    # ...but not one simulation actually ran.
    assert registry.counter("sim.runs").value == 0
    assert registry.counter("sim.cache.hits").value == 4


def test_batch_path_shares_the_store(tmp_path):
    wl = parsec_like("fluidanimate", n_ops=600)
    store = SimCacheStore(tmp_path / "store")
    configs = _small_space()
    warmup = _make(wl, cache=store)
    expected = np.asarray([warmup.evaluate(c) for c in configs])

    registry = get_registry()
    registry.reset()
    batch = _make(wl, cache=store)
    out = batch.evaluate_batch(configs)
    assert np.array_equal(out, expected)
    assert batch.evaluations == 4
    assert registry.counter("sim.runs").value == 0


def test_constructor_resolves_default_store_eagerly(tmp_path):
    store = SimCacheStore(tmp_path / "store")
    with_store = replace(current(), sim_cache=store)
    install(with_store)
    evaluator = SimulatorEvaluator(parsec_like("fluidanimate", n_ops=400))
    assert evaluator.cache is store
    # Later config changes do not retarget an existing evaluator.
    install(replace(with_store, sim_cache=None))
    assert evaluator.cache is store
    # And cache=None opts out even while a store is installed.
    install(with_store)
    assert SimulatorEvaluator(
        parsec_like("fluidanimate", n_ops=400), cache=None).cache is None
