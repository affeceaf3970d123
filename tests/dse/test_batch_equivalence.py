"""Differential tests: the batched/parallel fast paths ≡ the slow path.

The batch engine's determinism contract (``docs/DSE_PERFORMANCE.md``)
says batching and workers change wall time only.  These tests enforce it
literally: element-wise *exact* equality for the surrogate (scalar,
batch and grid share one NumPy kernel), exact ordered equality for the
process-pool simulator path, and identical best configurations, costs
and budget counts for every search method with batching on (large
batches) vs off (``batch_size=1``) and ``workers=1`` vs ``workers=4``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.params import ApplicationProfile, MachineParameters
from repro.dse import (
    ANNPredictorSearch,
    APSExplorer,
    BudgetedEvaluator,
    FabricEvaluator,
    SimulatorEvaluator,
    SurrogateEvaluator,
    batch_evaluate,
    brute_force_search,
    genetic_search,
    response_surface_search,
)
from repro.laws.gfunction import PowerLawG

SEEDS = (0, 1, 2, 3)


@pytest.fixture(scope="module")
def app() -> ApplicationProfile:
    return ApplicationProfile(f_seq=0.02, f_mem=0.35, concurrency=4.0,
                              g=PowerLawG(1.0))


@pytest.fixture(scope="module")
def machine() -> MachineParameters:
    return MachineParameters(total_area=400.0, shared_area=40.0)


@pytest.fixture(scope="module")
def surrogate(app, machine) -> SurrogateEvaluator:
    return SurrogateEvaluator(app, machine)


class TestSurrogateBatchExactness:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_batch_equals_scalar_elementwise(self, surrogate,
                                             random_space_factory,
                                             random_config_batch_factory,
                                             seed):
        space = random_space_factory(seed)
        configs = random_config_batch_factory(space, seed, size=60)
        batched = surrogate.evaluate_batch(configs)
        sequential = np.array([surrogate.evaluate(c) for c in configs])
        # Bit-for-bit, including the inf of infeasible points.
        assert np.array_equal(batched, sequential)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_batch_equals_grid_enumeration(self, surrogate,
                                           random_space_factory, seed):
        space = random_space_factory(seed)
        assert np.array_equal(surrogate.evaluate_batch(list(space)),
                              surrogate.evaluate_grid(space))

    def test_batch_mixes_feasible_and_infeasible(self, surrogate):
        configs = [
            {"a0": 1.0, "a1": 0.5, "a2": 1.0, "n": 2,
             "issue_width": 4, "rob_size": 128},
            {"a0": 100.0, "a1": 100.0, "a2": 100.0, "n": 64,
             "issue_width": 4, "rob_size": 128},   # over the area budget
            {"a0": 1.0, "a1": 0.5, "a2": 1.0, "n": 0,
             "issue_width": 4, "rob_size": 128},   # n < 1
            {"a0": -1.0, "a1": 0.5, "a2": 1.0, "n": 2,
             "issue_width": 4, "rob_size": 128},   # negative area
            {"a0": 1.0, "a1": 0.5, "a2": 1.0, "n": 2,
             "issue_width": 0, "rob_size": 128},   # issue < 1
        ]
        out = surrogate.evaluate_batch(configs)
        assert np.isfinite(out[0])
        assert np.all(np.isinf(out[1:]))
        assert np.array_equal(
            out, np.array([surrogate.evaluate(c) for c in configs]))

    def test_missing_optional_params_use_scalar_defaults(self, surrogate):
        config = {"a0": 1.0, "a1": 0.5, "a2": 1.0, "n": 2}
        assert (surrogate.evaluate_batch([config])[0]
                == surrogate.evaluate(config))

    def test_empty_batch(self, surrogate):
        assert surrogate.evaluate_batch([]).shape == (0,)


class TestBudgetedBatchEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_costs_and_counters_match_sequential(self, surrogate,
                                                 random_space_factory,
                                                 random_config_batch_factory,
                                                 seed):
        space = random_space_factory(seed)
        configs = random_config_batch_factory(space, seed)
        seq_budget = BudgetedEvaluator(surrogate)
        bat_budget = BudgetedEvaluator(surrogate)
        sequential = np.array([seq_budget.evaluate(c) for c in configs])
        batched = bat_budget.evaluate_batch(configs)
        assert np.array_equal(batched, sequential)
        assert bat_budget.evaluations == seq_budget.evaluations
        assert bat_budget.evaluations_cached == seq_budget.evaluations_cached

    def test_split_batches_share_the_cache(self, surrogate,
                                           random_space_factory,
                                           random_config_batch_factory):
        space = random_space_factory(7)
        configs = random_config_batch_factory(space, 7)
        whole = BudgetedEvaluator(surrogate)
        split = BudgetedEvaluator(surrogate)
        expected = whole.evaluate_batch(configs)
        mid = len(configs) // 2
        got = np.concatenate([split.evaluate_batch(configs[:mid]),
                              split.evaluate_batch(configs[mid:])])
        assert np.array_equal(got, expected)
        assert split.evaluations == whole.evaluations
        assert split.evaluations_cached == whole.evaluations_cached


class TestParallelSimulatorPath:
    @pytest.fixture(scope="class")
    def sim_evaluator(self) -> SimulatorEvaluator:
        from repro.workloads import parsec_like
        return SimulatorEvaluator(parsec_like("blackscholes", n_ops=400),
                                  seed=1)

    @pytest.fixture(scope="class")
    def sim_configs(self) -> list[dict]:
        return [{"n": n, "issue_width": iw, "rob_size": 64,
                 "a1": 0.5, "a2": 8.0}
                for n in (1, 2) for iw in (2, 4, 8)]

    def test_workers_1_vs_4_identical_order(self, sim_evaluator,
                                            sim_configs):
        sequential = np.array([sim_evaluator.evaluate(c)
                               for c in sim_configs])
        with FabricEvaluator(sim_evaluator, workers=1) as one:
            inline = one.evaluate_batch(sim_configs)
        with FabricEvaluator(sim_evaluator, workers=4) as four:
            fanned = four.evaluate_batch(sim_configs)
        # Tolerance-free: the simulator is a pure function of
        # (config, seed), and reassembly preserves submission order.
        assert np.array_equal(inline, sequential)
        assert np.array_equal(fanned, sequential)

    def test_budget_accounting_identical_under_workers(self, sim_evaluator,
                                                       sim_configs):
        results = {}
        for workers in (1, 4):
            with FabricEvaluator(sim_evaluator, workers=workers) as pool:
                budget = BudgetedEvaluator(pool)
                costs = budget.evaluate_batch(sim_configs + sim_configs[:3])
                results[workers] = (costs, budget.evaluations,
                                    budget.evaluations_cached)
        costs1, fresh1, cached1 = results[1]
        costs4, fresh4, cached4 = results[4]
        assert np.array_equal(costs1, costs4)
        assert fresh1 == fresh4 == len(sim_configs)
        assert cached1 == cached4 == 3

    def test_scalar_passthrough(self, sim_evaluator, sim_configs):
        with FabricEvaluator(sim_evaluator, workers=4) as pool:
            assert (pool.evaluate(sim_configs[0])
                    == sim_evaluator.evaluate(sim_configs[0]))


class TestSearchMethodsBatchOnOff:
    """Every search returns the identical result batched vs not."""

    @pytest.fixture(scope="class")
    def space(self):
        from repro.dse.space import DesignSpace, Parameter
        return DesignSpace([
            Parameter("a0", (0.25, 0.5, 1.0, 2.0)),
            Parameter("a1", (0.1, 0.25, 0.5, 1.0)),
            Parameter("a2", (0.5, 1.0, 2.0, 4.0)),
            Parameter("n", (2, 8, 32, 64)),
            Parameter("issue_width", (1, 2, 4, 8)),
            Parameter("rob_size", (32, 128, 512)),
        ])

    def _pair(self, run):
        off = run(1)
        on = run(256)
        return off, on

    def test_brute(self, surrogate, space):
        off, on = self._pair(lambda bs: brute_force_search(
            space, BudgetedEvaluator(surrogate), batch_size=bs))
        assert off.best_config == on.best_config
        assert off.best_cost == on.best_cost
        assert off.evaluations == on.evaluations
        assert off.skipped_infeasible == on.skipped_infeasible

    def test_ga(self, surrogate, space):
        off, on = self._pair(lambda bs: genetic_search(
            space, BudgetedEvaluator(surrogate), population=12,
            generations=4, seed=2, batch_size=bs))
        assert off.best_config == on.best_config
        assert off.best_cost == on.best_cost
        assert off.evaluations == on.evaluations

    def test_rsm(self, surrogate, space):
        off, on = self._pair(lambda bs: response_surface_search(
            space, BudgetedEvaluator(surrogate), initial_samples=30,
            rounds=2, refine_samples=8, seed=2, batch_size=bs))
        assert off.best_config == on.best_config
        assert off.best_cost == on.best_cost
        assert off.evaluations == on.evaluations

    def test_ann(self, surrogate, space):
        def run(bs):
            search = ANNPredictorSearch(space, batch=30, max_rounds=2,
                                        seed=2, epochs=120)
            return search.search(BudgetedEvaluator(surrogate),
                                 target_error=0.3, batch_size=bs)
        off, on = self._pair(run)
        assert off.best_config == on.best_config
        assert off.best_cost == on.best_cost
        assert off.simulations == on.simulations

    def test_aps(self, app, machine, surrogate, space):
        off, on = self._pair(lambda bs: APSExplorer(
            app, machine, space).explore(BudgetedEvaluator(surrogate),
                                         batch_size=bs))
        assert off.best_config == on.best_config
        assert off.best_cost == on.best_cost
        assert off.simulations == on.simulations

    def test_brute_on_simulator_workers_1_vs_4(self):
        from repro.dse.space import DesignSpace, Parameter
        from repro.workloads import parsec_like
        space = DesignSpace([
            Parameter("n", (1, 2)),
            Parameter("issue_width", (2, 8)),
            Parameter("rob_size", (32, 128)),
        ])
        wl = parsec_like("blackscholes", n_ops=300)
        results = []
        for workers in (1, 4):
            with FabricEvaluator(SimulatorEvaluator(wl, seed=2),
                                 workers=workers) as pool:
                results.append(brute_force_search(
                    space, BudgetedEvaluator(pool), batch_size=8))
        one, four = results
        assert one.best_config == four.best_config
        assert one.best_cost == four.best_cost
        assert one.evaluations == four.evaluations == space.size


class TestBatchDispatchFallback:
    def test_plain_evaluator_falls_back_to_scalar_loop(self):
        class Plain:
            def __init__(self):
                self.calls = 0

            def evaluate(self, config):
                self.calls += 1
                return float(config["x"])

        plain = Plain()
        out = batch_evaluate(plain, [{"x": 3.0}, {"x": 1.0}, {"x": 2.0}])
        assert np.array_equal(out, [3.0, 1.0, 2.0])
        assert plain.calls == 3

    def test_shape_mismatch_rejected(self):
        from repro.errors import DesignSpaceError

        class Broken:
            def evaluate(self, config):
                return 0.0

            def evaluate_batch(self, configs):
                return np.zeros(len(configs) + 1)

        with pytest.raises(DesignSpaceError):
            batch_evaluate(Broken(), [{"x": 1}])
