"""Fig. 12 reproduction: number of simulations per DSE method.

The paper's fluidanimate case study: six parameters x ten values =
a 10^6-point space.  APS solves ``(A0, A1, A2, N)`` analytically and
simulates only issue width x ROB size = 10^2 points; the ANN predictor
needs 613 simulations to reach the same 5.96% accuracy; the full sweep
needs 10^6.

Substitution note (documented in DESIGN.md): our ground truth for the
full space is the calibrated analytic surrogate (the authors used 128
Xeons for four weeks).  The reproduction targets the *ratios*: APS sims
= (simulated-parameter grid) << ANN sims << full space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.params import ApplicationProfile, MachineParameters
from repro.dse.aps import APSExplorer
from repro.dse.evaluate import BudgetedEvaluator, SurrogateEvaluator
from repro.dse.space import DesignSpace, Parameter
from repro.laws.gfunction import PowerLawG
from repro.obs import get_registry, get_tracer
from repro.solvers.grid import unique_ints

if TYPE_CHECKING:
    from repro.io.results import ResultTable

__all__ = ["run_fig12", "fluidanimate_space", "fluidanimate_profile",
           "Fig12Outcome"]


def fluidanimate_profile() -> tuple[ApplicationProfile, MachineParameters]:
    """The case-study inputs (fluidanimate-like characterization)."""
    app = ApplicationProfile(
        name="fluidanimate", f_seq=0.02, f_mem=0.35,
        g=PowerLawG(1.0, name="fluidanimate"), concurrency=4.0,
        overlap_ratio=0.0, ic0=1e9)
    machine = MachineParameters(total_area=400.0, shared_area=40.0)
    return app, machine


def fluidanimate_space(values_per_param: int = 10) -> DesignSpace:
    """Six parameters x ``values_per_param`` values (paper: 10 -> 10^6)."""
    k = values_per_param

    def grid(lo: float, hi: float) -> tuple:
        import numpy as np
        return tuple(float(v) for v in np.geomspace(lo, hi, k))

    def igrid(lo: int, hi: int) -> tuple:
        import numpy as np
        vals = unique_ints(np.round(np.geomspace(lo, hi, k)).astype(int))
        # Pad to exactly k distinct values if rounding collapsed some.
        extras = [v for v in range(lo, hi + 1) if v not in vals]
        vals = sorted(set(vals) | set(extras[: k - len(vals)]))
        return tuple(int(v) for v in vals[:k])

    return DesignSpace([
        Parameter("a0", grid(0.1, 4.0)),
        Parameter("a1", grid(0.05, 2.0)),
        Parameter("a2", grid(0.05, 4.0)),
        Parameter("n", igrid(2, 256)),
        Parameter("issue_width", igrid(1, 10)),
        Parameter("rob_size", igrid(16, 512)),
    ])


@dataclass(frozen=True)
class Fig12Outcome:
    """Raw numbers behind the Fig. 12 bars."""

    space_size: int
    aps_sims: int
    ann_sims: int
    ga_sims: int
    rsm_sims: int
    full_sims: int
    aps_error: float
    ann_error: float
    ga_error: float
    rsm_error: float

    @property
    def aps_vs_ann_ratio(self) -> float:
        """Paper: APS used 16.3% of ANN's simulation count."""
        return self.aps_sims / self.ann_sims if self.ann_sims else float("inf")


def run_fig12(*, values_per_param: int = 10,
              seed: int = 0) -> tuple[ResultTable, Fig12Outcome]:
    """Compare DSE methods on the fluidanimate-like space.

    Errors are relative to the surrogate ground truth's global optimum
    (found by exact enumeration, which the surrogate makes affordable).
    The ANN, GA and RSM baselines are imported here, so the APS path
    (:func:`fluidanimate_profile`, :func:`fluidanimate_space`) never
    loads them.
    """
    from repro.dse.ann import ANNPredictorSearch
    from repro.dse.ga import genetic_search
    from repro.dse.rsm import response_surface_search
    from repro.io.results import ResultTable

    tracer = get_tracer()
    app, machine = fluidanimate_profile()
    space = fluidanimate_space(values_per_param)
    surrogate = SurrogateEvaluator(app, machine)

    # Ground truth: exact (vectorized) enumeration of the surrogate —
    # the substituted "128 Xeons x 4 weeks" full sweep.
    import numpy as np
    with tracer.span("experiment.fig12.full_sweep", space_size=space.size):
        best_cost = float(np.min(surrogate.evaluate_grid(space)))

    def error_of(cost: float) -> float:
        return (cost - best_cost) / best_cost

    with tracer.span("experiment.fig12.aps"):
        aps_budget = BudgetedEvaluator(surrogate, method="aps")
        aps = APSExplorer(app, machine, space).explore(aps_budget)

    # Paper protocol: ANN trains until it matches APS's accuracy (the
    # paper quotes 5.96% for both); floor the target to stay meaningful.
    ann_target = max(error_of(aps.best_cost), 0.0596)
    with tracer.span("experiment.fig12.ann"):
        ann_budget = BudgetedEvaluator(surrogate, method="ann")
        ann = ANNPredictorSearch(space, seed=seed).search(
            ann_budget, target_error=ann_target)

    with tracer.span("experiment.fig12.ga"):
        ga_budget = BudgetedEvaluator(surrogate, method="ga")
        ga = genetic_search(space, ga_budget, seed=seed)

    with tracer.span("experiment.fig12.rsm"):
        rsm_budget = BudgetedEvaluator(surrogate, method="rsm")
        rsm = response_surface_search(space, rsm_budget, seed=seed)

    registry = get_registry()
    registry.gauge("fig12.space_size").set(space.size)
    registry.gauge("fig12.aps_sims").set(aps.simulations)
    registry.gauge("fig12.ann_sims").set(ann.simulations)
    registry.gauge("fig12.ga_sims").set(ga.evaluations)
    registry.gauge("fig12.rsm_sims").set(rsm.evaluations)

    outcome = Fig12Outcome(
        space_size=space.size,
        aps_sims=aps.simulations,
        ann_sims=ann.simulations,
        ga_sims=ga.evaluations,
        rsm_sims=rsm.evaluations,
        full_sims=space.size,
        aps_error=error_of(aps.best_cost),
        ann_error=error_of(ann.best_cost),
        ga_error=error_of(ga.best_cost),
        rsm_error=error_of(rsm.best_cost),
    )
    table = ResultTable(
        ["method", "simulations", "rel_error_vs_optimum"],
        title=f"Fig. 12: simulations needed (space = {space.size:,} points)")
    table.add_row("full sweep", outcome.full_sims, 0.0)
    table.add_row("ANN (Ipek)", outcome.ann_sims, outcome.ann_error)
    table.add_row("GA", outcome.ga_sims, outcome.ga_error)
    table.add_row("RSM", outcome.rsm_sims, outcome.rsm_error)
    table.add_row("APS (C2-Bound)", outcome.aps_sims, outcome.aps_error)
    return table, outcome
