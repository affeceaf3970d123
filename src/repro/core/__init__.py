"""The C2-Bound model (paper Section III).

The model couples three ingredients:

1. the C-AMAT-based execution-time formula (Eq. 7),
2. Sun-Ni memory-bounded scaling of the problem size (Eqs. 8-10), and
3. physical silicon constraints — Pollack's rule (Eq. 11) and the fixed
   area budget (Eq. 12) —

into a constrained optimization (Eq. 13) whose solution is the optimal
core count ``N`` and per-core area split ``(A0, A1, A2)``.

Public entry points
-------------------
- :class:`ApplicationProfile` / :class:`MachineParameters` — inputs.
- :class:`ChipConfig` / :class:`DesignPoint` — outputs.
- :class:`CAMATModel` — C-AMAT as a function of cache areas.
- :class:`C2BoundOptimizer` — the optimization of Eq. 13 with the paper's
  case split on ``g(N)`` vs ``O(N)``.
- :func:`execution_time` / :func:`objective_jd` — Eq. 7 / Eq. 10.
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.core.params import ApplicationProfile, MachineParameters
    from repro.core.chip import ChipConfig
    from repro.core.constraints import AreaBudget, pollack_cpi
    from repro.core.camat_model import CAMATModel, HierarchyLatencies
    from repro.core.objective import (
        cpu_time,
        data_stall_time_amat,
        data_stall_time_camat,
        execution_time,
        generalized_objective,
        objective_jd,
    )
    from repro.core.lagrange import LagrangianSystem
    from repro.core.optimizer import C2BoundOptimizer, DesignPoint, OptimizationResult
    from repro.core.asymmetric import AsymmetricDesign, AsymmetricOptimizer
    from repro.core.energy import (
        EnergyAwareOptimizer,
        EnergyReport,
        PowerModel,
        energy_of_design,
    )
    from repro.core.thermal import (
        ThermallyConstrainedOptimizer,
        ThermalModel,
        ThermalReport,
    )
    from repro.core.multiphase import (
        MultiPhaseOptimizer,
        MultiPhaseResult,
        PhaseWeight,
    )

__all__ = [
    "ApplicationProfile",
    "MachineParameters",
    "ChipConfig",
    "AreaBudget",
    "pollack_cpi",
    "CAMATModel",
    "HierarchyLatencies",
    "cpu_time",
    "data_stall_time_amat",
    "data_stall_time_camat",
    "execution_time",
    "generalized_objective",
    "objective_jd",
    "LagrangianSystem",
    "C2BoundOptimizer",
    "DesignPoint",
    "OptimizationResult",
    # extensions (paper Section VII)
    "AsymmetricDesign",
    "AsymmetricOptimizer",
    "PowerModel",
    "EnergyReport",
    "energy_of_design",
    "EnergyAwareOptimizer",
    "ThermalModel",
    "ThermalReport",
    "ThermallyConstrainedOptimizer",
    "PhaseWeight",
    "MultiPhaseResult",
    "MultiPhaseOptimizer",
]

__getattr__, __dir__ = attach(__name__, __file__)
