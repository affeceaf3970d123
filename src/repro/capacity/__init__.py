"""Memory-capacity models (paper Sections III & V).

- :mod:`repro.capacity.missrate` — miss-rate-vs-capacity curves (the
  power-law / sqrt-2 rule) that couple cache area to C-AMAT in the
  optimizer.
- :mod:`repro.capacity.area` — silicon area <-> cache capacity.
- :mod:`repro.capacity.workingset` — Denning working-set model over
  address traces.
- :mod:`repro.capacity.problem_size` — the on-chip-memory-bounded problem
  size (``max Z s.t. Y <= X``) and the processor-bound vs memory-bound
  case split of Section V.
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.capacity.missrate import MissRateCurve, PowerLawMissRate
    from repro.capacity.area import AreaModel
    from repro.capacity.fit import (
        MissCurvePoint,
        fit_power_law,
        measure_miss_curve,
    )
    from repro.capacity.reuse import ReuseProfile, reuse_distances, reuse_profile
    from repro.capacity.workingset import working_set_sizes, working_set_size
    from repro.capacity.problem_size import (
        BoundednessCase,
        CapacityBound,
        classify_boundedness,
        max_bounded_problem_size,
    )

__all__ = [
    "MissRateCurve",
    "PowerLawMissRate",
    "AreaModel",
    "MissCurvePoint",
    "measure_miss_curve",
    "fit_power_law",
    "ReuseProfile",
    "reuse_distances",
    "reuse_profile",
    "working_set_sizes",
    "working_set_size",
    "BoundednessCase",
    "CapacityBound",
    "classify_boundedness",
    "max_bounded_problem_size",
]

__getattr__, __dir__ = attach(__name__, __file__)
