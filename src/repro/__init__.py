"""C2-Bound: a capacity- and concurrency-driven analytical model for
many-core design.

Reproduction of Liu & Sun, SC'15 (DOI 10.1145/2807591.2807641).

Quick start
-----------
>>> from repro import ApplicationProfile, MachineParameters, C2BoundOptimizer
>>> app = ApplicationProfile(f_seq=0.02, f_mem=0.3, concurrency=4.0)
>>> result = C2BoundOptimizer(app, MachineParameters()).optimize()
>>> result.case
'maximize-throughput'

Package map
-----------
- :mod:`repro.camat` — C-AMAT latency model and trace analyzer.
- :mod:`repro.laws` — Amdahl / Gustafson / Sun-Ni speedup laws, g(N).
- :mod:`repro.core` — the C2-Bound objective, constraints and optimizer.
- :mod:`repro.capacity` — miss-rate curves, working sets, capacity bounds.
- :mod:`repro.metrics` — APC and throughput metrics.
- :mod:`repro.sim` — event-driven CMP simulator (GEM5+DRAMSim2 substitute).
- :mod:`repro.detector` — online HCD/MCD C-AMAT detection hardware model.
- :mod:`repro.workloads` — Table I kernels and PARSEC-like generators.
- :mod:`repro.dse` — APS and the ANN/GA/RSM exploration baselines.
- :mod:`repro.alloc` — multi-application core/cache allocation.
- :mod:`repro.experiments` — one runner per paper table/figure.
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.camat import (
        AccessTrace,
        AMATParameters,
        CAMATParameters,
        MemoryAccess,
        TraceAnalyzer,
        amat,
        camat,
        fig1_trace,
    )
    from repro.core import (
        ApplicationProfile,
        C2BoundOptimizer,
        CAMATModel,
        ChipConfig,
        DesignPoint,
        MachineParameters,
        execution_time,
        objective_jd,
        pollack_cpi,
    )
    from repro.laws import (
        PowerLawG,
        amdahl_speedup,
        gustafson_speedup,
        sun_ni_speedup,
    )
    from repro.errors import ReproError

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    # camat
    "AccessTrace",
    "MemoryAccess",
    "TraceAnalyzer",
    "AMATParameters",
    "CAMATParameters",
    "amat",
    "camat",
    "fig1_trace",
    # laws
    "amdahl_speedup",
    "gustafson_speedup",
    "sun_ni_speedup",
    "PowerLawG",
    # core
    "ApplicationProfile",
    "MachineParameters",
    "ChipConfig",
    "CAMATModel",
    "C2BoundOptimizer",
    "DesignPoint",
    "execution_time",
    "objective_jd",
    "pollack_cpi",
]

__getattr__, __dir__ = attach(__name__, __file__)
