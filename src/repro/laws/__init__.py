"""Parallel speedup laws (paper Section II-B).

Sun-Ni's memory-bounded speedup law (Eq. 4) generalizes both Amdahl's law
(``g(N) = 1``) and Gustafson's law (``g(N) = N``).  The problem-size scale
function ``g`` is derived from an application's computation/memory
complexity pair via ``W = h(M)`` and ``g(N) = h(N*M) / h(M)`` (Table I).
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.laws.amdahl import amdahl_speedup
    from repro.laws.gustafson import gustafson_speedup
    from repro.laws.sunni import (
        memory_bounded_speedup,
        scaled_problem_size,
        sun_ni_speedup,
    )
    from repro.laws.gfunction import (
        GFunction,
        PowerLawG,
        FFTLikeG,
        FixedSizeG,
        LinearG,
        TABLE_I,
        derive_g_from_complexity,
        g_from_h,
        scaling_regime,
    )

__all__ = [
    "amdahl_speedup",
    "gustafson_speedup",
    "sun_ni_speedup",
    "memory_bounded_speedup",
    "scaled_problem_size",
    "GFunction",
    "PowerLawG",
    "FFTLikeG",
    "FixedSizeG",
    "LinearG",
    "TABLE_I",
    "derive_g_from_complexity",
    "g_from_h",
    "scaling_regime",
]

__getattr__, __dir__ = attach(__name__, __file__)
