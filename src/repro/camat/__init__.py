"""C-AMAT: concurrent average memory access time (paper Section II-A).

This package provides:

- :class:`MemoryAccess` / :class:`AccessTrace` — a cycle-level model of
  overlapped memory accesses (hit lookup window followed by an optional
  miss-penalty window).
- :class:`TraceAnalyzer` — computes every parameter of Eq. 1 and Eq. 2
  (``H, MR, AMP, C_H, C_M, pMR, pAMP``) from a trace, including the *pure
  miss* semantics: a miss cycle is pure iff no access has hit activity in
  that cycle, and a miss access is a pure miss iff it owns at least one
  pure miss cycle.
- :func:`fig1_trace` — the exact five-access example of the paper's
  Fig. 1 (AMAT = 3.8, C-AMAT = 1.6).
- Closed-form helpers :func:`amat`, :func:`camat` and the parameter
  dataclasses used throughout the optimizer.

The central invariant (property-tested in ``tests/camat``):

    C-AMAT == memory-active wall cycles / number of accesses

where a cycle is memory-active iff at least one access is in its hit
window or has a miss outstanding.
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.camat.amat import AMATParameters, amat
    from repro.camat.camat import CAMATParameters, camat, concurrency_ratio
    from repro.camat.trace import AccessTrace, MemoryAccess, fig1_trace
    from repro.camat.phases import Phase, hit_phases, pure_miss_phases
    from repro.camat.analyzer import TraceAnalyzer, TraceStatistics

__all__ = [
    "AMATParameters",
    "amat",
    "CAMATParameters",
    "camat",
    "concurrency_ratio",
    "MemoryAccess",
    "AccessTrace",
    "fig1_trace",
    "Phase",
    "hit_phases",
    "pure_miss_phases",
    "TraceAnalyzer",
    "TraceStatistics",
]

__getattr__, __dir__ = attach(__name__, __file__)
