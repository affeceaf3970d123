"""Online C-AMAT detection hardware (paper Fig. 4).

The paper attaches a C-AMAT analyzer to the cache: a Hit Concurrency
Detector (HCD) counting hit cycles and hit phases, and a Miss Concurrency
Detector (MCD) that — given per-cycle hit activity from the HCD and miss
status from the MSHRs — counts pure miss cycles.  This package models
those structures as cycle-bucketed counters over a bounded reordering
window, exactly the "set of lightweight counters" the paper deploys for
online phase adaptation.

:class:`CAMATDetector` combines both and reports running
:class:`repro.camat.CAMATParameters`; fed a full trace it agrees exactly
with the offline :class:`repro.camat.TraceAnalyzer` (validated in the
test suite), while :class:`EpochDetector` reports per-epoch values for
phase tracking.
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.detector.hcd import HitConcurrencyDetector
    from repro.detector.mcd import MissConcurrencyDetector
    from repro.detector.analyzer_hw import CAMATDetector, DetectorReport
    from repro.detector.epochs import EpochDetector, EpochReport

__all__ = [
    "HitConcurrencyDetector",
    "MissConcurrencyDetector",
    "CAMATDetector",
    "DetectorReport",
    "EpochDetector",
    "EpochReport",
]

__getattr__, __dir__ = attach(__name__, __file__)
