"""C-AMAT as a function of the cache-area allocation.

This module supplies the coupling that makes Eq. 13 a genuine trade-off:
giving area to cores (``A0``) lowers ``CPI_exe`` by Pollack's rule while
giving area to caches (``A1``, ``A2``) lowers miss rates and hence
C-AMAT.  The latency stack is a two-level hierarchy like the paper's
simulated i7-style machine:

    AMAT  = H + MR1(cap(A1)) * AMP,
    AMP   = L2_hit + MR2(cap(A2)) * DRAM
    C-AMAT = AMAT / C                       (Eq. 3 rearranged)

with the equivalent Eq. 2 decomposition ``C_H = C_M = C``, ``pMR = MR``,
``pAMP = AMP`` (the uniform-concurrency reading used by the paper's
analytic sweeps, Figs. 8-11).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.capacity.area import AreaModel
from repro.capacity.missrate import PowerLawMissRate
from repro.errors import InvalidParameterError

if TYPE_CHECKING:
    from repro.camat.camat import CAMATParameters

__all__ = ["HierarchyLatencies", "CAMATModel"]


@dataclass(frozen=True)
class HierarchyLatencies:
    """Latency stack of the two-level hierarchy (cycles).

    Defaults follow the Intel Core-i7-like machine the paper simulates
    (L1 ~3 cycles, LLC ~15, DRAM ~200).
    """

    l1_hit: float = 3.0
    l2_hit: float = 15.0
    dram: float = 200.0

    def __post_init__(self) -> None:
        if not 0 < self.l1_hit <= self.l2_hit <= self.dram:
            raise InvalidParameterError(
                "latencies must satisfy 0 < L1 <= L2 <= DRAM, got "
                f"({self.l1_hit}, {self.l2_hit}, {self.dram})")


@dataclass(frozen=True)
class CAMATModel:
    """Map cache areas (and concurrency ``C``) to AMAT / C-AMAT.

    Attributes
    ----------
    latencies:
        Hit/miss latency stack.
    l1_curve, l2_curve:
        Miss-rate-vs-capacity curves for the private L1 and the per-core
        L2 slice.  ``l2_curve`` gives the L2 *local* miss rate.
    area_model:
        Area-to-capacity conversion shared by both levels.
    """

    latencies: HierarchyLatencies = field(
        default_factory=lambda: HierarchyLatencies(l1_hit=3.0, l2_hit=15.0,
                                                   dram=300.0))
    l1_curve: PowerLawMissRate = field(default_factory=lambda: PowerLawMissRate(
        base_miss_rate=0.15, base_capacity_kib=32.0, alpha=0.5,
        compulsory_floor=1e-3))
    l2_curve: PowerLawMissRate = field(default_factory=lambda: PowerLawMissRate(
        base_miss_rate=0.08, base_capacity_kib=512.0, alpha=0.5,
        compulsory_floor=5e-3))
    area_model: AreaModel = field(default_factory=AreaModel)

    # ----- latency components ------------------------------------------------
    def l1_miss_rate(self, a1: "float | np.ndarray") -> "float | np.ndarray":
        """``MR1`` at the L1 capacity bought by area ``a1``."""
        return self.l1_curve.miss_rate(self.area_model.capacity_kib(a1))

    def l2_miss_rate(self, a2: "float | np.ndarray") -> "float | np.ndarray":
        """``MR2`` (local) at the L2 capacity bought by area ``a2``."""
        return self.l2_curve.miss_rate(self.area_model.capacity_kib(a2))

    def avg_miss_penalty(self, a2: "float | np.ndarray") -> "float | np.ndarray":
        """``AMP = L2_hit + MR2 * DRAM`` in cycles."""
        return self.latencies.l2_hit + self.l2_miss_rate(a2) * self.latencies.dram

    def amat(self, a1: "float | np.ndarray",
             a2: "float | np.ndarray") -> "float | np.ndarray":
        """Eq. 1 with capacity-dependent miss rates."""
        return self.latencies.l1_hit + self.l1_miss_rate(a1) * self.avg_miss_penalty(a2)

    def camat(self, a1: "float | np.ndarray", a2: "float | np.ndarray",
              concurrency: float) -> "float | np.ndarray":
        """``C-AMAT = AMAT / C`` (Eq. 3)."""
        if concurrency < 1.0:
            raise InvalidParameterError(
                f"concurrency must be >= 1, got {concurrency}")
        return self.amat(a1, a2) / concurrency

    def as_camat_params(self, a1: float, a2: float,
                        concurrency: float) -> CAMATParameters:
        """Eq. 2 decomposition under uniform concurrency.

        Sets ``C_H = C_M = C``, ``pMR = MR1`` and ``pAMP = AMP`` so that
        the bundle's ``value`` equals :meth:`camat` exactly.
        """
        from repro.camat.camat import CAMATParameters

        if concurrency < 1.0:
            raise InvalidParameterError(
                f"concurrency must be >= 1, got {concurrency}")
        return CAMATParameters(
            hit_time=self.latencies.l1_hit,
            hit_concurrency=concurrency,
            pure_miss_rate=float(self.l1_miss_rate(a1)),
            pure_avg_miss_penalty=float(self.avg_miss_penalty(a2)),
            miss_concurrency=concurrency,
        )
