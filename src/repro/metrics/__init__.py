"""Memory performance metrics (paper Section V).

APC (data Accesses Per memory-active Cycle) measures per-layer memory
throughput and relates to C-AMAT by ``APC = 1 / C-AMAT``.  Throughput
``W/T`` is the case-I objective of the optimizer.
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.metrics.apc import (
        APCMeasurement,
        LayerAPC,
        apc_from_counts,
        apc_from_camat,
        apc_from_trace,
    )
    from repro.metrics.queueing import (
        banked_dram_latency,
        md1_wait,
        mm1_wait,
        utilization,
    )
    from repro.metrics.throughput import throughput

__all__ = [
    "utilization",
    "mm1_wait",
    "md1_wait",
    "banked_dram_latency",
    "APCMeasurement",
    "LayerAPC",
    "apc_from_counts",
    "apc_from_camat",
    "apc_from_trace",
    "throughput",
]

__getattr__, __dir__ = attach(__name__, __file__)
