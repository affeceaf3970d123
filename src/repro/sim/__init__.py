"""Event-driven CMP simulator (the paper's GEM5 + DRAMSim2 substitute).

The paper validates C2-Bound against cycle-accurate simulation of a 4-way
out-of-order CMP with a two-level cache hierarchy and a DRAM model.  This
package provides a trace-driven simulator with the behaviours the model
depends on:

- set-associative, non-blocking (MSHR-based) caches with banked L1s
  (hit concurrency ``C_H``),
- miss overlap bounded by MSHR count and ROB reach (miss concurrency
  ``C_M``),
- a banked DRAM with row-buffer locality and queueing (DRAMSim2-lite),
- a mesh NoC latency model between cores and L2 slices,
- multi-core contention via globally time-ordered servicing of the
  shared L2/DRAM.

Each simulated core emits a cycle-level :class:`repro.camat.AccessTrace`
per memory layer, so the offline :class:`repro.camat.TraceAnalyzer`, the
online :mod:`repro.detector` counters and the APC metrics all apply
directly to simulation output.
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.sim.config import (
        CacheConfig,
        CoreMicroConfig,
        DRAMConfig,
        NoCConfig,
        SimulatedChip,
    )
    from repro.sim.cache import SetAssociativeCache
    from repro.sim.mshr import MSHRFile
    from repro.sim.dram import DRAMModel
    from repro.sim.noc import MeshNoC
    from repro.sim.core import CoreModel, CoreResult
    from repro.sim.smt import SMTCoreModel
    from repro.sim.prefetch import NextLinePrefetcher, StridePrefetcher
    from repro.sim.hierarchy import MemoryHierarchy
    from repro.sim.cmp import CMPSimulator, SimulationResult

__all__ = [
    "CacheConfig",
    "CoreMicroConfig",
    "DRAMConfig",
    "NoCConfig",
    "SimulatedChip",
    "SetAssociativeCache",
    "MSHRFile",
    "DRAMModel",
    "MeshNoC",
    "CoreModel",
    "CoreResult",
    "SMTCoreModel",
    "NextLinePrefetcher",
    "StridePrefetcher",
    "MemoryHierarchy",
    "CMPSimulator",
    "SimulationResult",
]

__getattr__, __dir__ = attach(__name__, __file__)
