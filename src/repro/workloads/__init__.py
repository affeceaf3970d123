"""Workload generators (the paper's SPLASH-2 / PARSEC substitute).

Each generator produces per-core instruction streams in the simulator's
``(addresses, gaps)`` form — byte addresses of memory operations and the
number of compute instructions preceding each — plus the analytic
characteristics the C2-Bound model consumes (``f_seq``, ``f_mem``,
``g(N)``, working-set size).

The Table I kernels (tiled matrix multiply, band-sparse matvec, stencil,
FFT) generate their *actual* loop-nest address patterns; the PARSEC-like
suite (:mod:`repro.workloads.parsec`) uses parameterized synthetic
streams whose structural knobs (working set, locality, burstiness,
memory intensity) match the published characterization of each
benchmark.
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.workloads.base import Workload, WorkloadCharacteristics
    from repro.workloads.matmul import TiledMatMul
    from repro.workloads.stencil import Stencil1D
    from repro.workloads.stencil2d import Stencil2D
    from repro.workloads.spmv import BandSpMV
    from repro.workloads.fft import FFTWorkload
    from repro.workloads.gups import GUPS
    from repro.workloads.synthetic import SyntheticWorkload
    from repro.workloads.parsec import PARSEC_LIKE, parsec_like
    from repro.workloads.phases import PhasedWorkload
    from repro.workloads.simpoint import SimPointSelection, select_simpoints

__all__ = [
    "Workload",
    "WorkloadCharacteristics",
    "TiledMatMul",
    "Stencil1D",
    "Stencil2D",
    "BandSpMV",
    "FFTWorkload",
    "GUPS",
    "SyntheticWorkload",
    "PARSEC_LIKE",
    "parsec_like",
    "PhasedWorkload",
    "SimPointSelection",
    "select_simpoints",
]

__getattr__, __dir__ = attach(__name__, __file__)
