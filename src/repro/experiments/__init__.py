"""Per-figure experiment runners.

Each module regenerates one table or figure of the paper as a
:class:`repro.io.results.ResultTable` (series identical to the paper's
axes).  The benchmark harness under ``benchmarks/`` wraps these runners
with pytest-benchmark; the CLI (``c2bound``) exposes them directly.
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.experiments.fig01_camat_demo import run_fig1
    from repro.experiments.table1_gfactors import run_table1
    from repro.experiments.figs08_11_scaling import run_scaling_figure
    from repro.experiments.fig07_allocation import run_fig7
    from repro.experiments.fig12_aps import run_fig12
    from repro.experiments.fig13_apc import run_fig13
    from repro.experiments.capacity_bound import run_capacity_bound
    from repro.experiments.aps_accuracy import run_aps_accuracy

__all__ = [
    "run_fig1",
    "run_table1",
    "run_scaling_figure",
    "run_fig7",
    "run_fig12",
    "run_fig13",
    "run_capacity_bound",
    "run_aps_accuracy",
]

__getattr__, __dir__ = attach(__name__, __file__)
