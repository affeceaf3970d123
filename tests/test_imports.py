"""Import hygiene: every module imports alone, a run imports only what it
uses, and lazily loaded package re-exports behave like eager ones.

Each check runs in a fresh interpreter, because what a module pulls in
is only visible against an empty ``sys.modules``.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]


def run_python(code: str) -> "list | dict":
    """Run ``code`` in a fresh interpreter; parse its last stdout line."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300,
                          check=False)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


ISOLATION = """
import importlib, json, pkgutil, sys
import repro
names = sorted(m.name for m in pkgutil.walk_packages(repro.__path__,
                                                     "repro."))
failed = {}
for name in names:
    for key in [k for k in sys.modules
                if k == "repro" or k.startswith("repro.")]:
        del sys.modules[key]
    try:
        importlib.import_module(name)
    except Exception as exc:
        failed[name] = repr(exc)
print(json.dumps({"count": len(names), "failed": failed}))
"""


def test_every_module_imports_in_isolation():
    # A package __init__ that stops importing its submodules can expose
    # import cycles that eager loading used to break; each module must
    # still import on its own.
    report = run_python(ISOLATION)
    assert report["count"] >= 150
    assert report["failed"] == {}


#: What the Fig. 12 experiment imports only to run the ANN/GA/RSM
#: baselines and print its table.
BASELINES = ["repro.dse.ann", "repro.dse.ga", "repro.dse.rsm",
             "repro.io.results"]
#: What a search never calls: C-AMAT trace analysis and APC (read only
#: to analyse a result), the prefetchers (off in the default L1) and the
#: Newton solver (only for ``refine_newton``).
ANALYSIS = ["repro.camat.analyzer", "repro.camat.trace", "repro.camat.camat",
            "repro.metrics.apc", "repro.sim.prefetch", "repro.solvers.newton"]
#: The process pool, which only a run with more than one worker starts.
POOL = ["repro.dse.fabric", "multiprocessing"]

BUDGET = [
    ("repro.cli", ["numpy", "repro.sim"]),
    ("repro", ["repro.sim", "repro.obs.stream"]),
    ("repro.sim.cache_store", ["repro.analysis.engine",
                               "repro.analysis.flow"]),
    ("repro.dse", ["repro.dse.ann", "repro.dse.ga", "repro.dse.rsm",
                   "repro.resilience.faults",
                   "repro.resilience.job_registry", "repro.experiments"]),
    ("repro.experiments.fig12_aps", BASELINES),
    ("repro.sim.cmp", ANALYSIS),
    ("repro.service.server", POOL),
    ("repro.dse.jobs", POOL),
]


def _loaded(names: "list[str]", forbidden: "list[str]") -> "list[str]":
    return [name for name in names
            if any(name == f or name.startswith(f + ".") for f in forbidden)]


@pytest.mark.parametrize("module,forbidden", BUDGET,
                         ids=[module for module, _ in BUDGET])
def test_import_budget(module, forbidden):
    loaded = run_python(f"import json, sys, {module}\n"
                        "print(json.dumps(sorted(sys.modules)))")
    pulled = _loaded(loaded, forbidden)
    assert pulled == [], f"import {module} loaded {pulled}"


def test_search_path_never_imports_analysis_modules():
    # An APS search on the simulator, one design point through
    # simulate_chip_cost and a one-worker simulator job run none of the
    # trace analysis, Newton, prefetch, baseline or pool code.
    loaded = run_python(
        "import json, sys\n"
        "from repro.dse.aps import APSExplorer\n"
        "from repro.dse.evaluate import BudgetedEvaluator, "
        "SimulatorEvaluator\n"
        "from repro.dse.jobs import run_job\n"
        "from repro.experiments.fig12_aps import (fluidanimate_profile,\n"
        "                                         fluidanimate_space)\n"
        "from repro.sim.cmp import simulate_chip_cost\n"
        "from repro.workloads.parsec import parsec_like\n"
        "app, machine = fluidanimate_profile()\n"
        "evaluator = SimulatorEvaluator(parsec_like('fluidanimate', "
        "n_ops=200),\n"
        "                               seed=1, cache=None)\n"
        "result = APSExplorer(app, machine, fluidanimate_space(3)).explore(\n"
        "    BudgetedEvaluator(evaluator, method='aps'))\n"
        "assert result.simulations > 0\n"
        "chip = evaluator.chip_for(result.best_config)\n"
        "assert simulate_chip_cost(chip, evaluator.workload, 1) == \\\n"
        "    result.best_cost\n"
        "job = run_job({'space': {'params': [\n"
        "    {'name': 'a0', 'values': [2.0, 4.0]},\n"
        "    {'name': 'n', 'values': [2, 4]}]},\n"
        "    'evaluator': {'type': 'simulator', 'workload': 'gups',\n"
        "                  'workload_args': {'updates': 400}, "
        "'cache': None}},\n"
        "    workers=1)\n"
        "assert job['evaluations'] == 4\n"
        "print(json.dumps(sorted(sys.modules)))")
    assert _loaded(loaded, BASELINES + ANALYSIS + POOL) == []


#: The entry points of the first-use cases below and a small
#: simulation; importing them loads none of the modules the cases defer.
FIRST_USE_PRELUDE = '''
from dataclasses import replace

import numpy as np

from repro.core.camat_model import CAMATModel
from repro.core.optimizer import C2BoundOptimizer
from repro.dse.jobs import run_job
from repro.experiments.fig12_aps import fluidanimate_profile, run_fig12
from repro.sim.cmp import CMPSimulator
from repro.sim.config import SimulatedChip
from repro.workloads.parsec import parsec_like


def simulate(prefetch="none"):
    chip = SimulatedChip(n_cores=2)
    chip = replace(chip, l1=replace(chip.l1, prefetch=prefetch))
    streams = parsec_like("canneal", n_ops=300).streams(
        2, np.random.default_rng(3))
    return CMPSimulator(chip).run(streams)


def columns(trace):
    return [trace.starts.tolist(), trace.hit_lengths.tolist(),
            trace.miss_penalties.tolist()]


def fluidanimate_optimizer():
    return C2BoundOptimizer(*fluidanimate_profile())
'''

#: (id, deferred module, expression whose value is compared).  Each
#: expression is the first thing its process runs that needs the module.
FIRST_USE = [
    ("core_stats", "repro.camat.analyzer", "repr(simulate().core_stats(0))"),
    ("layer_apc", "repro.metrics.apc", "repr(simulate().layer_apc())"),
    ("l2_trace", "repro.camat.trace", "columns(simulate().l2_trace)"),
    ("dram_trace", "repro.camat.trace", "columns(simulate().dram_trace)"),
    ("core_trace", "repro.camat.trace",
     "columns(simulate().cores[1].trace())"),
    ("nextline_prefetch", "repro.sim.prefetch",
     "[(c.finish_cycle, c.prefetches_issued, c.prefetches_useful)\n"
     " for c in simulate('nextline').cores]"),
    ("stride_prefetch", "repro.sim.prefetch",
     "[(c.finish_cycle, c.prefetches_issued, c.prefetches_useful)\n"
     " for c in simulate('stride').cores]"),
    ("lagrangian_solve", "repro.solvers.newton",
     "fluidanimate_optimizer().lagrangian.solve(16).x.tolist()"),
    ("refine_newton", "repro.solvers.newton",
     "repr(fluidanimate_optimizer().refine_newton(\n"
     "    fluidanimate_optimizer().area_split(16)))"),
    ("as_camat_params", "repro.camat.camat",
     "repr(CAMATModel().as_camat_params(0.5, 2.0, 3.0))"),
    ("run_fig12", "repro.dse.ga",
     "repr(run_fig12(values_per_param=3, seed=0)[1])"),
    ("run_job_pool", "repro.dse.fabric",
     "run_job(\n"
     "    {'space': {'params': [{'name': 'a0', 'values': [2, 4]},\n"
     "                          {'name': 'a1', 'values': [1, 2]},\n"
     "                          {'name': 'a2', 'values': [1, 2]},\n"
     "                          {'name': 'n', 'values': [4, 8]}]}},\n"
     "    workers=2)"),
]


@pytest.mark.parametrize("module,expression",
                         [case[1:] for case in FIRST_USE],
                         ids=[case[0] for case in FIRST_USE])
def test_deferred_import_loads_on_first_use(module, expression):
    # A fresh interpreter that has not loaded the module runs the
    # feature first; it must load the module and give what this
    # process, which imported everything eagerly, gives.
    fresh = run_python(
        FIRST_USE_PRELUDE
        + "import json, sys\n"
        + f"assert {module!r} not in sys.modules\n"
        + f"value = ({expression})\n"
        + f"assert {module!r} in sys.modules\n"
        + "print(json.dumps(value))")
    scope: dict = {}
    exec(FIRST_USE_PRELUDE, scope)
    assert fresh == json.loads(json.dumps(eval(expression, scope)))


def test_reexport_shadowing_a_submodule_wins_in_any_order():
    # `repro.obs.span` is both a submodule and the re-exported function;
    # importing the submodule first must not change what the package
    # name means (the eager packages bound the function last).
    kinds = run_python(
        "import json, types\n"
        "import repro.obs.span, repro.camat.camat, repro.camat.amat\n"
        "import repro.metrics.throughput, repro.camat\n"
        "from repro.obs import span\n"
        "from repro.camat import amat, camat\n"
        "from repro.metrics import throughput\n"
        "import repro\n"
        "values = [span, camat, amat, throughput, repro.camat]\n"
        "print(json.dumps([isinstance(v, types.ModuleType) "
        "for v in values]))")
    assert kinds == [False] * 5


def test_submodule_resolves_as_package_attribute():
    names = run_python(
        "import json, repro.sim\n"
        "print(json.dumps([repro.sim.cmp.__name__, "
        "repro.sim.CMPSimulator.__module__]))")
    assert names == ["repro.sim.cmp", "repro.sim.cmp"]


PACKAGES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
    assert set(module.__all__) <= set(dir(module))
    assert not hasattr(module, "no_such_name")


def test_search_path_never_imports_numpy_ma():
    # NumPy 2.4's np.unique imports numpy.ma (about 1 MiB) on first
    # call; the APS path sorts Python ints instead at its three sites.
    loaded = run_python(
        "import json, sys\n"
        "import numpy\n"
        "eager = 'numpy.ma' in sys.modules\n"
        "from repro.core.optimizer import C2BoundOptimizer\n"
        "from repro.experiments.fig12_aps import (fluidanimate_profile,\n"
        "                                         fluidanimate_space)\n"
        "from repro.solvers.grid import integer_minimize\n"
        "fluidanimate_space(10)\n"
        "app, machine = fluidanimate_profile()\n"
        "C2BoundOptimizer(app, machine).optimize(record_curve=True)\n"
        "res = integer_minimize(lambda n: abs(n - 77777), 1, 10**6)\n"
        "assert res.x == 77777\n"
        "print(json.dumps([eager, 'numpy.ma' in sys.modules]))")
    eager, loaded_ma = loaded
    if eager:
        pytest.skip("this NumPy imports numpy.ma with numpy itself")
    assert not loaded_ma
