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


BUDGET = [
    ("repro.cli", ["numpy", "repro.sim"]),
    ("repro", ["repro.sim", "repro.obs.stream"]),
    ("repro.sim.cache_store", ["repro.analysis.engine",
                               "repro.analysis.flow"]),
    ("repro.dse", ["repro.dse.ann", "repro.dse.ga", "repro.dse.rsm",
                   "repro.resilience.faults",
                   "repro.resilience.job_registry", "repro.experiments"]),
]


@pytest.mark.parametrize("module,forbidden", BUDGET,
                         ids=[module for module, _ in BUDGET])
def test_import_budget(module, forbidden):
    loaded = run_python(f"import json, sys, {module}\n"
                        "print(json.dumps(sorted(sys.modules)))")
    pulled = [name for name in loaded
              if any(name == f or name.startswith(f + ".")
                     for f in forbidden)]
    assert pulled == [], f"import {module} loaded {pulled}"


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
