"""C2L004 — callables crossing the process pool must be picklable.

:class:`repro.dse.fabric.FabricEvaluator` ships its work to
``concurrent.futures`` pool workers, which pickle the submitted callable
by *qualified name*.  A lambda or a function defined inside another
function pickles fine on no platform at all — the failure is a runtime
``PicklingError`` that only appears once ``workers > 1``, i.e. exactly
not under the default test configuration.  This rule makes the
constraint static: in any module that uses a process pool, the first
argument of ``pool.submit(...)`` / ``pool.map(...)`` must resolve to a
module-level function (or an imported name / dotted attribute), never a
lambda and never a nested ``def``.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.rules.base import Rule, iter_calls, walk_imports
from repro.analysis.source import Project, SourceFile

__all__ = ["PicklabilityRule"]

_POOL_IMPORTS = ("concurrent.futures", "multiprocessing")
_SUBMIT_METHODS = {"submit", "map", "apply_async", "starmap"}


def _uses_process_pool(source: SourceFile) -> bool:
    text = source.text
    return any(mod in text for mod in _POOL_IMPORTS)


def _def_scopes(tree: ast.Module):
    """(module-level defs, nested def names) in one pass."""
    top: set[str] = set()
    nested: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            top.add(node.name)
            for sub in ast.walk(node):
                if (sub is not node
                        and isinstance(sub, (ast.FunctionDef,
                                             ast.AsyncFunctionDef))):
                    nested.add(sub.name)
        elif isinstance(node, ast.ClassDef):
            for sub in ast.walk(node):
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    nested.add(sub.name)
    return top, nested


class PicklabilityRule(Rule):
    code = "C2L004"
    name = "picklability"
    description = ("callables submitted to a process pool must be "
                   "module-level functions (no lambdas, no closures)")

    def check_file(self, source: SourceFile,
                   project: Project) -> "Iterable[Diagnostic]":
        if source.tree is None or not _uses_process_pool(source):
            return
        top, nested = _def_scopes(source.tree)
        imported = set(walk_imports(source.tree))
        for call in iter_calls(source.tree):
            func = call.func
            if not (isinstance(func, ast.Attribute)
                    and func.attr in _SUBMIT_METHODS and call.args):
                continue
            target = call.args[0]
            if isinstance(target, ast.Lambda):
                yield self.diag(
                    source, target,
                    f"lambda submitted to .{func.attr}(): pool workers "
                    "pickle tasks by qualified name — move the body to a "
                    "module-level function")
            elif isinstance(target, ast.Name):
                name = target.id
                if name in nested and name not in top:
                    yield self.diag(
                        source, target,
                        f"{name!r} is defined inside another scope; a "
                        "process pool cannot pickle a closure — hoist it "
                        "to module level")
            # Attribute targets (module.fn) and unknown names (call
            # parameters, instance attributes) are accepted: the pickle
            # contract is the callee's to keep, and cross-module
            # resolution is out of static reach here.
