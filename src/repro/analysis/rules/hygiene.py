"""Hygiene rules: C2L101 bare except, C2L102 mutable defaults, C2L103
exports, C2L104 eager package imports.

These are the generic companions to the repo-aware rules: failure modes
that bite any library, with remedies local to the flagged line.

- **C2L101** — a bare ``except:`` swallows ``KeyboardInterrupt`` and
  ``SystemExit``; catch a concrete exception (the repo's hierarchy
  roots at :class:`repro.errors.ReproError`) or ``Exception``.
- **C2L102** — a mutable default argument (``def f(x=[])``) is shared
  across *all* calls; the repo idiom is ``None`` plus an in-body
  default.
- **C2L103** — a public module (one defining public top-level functions
  or classes) must declare ``__all__``; the star-import surface and the
  documented API must be an explicit decision, not an accident of
  naming.  ``__main__`` modules and scripts are exempt.
- **C2L104** — a package ``__init__`` that imports its own submodules
  at run time makes every import of the package (and of any module
  inside it) pay for all of them.  Re-exports go under
  ``if TYPE_CHECKING:`` and load on first use through
  :func:`repro._lazy.attach`; an import the ``__init__`` itself uses
  (``DEFAULT_RULES`` in :mod:`repro.analysis.rules`) stays legal.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.rules.base import Rule
from repro.analysis.source import (Project, SourceFile, dotted_name,
                                   is_type_checking)

__all__ = ["BareExceptRule", "MutableDefaultRule", "ExportsRule",
           "EagerPackageImportRule"]

_MUTABLE_CALLS = {"list", "dict", "set"}


class BareExceptRule(Rule):
    code = "C2L101"
    name = "bare-except"
    description = "no bare except: clauses (they swallow KeyboardInterrupt)"

    def check_file(self, source: SourceFile,
                   project: Project) -> "Iterable[Diagnostic]":
        if source.tree is None:
            return
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.diag(
                    source, node,
                    "bare 'except:' also catches KeyboardInterrupt and "
                    "SystemExit; catch a concrete exception type "
                    "(ReproError, OSError, ...) or Exception")


class MutableDefaultRule(Rule):
    code = "C2L102"
    name = "mutable-default"
    description = "no mutable default arguments (shared across calls)"

    def check_file(self, source: SourceFile,
                   project: Project) -> "Iterable[Diagnostic]":
        if source.tree is None:
            return
        for node in ast.walk(source.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            args = node.args
            for default in [*args.defaults, *args.kw_defaults]:
                if default is None:
                    continue
                bad = isinstance(default, (ast.List, ast.Dict, ast.Set))
                if isinstance(default, ast.Call):
                    name = dotted_name(default.func)
                    bad = name in _MUTABLE_CALLS
                if bad:
                    yield self.diag(
                        source, default,
                        "mutable default argument is evaluated once and "
                        "shared by every call; default to None and "
                        "construct inside the body")


class ExportsRule(Rule):
    code = "C2L103"
    name = "missing-all"
    severity = Severity.WARNING
    description = "public modules must declare __all__"

    def check_file(self, source: SourceFile,
                   project: Project) -> "Iterable[Diagnostic]":
        if source.tree is None:
            return
        stem = source.path.stem
        if stem == "__main__" or stem.startswith("_") and stem != "__init__":
            return
        has_all = False
        public: list[str] = []
        for node in source.tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if isinstance(target, ast.Name) and target.id == "__all__":
                        has_all = True
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)):
                if not node.name.startswith("_"):
                    public.append(node.name)
        if public and not has_all:
            yield self.diag(
                source, None,
                f"module defines public names ({', '.join(public[:3])}"
                f"{', ...' if len(public) > 3 else ''}) but no __all__; "
                "declare the export surface explicitly")


def _runtime_imports(body: "list[ast.stmt]") -> "Iterable[ast.stmt]":
    """Module-level imports that execute (``if TYPE_CHECKING:`` skipped)."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If):
            if not is_type_checking(node.test):
                yield from _runtime_imports(node.body)
            yield from _runtime_imports(node.orelse)
        elif isinstance(node, ast.Try):
            for block in (node.body, node.orelse, node.finalbody,
                          *(h.body for h in node.handlers)):
                yield from _runtime_imports(block)


class EagerPackageImportRule(Rule):
    code = "C2L104"
    name = "eager-package-import"
    description = ("package __init__ must not import its own submodules "
                   "at run time unless it uses them")

    def check_file(self, source: SourceFile,
                   project: Project) -> "Iterable[Diagnostic]":
        package = source.module
        if (source.tree is None or source.path.name != "__init__.py"
                or not package):
            return
        used = {node.id for node in ast.walk(source.tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        for node in _runtime_imports(source.tree.body):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                own = node.level == 1 or (
                    module == package or module.startswith(package + "."))
                bound = [item.asname or item.name for item in node.names]
            else:
                own = any(item.name.startswith(package + ".")
                          for item in node.names)
                bound = [item.asname or item.name.split(".")[0]
                         for item in node.names]
            unused = [name for name in bound if name not in used]
            if own and unused:
                yield self.diag(
                    source, node,
                    f"package __init__ imports {', '.join(unused)} from "
                    "its own submodules at run time without using "
                    f"{'it' if len(unused) == 1 else 'them'}; move the "
                    "re-export under 'if TYPE_CHECKING:' and load it "
                    "lazily with repro._lazy.attach")
