"""Rule protocol shared by every ``c2lint`` check.

A rule is a small stateless object with a ``code`` (``C2L001`` ...), a
default :class:`~repro.analysis.diagnostics.Severity`, and two hooks:

- :meth:`Rule.check_file` — called once per parsed file; the place for
  purely local checks (AST pattern matching).
- :meth:`Rule.check_project` — called once per run with the whole
  :class:`~repro.analysis.source.Project`; the place for cross-file
  checks (cache-key completeness, catalog consistency).

Adding a rule = subclass, implement a hook, append to
``repro.analysis.rules.DEFAULT_RULES`` (the recipe with a worked
example lives in ``docs/STATIC_ANALYSIS.md``).
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.source import Project, SourceFile, dotted_name

__all__ = ["Rule", "walk_imports"]


class Rule:
    """Base class: identity plus no-op hooks."""

    code: str = "C2L000"
    name: str = "unnamed"
    severity: Severity = Severity.ERROR
    description: str = ""
    #: rules built on :mod:`repro.analysis.flow` are skipped by the
    #: default selection unless the run enables interprocedural analysis
    #: (``c2bound lint --flow``); selecting them by code always works
    requires_flow: bool = False

    def check_file(self, source: SourceFile,
                   project: Project) -> "Iterable[Diagnostic]":
        """Findings local to one file (default: none)."""
        return ()

    def check_project(self, project: Project) -> "Iterable[Diagnostic]":
        """Findings needing the whole project view (default: none)."""
        return ()

    def diag(self, source: "SourceFile | str", node: "ast.AST | None",
             message: str, *,
             severity: "Severity | None" = None) -> Diagnostic:
        """Build a finding anchored to ``node`` (or the whole file)."""
        path = source if isinstance(source, str) else source.rel
        line = getattr(node, "lineno", 0) if node is not None else 0
        col = getattr(node, "col_offset", 0) if node is not None else 0
        return Diagnostic(path=path, line=line, col=col, code=self.code,
                          severity=severity or self.severity,
                          message=message)


def walk_imports(tree: ast.Module) -> "dict[str, str]":
    """Local alias → canonical dotted origin, for name resolution.

    ``import numpy as np`` → ``{"np": "numpy"}``;
    ``from numpy import random as npr`` → ``{"npr": "numpy.random"}``;
    ``from time import time`` → ``{"time": "time.time"}``.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                local = item.asname or item.name.split(".")[0]
                target = item.name if item.asname else item.name.split(".")[0]
                aliases[local] = target
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for item in node.names:
                if item.name == "*":
                    continue
                aliases[item.asname or item.name] = (
                    f"{node.module}.{item.name}")
    return aliases


def resolve_call_name(node: ast.AST,
                      aliases: "dict[str, str]") -> "str | None":
    """Canonical dotted name of a call target, through import aliases."""
    name = dotted_name(node)
    if name is None:
        return None
    head, _, rest = name.partition(".")
    origin = aliases.get(head)
    if origin is None:
        return name
    return f"{origin}.{rest}" if rest else origin


def iter_calls(tree: ast.Module) -> "Iterator[ast.Call]":
    """Every call expression in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node
