"""Interprocedural flow analysis under ``c2bound lint --flow``.

The per-file rules of :mod:`repro.analysis.rules` see one AST at a time,
but the invariants PRs 7–8 introduced are *interprocedural*: whether a
function runs inside a pool worker depends on who submits it, and
whether the epoch kernel stays pure depends on everything reachable
from ``CoreModel.advance``.  This package supplies the shared machinery
the ``C2L2xx`` concurrency rules are built on:

- :mod:`repro.analysis.flow.callgraph` — a module-aware function/class
  index with alias-, re-export- and annotation-aware name resolution
  (``self.mshr._retire`` resolves through the ``self.mshr = MSHRFile(…)``
  assignment in ``__init__``);
- :mod:`repro.analysis.flow.summaries` — one effect summary per
  function: module-global reads/writes, I/O, tracing spans, lock use,
  pool submissions, resolved call sites;
- :mod:`repro.analysis.flow.dataflow` — the fixpoint layer: call-graph
  edges, reachability closures, the *crosses-process-boundary* and
  *hot-path* taints, and transitive effect queries, cached per
  :class:`~repro.analysis.source.Project` so the three rules pay for one
  analysis between them.
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.analysis.flow.callgraph import CallGraph, ClassInfo, FunctionInfo
    from repro.analysis.flow.dataflow import FlowAnalysis, get_flow
    from repro.analysis.flow.summaries import FunctionSummary, SubmitSite

__all__ = [
    "CallGraph",
    "ClassInfo",
    "FunctionInfo",
    "FlowAnalysis",
    "get_flow",
    "FunctionSummary",
    "SubmitSite",
]

__getattr__, __dir__ = attach(__name__, __file__)
