"""Reachability and taint propagation over the call graph.

:class:`FlowAnalysis` glues the pieces together: it builds the
:class:`~repro.analysis.flow.callgraph.CallGraph`, scans every function
into a :class:`~repro.analysis.flow.summaries.FunctionSummary`, and
closes two taints over the resolved edges:

- **boundary** — reachable from a callable submitted to a process pool
  (these functions execute in a worker, so anything they touch must
  survive pickling and must not lean on parent-process state);
- **hot** — reachable from a simulator hot root
  (``CoreModel.advance`` / ``SMTCoreModel.advance`` /
  ``run_epoch_kernel``), matched by qualified-name *suffix* so fixture
  packages can replicate the layout under any root package.

Because edge construction is under-approximate (unresolvable calls add
no edge), both taints are too — rules built on them favor missed
findings over false positives.

The analysis is cached on the :class:`~repro.analysis.source.Project`
instance via :func:`get_flow`, so the three flow-based C2L2xx rules pay
for one pass between them.
"""

from __future__ import annotations

import ast
from typing import Callable

from repro.analysis.flow.callgraph import CallGraph
from repro.analysis.flow.summaries import (FunctionSummary, SubmitSite,
                                           scan_function)
from repro.analysis.source import Project

__all__ = ["HOT_ROOT_SUFFIXES", "FlowAnalysis", "get_flow"]

#: Hot-path entry points, matched by qualified-name suffix.
HOT_ROOT_SUFFIXES = (
    "sim.core.CoreModel.advance",
    "sim.smt.SMTCoreModel.advance",
    "sim.kernel.run_epoch_kernel",
)

_FLOW_CACHE_ATTR = "_c2bound_flow_analysis"


class FlowAnalysis:
    """Whole-project call graph, summaries, and taint closures."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.graph = CallGraph.build(project)
        self.summaries: "dict[str, FunctionSummary]" = {
            info.qual: scan_function(info, self.graph)
            for info in self.graph.iter_functions()
        }
        self.edges: "dict[str, set[str]]" = {
            qual: summary.callees
            for qual, summary in self.summaries.items()
        }
        #: (submitting function qual, site) for every pool submission
        self.submit_sites: "list[tuple[str, SubmitSite]]" = [
            (qual, site)
            for qual, summary in self.summaries.items()
            for site in summary.submits
        ]
        self.hot_roots: "list[str]" = [
            qual for qual in self.summaries
            if self.is_hot_root(qual)
        ]
        boundary_seeds = [site.callee_qual
                          for _, site in self.submit_sites
                          if site.callee_qual is not None]
        self.boundary_from = self._closure(boundary_seeds)
        self.hot_from = self._closure(self.hot_roots)

    # ---- taints -----------------------------------------------------------

    @staticmethod
    def is_hot_root(qual: str) -> bool:
        return any(qual == suffix or qual.endswith(f".{suffix}")
                   for suffix in HOT_ROOT_SUFFIXES)

    def _closure(self, seeds: "list[str]") -> "dict[str, str]":
        """BFS closure: reached qual -> the seed it is reachable from."""
        origin: "dict[str, str]" = {}
        queue = []
        for seed in seeds:
            if seed in self.summaries and seed not in origin:
                origin[seed] = seed
                queue.append(seed)
        while queue:
            current = queue.pop(0)
            for callee in self.edges.get(current, ()):
                if callee not in origin and callee in self.summaries:
                    origin[callee] = origin[current]
                    queue.append(callee)
        return origin

    @property
    def boundary(self) -> "set[str]":
        """Functions that (may) execute inside a pool worker."""
        return set(self.boundary_from)

    @property
    def hot(self) -> "set[str]":
        """Functions reachable from a simulator hot root."""
        return set(self.hot_from)

    # ---- queries ----------------------------------------------------------

    def reachable(self, seeds: "list[str]") -> "set[str]":
        return set(self._closure(seeds))

    def first_transitive(
        self, start: str,
        pick: "Callable[[FunctionSummary], list[tuple[str, ast.AST]]]",
    ) -> "tuple[str, str, ast.AST] | None":
        """First (function, description, node) effect reachable from start.

        ``pick`` selects the effect list from a summary — e.g.
        ``lambda s: s.io_calls``.  The walk is breadth-first from
        ``start`` (inclusive), so the nearest offender is reported.
        """
        seen = {start}
        queue = [start]
        while queue:
            current = queue.pop(0)
            summary = self.summaries.get(current)
            if summary is None:
                continue
            effects = pick(summary)
            if effects:
                desc, node = effects[0]
                return current, desc, node
            for callee in self.edges.get(current, ()):
                if callee not in seen:
                    seen.add(callee)
                    queue.append(callee)
        return None

    def calls_within(self, qual: str,
                     nodes: "set[int]") -> "list[str]":
        """Resolved callees whose call node is one of ``nodes`` (by id)."""
        summary = self.summaries.get(qual)
        if summary is None:
            return []
        return [callee for callee, node in summary.calls
                if id(node) in nodes]


def get_flow(project: Project) -> FlowAnalysis:
    """The (cached) flow analysis for a project."""
    cached = getattr(project, _FLOW_CACHE_ATTR, None)
    if isinstance(cached, FlowAnalysis):
        return cached
    flow = FlowAnalysis(project)
    setattr(project, _FLOW_CACHE_ATTR, flow)
    return flow
