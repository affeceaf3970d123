"""C2L2xx — interprocedural concurrency and purity rules.

These rules machine-check the invariants PRs 7–8 introduced and are
built on :mod:`repro.analysis.flow` (they run only under
``c2bound lint --flow``, or when selected explicitly):

- **C2L202 cross-boundary escape** — nothing that drags parent-process
  state may cross a pool boundary: no lambdas, no bound methods, no
  mutable module globals in submit arguments, and code that executes in
  a worker must not write module globals (a worker-side write mutates a
  *copy* and silently diverges).
- **C2L203 hot-path purity** — functions reachable from the simulator
  hot roots (``CoreModel.advance`` / ``SMTCoreModel.advance`` /
  ``run_epoch_kernel``) may not write module globals, perform I/O, or
  take locks.
- **C2L204 front-tier hit discipline** — the membership-guarded hit
  branches of a tiered store's ``get`` (``if key in mem:``) must stay
  free of tracing spans, disk I/O and locks, directly or through
  anything they call: a front hit is the fabric's hot path.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.flow.callgraph import ClassInfo
from repro.analysis.flow.dataflow import FlowAnalysis, get_flow
from repro.analysis.flow.summaries import FunctionSummary
from repro.analysis.rules.base import Rule
from repro.analysis.source import Project, dotted_name

__all__ = ["BoundaryEscapeRule", "HotPathPurityRule", "FrontTierHitRule"]

#: function-name prefixes allowed to lazily initialize a private module
#: global (the ``get_tracer()``-style singleton idiom)
_SINGLETON_PREFIXES = ("get_", "set_", "configure_", "enable_",
                      "disable_", "reset_", "install_")


class _FlowRule(Rule):
    """Base for rules that need the interprocedural analysis."""

    requires_flow = True

    def _source_rel(self, flow: FlowAnalysis, qual: str) -> str:
        return flow.graph.functions[qual].source.rel


class BoundaryEscapeRule(_FlowRule):
    """C2L202: nothing mutable or parent-bound crosses a pool boundary."""

    code = "C2L202"
    name = "boundary-escape"
    severity = Severity.ERROR
    description = ("no lambdas, bound methods, or mutable module globals "
                   "in pool submissions; pool-worker code must not write "
                   "module globals")

    def check_project(self, project: Project) -> "Iterable[Diagnostic]":
        flow = get_flow(project)
        out: "list[Diagnostic]" = []
        for qual, site in flow.submit_sites:
            rel = self._source_rel(flow, qual)
            for lam in site.lambda_args:
                out.append(self.diag(
                    rel, lam,
                    f"lambda crosses the pool boundary in {qual}; "
                    f"lambdas do not pickle — use a module-level "
                    f"function"))
            for node, name in site.bound_method_args:
                out.append(self.diag(
                    rel, node,
                    f"bound method {name} crosses the pool boundary in "
                    f"{qual}; it drags its whole instance into the "
                    f"worker — pass data plus a module-level function"))
            for node, name in site.mutable_global_args:
                out.append(self.diag(
                    rel, node,
                    f"mutable module global {name!r} crosses the pool "
                    f"boundary in {qual}; the worker mutates a copy — "
                    f"pass an explicit argument instead"))
        for qual, origin in sorted(flow.boundary_from.items()):
            summary = flow.summaries[qual]
            rel = self._source_rel(flow, qual)
            for name, node in summary.global_writes:
                if self._is_singleton_init(qual, name):
                    continue
                out.append(self.diag(
                    rel, node,
                    f"module global {name!r} written in pool-worker "
                    f"code ({qual} runs inside a worker via {origin}); "
                    f"the write mutates the worker's copy and silently "
                    f"diverges from the parent"))
        return out

    @staticmethod
    def _is_singleton_init(qual: str, global_name: str) -> bool:
        func_name = qual.rsplit(".", 1)[-1]
        return (global_name.startswith("_")
                and func_name.startswith(_SINGLETON_PREFIXES))


class HotPathPurityRule(_FlowRule):
    """C2L203: the epoch loop's reachable set stays pure."""

    code = "C2L203"
    name = "hot-path-purity"
    severity = Severity.ERROR
    description = ("functions reachable from CoreModel.advance / "
                   "SMTCoreModel.advance / run_epoch_kernel may not "
                   "write module globals, perform I/O, or take locks")

    def check_project(self, project: Project) -> "Iterable[Diagnostic]":
        flow = get_flow(project)
        out: "list[Diagnostic]" = []
        for qual, root in sorted(flow.hot_from.items()):
            summary = flow.summaries[qual]
            rel = self._source_rel(flow, qual)
            for name, node in summary.global_writes:
                out.append(self.diag(
                    rel, node,
                    f"hot-path function {qual} (reachable from {root}) "
                    f"writes module global {name!r}"))
            for desc, node in summary.io_calls:
                out.append(self.diag(
                    rel, node,
                    f"hot-path function {qual} (reachable from {root}) "
                    f"performs I/O: {desc}"))
            for desc, node in summary.lock_uses:
                out.append(self.diag(
                    rel, node,
                    f"hot-path function {qual} (reachable from {root}) "
                    f"takes a lock: {desc}"))
        return out


def _front_attrs(cinfo: ClassInfo) -> "set[str]":
    """``self.X = OrderedDict()/dict()/{}`` attrs assigned in the class."""
    attrs: "set[str]" = set()
    for sub in ast.walk(cinfo.node):
        if not isinstance(sub, ast.Assign) or len(sub.targets) != 1:
            continue
        target = sub.targets[0]
        if (not isinstance(target, ast.Attribute)
                or not isinstance(target.value, ast.Name)
                or target.value.id != "self"):
            continue
        value = sub.value
        ctor = (dotted_name(value.func)
                if isinstance(value, ast.Call) else None)
        if isinstance(value, ast.Dict) and not value.keys:
            attrs.add(target.attr)
        elif ctor is not None and ctor.rsplit(".", 1)[-1] in (
                "OrderedDict", "dict"):
            attrs.add(target.attr)
    return attrs


class FrontTierHitRule(_FlowRule):
    """C2L204: no spans, disk I/O or locks inside front-tier hits."""

    code = "C2L204"
    name = "front-tier-hit"
    severity = Severity.ERROR
    description = ("membership-guarded hit branches of a tiered store's "
                   "get() must stay free of tracing spans, disk I/O and "
                   "locks — directly or transitively")

    def check_project(self, project: Project) -> "Iterable[Diagnostic]":
        flow = get_flow(project)
        out: "list[Diagnostic]" = []
        for cinfo in flow.graph.classes.values():
            get_qual = cinfo.methods.get("get")
            if get_qual is None:
                continue
            fronts = _front_attrs(cinfo)
            if not fronts:
                continue
            out.extend(self._check_get(flow, get_qual, fronts))
        return out

    def _check_get(self, flow: FlowAnalysis, qual: str,
                   fronts: "set[str]") -> "Iterable[Diagnostic]":
        info = flow.graph.functions[qual]
        summary = flow.summaries[qual]
        rel = info.source.rel
        local_fronts: "set[str]" = set()
        for sub in ast.walk(info.node):
            if (isinstance(sub, ast.Assign) and len(sub.targets) == 1
                    and isinstance(sub.targets[0], ast.Name)
                    and isinstance(sub.value, ast.Attribute)
                    and isinstance(sub.value.value, ast.Name)
                    and sub.value.value.id == "self"
                    and sub.value.attr in fronts):
                local_fronts.add(sub.targets[0].id)
        for branch in ast.walk(info.node):
            if not isinstance(branch, ast.If):
                continue
            if not self._is_front_membership(branch.test, fronts,
                                             local_fronts):
                continue
            body_ids = {id(n) for stmt in branch.body
                        for n in ast.walk(stmt)}
            for node in summary.span_calls:
                if id(node) in body_ids:
                    yield self.diag(
                        rel, node,
                        f"tracing span inside the front-tier hit branch "
                        f"of {qual}; a span per memory hit swamps the "
                        f"trace and re-adds hot-path overhead")
            for desc, node in summary.io_calls:
                if id(node) in body_ids:
                    yield self.diag(
                        rel, node,
                        f"disk I/O ({desc}) inside the front-tier hit "
                        f"branch of {qual}; a memory hit must not touch "
                        f"the filesystem")
            for desc, node in summary.lock_uses:
                if id(node) in body_ids:
                    yield self.diag(
                        rel, node,
                        f"lock use ({desc}) inside the front-tier hit "
                        f"branch of {qual}; the front tier is lock-free "
                        f"by design")
            for callee in flow.calls_within(qual, body_ids):
                hit = flow.first_transitive(callee, _span_io_lock_effects)
                if hit is not None:
                    offender, desc, _node = hit
                    first = next(node for c, node in summary.calls
                                 if c == callee and id(node) in body_ids)
                    yield self.diag(
                        rel, first,
                        f"front-tier hit branch of {qual} reaches "
                        f"{desc} in {offender} (via {callee})")

    @staticmethod
    def _is_front_membership(test: ast.expr, fronts: "set[str]",
                             local_fronts: "set[str]") -> bool:
        if (not isinstance(test, ast.Compare)
                or len(test.ops) != 1
                or not isinstance(test.ops[0], ast.In)):
            return False
        target = test.comparators[0]
        if isinstance(target, ast.Name):
            return target.id in local_fronts
        return (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and target.attr in fronts)


def _span_io_lock_effects(
        summary: FunctionSummary) -> "list[tuple[str, ast.AST]]":
    effects: "list[tuple[str, ast.AST]]" = [
        ("a tracing span", node) for node in summary.span_calls]
    effects.extend(("disk I/O (%s)" % desc, node)
                   for desc, node in summary.io_calls)
    effects.extend(("lock use (%s)" % desc, node)
                   for desc, node in summary.lock_uses)
    return effects
