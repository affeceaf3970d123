"""Per-function effect summaries.

One scan pass per function produces a :class:`FunctionSummary`: which
module globals it writes, what I/O, tracing spans and locks it touches,
where it submits work to a pool, and — the call-graph edges — which
project functions it calls, resolved through a small local type
environment (parameter annotations, ``self``, and ``x = self.attr`` /
``x = Cls(...)`` local bindings).

Everything carries the originating AST node so rules can point
diagnostics at the exact line, and so branch-local checks (C2L204's
front-tier hit paths) can intersect effect nodes with a branch body.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.flow.callgraph import (CallGraph, FunctionInfo,
                                           ModuleInfo)
from repro.analysis.source import dotted_name

__all__ = ["SubmitSite", "FunctionSummary", "scan_function",
           "SUBMIT_METHODS", "POOL_MODULES"]

SUBMIT_METHODS = frozenset({"submit", "map", "apply_async", "starmap"})
POOL_MODULES = ("concurrent.futures", "multiprocessing")

_MUTATING_METHODS = frozenset({
    "append", "extend", "add", "update", "pop", "clear", "setdefault",
    "remove", "discard", "insert", "popitem", "appendleft", "popleft",
})
_IO_ATTR_METHODS = frozenset({
    "write_text", "read_text", "write_bytes", "read_bytes", "unlink",
    "mkdir", "rename", "touch", "rmdir",
})
_IO_MODULE_PREFIXES = ("os.", "shutil.", "subprocess.")
_LOCK_CTORS = frozenset({
    "threading.Lock", "threading.RLock", "threading.Semaphore",
    "threading.BoundedSemaphore", "threading.Condition",
    "multiprocessing.Lock", "multiprocessing.RLock",
})


@dataclass
class SubmitSite:
    """One ``pool.submit(...)``-style call, pre-digested for the rules."""

    node: ast.Call
    method: str
    #: resolved qual of the submitted callable, when the first argument
    #: is a project function
    callee_qual: "str | None" = None
    lambda_args: "list[ast.Lambda]" = field(default_factory=list)
    #: (node, rendered name) — args like ``self.evaluate``
    bound_method_args: "list[tuple[ast.expr, str]]" = \
        field(default_factory=list)
    #: (node, global name) — args naming a mutable module global
    mutable_global_args: "list[tuple[ast.expr, str]]" = \
        field(default_factory=list)


@dataclass
class FunctionSummary:
    """Everything the flow rules need to know about one function."""

    qual: str
    #: (global name, node) — writes/mutations of module-level state
    global_writes: "list[tuple[str, ast.AST]]" = field(default_factory=list)
    #: (description, node) — file/OS/stdout side effects
    io_calls: "list[tuple[str, ast.AST]]" = field(default_factory=list)
    #: ``.span(...)`` / ``.record_span(...)`` call nodes
    span_calls: "list[ast.Call]" = field(default_factory=list)
    #: (description, node) — lock construction/acquisition
    lock_uses: "list[tuple[str, ast.AST]]" = field(default_factory=list)
    submits: "list[SubmitSite]" = field(default_factory=list)
    #: resolved call edges: (callee qual, call node)
    calls: "list[tuple[str, ast.Call]]" = field(default_factory=list)
    #: dotted names the resolver could not attribute
    unresolved: "set[str]" = field(default_factory=set)

    @property
    def callees(self) -> "set[str]":
        return {qual for qual, _ in self.calls}


class _FunctionScanner(ast.NodeVisitor):
    """One walk over a function body, filling a :class:`FunctionSummary`."""

    def __init__(self, info: FunctionInfo, graph: CallGraph) -> None:
        self.info = info
        self.graph = graph
        self.mod: ModuleInfo = graph.modules[info.module]
        self.summary = FunctionSummary(qual=info.qual)
        self.global_decls: "set[str]" = set()
        self.locals: "set[str]" = set()
        #: local name -> class qual
        self.env: "dict[str, str]" = {}
        self._bind_params()

    # ---- environment ------------------------------------------------------

    def _bind_params(self) -> None:
        args = self.info.node.args
        params = list(args.posonlyargs) + list(args.args) + \
            list(args.kwonlyargs)
        for extra in (args.vararg, args.kwarg):
            if extra is not None:
                params.append(extra)
        for index, param in enumerate(params):
            self.locals.add(param.arg)
            if (index == 0 and self.info.is_method
                    and param.arg in ("self", "cls")
                    and self.info.class_qual is not None):
                self.env[param.arg] = self.info.class_qual
                continue
            cls = self.graph.annotation_class(param.annotation, self.mod)
            if cls is not None:
                self.env[param.arg] = cls

    def _expr_class(self, expr: ast.expr) -> "str | None":
        """Best-effort class qual of an expression's value."""
        if isinstance(expr, ast.Name):
            if expr.id in self.env or expr.id in self.locals:
                return self.env.get(expr.id)
            return self.graph.resolve_instance(
                self.graph.canonicalize(expr.id, self.mod))
        if isinstance(expr, ast.Attribute):
            owner = self._expr_class(expr.value)
            if owner is None:
                name = dotted_name(expr)
                if name is None or self._is_local_head(name):
                    return None
                # `module.NAME` where NAME is a module-level instance
                return self.graph.resolve_instance(
                    self.graph.canonicalize(name, self.mod))
            seen: "set[str]" = set()
            stack = [owner]
            while stack:
                qual = stack.pop(0)
                if qual in seen:
                    continue
                seen.add(qual)
                cinfo = self.graph.classes.get(qual)
                if cinfo is None:
                    continue
                if expr.attr in cinfo.attr_types:
                    return cinfo.attr_types[expr.attr]
                stack.extend(cinfo.bases)
            return None
        if isinstance(expr, ast.Call):
            name = dotted_name(expr.func)
            if name is not None and not self._is_local_head(name):
                return self.graph.resolve_global(
                    self.graph.canonicalize(name, self.mod), kind="class")
        return None

    def _is_local_head(self, name: str) -> bool:
        return name.partition(".")[0] in self.locals

    def _is_module_global(self, name: str) -> bool:
        return ((name in self.global_decls)
                or (name in self.mod.globals and name not in self.locals))

    # ---- resolution helpers ----------------------------------------------

    def _resolve_call(self, call: ast.Call) -> "str | None":
        func = call.func
        name = dotted_name(func)
        if name is not None and not self._is_local_head(name):
            target = self.graph.resolve_global(
                self.graph.canonicalize(name, self.mod))
            if target is not None:
                if target in self.graph.classes:
                    ctor = self.graph.resolve_method(target, "__init__")
                    return ctor if ctor is not None else target
                return target
        if isinstance(func, ast.Attribute):
            owner = self._expr_class(func.value)
            if owner is not None:
                return self.graph.resolve_method(owner, func.attr)
        if name is not None and not self._is_local_head(name):
            self.summary.unresolved.add(name)
        return None

    def _resolve_callable_ref(self, expr: ast.expr) -> "str | None":
        """A *reference* to a project function (not a call of it)."""
        name = dotted_name(expr)
        if name is None or self._is_local_head(name):
            return None
        target = self.graph.resolve_global(
            self.graph.canonicalize(name, self.mod), kind="function")
        return target

    def _bound_method_name(self, expr: ast.expr) -> "str | None":
        """``obj.method`` where ``method`` is a project method."""
        if not isinstance(expr, ast.Attribute):
            return None
        owner = self._expr_class(expr.value)
        if owner is None:
            return None
        if self.graph.resolve_method(owner, expr.attr) is not None:
            return f"{owner.rsplit('.', 1)[-1]}.{expr.attr}"
        return None

    # ---- visitors ---------------------------------------------------------

    def visit_Global(self, node: ast.Global) -> None:
        self.global_decls.update(node.names)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if node is not self.info.node:
            # nested defs are closures: bind the name, skip the body
            # (effects inside only matter if the closure escapes, which
            # the submit-site checks catch separately)
            self.locals.add(node.name)
            return
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_store_target(target, node)
        if (len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            name = node.targets[0].id
            if name not in self.global_decls:
                self.locals.add(name)
                cls = self._expr_class(node.value)
                if cls is not None:
                    self.env[name] = cls
                else:
                    self.env.pop(name, None)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._record_store_target(node.target, node)
        if isinstance(node.target, ast.Name):
            name = node.target.id
            if name not in self.global_decls:
                self.locals.add(name)
                cls = self.graph.annotation_class(node.annotation, self.mod)
                if cls is None and node.value is not None:
                    cls = self._expr_class(node.value)
                if cls is not None:
                    self.env[name] = cls
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_store_target(node.target, node)
        self.generic_visit(node)

    def _record_store_target(self, target: ast.expr, node: ast.AST) -> None:
        if isinstance(target, ast.Name):
            if target.id in self.global_decls:
                self.summary.global_writes.append((target.id, node))
        elif isinstance(target, (ast.Subscript, ast.Attribute)):
            base = target.value
            if (isinstance(base, ast.Name)
                    and self._is_module_global(base.id)):
                self.summary.global_writes.append((base.id, node))
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_store_target(element, node)

    def visit_With(self, node: ast.With) -> None:
        self._scan_with(node)
        self.generic_visit(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._scan_with(node)
        self.generic_visit(node)

    def _scan_with(self, node: "ast.With | ast.AsyncWith") -> None:
        for item in node.items:
            expr = item.context_expr
            probe = expr.func if isinstance(expr, ast.Call) else expr
            name = dotted_name(probe)
            if name is not None and "lock" in name.rsplit(".", 1)[-1].lower():
                self.summary.lock_uses.append((f"with {name}", node))

    def visit_Call(self, node: ast.Call) -> None:
        self._scan_call(node)
        self.generic_visit(node)

    def _scan_call(self, node: ast.Call) -> None:
        func = node.func
        name = dotted_name(func)
        canonical = (self.graph.canonicalize(name, self.mod)
                     if name is not None and not self._is_local_head(name)
                     else None)

        if canonical in ("open", "print"):
            self.summary.io_calls.append((f"{canonical}()", node))
        elif canonical is not None and (
                canonical.startswith(_IO_MODULE_PREFIXES)
                or canonical.startswith("sys.std")):
            self.summary.io_calls.append((f"{canonical}()", node))
        if canonical in _LOCK_CTORS:
            self.summary.lock_uses.append((f"{canonical}()", node))

        if isinstance(func, ast.Attribute):
            method = func.attr
            if method in ("span", "record_span"):
                self.summary.span_calls.append(node)
            elif method == "acquire":
                self.summary.lock_uses.append((".acquire()", node))
            elif (method in _IO_ATTR_METHODS and canonical is None
                    and self._expr_class(func.value) is None):
                self.summary.io_calls.append((f".{method}()", node))
            elif (method in _MUTATING_METHODS
                    and isinstance(func.value, ast.Name)
                    and self._is_module_global(func.value.id)):
                self.summary.global_writes.append((func.value.id, node))
            if method in SUBMIT_METHODS and self._module_uses_pools():
                self._scan_submit(node, method)

        target = self._resolve_call(node)
        if target is not None:
            self.summary.calls.append((target, node))

    def _module_uses_pools(self) -> bool:
        return any(origin == mod or origin.startswith(f"{mod}.")
                   for origin in self.mod.imports.values()
                   for mod in POOL_MODULES)

    def _scan_submit(self, node: ast.Call, method: str) -> None:
        site = SubmitSite(node=node, method=method)
        args = list(node.args) + [kw.value for kw in node.keywords]
        if node.args:
            site.callee_qual = self._resolve_callable_ref(node.args[0])
        payload = args[1:] if site.callee_qual is not None else args
        for arg in args:
            site.lambda_args.extend(sub for sub in ast.walk(arg)
                                    if isinstance(sub, ast.Lambda))
            if arg not in payload:
                continue
            bound = self._bound_method_name(arg)
            if bound is not None:
                site.bound_method_args.append((arg, bound))
            if (isinstance(arg, ast.Name)
                    and self._is_module_global(arg.id)
                    and self.mod.globals.get(arg.id, False)):
                site.mutable_global_args.append((arg, arg.id))
        self.summary.submits.append(site)


def scan_function(info: FunctionInfo, graph: CallGraph) -> FunctionSummary:
    """Build the effect summary for one function."""
    scanner = _FunctionScanner(info, graph)
    scanner.visit(info.node)
    return scanner.summary
