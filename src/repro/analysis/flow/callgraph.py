"""Module-aware call-graph construction for the flow analysis.

The graph is built in two passes over an already-parsed
:class:`~repro.analysis.source.Project`:

1. **Index** — every module-level function and every method of a
   top-level class becomes a :class:`FunctionInfo` keyed by its dotted
   qualified name (``repro.sim.core.CoreModel.advance``).  Alongside,
   each module's import aliases (including *relative* imports, which
   :func:`~repro.analysis.rules.base.walk_imports` skips), its top-level
   global assignments, and — for package ``__init__`` files — its
   re-export map are recorded.
2. **Types** — per class, instance-attribute types are inferred from
   ``self.x = ClassName(...)`` assignments anywhere in the class body
   (conditional expressions contribute both arms; conflicting
   assignments degrade to *unknown*).  Base classes are resolved so
   method lookup can walk the inheritance chain.  A module-level
   instance, ``NAME = ClassName(...)`` bound once and never rebound
   through ``global``, is typed the same way on lookup
   (:meth:`CallGraph.resolve_instance`), so ``NAME.method(...)``
   resolves.

Resolution is deliberately *under*-approximate: a call the resolver
cannot attribute to a project function produces no edge (and is listed
in the summary's ``unresolved`` set), so flow rules never reason from a
guessed edge.  Decorated functions keep their def-site identity — the
analysis assumes decorators wrap rather than replace.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis.source import (Project, SourceFile, dotted_name,
                                   is_type_checking)

__all__ = ["FunctionInfo", "ClassInfo", "ModuleInfo", "CallGraph"]


@dataclass
class FunctionInfo:
    """One analyzed function or method."""

    qual: str
    name: str
    node: "ast.FunctionDef | ast.AsyncFunctionDef"
    source: SourceFile
    module: str
    class_qual: "str | None" = None

    @property
    def is_method(self) -> bool:
        return self.class_qual is not None


@dataclass
class ClassInfo:
    """One top-level class: methods, bases and inferred attribute types."""

    qual: str
    name: str
    node: ast.ClassDef
    source: SourceFile
    module: str
    #: method name -> function qual
    methods: "dict[str, str]" = field(default_factory=dict)
    #: raw base expressions as written (dotted names)
    base_names: "list[str]" = field(default_factory=list)
    #: resolved base class quals (project classes only)
    bases: "list[str]" = field(default_factory=list)
    #: instance attribute -> class qual (from ``self.x = Cls(...)``)
    attr_types: "dict[str, str]" = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """Per-module context the resolver consults."""

    name: str
    source: SourceFile
    #: local alias -> canonical dotted origin (absolute, relative-aware)
    imports: "dict[str, str]" = field(default_factory=dict)
    #: top-level global name -> "assigned value is a mutable literal"
    globals: "dict[str, bool]" = field(default_factory=dict)
    #: names of module-level defs (functions and classes)
    defs: "set[str]" = field(default_factory=set)
    #: top-level global name -> its value, where bound exactly once at
    #: module level and never rebound through ``global``
    bindings: "dict[str, ast.expr]" = field(default_factory=dict)


_MUTABLE_CTORS = {"list", "dict", "set", "collections.OrderedDict",
                  "collections.defaultdict", "collections.deque"}


def _is_mutable_literal(node: ast.AST, imports: "dict[str, str]") -> bool:
    """Whether a top-level assigned value is observably mutable."""
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name is None:
            return False
        return imports.get(name, name) in _MUTABLE_CTORS
    return False


def _relative_base(source: SourceFile, level: int) -> "tuple[str, ...]":
    """Package parts a ``from . import x`` style import resolves against."""
    parts = source.module_parts
    if source.path.name != "__init__.py":
        parts = parts[:-1]
    drop = level - 1
    return parts[:len(parts) - drop] if drop else parts


def module_imports(source: SourceFile,
                   nodes: "list[ast.stmt] | None" = None) -> "dict[str, str]":
    """Alias -> canonical dotted origin, absolute *and* relative aware.

    ``from ..sim import cache_store as cs`` inside ``repro/dse/fabric.py``
    maps ``cs`` to ``repro.sim.cache_store``.  ``nodes`` limits the scan
    to those statements (default: the whole module).
    """
    aliases: "dict[str, str]" = {}
    tree = source.tree
    if tree is None:
        return aliases
    scan = (ast.walk(tree) if nodes is None
            else (sub for stmt in nodes for sub in ast.walk(stmt)))
    for node in scan:
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.asname:
                    aliases[item.asname] = item.name
                else:
                    head = item.name.split(".")[0]
                    aliases[head] = head
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = ".".join(_relative_base(source, node.level))
                mod = f"{base}.{node.module}" if node.module else base
            elif node.module:
                mod = node.module
            else:  # pragma: no cover - `from  import x` cannot parse
                continue
            for item in node.names:
                if item.name == "*":
                    continue
                aliases[item.asname or item.name] = f"{mod}.{item.name}"
    return aliases


class CallGraph:
    """The project-wide function/class index plus name resolution.

    Edges themselves are attached by the summary scan
    (:func:`repro.analysis.flow.summaries.scan_function`); this class
    owns the *index* (who exists) and *resolution* (what a dotted name
    or a typed method call refers to).
    """

    def __init__(self) -> None:
        self.functions: "dict[str, FunctionInfo]" = {}
        self.classes: "dict[str, ClassInfo]" = {}
        self.modules: "dict[str, ModuleInfo]" = {}
        #: re-exported dotted name -> origin dotted name (one hop)
        self.exports: "dict[str, str]" = {}

    # ---- construction -----------------------------------------------------

    @classmethod
    def build(cls, project: Project) -> "CallGraph":
        graph = cls()
        for source in project.files:
            if source.tree is not None:
                graph._index_module(source)
        for info in graph.classes.values():
            graph._resolve_bases(info)
        for info in graph.classes.values():
            graph._infer_attr_types(info)
        return graph

    def _index_module(self, source: SourceFile) -> None:
        tree = source.tree
        assert tree is not None
        mod = ModuleInfo(name=source.module, source=source,
                         imports=module_imports(source))
        is_pkg_init = source.path.name == "__init__.py"
        bindings: "dict[str, list[ast.expr | None]]" = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{mod.name}.{node.name}" if mod.name else node.name
                self.functions[qual] = FunctionInfo(
                    qual=qual, name=node.name, node=node, source=source,
                    module=mod.name)
                mod.defs.add(node.name)
            elif isinstance(node, ast.ClassDef):
                cqual = f"{mod.name}.{node.name}" if mod.name else node.name
                cinfo = ClassInfo(qual=cqual, name=node.name, node=node,
                                  source=source, module=mod.name)
                cinfo.base_names = [n for n in map(dotted_name, node.bases)
                                    if n is not None]
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                        fqual = f"{cqual}.{sub.name}"
                        self.functions[fqual] = FunctionInfo(
                            qual=fqual, name=sub.name, node=sub,
                            source=source, module=mod.name,
                            class_qual=cqual)
                        cinfo.methods[sub.name] = fqual
                self.classes[cqual] = cinfo
                mod.defs.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                value = node.value
                for target in targets:
                    if isinstance(target, ast.Name):
                        bindings.setdefault(target.id, []).append(value)
                        mutable = (value is not None and
                                   _is_mutable_literal(value, mod.imports))
                        mod.globals.setdefault(target.id, False)
                        if mutable:
                            mod.globals[target.id] = True
                        mod.defs.add(target.id)
        rebound = {name for node in ast.walk(tree)
                   if isinstance(node, ast.Global) for name in node.names}
        for name, values in bindings.items():
            value = values[0]
            if len(values) == 1 and value is not None and name not in rebound:
                mod.bindings[name] = value
        if is_pkg_init and mod.name:
            # A package that loads its re-exports lazily (repro._lazy)
            # lists them under `if TYPE_CHECKING:`; that block is its
            # whole export map, as it is for the runtime resolver.
            lazy = [stmt for node in tree.body
                    if isinstance(node, ast.If)
                    and is_type_checking(node.test)
                    for stmt in node.body]
            exported = module_imports(source, lazy) if lazy else mod.imports
            for alias, origin in exported.items():
                self.exports[f"{mod.name}.{alias}"] = origin
        self.modules[mod.name] = mod

    def _resolve_bases(self, info: ClassInfo) -> None:
        mod = self.modules[info.module]
        for base in info.base_names:
            target = self.resolve_global(
                self.canonicalize(base, mod), kind="class")
            if target is not None:
                info.bases.append(target)

    def _infer_attr_types(self, info: ClassInfo) -> None:
        mod = self.modules[info.module]
        inferred: "dict[str, set[str | None]]" = {}
        for method_qual in info.methods.values():
            method = self.functions[method_qual]
            env = self._param_env(method.node, mod)
            for sub in ast.walk(method.node):
                target: "ast.expr | None" = None
                value: "ast.expr | None" = None
                if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                    target, value = sub.targets[0], sub.value
                elif isinstance(sub, ast.AnnAssign):
                    target, value = sub.target, sub.value
                if (not isinstance(target, ast.Attribute)
                        or not isinstance(target.value, ast.Name)
                        or target.value.id != "self" or value is None):
                    continue
                inferred.setdefault(target.attr, set()).update(
                    self._constructed_classes(value, mod, env))
        for attr, types in inferred.items():
            concrete = {t for t in types if t is not None}
            if len(concrete) == 1 and None not in types:
                info.attr_types[attr] = concrete.pop()

    def _param_env(self, node: "ast.FunctionDef | ast.AsyncFunctionDef",
                   mod: ModuleInfo) -> "dict[str, str]":
        env: "dict[str, str]" = {}
        for param in (list(node.args.posonlyargs) + list(node.args.args)
                      + list(node.args.kwonlyargs)):
            cls = self.annotation_class(param.annotation, mod)
            if cls is not None:
                env[param.arg] = cls
        return env

    def _constructed_classes(self, value: ast.expr, mod: ModuleInfo,
                             env: "dict[str, str]") -> "set[str | None]":
        """Class quals a value expression may construct (None = unknown)."""
        if isinstance(value, ast.IfExp):
            return (self._constructed_classes(value.body, mod, env)
                    | self._constructed_classes(value.orelse, mod, env))
        if isinstance(value, ast.Call):
            name = dotted_name(value.func)
            if name is not None:
                target = self.resolve_global(
                    self.canonicalize(name, mod), kind="class")
                if target is not None:
                    return {target}
        if isinstance(value, ast.Name) and value.id in env:
            # parameter with a class annotation (`Cls | None` arms of an
            # IfExp agree with the constructor arm)
            return {env[value.id]}
        if isinstance(value, ast.Constant) and value.value is None:
            # `x if cond else None`: the None arm does not conflict.
            return set()
        return {None}

    # ---- resolution -------------------------------------------------------

    def canonicalize(self, name: str, mod: ModuleInfo) -> str:
        """Rewrite a local dotted name through the module's imports."""
        head, _, rest = name.partition(".")
        origin = mod.imports.get(head)
        if origin is None:
            if head in mod.defs and mod.name:
                origin = f"{mod.name}.{head}"
            else:
                return name
        return f"{origin}.{rest}" if rest else origin

    def resolve_export(self, name: str) -> str:
        """Follow package re-exports (``repro.dse.fabric`` chains)."""
        seen = set()
        while name in self.exports and name not in seen:
            seen.add(name)
            name = self.exports[name]
        return name

    def resolve_global(self, dotted: str, *,
                       kind: str = "any") -> "str | None":
        """Project function/class qual for a canonical dotted name."""
        dotted = self.resolve_export(dotted)
        if kind in ("any", "function") and dotted in self.functions:
            return dotted
        if kind in ("any", "class") and dotted in self.classes:
            return dotted
        return None

    def resolve_instance(self, dotted: str) -> "str | None":
        """Class qual of the module-level instance a dotted name names.

        Only a name bound once, to a constructor call of a project
        class, has one; see :attr:`ModuleInfo.bindings`.
        """
        module, _, name = self.resolve_export(dotted).rpartition(".")
        mod = self.modules.get(module)
        if mod is None or name not in mod.bindings:
            return None
        types = self._constructed_classes(mod.bindings[name], mod, {})
        return types.pop() if len(types) == 1 else None

    def resolve_method(self, class_qual: str,
                       method: str) -> "str | None":
        """Method lookup through the class and its resolved bases."""
        seen: "set[str]" = set()
        stack = [class_qual]
        while stack:
            qual = stack.pop(0)
            if qual in seen:
                continue
            seen.add(qual)
            info = self.classes.get(qual)
            if info is None:
                continue
            if method in info.methods:
                return info.methods[method]
            stack.extend(info.bases)
        return None

    def annotation_class(self, ann: "ast.expr | None",
                         mod: ModuleInfo) -> "str | None":
        """Class qual named by a (possibly stringified) annotation.

        Handles ``Cls``, ``"Cls"``, ``Cls | None``, ``Optional[Cls]``
        and quoted variants; anything more exotic resolves to ``None``.
        """
        if ann is None:
            return None
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            try:
                ann = ast.parse(ann.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
            left = self.annotation_class(ann.left, mod)
            right = self.annotation_class(ann.right, mod)
            return left or right
        if (isinstance(ann, ast.Subscript)
                and dotted_name(ann.value) in ("Optional",
                                               "typing.Optional")):
            return self.annotation_class(ann.slice, mod)
        if isinstance(ann, ast.Constant) and ann.value is None:
            return None
        name = dotted_name(ann)
        if name is None:
            return None
        return self.resolve_global(self.canonicalize(name, mod),
                                   kind="class")

    def iter_functions(self) -> "Iterator[FunctionInfo]":
        yield from self.functions.values()
