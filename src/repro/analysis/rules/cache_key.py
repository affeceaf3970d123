"""C2L002 — cache-key completeness for the simulation result cache.

The content-addressed store (:mod:`repro.sim.cache_store`) is only
correct if *every* field that can change a simulation's outcome reaches
the cache key.  ``fingerprint()`` walks dataclass fields generically, so
the failure mode is subtle: add a field to a chip dataclass, forget that
old persisted entries were keyed without it, and warm runs silently
return costs computed under different semantics.

The defense is a declared manifest: ``cache_store.py`` lists the exact
fields it covers per config class (``FINGERPRINT_SCHEMA``).  This rule
re-derives the field lists from the dataclass definitions in
``sim/config.py`` and flags any drift in either direction, with the
required remedy spelled out (update the manifest *and* bump
``SIM_MODEL_VERSION`` so stale entries are orphaned, never returned).
It also checks the structural anchors the whole scheme rests on:

- ``fingerprint()`` still walks ``dataclasses.fields`` (generic
  coverage) and sorts generic-object attributes (workload coverage);
- ``SIM_MODEL_VERSION`` is still a literal string (a computed version
  could differ across processes sharing one store);
- ``dse/evaluate.py::canonical_key`` still sorts the config items, so
  budget-cache identity is insertion-order independent;
- the sweep fabric's shard identity stays *derived from the key*:
  ``SHARD_PREFIX_LEN`` is a literal int, ``SHARD_COUNT`` equals
  ``16 ** SHARD_PREFIX_LEN``, ``shard_of_key`` parses exactly that hex
  prefix, ``path_for`` carves directories by the same constant (no
  re-introduced magic width), and ``sim_cache_keys`` (the one key
  builder) still emits SHA-256 *hex* — the property the prefix
  arithmetic rests on.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.rules.base import Rule
from repro.analysis.source import Project, SourceFile, dotted_name

__all__ = ["CacheKeyRule"]

_BUMP = "update FINGERPRINT_SCHEMA and bump SIM_MODEL_VERSION"


def _dataclass_fields(tree: ast.Module) -> "dict[str, tuple[ast.ClassDef, list[str]]]":
    """Class name → (node, annotated field names) for dataclasses."""
    out: dict[str, tuple[ast.ClassDef, list[str]]] = {}
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        decorated = False
        for deco in node.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            name = dotted_name(target) or ""
            if name.split(".")[-1] == "dataclass":
                decorated = True
        if not decorated:
            continue
        fields = [
            stmt.target.id for stmt in node.body
            if isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and "ClassVar" not in ast.dump(stmt.annotation)
        ]
        out[node.name] = (node, fields)
    return out


def _top_level_assign(tree: ast.Module, name: str) -> "ast.AST | None":
    """Value node of a module-level ``name = ...`` / ``name: T = ...``."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    return node.value
        elif isinstance(node, ast.AnnAssign):
            if (isinstance(node.target, ast.Name) and node.target.id == name
                    and node.value is not None):
                return node.value
    return None


def _schema_literal(node: ast.AST) -> "dict[str, tuple[list[str], ast.AST]] | None":
    """Parse a ``{"Cls": ("f1", ...)}`` dict literal; None if not one."""
    if not isinstance(node, ast.Dict):
        return None
    out: dict[str, tuple[list[str], ast.AST]] = {}
    for key, value in zip(node.keys, node.values):
        if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
            return None
        if not isinstance(value, (ast.Tuple, ast.List)):
            return None
        names: list[str] = []
        for element in value.elts:
            if not (isinstance(element, ast.Constant)
                    and isinstance(element.value, str)):
                return None
            names.append(element.value)
        out[key.value] = (names, value)
    return out


def _find_function(tree: ast.Module, name: str) -> "ast.FunctionDef | None":
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


def _find_method(tree: ast.Module, name: str) -> "ast.FunctionDef | None":
    """First method called ``name`` in any top-level class."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            if isinstance(stmt, ast.FunctionDef) and stmt.name == name:
                return stmt
    return None


def _names_in(node: ast.AST) -> "set[str]":
    return {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}


def _parses_hex_prefix(node: ast.AST) -> bool:
    """True if ``node`` contains an ``int(..., 16)`` call."""
    for sub in ast.walk(node):
        if (isinstance(sub, ast.Call)
                and dotted_name(sub.func) == "int"
                and len(sub.args) == 2
                and isinstance(sub.args[1], ast.Constant)
                and sub.args[1].value == 16):
            return True
    return False


def _calls_in(node: ast.AST) -> "set[str]":
    """Leaf names of every call target inside ``node``."""
    out: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            name = dotted_name(sub.func)
            if name is not None:
                out.add(name.split(".")[-1])
            elif isinstance(sub.func, ast.Attribute):
                # e.g. ``sha256(...).hexdigest()`` — the base is a call,
                # not a name chain, but the method leaf still matters.
                out.add(sub.func.attr)
    return out


class CacheKeyRule(Rule):
    code = "C2L002"
    name = "cache-key-completeness"
    description = ("sim/config.py dataclass fields must match the "
                   "FINGERPRINT_SCHEMA manifest in sim/cache_store.py")

    def check_project(self, project: Project) -> "Iterable[Diagnostic]":
        config = project.file_ending_with("sim/config.py")
        store = project.file_ending_with("sim/cache_store.py")
        if config is None or store is None:
            return  # not this repo's shape (e.g. a partial lint target)
        if config.tree is None or store.tree is None:
            return  # syntax errors are reported separately as C2L000

        yield from self._check_schema(config, store)
        yield from self._check_anchors(store)
        yield from self._check_shards(store)
        evaluate = project.file_ending_with("dse/evaluate.py")
        if evaluate is not None and evaluate.tree is not None:
            yield from self._check_canonical_key(evaluate)

    def _check_schema(self, config: SourceFile,
                      store: SourceFile) -> "Iterable[Diagnostic]":
        assert config.tree is not None and store.tree is not None
        classes = _dataclass_fields(config.tree)
        schema_node = _top_level_assign(store.tree, "FINGERPRINT_SCHEMA")
        if schema_node is None:
            yield self.diag(
                store, store.tree,
                "sim/cache_store.py must declare a FINGERPRINT_SCHEMA "
                "literal mapping each config dataclass to the fields its "
                "cache key covers")
            return
        schema = _schema_literal(schema_node)
        if schema is None:
            yield self.diag(
                store, schema_node,
                "FINGERPRINT_SCHEMA must be a literal dict of "
                '{"ClassName": ("field", ...)} so it can be checked '
                "statically")
            return
        for cls_name, (node, fields) in sorted(classes.items()):
            if cls_name not in schema:
                yield self.diag(
                    config, node,
                    f"config dataclass {cls_name} is absent from "
                    f"FINGERPRINT_SCHEMA in {store.rel}; its fields would "
                    f"be fingerprinted without a declared contract — "
                    f"{_BUMP}")
                continue
            declared, value_node = schema[cls_name]
            for field in fields:
                if field not in declared:
                    yield self.diag(
                        config, node,
                        f"field {cls_name}.{field} is not covered by "
                        f"FINGERPRINT_SCHEMA; cached costs keyed without "
                        f"it would be silently wrong — {_BUMP}")
            for field in declared:
                if field not in fields:
                    yield self.diag(
                        store, value_node,
                        f"FINGERPRINT_SCHEMA lists {cls_name}.{field} "
                        f"but the dataclass has no such field — {_BUMP}")
        for cls_name, (declared, value_node) in sorted(schema.items()):
            if cls_name not in classes:
                yield self.diag(
                    store, value_node,
                    f"FINGERPRINT_SCHEMA entry {cls_name} has no matching "
                    f"dataclass in {config.rel} — {_BUMP}")

    def _check_anchors(self, store: SourceFile) -> "Iterable[Diagnostic]":
        assert store.tree is not None
        version = _top_level_assign(store.tree, "SIM_MODEL_VERSION")
        if not (isinstance(version, ast.Constant)
                and isinstance(version.value, str)):
            yield self.diag(
                store, version or store.tree,
                "SIM_MODEL_VERSION must be a literal string: a computed "
                "version could differ between processes sharing a store")
        fingerprint = _find_function(store.tree, "fingerprint")
        if fingerprint is None:
            yield self.diag(
                store, store.tree,
                "sim/cache_store.py must define fingerprint(); the cache "
                "key derivation has moved or been renamed")
            return
        calls = _calls_in(fingerprint)
        if "fields" not in calls:
            yield self.diag(
                store, fingerprint,
                "fingerprint() no longer walks dataclasses.fields(); "
                "generic coverage of chip dataclass fields is lost")
        if "sorted" not in calls:
            yield self.diag(
                store, fingerprint,
                "fingerprint() no longer sorts generic-object attributes; "
                "workload fingerprints would depend on dict order")

    def _check_shards(self, store: SourceFile) -> "Iterable[Diagnostic]":
        assert store.tree is not None
        prefix = _top_level_assign(store.tree, "SHARD_PREFIX_LEN")
        prefix_ok = (isinstance(prefix, ast.Constant)
                     and type(prefix.value) is int)
        if not prefix_ok:
            yield self.diag(
                store, prefix or store.tree,
                "SHARD_PREFIX_LEN must be a literal int: every process "
                "sharing a store must carve identical shard directories")
        count = _top_level_assign(store.tree, "SHARD_COUNT")
        if not (isinstance(count, ast.Constant)
                and type(count.value) is int):
            yield self.diag(
                store, count or store.tree,
                "SHARD_COUNT must be a literal int so fabric ownership "
                "ranges can be checked statically")
        elif prefix_ok and count.value != 16 ** prefix.value:
            yield self.diag(
                store, count,
                f"SHARD_COUNT is {count.value} but a {prefix.value}-char "
                f"hex prefix spans 16 ** {prefix.value} = "
                f"{16 ** prefix.value} shards; keys would map outside the "
                f"fabric's owned ranges")
        shard_fn = _find_function(store.tree, "shard_of_key")
        if shard_fn is None:
            yield self.diag(
                store, store.tree,
                "sim/cache_store.py must define shard_of_key(); shard "
                "identity has to stay derived from the key, never stored")
        else:
            if "SHARD_PREFIX_LEN" not in _names_in(shard_fn):
                yield self.diag(
                    store, shard_fn,
                    "shard_of_key() no longer references "
                    "SHARD_PREFIX_LEN; a hardcoded prefix width drifts "
                    "silently when the constant changes")
            if not _parses_hex_prefix(shard_fn):
                yield self.diag(
                    store, shard_fn,
                    "shard_of_key() must parse the key prefix with "
                    "int(..., 16); any other derivation breaks the "
                    "prefix <-> shard-directory correspondence")
        key_fn = _find_function(store.tree, "sim_cache_keys")
        if key_fn is None:
            yield self.diag(
                store, store.tree,
                "sim/cache_store.py must define sim_cache_keys(); the "
                "content-hash builder has moved or been renamed")
        elif not {"sha256", "hexdigest"} <= _calls_in(key_fn):
            yield self.diag(
                store, key_fn,
                "sim_cache_keys() must produce sha256(...).hexdigest(): "
                "shard_of_key()'s int(prefix, 16) is only uniform over "
                "hex digests")
        path_fn = _find_method(store.tree, "path_for")
        if path_fn is None:
            yield self.diag(
                store, store.tree,
                "SimCacheStore.path_for() is gone; the shard-directory "
                "disk layout has moved or been renamed",
                severity=Severity.WARNING)
        elif "SHARD_PREFIX_LEN" not in _names_in(path_fn):
            yield self.diag(
                store, path_fn,
                "path_for() must slice the shard directory with "
                "SHARD_PREFIX_LEN, not a magic width — the disk layout "
                "would drift from shard_of_key()")

    def _check_canonical_key(
            self, evaluate: SourceFile) -> "Iterable[Diagnostic]":
        assert evaluate.tree is not None
        fn = _find_function(evaluate.tree, "canonical_key")
        if fn is None:
            yield self.diag(
                evaluate, evaluate.tree,
                "dse/evaluate.py must define canonical_key(); budget "
                "memoization identity has moved or been renamed",
                severity=Severity.WARNING)
            return
        calls = _calls_in(fn)
        if "sorted" not in calls or "items" not in calls:
            yield self.diag(
                evaluate, fn,
                "canonical_key() must sort config.items(): identity has "
                "to be insertion-order independent or batching re-charges "
                "duplicate configurations")
