"""Lazy package re-exports (the SPEC 1 pattern over PEP 562).

A package ``__init__`` keeps its ``from repro.x.y import name``
re-exports under ``if TYPE_CHECKING:`` (so type checkers, the linter's
flow pass and readers still see them) and ends with::

    __getattr__, __dir__ = attach(__name__, __file__)

Those statements stay the only map from name to module: the helper
reads them once with :mod:`ast`, imports a name's module on first
access and caches the value in the package globals.  Any other missing
attribute resolves as a submodule (``repro.sim.cmp``).
"""

from __future__ import annotations

import ast
import sys
from types import ModuleType
from typing import Any, Callable

__all__ = ["attach"]


def _reexports(init_file: str) -> "dict[str, tuple[str, str]]":
    """Exported name -> ``(module, attribute)`` from TYPE_CHECKING blocks."""
    with open(init_file, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), init_file)
    names: dict[str, tuple[str, str]] = {}
    for node in tree.body:
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                and node.test.id == "TYPE_CHECKING"):
            for stmt in node.body:
                if isinstance(stmt, ast.ImportFrom) and not stmt.level:
                    for item in stmt.names:
                        names[item.asname or item.name] = (stmt.module or "",
                                                           item.name)
    return names


def _load(name: str) -> ModuleType:
    # ``__import__`` takes the import statement's path, which
    # ``python -X importtime`` reports; importlib.import_module does not.
    __import__(name)
    return sys.modules[name]


def attach(package: str, init_file: str
           ) -> "tuple[Callable[[str], Any], Callable[[], list[str]]]":
    """PEP 562 ``__getattr__`` and ``__dir__`` for ``package``."""
    names = _reexports(init_file)
    module = sys.modules[package]

    def __getattr__(name: str) -> Any:
        if name in names:
            origin, attr = names[name]
            value = getattr(_load(origin), attr)
        else:
            try:
                value = _load(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}") from None
        vars(module)[name] = value
        return value

    def __dir__() -> "list[str]":
        return sorted(set(vars(module)) | set(names))

    class LazyPackage(ModuleType):
        def __setattr__(self, name: str, value: Any) -> None:
            # The import system binds each loaded submodule on its
            # package.  Where a re-export shares the submodule's name
            # (``repro.obs.span``), the re-export wins in any import
            # order, as it did when packages imported eagerly.
            if name in names and isinstance(value, ModuleType):
                return
            super().__setattr__(name, value)

    module.__class__ = LazyPackage
    return __getattr__, __dir__
