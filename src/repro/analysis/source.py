"""Source model for the lint pass: parsed files and the project view.

:class:`SourceFile` bundles everything a rule may need about one file —
its AST, its text, its dotted module parts, and the ``# c2lint:``
suppression comments found in it.  :class:`Project` is the whole-tree
view that cross-file rules (cache-key completeness, metric-catalog
consistency) operate on, including the location of the observability
catalog document.

Suppression syntax (documented in ``docs/STATIC_ANALYSIS.md``)::

    x = time.time()          # c2lint: disable=C2L001
    value = risky()          # c2lint: disable=C2L001,C2L101
    anything = whatever()    # c2lint: disable=all
    # c2lint: disable-file=C2L103     (anywhere in the file)
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path
from typing import Iterable, Sequence

from repro.errors import AnalysisError

__all__ = ["SourceFile", "Project", "load_project", "collect_paths",
           "dotted_name", "is_type_checking"]

_SUPPRESS_RE = re.compile(
    r"#\s*c2lint:\s*(disable|disable-file)\s*=\s*([A-Za-z0-9_,\s]+)")

#: Directory names never descended into when expanding lint targets.
_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache",
              "build", "dist", ".eggs"}


def dotted_name(node: ast.AST) -> "str | None":
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def is_type_checking(test: ast.expr) -> bool:
    """Whether an ``if`` test is the ``TYPE_CHECKING`` guard (its body
    never runs)."""
    return dotted_name(test) in ("TYPE_CHECKING", "typing.TYPE_CHECKING")


def _parse_suppressions(
        text: str) -> "tuple[dict[int, set[str]], set[str]]":
    """``(line -> codes, file-wide codes)`` from ``# c2lint:`` comments."""
    per_line: dict[int, set[str]] = {}
    file_wide: set[str] = set()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        tokens = []
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(tok.string)
        if match is None:
            continue
        codes = {c.strip().upper() for c in match.group(2).split(",")
                 if c.strip()}
        codes = {"ALL" if c == "ALL" else c for c in codes}
        if match.group(1) == "disable-file":
            file_wide |= codes
        else:
            per_line.setdefault(tok.start[0], set()).update(codes)
    return per_line, file_wide


class SourceFile:
    """One parsed Python file.

    Attributes
    ----------
    path:
        Absolute location on disk.
    rel:
        Path relative to the project root (used in diagnostics).
    module_parts:
        Dotted-module components, e.g. ``("repro", "sim", "config")`` —
        derived from the path with any leading ``src`` stripped; rules
        use these for scope decisions (``"sim" in module_parts``).
    tree:
        The parsed :class:`ast.Module`, or ``None`` when the file does
        not parse (the engine reports ``C2L000`` for it).
    read_error:
        The :class:`OSError` raised reading the file, or ``None``.  An
        unreadable file (permissions, vanished mid-run) keeps its slot
        in the project — the engine reports ``C2L000`` naming the OS
        error class instead of pretending the file is empty.
    """

    def __init__(self, path: Path, root: Path) -> None:
        self.path = path
        try:
            self.rel = str(path.relative_to(root))
        except ValueError:
            self.rel = str(path)
        self.module_parts = self._derive_module(path, root)
        self.read_error: "OSError | None" = None
        try:
            self.text = path.read_text(encoding="utf-8")
        except OSError as exc:
            self.read_error = exc
            self.text = ""
        self.lines: Sequence[str] = self.text.splitlines()
        self.syntax_error: "SyntaxError | None" = None
        self.tree: "ast.Module | None" = None
        if self.read_error is None:
            try:
                self.tree = ast.parse(self.text, filename=str(path))
            except SyntaxError as exc:
                self.syntax_error = exc
        self.line_suppressions, self.file_suppressions = (
            _parse_suppressions(self.text))

    @staticmethod
    def _derive_module(path: Path, root: Path) -> "tuple[str, ...]":
        try:
            parts = list(path.relative_to(root).parts)
        except ValueError:
            parts = list(path.parts)
        while "src" in parts:
            parts = parts[parts.index("src") + 1:]
        if parts and parts[-1].endswith(".py"):
            parts[-1] = parts[-1][:-3]
        if parts and parts[-1] == "__init__":
            parts = parts[:-1]
        return tuple(parts)

    @property
    def module(self) -> str:
        """Dotted module name (may be empty for a bare ``__init__``)."""
        return ".".join(self.module_parts)

    def is_suppressed(self, code: str, line: int) -> bool:
        """Whether ``code`` is disabled on ``line`` or file-wide."""
        wide = self.file_suppressions
        if "ALL" in wide or code in wide:
            return True
        here = self.line_suppressions.get(line, ())
        return "ALL" in here or code in here


class Project:
    """The whole analyzed tree, as cross-file rules see it."""

    def __init__(self, root: Path, files: "list[SourceFile]",
                 catalog_path: "Path | None" = None) -> None:
        self.root = root
        self.files = files
        self.catalog_path = catalog_path

    def file_ending_with(self, *suffixes: str) -> "SourceFile | None":
        """First file whose posix path ends with one of ``suffixes``."""
        for source in self.files:
            posix = source.path.as_posix()
            if any(posix.endswith(suffix) for suffix in suffixes):
                return source
        return None


def collect_paths(paths: Iterable[Path]) -> "list[Path]":
    """Expand files/directories into a sorted, deduplicated file list."""
    seen: set[Path] = set()
    out: list[Path] = []
    for path in paths:
        path = Path(path)
        if not path.exists():
            raise AnalysisError(f"lint target does not exist: {path}")
        if path.is_dir():
            candidates = sorted(
                p for p in path.rglob("*.py")
                if not (_SKIP_DIRS & set(p.parts)))
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                out.append(resolved)
    return out


def _find_root(paths: "list[Path]") -> Path:
    """Nearest ancestor that looks like the repository root.

    Walks up from the first target looking for ``pyproject.toml`` or
    ``.git``; falls back to the target's own directory.
    """
    start = paths[0] if paths else Path.cwd()
    start = start if start.is_dir() else start.parent
    for ancestor in [start, *start.parents]:
        if ((ancestor / "pyproject.toml").exists()
                or (ancestor / ".git").exists()):
            return ancestor
    return start


def load_project(targets: Iterable[Path], *, root: "Path | None" = None,
                 catalog: "Path | None" = None) -> Project:
    """Build the :class:`Project` for a lint run.

    ``catalog`` defaults to ``<root>/docs/OBSERVABILITY.md`` when that
    file exists (rules that need it skip cleanly when it does not).
    """
    files = collect_paths(Path(t) for t in targets)
    root = Path(root).resolve() if root is not None else _find_root(files)
    if catalog is None:
        default = root / "docs" / "OBSERVABILITY.md"
        catalog = default if default.exists() else None
    else:
        catalog = Path(catalog)
        if not catalog.exists():
            raise AnalysisError(f"metric catalog does not exist: {catalog}")
    return Project(root, [SourceFile(path, root) for path in files],
                   catalog_path=catalog)
