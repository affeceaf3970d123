"""C2L101-C2L104: bare except, mutable defaults, missing __all__, eager
package imports."""

from __future__ import annotations

from repro.analysis import Severity


def codes(result):
    return [d.code for d in result.diagnostics]


def test_bare_except_flagged(lint_tree):
    source = "def f():\n    try:\n        g()\n    except:\n        pass\n"
    result = lint_tree({"pkg/a.py": source}, rules=["C2L101"])
    assert codes(result) == ["C2L101"]


def test_typed_except_allowed(lint_tree):
    source = ("def f():\n    try:\n        g()\n"
              "    except (OSError, ValueError):\n        pass\n")
    result = lint_tree({"pkg/a.py": source}, rules=["C2L101"])
    assert codes(result) == []


def test_mutable_default_literal_flagged(lint_tree):
    source = "def f(xs=[]):\n    return xs\n"
    result = lint_tree({"pkg/a.py": source}, rules=["C2L102"])
    assert codes(result) == ["C2L102"]


def test_mutable_default_constructor_flagged(lint_tree):
    source = "def f(*, table=dict()):\n    return table\n"
    result = lint_tree({"pkg/a.py": source}, rules=["C2L102"])
    assert codes(result) == ["C2L102"]


def test_none_default_allowed(lint_tree):
    source = "def f(xs=None, n=3, name='x'):\n    return xs, n, name\n"
    result = lint_tree({"pkg/a.py": source}, rules=["C2L102"])
    assert codes(result) == []


def test_missing_all_flagged_as_warning(lint_tree):
    source = "def api():\n    return 1\n"
    result = lint_tree({"pkg/a.py": source}, rules=["C2L103"])
    assert codes(result) == ["C2L103"]
    assert result.diagnostics[0].severity is Severity.WARNING


def test_declared_all_allowed(lint_tree):
    source = "__all__ = ['api']\n\n\ndef api():\n    return 1\n"
    result = lint_tree({"pkg/a.py": source}, rules=["C2L103"])
    assert codes(result) == []


def test_private_only_module_allowed(lint_tree):
    source = "def _helper():\n    return 1\n"
    result = lint_tree({"pkg/a.py": source}, rules=["C2L103"])
    assert codes(result) == []


def test_main_module_exempt(lint_tree):
    source = "def main():\n    return 0\n"
    result = lint_tree({"pkg/__main__.py": source}, rules=["C2L103"])
    assert codes(result) == []


EAGER = "from pkg.impl import api\n\n__all__ = ['api']\n"
LAZY = """\
from typing import TYPE_CHECKING

from pkg.loader import attach

if TYPE_CHECKING:
    from pkg.impl import api

__all__ = ['api']

__getattr__, __dir__ = attach(__name__, __file__)
"""


def test_eager_package_reexport_flagged(lint_tree):
    result = lint_tree({"pkg/__init__.py": EAGER}, rules=["C2L104"])
    assert codes(result) == ["C2L104"]
    assert "api" in result.diagnostics[0].message


def test_relative_eager_reexport_flagged(lint_tree):
    source = "from .impl import api\nfrom . import other\n"
    result = lint_tree({"pkg/__init__.py": source}, rules=["C2L104"])
    assert codes(result) == ["C2L104", "C2L104"]


def test_lazy_package_reexport_allowed(lint_tree):
    result = lint_tree({"pkg/__init__.py": LAZY}, rules=["C2L104"])
    assert codes(result) == []


def test_submodule_import_the_init_uses_allowed(lint_tree):
    # The analysis/rules/__init__ shape: the registry needs the classes.
    source = ("from pkg.impl import First, Second\n\n"
              "REGISTRY = (First, Second)\n")
    result = lint_tree({"pkg/__init__.py": source}, rules=["C2L104"])
    assert codes(result) == []


def test_foreign_import_and_plain_module_not_flagged(lint_tree):
    result = lint_tree({"pkg/__init__.py": "from other.impl import api\n",
                        "pkg/sub/__init__.py": "from .. import sibling\n",
                        "pkg/mod.py": "from pkg.impl import api\n"},
                       rules=["C2L104"])
    assert codes(result) == []


def test_reinserted_eager_import_in_repo_init_fires(lint_tree, repo_root):
    # Seeded mutation: one eager re-export put back into a real package
    # __init__ must trip the rule; the unmutated file must not.
    real = (repo_root / "src/repro/sim/__init__.py").read_text()
    clean = lint_tree({"src/repro/sim/__init__.py": real}, rules=["C2L104"])
    assert codes(clean) == []
    mutated = real.replace(
        "\nif TYPE_CHECKING:",
        "\nfrom repro.sim.cmp import CMPSimulator\n\nif TYPE_CHECKING:", 1)
    assert mutated != real
    result = lint_tree({"src/repro/sim/__init__.py": mutated},
                       rules=["C2L104"])
    assert codes(result) == ["C2L104"]
    assert "CMPSimulator" in result.diagnostics[0].message
