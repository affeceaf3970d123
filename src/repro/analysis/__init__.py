"""Static analysis (``c2bound lint``): machine-checked invariants.

PR 2 (parallel batch DSE) and PR 3 (the content-addressed simulation
cache) made correctness rest on invariants no unit test fully covers:
hot paths must stay deterministic or golden digests and warm cache hits
lie, every config field must reach the cache key, metric names must
match their documented catalog, and pool-crossing callables must stay
picklable.  This package checks those invariants statically on every
commit:

- :mod:`repro.analysis.engine` — the driver (rules over a project view,
  ``# c2lint: disable=...`` suppressions honored);
- :mod:`repro.analysis.rules` — the pluggable rule set (``C2L001`` ...;
  catalog with rationale in ``docs/STATIC_ANALYSIS.md``);
- :mod:`repro.analysis.reporters` — text and JSON (``c2bound.lint/1``)
  output;
- :mod:`repro.analysis.cli` — the ``c2bound lint`` /
  ``python -m repro.analysis`` front end.
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.analysis.diagnostics import Diagnostic, Severity
    from repro.analysis.engine import LintEngine, LintResult, lint_paths
    from repro.analysis.reporters import (
        REPORT_SCHEMA,
        render_json,
        render_text,
    )
    from repro.analysis.rules import DEFAULT_RULES, Rule, make_rules, rule_catalog
    from repro.analysis.source import Project, SourceFile, load_project

__all__ = [
    "Diagnostic",
    "Severity",
    "LintEngine",
    "LintResult",
    "lint_paths",
    "REPORT_SCHEMA",
    "render_json",
    "render_text",
    "DEFAULT_RULES",
    "Rule",
    "make_rules",
    "rule_catalog",
    "Project",
    "SourceFile",
    "load_project",
]

__getattr__, __dir__ = attach(__name__, __file__)
