"""The pluggable rule set of ``c2bound lint``.

``DEFAULT_RULES`` is the ordered registry the engine runs when no
explicit selection is given; :func:`make_rules` instantiates a
selection by code.  Adding a rule: subclass
:class:`~repro.analysis.rules.base.Rule`, implement ``check_file`` or
``check_project``, append the class here (see
``docs/STATIC_ANALYSIS.md`` for a worked example).
"""

from __future__ import annotations

from typing import Iterable, Sequence, Type

from repro.analysis.rules.asyncblock import AsyncBlockingRule
from repro.analysis.rules.base import Rule
from repro.analysis.rules.cache_key import CacheKeyRule
from repro.analysis.rules.concurrency import (
    BoundaryEscapeRule,
    FrontTierHitRule,
    HotPathPurityRule,
)
from repro.analysis.rules.determinism import DeterminismRule
from repro.analysis.rules.hygiene import (
    BareExceptRule,
    EagerPackageImportRule,
    ExportsRule,
    MutableDefaultRule,
)
from repro.analysis.rules.metrics_catalog import MetricsCatalogRule
from repro.analysis.rules.picklability import PicklabilityRule
from repro.analysis.rules.resilience import ResilienceRule
from repro.analysis.rules.trace_guard import TraceGuardRule
from repro.errors import AnalysisError

__all__ = ["Rule", "DEFAULT_RULES", "make_rules", "rule_catalog",
           "DeterminismRule", "CacheKeyRule", "MetricsCatalogRule",
           "PicklabilityRule", "TraceGuardRule", "BareExceptRule",
           "MutableDefaultRule", "ExportsRule", "EagerPackageImportRule",
           "ResilienceRule", "BoundaryEscapeRule", "HotPathPurityRule",
           "FrontTierHitRule", "AsyncBlockingRule"]

DEFAULT_RULES: "tuple[Type[Rule], ...]" = (
    DeterminismRule,
    CacheKeyRule,
    MetricsCatalogRule,
    PicklabilityRule,
    TraceGuardRule,
    BareExceptRule,
    MutableDefaultRule,
    ExportsRule,
    EagerPackageImportRule,
    ResilienceRule,
    BoundaryEscapeRule,
    HotPathPurityRule,
    FrontTierHitRule,
    AsyncBlockingRule,
)


def rule_catalog() -> "dict[str, Type[Rule]]":
    """Rule code → class, for selection and ``--list-rules``."""
    return {cls.code: cls for cls in DEFAULT_RULES}


def make_rules(codes: "Sequence[str] | None" = None, *,
               flow: bool = False) -> "list[Rule]":
    """Instances of the selected rules (all of them by default).

    With no explicit selection, rules that need the interprocedural
    flow analysis are included only when ``flow`` is true.  Explicit
    codes always win — ``--rules C2L203`` runs the flow pass on its own.
    """
    if codes is None:
        return [cls() for cls in DEFAULT_RULES
                if flow or not cls.requires_flow]
    catalog = rule_catalog()
    out: list[Rule] = []
    for code in codes:
        normalized = code.strip().upper()
        if normalized not in catalog:
            raise AnalysisError(
                f"unknown rule {code!r}; known rules: "
                f"{', '.join(sorted(catalog))}")
        out.append(catalog[normalized]())
    return out
