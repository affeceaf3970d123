"""Observability: metrics registry, tracing spans, run manifests.

The accounting backbone of the reproduction (see
``docs/OBSERVABILITY.md`` for the metric-name catalog and the JSONL
event schema):

- :mod:`repro.obs.registry` — process-wide counters / gauges /
  histograms (the Fig. 12 simulation meter lives here as
  ``dse.evaluations``);
- :mod:`repro.obs.span` — nestable tracing spans, no-ops when disabled;
- :mod:`repro.obs.events` — the JSONL trace schema, writer and
  validator (``python -m repro.obs.events trace.jsonl``);
- :mod:`repro.obs.manifest` — per-run provenance records (config, seed,
  git SHA, wall time, final metrics);
- :mod:`repro.obs.export` — metrics snapshots, timing summaries and the
  CLI's structured reporter;
- :mod:`repro.obs.stream` — trace tailing and the span-rollup and
  progress folds (the live-progress primitive);
- :mod:`repro.obs.profile` — wall-clock attribution into
  ``c2bound.profile/1`` buckets;
- :mod:`repro.obs.report` — ``c2bound report`` / ``diff`` / ``tail``.
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.obs.events import (
        SCHEMA_VERSION,
        JsonlWriter,
        read_jsonl,
        validate_event,
        validate_trace_file,
    )
    from repro.obs.export import Reporter, timing_table, write_metrics
    from repro.obs.manifest import (
        MANIFEST_SCHEMA,
        VOLATILE_KEYS,
        RunManifest,
        git_sha,
        package_version,
        stable_view,
    )
    from repro.obs.profile import (
        PROFILE_BUCKETS,
        PROFILE_SCHEMA,
        build_profile,
        profile_trace,
        write_profile,
    )
    from repro.obs.registry import (
        Counter,
        Gauge,
        Histogram,
        MetricsRegistry,
        get_registry,
        set_registry,
    )
    from repro.obs.span import (
        Span,
        Tracer,
        configure_tracing,
        disable_tracing,
        get_tracer,
        span,
        trace_event,
    )
    from repro.obs.stream import (
        ProgressAggregator,
        SpanRollup,
        TraceReader,
    )

__all__ = [
    # registry
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    # span
    "Span",
    "Tracer",
    "get_tracer",
    "configure_tracing",
    "disable_tracing",
    "span",
    "trace_event",
    # events
    "SCHEMA_VERSION",
    "JsonlWriter",
    "read_jsonl",
    "validate_event",
    "validate_trace_file",
    # manifest
    "MANIFEST_SCHEMA",
    "VOLATILE_KEYS",
    "RunManifest",
    "git_sha",
    "package_version",
    "stable_view",
    # export
    "Reporter",
    "write_metrics",
    "timing_table",
    # stream
    "TraceReader",
    "SpanRollup",
    "ProgressAggregator",
    # profile
    "PROFILE_SCHEMA",
    "PROFILE_BUCKETS",
    "build_profile",
    "profile_trace",
    "write_profile",
]

__getattr__, __dir__ = attach(__name__, __file__)
