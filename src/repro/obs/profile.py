"""Wall-clock attribution: fold a span tree into ``c2bound.profile/1``.

Answers "where did this sweep's wall-clock actually go?" by
attributing every span's **self-time** (duration minus direct
children, from :class:`repro.obs.stream.SpanRollup`) to one of a small
fixed set of buckets — simulation, sim-cache I/O, IPC + pickling,
queue wait, retry backoff, search-strategy compute, and a
framework-overhead catch-all.
Self-time attribution means nested spans never double-count: the sum
over all buckets equals the sum of root-span durations, so *coverage*
(attributed seconds over the observed trace window) reads directly as
"how much of the run the instrumentation explains".

:data:`PROFILE_SCHEMA` and :data:`PROFILE_BUCKETS` are **literal
anchors**: lint rule C2L003 cross-checks them against the profile
schema and bucket catalog documented in ``docs/OBSERVABILITY.md``,
the same way ``FINGERPRINT_SCHEMA`` is pinned for the sim cache.
Keep them plain literals.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.registry import get_registry
from repro.obs.stream import SpanRollup, TraceReader

__all__ = ["PROFILE_SCHEMA", "PROFILE_BUCKETS", "bucket_for",
           "build_profile", "profile_trace", "write_profile",
           "format_profile", "render_flame"]

#: Schema tag stamped on every profile artifact (bump on layout change).
PROFILE_SCHEMA = "c2bound.profile/1"

#: Bucket -> span-name prefixes, checked in order with first match
#: winning.  A prefix ending in ``.`` matches the whole namespace
#: under it; otherwise the match is exact.  The empty ``framework``
#: tuple is the catch-all: self-time of every unmatched span (batch
#: bookkeeping, search-strategy overhead, experiment glue) lands
#: there.  This dict is a lint-checked literal anchor — it must stay
#: in sync with the "Profile bucket catalog" in docs/OBSERVABILITY.md.
PROFILE_BUCKETS = {
    "simulation": ("sim.run", "dse.chunk.execute", "dse.batch"),
    "cache_io": ("sim.cache.",),
    "ipc": ("dse.chunk.ipc",),
    "queue_wait": ("dse.chunk.queue_wait",),
    "retry_backoff": ("resilience.backoff",),
    "search": ("dse.aps.", "dse.ann.", "dse.ga.", "dse.rsm.",
               "dse.brute."),
    "framework": (),
}


def _matches(name: str, prefix: str) -> bool:
    if prefix.endswith("."):
        return name.startswith(prefix)
    return name == prefix


def bucket_for(name: str) -> str:
    """The profile bucket a span name attributes to."""
    for bucket, prefixes in PROFILE_BUCKETS.items():
        if any(_matches(name, p) for p in prefixes):
            return bucket
    return "framework"


def build_profile(rollup: SpanRollup, *,
                  trace: "str | None" = None) -> dict:
    """Fold a finished rollup into a ``c2bound.profile/1`` document.

    ``buckets[*].seconds`` sum to ``attributed_s`` (the total span
    self-time); ``coverage`` divides that by the observed trace window
    — the ≥0.95 bar the report smoke test holds a traced fig12 run to.
    ``share`` is each bucket's fraction of attributed time.
    """
    self_s = rollup.self_seconds()
    buckets: "dict[str, dict]" = {
        bucket: {"seconds": 0.0, "share": 0.0, "spans": {}}
        for bucket in PROFILE_BUCKETS
    }
    for name, seconds in self_s.items():
        slot = buckets[bucket_for(name)]
        slot["seconds"] += seconds
        slot["spans"][name] = seconds
    attributed = sum(slot["seconds"] for slot in buckets.values())
    if attributed > 0:
        for slot in buckets.values():
            slot["share"] = slot["seconds"] / attributed
            slot["spans"] = dict(sorted(
                slot["spans"].items(), key=lambda kv: -kv[1]))
    window = rollup.window_s
    coverage = attributed / window if window > 0 else 0.0
    registry = get_registry()
    registry.counter("profile.builds").inc()
    registry.gauge("profile.coverage").set(coverage)
    return {
        "schema": PROFILE_SCHEMA,
        "trace": trace,
        "window_s": window,
        "attributed_s": attributed,
        "coverage": coverage,
        "untraced_s": max(0.0, window - attributed),
        "spans_seen": rollup.spans,
        "events_seen": rollup.events,
        "buckets": buckets,
        "spans": {
            name: {"count": agg[0], "total_s": agg[1], "self_s": agg[2]}
            for name, agg in sorted(rollup.aggregates.items())
        },
    }


def profile_trace(path: "str | Path") -> "tuple[dict, SpanRollup]":
    """Profile a trace file on disk.

    Reads the whole trace through :class:`TraceReader` (so a torn
    in-flight tail is simply excluded) and returns ``(profile,
    rollup)`` — the rollup is handed back for flame rendering.
    """
    rollup = SpanRollup()
    for event in TraceReader(path).read_all():
        rollup.handle(event)
    return build_profile(rollup, trace=str(path)), rollup


def write_profile(profile: dict, path: "str | Path") -> Path:
    """Write a profile document as pretty-printed JSON."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(profile, indent=2, sort_keys=False) + "\n",
                   encoding="utf-8")
    return out


def _bar(fraction: float, width: int) -> str:
    filled = int(round(max(0.0, min(1.0, fraction)) * width))
    return "#" * filled + "." * (width - filled)


def format_profile(profile: dict, *, width: int = 28) -> str:
    """Terminal bucket breakdown (one bar per non-empty bucket)."""
    lines = [f"wall-clock attribution ({profile['schema']})",
             f"  window {profile['window_s']:.3f}s · attributed "
             f"{profile['attributed_s']:.3f}s · coverage "
             f"{100.0 * profile['coverage']:.1f}%"]
    name_w = max((len(b) for b in profile["buckets"]), default=0)
    for bucket, slot in profile["buckets"].items():
        if slot["seconds"] <= 0:
            continue
        lines.append(
            f"  {bucket:<{name_w}} [{_bar(slot['share'], width)}] "
            f"{slot['seconds']:9.3f}s {100.0 * slot['share']:5.1f}%")
    return "\n".join(lines)


def render_flame(rollup: SpanRollup, *, max_depth: int = 6,
                 min_s: float = 0.0, width: int = 24) -> str:
    """Flame-style indented span tree from the rollup's edge totals.

    Each line shows an inclusive-seconds bar scaled to the root total,
    the span name, seconds and call count; children are indented under
    their parent, heaviest first.  Edges thinner than ``min_s`` are
    pruned.  Purely textual — this is the ``--flame`` terminal view.
    """
    roots = rollup.children_of(None)
    total = sum(seconds for _, _, seconds in roots)
    if total <= 0:
        return "(no spans)"
    lines: "list[str]" = []

    def walk(parent: str, depth: int, trail: "tuple[str, ...]") -> None:
        if depth > max_depth:
            return
        for child, count, seconds in rollup.children_of(parent):
            if seconds < min_s or child in trail:
                continue
            indent = "  " * depth
            lines.append(
                f"{indent}[{_bar(seconds / total, width)}] "
                f"{child}  {seconds:.3f}s ×{count}")
            walk(child, depth + 1, trail + (child,))

    for name, count, seconds in roots:
        lines.append(f"[{_bar(seconds / total, width)}] "
                     f"{name}  {seconds:.3f}s ×{count}")
        walk(name, 1, (name,))
    return "\n".join(lines)
