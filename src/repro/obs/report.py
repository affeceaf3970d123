"""Run analysis: ``c2bound report`` / ``diff`` / ``tail``.

Consumes the artifacts one observable run leaves in a directory — the
``c2bound.manifest/1`` provenance record, the ``c2bound.trace/1`` span
trace, the metrics-registry snapshot, and the result CSVs — and turns
them into answers:

- :func:`build_report` + :func:`render_html` — a ``c2bound.report/1``
  JSON document and a self-contained, dependency-free HTML page: phase
  (profile-bucket) breakdown, cache hit-rate curve, retry/fault
  timeline, per-method evaluation counts.
- :func:`diff_runs` — manifest/config identity, output CSV byte
  comparison, deterministic-metric deltas and profile-bucket deltas
  between two runs.  A run and its ``--resume``\\ d twin diff as
  **bit-identical**: results and deterministic counters match while
  volatile telemetry (timings, cache/retry counters) is reported as
  deltas, not identity failures.
- :func:`tail_command` — live-follow an in-flight sweep's trace via
  the streaming layer (:mod:`repro.obs.stream`).

``cli_main`` is the dispatch target ``c2bound`` forwards the
``report`` / ``diff`` / ``tail`` subcommands to.
"""

from __future__ import annotations

import argparse
import html as _html
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from repro.io.applog import read_first
from repro.obs.manifest import MANIFEST_SCHEMA, stable_view
from repro.obs.profile import (
    PROFILE_BUCKETS,
    build_profile,
    format_profile,
    profile_trace,
    render_flame,
)
from repro.obs.registry import get_registry
from repro.obs.stream import (
    ProgressAggregator,
    SpanRollup,
    TraceReader,
    follow,
)

__all__ = ["REPORT_SCHEMA", "RunArtifacts", "discover_run",
           "build_report", "render_html", "write_report", "diff_runs",
           "report_command", "diff_command", "tail_command", "cli_main"]

REPORT_SCHEMA = "c2bound.report/1"

#: Metric-name prefixes that legitimately differ between bit-identical
#: runs (timing, caching, interruption/resume and telemetry-consumer
#: accounting).  ``diff_runs`` reports them as deltas instead of
#: identity failures.
VOLATILE_METRIC_PREFIXES = ("resilience.", "sim.cache.", "obs.stream.",
                            "profile.", "report.", "service.")

#: Manifest ``config`` keys that describe the *invocation*, not the
#: computation: output/trace/checkpoint locations, the resume flag, and
#: the execution settings contracted to change wall time only (batch
#: size, result cache).  A resumed twin legitimately differs in all of
#: them.  The last three keys name retired settings (the epoch-kernel
#: switch and the shard-write checker and its log); manifests written
#: while they were settings still carry them.
VOLATILE_CONFIG_KEYS = ("out", "trace", "checkpoint", "resume",
                        "batch_size", "sim_cache", "sim_kernel",
                        "sanitize", "sanitize_log")

_TIMELINE_CAP = 200
_CURVE_CAP = 200


# ---------------------------------------------------------------------------
# run-directory discovery
# ---------------------------------------------------------------------------

@dataclass
class RunArtifacts:
    """What :func:`discover_run` found in one run directory."""

    root: Path
    manifest_path: "Path | None" = None
    manifest: "dict | None" = None
    trace_path: "Path | None" = None
    metrics_path: "Path | None" = None
    metrics: "dict | None" = None
    csvs: "list[Path]" = field(default_factory=list)

    @property
    def experiment(self) -> "str | None":
        """Experiment name from the manifest, when one was found."""
        if self.manifest is None:
            return None
        name = self.manifest.get("experiment")
        return name if isinstance(name, str) else None


def _load_json(path: Path) -> "dict | None":
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return obj if isinstance(obj, dict) else None


def _sniff_trace(path: Path) -> bool:
    """True when the file's first line is a ``c2bound.trace/1`` header."""
    obj = read_first(path)
    return (obj is not None and obj.get("type") == "run"
            and "trace" in str(obj.get("schema", "")))


def discover_run(run_dir: "str | Path") -> RunArtifacts:
    """Identify a run's artifacts by content, not filename.

    JSON files are sniffed for the manifest schema tag or the
    counters/gauges/histograms shape of a registry snapshot; JSONL
    files for the trace header (checkpoint journals carry a different
    schema tag and are skipped); every CSV is collected.
    """
    root = Path(run_dir)
    found = RunArtifacts(root=root)
    if not root.is_dir():
        return found
    for path in sorted(root.iterdir()):
        if path.suffix == ".csv":
            found.csvs.append(path)
        elif path.suffix == ".jsonl":
            if found.trace_path is None and _sniff_trace(path):
                found.trace_path = path
        elif path.suffix == ".json":
            obj = _load_json(path)
            if obj is None:
                continue
            if obj.get("schema") == MANIFEST_SCHEMA:
                if found.manifest_path is None:
                    found.manifest_path, found.manifest = path, obj
            elif ({"counters", "gauges", "histograms"} <= obj.keys()
                    and found.metrics_path is None):
                found.metrics_path, found.metrics = path, obj
    if found.metrics is None and found.manifest is not None:
        metrics = found.manifest.get("metrics")
        if isinstance(metrics, dict) and metrics:
            found.metrics = metrics
    return found


# ---------------------------------------------------------------------------
# report construction
# ---------------------------------------------------------------------------

def _fold_trace(trace_path: Path) -> "tuple[SpanRollup, ProgressAggregator, list[dict], list[tuple[float, int, int]]]":
    """One pass over the trace: rollup + progress + resilience events +
    the ``(ts, fresh, cached)`` row of every ``dse.batch`` span."""
    rollup = SpanRollup()
    progress = ProgressAggregator()
    timeline: "list[dict]" = []
    batches: "list[tuple[float, int, int]]" = []
    for event in TraceReader(trace_path).read_all():
        rollup.handle(event)
        progress.handle(event)
        name = event.get("name")
        if not isinstance(name, str):
            continue
        if name.startswith("resilience."):
            timeline.append(event)
        elif name == "dse.batch" and event.get("type") == "span":
            attrs = event.get("attrs") or {}
            fresh = attrs.get("fresh", attrs.get("size", 0))
            cached = attrs.get("cached", 0)
            ts = event.get("ts", 0.0)
            if isinstance(fresh, (int, float)) and isinstance(
                    cached, (int, float)) and isinstance(ts, (int, float)):
                batches.append((float(ts), int(fresh), int(cached)))
    return rollup, progress, timeline, batches


def _hit_rate_curve(batches: "list[tuple[float, int, int]]") -> "list[dict]":
    """Cumulative evaluation-cache hit rate (the ``cached`` share of
    ``dse.batch`` spans' points) in span start order, downsampled to ≤
    ``_CURVE_CAP`` points."""
    batches = sorted(batches, key=lambda row: row[0])
    points: "list[dict]" = []
    evals = 0
    hits = 0
    for _ts, fresh, cached in batches:
        evals += fresh + cached
        hits += cached
        if evals > 0:
            points.append({"evaluations": evals, "hit_rate": hits / evals})
    if len(points) > _CURVE_CAP:
        step = len(points) / _CURVE_CAP
        sampled = [points[int(i * step)] for i in range(_CURVE_CAP)]
        if sampled[-1] is not points[-1]:
            sampled[-1] = points[-1]
        points = sampled
    return points


def _method_counts(metrics: "dict | None") -> "dict[str, int]":
    """Per-method evaluation counts from ``dse.evaluations{method=x}``."""
    out: "dict[str, int]" = {}
    counters = (metrics or {}).get("counters", {})
    for key, value in counters.items():
        if not key.startswith("dse.evaluations{"):
            continue
        labels = key[key.index("{") + 1:key.rindex("}")]
        for pair in labels.split(","):
            k, _, v = pair.partition("=")
            if k == "method" and isinstance(value, (int, float)):
                out[v] = int(value)
    return dict(sorted(out.items()))


def build_report(run_dir: "str | Path") -> dict:
    """Fold one run directory into a ``c2bound.report/1`` document."""
    return _build_report(run_dir)[0]


def _build_report(run_dir: "str | Path") -> "tuple[dict, SpanRollup | None]":
    """The report plus the span rollup of its trace (``None`` without
    one), which ``report --flame`` renders."""
    run = discover_run(run_dir)
    rollup: "SpanRollup | None" = None
    profile: "dict | None" = None
    progress_snapshot: "dict | None" = None
    timeline: "list[dict]" = []
    timeline_dropped = 0
    curve: "list[dict]" = []
    if run.trace_path is not None:
        rollup, progress, raw_timeline, batches = _fold_trace(
            run.trace_path)
        profile = build_profile(rollup, trace=str(run.trace_path))
        progress_snapshot = progress.snapshot()
        base = progress.started_ts or 0.0
        if len(raw_timeline) > _TIMELINE_CAP:
            timeline_dropped = len(raw_timeline) - _TIMELINE_CAP
            raw_timeline = raw_timeline[:_TIMELINE_CAP]
        timeline = [{
            "name": ev.get("name"),
            "type": ev.get("type"),
            "t_rel_s": (float(ev["ts"]) - base
                        if isinstance(ev.get("ts"), (int, float)) else None),
            "dur_s": ev.get("dur_s"),
            "attrs": ev.get("attrs") or {},
        } for ev in raw_timeline]
        curve = _hit_rate_curve(batches)
    manifest = run.manifest or {}
    counters = (run.metrics or {}).get("counters", {})
    report = {
        "schema": REPORT_SCHEMA,
        "run_dir": str(run.root),
        "experiment": run.experiment,
        "run_id": manifest.get("run_id"),
        "wall_time_s": manifest.get("wall_time_s"),
        "package_version": manifest.get("package_version"),
        "git_sha": manifest.get("git_sha"),
        "argv": manifest.get("argv"),
        "artifacts": {
            "manifest": _rel(run.manifest_path, run.root),
            "trace": _rel(run.trace_path, run.root),
            "metrics": _rel(run.metrics_path, run.root),
            "csvs": [_rel(p, run.root) for p in run.csvs],
        },
        "evaluations": {
            "fresh": counters.get("dse.evaluations"),
            "cached": counters.get("dse.evaluations_cached"),
            "by_method": _method_counts(run.metrics),
        },
        "profile": profile,
        "progress": progress_snapshot,
        "cache_curve": curve,
        "timeline": timeline,
        "timeline_dropped": timeline_dropped,
    }
    get_registry().counter("report.reports").inc()
    return report, rollup


def _rel(path: "Path | None", root: Path) -> "str | None":
    if path is None:
        return None
    try:
        return str(path.relative_to(root))
    except ValueError:
        return str(path)


def write_report(report: dict, path: "str | Path") -> Path:
    """Write the report document as indented JSON."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return out


# ---------------------------------------------------------------------------
# HTML rendering (self-contained, dependency-free)
# ---------------------------------------------------------------------------

# Palette per the repo's chart conventions: single-hue bars for
# magnitude, fixed categorical slot order for the bucket strip, ink
# tokens for all text, dark mode selected (not auto-inverted).
_CSS = """
.viz-root {
  color-scheme: light;
  --surface-1: #fcfcfb; --page: #f9f9f7;
  --text-primary: #0b0b0b; --text-secondary: #52514e;
  --muted: #898781; --grid: #e1e0d9; --axis: #c3c2b7;
  --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6; --series-2: #eb6834; --series-3: #1baf7a;
  --series-4: #eda100; --series-5: #e87ba4; --series-6: #008300;
  --series-7: #4a3aa7;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --surface-1: #1a1a19; --page: #0d0d0d;
    --text-primary: #ffffff; --text-secondary: #c3c2b7;
    --muted: #898781; --grid: #2c2c2a; --axis: #383835;
    --border: rgba(255,255,255,0.10);
    --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
    --series-4: #c98500; --series-5: #d55181; --series-6: #008300;
    --series-7: #9085e9;
  }
}
:root[data-theme="dark"] .viz-root {
  color-scheme: dark;
  --surface-1: #1a1a19; --page: #0d0d0d;
  --text-primary: #ffffff; --text-secondary: #c3c2b7;
  --muted: #898781; --grid: #2c2c2a; --axis: #383835;
  --border: rgba(255,255,255,0.10);
  --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
  --series-4: #c98500; --series-5: #d55181; --series-6: #008300;
  --series-7: #9085e9;
}
.viz-root {
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  background: var(--page); color: var(--text-primary);
  margin: 0; padding: 24px; line-height: 1.45;
}
.viz-root h1 { font-size: 20px; margin: 0 0 4px; }
.viz-root h2 { font-size: 14px; margin: 24px 0 8px;
               color: var(--text-secondary); }
.viz-root .sub { color: var(--text-secondary); font-size: 13px;
                 margin-bottom: 16px; }
.viz-root .card { background: var(--surface-1); border: 1px solid
                  var(--border); border-radius: 8px; padding: 16px;
                  margin-bottom: 16px; }
.viz-root .tiles { display: flex; flex-wrap: wrap; gap: 12px; }
.viz-root .tile { background: var(--surface-1); border: 1px solid
                  var(--border); border-radius: 8px; padding: 12px 16px;
                  min-width: 130px; }
.viz-root .tile .v { font-size: 22px; font-weight: 600; }
.viz-root .tile .k { font-size: 12px; color: var(--text-secondary); }
.viz-root table { border-collapse: collapse; font-size: 13px; }
.viz-root th { text-align: left; color: var(--text-secondary);
               font-weight: 500; padding: 3px 14px 3px 0;
               border-bottom: 1px solid var(--axis); }
.viz-root td { padding: 3px 14px 3px 0; border-bottom: 1px solid
               var(--grid); font-variant-numeric: tabular-nums; }
.viz-root .bar-row { display: flex; align-items: center; gap: 8px;
                     margin: 4px 0; font-size: 13px; }
.viz-root .bar-row .lbl { width: 110px; color: var(--text-secondary); }
.viz-root .bar-row .track { flex: 1; background: none; height: 14px; }
.viz-root .bar-row .fill { background: var(--series-1); height: 14px;
                           border-radius: 0 4px 4px 0; min-width: 1px; }
.viz-root .bar-row .val { width: 150px; font-variant-numeric:
                          tabular-nums; }
.viz-root .strip { display: flex; height: 18px; margin: 10px 0 6px; }
.viz-root .strip span { height: 18px; margin-right: 2px; }
.viz-root .strip span:last-child { margin-right: 0; }
.viz-root .legend { display: flex; flex-wrap: wrap; gap: 14px;
                    font-size: 12px; color: var(--text-secondary); }
.viz-root .legend .sw { display: inline-block; width: 10px;
                        height: 10px; border-radius: 2px;
                        margin-right: 5px; }
.viz-root .empty { color: var(--muted); font-size: 13px; }
.viz-root svg text { fill: var(--muted); font-size: 11px;
                     font-family: inherit; }
.viz-root svg .gridline { stroke: var(--grid); stroke-width: 1; }
.viz-root svg .axisline { stroke: var(--axis); stroke-width: 1; }
.viz-root svg .curve { stroke: var(--series-1); stroke-width: 2;
                       fill: none; }
.viz-root svg .dot { fill: var(--series-1); }
"""

_BUCKET_SLOTS = {"simulation": "--series-1", "cache_io": "--series-2",
                 "ipc": "--series-3", "queue_wait": "--series-4",
                 "retry_backoff": "--series-5", "search": "--series-6",
                 "framework": "--series-7"}


def _esc(value: object) -> str:
    return _html.escape(str(value))


def _fmt_s(value: object) -> str:
    return f"{value:.3f}s" if isinstance(value, (int, float)) else "—"


def _tile(label: str, value: str) -> str:
    return (f'<div class="tile"><div class="v">{_esc(value)}</div>'
            f'<div class="k">{_esc(label)}</div></div>')


def _bucket_section(profile: "dict | None") -> str:
    if not profile:
        return '<p class="empty">No trace found — run with --trace.</p>'
    rows: "list[str]" = []
    strip: "list[str]" = []
    legend: "list[str]" = []
    top = max((s["seconds"] for s in profile["buckets"].values()),
              default=0.0)
    for bucket in PROFILE_BUCKETS:
        slot = profile["buckets"].get(bucket)
        if slot is None or slot["seconds"] <= 0:
            continue
        width = 100.0 * slot["seconds"] / top if top > 0 else 0.0
        rows.append(
            f'<div class="bar-row"><span class="lbl">{_esc(bucket)}</span>'
            f'<span class="track"><span class="fill" style="width:'
            f'{width:.2f}%;display:block"></span></span>'
            f'<span class="val">{slot["seconds"]:.3f}s '
            f'({100.0 * slot["share"]:.1f}%)</span></div>')
        color = _BUCKET_SLOTS.get(bucket, "--series-6")
        strip.append(f'<span style="flex:{max(slot["share"], 0.004):.4f};'
                     f'background:var({color})" title="{_esc(bucket)} '
                     f'{100.0 * slot["share"]:.1f}%"></span>')
        legend.append(f'<span><span class="sw" style="background:'
                      f'var({color})"></span>{_esc(bucket)}</span>')
    coverage = (f'window {profile["window_s"]:.3f}s · attributed '
                f'{profile["attributed_s"]:.3f}s · coverage '
                f'{100.0 * profile["coverage"]:.1f}%')
    return (f'<p class="sub">{_esc(coverage)}</p>'
            + "".join(rows)
            + f'<div class="strip">{"".join(strip)}</div>'
            + f'<div class="legend">{"".join(legend)}</div>')


def _curve_section(curve: "list[dict]") -> str:
    if not curve:
        return '<p class="empty">No batched evaluations in the trace.</p>'
    w, h, pad = 640, 220, 42
    x_max = max(p["evaluations"] for p in curve)
    parts: "list[str]" = [f'<svg viewBox="0 0 {w} {h}" width="{w}" '
                          f'height="{h}" role="img" aria-label='
                          '"Cumulative evaluation-cache hit rate">']
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = h - pad - frac * (h - 2 * pad)
        cls = "axisline" if frac == 0.0 else "gridline"
        parts.append(f'<line class="{cls}" x1="{pad}" y1="{y:.1f}" '
                     f'x2="{w - 12}" y2="{y:.1f}"/>')
        parts.append(f'<text x="{pad - 6}" y="{y + 4:.1f}" '
                     f'text-anchor="end">{int(frac * 100)}%</text>')
    pts: "list[str]" = []
    for p in curve:
        x = pad + (p["evaluations"] / x_max) * (w - pad - 12)
        y = h - pad - p["hit_rate"] * (h - 2 * pad)
        pts.append(f"{x:.1f},{y:.1f}")
    parts.append(f'<polyline class="curve" points="{" ".join(pts)}"/>')
    step = max(1, len(curve) // 16)
    for i in range(0, len(curve), step):
        p = curve[i]
        x = pad + (p["evaluations"] / x_max) * (w - pad - 12)
        y = h - pad - p["hit_rate"] * (h - 2 * pad)
        parts.append(f'<circle class="dot" cx="{x:.1f}" cy="{y:.1f}" '
                     f'r="4"><title>{p["evaluations"]:,} evaluations · '
                     f'{100.0 * p["hit_rate"]:.1f}% cached</title>'
                     '</circle>')
    parts.append(f'<text x="{(w + pad) / 2}" y="{h - 8}" '
                 'text-anchor="middle">cumulative evaluations</text>')
    parts.append("</svg>")
    final = curve[-1]
    return ("".join(parts)
            + f'<p class="sub">final: {100.0 * final["hit_rate"]:.1f}% of '
              f'{final["evaluations"]:,} evaluations served from cache</p>')


def _timeline_section(timeline: "list[dict]", dropped: int) -> str:
    if not timeline:
        return ('<p class="empty">No retries, backoffs or faults '
                'recorded.</p>')
    rows = ["<table><tr><th>t (s)</th><th>event</th><th>detail</th></tr>"]
    for ev in timeline:
        t = (f"{ev['t_rel_s']:.3f}"
             if isinstance(ev.get("t_rel_s"), (int, float)) else "—")
        detail = ", ".join(f"{k}={v}" for k, v in ev["attrs"].items())
        if isinstance(ev.get("dur_s"), (int, float)):
            detail = f"dur={ev['dur_s']:.3f}s" + (
                f", {detail}" if detail else "")
        rows.append(f"<tr><td>{_esc(t)}</td><td>{_esc(ev['name'])}</td>"
                    f"<td>{_esc(detail)}</td></tr>")
    rows.append("</table>")
    if dropped:
        rows.append(f'<p class="sub">… {dropped} further event(s) '
                    'truncated from this table (all are in the JSON '
                    'report).</p>')
    return "".join(rows)


def _methods_section(by_method: "dict[str, int]") -> str:
    if not by_method:
        return '<p class="empty">No per-method counters in this run.</p>'
    rows = ["<table><tr><th>method</th><th>fresh evaluations</th></tr>"]
    for method, count in by_method.items():
        rows.append(f"<tr><td>{_esc(method)}</td>"
                    f"<td>{count:,}</td></tr>")
    rows.append("</table>")
    return "".join(rows)


def render_html(report: dict) -> str:
    """The report as one self-contained HTML page (no external assets)."""
    profile = report.get("profile")
    coverage = (f"{100.0 * profile['coverage']:.1f}%"
                if profile else "—")
    fresh = report["evaluations"].get("fresh")
    cached = report["evaluations"].get("cached")
    tiles = [
        _tile("wall time", _fmt_s(report.get("wall_time_s"))),
        _tile("fresh evaluations",
              f"{fresh:,}" if isinstance(fresh, int) else "—"),
        _tile("cached evaluations",
              f"{cached:,}" if isinstance(cached, int) else "—"),
        _tile("profile coverage", coverage),
    ]
    sub = " · ".join(_esc(part) for part in (
        f"run {report.get('run_id') or '?'}",
        f"v{report.get('package_version') or '?'}",
        f"git {(report.get('git_sha') or '?')[:12]}",
        f"dir {report.get('run_dir')}") if part)
    head = (f"<h1>c2bound run report — "
            f"{_esc(report.get('experiment') or 'unknown')}</h1>"
            f'<p class="sub">{sub}</p>')
    body = [
        head,
        f'<div class="tiles">{"".join(tiles)}</div>',
        "<h2>Wall-clock attribution</h2>",
        f'<div class="card">{_bucket_section(profile)}</div>',
        "<h2>Evaluation-cache hit rate</h2>",
        f'<div class="card">{_curve_section(report["cache_curve"])}</div>',
        "<h2>Retry / fault timeline</h2>",
        f'<div class="card">'
        f'{_timeline_section(report["timeline"], report["timeline_dropped"])}'
        "</div>",
        "<h2>Evaluations by search method</h2>",
        f'<div class="card">'
        f'{_methods_section(report["evaluations"]["by_method"])}</div>',
    ]
    return ("<!DOCTYPE html>\n<html lang=\"en\"><head>"
            "<meta charset=\"utf-8\">"
            "<meta name=\"viewport\" content=\"width=device-width, "
            "initial-scale=1\">"
            f"<title>c2bound report — "
            f"{_esc(report.get('experiment') or 'run')}</title>"
            f"<style>{_CSS}</style></head>"
            f"<body class=\"viz-root\">{''.join(body)}</body></html>\n")


# ---------------------------------------------------------------------------
# diff
# ---------------------------------------------------------------------------

def _is_volatile_metric(name: str) -> bool:
    return name.startswith(VOLATILE_METRIC_PREFIXES)


def _identity_view(manifest: dict) -> dict:
    """The manifest fields that define run *identity*.

    Starts from :func:`repro.obs.manifest.stable_view` and further
    drops ``metrics`` (compared separately with the volatile-prefix
    allowlist), ``argv`` and the invocation-only config keys — a run
    and its resumed twin were launched with different flags but
    computed the same thing.
    """
    view = {k: v for k, v in stable_view(manifest).items()
            if k not in ("metrics", "argv")}
    config = view.get("config")
    if isinstance(config, dict):
        view["config"] = {k: v for k, v in config.items()
                          if k not in VOLATILE_CONFIG_KEYS}
    return view


def _scalar_diff(section_a: dict, section_b: dict,
                 *, volatile_ok: bool) -> "tuple[dict, list[str]]":
    """Deltas + identity failures between two scalar-metric sections."""
    deltas: dict = {}
    mismatches: "list[str]" = []
    for key in sorted(set(section_a) | set(section_b)):
        a, b = section_a.get(key), section_b.get(key)
        if a == b:
            continue
        if isinstance(a, (int, float)) and isinstance(b, (int, float)):
            deltas[key] = {"a": a, "b": b, "delta": b - a}
        else:
            deltas[key] = {"a": a, "b": b}
        if not (volatile_ok and _is_volatile_metric(key)):
            mismatches.append(key)
    return deltas, mismatches


def _compare_metrics(metrics_a: "dict | None",
                     metrics_b: "dict | None") -> dict:
    """Metric comparison honouring the volatile-prefix allowlist.

    Counters/gauges outside the volatile prefixes must match exactly.
    Histograms are deterministic in their ``count`` only (sums are
    wall-clock); counts outside the volatile prefixes must match.
    """
    a, b = metrics_a or {}, metrics_b or {}
    deltas: dict = {}
    mismatches: "list[str]" = []
    for section in ("counters", "gauges"):
        d, m = _scalar_diff(a.get(section, {}), b.get(section, {}),
                            volatile_ok=True)
        if d:
            deltas[section] = d
        mismatches.extend(m)
    hist_a = {k: (v or {}).get("count")
              for k, v in a.get("histograms", {}).items()}
    hist_b = {k: (v or {}).get("count")
              for k, v in b.get("histograms", {}).items()}
    d, m = _scalar_diff(hist_a, hist_b, volatile_ok=True)
    if d:
        deltas["histogram_counts"] = d
    mismatches.extend(m)
    return {"deltas": deltas, "mismatches": mismatches,
            "identical": not mismatches}


def _compare_outputs(run_a: RunArtifacts,
                     run_b: RunArtifacts) -> dict:
    names_a = {p.name: p for p in run_a.csvs}
    names_b = {p.name: p for p in run_b.csvs}
    only_a = sorted(set(names_a) - set(names_b))
    only_b = sorted(set(names_b) - set(names_a))
    differing: "list[str]" = []
    identical: "list[str]" = []
    for name in sorted(set(names_a) & set(names_b)):
        if names_a[name].read_bytes() == names_b[name].read_bytes():
            identical.append(name)
        else:
            differing.append(name)
    return {"identical": identical, "differing": differing,
            "only_a": only_a, "only_b": only_b,
            "all_identical": not (differing or only_a or only_b)}


def _compare_profiles(run_a: RunArtifacts, run_b: RunArtifacts) -> "dict | None":
    if run_a.trace_path is None or run_b.trace_path is None:
        return None
    profiles = [profile_trace(run.trace_path)[0]  # type: ignore[arg-type]
                for run in (run_a, run_b)]
    buckets: dict = {}
    for bucket in PROFILE_BUCKETS:
        sa = profiles[0]["buckets"][bucket]["seconds"]
        sb = profiles[1]["buckets"][bucket]["seconds"]
        buckets[bucket] = {"a_s": sa, "b_s": sb, "delta_s": sb - sa}
    return {"buckets": buckets,
            "window": {"a_s": profiles[0]["window_s"],
                       "b_s": profiles[1]["window_s"]}}


def diff_runs(dir_a: "str | Path", dir_b: "str | Path") -> dict:
    """Compare two run directories.

    ``verdict`` is ``"bit_identical"`` when the stable configuration,
    every deterministic metric and every output CSV agree byte-for-byte
    — the bar a run and its ``--resume``\\ d twin must clear.  Volatile
    telemetry (wall time, cache/retry counters, profile buckets) is
    reported as deltas alongside, never as an identity failure.
    """
    run_a, run_b = discover_run(dir_a), discover_run(dir_b)
    config_identical: "bool | None" = None
    config_diff: "list[str]" = []
    invocation_diff: "list[str]" = []
    if run_a.manifest is not None and run_b.manifest is not None:
        view_a = _identity_view(run_a.manifest)
        view_b = _identity_view(run_b.manifest)
        config_diff = sorted(k for k in set(view_a) | set(view_b)
                             if view_a.get(k) != view_b.get(k))
        config_identical = not config_diff
        cfg_a = run_a.manifest.get("config") or {}
        cfg_b = run_b.manifest.get("config") or {}
        invocation_diff = sorted(
            k for k in VOLATILE_CONFIG_KEYS
            if cfg_a.get(k) != cfg_b.get(k))
    metrics = _compare_metrics(run_a.metrics, run_b.metrics)
    outputs = _compare_outputs(run_a, run_b)
    wall_a = (run_a.manifest or {}).get("wall_time_s")
    wall_b = (run_b.manifest or {}).get("wall_time_s")
    bit_identical = (config_identical is not False
                     and metrics["identical"]
                     and outputs["all_identical"])
    result = {
        "schema": REPORT_SCHEMA,
        "kind": "diff",
        "a": str(Path(dir_a)),
        "b": str(Path(dir_b)),
        "config": {"identical": config_identical, "differing": config_diff,
                   "invocation_differing": invocation_diff},
        "metrics": metrics,
        "outputs": outputs,
        "profile": _compare_profiles(run_a, run_b),
        "wall_time": {"a_s": wall_a, "b_s": wall_b,
                      "delta_s": (wall_b - wall_a
                                  if isinstance(wall_a, (int, float))
                                  and isinstance(wall_b, (int, float))
                                  else None)},
        "verdict": "bit_identical" if bit_identical else "different",
    }
    get_registry().counter("report.diffs").inc()
    return result


# ---------------------------------------------------------------------------
# CLI entry points
# ---------------------------------------------------------------------------

def report_command(argv: "list[str]") -> int:
    """``c2bound report <run-dir>`` — HTML + JSON analysis artifacts."""
    parser = argparse.ArgumentParser(
        prog="c2bound report",
        description="Render a run directory's artifacts (manifest, "
                    "trace, metrics, CSVs) into an HTML + JSON report.")
    parser.add_argument("run_dir", type=Path,
                        help="directory holding one run's outputs")
    parser.add_argument("--out", type=Path, default=None, metavar="DIR",
                        help="where to write report.html/report.json "
                             "(default: the run directory)")
    parser.add_argument("--flame", action="store_true",
                        help="also print a flame-style span tree")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress stdout (files are still written)")
    args = parser.parse_args(argv)
    if not args.run_dir.is_dir():
        print(f"error: {args.run_dir} is not a directory",
              file=sys.stderr)
        return 2
    report, rollup = _build_report(args.run_dir)
    out_dir = args.out if args.out is not None else args.run_dir
    json_path = write_report(report, out_dir / "report.json")
    html_path = Path(out_dir) / "report.html"
    html_path.parent.mkdir(parents=True, exist_ok=True)
    html_path.write_text(render_html(report), encoding="utf-8")
    if not args.quiet:
        if rollup is not None:
            print(format_profile(report["profile"]))
            if args.flame:
                print(render_flame(rollup))
        else:
            print("no trace in run dir; report covers manifest/metrics/"
                  "CSVs only (rerun with --trace for attribution)")
        print(f"saved: {json_path}")
        print(f"saved: {html_path}")
    return 0


def _print_diff(diff: dict) -> None:
    print(f"A: {diff['a']}")
    print(f"B: {diff['b']}")
    print(f"verdict: {diff['verdict']}")
    config = diff["config"]
    if config["identical"] is None:
        print("config: (manifest missing on one side)")
    elif config["identical"]:
        print("config: identical (stable view)")
    else:
        print(f"config: differs in {', '.join(config['differing'])}")
    if config["invocation_differing"]:
        print("invocation (not identity): differs in "
              + ", ".join(config["invocation_differing"]))
    outputs = diff["outputs"]
    print(f"outputs: {len(outputs['identical'])} identical CSV(s), "
          f"{len(outputs['differing'])} differing"
          + (f", only in A: {outputs['only_a']}" if outputs["only_a"]
             else "")
          + (f", only in B: {outputs['only_b']}" if outputs["only_b"]
             else ""))
    if diff["metrics"]["mismatches"]:
        print("deterministic metric mismatches: "
              + ", ".join(diff["metrics"]["mismatches"]))
    wall = diff["wall_time"]
    if wall["delta_s"] is not None:
        print(f"wall time: {wall['a_s']:.3f}s -> {wall['b_s']:.3f}s "
              f"({wall['delta_s']:+.3f}s)")
    profile = diff["profile"]
    if profile:
        moved = {b: d["delta_s"] for b, d in profile["buckets"].items()
                 if abs(d["delta_s"]) > 1e-9}
        if moved:
            print("profile deltas: " + ", ".join(
                f"{b} {d:+.3f}s" for b, d in sorted(
                    moved.items(), key=lambda kv: -abs(kv[1]))))


def diff_command(argv: "list[str]") -> int:
    """``c2bound diff <runA> <runB>`` — 0 iff bit-identical."""
    parser = argparse.ArgumentParser(
        prog="c2bound diff",
        description="Compare two run directories: config identity, "
                    "deterministic metrics, output CSVs, profile "
                    "deltas.  Exit 0 iff bit-identical.")
    parser.add_argument("run_a", type=Path)
    parser.add_argument("run_b", type=Path)
    parser.add_argument("--json", type=Path, default=None, metavar="FILE",
                        help="also write the full diff document to FILE")
    parser.add_argument("--quiet", action="store_true",
                        help="no stdout; exit code only")
    args = parser.parse_args(argv)
    for d in (args.run_a, args.run_b):
        if not d.is_dir():
            print(f"error: {d} is not a directory", file=sys.stderr)
            return 2
    diff = diff_runs(args.run_a, args.run_b)
    if args.json is not None:
        write_report(diff, args.json)
    if not args.quiet:
        _print_diff(diff)
    return 0 if diff["verdict"] == "bit_identical" else 1


def tail_command(argv: "list[str]") -> int:
    """``c2bound tail <trace>`` — live-follow an in-flight sweep."""
    parser = argparse.ArgumentParser(
        prog="c2bound tail",
        description="Follow a growing c2bound.trace/1 file, printing "
                    "live sweep progress.")
    parser.add_argument("trace", type=Path, help="trace JSONL file "
                        "(may not exist yet)")
    parser.add_argument("--interval", type=float, default=0.5,
                        metavar="S", help="poll interval in seconds "
                        "(default 0.5)")
    parser.add_argument("--idle-timeout", type=float, default=30.0,
                        metavar="S",
                        help="stop after S seconds without new events "
                             "(default 30; <=0 waits forever)")
    parser.add_argument("--once", action="store_true",
                        help="drain what is there now and exit")
    args = parser.parse_args(argv)
    progress = ProgressAggregator()
    printed: "list[str]" = []

    def emit() -> None:
        line = progress.format_line()
        if not printed or printed[-1] != line:
            printed.append(line)
            print(line, flush=True)

    idle = None if args.idle_timeout <= 0 else args.idle_timeout
    for events in follow(args.trace, interval_s=max(0.05, args.interval),
                         idle_timeout_s=idle):
        for event in events:
            progress.handle(event)
        if events:
            emit()
        if args.once or progress.done:
            break
    if progress.evaluations or progress.done:
        emit()
        return 0
    print("no events observed", flush=True)
    return 1


def cli_main(argv: "list[str]") -> int:
    """Dispatch ``report`` / ``diff`` / ``tail`` (first element picks)."""
    if not argv:
        print("usage: c2bound {report|diff|tail} ...", file=sys.stderr)
        return 2
    command, rest = argv[0], argv[1:]
    if command == "report":
        return report_command(rest)
    if command == "diff":
        return diff_command(rest)
    if command == "tail":
        return tail_command(rest)
    print(f"unknown analysis command {command!r}", file=sys.stderr)
    return 2
