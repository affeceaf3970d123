"""Perf-regression sentry over the benchmark suite's BENCH records.

The benchmark harness (``benchmarks/conftest.py``) persists a
``results/BENCH_<test>.json`` record per run — wall time, provenance
and the run's headline metrics.  Those records are throwaway
(``results/`` is gitignored), so on their own they give the repo no
memory of how fast it used to be.  This script is that memory:

- ``update`` folds every ``results/BENCH_*.json`` into an append-only
  baseline history (``benchmarks/perf_baselines.jsonl``, committed),
  one JSON line per observation;
- ``check`` compares the current records against the history's recent
  median per benchmark, with a **noise band** derived from the
  history's own spread (median absolute deviation), and exits
  non-zero on any regression or workload drift — this is the CI gate.

The band is ``max(3 * MAD / median, FLOOR)`` capped at ``CEIL``: a
noisy benchmark earns itself a wider band, a stable one is held to the
floor, and nothing can inflate its band past the cap by being
erratic.  With the defaults a clean benchmark fails at ~1.5x its
median and even the noisiest fails well before 2x — the synthetic-2x
fixture test in ``tests/test_perf_sentry.py`` pins that property.

A benchmark whose *workload* changed (different ``dse.evaluations`` /
``sim.instructions`` signature than the history) is reported as
drifted and not compared — its wall time against the old workload's
would be meaningless — but ``check`` still fails and names it: a gate
that silently skips a bench is inert.  The change that alters a
bench's workload re-baselines it with ``update`` in the same commit.

Usage::

    PYTHONPATH=src python scripts/perf_sentry.py update [--results DIR]
    PYTHONPATH=src python scripts/perf_sentry.py check  [--results DIR]
        [--baselines FILE] [--window N] [--json FILE]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_RESULTS = REPO_ROOT / "results"
DEFAULT_BASELINES = REPO_ROOT / "benchmarks" / "perf_baselines.jsonl"

#: How many of a benchmark's most recent history lines feed the median.
WINDOW = 20
#: Minimum relative noise band — a perfectly stable benchmark still
#: gets 50% headroom (machine-to-machine variance dwarfs run-to-run).
BAND_FLOOR = 0.5
#: Maximum relative band — a noisy benchmark can widen its band, but a
#: 2x slowdown must always fail: (1 + CEIL) < 2.
BAND_CEIL = 0.9

#: Counters that fingerprint a benchmark's workload.  If any of them
#: changed against the history, wall time is not comparable.
WORK_KEYS = ("dse.evaluations", "sim.runs", "sim.instructions",
             "solver.newton.solves")


def _nonzero(work: dict) -> dict:
    """A work signature without its zero counts.

    The harness snapshots every counter the session has registered, so
    whether a zero appears depends on which benches ran before; a zero
    count and an absent one both mean no such work.
    """
    return {key: value for key, value in work.items() if value}


def _work_signature(metrics: dict) -> dict:
    counters = metrics.get("counters", {}) if metrics else {}
    return _nonzero({key: counters[key] for key in WORK_KEYS
                     if key in counters})


def load_bench_records(results_dir: Path) -> "list[dict]":
    """Parse every ``BENCH_*.json`` under ``results_dir``.

    Records without a ``wall_time_s`` key (speedup-style summaries
    written by individual benchmarks, not the harness) are skipped —
    they carry ratios, not comparable absolute times.
    """
    records = []
    for path in sorted(results_dir.glob("BENCH_*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if "wall_time_s" not in record:
            continue
        records.append({
            "bench": record.get("test", path.stem),
            "wall_time_s": float(record["wall_time_s"]),
            "git_sha": record.get("git_sha"),
            "package_version": record.get("package_version"),
            "work": _work_signature(record.get("metrics", {})),
        })
    return records


def load_history(baselines: Path) -> "dict[str, list[dict]]":
    """Baseline lines grouped by benchmark, file order preserved."""
    history: "dict[str, list[dict]]" = {}
    if not baselines.exists():
        return history
    for line in baselines.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        entry = json.loads(line)
        history.setdefault(entry["bench"], []).append(entry)
    return history


def _median(values: "list[float]") -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def noise_band(times: "list[float]") -> float:
    """Relative tolerance from the history's own spread."""
    median = _median(times)
    if median <= 0:
        return BAND_CEIL
    mad = _median([abs(t - median) for t in times])
    return min(BAND_CEIL, max(BAND_FLOOR, 3.0 * mad / median))


def check_record(record: dict, history: "list[dict]",
                 window: int = WINDOW) -> dict:
    """One benchmark's verdict against its baseline history."""
    recent = history[-window:]
    result = {
        "bench": record["bench"],
        "wall_time_s": record["wall_time_s"],
        "status": "ok",
        "baseline_s": None,
        "band": None,
        "ratio": None,
        "samples": len(recent),
    }
    if not recent:
        result["status"] = "new"
        return result
    baseline_work = _nonzero(recent[-1].get("work", {}))
    if _nonzero(record["work"]) != baseline_work:
        result["status"] = "workload_drift"
        result["work"] = record["work"]
        result["baseline_work"] = baseline_work
        return result
    times = [float(entry["wall_time_s"]) for entry in recent]
    median = _median(times)
    band = noise_band(times)
    result["baseline_s"] = median
    result["band"] = band
    result["ratio"] = (record["wall_time_s"] / median if median > 0
                       else float("inf"))
    if record["wall_time_s"] > median * (1.0 + band):
        result["status"] = "regression"
    return result


def run_check(results_dir: Path, baselines: Path,
              window: int = WINDOW) -> dict:
    records = load_bench_records(results_dir)
    history = load_history(baselines)
    checks = [check_record(record, history.get(record["bench"], []),
                           window=window)
              for record in records]
    regressions = [c for c in checks if c["status"] == "regression"]
    drifted = [c["bench"] for c in checks
               if c["status"] == "workload_drift"]
    return {
        "results_dir": str(results_dir),
        "baselines": str(baselines),
        "window": window,
        "checked": len(checks),
        "regressions": len(regressions),
        "drifted": drifted,
        "checks": checks,
    }


def run_update(results_dir: Path, baselines: Path) -> int:
    records = load_bench_records(results_dir)
    baselines.parent.mkdir(parents=True, exist_ok=True)
    with baselines.open("a", encoding="utf-8") as sink:
        for record in records:
            sink.write(json.dumps(record, sort_keys=True) + "\n")
    return len(records)


def _format_check(check: dict) -> str:
    bench = check["bench"]
    if check["status"] == "new":
        return f"  NEW        {bench}: {check['wall_time_s']:.3f}s (no baseline)"
    if check["status"] == "workload_drift":
        return (f"  DRIFT      {bench}: workload changed "
                f"{check['baseline_work']} -> {check['work']}; re-baseline")
    tag = "REGRESSION" if check["status"] == "regression" else "ok"
    return (f"  {tag:<10} {bench}: {check['wall_time_s']:.3f}s vs median "
            f"{check['baseline_s']:.3f}s over {check['samples']} "
            f"(ratio {check['ratio']:.2f}, band +{100 * check['band']:.0f}%)")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="perf_sentry.py",
        description="benchmark wall-time regression gate")
    parser.add_argument("command", choices=("update", "check"))
    parser.add_argument("--results", type=Path, default=DEFAULT_RESULTS,
                        help="directory holding BENCH_*.json records")
    parser.add_argument("--baselines", type=Path,
                        default=DEFAULT_BASELINES,
                        help="append-only baseline history (JSONL)")
    parser.add_argument("--window", type=int, default=WINDOW,
                        help="recent history lines per benchmark")
    parser.add_argument("--json", type=Path, default=None,
                        help="also write the check document to FILE")
    args = parser.parse_args(argv)

    if not args.results.is_dir():
        print(f"perf_sentry: no results directory at {args.results}",
              file=sys.stderr)
        return 2

    if args.command == "update":
        appended = run_update(args.results, args.baselines)
        print(f"perf_sentry: appended {appended} record(s) to "
              f"{args.baselines}")
        return 0

    report = run_check(args.results, args.baselines, window=args.window)
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(report, indent=2) + "\n",
                             encoding="utf-8")
    print(f"perf_sentry: {report['checked']} benchmark(s) vs "
          f"{args.baselines}")
    for check in report["checks"]:
        print(_format_check(check))
    if report["drifted"]:
        print(f"perf_sentry: workload drift in "
              f"{', '.join(report['drifted'])}; re-baseline with `update` "
              "in the change that altered the workload", file=sys.stderr)
    if report["regressions"]:
        print(f"perf_sentry: {report['regressions']} regression(s)",
              file=sys.stderr)
    return 1 if report["regressions"] or report["drifted"] else 0


if __name__ == "__main__":
    sys.exit(main())
