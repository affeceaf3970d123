"""``python -m bench compare BASE NEW [NEW ...]``: judge result sets.

Each file is the JSON-lines output of ``python -m bench --out FILE``,
one line per workload run, so repeated runs accumulate in one file per
side.  Run the two sides alternately (base, new, base, new, ...): the
i-th run of each side forms a pair.  Every later file is judged against
the first.

One row per workload and metric gives each side's median and quartiles
and the share of pairs the new side wins (ties count for neither), and
a verdict against the bounds in ``BENCHMARK.json``:

``improved``
    the new side wins at least 90% of the pairs and its median beats
    the base median by more than the base's own interquartile range;
``worse``
    the median got worse by more than the metric's bound;
``unresolved``
    the run-to-run spread is wider than the bound, so neither holds
    with confidence (unless every new run beats, or loses to, every
    base run);
``unchanged``
    within the bound.

Per-layer metrics have no bound: they read ``same`` or ``changed``
when both sides repeat exactly (counts), ``improved`` by the rule above,
else ``info``.  An untraced run's rows include the per-layer timings it
measured (``search_s``, ``points_per_s``, the phase latencies).  A
``failed_frac`` row per workload reads ``worse`` when the new side
fails a larger share of its operations.  The exit code is 1 when any
row reads ``worse``, 2 when the results come from different hosts.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from bench.catalog import load_catalog, metric_specs
from bench.host import host_of
from bench.stats import quartiles, spread

#: Share of pairs the new side must win before a gain is claimed.
WIN_SHARE = 0.9


def load_runs(path: Path) -> "list[dict]":
    return [json.loads(line) for line in path.read_text().splitlines()
            if line.strip()]


def judge(base: "list[float]", new: "list[float]", better: str,
          bound: "float | None") -> "tuple[str, float]":
    """Verdict and win share of ``new`` against ``base``."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(base, new))
    wins = (sum(1 for b, n in pairs if sign * (n - b) < 0) / len(pairs)
            if pairs else 0.0)
    if bound is None and len(set(base)) == 1 and len(set(new)) == 1:
        return ("same" if base[0] == new[0] else "changed"), wins
    b_q1, b_med, b_q3 = quartiles(base)
    _, n_med, _ = quartiles(new)
    gain = sign * (b_med - n_med)
    if wins >= WIN_SHARE and gain > b_q3 - b_q1:
        return "improved", wins
    if bound is None:
        return "info", wins
    all_better = all(sign * (n - b) < 0 for n in new for b in base)
    all_worse = all(sign * (n - b) > 0 for n in new for b in base)
    if max(spread(base), spread(new)) > bound:
        if all_better:
            return "improved", wins
        return ("worse" if all_worse else "unresolved"), wins
    if -gain > bound * abs(b_med):
        return "worse", wins
    return "unchanged", wins


def _groups(runs: "list[dict]") -> "dict[tuple, list[dict]]":
    out: "dict[tuple, list[dict]]" = {}
    for run in runs:
        key = (run["workload"], bool(run.get("trace")), bool(run.get("smoke")))
        out.setdefault(key, []).append(run)
    return out


def _value(run: dict, name: str) -> "float | None":
    """A run's value of ``name``: a reported metric, or a per-layer value
    an untraced run measured without reporting it."""
    if name in run["metrics"]:
        return run["metrics"][name]["value"]
    return run.get("layers", {}).get(name)


def _fmt(values: "list[float]") -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:12.5g} [{q1:.5g}, {q3:.5g}]"


def compare(base: "list[dict]", new: "list[dict]",
            specs: "dict[str, dict]") -> "list[dict]":
    """One row per workload and metric present on both sides."""
    rows = []
    base_groups = _groups(base)
    for key, new_runs in _groups(new).items():
        base_runs = base_groups.get(key)
        if not base_runs:
            continue
        workload = key[0] + (" (traced)" if key[1] else "")
        for name, spec in specs.items():
            if name == "failed_frac":  # its own row below
                continue
            b = [_value(r, name) for r in base_runs]
            n = [_value(r, name) for r in new_runs]
            if None in b or None in n:
                continue
            verdict, wins = judge(b, n, spec["better"], spec.get("bound"))
            rows.append({"workload": workload, "metric": name,
                         "unit": spec["unit"], "base": b, "new": n,
                         "wins": wins, "verdict": verdict})
        fb = [r["failed"] / max(1, r["attempted"]) for r in base_runs]
        fn = [r["failed"] / max(1, r["attempted"]) for r in new_runs]
        worse = sum(fn) / len(fn) > sum(fb) / len(fb)
        rows.append({"workload": workload, "metric": "failed_frac",
                     "unit": "ratio", "base": fb, "new": fn,
                     "wins": 0.0, "verdict": "worse" if worse
                     else "unchanged"})
    return rows


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench compare")
    parser.add_argument("files", type=Path, nargs="+",
                        help="BASE then one or more NEW result files")
    args = parser.parse_args(argv)
    if len(args.files) < 2:
        parser.error("need a base file and at least one new file")
    sides = [load_runs(path) for path in args.files]
    hosts = {host_of(run.get("host", {})) for side in sides for run in side}
    if len(hosts) > 1:
        print("refusing to compare results from different hosts:",
              file=sys.stderr)
        for host in sorted(hosts, key=repr):
            print(f"  {host}", file=sys.stderr)
        return 2
    specs = metric_specs(load_catalog())
    any_worse = False
    for path, new in zip(args.files[1:], sides[1:]):
        rows = compare(sides[0], new, specs)
        print(f"== {args.files[0]} -> {path} "
              f"({len(sides[0])} base results, {len(new)} new results)")
        print(f"{'workload':22s} {'metric':30s} {'base median [q1, q3]':>34s}"
              f" {'new median [q1, q3]':>34s} {'wins':>5s}  verdict")
        for row in rows:
            print(f"{row['workload']:22s} {row['metric']:30s} "
                  f"{_fmt(row['base']):>34s} {_fmt(row['new']):>34s} "
                  f"{row['wins']:5.2f}  {row['verdict']}")
        any_worse |= any(row["verdict"] == "worse" for row in rows)
    return 1 if any_worse else 0
