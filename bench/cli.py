"""``python -m bench``: run the workloads, or ``compare`` two result sets.

Each workload runs in its own process (:mod:`bench.child`) with the
program's environment switches removed; this process only starts it,
bounds its time, stops everything it left behind and reports.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only when
every operation of every workload ran and checked out.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from bench.catalog import load_catalog
from bench.context import DEFAULT_SEED
from bench.host import ROOT, child_env, dropped_env, fingerprint, \
    source_present, work_dir

#: One workload, set-up and checks included, must end within this.
CHILD_TIMEOUT_S = 170.0
RESULT_SCHEMA = "c2bound.bench-result/1"


def _parser(catalog: dict) -> argparse.ArgumentParser:
    names = [w["name"] for w in catalog["workloads"]]
    parser = argparse.ArgumentParser(
        prog="python -m bench",
        description="Run the benchmark workloads (see bench/README.md); "
                    "`python -m bench compare BASE NEW` judges two sets "
                    "of results.")
    parser.add_argument("--workload", choices=names, action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=float(catalog["run_seconds"]),
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run, reporting per-layer "
                             "metrics instead of end-to-end ones")
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--out", type=Path,
                        help="append each workload's full result to this "
                             "JSON-lines file (input of `compare`)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the test suite")
    parser.add_argument("--pin", action="store_true",
                        help="record the default seed's outputs into "
                             "bench/expected.json instead of checking them")
    return parser


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_workload(name: str, args) -> dict:
    """Run one workload process and return its result document."""
    workdir = work_dir() / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "tmp").mkdir(parents=True)
    result_path = workdir / "result.json"
    cmd = [sys.executable, "-m", "bench.child", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir),
           "--result", str(result_path)]
    cmd += ["--smoke"] if args.smoke else []
    cmd += ["--pin"] if args.pin else []
    # Its own session, so every process it starts can be stopped at once;
    # its output goes to stderr, keeping stdout for the report.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(workdir / "tmp"),
                            stdout=2, start_new_session=True)
    error = None
    try:
        proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        error = f"timed out after {CHILD_TIMEOUT_S:.0f} s"
    finally:
        _kill_group(proc.pid)
        proc.wait()
    try:
        result = json.loads(result_path.read_text())
    except (OSError, ValueError):
        result = {"workload": name, "correct": False, "attempted": 0,
                  "failed": 0, "metrics": {}, "failures": [],
                  "detail": {}}
        error = error or f"exited with code {proc.returncode}, no result"
    if error is not None:
        result["correct"] = False
        result["failures"].append(error)
    shutil.rmtree(workdir, ignore_errors=True)
    return result


def _print_result(result: dict, catalog: dict) -> None:
    kind = "traced" if result.get("trace") else "untraced"
    verdict = "correct" if result["correct"] else "INCORRECT"
    print(f"== {result['workload']} (seed {result.get('seed')}, {kind}): "
          f"{verdict}, {result['failed']} of {result['attempted']} "
          "operations failed")
    notes = result.get("notes", {})
    for name, m in result["metrics"].items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']}{note}")
    if not result.get("trace") and result.get("layers"):
        # An untraced run's per-layer values: the timings too noisy for
        # an end-to-end bound (bench/README.md), measured without tracing.
        units = {m["name"]: m["unit"] for m in catalog["per_layer"]}
        print("  per-layer, untraced:")
        for name, value in result["layers"].items():
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"  {name:34s} {value:>14.6g} {units.get(name, '')}{note}")
    detail = result.get("detail", {})
    if "host_speed" in detail:
        print(f"  host speed {detail['host_speed']:.3f} of the reference")
    if "trace_file" in detail:
        print(f"  trace: {detail['trace_file']}")
    for failure in result.get("failures", [])[:20]:
        print(f"  FAILED: {failure}")


def main(argv: "list[str] | None" = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        from bench.compare import main as compare_main
        return compare_main(argv[1:])
    catalog = load_catalog()
    args = _parser(catalog).parse_args(argv)
    if not source_present():
        print(f"error: no program source under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if dropped_env():
        print(f"note: workloads run without {', '.join(dropped_env())}",
              file=sys.stderr)
    names = args.workload or [w["name"] for w in catalog["workloads"]]
    host = fingerprint(args.seed)
    results = []
    for name in names:
        t0 = time.perf_counter()
        result = run_workload(name, args)
        result["wall_s"] = time.perf_counter() - t0
        result["host"] = host
        results.append(result)
        _print_result(result, catalog)
    if args.out is not None:
        with args.out.open("a") as fh:
            for result in results:
                fh.write(json.dumps({"schema": RESULT_SCHEMA, **result},
                                    default=repr) + "\n")
    single = len(results) == 1
    metrics = {(k if single else f"{r['workload']}/{k}"): m
               for r in results for k, m in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct else 1
