"""One workload in its own process: ``python -m bench.child``.

Started by :mod:`bench.cli` with a clean environment, so the program's
registries, default stores and peak memory belong to this workload
alone.  Writes its result document to ``--result``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import traceback
from pathlib import Path

from bench import aps, service, sweep
from bench.catalog import load_catalog
from bench.context import Run, load_expected, save_expected
from bench.host import WORK
from bench.tracing import BenchTrace

WORKLOADS = {"aps-wide": aps, "aps-narrow": aps, "warm-sweep": sweep,
             "service": service}


def peak_rss_mib() -> float:
    """Peak resident memory of this process plus its largest child
    (``ru_maxrss`` is in KiB on Linux)."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def _finish(run: Run, catalog: dict) -> None:
    """Fill the reported metrics from BENCHMARK.json's lists: the
    end-to-end ones for an untraced run, every per-layer one (0 where
    the workload does not use the layer) for a traced run.  An untraced
    run keeps the per-layer values it measured in its result too."""
    run.layer("failed_frac", run.failed / max(1, run.attempted),
              f"{run.failed} of {run.attempted}")
    listed = {m["name"]: m["unit"] for m in catalog["per_layer"]}
    for name in sorted(set(run.layers) - set(listed)):
        run.check(False, f"per-layer metric {name} is not in BENCHMARK.json")
    if run.trace is None:
        run.metric("peak_rss_mib", peak_rss_mib(), "MiB")
        for m in catalog["end_to_end"]:
            run.check(m["name"] in run.metrics,
                      f"end-to-end metric {m['name']} was not measured")
        return
    run.metrics = {}
    for name, unit in listed.items():
        run.metric(name, run.layers.get(name, 0.0), unit)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.child")
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args(argv)

    expected = load_expected()
    trace = BenchTrace() if args.trace else None
    run = Run(args.workload, seed=args.seed, seconds=args.seconds,
              smoke=args.smoke, workdir=args.workdir, trace=trace,
              expected=expected, pin=args.pin)
    module = WORKLOADS[args.workload]
    try:
        if trace is not None:
            module.measure_traced(run)
        else:
            module.measure(run)
    except Exception as exc:
        # The run's boundary: whatever a workload raises becomes a
        # failed result the parent reports, never a silent pass.
        traceback.print_exc()
        run.check(False, f"{type(exc).__name__}: {exc}")
    if trace is not None:
        trace.stop()
        run.layers["trace.coverage"] = trace.coverage()
        path = WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        run.detail["trace_file"] = str(trace.dump(
            path, run_name=f"bench.{args.workload}", seed=args.seed))
    _finish(run, load_catalog())
    if args.pin and not run.failures:
        save_expected(expected)
    args.result.write_text(json.dumps(run.result(), default=repr))
    return 0


if __name__ == "__main__":
    sys.exit(main())
