"""CI check: the epoch kernel never changes a swept cost, anywhere.

Runs a small fixed-seed design sweep through the real simulator four
ways — epoch kernel on and off, serially and across a process pool —
and asserts every cost array is bit-identical (``np.array_equal`` on
the raw float64 values, no tolerance).  Each leg installs its kernel
setting in the run config (:func:`repro.runconfig.install`); pooled
legs hand it to their workers the way any run does.

Identical costs cannot show which path ran, so every evaluation also
leaves evidence: the process that ran it, the ``sim_kernel`` setting
that process saw, and how many operations the epoch kernel stepped
there (its ``sim.kernel.ops`` counter).  A leg passes only if each of
its evaluations ran in the expected process (the parent for serial
legs, a pool worker for pooled ones) on the path the leg names.

Usage::

    PYTHONPATH=src python scripts/kernel_equivalence_check.py [--workers N]

Exit code 0 on equivalence; 1 with a diff summary otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.dse.evaluate import SimulatorEvaluator
from repro.dse.fabric import make_pool_evaluator
from repro.obs import get_registry
from repro.runconfig import current, install
from repro.sim.config import SimulatedChip
from repro.workloads.parsec import parsec_like

SEED = 2024

# n=1/2 cover the issue-width x ROB grid; n=10 (a partial 4x4 mesh)
# and n=64 (a few dozen ops per core, mostly untouched cache sets) run
# the NoC arithmetic and first-touch tag rows of many-core chips.
CONFIGS = [{"n": n, "issue_width": iw, "rob_size": rob,
            "l1_kib": 16.0, "l2_kib": 128.0}
           for n in (1, 2)
           for iw in (2, 4)
           for rob in (32, 64)] + [
    {"n": n, "issue_width": 4, "rob_size": 64,
     "l1_kib": 16.0, "l2_kib": 128.0}
    for n in (10, 64)]


class PathProbe:
    """Evaluator wrapper appending, per evaluation, which process ran
    it, the kernel setting it saw, and the simulations and kernel
    operations it counted, to a JSONL log."""

    def __init__(self, inner, log: Path) -> None:
        self.inner = inner
        self.log = log

    def evaluate(self, config: dict) -> float:
        registry = get_registry()
        runs, ops = (registry.counter("sim.runs"),
                     registry.counter("sim.kernel.ops"))
        before = runs.value, ops.value
        cost = self.inner.evaluate(config)
        record = {"pid": os.getpid(), "sim_kernel": current().sim_kernel,
                  "runs": runs.value - before[0],
                  "kernel_ops": ops.value - before[1]}
        with self.log.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        return cost


def _sweep(kernel: bool, workers: int,
           log: Path) -> "tuple[np.ndarray, list[dict]]":
    """Cost the fixed sweep with the given kernel setting and workers;
    returns the costs and the leg's path evidence."""
    previous = install(replace(current(), sim_kernel=kernel))
    try:
        workload = parsec_like("fluidanimate", n_ops=1_500)
        probe = PathProbe(SimulatorEvaluator(
            workload, seed=SEED,
            base_chip=replace(SimulatedChip(), n_cores=2), cache=None), log)
        if workers == 1:
            costs = np.asarray([probe.evaluate(c) for c in CONFIGS])
        else:
            with make_pool_evaluator(probe, workers=workers) as pool:
                costs = pool.evaluate_batch(CONFIGS)
    finally:
        install(previous)
    records = [json.loads(line) for line in log.read_text().splitlines()]
    return costs, records


def _path_problems(kernel: bool, workers: int,
                   records: "list[dict]") -> "list[str]":
    """Why a leg's evidence does not show it ran the path it names."""
    problems = []
    if len(records) != len(CONFIGS):
        problems.append(f"{len(records)} evaluations recorded, "
                        f"expected {len(CONFIGS)}")
    parent = os.getpid()
    for record in records:
        pooled = record["pid"] != parent
        if pooled != (workers > 1):
            problems.append(f"pid {record['pid']} ran an evaluation "
                            f"{'in a worker' if pooled else 'inline'}")
        if record["sim_kernel"] != kernel:
            problems.append(f"pid {record['pid']} saw "
                            f"sim_kernel={record['sim_kernel']}")
        if record["runs"] != 1:
            problems.append(f"pid {record['pid']} counted "
                            f"{record['runs']} simulations, expected 1")
        if (record["kernel_ops"] > 0) != kernel:
            problems.append(f"pid {record['pid']} stepped "
                            f"{record['kernel_ops']} kernel ops")
    return problems


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=4,
                        help="pool size for the parallel legs (default 4)")
    args = parser.parse_args(argv)

    legs = {}
    with tempfile.TemporaryDirectory(prefix="kernel-eq-") as tmp:
        for kernel in (True, False):
            for workers in sorted({1, args.workers}):
                log = Path(tmp) / f"kernel{int(kernel)}-w{workers}.jsonl"
                legs[kernel, workers] = _sweep(kernel, workers, log)
    reference = legs[True, 1][0]
    digest = hashlib.sha256(reference.tobytes()).hexdigest()[:16]
    failed = False
    for (kernel, workers), (costs, records) in legs.items():
        ok = np.array_equal(costs, reference)
        problems = _path_problems(kernel, workers, records)
        pids = sorted({r["pid"] for r in records})
        ops = sum(r["kernel_ops"] for r in records)
        label = f"kernel={int(kernel)} workers={workers}"
        print(f"  {label}: {'OK' if ok else 'DIVERGED'}; path "
              f"{'OK' if not problems else 'WRONG'} ({len(records)} "
              f"evaluations in {len(pids)} process(es), {ops} kernel ops)")
        if not ok:
            failed = True
            for i, (a, b) in enumerate(zip(costs, reference)):
                if a != b:
                    print(f"    config {CONFIGS[i]}: {a!r} != {b!r}")
        if problems:
            failed = True
            for problem in sorted(set(problems)):
                print(f"    {problem}")
    print(f"{len(CONFIGS)} design points, costs sha256[:16]={digest}")
    if failed:
        print("kernel/worker equivalence FAILED", file=sys.stderr)
        return 1
    print("all legs bit-identical, each on the path it names")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
