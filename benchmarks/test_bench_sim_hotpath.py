"""Perf-smoke: the epoch kernel must beat the scalar event loop.

The reference run — the paper's fluidanimate-like workload on a 4-core
chip, followed by the full analysis pass (per-core C-AMAT statistics and
Fig. 13 layer APC) — is executed on identical streams through both live
simulator paths: the scalar event loop
(``CMPSimulator(chip, use_kernel=False)``, one heap pop and one
``CoreModel.advance`` call per memory operation) and the batched epoch
kernel of :mod:`repro.sim.kernel`.  Both must agree *exactly* —
execution cycles, every per-access record, L1 hits and misses, layer
APC and per-core statistics — and the kernel must be at least
``MIN_SPEEDUP`` times faster.  That ratio is what the kernel buys; the
seed semantics both paths reproduce are pinned by the golden corpus
(``tests/sim/test_differential_golden.py``), which includes this run.

A second phase re-runs a small design sweep against a warm persistent
:class:`repro.sim.cache_store.SimCacheStore` and asserts it is
simulation-free: ``sim.runs`` stays 0 while every cost is answered
bit-identically from disk.

Wall times, the speedup and the warm-cache counters fold into the
harness record, ``results/BENCH_test_sim_hotpath_speedup.json``.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np
from conftest import run_once, update_bench_record

from repro.dse.evaluate import SimulatorEvaluator
from repro.obs import get_registry
from repro.sim.cache_store import SimCacheStore
from repro.sim.cmp import CMPSimulator
from repro.sim.config import SimulatedChip
from repro.workloads.parsec import parsec_like

# 85% of the lowest of 12 independent single-round ratios (1.84-2.49x,
# median 2.15x, on a 2-vCPU Xeon VM), rounded down to 0.05: the margin
# absorbs CI jitter, and a kernel that falls about 28% below its median
# ratio fails.
MIN_SPEEDUP = 1.55
SEED = 1234
# Long enough that the kernel's timing window (~0.2 s here) averages
# over scheduler-noise bursts the way the scalar window (~0.4 s) does;
# at 20k ops the short window let the measured ratio swing ±10% run to
# run.
N_OPS = 60_000


def _streams(chip):
    """Identical streams for both paths (regenerated per run)."""
    workload = parsec_like("fluidanimate", n_ops=N_OPS)
    return workload.streams(chip.n_cores, np.random.default_rng(SEED))


def _optimized_reference(chip, streams, use_kernel=True):
    """One path's hot path: simulate, then the full analysis pass."""
    result = CMPSimulator(chip, use_kernel=use_kernel).run(streams)
    apc = result.layer_apc()
    stats = [result.core_stats(i) for i in range(chip.n_cores)]
    return result, apc, stats


def _warm_cache_sweep(tmp_path):
    """Run a small sweep twice against one store; return both phases."""
    workload = parsec_like("fluidanimate", n_ops=1_500)
    store = SimCacheStore(tmp_path / "sim-cache")
    base = replace(SimulatedChip(), n_cores=2)
    configs = [{"n": n, "issue_width": iw, "rob_size": 32,
                "l1_kib": 16.0, "l2_kib": 128.0}
               for n in (1, 2) for iw in (2, 4)]
    registry = get_registry()

    registry.reset()
    cold = SimulatorEvaluator(workload, seed=7, base_chip=base, cache=store)
    cold_costs = [cold.evaluate(c) for c in configs]
    cold_runs = registry.counter("sim.runs").value

    registry.reset()
    warm = SimulatorEvaluator(workload, seed=7, base_chip=base, cache=store)
    warm_costs = [warm.evaluate(c) for c in configs]
    warm_runs = registry.counter("sim.runs").value
    warm_hits = registry.counter("sim.cache.hits").value
    return cold_costs, cold_runs, warm_costs, warm_runs, warm_hits


def _measure_round(chip, scalar_s, kernel_s):
    """One measurement round; folds into the running per-path minima.

    Best-of-N on both sides: single-shot wall times swing under CI
    scheduler noise, the per-path minimum much less so.  The two
    windows are within about 2x of each other, so each path gets the
    same number of timed runs, strictly alternated, and the order flips
    every pair so neither path always runs first in a load epoch.
    Stream generation is identical shared setup — excluded from both
    timing windows so the comparison is simulate+analyze only.
    """
    outputs = {}
    for i in range(6):
        for use_kernel in ((False, True) if i % 2 == 0 else (True, False)):
            streams = _streams(chip)
            t0 = time.perf_counter()
            outputs[use_kernel] = _optimized_reference(chip, streams,
                                                       use_kernel)
            elapsed = time.perf_counter() - t0
            if use_kernel:
                kernel_s = min(kernel_s, elapsed)
            else:
                scalar_s = min(scalar_s, elapsed)
    return scalar_s, kernel_s, outputs[False], outputs[True]


def test_sim_hotpath_speedup(benchmark, results_dir, tmp_path):
    chip = replace(SimulatedChip(), n_cores=4)

    # Both per-path minima estimate the same noise-free floor, so extra
    # rounds only sharpen the estimate — they cannot manufacture a
    # speedup a genuinely slow implementation doesn't have.  A round
    # that already clears the floor ends the measurement; a shortfall
    # gets up to two re-measurement rounds before it counts as real
    # (the standard guard against a load burst landing on the short
    # windows).
    scalar_s = kernel_s = float("inf")
    rounds = 0
    for _ in range(3):
        scalar_s, kernel_s, scalar_out, kernel_out = _measure_round(
            chip, scalar_s, kernel_s)
        rounds += 1
        if scalar_s / kernel_s >= MIN_SPEEDUP:
            break

    # One more pass under the harness for the standard metrics record
    # (results/BENCH_test_sim_hotpath_speedup.json).
    run_once(benchmark, _optimized_reference, chip, _streams(chip))

    # Two paths, one semantics: every observable must match exactly
    # (cycles, records, L1 hits and misses, APC, statistics).
    result, apc, stats = kernel_out
    scalar, scalar_apc, scalar_stats = scalar_out
    assert result.exec_cycles == scalar.exec_cycles
    for core_result, scalar_core in zip(result.cores, scalar.cores,
                                        strict=True):
        assert core_result.records == scalar_core.records
        assert core_result.l1_hits == scalar_core.l1_hits
        assert core_result.l1_misses == scalar_core.l1_misses
    assert apc == scalar_apc
    assert stats == scalar_stats

    # Warm-cache phase: second sweep over the same store is free.
    (cold_costs, cold_runs, warm_costs,
     warm_runs, warm_hits) = _warm_cache_sweep(tmp_path)
    assert warm_costs == cold_costs          # bit-identical floats
    assert cold_runs == len(cold_costs)
    assert warm_runs == 0                    # not one fresh simulation
    assert warm_hits == len(warm_costs)

    speedup = scalar_s / kernel_s
    # The kernel window per simulated memory op: the figure that the
    # per-op cost of typed columns (docs/DSE_PERFORMANCE.md) is read in.
    mem_ops = sum(core.mem_ops for core in result.cores)
    path = update_bench_record(
        benchmark.name,
        n_cores=chip.n_cores,
        n_ops=N_OPS,
        scalar_s=scalar_s,
        kernel_s=kernel_s,
        kernel_ns_per_mem_op=kernel_s / mem_ops * 1e9,
        speedup=speedup,
        min_speedup=MIN_SPEEDUP,
        measure_rounds=rounds,
        warm_cache={
            "sweep_points": len(cold_costs),
            "cold_sim_runs": cold_runs,
            "warm_sim_runs": warm_runs,
            "warm_cache_hits": warm_hits,
        },
    )
    print(f"\nscalar {scalar_s:.3f}s  kernel {kernel_s:.3f}s  "
          f"speedup {speedup:.2f}x  warm-cache runs {warm_runs}  -> {path}")

    assert speedup >= MIN_SPEEDUP, (
        f"epoch kernel only {speedup:.2f}x faster than the scalar loop "
        f"(floor {MIN_SPEEDUP}x); see {path}")
