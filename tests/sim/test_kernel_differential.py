"""Differential wall: kernel ≡ scalar ≡ seed, always.

The golden digests (:mod:`tests.sim.test_differential_golden`) pin nine
hand-picked configurations; this suite closes the gaps between them.
Hypothesis draws small random chips and per-core instruction streams —
including shared writeback-heavy lines that force coherence fallbacks,
and single-entry MSHR geometries that force inline structural stalls —
and asserts that three implementations produce *identical* observables:

- the batched epoch kernel (``use_kernel=True``),
- the scalar event loop (``use_kernel=False``),
- the verbatim seed implementation preserved in
  ``benchmarks/legacy_sim.py``.

Equality is exact (integer cycles, full per-access record tuples, layer
counters, APC, C-AMAT statistics), so any divergence shrinks to a
minimal stream — typically a handful of ops — that reproduces the
disagreement deterministically.

A fixed-seed design sweep pins the kernel's costs to the scalar loop's
and to a digest, and shows that each side ran the path it names.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.camat.analyzer import TraceAnalyzer
from repro.dse.evaluate import SimulatorEvaluator
from repro.obs import get_registry
from repro.runconfig import install
from repro.sim.cmp import CMPSimulator, simulate_chip_cost
from repro.sim.config import CacheConfig, NoCConfig, SimulatedChip
from repro.workloads.parsec import parsec_like

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))

from legacy_sim import legacy_analysis, legacy_simulate  # noqa: E402

_BASE = SimulatedChip()

# A menu of valid geometries instead of free draws: every entry is a
# legal config, and together they cover the structural extremes — one
# MSHR (inline stall path), one-set caches (constant eviction), a free
# NoC (zero-latency ties), the default geometry — and partial meshes
# wider than 2x2 (10 tiles on 4x4, 17 on 5x5, with a few ops per core),
# where a wrong tile-to-coordinate mapping changes NoC latencies.
_CHIPS = [
    replace(_BASE, n_cores=2),
    replace(_BASE, n_cores=1),
    replace(_BASE, n_cores=2,
            l1=replace(_BASE.l1, size_kib=4.0, mshr_entries=1, banks=1),
            l2_slice=replace(_BASE.l2_slice, size_kib=32.0,
                             mshr_entries=1)),
    replace(_BASE, n_cores=2,
            l1=CacheConfig(size_kib=0.5, assoc=8, banks=1),
            l2_slice=replace(_BASE.l2_slice, size_kib=1.0, assoc=16)),
    replace(_BASE, n_cores=2,
            noc=NoCConfig(hop_latency=0, router_latency=0)),
    replace(_BASE, n_cores=10),
    replace(_BASE, n_cores=17, noc=NoCConfig(hop_latency=3,
                                             router_latency=2)),
]

# 48 distinct lines within a few L1 sets: small enough that streams
# collide across cores (coherence traffic) and within a core (capacity
# evictions) even at a few dozen ops.
_LINE_POOL = 48


@st.composite
def _case(draw):
    chip = _CHIPS[draw(st.integers(0, len(_CHIPS) - 1))]
    line_bytes = chip.l1.line_bytes
    streams = []
    max_ops = 48 if chip.n_cores <= 4 else 8
    for _ in range(chip.n_cores):
        n = draw(st.integers(1, max_ops))
        lines = draw(st.lists(st.integers(0, _LINE_POOL - 1),
                              min_size=n, max_size=n))
        offsets = draw(st.lists(st.integers(0, line_bytes - 1),
                                min_size=n, max_size=n))
        gaps = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
        writes = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        addresses = (np.asarray(lines, dtype=np.int64) * line_bytes
                     + np.asarray(offsets, dtype=np.int64))
        streams.append((addresses,
                        np.asarray(gaps, dtype=np.int64),
                        np.asarray(writes, dtype=bool)))
    return chip, streams


def _observables(chip, streams, use_kernel: bool):
    """Every cross-checkable output of one optimized-path run."""
    simulator = CMPSimulator(chip, use_kernel=use_kernel)
    result = simulator.run([(a.copy(), g.copy(), w.copy())
                            for a, g, w in streams])
    return {
        "exec_cycles": result.exec_cycles,
        "records": tuple(c.records for c in result.cores),
        "l1_hits": tuple(c.l1_hits for c in result.cores),
        "l1_misses": tuple(c.l1_misses for c in result.cores),
        "l1_writebacks": result.l1_writebacks,
        "invalidations": result.invalidations,
        "upgrades": result.upgrades,
        "dram_writes": result.dram_writes,
        "layer_stats": simulator.last_layer_stats,
        "layer_apc": result.layer_apc(),
        "core_stats": tuple(result.core_stats(i)
                            for i in range(chip.n_cores)),
    }


@settings(max_examples=40, deadline=None)
@given(_case())
def test_kernel_matches_scalar_loop(case):
    chip, streams = case
    assert (_observables(chip, streams, use_kernel=True)
            == _observables(chip, streams, use_kernel=False))


@settings(max_examples=40, deadline=None)
@given(_case())
def test_kernel_matches_seed_implementation(case):
    chip, streams = case
    ours = _observables(chip, streams, use_kernel=True)
    bundle = legacy_simulate(
        chip, [(a.copy(), g.copy(), w.copy()) for a, g, w in streams])
    legacy = legacy_analysis(bundle)

    assert ours["exec_cycles"] == bundle["exec_cycles"]
    for records, legacy_core in zip(ours["records"], bundle["cores"]):
        assert records == tuple(legacy_core._records)
    assert ours["l1_hits"] == tuple(
        c.l1.hits for c in bundle["cores"])
    assert ours["l1_misses"] == tuple(
        c.l1.misses for c in bundle["cores"])
    assert ours["layer_apc"] == legacy["layer_apc"]
    assert ours["core_stats"] == tuple(legacy["core_stats"])


@settings(max_examples=20, deadline=None)
@given(_case())
def test_analyzer_matches_seed_on_fuzzed_traces(case):
    """The event-sweep analyzer agrees with the seed per-core analysis.

    ``legacy_analysis`` re-built every trace from per-access objects and
    re-analyzed from scratch; the optimized path memoizes columnar
    traces.  Statistics must nonetheless match field-for-field on
    arbitrary fuzzed traces, not just the golden ones.
    """
    chip, streams = case
    result = CMPSimulator(chip, use_kernel=True).run(
        [(a.copy(), g.copy(), w.copy()) for a, g, w in streams])
    analyzer = TraceAnalyzer()
    for core_id in range(chip.n_cores):
        assert (result.core_stats(core_id)
                == analyzer.analyze(result.core_trace(core_id)))


# n=1/2 cover the issue-width x ROB grid; n=10 (a partial 4x4 mesh)
# and n=64 (a few dozen ops per core, mostly untouched cache sets) run
# the NoC arithmetic and first-touch tag rows of many-core chips.
_SWEEP = [{"n": n, "issue_width": iw, "rob_size": rob,
           "l1_kib": 16.0, "l2_kib": 128.0}
          for n in (1, 2)
          for iw in (2, 4)
          for rob in (32, 64)] + [
    {"n": n, "issue_width": 4, "rob_size": 64,
     "l1_kib": 16.0, "l2_kib": 128.0}
    for n in (10, 64)]
_SWEEP_SEED = 2024


def _kernel_ops_during(run):
    """``run()``'s result and the epoch-kernel ops it stepped."""
    ops = get_registry().counter("sim.kernel.ops")
    before = ops.value
    result = run()
    return result, ops.value - before


def test_fixed_sweep_kernel_matches_scalar_and_digest():
    workload = parsec_like("fluidanimate", n_ops=1_500)
    evaluator = SimulatorEvaluator(
        workload, seed=_SWEEP_SEED,
        base_chip=replace(SimulatedChip(), n_cores=2), cache=None)
    chips = [evaluator.chip_for(config) for config in _SWEEP]

    kernel, kernel_ops = _kernel_ops_during(lambda: np.asarray(
        [evaluator.evaluate(config) for config in _SWEEP]))

    def scalar_costs():
        costs = []
        for chip in chips:
            streams = workload.streams(
                chip.n_cores, np.random.default_rng(_SWEEP_SEED))
            result = CMPSimulator(chip, use_kernel=False).run(streams)
            costs.append(result.exec_cycles / result.total_instructions)
        return np.asarray(costs)

    scalar, scalar_ops = _kernel_ops_during(scalar_costs)

    assert np.array_equal(kernel, scalar)
    assert hashlib.sha256(kernel.tobytes()).hexdigest()[:16] == (
        "72fce8034e5bf196")
    assert kernel_ops > 0
    assert scalar_ops == 0


def test_environment_does_not_pick_the_path(monkeypatch):
    # The variable used to force the scalar loop; no setting does now.
    monkeypatch.setenv("C2BOUND_SIM_KERNEL", "0")
    previous = install(None)
    try:
        chip = replace(SimulatedChip(), n_cores=2)
        _, ops = _kernel_ops_during(lambda: simulate_chip_cost(
            chip, parsec_like("fluidanimate", n_ops=200), _SWEEP_SEED))
    finally:
        install(previous)
    assert ops > 0
