"""Property-based differential wall: kernel ≡ scalar ≡ seed, always.

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
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.camat.analyzer import TraceAnalyzer
from repro.sim.cmp import CMPSimulator
from repro.sim.config import CacheConfig, NoCConfig, SimulatedChip

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
