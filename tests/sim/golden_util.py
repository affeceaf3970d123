"""Golden digests and the seeded corpus that pin the simulator's semantics.

The simulator has two live paths: the batched epoch kernel
(:mod:`repro.sim.kernel`) and the scalar event loop
(``CMPSimulator(chip, use_kernel=False)``), the reference the kernel is
held to.  ``tests/data/sim_golden.json`` pins what both must produce,
so neither can drift with the other:

- ``cases`` — nine hand-picked configurations (:func:`golden_cases`),
  each a readable digest of every observable output: per-core records,
  exec cycles, counters, per-layer traces, per-layer statistics, layer
  APC and C-AMAT statistics;
- ``corpus`` — one hash of that same digest for each of a few hundred
  seeded fuzz-style cases over the chip menu :data:`CHIPS` plus the
  prefetching chips (:func:`corpus_cases`), and the hot-path bench's
  reference run.  The corpus was checked case by case against the
  frozen seed simulator before that copy was retired, so it records the
  seed semantics as data.

:mod:`tests.sim.test_differential_golden` runs every entry on both
paths.  The file records the
:data:`repro.sim.cache_store.SIM_MODEL_VERSION` it was generated under;
:func:`main` refuses to regenerate when any existing digest or corpus
hash changes without a version bump, so the pin cannot be silently
rewritten.  Regenerate (only after an intentional semantic change,
alongside a bump of ``SIM_MODEL_VERSION``) with::

    PYTHONPATH=src:tests python tests/sim/golden_util.py

Digest canonicalization: every hash goes through :func:`_sha`, which
serializes with ``sort_keys=True`` — layer-stat dicts are assembled by
unordered accumulation, so hashing them in insertion order would make
the digest depend on dict iteration history rather than content
(pinned by ``tests/sim/test_golden_guard.py``).
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.sim.cache_store import SIM_MODEL_VERSION
from repro.sim.cmp import CMPSimulator, simulate_chip_cost
from repro.sim.config import (CacheConfig, CoreMicroConfig, NoCConfig,
                              SimulatedChip)
from repro.workloads.gups import GUPS
from repro.workloads.matmul import TiledMatMul
from repro.workloads.parsec import parsec_like

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "data" / "sim_golden.json"

GOLDEN_SCHEMA = "c2bound.sim-golden/3"

_BASE = SimulatedChip()

# A menu of valid geometries instead of free draws: every entry is a
# legal config, and together they cover the structural extremes — one
# MSHR (inline stall path), one-set caches (constant eviction), a free
# NoC (zero-latency ties), the default geometry — and partial meshes
# wider than 2x2 (10 tiles on 4x4, 17 on 5x5, with a few ops per core),
# where a wrong tile-to-coordinate mapping changes NoC latencies.
CHIPS = [
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

# Prefetching chips bypass the epoch kernel wholesale (see
# ``kernel_eligible``), so a kernel-vs-scalar fuzz draw on them compares
# the scalar loop with itself; only the corpus pins what they compute.
PREFETCH_CHIPS = [
    replace(_BASE, n_cores=2,
            l1=replace(_BASE.l1, prefetch="stride", prefetch_degree=2)),
    replace(_BASE, n_cores=2, l1=replace(_BASE.l1, prefetch="nextline")),
]

# 48 distinct lines within a few L1 sets: small enough that streams
# collide across cores (coherence traffic) and within a core (capacity
# evictions) even at a few dozen ops.  Each access also draws one of
# two pages, one DRAM row apart in the same bank: the pool itself fits
# in one row, so without the second page DRAM would never see a row
# conflict.
LINE_POOL = 48

CORPUS_SEED = 2026
CORPUS_FUZZ_CASES = 300


def fuzz_streams(chip, draw_ints) -> "list[tuple]":
    """Per-core ``(addresses, gaps, writes)`` streams over a small line pool.

    ``draw_ints(lo, hi, size)`` returns ``size`` ints in ``[lo, hi]``:
    Hypothesis strategies draw them in the fuzz suite, a seeded NumPy
    generator in the corpus.  Wide chips get a few ops per core, so a
    case stays small whatever the core count.
    """
    line_bytes = chip.l1.line_bytes
    page_bytes = chip.dram.row_bytes * chip.dram.banks
    max_ops = 48 if chip.n_cores <= 4 else 8
    streams = []
    for _ in range(chip.n_cores):
        (n,) = draw_ints(1, max_ops, 1)
        lines = draw_ints(0, LINE_POOL - 1, n)
        offsets = draw_ints(0, line_bytes - 1, n)
        pages = draw_ints(0, 1, n)
        gaps = draw_ints(0, 5, n)
        writes = draw_ints(0, 1, n)
        addresses = (np.asarray(pages, dtype=np.int64) * page_bytes
                     + np.asarray(lines, dtype=np.int64) * line_bytes
                     + np.asarray(offsets, dtype=np.int64))
        streams.append((addresses,
                        np.asarray(gaps, dtype=np.int64),
                        np.asarray(writes, dtype=bool)))
    return streams


def corpus_cases() -> "list[tuple[str, object, list]]":
    """The seeded (name, chip, streams) corpus.

    Case ``i`` takes chip ``i`` of the menu (round robin over
    :data:`CHIPS` and :data:`PREFETCH_CHIPS`) and draws its streams from
    its own generator, ``default_rng([CORPUS_SEED, i])``, so a case
    never depends on the cases drawn before it.  The last case is the
    hot-path bench's reference run: 4-core fluidanimate, 60k memory
    operations over the four cores, seed 1234.
    """
    menu = CHIPS + PREFETCH_CHIPS
    cases = []
    for i in range(CORPUS_FUZZ_CASES):
        rng = np.random.default_rng([CORPUS_SEED, i])
        chip = menu[i % len(menu)]
        streams = fuzz_streams(
            chip, lambda lo, hi, size: rng.integers(
                lo, hi + 1, size=size).tolist())
        cases.append((f"fuzz_{i:03d}", chip, streams))
    chip = replace(_BASE, n_cores=4)
    cases.append(("hotpath_fluidanimate_60k", chip,
                  parsec_like("fluidanimate", n_ops=60_000).streams(
                      chip.n_cores, np.random.default_rng(1234))))
    return cases


def golden_cases() -> "list[tuple[str, object, object, int]]":
    """The seeded (name, chip, workload, seed) differential test matrix.

    Small enough to run in a few seconds, broad enough to cover every
    event-loop mechanism: coherent writes, SMT, prefetching, MSHR
    starvation, the default configuration — plus the degenerate
    geometries (single core, one MSHR, one-set caches, a free NoC)
    where off-by-one bugs in a rewritten inner loop would hide.
    """
    base = _BASE
    return [
        ("default_fluidanimate",
         replace(base, n_cores=4),
         parsec_like("fluidanimate", n_ops=4000), 7),
        ("writes_coherent_matmul",
         replace(base, n_cores=2),
         TiledMatMul(n=24, tile=6), 11),
        ("smt_fluidanimate",
         replace(base, n_cores=2,
                 core=CoreMicroConfig(issue_width=4, rob_size=64,
                                      smt_threads=2)),
         parsec_like("fluidanimate", n_ops=2000), 13),
        ("prefetch_stream",
         replace(base, n_cores=2,
                 l1=replace(base.l1, prefetch="stride", prefetch_degree=2)),
         parsec_like("streamcluster", n_ops=3000), 17),
        ("mshr_starved_gups",
         replace(base, n_cores=2,
                 l1=replace(base.l1, size_kib=4.0, mshr_entries=2, banks=1),
                 l2_slice=replace(base.l2_slice, size_kib=32.0,
                                  mshr_entries=2)),
         GUPS(updates=3000, table_kib=4096.0), 19),
        # ----- edge-case geometries (added with the epoch kernel) ------
        ("single_core_canneal",
         replace(base, n_cores=1),
         parsec_like("canneal", n_ops=2500), 23),
        ("blocking_mshr1",
         replace(base, n_cores=2,
                 l1=replace(base.l1, mshr_entries=1),
                 l2_slice=replace(base.l2_slice, mshr_entries=1)),
         parsec_like("streamcluster", n_ops=2000), 29),
        ("one_set_caches",
         replace(base, n_cores=2,
                 l1=CacheConfig(size_kib=0.5, assoc=8, banks=1),
                 l2_slice=replace(base.l2_slice, size_kib=1.0, assoc=16)),
         GUPS(updates=1500, table_kib=256.0), 31),
        ("zero_latency_noc",
         replace(base, n_cores=4,
                 noc=NoCConfig(hop_latency=0, router_latency=0)),
         parsec_like("fluidanimate", n_ops=2000), 37),
    ]


def _sha(obj) -> str:
    """Canonical content hash: key order never leaks into the digest."""
    return hashlib.sha256(json.dumps(
        obj, separators=(",", ":"), sort_keys=True).encode()).hexdigest()


def _trace_digest(trace) -> "dict | None":
    if trace is None:
        return None
    return {
        "len": len(trace),
        "sha": _sha([trace.starts.tolist(), trace.hit_lengths.tolist(),
                     trace.miss_penalties.tolist()]),
        "first_cycle": int(trace.first_cycle),
        "last_cycle": int(trace.last_cycle),
    }


def _stats_digest(stats) -> dict:
    return {
        "accesses": stats.accesses,
        "misses": stats.misses,
        "pure_misses": stats.pure_misses,
        "total_hit_access_cycles": stats.total_hit_access_cycles,
        "total_miss_penalty_cycles": stats.total_miss_penalty_cycles,
        "total_pure_miss_access_cycles": stats.total_pure_miss_access_cycles,
        "hit_active_wall_cycles": stats.hit_active_wall_cycles,
        "pure_miss_wall_cycles": stats.pure_miss_wall_cycles,
        "memory_active_wall_cycles": stats.memory_active_wall_cycles,
        "span_cycles": stats.span_cycles,
        "camat": repr(stats.camat),
        "amat": repr(stats.amat),
    }


def result_digest(result, cost: float, hierarchy_stats: dict) -> dict:
    """Every observable output of one simulation, as a JSON-able dict."""
    apc = result.layer_apc()
    return {
        "exec_cycles": int(result.exec_cycles),
        "total_instructions": int(result.total_instructions),
        "ipc": repr(result.ipc),
        "cost": repr(cost),
        "l1_writebacks": int(result.l1_writebacks),
        "invalidations": int(result.invalidations),
        "upgrades": int(result.upgrades),
        "dram_writes": int(result.dram_writes),
        "layer_stats_sha": _sha({k: repr(float(v))
                                 for k, v in hierarchy_stats.items()}),
        "cores": [{
            "instructions": c.instructions,
            "mem_ops": c.mem_ops,
            "finish_cycle": c.finish_cycle,
            "l1_hits": c.l1_hits,
            "l1_misses": c.l1_misses,
            "prefetches_issued": c.prefetches_issued,
            "prefetches_useful": c.prefetches_useful,
            "records_sha": _sha([list(r) for r in c.records]),
        } for c in result.cores],
        "l2_trace": _trace_digest(result.l2_trace),
        "dram_trace": _trace_digest(result.dram_trace),
        "layer_apc": {
            layer: {"accesses": m.accesses,
                    "active_cycles": m.active_cycles,
                    "apc": repr(m.apc)}
            for layer, m in (("l1", apc.l1), ("llc", apc.llc),
                             ("dram", apc.dram))
        },
        "core0_stats": _stats_digest(result.core_stats(0)),
    }


def _cost(result) -> float:
    """Cycles per instruction, as ``simulate_chip_cost`` computes it."""
    instructions = result.total_instructions
    if instructions == 0:
        return float("inf")
    return result.exec_cycles / instructions


def run_case(chip, workload, seed: int, *, use_kernel: bool = True) -> dict:
    """Simulate one golden case and digest it."""
    rng = np.random.default_rng(seed)
    smt = chip.core.smt_threads
    simulator = CMPSimulator(chip, use_kernel=use_kernel)
    result = simulator.run(workload.streams(chip.n_cores * smt, rng))
    # simulate_chip_cost draws one stream per core (smt=1 chips only)
    # and runs the kernel; the scalar side costs its own identical run.
    if smt > 1:
        cost = float("nan")
    elif use_kernel:
        cost = simulate_chip_cost(chip, workload, seed)
    else:
        cost = _cost(result)
    return result_digest(result, cost, simulator.last_layer_stats)


def run_streams(chip, streams, *, use_kernel: bool = True):
    """Simulate fresh copies of ``streams``; the simulator and result."""
    simulator = CMPSimulator(chip, use_kernel=use_kernel)
    result = simulator.run([(a.copy(), g.copy(), w.copy())
                            for a, g, w in streams])
    return simulator, result


def corpus_hash(simulator, result) -> str:
    """One corpus case's pin: the hash of its full :func:`result_digest`."""
    return _sha(result_digest(result, _cost(result),
                              simulator.last_layer_stats))


def load_golden() -> dict:
    """Parse the golden file (schema v3: versioned cases and corpus)."""
    with open(GOLDEN_PATH) as handle:
        data = json.load(handle)
    if "cases" not in data:
        raise ValueError(f"{GOLDEN_PATH} is not a {GOLDEN_SCHEMA} file")
    return data


def generate() -> dict:
    """Digest every golden case and hash every corpus case."""
    cases = {name: run_case(chip, workload, seed)
             for name, chip, workload, seed in golden_cases()}
    corpus = {name: corpus_hash(*run_streams(chip, streams))
              for name, chip, streams in corpus_cases()}
    return {"schema": GOLDEN_SCHEMA,
            "sim_model_version": SIM_MODEL_VERSION,
            "cases": cases,
            "corpus": corpus}


def regeneration_error(old: dict, new: dict) -> "str | None":
    """Why regenerating ``old`` -> ``new`` must be refused (None if OK).

    Changed digests or corpus hashes are only acceptable together with
    a ``SIM_MODEL_VERSION`` bump: the version is folded into every
    persistent sim-cache key, so silently regenerating the pin would
    let stale cached costs coexist with new semantics.  New cases, new
    corpus entries and new digest fields may be added freely.
    """
    if old.get("sim_model_version") != new["sim_model_version"]:
        return None
    bump = ("but SIM_MODEL_VERSION did not: bump "
            "repro.sim.cache_store.SIM_MODEL_VERSION "
            "before regenerating the golden pin")
    for name, digest in old.get("cases", {}).items():
        reference = new["cases"].get(name)
        if reference is None:
            continue
        for key, value in digest.items():
            if key in reference and reference[key] != value:
                return f"case {name!r} field {key!r} changed {bump}"
    for name, value in old.get("corpus", {}).items():
        if new.get("corpus", {}).get(name, value) != value:
            return f"corpus case {name!r} changed {bump}"
    return None


def main(argv: "list[str] | None" = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    force = "--force" in args
    new = generate()
    if GOLDEN_PATH.exists() and not force:
        try:
            old = load_golden()
        except ValueError:
            old = {}
        error = regeneration_error(old, new)
        if error is not None:
            print(f"refusing to regenerate: {error}", file=sys.stderr)
            return 2
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(new['cases'])} cases, "
          f"{len(new['corpus'])} corpus cases, "
          f"model {new['sim_model_version']})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
