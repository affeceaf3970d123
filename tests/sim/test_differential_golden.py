"""Differential tests: both simulator paths reproduce the pinned semantics.

``tests/data/sim_golden.json`` pins every observable output (per-core
records, exec cycles, coherence counters, per-layer traces, per-layer
statistics, layer APC, C-AMAT statistics and ``simulate_chip_cost``)
of the seed simulator twice over: as readable digests of nine
hand-picked cases, and as one hash per case of a seeded corpus of a few
hundred fuzz-style runs plus the hot-path bench's reference run.  The
epoch kernel (:mod:`repro.sim.kernel`) and the scalar event loop
(``use_kernel=False``) must each reproduce every entry exactly, so a
semantic change made in both paths alike still fails here.

The corpus is only as strong as what it exercises, so
:func:`test_corpus_exercises_every_mechanism` requires it to reach
coherence invalidations and upgrades, MSHR stalls, DRAM writes and row
conflicts, useful prefetches and per-op kernel fallbacks; a regenerated
corpus cannot drift quietly to trivial cases.

See :mod:`tests.sim.golden_util` for the case matrix, the corpus and
regeneration instructions (guarded: digests cannot change without a
``SIM_MODEL_VERSION`` bump).
"""

from __future__ import annotations

import pytest

from repro.obs import get_registry

from tests.sim.golden_util import (GOLDEN_SCHEMA, corpus_cases, corpus_hash,
                                   golden_cases, load_golden, run_case,
                                   run_streams)

_CASES = golden_cases()

_PATHS = {"kernel": True, "scalar": False}


@pytest.fixture(scope="module")
def golden() -> dict:
    return load_golden()


def test_golden_file_schema(golden):
    assert golden["schema"] == GOLDEN_SCHEMA
    assert golden["sim_model_version"]


def test_golden_file_covers_all_cases(golden):
    assert sorted(golden["cases"]) == sorted(name for name, *_ in _CASES)
    assert sorted(golden["corpus"]) == sorted(
        name for name, *_ in corpus_cases())


@pytest.mark.parametrize("use_kernel", [True, False],
                         ids=["kernel", "scalar"])
@pytest.mark.parametrize(
    "name,chip,workload,seed", _CASES, ids=[c[0] for c in _CASES])
def test_bit_identical_to_seed_implementation(golden, name, chip,
                                              workload, seed, use_kernel):
    digest = run_case(chip, workload, seed, use_kernel=use_kernel)
    reference = golden["cases"][name]
    # Compare field-by-field for a readable failure before the full
    # equality (which guards any keys the loop might miss).
    for key in reference:
        assert digest[key] == reference[key], f"{name}: {key} diverged"
    assert digest == reference


@pytest.fixture(scope="module")
def corpus_runs() -> dict:
    """Each path's corpus hashes and the mechanism totals of its runs."""
    registry = get_registry()
    runs = {}
    for path, use_kernel in _PATHS.items():
        fallbacks = registry.counter("sim.kernel.fallbacks")
        ops = registry.counter("sim.kernel.ops")
        before = fallbacks.value, ops.value
        hashes = {}
        totals = dict.fromkeys(
            ("invalidations", "upgrades", "mshr_stall_events",
             "dram_writes", "dram_row_conflicts", "prefetches_useful"), 0)
        for name, chip, streams in corpus_cases():
            simulator, result = run_streams(chip, streams,
                                            use_kernel=use_kernel)
            hashes[name] = corpus_hash(simulator, result)
            stats = simulator.last_layer_stats
            totals["invalidations"] += result.invalidations
            totals["upgrades"] += result.upgrades
            totals["mshr_stall_events"] += (stats["l1.mshr_stall_events"]
                                            + stats["l2.mshr_stall_events"])
            totals["dram_writes"] += result.dram_writes
            totals["dram_row_conflicts"] += stats["dram.row_conflicts"]
            totals["prefetches_useful"] += sum(
                core.prefetches_useful for core in result.cores)
        totals["kernel_fallbacks"] = fallbacks.value - before[0]
        totals["kernel_ops"] = ops.value - before[1]
        runs[path] = hashes, totals
    return runs


@pytest.mark.parametrize("path", list(_PATHS))
def test_corpus_matches_golden(golden, corpus_runs, path):
    hashes, _ = corpus_runs[path]
    diverged = sorted(name for name, value in golden["corpus"].items()
                      if hashes.get(name) != value)
    assert not diverged, f"{path}: {len(diverged)} corpus cases diverged: " \
                         f"{diverged[:10]}"


def test_corpus_exercises_every_mechanism(corpus_runs):
    _, kernel = corpus_runs["kernel"]
    _, scalar = corpus_runs["scalar"]
    for totals in (kernel, scalar):
        for mechanism in ("invalidations", "upgrades", "mshr_stall_events",
                          "dram_writes", "dram_row_conflicts",
                          "prefetches_useful"):
            assert totals[mechanism] > 0, mechanism
    # The kernel side ran the kernel and left it for the scalar step at
    # least once; the scalar side never entered it.
    assert kernel["kernel_ops"] > 0 and kernel["kernel_fallbacks"] > 0
    assert scalar["kernel_ops"] == 0 and scalar["kernel_fallbacks"] == 0
