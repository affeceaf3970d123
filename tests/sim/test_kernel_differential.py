"""Differential wall: kernel ≡ scalar, always.

The golden pin (:mod:`tests.sim.test_differential_golden`) holds both
simulator paths to fixed digests: nine hand-picked configurations and a
seeded corpus of a few hundred fuzz-style cases.  This suite closes the
gaps between them.  Hypothesis draws chips from the same menu
(:data:`tests.sim.golden_util.CHIPS`) and per-core streams from the
same generator (:func:`tests.sim.golden_util.fuzz_streams`) —
including shared writeback-heavy lines that force coherence fallbacks,
and single-entry MSHR geometries that force inline structural stalls —
and asserts that the batched epoch kernel (``use_kernel=True``) and
the scalar event loop (``use_kernel=False``) produce *identical*
observables.

Equality is exact (integer cycles, full per-access record tuples, layer
counters, APC, C-AMAT statistics), so any divergence shrinks to a
minimal stream — typically a handful of ops — that reproduces the
disagreement deterministically.

A fixed-seed design sweep pins the kernel's costs to the scalar loop's
and to a digest, and shows that each side ran the path it names.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dse.evaluate import SimulatorEvaluator
from repro.obs import get_registry
from repro.runconfig import install
from repro.sim.cmp import CMPSimulator, simulate_chip_cost
from repro.sim.config import SimulatedChip
from repro.workloads.parsec import parsec_like

from tests.sim.golden_util import CHIPS, fuzz_streams, run_streams


@st.composite
def _case(draw):
    chip = CHIPS[draw(st.integers(0, len(CHIPS) - 1))]
    return chip, fuzz_streams(chip, lambda lo, hi, size: draw(
        st.lists(st.integers(lo, hi), min_size=size, max_size=size)))


def _observables(chip, streams, use_kernel: bool):
    """Every cross-checkable output of one run on one path."""
    simulator, result = run_streams(chip, streams, use_kernel=use_kernel)
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
