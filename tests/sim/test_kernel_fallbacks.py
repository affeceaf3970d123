"""Structural-event coverage: every kernel seam is exercised on purpose.

The epoch kernel fast-paths the common ops and leaves three structural
mechanisms, each pinned here with a workload built to trigger it:

- **Coherence fallbacks** — a write that must invalidate remote sharers
  drops to scalar ``CoreModel.advance`` for that one op
  (``sim.kernel.fallbacks``).  Two cores ping-ponging writes over the
  same lines force many of them.
- **MSHR saturation** — a full MSHR file is handled *inline* (the
  scalar ``earliest_free_time`` stall, reproduced inside the kernel
  loop): a single-entry MSHR under a miss storm must rack up
  ``stall_events`` with *zero* fallbacks.
- **Whole-run bypasses** — SMT and prefetch configurations are
  structurally ineligible and run the scalar loop wholesale
  (``sim.kernel.bypass_runs``).

These are the only places the scalar loop still runs on its own; an
explicit ``CMPSimulator(chip, use_kernel=False)`` runs it as the
reference.  Each scenario re-asserts kernel/scalar equality against
that reference, so the seams stay bit-exact where they are stressed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs import get_registry
from repro.sim.cmp import CMPSimulator
from repro.sim.config import CoreMicroConfig, SimulatedChip
from repro.sim.kernel import kernel_eligible

from dataclasses import replace


def _run(chip, streams, use_kernel):
    registry = get_registry()
    registry.reset()
    result = CMPSimulator(chip, use_kernel=use_kernel).run(
        [tuple(col.copy() for col in s) for s in streams])
    counters = {name: registry.counter(name).value
                for name in ("sim.kernel.ops", "sim.kernel.fallbacks",
                             "sim.kernel.epochs", "sim.kernel.bypass_runs",
                             "sim.l1.mshr_stall_events")}
    return result, counters


def _assert_identical(chip, streams):
    """Kernel and scalar runs agree on every observable; returns both."""
    kernel_result, kernel_counters = _run(chip, streams, use_kernel=True)
    scalar_result, scalar_counters = _run(chip, streams, use_kernel=False)
    assert kernel_result.exec_cycles == scalar_result.exec_cycles
    for kernel_core, scalar_core in zip(kernel_result.cores,
                                        scalar_result.cores):
        assert kernel_core.records == scalar_core.records
        assert kernel_core.l1_hits == scalar_core.l1_hits
        assert kernel_core.l1_misses == scalar_core.l1_misses
    assert kernel_result.l1_writebacks == scalar_result.l1_writebacks
    assert kernel_result.invalidations == scalar_result.invalidations
    assert kernel_result.upgrades == scalar_result.upgrades
    assert kernel_result.layer_apc() == scalar_result.layer_apc()
    # The scalar run publishes no kernel.* telemetry at all.
    assert scalar_counters["sim.kernel.ops"] == 0
    assert scalar_counters["sim.kernel.fallbacks"] == 0
    return kernel_result, kernel_counters, scalar_counters


def _streams_from_lines(chip, per_core_lines, *, writes=None, gap=2):
    line_bytes = chip.l1.line_bytes
    streams = []
    for core_id, lines in enumerate(per_core_lines):
        addresses = np.asarray(lines, dtype=np.int64) * line_bytes
        gaps = np.full(len(lines), gap, dtype=np.int64)
        mask = (np.asarray(writes[core_id], dtype=bool)
                if writes is not None
                else np.zeros(len(lines), dtype=bool))
        streams.append((addresses, gaps, mask))
    return streams


def test_coherence_writes_force_fallbacks():
    """Ping-ponged writes over shared lines drop to the scalar path."""
    chip = replace(SimulatedChip(), n_cores=2)
    # Both cores write the same 8 lines over and over: every write hits
    # a line the other core shares, so each must invalidate remotely.
    lines = list(range(8)) * 12
    streams = _streams_from_lines(
        chip, [lines, lines],
        writes=[[True] * len(lines)] * 2)
    result, counters, _ = _assert_identical(chip, streams)
    assert counters["sim.kernel.fallbacks"] > 0
    assert result.invalidations > 0
    assert counters["sim.kernel.bypass_runs"] == 0
    # Fast-path ops + fallbacks account for every memory op.
    total_ops = sum(c.mem_ops for c in result.cores)
    assert (counters["sim.kernel.ops"]
            + counters["sim.kernel.fallbacks"]) == total_ops


def test_mshr_saturation_is_inline_not_a_fallback():
    """A single-entry MSHR under a miss storm stalls without falling back."""
    chip = replace(
        SimulatedChip(), n_cores=1,
        l1=replace(SimulatedChip().l1, size_kib=4.0, mshr_entries=1,
                   banks=1))
    # Read-only strided sweep over far more lines than the L1 holds:
    # every access is a primary miss, and back-to-back misses contend
    # for the one MSHR entry.  No writes and a single core means no
    # coherence event can occur.
    lines = [i * 3 for i in range(300)]
    streams = _streams_from_lines(chip, [lines], gap=0)
    result, counters, scalar_counters = _assert_identical(chip, streams)
    assert counters["sim.l1.mshr_stall_events"] > 0
    assert counters["sim.kernel.fallbacks"] == 0
    assert counters["sim.kernel.ops"] == sum(
        c.mem_ops for c in result.cores)
    # The inline stall reproduces the scalar count exactly.
    assert (counters["sim.l1.mshr_stall_events"]
            == scalar_counters["sim.l1.mshr_stall_events"])


@pytest.mark.parametrize("variant", ["smt", "prefetch"])
def test_ineligible_configs_bypass_wholesale(variant):
    base = SimulatedChip()
    if variant == "smt":
        chip = replace(base, n_cores=1,
                       core=CoreMicroConfig(issue_width=2, rob_size=32,
                                            smt_threads=2))
        n_streams = 2
    else:
        chip = replace(base, n_cores=1,
                       l1=replace(base.l1, prefetch="stride",
                                  prefetch_degree=2))
        n_streams = 1
    assert not kernel_eligible(chip)
    rng = np.random.default_rng(5)
    streams = [(rng.integers(0, 1 << 14, 200).astype(np.int64),
                rng.integers(0, 4, 200).astype(np.int64),
                np.zeros(200, dtype=bool))
               for _ in range(n_streams)]
    # Kernel requested but structurally impossible: the run is counted
    # as a bypass and publishes no per-op kernel telemetry.
    result, counters = _run(chip, streams, use_kernel=True)
    assert counters["sim.kernel.bypass_runs"] == 1
    assert counters["sim.kernel.ops"] == 0
    assert counters["sim.kernel.epochs"] == 0
    assert counters["sim.kernel.fallbacks"] == 0
    # And the bypassed run still equals the explicit scalar run.
    scalar_result, scalar_counters = _run(chip, streams, use_kernel=False)
    assert scalar_counters["sim.kernel.bypass_runs"] == 0
    assert result.exec_cycles == scalar_result.exec_cycles
    for a, b in zip(result.cores, scalar_result.cores):
        assert a.records == b.records


def test_clean_run_has_zero_fallbacks():
    """A read-only, non-shared workload never leaves the fast path."""
    chip = replace(SimulatedChip(), n_cores=2)
    # Disjoint line ranges per core: no sharing, no writes, big L1
    # headroom — the kernel should process every op inline.
    streams = _streams_from_lines(
        chip, [[i % 16 for i in range(200)],
               [100 + (i % 16) for i in range(200)]])
    result, counters, _ = _assert_identical(chip, streams)
    assert counters["sim.kernel.fallbacks"] == 0
    assert counters["sim.kernel.epochs"] > 0
    assert counters["sim.kernel.ops"] == sum(
        c.mem_ops for c in result.cores)
