"""The simulator's per-access records are unboxed int64 columns.

Each core writes start and miss penalty into two ``array('q')``
columns; the shared L2 and DRAM layers append ``(start, value)`` pairs
to flat ``array('q')`` buffers.  These tests pin how the columns are
read back: the per-core trace views them without a copy and is built
only on demand, a layer trace taken mid-run neither pins the growing
buffer nor goes stale, and the SMT merge keeps the order of a stable
sort by start.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import chain

import numpy as np

from repro.sim import CMPSimulator, SimulatedChip
from repro.sim.hierarchy import MemoryHierarchy
from repro.sim.smt import SMTCoreModel
from repro.workloads.parsec import parsec_like

from tests.sim.golden_util import golden_cases


def _run(n_cores=2, n_ops=1500, seed=3):
    chip = replace(SimulatedChip(), n_cores=n_cores)
    streams = parsec_like("canneal", n_ops=n_ops).streams(
        n_cores, np.random.default_rng(seed))
    return CMPSimulator(chip).run(streams)


def test_core_trace_views_the_record_columns():
    result = _run()
    for core in result.cores:
        trace = core.trace()
        assert np.shares_memory(trace.starts, np.asarray(core.starts))
        assert np.shares_memory(trace.miss_penalties,
                                np.asarray(core.penalties))
        assert trace.starts.tolist() == core.starts.tolist()
        assert set(trace.hit_lengths.tolist()) == {core.hit_latency}
        # records is derived from the same columns, as Python ints.
        assert core.records == tuple(zip(
            trace.starts.tolist(), trace.hit_lengths.tolist(),
            trace.miss_penalties.tolist()))
        assert all(type(v) is int for v in core.records[0])


def test_cost_only_run_builds_no_core_trace():
    result = _run()
    assert result.exec_cycles > 0
    assert all("_trace" not in core.__dict__ for core in result.cores)
    first = result.cores[0].trace()
    assert result.cores[0].trace() is first


def _distinct_miss_addresses(chip, count):
    # One address per L2 line, far apart: every request misses L2 and
    # goes to DRAM.
    return [(k + 1) * chip.l2_slice.line_bytes * 4099 for k in range(count)]


def test_layer_traces_taken_mid_run_refresh_without_pinning_buffers():
    chip = replace(SimulatedChip(), n_cores=2)
    hierarchy = MemoryHierarchy(chip)
    addresses = _distinct_miss_addresses(chip, 4)
    assert hierarchy.l2_trace() is None and hierarchy.dram_trace() is None
    hierarchy.service_miss(0, addresses[0], 10)
    # A one-record trace is the case where a column view of the buffer
    # would count as contiguous and be kept instead of copied.
    l2_first, dram_first = hierarchy.l2_trace(), hierarchy.dram_trace()
    assert len(l2_first) == 1 and len(dram_first) == 1
    for k, address in enumerate(addresses[1:], start=1):
        # Appending to a buffer some trace still viewed would raise
        # BufferError here.
        hierarchy.service_miss(k % 2, address, 10 + 7 * k)
    l2_trace, dram_trace = hierarchy.l2_trace(), hierarchy.dram_trace()
    assert l2_trace is not l2_first and dram_trace is not dram_first
    # Lengths count records, not the buffers' int items.
    assert len(hierarchy._l2_records) == 2 * len(addresses)
    assert len(l2_trace) == len(dram_trace) == len(addresses)
    assert l2_trace.starts[0] == l2_first.starts[0]
    assert set(l2_trace.hit_lengths.tolist()) == {chip.l2_slice.hit_latency}
    assert hierarchy.l2_trace() is l2_trace
    assert hierarchy.dram_trace() is dram_trace


def test_smt_merge_is_a_stable_sort_by_start():
    _, chip, workload, seed = next(
        case for case in golden_cases() if case[0] == "smt_fluidanimate")
    smt = chip.core.smt_threads
    streams = workload.streams(chip.n_cores * smt,
                               np.random.default_rng(seed))
    hierarchy = MemoryHierarchy(chip)
    core = SMTCoreModel(0, chip.core, chip.l1, streams[:smt])
    while not core.done:
        core.step(hierarchy)
    merged = core.result().records
    per_thread = [thread.result().records for thread in core.threads]
    expected = tuple(sorted(chain.from_iterable(per_thread),
                            key=lambda record: record[0]))
    assert merged == expected
    # Threads share start cycles, so the sort's stability is exercised.
    starts = [record[0] for record in merged]
    assert len(set(starts)) < len(starts)
    first_thread = set(record[0] for record in per_thread[0])
    assert any(record[0] in first_thread for record in per_thread[1])
