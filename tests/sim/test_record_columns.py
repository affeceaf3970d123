"""The simulator's per-access records are unboxed int64 columns.

Each core writes start and miss penalty into two ``array('q')``
columns; the shared L2 and DRAM layers append ``(start, value)`` pairs
to flat ``array('q')`` buffers.  These tests pin how the columns are
read back: the per-core trace views them without a copy, every trace —
per core and per shared layer — is built only on demand, so a
cost-only run builds none, and the SMT merge keeps the order of a
stable sort by start.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import chain

import numpy as np

from repro.camat.trace import AccessTrace
from repro.sim import CMPSimulator, SimulatedChip
from repro.sim.cmp import simulate_chip_cost
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


def test_cost_only_run_builds_no_trace(monkeypatch):
    built = []
    from_arrays = AccessTrace.from_arrays.__func__

    def counting(cls, *args, **kwargs):
        built.append(len(args[0]))
        return from_arrays(cls, *args, **kwargs)

    monkeypatch.setattr(AccessTrace, "from_arrays", classmethod(counting))
    chip = replace(SimulatedChip(), n_cores=2)
    cost = simulate_chip_cost(chip, parsec_like("canneal", n_ops=1500), 3)
    assert cost > 0
    assert built == []


def test_layer_traces_are_built_once_on_read():
    result = _run()
    assert "l2_trace" not in result.__dict__
    assert "dram_trace" not in result.__dict__
    l2_trace, dram_trace = result.l2_trace, result.dram_trace
    assert result.l2_trace is l2_trace and result.dram_trace is dram_trace
    # Lengths count records, not the buffers' int items.
    assert len(l2_trace) == len(result.l2_records) // 2
    assert len(dram_trace) == len(result.dram_records) // 2
    assert set(l2_trace.hit_lengths.tolist()) == {
        result.chip.l2_slice.hit_latency}
    assert l2_trace.starts.tolist() == result.l2_records[0::2].tolist()


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
