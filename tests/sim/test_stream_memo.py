"""The per-process stream memo behind ``simulate_chip_cost``.

Streams depend only on the workload, the core count and the seed, so
the points of a search share one draw.  These tests pin that sharing
changes no cost, that a shared draw cannot be written, that the memo
stays bounded, and that draws which differ in any input never share an
entry.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

import repro.sim.cmp as cmp
from repro.sim import CMPSimulator, SimulatedChip
from repro.sim.cmp import StreamMemo, simulate_chip_cost
from repro.sim.config import CoreMicroConfig
from repro.workloads.parsec import parsec_like


def _fresh_cost(chip, workload, seed):
    streams = workload.streams(chip.n_cores, np.random.default_rng(seed))
    result = CMPSimulator(chip).run(streams)
    return result.exec_cycles / result.total_instructions


def _assert_same_streams(got, fresh):
    assert len(got) == len(fresh)
    for got_stream, fresh_stream in zip(got, fresh):
        assert len(got_stream) == len(fresh_stream)
        for a, b in zip(got_stream, fresh_stream):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)


def test_memoized_costs_equal_fresh_streams(monkeypatch):
    memo = StreamMemo(entries=4)
    monkeypatch.setattr(cmp, "_STREAMS", memo)
    workload = parsec_like("canneal", n_ops=1500)
    base = replace(SimulatedChip(), n_cores=4)
    chips = [replace(base, core=CoreMicroConfig(issue_width=w, rob_size=r))
             for w, r in [(1, 16), (2, 64), (4, 128), (8, 512)]]
    for chip in chips + chips[::-1]:
        assert simulate_chip_cost(chip, workload, 3) == \
            _fresh_cost(chip, workload, 3)
    # Eight points over one core count, workload and seed: one draw.
    assert len(memo) == 1


def test_memoized_arrays_are_read_only():
    memo = StreamMemo(entries=2)
    streams = memo.streams(parsec_like("canneal", n_ops=600), 2, 1)
    for stream in streams:
        for column in stream:
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = column[0]


def test_memo_evicts_least_recently_used_past_its_bound():
    memo = StreamMemo(entries=2)
    workload = parsec_like("canneal", n_ops=600)
    first = memo.streams(workload, 2, 1)
    memo.streams(workload, 2, 2)
    assert memo.streams(workload, 2, 1) is first   # hit, now most recent
    memo.streams(workload, 2, 3)                    # evicts seed 2
    assert len(memo) == 2
    assert memo.streams(workload, 2, 1) is first
    again = memo.streams(workload, 2, 2)            # drawn anew
    assert len(memo) == 2
    _assert_same_streams(
        again, workload.streams(2, np.random.default_rng(2)))


def test_differing_inputs_never_share_an_entry():
    memo = StreamMemo(entries=8)
    one = parsec_like("canneal", n_ops=600)
    other = parsec_like("canneal", n_ops=601)   # one field apart
    draws = {}
    for name, workload in [("one", one), ("other", other)]:
        for seed in (1, 2):
            draws[name, seed] = memo.streams(workload, 2, seed)
            _assert_same_streams(
                draws[name, seed],
                workload.streams(2, np.random.default_rng(seed)))
    draws["one", 1, 3] = memo.streams(one, 3, 1)
    assert len(memo) == 5
    assert len({id(d) for d in draws.values()}) == 5


def test_threads_share_one_bounded_memo():
    memo = StreamMemo(entries=3)
    workload = parsec_like("canneal", n_ops=300)
    fresh = {n: workload.streams(n, np.random.default_rng(5))
             for n in range(1, 7)}
    errors: "list[BaseException]" = []

    def worker(offset: int) -> None:
        try:
            for i in range(30):
                n = (i + offset) % 6 + 1
                _assert_same_streams(memo.streams(workload, n, 5), fresh[n])
                assert len(memo) <= 3
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(memo) == 3
