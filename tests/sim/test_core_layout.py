"""``CoreModel`` has a fixed layout and builds its ROB deque on use.

A 256-core chip builds 256 cores per run, so per-core overhead is paid
on every design point: the cores carry no ``__dict__``, a core the
epoch kernel drains alone never creates its ``_outstanding`` deque,
and only an L1 with a prefetcher gets a prefetched-line set.  The
fallback seams must still hand the scalar path exactly the deque it
would have built itself.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.sim import CMPSimulator, SimulatedChip
from repro.sim.core import CoreModel
from repro.sim.hierarchy import MemoryHierarchy
from repro.sim.kernel import run_epoch_kernel
from repro.workloads.parsec import parsec_like

from tests.sim.test_kernel_fallbacks import _streams_from_lines


def _kernel_run(chip, streams):
    hierarchy = MemoryHierarchy(chip)
    cores = [CoreModel(i, chip.core, chip.l1, *stream)
             for i, stream in enumerate(streams)]
    hierarchy.register_l1s([core.l1 for core in cores])
    return cores, run_epoch_kernel(cores, hierarchy)


def _ping_pong(chip):
    lines = list(range(8)) * 12
    return _streams_from_lines(chip, [lines, lines],
                               writes=[[True] * len(lines)] * 2)


def test_core_has_no_instance_dict():
    chip = SimulatedChip()
    core = CoreModel(0, chip.core, chip.l1, np.arange(4) * 64,
                     np.ones(4, np.int64))
    assert not hasattr(core, "__dict__")
    assert core._outstanding is None
    assert not hasattr(core, "_prefetched_lines")
    # The lazily boxed columns still box on first read, once.
    assert core._addr_list == [0, 64, 128, 192]
    assert core._addr_list is core._addr_list
    assert core._instr_list == [1, 3, 5, 7]
    assert core._write_list == [False] * 4


def test_prefetching_core_gets_a_prefetched_line_set():
    chip = SimulatedChip()
    l1 = replace(chip.l1, prefetch="nextline")
    core = CoreModel(0, chip.core, l1, np.arange(4) * 64,
                     np.ones(4, np.int64))
    assert core._prefetched_lines == set()


def test_kernel_run_without_fallbacks_creates_no_deque():
    chip = replace(SimulatedChip(), n_cores=4)
    streams = parsec_like("fluidanimate", n_ops=2000).streams(
        4, np.random.default_rng(1))
    cores, stats = _kernel_run(chip, streams)
    assert stats.fallbacks == 0
    assert stats.ops == sum(core._n_ops for core in cores) > 0
    assert all(core.done and core._outstanding is None for core in cores)


def test_fallback_seams_see_the_scalar_deque(monkeypatch):
    """Every fallback ``advance`` starts from the deque the scalar loop
    held at the same core and op, and a finished run keeps none."""
    chip = replace(SimulatedChip(), n_cores=2)
    seen: "dict[tuple[int, int], list]" = {}
    advance = CoreModel.advance

    def recording(core, hierarchy):
        seen.setdefault((core.core_id, core._next), []).append(
            list(core._outstanding or ()))
        return advance(core, hierarchy)

    monkeypatch.setattr(CoreModel, "advance", recording)
    CMPSimulator(chip, use_kernel=False).run(_ping_pong(chip))
    scalar = {key: states[0] for key, states in seen.items()}
    seen.clear()
    cores, stats = _kernel_run(chip, _ping_pong(chip))
    assert stats.fallbacks == sum(len(s) for s in seen.values()) > 0
    for key, states in seen.items():
        assert states == [scalar[key]]
    assert any(states[0] for states in seen.values())
    assert all(core._outstanding is None for core in cores)
