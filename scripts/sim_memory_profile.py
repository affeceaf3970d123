"""Per-run memory profile of the simulator on the benchmark's centre chips.

Simulates one design point of each ``python3 -m bench`` APS workload
under :mod:`tracemalloc` and prints, per chip, the traced peak of one
``CMPSimulator(chip).run(streams)`` and the allocation sites that still
hold memory when the run returns (the result is alive, as it is when a
caller reads its cost):

- ``aps-wide`` — 256 cores, 49-set x 8-way L1s, 22-set x 16-way L2
  slices, ``parsec_like("fluidanimate", n_ops=4000)``: set-up bound;
- ``aps-narrow`` — 10 cores, 128 KiB L1s, 256 KiB L2 slices,
  ``parsec_like("canneal", n_ops=20000)``: per-access state bound.

Streams are drawn before tracing starts, so the peak is the
simulator's own.  Stdlib only, apart from the package itself.  Usage::

    PYTHONPATH=src python scripts/sim_memory_profile.py
"""

from __future__ import annotations

import gc
import os
import sys
import tracemalloc
from dataclasses import replace

import numpy as np

from repro.sim.cmp import CMPSimulator
from repro.sim.config import SimulatedChip
from repro.workloads.parsec import parsec_like

MIB = float(1 << 20)
#: Centre point of each benchmark APS workload: cores, L1 KiB,
#: L2-slice KiB, PARSEC-like workload and its memory-op count.
CENTRE_CHIPS = {
    "aps-wide": (256, 24.5, 22.0, "fluidanimate", 4000),
    "aps-narrow": (10, 128.0, 256.0, "canneal", 20000),
}
SEED = 1   # stream seed
RUNS = 3   # traced runs per chip
TOP = 12   # allocation sites listed per chip


def centre_chip(name: str):
    """``(chip, workload)`` of a benchmark workload's centre point."""
    cores, l1_kib, l2_kib, workload, n_ops = CENTRE_CHIPS[name]
    base = SimulatedChip()
    chip = replace(base, n_cores=cores,
                   l1=replace(base.l1, size_kib=l1_kib),
                   l2_slice=replace(base.l2_slice, size_kib=l2_kib))
    return chip, parsec_like(workload, n_ops=n_ops)


def traced_run(chip, streams):
    """Traced peak (bytes) of one run, and its top retained sites."""
    gc.collect()
    tracemalloc.start()
    try:
        result = CMPSimulator(chip).run(streams)
        _, peak = tracemalloc.get_traced_memory()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    del result
    stats = snapshot.filter_traces(
        [tracemalloc.Filter(False, tracemalloc.__file__)]
    ).statistics("lineno")
    return peak, stats[:TOP]


def _site(stat) -> str:
    frame = stat.traceback[0]
    path = frame.filename
    marker = os.sep + "repro" + os.sep
    if marker in path:
        path = "repro" + os.sep + path.split(marker, 1)[1]
    else:
        path = os.path.basename(path)
    return f"{path}:{frame.lineno}"


def profile(name: str) -> None:
    chip, workload = centre_chip(name)
    streams = workload.streams(chip.n_cores, np.random.default_rng(SEED))
    mem_ops = sum(int(s[0].size) for s in streams)
    peaks = []
    sites = []
    for _ in range(RUNS):
        peak, sites = traced_run(chip, streams)
        peaks.append(peak)
    print(f"== {name}: n={chip.n_cores}, L1 {chip.l1.size_kib:g} KiB, "
          f"L2 slice {chip.l2_slice.size_kib:g} KiB, {mem_ops} memory ops, "
          f"stream seed {SEED}")
    print("traced peak per run (MiB): "
          + ", ".join(f"{p / MIB:.2f}" for p in peaks)
          + f"  (min {min(peaks) / MIB:.2f})")
    print(f"top {TOP} sites still allocated after the last run:")
    print(f"  {'KiB':>9}  {'blocks':>8}  site")
    for stat in sites:
        print(f"  {stat.size / 1024:9.1f}  {stat.count:8d}  {_site(stat)}")
    print()


def main() -> int:
    for name in CENTRE_CHIPS:
        profile(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
