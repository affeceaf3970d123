"""Per-run memory profile of the simulator on the benchmark's centre chips.

Simulates one design point of each ``python3 -m bench`` APS workload
under :mod:`tracemalloc` and prints, per chip, the traced peak of one
``CMPSimulator(chip).run(streams)``, the growth of the process's peak
RSS over one untraced run in a fresh interpreter, and two lists of the
largest allocation sites:

- *at the peak* — a snapshot taken as the epoch kernel returns, while
  the run's cores, hierarchy (cache rows, MSHRs, the coherence
  directory) and the kernel's per-core state are all alive; memory
  only grows during the run, so this is where its peak sits;
- *after the run* — the sites that still hold memory when the run
  returns (the result is alive, as it is when a caller reads its cost).

- ``aps-wide`` — 256 cores, 49-set x 8-way L1s, 22-set x 16-way L2
  slices, ``parsec_like("fluidanimate", n_ops=4000)``: set-up bound;
- ``aps-narrow`` — 10 cores, 128 KiB L1s, 256 KiB L2 slices,
  ``parsec_like("canneal", n_ops=20000)``: per-access state bound.

Streams are drawn before tracing starts, so the peak is the
simulator's own.  The traced peak counts Python allocations only and
is deterministic; the RSS growth (``ru_maxrss`` after the run minus
before it, in a spawned process that has drawn its streams) is what a
benchmark's ``peak_rss_mib`` sees of the same run, allocator slack
included, so read the two side by side.  Stdlib only, apart from the
package itself.  Usage::

    PYTHONPATH=src python scripts/sim_memory_profile.py
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import resource
import sys
import tracemalloc
from dataclasses import replace

import numpy as np

from repro.sim.cmp import CMPSimulator
from repro.sim.config import SimulatedChip
from repro.sim.kernel import run_epoch_kernel
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


def _top_sites(snapshot):
    return snapshot.filter_traces(
        [tracemalloc.Filter(False, tracemalloc.__file__)]
    ).statistics("lineno")[:TOP]


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
    return peak, _top_sites(snapshot)


def _maxrss_mib() -> float:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return rss / MIB if sys.platform == "darwin" else rss / 1024.0


def _rss_growth(name: str) -> float:
    """Peak-RSS growth (MiB) over one untraced run in this process."""
    chip, workload = centre_chip(name)
    streams = workload.streams(chip.n_cores, np.random.default_rng(SEED))
    gc.collect()
    before = _maxrss_mib()
    CMPSimulator(chip).run(streams)
    return _maxrss_mib() - before


def rss_growth(name: str) -> float:
    """:func:`_rss_growth` in a fresh interpreter (spawned, one task).

    On Linux a new process starts from its parent's ``ru_maxrss``, so
    this is called before the parent has traced anything: the child's
    own imports and streams then lie above the inherited mark.
    """
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        return pool.apply(_rss_growth, (name,))


def at_peak_run(chip, streams):
    """Traced bytes and top sites as the epoch kernel returns.

    A trace hook on the kernel's frame alone (no line events) takes the
    snapshot at its ``return`` event, before the frame's locals — the
    per-core kernel state — are released.
    """
    taken = []

    def on_return(frame, event, arg):
        if event == "return":
            current, _ = tracemalloc.get_traced_memory()
            taken.append((current, tracemalloc.take_snapshot()))
        return on_return

    def on_call(frame, event, arg):
        if frame.f_code is run_epoch_kernel.__code__:
            frame.f_trace_lines = False
            return on_return
        return None

    gc.collect()
    tracemalloc.start()
    sys.settrace(on_call)
    try:
        CMPSimulator(chip).run(streams)
    finally:
        sys.settrace(None)
        tracemalloc.stop()
    (current, snapshot), = taken
    return current, _top_sites(snapshot)


def _print_sites(title: str, sites) -> None:
    print(title)
    print(f"  {'KiB':>9}  {'blocks':>8}  site")
    for stat in sites:
        print(f"  {stat.size / 1024:9.1f}  {stat.count:8d}  {_site(stat)}")


def _site(stat) -> str:
    frame = stat.traceback[0]
    path = frame.filename
    marker = os.sep + "repro" + os.sep
    if marker in path:
        path = "repro" + os.sep + path.split(marker, 1)[1]
    else:
        path = os.path.basename(path)
    return f"{path}:{frame.lineno}"


def profile(name: str, growth: float) -> None:
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
    print(f"peak RSS growth of one run in a fresh process: {growth:.2f} MiB")
    at_peak, peak_sites = at_peak_run(chip, streams)
    _print_sites(f"top {TOP} sites at the peak ({at_peak / MIB:.2f} MiB "
                 "traced as the kernel returns):", peak_sites)
    _print_sites(f"top {TOP} sites still allocated after the last run:",
                 sites)
    print()


def main() -> int:
    growths = {name: rss_growth(name) for name in CENTRE_CHIPS}
    for name in CENTRE_CHIPS:
        profile(name, growths[name])
    return 0


if __name__ == "__main__":
    sys.exit(main())
