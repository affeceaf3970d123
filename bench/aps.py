"""``aps-wide`` and ``aps-narrow``: the paper's APS search (Fig. 6) with
the narrowed region simulated on the event-driven CMP simulator.

Both run :meth:`repro.dse.APSExplorer.explore` over the Fig. 12
six-parameter space; the analytic step fixes ``(a0, a1, a2, n)`` and the
100 issue-width x ROB points go through a
:class:`~repro.dse.SimulatorEvaluator` (no result cache: caches start
empty) in the pool :func:`~repro.dse.make_pool_evaluator` builds, one
pool per search as one CLI run would.

- ``aps-wide`` — the fluidanimate case study: the analytic centre is a
  256-core chip and each core runs about 15 memory operations, so time
  goes to per-run and per-core simulator set-up and to stream
  generation rather than to the per-access loop.
- ``aps-narrow`` — a fixed-size (``g = N^0``), memory-bound application:
  the centre is a 10-core chip with 128 KiB L1 and 256 KiB L2 running a
  canneal-like 128 MiB footprint (about 60% L1 misses), so time goes to
  the epoch kernel, the MSHRs and DRAM.  A change that speeds up one
  simulator regime and slows the other shows up in the pair.

Searches alternate stream seeds ``seed`` and ``seed + 1``.
"""

from __future__ import annotations

import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

from repro.core.params import ApplicationProfile, MachineParameters
from repro.dse import (APSExplorer, BudgetedEvaluator, SimulatorEvaluator,
                       make_pool_evaluator)
from repro.experiments.fig12_aps import fluidanimate_profile, fluidanimate_space
from repro.laws.gfunction import PowerLawG
from repro.sim import CMPSimulator
from repro.workloads.parsec import parsec_like

from bench.context import Run
from bench.probe import PoolProbe, counter_delta, counters
from bench.stats import median, p90

#: The exact simulator counters pinned for the default seed.
PINNED_SIM_COUNTERS = (
    "sim.runs", "sim.instructions", "sim.mem_ops", "sim.cycles",
    "sim.l1.hits", "sim.l1.misses", "sim.l2.hits", "sim.l2.misses",
    "sim.dram.requests", "sim.dram.queue_wait_cycles",
    "sim.l1.mshr_stall_events", "sim.coherence.invalidations",
    "sim.kernel.ops", "sim.kernel.fallbacks", "sim.kernel.epochs")

#: Modules a CLI run imports before it can search (timed in set-up).
_IMPORTS = ("import repro.dse, repro.experiments.fig12_aps, "
            "repro.workloads, repro.sim")


@dataclass
class Case:
    explorer: APSExplorer
    workload: object


def _build(name: str, smoke: bool) -> Case:
    values = 4 if smoke else 10
    if name == "aps-wide":
        app, machine = fluidanimate_profile()
        workload = parsec_like("fluidanimate",
                               n_ops=1000 if smoke else 4000)
    else:
        app = ApplicationProfile(name="narrow", f_seq=0.2, f_mem=0.45,
                                 g=PowerLawG(0.0, name="fixed"),
                                 concurrency=4.0)
        machine = MachineParameters()
        workload = parsec_like("canneal", n_ops=2000 if smoke else 20000)
    explorer = APSExplorer(app, machine, fluidanimate_space(values))
    return Case(explorer, workload)


def _setup(run: Run) -> Case:
    # A fresh interpreter importing the program is what every CLI run
    # pays before its first search; then the in-process build.
    subprocess.run([sys.executable, "-c", _IMPORTS], check=True)
    return _build(run.workload, run.smoke)


def _search(run: Run, case: Case, stream_seed: int, *, rid: str = ""):
    evaluator = SimulatorEvaluator(case.workload, seed=stream_seed,
                                   cache=None)
    with run.span("bench.aps.search", rid=rid, stream_seed=stream_seed):
        probe = PoolProbe(make_pool_evaluator(evaluator, workers=run.nproc),
                          run.span)
        try:
            result = case.explorer.explore(
                BudgetedEvaluator(probe, method="aps"))
        finally:
            probe.close()
    return evaluator, result, probe


def _summary(result, probe: PoolProbe) -> dict:
    return {"best_config": dict(sorted(result.best_config.items())),
            "best_cost": repr(result.best_cost),
            "costs_digest": probe.costs_digest()}


def _inline_cost(run: Run, evaluator: SimulatorEvaluator, config: dict,
                 stream_seed: int, times: "list[float]") -> float:
    """One design point through the evaluator's per-point path, inline:
    ``chip_for`` -> ``Workload.streams`` -> ``CMPSimulator.run``."""
    with run.span("dse.chip_for"):
        chip = evaluator.chip_for(config)
    with run.span("workloads.streams"):
        streams = evaluator.workload.streams(
            chip.n_cores, np.random.default_rng(stream_seed))
    t0 = time.perf_counter()
    with run.span("sim.simulate"):
        result = CMPSimulator(chip).run(streams)
    times.append(time.perf_counter() - t0)
    if result.total_instructions == 0:
        return float("inf")
    return result.exec_cycles / result.total_instructions


def _check_search(run: Run, result, probe: PoolProbe, seen: dict,
                  stream_seed: int) -> bool:
    summary = _summary(result, probe)
    ok = run.check(result.simulations == len(probe.costs) > 0,
                   f"search charged {result.simulations} simulations for "
                   f"{len(probe.costs)} pooled points")
    ok &= run.check(result.best_cost == min(probe.costs),
                    "best cost is not the minimum pooled cost")
    if stream_seed in seen:
        ok &= run.check(seen[stream_seed] == summary,
                        f"stream seed {stream_seed}: repeated search "
                        "differs from the first")
    else:
        seen[stream_seed] = summary
        ok &= run.expect(f"search.{stream_seed}", summary)
    return ok


def measure(run: Run) -> None:
    """The untraced run: set-up, timed searches, then cross-checks."""
    case = run.repeat_setup(lambda: _setup(run), reps=9)
    seeds = (run.seed, run.seed + 1)
    seen: dict = {}
    last: dict = {}

    def op(i: int) -> None:
        stream_seed = seeds[i % 2]
        evaluator, result, probe = _search(run, case, stream_seed)
        run.op(_check_search(run, result, probe, seen, stream_seed))
        last[stream_seed] = (evaluator, result, probe)

    intervals = run.timed_ops(op, min_ops=2)
    # Pooled equals inline, on any seed: re-simulate the best point and
    # the first point of each stream seed in this process.
    for stream_seed, (evaluator, result, probe) in sorted(last.items()):
        for config, cost in [(result.best_config, result.best_cost),
                             (probe.configs[0], probe.costs[0])]:
            inline = _inline_cost(run, evaluator, config, stream_seed, [])
            run.check(inline == cost,
                      f"stream seed {stream_seed}: inline cost {inline!r} "
                      f"!= pooled {cost!r} at {config}")
    searches = run.scaled("search_s", intervals)
    if searches:
        run.layer("search_s", median(searches), f"n={len(searches)}")


def measure_traced(run: Run) -> None:
    """The traced run: one search untraced (``search_s``, ``sim_kips``),
    the same search traced, then every one of its points again inline
    under per-layer spans."""
    trace = run.trace
    case = _build(run.workload, run.smoke)
    seed = run.seed
    seen: dict = {}

    run.speed_sample()
    t0 = time.monotonic()
    _, result, probe = _search(run, case, seed)
    untraced = (t0, time.monotonic())
    run.speed_sample()
    run.op(_check_search(run, result, probe, seen, seed))
    trace.start()

    t0 = time.monotonic()
    evaluator, result, probe = _search(run, case, seed, rid="search-0")
    traced_s = time.monotonic() - t0
    run.op(_check_search(run, result, probe, seen, seed))

    before = counters("sim.")
    times: "list[float]" = []
    with trace.span("bench.aps.inline", rid="search-0"):
        for config, pooled in zip(probe.configs, probe.costs):
            inline = _inline_cost(run, evaluator, config, seed, times)
            run.check(inline == pooled,
                      f"inline cost {inline!r} != pooled {pooled!r} "
                      f"at {config}")
    trace.stop()
    sim = counter_delta(before, counters("sim."))
    pinned = {k: sim.get(k, 0) for k in PINNED_SIM_COUNTERS}
    run.expect(f"sim.{seed}", pinned)

    run_s = sum(times)
    mem_ops = pinned["sim.mem_ops"]
    epochs = pinned["sim.kernel.epochs"]
    run.layers.update(trace.layer_seconds())
    run.layers.update(pinned)
    run.layers.update({
        "sim.run_s": run_s,
        "sim.run_ms.p50": 1e3 * median(times),
        "sim.run_ms.p90": 1e3 * p90(times),
        "sim.us_per_mem_op": 1e6 * run_s / mem_ops,
        "sim.kernel.fallback_ratio": pinned["sim.kernel.fallbacks"] / mem_ops,
        "sim.kernel.ops_per_epoch":
            pinned["sim.kernel.ops"] / epochs if epochs else 0.0,
        "trace.overhead_ratio": traced_s / (untraced[1] - untraced[0]),
    })
    # The inline re-run simulated exactly the search's points, so its
    # instruction count is the search's (pool workers keep their own).
    search_s = run.scaled("search_s", [untraced])
    if search_s:
        run.layer("search_s", search_s[0], "n=1")
        run.layer("sim_kips", pinned["sim.instructions"] / 1e3 / search_s[0])
    run.detail["traced_search_s"] = traced_s
