"""``warm-sweep``: an exhaustive sweep answered from a warm result cache.

:func:`~repro.dse.brute_force_search` over 432 simulated chips (core
count x L1 x L2 x issue width x ROB size) times 10 values of ``a0``:
4,320 points.  ``a0`` has no simulated effect (as in the Fig. 12
space), so there are 4,320 budget keys but only 432 cache keys, and the
10 ``a0`` variants of a chip sit next to each other in sweep order.

Set-up runs the sweep cold into a fresh
:class:`~repro.sim.cache_store.SimCacheStore`.  Each timed pass then
builds a fresh evaluator, store view,
:class:`~repro.dse.FabricEvaluator` and budget, as a new CLI run would:
about 10% of its lookups read the disk tier and 90% hit the memory
front, and no simulation runs.  Time goes to fingerprinting
(``sim_cache_key``), the cache tiers, budget bookkeeping and pool IPC.

That no simulation runs is checked after the timed passes, by two more
passes (:func:`check_warm`).
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path

from repro.dse import (BudgetedEvaluator, DesignSpace, FabricEvaluator,
                       Parameter, SimulatorEvaluator, brute_force_search)
from repro.sim.cache_store import SimCacheStore, sim_cache_key
from repro.workloads.parsec import parsec_like

from bench.context import Run
from bench.probe import PoolProbe, counter_delta, counters
from bench.stats import median


def _space(smoke: bool) -> DesignSpace:
    a0 = Parameter("a0", tuple(float(v) for v in range(1, 11)))
    if smoke:
        grid = [("n", (2, 4)), ("l1_kib", (16.0, 32.0)),
                ("l2_kib", (128.0, 256.0)), ("issue_width", (1, 4)),
                ("rob_size", (32, 128))]
    else:
        grid = [("n", (2, 4, 8)), ("l1_kib", (16.0, 32.0, 64.0)),
                ("l2_kib", (128.0, 256.0, 512.0)),
                ("issue_width", (1, 2, 4, 8)),
                ("rob_size", (32, 64, 128, 256))]
    # a0 last: a chip's ten budget keys are consecutive in sweep order.
    return DesignSpace([Parameter(n, v) for n, v in grid] + [a0])


class Sweep:
    """The sweep's fixed inputs plus one pass through the fabric."""

    def __init__(self, run: Run) -> None:
        self.run = run
        self.space = _space(run.smoke)
        self.workload = parsec_like("ocean", n_ops=300 if run.smoke else 1000)

    def evaluator(self, root) -> SimulatorEvaluator:
        return SimulatorEvaluator(self.workload, seed=self.run.seed,
                                  cache=SimCacheStore(root))

    def pass_(self, root, *, rid: str = "", **fabric):
        """One pass through a fresh :class:`~repro.dse.FabricEvaluator`
        of ``nproc`` slots, unless ``fabric`` says otherwise."""
        run = self.run
        evaluator = self.evaluator(root)
        with run.span("bench.sweep.pass", rid=rid):
            probe = PoolProbe(FabricEvaluator(evaluator, **{
                "workers": run.nproc, **fabric}), run.span)
            try:
                result = brute_force_search(
                    self.space, BudgetedEvaluator(probe, method="brute"))
            finally:
                probe.close()
        return evaluator, result, probe


def _summary(result, probe: PoolProbe) -> dict:
    return {"best_config": dict(sorted(result.best_config.items())),
            "best_cost": repr(result.best_cost),
            "costs_digest": probe.costs_digest()}


def store_state(root: Path) -> "dict[str, tuple[int, int, int]]":
    """Every file under a store's root with its inode, size and mtime."""
    out = {}
    for path in root.rglob("*"):
        if path.is_file():
            st = path.stat()
            out[str(path.relative_to(root))] = (st.st_ino, st.st_size,
                                                st.st_mtime_ns)
    return out


def check_warm(run: Run, sweep: Sweep, ref) -> "dict[str, float]":
    """Two untimed passes showing that a warm pass simulates nothing.

    Pool workers keep their own ``sim.*`` counters, so the parent cannot
    count their misses.  But a worker that misses re-simulates and
    writes the entry to its own shard of the store, replacing the file;
    with work stealing off, nothing else writes (the fabric parent
    re-writes only stolen results), so a pooled pass must leave the
    store's files untouched.  A pass on one slot runs in this process,
    where its ``sim.runs`` and ``sim.cache.misses`` must stay 0.
    Returns that pass's counter deltas.
    """
    root = ref[0]
    stored = store_state(root)
    _, result, probe = sweep.pass_(root, steal=False)
    _check_pass(run, sweep, result, probe, ref)
    changed = sorted(k for k, v in store_state(root).items()
                     if stored.get(k) != v)
    run.check(not changed, f"a pooled warm pass wrote {len(changed)} store "
                           f"files (lookups missed and re-simulated): "
                           f"{changed[:3]}")
    before = counters()
    _, result, probe = sweep.pass_(root, workers=1)
    _check_pass(run, sweep, result, probe, ref)
    delta = counter_delta(before, counters())
    for name in ("sim.runs", "sim.cache.misses"):
        run.check(delta.get(name, 0) == 0,
                  f"an inline warm pass counted {delta.get(name)} {name}")
    return delta


def _cold(run: Run, sweep: Sweep, name: str):
    root = run.workdir / name
    shutil.rmtree(root, ignore_errors=True)
    _, result, probe = sweep.pass_(root)
    return root, _summary(result, probe), probe.costs


def _check_pass(run: Run, sweep: Sweep, result, probe, ref) -> bool:
    _, ref_summary, ref_costs = ref
    return run.op(
        run.check(result.evaluations == sweep.space.size,
                  f"pass charged {result.evaluations} of "
                  f"{sweep.space.size} points")
        & run.check(probe.costs == ref_costs,
                    "warm pass costs differ from the cold pass")
        & run.check(_summary(result, probe) == ref_summary,
                    "warm pass best differs from the cold pass"))


def measure(run: Run) -> None:
    """The untraced run: three cold set-ups, then timed warm passes."""
    sweep = Sweep(run)
    colds: list = []

    def build():
        colds.append(_cold(run, sweep, f"store-{len(colds)}"))
        return colds[-1]

    ref = run.repeat_setup(
        build, teardown=lambda cold: shutil.rmtree(cold[0]))
    for root, summary, costs in colds[:-1]:
        run.check(summary == ref[1] and costs == ref[2],
                  f"cold pass into {root.name} differs from the last one")
    run.expect("sweep", ref[1])

    def op(i: int) -> None:
        _, result, probe = sweep.pass_(ref[0])
        _check_pass(run, sweep, result, probe, ref)

    intervals = run.timed_ops(op, min_ops=2)
    check_warm(run, sweep, ref)
    passes = run.scaled("pass_s", intervals)
    if passes:
        run.layer("points_per_s", sweep.space.size / median(passes),
                  f"{sweep.space.size} points, n={len(passes)}")


def measure_traced(run: Run) -> None:
    """One warm pass untraced (``points_per_s``), the checks of
    :func:`check_warm` (whose inline pass gives the ``sim.*`` and cache
    counters), the pooled pass traced, then its per-point cache path
    (``chip_for``, ``sim_cache_key``, ``SimCacheStore.get``) again
    inline through a fresh store view."""
    trace = run.trace
    sweep = Sweep(run)
    ref = _cold(run, sweep, "store")
    run.expect("sweep", ref[1])

    run.speed_sample()
    t0 = time.monotonic()
    _, result, probe = sweep.pass_(ref[0])
    untraced = (t0, time.monotonic())
    run.speed_sample()
    _check_pass(run, sweep, result, probe, ref)

    inline = check_warm(run, sweep, ref)

    before = counters()
    trace.start()
    t0 = time.monotonic()
    evaluator, result, probe = sweep.pass_(ref[0], rid="pass-0")
    traced_s = time.monotonic() - t0
    _check_pass(run, sweep, result, probe, ref)

    store = SimCacheStore(ref[0])
    front_us: "list[float]" = []
    disk_us: "list[float]" = []
    costs = []
    with trace.span("bench.sweep.inline", rid="pass-0"):
        with trace.span("dse.chip_for"):
            chips = [evaluator.chip_for(c) for c in probe.configs]
        with trace.span("cache.key"):
            keys = [sim_cache_key(chip, sweep.workload, run.seed)
                    for chip in chips]
        with trace.span("cache.get"):
            for key in keys:
                front = store.front_hits
                t0 = time.perf_counter()
                costs.append(store.get(key))
                dt = 1e6 * (time.perf_counter() - t0)
                (front_us if store.front_hits > front else disk_us).append(dt)
    trace.stop()
    run.check(costs == probe.costs, "inline cache reads differ from the pass")
    run.check(store.misses == 0, f"{store.misses} inline lookups missed")
    pooled = counter_delta(before, counters())
    run.layers.update(trace.layer_seconds())
    run.layers.update({
        "sim.runs": inline.get("sim.runs", 0),
        "sim.cache.misses": inline.get("sim.cache.misses", 0),
        "cache.front_hit_ratio": (inline.get("sim.cache.front_hits", 0)
                                  / max(1, inline.get("sim.cache.hits", 0))),
        "cache.get_front_us.p50": median(front_us),
        "cache.get_disk_us.p50": median(disk_us),
        "dse.fabric.steals": pooled.get("dse.fabric.steals", 0),
        "dse.fabric.units": pooled.get("dse.fabric.units", 0),
        "trace.overhead_ratio": traced_s / (untraced[1] - untraced[0]),
    })
    pass_s = run.scaled("pass_s", [untraced])
    if pass_s:
        run.layer("points_per_s", sweep.space.size / pass_s[0], "n=1")
    run.detail["traced_pass_s"] = traced_s
