"""Design-point evaluators with simulation-budget accounting.

Two evaluators are provided:

- :class:`SimulatorEvaluator` runs the real event-driven CMP simulator on
  a workload — the honest but expensive path (used for the scaled-down
  validation experiments).
- :class:`SurrogateEvaluator` is a calibrated analytic stand-in for the
  paper's ground-truth full sweep (128 Xeons for 4 weeks, which we cannot
  re-run): the C2-Bound per-instruction time extended with issue-width
  and ROB effects, plus a small deterministic per-configuration
  perturbation emulating cycle-accurate simulation variability.  It is
  cheap enough to evaluate a 10^6-point space exactly.

Both are wrapped by :class:`BudgetedEvaluator`, whose counter is the
"number of simulations" reported in Fig. 12.

Batch protocol
--------------
Every evaluator answers ``evaluate(config) -> float``; evaluators that
can amortize work across points additionally answer
``evaluate_batch(configs) -> np.ndarray`` (costs in input order).
:func:`batch_evaluate` dispatches to the native batch path when present
and falls back to a scalar loop otherwise, so callers can batch
unconditionally.  The determinism contract: the scalar path is *defined*
as a batch of one, so batched and sequential evaluation agree
bit-for-bit (see ``docs/DSE_PERFORMANCE.md``).
"""

from __future__ import annotations

import time
from typing import Protocol, Sequence

import numpy as np

from repro.core.camat_model import CAMATModel
from repro.core.params import ApplicationProfile, MachineParameters
from repro.errors import DesignSpaceError
from repro.obs import get_registry, get_tracer
from repro.sim.cmp import simulate_chip_cost
from repro.sim.config import CoreMicroConfig, SimulatedChip
from repro.workloads.base import Workload

__all__ = ["Evaluator", "BatchEvaluator", "BudgetedEvaluator",
           "SurrogateEvaluator", "SimulatorEvaluator", "batch_evaluate",
           "canonical_key"]


class Evaluator(Protocol):
    """Maps a configuration dict to a performance cost (lower = better)."""

    def evaluate(self, config: dict) -> float:
        """Execution-time-like cost of one design point."""
        ...


class BatchEvaluator(Protocol):
    """An :class:`Evaluator` with a native batch path."""

    def evaluate(self, config: dict) -> float:
        """Execution-time-like cost of one design point."""
        ...

    def evaluate_batch(self, configs: Sequence[dict]) -> np.ndarray:
        """Costs of many design points, in input order."""
        ...


def canonical_key(config: dict) -> tuple:
    """Order-independent identity of a configuration.

    Two dicts describing the same design point (whatever their key
    insertion order) share one key — the identity used by the
    :class:`BudgetedEvaluator` memoization cache, so budget accounting
    is exact under batching and duplicates are never re-simulated.
    """
    return tuple(sorted(config.items()))


def batch_evaluate(evaluator, configs: Sequence[dict]) -> np.ndarray:
    """Evaluate ``configs`` through the fastest path the evaluator has.

    Dispatches to a native ``evaluate_batch`` when the evaluator
    provides one (the vectorized surrogate, the process-pool wrapper,
    the budgeted cache) and otherwise falls back to a sequential
    ``evaluate`` loop.  Costs come back in input order either way.
    """
    configs = list(configs)
    if not configs:
        return np.empty(0, dtype=float)
    hook = getattr(evaluator, "evaluate_batch", None)
    if hook is not None:
        costs = np.asarray(hook(configs), dtype=float)
        if costs.shape != (len(configs),):
            raise DesignSpaceError(
                f"evaluate_batch returned shape {costs.shape} for "
                f"{len(configs)} configs")
        return costs
    return np.array([float(evaluator.evaluate(c)) for c in configs],
                    dtype=float)


def is_feasible(evaluator, config: dict) -> bool:
    """Design-rule feasibility of a configuration, without simulating.

    Evaluators may expose ``is_feasible(config)`` (e.g. the silicon-area
    budget of Eq. 12, which a practitioner checks before ever submitting
    a simulation).  Evaluators without the hook treat everything as
    feasible.
    """
    hook = getattr(evaluator, "is_feasible", None)
    if hook is None:
        return True
    return bool(hook(config))


class BudgetedEvaluator:
    """Counting/caching wrapper — the Fig. 12 simulation meter.

    Repeated evaluations of the same configuration are cached and counted
    once (a stored simulation result is free to reread).  ``evaluations``
    counts fresh simulations only — the number Fig. 12 reports — while
    ``evaluations_cached`` counts the free rereads separately; both are
    mirrored into the process-wide metrics registry as
    ``dse.evaluations`` / ``dse.evaluations_cached`` (plus a labeled
    series per method when ``method`` is given).

    :meth:`evaluate_batch` shares the same cache and counters, so the
    Fig. 12 invariant (budget = number of *distinct* configurations
    simulated) holds identically whether a search walks points one at a
    time or in batches: within a batch the first occurrence of a new
    configuration is charged, every duplicate and every already-cached
    point is a free reread.

    Checkpointing: when wired to a
    :class:`~repro.resilience.checkpoint.CheckpointJournal` (explicitly
    via ``checkpoint=``, or implicitly through the installed
    :class:`~repro.runconfig.RunConfig`'s ``checkpoint``, which the
    CLI's ``--checkpoint`` flag sets), every charged evaluation is
    ledgered the moment the budget is spent.  On resume, the restored
    ledger pre-warms the cache; as the deterministic search replays, the
    first hit on each restored point is *accounted as the fresh charge
    it was in the interrupted run* (no journal re-append, no double
    charge), so budget counters, metrics and results end bit-identical
    to a run that was never interrupted.
    """

    def __init__(self, inner: Evaluator, *,
                 method: "str | None" = None,
                 checkpoint=None, resume: bool = False) -> None:
        self.inner = inner
        self.method = method
        self.evaluations = 0
        self.evaluations_cached = 0
        self._cache: dict[tuple, float] = {}
        self._restored_pending: set[tuple] = set()
        registry = get_registry()
        self._ctr_fresh = registry.counter("dse.evaluations")
        self._ctr_cached = registry.counter("dse.evaluations_cached")
        self._ctr_fresh_method = (
            registry.counter("dse.evaluations", method=method)
            if method is not None else None)
        self._hist_batch_size = registry.histogram("dse.batch_size")
        self._hist_batch_seconds = registry.histogram("dse.batch_seconds")
        self._ctr_restored = registry.counter(
            "resilience.checkpoint.restored")
        self._journal = None
        self._attach_checkpoint(checkpoint, resume)

    def _attach_checkpoint(self, checkpoint, resume: bool) -> None:
        """Resolve the journal wiring (explicit arg or process defaults).

        ``checkpoint`` may be a live
        :class:`~repro.resilience.checkpoint.CheckpointJournal`, a path
        (fresh journal, or resumed when ``resume=True``), or ``None`` —
        in which case the installed run config decides (usually:
        journaling off).
        """
        # Imported lazily: repro.resilience.faults imports this module.
        from repro.resilience.checkpoint import (
            CheckpointJournal,
            journal_for_method,
        )

        entries: list = []
        if checkpoint is None:
            opened = journal_for_method(self.method)
            if opened is None:
                return
            self._journal, entries = opened
        elif hasattr(checkpoint, "append_evals"):
            # Any live journal-shaped object attaches directly: a
            # CheckpointJournal or a test double — the budget path only
            # ever appends.
            self._journal = checkpoint
        elif resume:
            self._journal, entries, _states = CheckpointJournal.open_resume(
                checkpoint, method=self.method)
        else:
            self._journal = CheckpointJournal.create(
                checkpoint, method=self.method)
        if entries:
            self.restore(entries)

    def restore(self, entries) -> None:
        """Warm the cache from a journal ledger of ``(key, cost)`` pairs.

        Restored points are marked pending-replay: the search's first
        hit on each is accounted as the fresh charge it was in the
        interrupted run (and not re-journaled), keeping budget
        accounting exactly-once across the interruption.
        """
        restored = 0
        for key, cost in entries:
            if key in self._cache:
                continue
            self._cache[key] = float(cost)
            self._restored_pending.add(key)
            restored += 1
        self._ctr_restored.inc(restored)

    def close(self) -> None:
        """Flush and close the attached journal, if any (idempotent)."""
        if self._journal is not None:
            self._journal.close()

    def evaluate(self, config: dict) -> float:
        key = canonical_key(config)
        cached = self._cache.get(key)
        if cached is not None:
            if key in self._restored_pending:
                # Replay of a checkpointed charge: account it as the
                # fresh evaluation it was; the journal already has it.
                self._restored_pending.discard(key)
                self.evaluations += 1
                self._ctr_fresh.inc()
                if self._ctr_fresh_method is not None:
                    self._ctr_fresh_method.inc()
            else:
                self.evaluations_cached += 1
                self._ctr_cached.inc()
            return cached
        cost = float(self.inner.evaluate(config))
        self._cache[key] = cost
        self.evaluations += 1
        self._ctr_fresh.inc()
        if self._ctr_fresh_method is not None:
            self._ctr_fresh_method.inc()
        if self._journal is not None:
            self._journal.append_eval(key, cost)
        return cost

    def evaluate_batch(self, configs: Sequence[dict]) -> np.ndarray:
        """Batched :meth:`evaluate`: same cache, same budget, one call.

        Only configurations absent from the cache (deduplicated inside
        the batch by :func:`canonical_key`) reach the inner evaluator —
        through its own batch path when it has one — and only those are
        charged to the budget.  Costs return in input order.
        """
        configs = list(configs)
        if not configs:
            return np.empty(0, dtype=float)
        out = np.empty(len(configs), dtype=float)
        fresh_configs: list[dict] = []
        fresh_index: dict[tuple, int] = {}
        slots: list[tuple[int, int]] = []
        n_cached = 0
        n_replayed = 0
        for i, config in enumerate(configs):
            key = canonical_key(config)
            cached = self._cache.get(key)
            if cached is not None:
                out[i] = cached
                if key in self._restored_pending:
                    # Replay of a checkpointed charge (see restore()).
                    self._restored_pending.discard(key)
                    n_replayed += 1
                else:
                    n_cached += 1
                continue
            j = fresh_index.get(key)
            if j is None:
                j = len(fresh_configs)
                fresh_index[key] = j
                fresh_configs.append(config)
            else:
                n_cached += 1  # duplicate within the batch: free reread
            slots.append((i, j))
        with get_tracer().span("dse.batch", size=len(configs),
                               fresh=len(fresh_configs), cached=n_cached):
            t0 = time.perf_counter()
            if fresh_configs:
                costs = batch_evaluate(self.inner, fresh_configs)
                for key, j in fresh_index.items():
                    self._cache[key] = float(costs[j])
                for i, j in slots:
                    out[i] = costs[j]
            elapsed = time.perf_counter() - t0
        n_charged = len(fresh_configs) + n_replayed
        if n_charged:
            self.evaluations += n_charged
            self._ctr_fresh.inc(n_charged)
            if self._ctr_fresh_method is not None:
                self._ctr_fresh_method.inc(n_charged)
        if fresh_configs and self._journal is not None:
            # Ledger the batch the moment it is charged (one flush).
            self._journal.append_evals(
                [(key, float(costs[j])) for key, j in fresh_index.items()])
        if n_cached:
            self.evaluations_cached += n_cached
            self._ctr_cached.inc(n_cached)
        self._hist_batch_size.observe(len(configs))
        self._hist_batch_seconds.observe(elapsed)
        return out

    def is_feasible(self, config: dict) -> bool:
        """Delegates to the wrapped evaluator's design-rule check."""
        return is_feasible(self.inner, config)

    def reset(self) -> None:
        """Zero both budget counters and drop the cache.

        Only this evaluator's local counters are reset; the registry's
        process-wide series are cumulative by design.
        """
        self.evaluations = 0
        self.evaluations_cached = 0
        self._cache.clear()
        self._restored_pending.clear()


class SurrogateEvaluator:
    """Analytic ground-truth stand-in for exhaustive sweeps.

    Cost model (per scaled instruction, times the Sun-Ni scaling):

    - Pollack CPI from ``a0``, floored at ``1/issue_width`` (a narrow
      core cannot exceed its issue bandwidth even with large area);
    - C-AMAT from the cache areas with *effective* concurrency
      ``C_eff = 1 + (C_app - 1) * rob_factor`` where the ROB factor
      saturates as the window grows (memory-level parallelism needs ROB
      reach);
    - a deterministic pseudo-random perturbation of ``noise`` relative
      magnitude derived from the configuration hash (simulation
      "measurement error").

    Parameters
    ----------
    app, machine:
        The analytic model inputs.
    camat_model:
        Cache-area-to-latency model (defaults shared with the optimizer).
    noise:
        Relative perturbation amplitude (0 disables).
    rob_half:
        ROB size at which half the application concurrency is exposed.
    """

    def __init__(self, app: ApplicationProfile, machine: MachineParameters,
                 camat_model: "CAMATModel | None" = None, *,
                 noise: float = 0.02, rob_half: float = 48.0,
                 objective: str = "auto") -> None:
        if noise < 0:
            raise DesignSpaceError(f"noise must be >= 0, got {noise}")
        if objective not in ("auto", "time", "time_per_work"):
            raise DesignSpaceError(
                "objective must be 'auto', 'time' or 'time_per_work', "
                f"got {objective!r}")
        self.app = app
        self.machine = machine
        self.camat_model = camat_model if camat_model is not None else CAMATModel()
        self.noise = noise
        self.rob_half = rob_half
        if objective == "auto":
            # Match the paper's case split: scalable workloads are judged
            # by throughput (time per unit work), fixed/sublinear ones by
            # raw time — the same objective the analytic optimizer uses,
            # so every DSE method competes on one metric.
            objective = ("time_per_work" if app.g.at_least_linear()
                         else "time")
        self.objective = objective

    def is_feasible(self, config: dict) -> bool:
        """Eq. 12 area budget plus positivity — checkable pre-simulation."""
        a0 = float(config["a0"])
        a1 = float(config["a1"])
        a2 = float(config["a2"])
        n = int(config["n"])
        if min(a0, a1, a2) <= 0 or n < 1:
            return False
        total = n * (a0 + a1 + a2) + self.machine.shared_area
        return total <= self.machine.total_area * (1.0 + 1e-9)

    def evaluate(self, config: dict) -> float:
        # Defined as a batch of one so the scalar and batched paths run
        # the same NumPy kernel and agree bit-for-bit.
        return float(self.evaluate_batch([config])[0])

    def evaluate_batch(self, configs: Sequence[dict]) -> np.ndarray:
        """Vectorized evaluation of arbitrary configurations.

        One NumPy pass over column arrays of the batch — the Eq. 12
        feasibility mask (infeasible points cost ``inf``), the C2-Bound
        cost and the deterministic perturbation all evaluate
        elementwise, so ``evaluate_batch(cs)[i] == evaluate(cs[i])``
        exactly.
        """
        configs = list(configs)
        if not configs:
            return np.empty(0, dtype=float)
        return self._evaluate_columns(
            np.array([float(c["a0"]) for c in configs]),
            np.array([float(c["a1"]) for c in configs]),
            np.array([float(c["a2"]) for c in configs]),
            np.array([float(int(c["n"])) for c in configs]),
            np.array([float(int(c.get("issue_width", 4)))
                      for c in configs]),
            np.array([float(int(c.get("rob_size", 128)))
                      for c in configs]),
        )

    def _evaluate_columns(self, a0, a1, a2, n, issue, rob) -> np.ndarray:
        """The shared cost kernel over parameter column arrays."""
        m = self.machine
        feasible = ((np.minimum(np.minimum(a0, a1), a2) > 0)
                    & (n >= 1) & (issue >= 1) & (rob >= 1)
                    & (n * (a0 + a1 + a2) + m.shared_area
                       <= m.total_area * (1.0 + 1e-9)))
        # Infeasible lanes may divide by zero or take sqrt of negatives;
        # their results are masked to inf below, so silence the noise.
        with np.errstate(all="ignore"):
            safe_a1 = np.where(a1 > 0, a1, 1.0)
            safe_a2 = np.where(a2 > 0, a2, 1.0)
            safe_n = np.where(n >= 1, n, 1.0)
            cpi = np.maximum(m.pollack_k0 / np.sqrt(a0) + m.pollack_phi0,
                             1.0 / issue)
            rob_factor = rob / (rob + self.rob_half)
            c_eff = 1.0 + (self.app.concurrency - 1.0) * rob_factor
            amat = np.asarray(self.camat_model.amat(safe_a1, safe_a2),
                              dtype=float)
            stall = (self.app.f_mem * (amat / c_eff)
                     * (1.0 - self.app.overlap_ratio))
            g_n = np.asarray(self.app.g(safe_n), dtype=float)
            scale = self.app.f_seq + g_n * (1.0 - self.app.f_seq) / safe_n
            cost = self.app.ic0 * (cpi + stall) * scale * m.cycle_time
            if self.objective == "time_per_work":
                cost = cost / g_n
            if self.noise:
                cost = cost * (1.0 + self.noise * _value_noise(
                    a0, a1, a2, n, issue, rob))
        return np.where(feasible, cost, np.inf)

    def evaluate_grid(self, space) -> "np.ndarray":
        """Vectorized evaluation of an entire design space.

        Returns costs in the space's mixed-radix enumeration order —
        ``costs[i] == evaluate(space.config_at(i))`` (exactly: the
        scalar, batched and grid paths share one kernel).  This is
        what makes the paper's 10^6-point "full sweep" affordable as a
        ground truth.
        """
        names = space.names
        required = ("a0", "a1", "a2", "n", "issue_width", "rob_size")
        missing = [r for r in required if r not in names]
        if missing:
            raise DesignSpaceError(
                f"surrogate grid evaluation needs parameters {missing}")
        grids = [np.asarray(p.values, dtype=float)
                 for p in space.parameters]
        mesh = np.meshgrid(*grids, indexing="ij")
        values = {name: m.ravel() for name, m in zip(names, mesh)}
        return self._evaluate_columns(
            values["a0"], values["a1"], values["a2"], values["n"],
            values["issue_width"], values["rob_size"])


class SimulatorEvaluator:
    """Evaluate configurations with the event-driven CMP simulator.

    The configuration dict supplies ``n``, ``a1``/``a2`` (cache areas,
    converted to capacities) or direct ``l1_kib``/``l2_kib``, and the
    microarchitecture parameters ``issue_width``/``rob_size``.  The cost
    is execution cycles per (simulated) instruction so different core
    counts are comparable.

    ``a0`` (core-logic area) is accepted but has no simulated effect of
    its own: in simulation a core's area is *expressed* through the
    issue-width/ROB axes (which the paper's 6-parameter space sweeps
    separately), while ``a0`` feeds the analytic Pollack term and the
    Eq. 12 feasibility check.

    ``cache`` selects the persistent simulation store consulted before
    running the simulator (see :mod:`repro.sim.cache_store`): the
    default ``"default"`` resolves the run config's store *at
    construction* — so a pickled evaluator carries the store into
    process-pool workers — ``None`` disables caching, and a path or
    :class:`~repro.sim.cache_store.SimCacheStore` selects a specific
    store.  Caching only changes wall time, never results or budget
    accounting: :class:`BudgetedEvaluator` still charges the first
    occurrence of every configuration.
    """

    def __init__(self, workload: Workload, *, seed: int = 1234,
                 base_chip: "SimulatedChip | None" = None,
                 kib_per_area_unit: float = 64.0,
                 cache="default") -> None:
        from repro.sim.cache_store import resolve_store

        self.workload = workload
        self.seed = seed
        self.base_chip = base_chip if base_chip is not None else SimulatedChip()
        self.kib_per_area_unit = kib_per_area_unit
        self.cache = resolve_store(cache)

    def _chip_params(self, config: dict) -> tuple:
        """The values :meth:`chip_for` reads from a configuration, each
        converted to the type the chip stores, so equal tuples build
        chips with equal fingerprints."""
        base = self.base_chip
        l1_kib = float(config.get(
            "l1_kib", config.get("a1", 0.5) * self.kib_per_area_unit))
        l2_kib = float(config.get(
            "l2_kib", config.get("a2", 8.0) * self.kib_per_area_unit))
        return (int(config.get("n", base.n_cores)),
                int(config.get("issue_width", base.core.issue_width)),
                int(config.get("rob_size", base.core.rob_size)),
                max(l1_kib, 1.0), max(l2_kib, 2.0))

    def _chip(self, params: tuple) -> SimulatedChip:
        from dataclasses import replace

        n, issue, rob, l1_kib, l2_kib = params
        return replace(
            self.base_chip,
            n_cores=n,
            core=CoreMicroConfig(issue_width=issue, rob_size=rob),
            l1=replace(self.base_chip.l1, size_kib=l1_kib),
            l2_slice=replace(self.base_chip.l2_slice, size_kib=l2_kib),
        )

    def chip_for(self, config: dict) -> SimulatedChip:
        """The simulator configuration a design point maps to."""
        return self._chip(self._chip_params(config))

    def cache_keys_for(self, configs: Sequence[dict]) -> "list[str]":
        """Content addresses of many configurations, keyed in one pass.

        Configurations that map to the same chip (``a0`` variants, say)
        share one chip object, so
        :func:`~repro.sim.cache_store.sim_cache_keys` fingerprints each
        distinct chip once and the workload and seed once per call.
        """
        from repro.sim.cache_store import sim_cache_keys

        shared: "dict[tuple, SimulatedChip]" = {}
        chips = []
        for config in configs:
            params = self._chip_params(config)
            chip = shared.get(params)
            if chip is None:
                chip = shared[params] = self._chip(params)
            chips.append(chip)
        return sim_cache_keys(chips, self.workload, self.seed)

    def cache_key_for(self, config: dict) -> str:
        """Content address of this configuration's simulation result.

        The contract every ``cache_key_for`` keeps: equal keys mean
        equal costs.  The store persists costs under this key, and the
        sweep fabric evaluates each distinct key of a batch once and
        shards design points by the *store's* own hash ranges — fabric
        ownership and disk-shard ownership then coincide, and the owning
        worker is the only writer of its shard directories.  The same
        key :func:`~repro.sim.cache_store.sim_cache_key` derives inside
        the cached evaluation path; computable whether or not a store
        is attached.
        """
        return self.cache_keys_for([config])[0]

    def cache_provenance(self) -> dict:
        """The provenance fields a persisted entry carries (see
        :func:`~repro.sim.cache_store.cached_simulate_chip_cost`)."""
        return {"seed": int(self.seed),
                "workload": type(self.workload).__qualname__}

    def evaluate(self, config: dict) -> float:
        chip = self.chip_for(config)
        if self.cache is not None:
            from repro.sim.cache_store import cached_simulate_chip_cost
            return cached_simulate_chip_cost(chip, self.workload, self.seed,
                                             self.cache)
        return simulate_chip_cost(chip, self.workload, self.seed)


def _value_noise(a0, a1, a2, n, issue, rob):
    """Deterministic pseudo-noise in [-1, 1] from the parameter values.

    A shader-style sin hash: identical for scalar and array inputs, so
    :meth:`SurrogateEvaluator.evaluate` and
    :meth:`SurrogateEvaluator.evaluate_grid` agree bit-for-bit.
    """
    x = (np.asarray(a0, dtype=float) * 12.9898
         + np.asarray(a1, dtype=float) * 78.233
         + np.asarray(a2, dtype=float) * 37.719
         + np.asarray(n, dtype=float) * 4.581
         + np.asarray(issue, dtype=float) * 93.989
         + np.asarray(rob, dtype=float) * 0.5318)
    u = np.mod(np.sin(x) * 43758.5453123, 1.0)
    return 2.0 * u - 1.0
