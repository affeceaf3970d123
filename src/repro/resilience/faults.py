"""Seeded, deterministic fault injection for the resilience test suites.

Chaos testing is only useful when a failing run can be replayed: every
fault here fires at a *content-addressed* point (a specific
configuration, a specific cache entry) a *bounded* number of times,
with the bound enforced through on-disk fuse files that survive worker
crashes and process-pool rebuilds.  Running the same plan twice
therefore injects the same faults at the same points — and a recovered
run can be compared bit-for-bit against a fault-free one.

Fault kinds (:class:`Fault.kind`):

- ``crash`` — hard-kill the evaluating process (``os._exit``), the way
  an OOM kill or segfault takes out a pool worker; the parent observes
  ``BrokenProcessPool``.
- ``transient`` — raise :class:`~repro.errors.TransientError`, the
  retryable taxonomy branch.
- ``fatal`` — raise :class:`~repro.errors.FatalError`, which retry
  logic must *not* swallow.
- ``delay`` — stall the evaluation (for exercising chunk deadlines).

All classes are picklable (plain data + paths), so a
:class:`FaultyEvaluator` rides into
:class:`~repro.dse.fabric.FabricEvaluator` pool workers exactly like
the real evaluators do.  :func:`corrupt_cache_entries` deterministically
garbles persisted :class:`~repro.sim.cache_store.SimCacheStore` entries
for the quarantine tests, and :class:`ExitAfter` simulates a SIGKILL
mid-search for the checkpoint/resume round-trip check.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.dse.evaluate import batch_evaluate, canonical_key, is_feasible
from repro.errors import FatalError, InvalidParameterError, TransientError
from repro.obs import get_registry

__all__ = ["Fault", "FaultPlan", "FaultInjector", "FaultyEvaluator",
           "ExitAfter", "config_token", "corrupt_cache_entries"]

_KINDS = ("crash", "transient", "fatal", "delay")

#: Exit status used by ``crash`` faults and :class:`ExitAfter` — chosen
#: to be recognizable in CI logs (and distinct from pytest's own codes).
CRASH_EXIT_STATUS = 77


def config_token(config: dict) -> str:
    """Short stable token identifying a configuration.

    The fault plan addresses evaluations by this token, so a fault
    follows its configuration through any chunking, batching or worker
    placement.
    """
    payload = repr(canonical_key(config)).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


@dataclass(frozen=True)
class Fault:
    """One injected failure.

    Attributes
    ----------
    kind:
        One of ``crash`` / ``transient`` / ``fatal`` / ``delay``.
    token:
        The :func:`config_token` of the configuration that triggers it
        (or any caller-chosen label when fired manually).
    times:
        How many evaluations of the configuration fire the fault before
        it burns out; ``None`` means every time.
    delay_s:
        Stall duration for ``delay`` faults.
    worker_only:
        Fire only in processes other than the plan's creator — lets a
        persistent ``crash`` fault prove the serial-fallback path
        without also killing the parent.
    """

    kind: str
    token: str
    times: "int | None" = 1
    delay_s: float = 0.0
    worker_only: bool = False

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise InvalidParameterError(
                f"unknown fault kind {self.kind!r}; expected one of {_KINDS}")
        if self.times is not None and self.times < 1:
            raise InvalidParameterError(
                f"times must be >= 1 or None, got {self.times}")
        if self.delay_s < 0:
            raise InvalidParameterError(
                f"delay_s must be >= 0, got {self.delay_s}")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of faults sharing one fuse directory.

    Attributes
    ----------
    seed:
        Recorded for provenance (plans are fully explicit; the seed
        labels which chaos schedule produced them).
    state_dir:
        Directory holding the fuse files that make ``times`` bounds
        crash-proof and cross-process.
    faults:
        The injected failures.
    parent_pid:
        PID of the plan's creator, captured at construction — the
        anchor for ``worker_only`` faults.
    """

    seed: int
    state_dir: str
    faults: tuple[Fault, ...] = ()
    parent_pid: int = field(default_factory=os.getpid)

    def injector(self) -> "FaultInjector":
        """A live injector for this plan."""
        return FaultInjector(self)


class FaultInjector:
    """Executes a :class:`FaultPlan` at content-addressed fire points.

    The injector is consulted with a token (usually
    :func:`config_token` of the configuration about to be evaluated);
    if an un-burned fault matches, it fires.  Fuse accounting uses
    ``O_CREAT | O_EXCL`` files under ``plan.state_dir``, so the
    "fire at most ``times`` times" bound holds across worker crashes,
    pool rebuilds and resumed runs alike.
    """

    def __init__(self, plan: FaultPlan, *,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self.plan = plan
        self.sleep = sleep
        self._by_token: dict[str, list[Fault]] = {}
        for fault in plan.faults:
            self._by_token.setdefault(fault.token, []).append(fault)
        Path(plan.state_dir).mkdir(parents=True, exist_ok=True)

    # Pickling drops the (unpicklable only if customized) sleep hook in
    # workers; they rebuild with the real clock.
    def __getstate__(self) -> dict:
        return {"plan": self.plan}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["plan"])

    def _claim_fuse(self, fault: Fault) -> bool:
        """Atomically claim one firing; False once ``times`` are burned."""
        if fault.times is None:
            return True
        stem = f"{fault.kind}-{fault.token}"
        for i in range(fault.times):
            path = Path(self.plan.state_dir) / f"{stem}.{i}"
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            os.close(fd)
            return True
        return False

    def fire(self, token: str) -> None:
        """Fire every matching un-burned fault for ``token``.

        ``delay`` faults stall and return; ``transient``/``fatal``
        raise; ``crash`` hard-exits the process.  Firing order follows
        plan order, so a plan mixing kinds is deterministic.
        """
        for fault in self._by_token.get(token, ()):
            if fault.worker_only and os.getpid() == self.plan.parent_pid:
                continue
            if not self._claim_fuse(fault):
                continue
            if fault.kind == "delay":
                self.sleep(fault.delay_s)
            elif fault.kind == "transient":
                raise TransientError(
                    f"injected transient fault at {token}")
            elif fault.kind == "fatal":
                raise FatalError(f"injected fatal fault at {token}")
            else:  # crash
                # Flush nothing, warn nobody: a real SIGKILL doesn't.
                os._exit(CRASH_EXIT_STATUS)


class FaultyEvaluator:
    """Evaluator wrapper that consults a fault plan before each point.

    Wraps any scalar/batch evaluator; picklable whenever the inner
    evaluator is, so it drops straight into the process-pool path.  The
    wrapper is cost-transparent: when no fault fires, results are
    bit-identical to the inner evaluator's.
    """

    def __init__(self, inner, plan: FaultPlan) -> None:
        self.inner = inner
        self.plan = plan
        self._injector: "FaultInjector | None" = None

    def _fire(self, config: dict) -> None:
        if self._injector is None:
            self._injector = FaultInjector(self.plan)
        self._injector.fire(config_token(config))

    def __getstate__(self) -> dict:
        return {"inner": self.inner, "plan": self.plan}

    def __setstate__(self, state: dict) -> None:
        self.inner = state["inner"]
        self.plan = state["plan"]
        self._injector = None

    def evaluate(self, config: dict) -> float:
        self._fire(config)
        return float(self.inner.evaluate(config))

    def evaluate_batch(self, configs: Sequence[dict]) -> np.ndarray:
        # Fire point-by-point so a fault lands on its own configuration
        # (and a crash loses exactly the chunk being computed).
        for config in configs:
            self._fire(config)
        return batch_evaluate(self.inner, configs)

    def is_feasible(self, config: dict) -> bool:
        return is_feasible(self.inner, config)


class ExitAfter:
    """Hard-exit the process after ``n`` successful evaluations.

    A deterministic stand-in for "SIGKILL mid-search": wraps an
    evaluator, counts *fresh* work it performs, and ``os._exit``\\ s
    once the budget is consumed — after results have been handed back
    for preceding points, exactly like a kill between two batches.  The
    checkpoint/resume round-trip check runs a search under this wrapper
    in a child process, then resumes from the journal the killed run
    left behind.
    """

    def __init__(self, inner, n: int) -> None:
        if n < 0:
            raise InvalidParameterError(f"n must be >= 0, got {n}")
        self.inner = inner
        self.n = n
        self._done = 0

    def evaluate(self, config: dict) -> float:
        if self._done >= self.n:
            os._exit(CRASH_EXIT_STATUS)
        cost = float(self.inner.evaluate(config))
        self._done += 1
        return cost

    def evaluate_batch(self, configs: Sequence[dict]) -> np.ndarray:
        out = np.array([self.evaluate(c) for c in configs], dtype=float)
        return out

    def is_feasible(self, config: dict) -> bool:
        return is_feasible(self.inner, config)


def corrupt_cache_entries(root: "str | Path", *, seed: int,
                          fraction: float = 0.5,
                          mode: str = "truncate") -> list[Path]:
    """Deterministically damage persisted simulation-cache entries.

    Picks ``fraction`` of the entries under ``root`` (a
    :class:`~repro.sim.cache_store.SimCacheStore` directory) using a
    seeded generator over the *sorted* entry list — the same files are
    hit for the same seed regardless of filesystem order — and damages
    them in place:

    - ``truncate``: cut the JSON in half (a crashed writer's torn file);
    - ``garbage``: overwrite with non-JSON bytes (bit rot);
    - ``wrong_type``: valid JSON whose ``cost`` is not a number.

    Returns the damaged paths.  Publishes
    ``resilience.faults.cache_corrupted`` so chaos runs account for
    what they broke.
    """
    if not 0.0 <= fraction <= 1.0:
        raise InvalidParameterError(
            f"fraction must be in [0, 1], got {fraction}")
    if mode not in ("truncate", "garbage", "wrong_type"):
        raise InvalidParameterError(f"unknown corruption mode {mode!r}")
    root = Path(root)
    entries = sorted(root.glob("??/*.json"))
    if not entries:
        return []
    rng = np.random.default_rng(seed)
    count = max(1, int(round(fraction * len(entries))))
    picked = [entries[int(i)] for i in
              rng.choice(len(entries), size=min(count, len(entries)),
                         replace=False)]
    for path in picked:
        if mode == "truncate":
            text = path.read_text()
            path.write_text(text[: max(1, len(text) // 2)])
        elif mode == "garbage":
            path.write_bytes(b"\x00\xffnot json\xfe")
        else:
            path.write_text('{"cost": "not-a-float"}')
    get_registry().counter("resilience.faults.cache_corrupted").inc(
        len(picked))
    return picked
