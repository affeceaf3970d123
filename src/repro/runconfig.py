"""One frozen run configuration for the whole process.

Every setting that shapes *how* a run executes — never *what* it
computes — lives in one :class:`RunConfig`:

- ``batch_size``: design points per batched evaluator call, for
  searches not told otherwise;
- ``checkpoint`` / ``resume`` / ``run_id``: where every
  :class:`~repro.dse.evaluate.BudgetedEvaluator` journals itself
  (one file per search method), whether existing journals are restored,
  and the id stamped into the journals this run creates;
- ``sim_cache``: the live :class:`~repro.sim.cache_store.SimCacheStore`
  behind ``cache="default"``, or ``None``.

The process holds one config in a slot.  :func:`current` returns it,
seeding it on first use from the environment (:meth:`RunConfig.from_env`
is the only reader of ``C2BOUND_*`` variables in the package);
:func:`install` replaces it whole.  ``c2bound`` and ``c2bound serve``
build one config from their flags on top of :meth:`RunConfig.from_env`
and install it; library code reads :func:`current` at the moment it
needs a setting.

The slot is a plain module global, so threads (the job server's
executor) see the installed config.  Pool workers get it the way they
get the rest of the parent: a forked worker inherits the slot, a
spawned one seeds its own from the inherited environment.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import DesignSpaceError

if TYPE_CHECKING:
    from repro.sim.cache_store import SimCacheStore

__all__ = ["RunConfig", "current", "install"]

@dataclass(frozen=True)
class RunConfig:
    """The process-wide run settings (see the module docstring).

    ``journal_claims`` is the run's bookkeeping of checkpoint journal
    names already handed out (``aps.jsonl``, ``aps-2.jsonl``, …); it is
    not a setting, and :func:`install` empties it.
    """

    batch_size: int = 2048
    checkpoint: "Path | None" = None
    resume: bool = False
    run_id: "str | None" = None
    sim_cache: "SimCacheStore | None" = None
    journal_claims: "set[str]" = field(default_factory=set, init=False,
                                       repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise DesignSpaceError(
                f"batch size must be >= 1, got {self.batch_size}")

    @classmethod
    def from_env(cls) -> "RunConfig":
        """The defaults, with the environment's one seed applied:
        ``C2BOUND_SIM_CACHE=DIR`` opens a result cache at ``DIR``."""
        cache_root = os.environ.get("C2BOUND_SIM_CACHE")
        if not cache_root:
            return cls()
        from repro.sim.cache_store import SimCacheStore
        return cls(sim_cache=SimCacheStore(cache_root))

    def manifest_config(self) -> dict:
        """The settings as JSON values, for a run manifest's ``config``
        (``run_id`` is the manifest's own top-level field)."""
        return {"batch_size": self.batch_size,
                "checkpoint": (str(self.checkpoint)
                               if self.checkpoint is not None else None),
                "resume": self.resume,
                "sim_cache": (str(self.sim_cache.root)
                              if self.sim_cache is not None else None)}


_slot: "RunConfig | None" = None


def current() -> RunConfig:
    """The installed config, seeded from the environment on first use."""
    global _slot
    if _slot is None:
        _slot = RunConfig.from_env()
    return _slot


def install(config: "RunConfig | None") -> "RunConfig | None":
    """Replace the process's config whole; returns the previous one.

    ``None`` empties the slot, so the next :func:`current` seeds afresh
    from the environment — ``install(previous)`` therefore undoes an
    install exactly.  Installing a config empties its journal claims,
    so consecutive runs in one process map search methods to the same
    journal names.
    """
    global _slot
    previous, _slot = _slot, config
    if config is not None:
        config.journal_claims.clear()
    return previous
