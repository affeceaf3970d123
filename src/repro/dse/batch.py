"""Batch slicing and the process-wide batch knobs for design-space
exploration.

Two pieces turn the one-point-at-a-time ``evaluate(config)`` walk into
the batch pipeline every search method now rides on:

- :func:`chunked` — deterministic batch slicing (input order preserved).
- :class:`BatchDefaults` — the process-wide ``--workers``/``--batch-size``
  knobs the CLI sets and the search methods (and the process pool,
  :class:`~repro.dse.fabric.FabricEvaluator`) resolve against when a
  call site does not pass explicit values.

Determinism contract: every evaluator is a pure function of the
configuration, so chunking and worker count change *wall time only* —
costs, best configurations and budget counts are identical for any
``batch_size >= 1`` and any ``workers >= 1``
(``tests/dse/test_batch_equivalence.py`` enforces this differentially).

Budget accounting stays in the parent process: a
:class:`~repro.dse.evaluate.BudgetedEvaluator` wrapping the pool
deduplicates and charges configurations *before* dispatch, so workers
only ever see configurations that are genuinely being paid for.
(Worker-side ``sim.*`` registry metrics accumulate in the worker
processes and are not merged back — the ``dse.*`` meters the
experiments rely on are parent-side.)
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator

from repro.errors import DesignSpaceError

__all__ = ["BatchDefaults", "chunked", "get_batch_defaults",
           "set_batch_defaults", "resolve_batch_size", "resolve_workers"]


def chunked(items: Iterable, size: int) -> Iterator[list]:
    """Yield consecutive chunks of at most ``size`` items, in order.

    Streams lazily, so a 10^6-point design-space iterator is never
    materialized whole — peak memory is one chunk.
    """
    if size < 1:
        raise DesignSpaceError(f"chunk size must be >= 1, got {size}")
    it = iter(items)
    while True:
        chunk = list(islice(it, size))
        if not chunk:
            return
        yield chunk


@dataclass
class BatchDefaults:
    """Process-wide fallbacks for the batch engine's two knobs.

    Attributes
    ----------
    batch_size:
        Configurations per :meth:`BudgetedEvaluator.evaluate_batch` call
        when a search is not told otherwise.  Bounds peak memory of the
        vectorized surrogate path; large enough that NumPy dominates.
    workers:
        Process count for :class:`~repro.dse.fabric.FabricEvaluator`
        instances that do not pin their own.  ``1`` (the default) means
        inline, no pool.
    """

    batch_size: int = 2048
    workers: int = 1


_defaults = BatchDefaults()


def get_batch_defaults() -> BatchDefaults:
    """The live defaults object (mutated by :func:`set_batch_defaults`)."""
    return _defaults


def set_batch_defaults(*, batch_size: "int | None" = None,
                       workers: "int | None" = None) -> BatchDefaults:
    """Update the process-wide knobs (``--batch-size``/``--workers``).

    Only the arguments given change; sizes must be >= 1.  Returns the
    defaults object for convenience.
    """
    if batch_size is not None:
        if batch_size < 1:
            raise DesignSpaceError(
                f"batch size must be >= 1, got {batch_size}")
        _defaults.batch_size = int(batch_size)
    if workers is not None:
        if workers < 1:
            raise DesignSpaceError(f"workers must be >= 1, got {workers}")
        _defaults.workers = int(workers)
    return _defaults


def resolve_batch_size(batch_size: "int | None") -> int:
    """An explicit batch size, or the process-wide default."""
    if batch_size is None:
        return _defaults.batch_size
    if batch_size < 1:
        raise DesignSpaceError(f"batch size must be >= 1, got {batch_size}")
    return int(batch_size)


def resolve_workers(workers: "int | None") -> int:
    """An explicit worker count, or the process-wide default."""
    if workers is None:
        return _defaults.workers
    if workers < 1:
        raise DesignSpaceError(f"workers must be >= 1, got {workers}")
    return int(workers)
