"""Batch slicing for design-space exploration.

Two pieces turn the one-point-at-a-time ``evaluate(config)`` walk into
the batch pipeline every search method now rides on:

- :func:`chunked` — deterministic batch slicing (input order preserved).
- :func:`resolve_batch_size` — a search's batch size: its own, or the
  installed :class:`~repro.runconfig.RunConfig`'s (``--batch-size``).

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

from itertools import islice
from typing import Iterable, Iterator

from repro.errors import DesignSpaceError
from repro.runconfig import current

__all__ = ["chunked", "resolve_batch_size"]


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


def resolve_batch_size(batch_size: "int | None") -> int:
    """An explicit batch size, or the installed run config's."""
    if batch_size is None:
        return current().batch_size
    if batch_size < 1:
        raise DesignSpaceError(f"batch size must be >= 1, got {batch_size}")
    return int(batch_size)
