"""Checkpoint/resume journals for long-running design-space searches.

Schema ``c2bound.checkpoint/1``: an append-only JSONL file whose first
line is a header and whose remaining lines are records::

    {"type": "header", "schema": "c2bound.checkpoint/1", "run_id": "…",
     "method": "aps", "meta": {…}}
    {"type": "eval", "k": [["a0", 1.0], …], "c": "0.0123…"}
    {"type": "state", "tag": "generation", "data": {…}}

- **eval** records are the evaluation ledger: one line per *charged*
  (fresh) evaluation, written by
  :class:`~repro.dse.evaluate.BudgetedEvaluator` the moment the budget
  is spent.  Keys are the canonical configuration items
  (:func:`~repro.dse.evaluate.canonical_key`); costs are ``repr(float)``
  strings, which round-trip IEEE-754 doubles exactly.
- **state** records carry optional search-side snapshots (RNG state,
  generation counters); searches that replay deterministically do not
  need them, but the schema reserves the slot.

Crash safety is the append-only log rule of :mod:`repro.io.applog`:
a torn final line is dropped (``resilience.checkpoint.torn_tail``), a
corrupt *middle* line raises :class:`~repro.errors.CheckpointError`.

Resume model — **replay with a warm ledger**: every search in
:mod:`repro.dse` is a deterministic function of its seed, so a resumed
run re-executes the search from the start while the restored ledger
answers already-paid evaluations from cache with their exact recorded
costs *and* restores the budget counters.  The resumed run therefore
reproduces the interrupted run's trajectory bit-for-bit and ends in the
state an uninterrupted run would have reached — same best
configuration, same cost, same total evaluation count
(``tests/resilience`` enforces this; knobs in ``docs/ROBUSTNESS.md``).

The CLI's ``--checkpoint DIR`` / ``--resume`` flags set the installed
:class:`~repro.runconfig.RunConfig`'s ``checkpoint`` / ``resume``: every
:class:`~repro.dse.evaluate.BudgetedEvaluator` then journals itself
into the directory (one file per search method, via
:func:`journal_for_method`) with no search-code changes.
"""

from __future__ import annotations

import hashlib
import uuid
from pathlib import Path
from typing import IO, Iterator

from repro.errors import CheckpointError
from repro.io.applog import AppendLog, LogScan, read_first, read_log
from repro.obs import get_registry
from repro.runconfig import current

__all__ = ["CHECKPOINT_SCHEMA", "CheckpointJournal", "checkpoint_hash",
           "load_journal", "journal_for_method", "read_journal_headers",
           "new_run_id"]

CHECKPOINT_SCHEMA = "c2bound.checkpoint/1"


def new_run_id() -> str:
    """A fresh run identifier (hex, collision-free for our purposes)."""
    return uuid.uuid4().hex[:16]


def checkpoint_hash(path: "str | Path") -> "str | None":
    """SHA-256 over a journal's bytes (``None`` when it doesn't exist).

    Recorded in resumed runs' manifests so the exact ledger a run
    restarted from is auditable.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError:
        return None
    return hashlib.sha256(data).hexdigest()


def _encode_key(key: tuple) -> list:
    """Canonical-key tuple → JSON array (floats exact via repr)."""
    out = []
    for name, value in key:
        if isinstance(value, float):
            out.append([name, "f", repr(value)])
        else:
            out.append([name, "v", value])
    return out


def _decode_key(items: list) -> tuple:
    """Inverse of :func:`_encode_key`."""
    decoded = []
    for name, tag, value in items:
        decoded.append((name, float(value) if tag == "f" else value))
    return tuple(decoded)


class CheckpointJournal(AppendLog):
    """One search's append-only evaluation ledger.

    Use :meth:`create` for a fresh journal (truncates any existing
    file) or :meth:`open_resume` to append to an existing one after
    reading its records back.  Not constructed directly.
    """

    def __init__(self, path: Path, header: dict, handle: "IO[str]") -> None:
        super().__init__(path, header, handle)
        self._ctr_appended = get_registry().counter(
            "resilience.checkpoint.appended")

    # ---- constructors -----------------------------------------------------

    @classmethod
    def create(cls, path: "str | Path", *, method: "str | None" = None,
               run_id: "str | None" = None,
               meta: "dict | None" = None) -> "CheckpointJournal":
        """Start a fresh journal at ``path`` (truncating any old one)."""
        return cls._create(path, {
            "type": "header",
            "schema": CHECKPOINT_SCHEMA,
            "run_id": run_id if run_id is not None else new_run_id(),
            "method": method,
            "meta": dict(meta) if meta else {},
        })

    @classmethod
    def open_resume(cls, path: "str | Path", *,
                    method: "str | None" = None) -> "tuple[CheckpointJournal, list[tuple[tuple, float]], list[dict]]":
        """Open an existing journal for appending.

        Returns ``(journal, evals, states)`` where ``evals`` is the
        restored ledger (canonical key, exact cost) in append order and
        ``states`` the raw state records.  When ``method`` is given it
        must match the header's.

        A missing or header-less file degenerates to :meth:`create`
        with empty restores — resuming a run that never checkpointed
        is just a fresh run.
        """
        scan = _scan(path)
        if scan is None:
            return cls.create(path, method=method), [], []
        evals, states = _split_records(scan)
        written_by = scan.header.get("method")
        if method is not None and written_by not in (None, method):
            raise CheckpointError(
                f"checkpoint {scan.path} was written by method "
                f"{written_by!r}, not {method!r}")
        return cls._reopen(scan), evals, states

    # ---- writing ----------------------------------------------------------

    def append_eval(self, key: tuple, cost: float) -> None:
        """Ledger one charged evaluation (flushed immediately)."""
        self.append_evals([(key, cost)])

    def append_evals(self, entries: "list[tuple[tuple, float]]") -> None:
        """Ledger a batch of charged evaluations with one flush."""
        if not entries:
            return
        self.append({"type": "eval", "k": _encode_key(key),
                     "c": repr(float(cost))} for key, cost in entries)
        self._ctr_appended.inc(len(entries))

    def append_state(self, tag: str, data: dict) -> None:
        """Record an optional search-state snapshot."""
        self.append([{"type": "state", "tag": tag, "data": data}])


def _scan(path: "str | Path") -> "LogScan | None":
    return read_log(path, CHECKPOINT_SCHEMA, CheckpointError,
                    get_registry().counter("resilience.checkpoint.torn_tail"))


def _split_records(
        scan: LogScan) -> "tuple[list[tuple[tuple, float]], list[dict]]":
    """Body records → (evaluation ledger, state snapshots)."""
    evals: list[tuple[tuple, float]] = []
    states: list[dict] = []
    for record in scan.records:
        kind = record.get("type")
        if kind == "eval":
            try:
                evals.append((_decode_key(record["k"]),
                              float(record["c"])))
            except (KeyError, TypeError, ValueError) as exc:
                raise CheckpointError(f"checkpoint {scan.path} has a "
                                      "malformed eval record") from exc
        elif kind == "state":
            states.append(record)
        else:
            raise CheckpointError(
                f"checkpoint {scan.path} has an unknown record type {kind!r}")
    return evals, states


def load_journal(path: "str | Path") -> "tuple[dict, list[tuple[tuple, float]], list[dict]]":
    """Read a journal back: ``(header, evals, states)``."""
    scan = _scan(path)
    if scan is None:
        raise CheckpointError(f"checkpoint {path} is missing or has no header")
    evals, states = _split_records(scan)
    return scan.header, evals, states


def read_journal_headers(directory: "str | Path") -> "list[dict]":
    """Headers of every journal in a checkpoint directory.

    Used for manifest lineage: the ``run_id`` of each journal names the
    run that *created* it (resumes append, so the header survives).
    Unreadable or header-less files are skipped — lineage reporting
    must never fail a run.
    """
    headers: list[dict] = []
    for path in sorted(Path(directory).glob("*.jsonl")):
        header = read_first(path)
        if (header is not None and header.get("type") == "header"
                and header.get("schema") == CHECKPOINT_SCHEMA):
            headers.append({**header, "path": str(path)})
    return headers


def _candidate_stems(method: "str | None") -> "Iterator[str]":
    stem = method if method else "search"
    yield stem
    i = 2
    while True:
        yield f"{stem}-{i}"
        i += 1


def journal_for_method(method: "str | None"):
    """Open this run's journal for a search method, per the installed
    :class:`~repro.runconfig.RunConfig`.

    Returns ``None`` when journaling is off, otherwise
    ``(journal, restored_evals)``.  Each call claims the next free name
    for the method (``aps.jsonl``, ``aps-2.jsonl``, …) — deterministic
    across runs, so a resumed process maps the same searches to the
    same journals it wrote before dying.
    """
    config = current()
    if config.checkpoint is None:
        return None
    for stem in _candidate_stems(method):
        path = Path(config.checkpoint) / f"{stem}.jsonl"
        key = str(path)
        if key in config.journal_claims:
            continue
        config.journal_claims.add(key)
        if config.resume:
            journal, evals, _states = CheckpointJournal.open_resume(
                path, method=method)
            return journal, evals
        return CheckpointJournal.create(
            path, method=method, run_id=config.run_id), []
    raise AssertionError("unreachable")  # pragma: no cover
