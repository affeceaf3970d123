"""Durable job registry for the DSE job server.

Schema ``c2bound.jobs/1``: an append-only JSONL file whose first line
is a header and whose remaining lines are job lifecycle records::

    {"type": "header", "schema": "c2bound.jobs/1", "run_id": "…",
     "meta": {…}}
    {"type": "submit", "job": "…", "tenant": "acme", "priority": 1,
     "seq": 7, "spec": {…}}
    {"type": "done", "job": "…", "status": "done", "charged": 123,
     "result": {…}}
    {"type": "cancel", "job": "…"}

The registry is the server's source of truth across restarts: a job
with a ``submit`` record but no terminal record was in flight (or
queued) when the process died and must be re-enqueued with its
*original* ``(priority, seq)`` — admission order is durable, so the
resumed schedule is the schedule the crashed server would have run.  A
terminal ``done`` record carries the canonical result document and the
evaluation count charged to the tenant, so finished work is servable
after a restart without re-running anything and budget accounting is
replayed exactly-once.

Crash safety is the append-only log rule of :mod:`repro.io.applog`:
a torn final line is dropped (``resilience.jobs.torn_tail``), anything
else malformed is refused with :class:`~repro.errors.CheckpointError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import IO

from repro.errors import CheckpointError
from repro.io.applog import AppendLog, LogScan, read_log
from repro.obs import get_registry
from repro.resilience.checkpoint import new_run_id

__all__ = ["JOBS_SCHEMA", "JobRegistry", "RegistryReplay", "replay_registry"]

JOBS_SCHEMA = "c2bound.jobs/1"

_TERMINAL = ("done", "failed", "timeout", "cancelled")


@dataclass
class RegistryReplay:
    """What a registry file says happened before this process started.

    Attributes
    ----------
    submits:
        Every ``submit`` record in append (= admission) order.
    terminal:
        Job id → its terminal record (``done``/``cancel``).
    pending:
        The ``submit`` records with no terminal record — the jobs a
        restarted server must re-enqueue, in original admission order.
    next_seq:
        One past the largest ``seq`` seen, so new admissions continue
        the durable arrival order.
    """

    submits: "list[dict]" = field(default_factory=list)
    terminal: "dict[str, dict]" = field(default_factory=dict)
    pending: "list[dict]" = field(default_factory=list)
    next_seq: int = 0


class JobRegistry(AppendLog):
    """Append-only job ledger (one per server state directory).

    Use :meth:`create` for a fresh ledger or :meth:`open_resume` to
    append to an existing one after replaying it.  Not constructed
    directly.
    """

    def __init__(self, path: Path, header: dict, handle: "IO[str]") -> None:
        super().__init__(path, header, handle)
        self._ctr_appended = get_registry().counter(
            "resilience.jobs.appended")

    @classmethod
    def create(cls, path: "str | Path", *, run_id: "str | None" = None,
               meta: "dict | None" = None) -> "JobRegistry":
        """Start a fresh registry at ``path`` (truncating any old one)."""
        return cls._create(path, {
            "type": "header", "schema": JOBS_SCHEMA,
            "run_id": run_id if run_id is not None else new_run_id(),
            "meta": dict(meta) if meta else {}})

    @classmethod
    def open_resume(cls, path: "str | Path") -> "tuple[JobRegistry, RegistryReplay]":
        """Open an existing registry for appending, replaying it first.

        A missing or header-less file degenerates to :meth:`create`
        with an empty replay.  A torn final line is cut off before
        appending resumes.
        """
        scan = _scan(path)
        if scan is None:
            return cls.create(path), RegistryReplay()
        replay = _fold_records(scan)
        return cls._reopen(scan), replay

    def _append(self, record: dict) -> None:
        self.append([record])
        self._ctr_appended.inc()

    def append_submit(self, *, job_id: str, tenant: str, priority: int,
                      seq: int, spec: dict) -> None:
        """Ledger an admitted job the moment admission succeeds."""
        self._append({"type": "submit", "job": str(job_id),
                      "tenant": str(tenant), "priority": int(priority),
                      "seq": int(seq), "spec": dict(spec)})

    def append_done(self, *, job_id: str, status: str, charged: int,
                    result: "dict | None") -> None:
        """Ledger a job's terminal outcome (``done``/``failed``/``timeout``)."""
        if status not in _TERMINAL:
            raise CheckpointError(
                f"job status {status!r} is not terminal "
                f"(expected one of {_TERMINAL})")
        self._append({"type": "done", "job": str(job_id),
                      "status": str(status), "charged": int(charged),
                      "result": result})

    def append_cancel(self, *, job_id: str) -> None:
        """Ledger a cancellation of a still-queued job."""
        self._append({"type": "cancel", "job": str(job_id)})


def _scan(path: "str | Path") -> "LogScan | None":
    return read_log(path, JOBS_SCHEMA, CheckpointError,
                    get_registry().counter("resilience.jobs.torn_tail"))


def _fold_records(scan: LogScan) -> RegistryReplay:
    """Body records → the replay view a restarting server needs."""
    path = scan.path
    replay = RegistryReplay()
    for record in scan.records:
        kind = record.get("type")
        if kind == "submit":
            job_id = record.get("job")
            if not isinstance(job_id, str) or "seq" not in record:
                raise CheckpointError(
                    f"job registry {path} has a malformed submit record")
            replay.submits.append(record)
            replay.next_seq = max(replay.next_seq, int(record["seq"]) + 1)
        elif kind == "done":
            replay.terminal[str(record.get("job"))] = record
        elif kind == "cancel":
            replay.terminal[str(record.get("job"))] = {
                "type": "done", "job": record.get("job"),
                "status": "cancelled", "charged": 0, "result": None}
        else:
            raise CheckpointError(
                f"job registry {path} has an unknown record type {kind!r}")
    replay.pending = [s for s in replay.submits
                      if s["job"] not in replay.terminal]
    return replay


def replay_registry(path: "str | Path") -> RegistryReplay:
    """Read a registry back without opening it for append.

    A missing or header-less file replays as an empty registry.
    """
    scan = _scan(path)
    return RegistryReplay() if scan is None else _fold_records(scan)
