"""Runtime concurrency sanitizer: the dynamic half of the C2L2xx rules.

The static flow pass (:mod:`repro.analysis.flow`) proves what it can
see; this module watches what actually happens.  When the installed
:class:`~repro.runconfig.RunConfig` has ``sanitize`` set (seeded by
``C2BOUND_SANITIZE=1``), :class:`~repro.sim.cache_store.SimCacheStore`
arms a per-instance check at its disk-write choke point
(``_persist``): a write landing in a shard the store does not own is a
single-writer violation — by construction unreachable through the
public ``put()`` path, so any finding is a real bug (state smuggled
into the write-behind buffer, a scoping bug in the fabric, a future
refactor breaking ownership).  The fabric stamps each scoped slot store
with ``sanitize_slot`` so findings name the offending worker slot.

Findings are JSONL records (schema ``c2bound.sanitize/1``), appended to
the config's ``sanitize_log`` (``$C2BOUND_SANITIZE_LOG``) when set, and
always counted on the
``analysis.sanitize.findings`` metric — so the chaos/fabric equivalence
suites double as a race detector by asserting the log stays empty.

Disabled (the default), the cost is one cached boolean test on a path
that is about to do file I/O anyway — unmeasurable, which
``tests/analysis/test_sanitizer_overhead.py`` guards.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Protocol

from repro.errors import AnalysisError
from repro.obs import get_registry
from repro.runconfig import current

__all__ = ["SANITIZE_SCHEMA", "record_finding", "check_shard_write",
           "load_findings"]

SANITIZE_SCHEMA = "c2bound.sanitize/1"

#: serializes appends from threads sharing one process (pool workers
#: are separate processes and rely on O_APPEND line atomicity instead)
_LOG_LOCK = threading.Lock()


class _ShardedStore(Protocol):
    """What :func:`check_shard_write` needs from a store."""

    owned_shards: "frozenset[int] | None"

    @property
    def root(self) -> Any: ...


def record_finding(kind: str, **fields: Any) -> "dict[str, Any]":
    """Emit one sanitizer finding; returns the record.

    The record always reaches the ``analysis.sanitize.findings``
    counter; it additionally lands in the JSONL log when the run
    config's ``sanitize_log`` points somewhere.  Recording never raises:
    a sanitizer must not turn an observation into a crash.
    """
    record: "dict[str, Any]" = {"schema": SANITIZE_SCHEMA, "kind": kind,
                                "pid": os.getpid()}
    record.update(fields)
    get_registry().counter("analysis.sanitize.findings").inc()
    path = current().sanitize_log
    if path is not None:
        # Imported here: every cache store imports this module, and
        # only a logged finding needs the log format.
        from repro.io.applog import encode
        try:
            with _LOG_LOCK:
                with open(path, "a", encoding="utf-8") as handle:
                    handle.write(encode(record))
        except OSError:
            pass
    return record


def check_shard_write(store: "_ShardedStore", key: str,
                      shard: int) -> "dict[str, Any] | None":
    """Ownership assertion at the disk-write choke point.

    Returns the finding for a foreign-shard write, ``None`` when the
    write is legal (unrestricted store, or shard owned).
    """
    owned = store.owned_shards
    if owned is None or shard in owned:
        return None
    return record_finding(
        "foreign-shard-write",
        shard=shard,
        key=key,
        owned_shards=sorted(owned),
        slot=getattr(store, "sanitize_slot", None),
        store_root=str(store.root),
    )


def load_findings(path: "str | os.PathLike[str]",
                  ) -> "list[dict[str, Any]]":
    """Parse a findings log; a missing file or a torn tail reads as none."""
    from repro.io.applog import read_records

    try:
        return read_records(path, AnalysisError)[0]
    except OSError:
        return []
