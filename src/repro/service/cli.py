"""``c2bound serve`` — the job-server entry point.

Owns its own flag set (dispatched from :mod:`repro.cli` before the
experiment parser).  Typical invocations::

    c2bound serve --state-dir /var/lib/c2bound --port 8080
    c2bound serve --state-dir st --port 0 \\
        --tenant alice:2:16:50000 --tenant bob:1:8: \\
        --queue-depth 32 --max-running 4

``--tenant NAME:CONC:QUEUED[:BUDGET]`` sets a per-tenant quota (an
empty/omitted BUDGET means unlimited evaluations).  ``--port 0`` binds
an ephemeral port and publishes it in ``<state-dir>/server.json``.
Restarting with the same ``--state-dir`` *is* crash recovery.
"""

from __future__ import annotations

import argparse
import asyncio
from dataclasses import replace
from pathlib import Path

from repro.errors import InvalidParameterError, ReproError
from repro.runconfig import RunConfig, install
from repro.service.server import JobServer, serve_until_signalled
from repro.service.state import ServiceConfig, ServiceState
from repro.service.tenants import TenantQuota

__all__ = ["main", "build_config"]


def _parse_tenant(spec: str) -> "tuple[str, TenantQuota]":
    """``NAME:CONC:QUEUED[:BUDGET]`` → (name, quota)."""
    parts = spec.split(":")
    if len(parts) not in (3, 4) or not parts[0]:
        raise InvalidParameterError(
            f"--tenant wants NAME:CONC:QUEUED[:BUDGET], got {spec!r}")
    name = parts[0]
    try:
        conc = int(parts[1])
        queued = int(parts[2])
        budget = int(parts[3]) if len(parts) == 4 and parts[3] else None
    except ValueError as exc:
        raise InvalidParameterError(
            f"--tenant {spec!r}: quota fields must be integers") from exc
    return name, TenantQuota(max_concurrency=conc, max_queued=queued,
                             budget=budget)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="c2bound serve",
        description="Serve sweep/search jobs over HTTP+JSON with "
                    "admission control, graceful degradation and "
                    "crash-tolerant recovery.")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8742,
                        help="bind port; 0 picks a free one and records "
                             "it in <state-dir>/server.json")
    parser.add_argument("--state-dir", type=Path, required=True,
                        metavar="DIR",
                        help="durable state: job registry, per-job "
                             "checkpoints and traces (reuse = resume)")
    parser.add_argument("--max-running", type=int, default=2, metavar="N",
                        help="jobs executing concurrently (default 2)")
    parser.add_argument("--job-workers", type=int, default=1, metavar="N",
                        help="process-pool workers inside each job "
                             "(default 1 = inline)")
    parser.add_argument("--queue-depth", type=int, default=64, metavar="N",
                        help="admission queue depth before 429s (default 64)")
    parser.add_argument("--max-pending-kib", type=int, default=8192,
                        metavar="KIB",
                        help="pending-spec memory watermark (default 8192)")
    parser.add_argument("--tenant", action="append", default=[],
                        metavar="NAME:CONC:QUEUED[:BUDGET]",
                        help="per-tenant quota (repeatable)")
    parser.add_argument("--default-concurrency", type=int, default=2,
                        metavar="N",
                        help="concurrency quota for unlisted tenants")
    parser.add_argument("--default-queued", type=int, default=16,
                        metavar="N",
                        help="queued-jobs quota for unlisted tenants")
    parser.add_argument("--breaker-threshold", type=int, default=3,
                        metavar="N",
                        help="consecutive simulator failures that trip "
                             "the circuit breaker (default 3)")
    parser.add_argument("--breaker-reset-s", type=float, default=30.0,
                        metavar="S",
                        help="seconds an open breaker waits before a "
                             "half-open probe (default 30)")
    parser.add_argument("--sim-cache", type=Path, default=None,
                        metavar="DIR",
                        help="persistent simulation cache shared by all "
                             "jobs (also enables degraded cache hits)")
    parser.add_argument("--write-behind", type=int, default=0, metavar="N",
                        help="buffer N cache puts before flushing to disk "
                             "(flushed on graceful shutdown)")
    return parser


def build_config(args: argparse.Namespace) -> ServiceConfig:
    """Translate parsed flags into a :class:`ServiceConfig`."""
    quotas = dict(_parse_tenant(spec) for spec in args.tenant)
    return ServiceConfig(
        max_depth=args.queue_depth,
        max_pending_bytes=args.max_pending_kib << 10,
        quotas=quotas,
        default_quota=TenantQuota(max_concurrency=args.default_concurrency,
                                  max_queued=args.default_queued),
        breaker_threshold=args.breaker_threshold,
        breaker_reset_s=args.breaker_reset_s)


def main(argv: "list[str] | None" = None) -> int:
    """Entry point for ``c2bound serve``."""
    args = build_parser().parse_args(argv)
    try:
        config = build_config(args)
    except ReproError as exc:
        print(f"error: {exc}")
        return 2
    run_config = RunConfig.from_env()
    if args.sim_cache is not None:
        from repro.sim.cache_store import SimCacheStore, install_signal_flush
        run_config = replace(run_config, sim_cache=SimCacheStore(
            args.sim_cache, write_behind=args.write_behind))
        install_signal_flush()
    install(run_config)
    try:
        state = ServiceState(args.state_dir, config)
        server = JobServer(state, host=args.host, port=args.port,
                           max_running=args.max_running,
                           job_workers=args.job_workers)
    except ReproError as exc:
        print(f"error: {exc}")
        return 2
    print(f"c2bound serve: state in {args.state_dir}, "
          f"{len(state.jobs)} job(s) replayed "
          f"({sum(1 for j in state.jobs.values() if j.resumed)} resumed)")
    asyncio.run(serve_until_signalled(server))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
