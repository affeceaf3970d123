"""DSE-as-a-service: the crash-tolerant async job server.

``c2bound serve`` turns the evaluator/search stack into a long-lived
multi-tenant HTTP+JSON service (stdlib asyncio only — no third-party
web framework).  The package splits into a *synchronous core* that is
exhaustively testable (including property tests over arbitrary
submit/crash/restart interleavings) and a thin asyncio shell:

- :mod:`repro.service.wire` — the ``c2bound.job/1`` request schema and
  canonical JSON encoding (byte-stable results);
- :mod:`repro.service.queue` — the bounded priority admission queue
  with explicit backpressure (never unbounded buffering);
- :mod:`repro.service.tenants` — per-tenant concurrency/queue/budget
  quotas with exactly-once settlement;
- :mod:`repro.service.breaker` — the circuit breaker guarding the
  simulation tier;
- :mod:`repro.service.state` — the orchestration core tying queue,
  tenants, breaker and the durable
  :class:`~repro.resilience.job_registry.JobRegistry` together;
- :mod:`repro.service.server` — the asyncio HTTP shell
  (``/v1/jobs``, ``/healthz``, ``/readyz``) that runs jobs through
  :func:`repro.dse.jobs.run_job` in executor threads.

Robustness contracts (verified by ``scripts/service_chaos_check.py``
and ``tests/service``): SIGKILL + restart resumes every in-flight job
to bit-identical results with exactly-once tenant budget accounting;
saturation sheds load with 429 + Retry-After; a tripped simulator tier
degrades to cache/analytical answers marked ``degraded`` instead of
erroring.  See ``docs/SERVICE.md``.
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.service.breaker import BreakerState, CircuitBreaker
    from repro.service.queue import AdmissionQueue, QueueEntry
    from repro.service.state import JobRecord, ServiceConfig, ServiceState
    from repro.service.tenants import TenantAccounts, TenantQuota
    from repro.service.wire import (
        JOB_SCHEMA,
        RESULT_SCHEMA,
        JobRequest,
        canonical_json,
        parse_job_request,
    )

__all__ = [
    "JOB_SCHEMA",
    "RESULT_SCHEMA",
    "JobRequest",
    "canonical_json",
    "parse_job_request",
    "AdmissionQueue",
    "QueueEntry",
    "TenantQuota",
    "TenantAccounts",
    "BreakerState",
    "CircuitBreaker",
    "JobRecord",
    "ServiceConfig",
    "ServiceState",
]

__getattr__, __dir__ = attach(__name__, __file__)
