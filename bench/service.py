"""``service``: open-loop load on ``python -m repro.service``.

The only workload that writes (every job appends a
``c2bound.checkpoint/1`` journal of about 160 B per evaluation plus
registry records) and the only one with queueing.  One single-threaded
asyncio client keeps at most ``nproc`` connections open, sends each job
when it falls due whatever the server is doing (open loop: independent
users), and polls each outstanding job at most every 10 ms.  A job's
latency runs from its due time, not its send time, to the first poll
that sees it done, so a stalled server or client is charged to every
job it delays; how late the generator ran is reported beside it.

Every batch of jobs is 70% small surrogate sweeps (1,000 points), 20%
large ones (5,832 points) and 10% simulator sweeps over 12 ``gups``
chips that set-up warms into the server's result store, shuffled by the
seed.  Both runs measure a ``light`` phase (4 jobs/s) and then a
``heavy`` phase (8 jobs/s), each one continuous schedule, so a backlog
that builds up over a phase stays in its latencies.  The traced run
adds a bisection for the highest rate in [8, 40] jobs/s whose p90 stays
within 500 ms without a growing backlog (Gunther's
geometric-scalability reading, PAPERS.md: latency at fixed rates plus
the highest rate that holds the limit).
"""

from __future__ import annotations

import asyncio
import json
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.dse.jobs import run_job
from repro.service.wire import canonical_json

from bench.context import Run
from bench.stats import digest, median, p90, percentile, summarize

POLL_S = 0.010
HEAVY_RATE = 8.0
#: ``(name, jobs/s, share of the measuring time)``; at 20 s the heavy
#: phase holds the 100 jobs a 90th percentile needs.
PHASES = (("light", 4.0, 0.375), ("heavy", HEAVY_RATE, 0.625))
PROBE_RANGE = (8.0, 40.0)
PROBES = 3
LIMIT_P90_S = 0.5
#: A probe fails if more than this many seconds of arrivals are still
#: unfinished when its schedule ends (the backlog is growing).
BACKLOG_S = 0.5
KIND_SHARES = (("small", 0.7), ("large", 0.2), ("sim", 0.1))
DRAIN_S = 60.0


# -- the job mix --------------------------------------------------------------

def _geom(lo: float, hi: float, k: int) -> "list[float]":
    return [float(v) for v in np.geomspace(lo, hi, k)]


def catalog(seed: int, smoke: bool) -> "list[tuple[str, dict]]":
    """The seed's distinct job specs as ``(kind, spec)``.

    Surrogate specs differ in their application profile (so no two
    kinds share a result); the simulator spec's chips are the ones
    set-up warms.
    """
    rng = np.random.default_rng(seed)
    k_small, k_large, n_large = (5, 6, 2) if smoke else (10, 9, 8)

    def surrogate(k: int, ns: "list[int]") -> dict:
        app = {"f_seq": round(float(rng.uniform(0.01, 0.1)), 3),
               "f_mem": round(float(rng.uniform(0.2, 0.5)), 3),
               "concurrency": float(rng.choice([1, 2, 4, 8])),
               "g_exponent": float(rng.choice([0.5, 1.0, 1.5]))}
        params = [{"name": "a0", "values": _geom(0.1, 4.0, k)},
                  {"name": "a1", "values": _geom(0.05, 2.0, k)},
                  {"name": "a2", "values": _geom(0.05, 4.0, k)},
                  {"name": "n", "values": ns}]
        return {"kind": "sweep", "method": "brute",
                "space": {"params": params},
                "evaluator": {"type": "surrogate", "app": app,
                              "noise": 0.02}}

    out = []
    for _ in range(3):
        out.append(("small", surrogate(k_small, [int(rng.choice(
            [8, 16, 32, 64]))])))
    for _ in range(2):
        out.append(("large", surrogate(
            k_large, [2 ** i for i in range(1, 1 + n_large)])))
    chips = [{"name": "n", "values": [2, 4] if smoke else [2, 4, 8]},
             {"name": "l1_kib", "values": [16.0, 32.0]},
             {"name": "l2_kib", "values": [128.0] if smoke else [128.0, 256.0]}]
    out.append(("sim", {
        "kind": "sweep", "method": "brute", "space": {"params": chips},
        "evaluator": {"type": "simulator", "workload": "gups",
                      "workload_args": {"updates": 500 if smoke else 2000},
                      "seed": int(seed)}}))
    return out


class JobMix:
    """Seeded stream of catalog indices in the :data:`KIND_SHARES` mix.

    Every batch holds each kind in its exact share (largest remainder),
    shuffled, so runs on different seeds carry the same amount of work
    and differ only in order and in the catalog's values.
    """

    def __init__(self, seed: int, entries: "list[tuple[str, dict]]") -> None:
        self.rng = np.random.default_rng([seed, 1])
        self.by_kind = {kind: [i for i, (k, _) in enumerate(entries)
                               if k == kind] for kind, _ in KIND_SHARES}

    def take(self, n: int) -> "list[int]":
        exact = [n * share for _, share in KIND_SHARES]
        counts = [int(x) for x in exact]
        by_remainder = sorted(range(len(exact)),
                              key=lambda k: counts[k] - exact[k])
        for k in by_remainder[:n - sum(counts)]:
            counts[k] += 1
        out = []
        for (kind, _), count in zip(KIND_SHARES, counts):
            choices = self.by_kind[kind]
            out += [choices[int(i)]
                    for i in self.rng.integers(len(choices), size=count)]
        return [out[int(i)] for i in self.rng.permutation(n)]


# -- HTTP ---------------------------------------------------------------------

async def request(port: int, method: str, path: str,
                  body: "dict | None" = None) -> "tuple[int, bytes]":
    """One HTTP/1.1 exchange (the server closes every connection)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        data = b"" if body is None else json.dumps(body).encode()
        writer.write(f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
                     f"Content-Length: {len(data)}\r\n\r\n".encode() + data)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
    head, _, payload = raw.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), payload


# -- the open-loop client -----------------------------------------------------

@dataclass
class Job:
    """One scheduled job and what the client saw of it (monotonic s)."""

    entry: int
    due: float
    #: Delay of the first poll after submission, in ``[0, POLL_S)``.
    #: Spreading it over the poll interval keeps a job that finishes just
    #: after a poll from adding a whole interval to every latency alike,
    #: which would make the median jump by ``POLL_S`` as run times
    #: cross a multiple of it.
    poll_phase: float = 0.0
    sent: float = 0.0
    accepted: float = 0.0
    seen_done: float = 0.0
    status: str = "unsent"
    job_id: str = ""
    result: "dict | None" = None
    polls: "list[float]" = field(default_factory=list)

    @property
    def latency(self) -> float:
        return self.seen_done - self.due

    @property
    def late(self) -> float:
        return self.sent - self.due


@dataclass
class Phase:
    """The outcome of one fixed-rate schedule."""

    rate: float
    jobs: "list[Job]"
    end: float
    #: wall-clock minus monotonic time, to place spans on the wall clock
    wall_offset: float

    def done(self) -> "list[Job]":
        return [j for j in self.jobs if j.status == "done"]

    def latencies(self) -> "list[float]":
        return [j.latency for j in self.done()]

    def backlog(self) -> int:
        """Jobs not yet seen done when the schedule ended."""
        return sum(1 for j in self.jobs
                   if j.status != "done" or j.seen_done > self.end)

    def passes(self) -> bool:
        lat = self.latencies()
        return (len(lat) == len(self.jobs)
                and percentile(lat, 90) <= LIMIT_P90_S
                and self.backlog() <= self.rate * BACKLOG_S)


class Client:
    """Open-loop load generator over at most ``connections`` sockets."""

    def __init__(self, port: int, entries: "list[tuple[str, dict]]",
                 connections: int) -> None:
        self.port = port
        self.entries = entries
        self.connections = connections

    async def _call(self, slots, method, path, body=None):
        async with slots:
            t0 = time.monotonic()
            status, payload = await request(self.port, method, path, body)
            return t0, time.monotonic(), status, payload

    async def _run(self, job: Job, slots) -> None:
        loop = asyncio.get_running_loop()
        await asyncio.sleep(max(0.0, job.due - loop.time()))
        body = {"schema": "c2bound.job/1", "tenant": "bench",
                "job": self.entries[job.entry][1]}
        job.sent, job.accepted, status, payload = await self._call(
            slots, "POST", "/v1/jobs", body)
        if status != 202:
            job.status = f"http-{status}"
            return
        job.job_id = json.loads(payload)["job_id"]
        job.status = "queued"
        last = job.accepted - POLL_S + job.poll_phase
        while True:
            await asyncio.sleep(max(0.0, last + POLL_S - loop.time()))
            last, seen, status, payload = await self._call(
                slots, "GET", f"/v1/jobs/{job.job_id}")
            job.polls.append(seen - last)
            doc = json.loads(payload) if status == 200 else {}
            job.status = doc.get("status", f"http-{status}")
            if job.status not in ("queued", "running"):
                job.seen_done = seen
                job.result = doc.get("result")
                return

    async def _phase(self, rate: float, entries: "list[int]") -> Phase:
        loop = asyncio.get_running_loop()
        slots = asyncio.Semaphore(self.connections)
        start = loop.time() + 0.05
        # Golden-ratio steps spread the first polls evenly over [0, POLL_S).
        jobs = [Job(e, start + i / rate, POLL_S * ((i * 0.6180339887) % 1.0))
                for i, e in enumerate(entries)]
        tasks = [asyncio.create_task(self._run(j, slots)) for j in jobs]
        end = start + len(jobs) / rate
        _, pending = await asyncio.wait(tasks, timeout=end - loop.time()
                                        + DRAIN_S)
        for task in pending:
            task.cancel()
        outcomes = await asyncio.gather(*tasks, return_exceptions=True)
        for job, outcome in zip(jobs, outcomes):
            if isinstance(outcome, BaseException):  # cancelled: timed out
                job.status = f"error: {type(outcome).__name__}: {outcome}"
        return Phase(rate, jobs, end, time.time() - loop.time())

    def phase(self, rate: float, entries: "list[int]") -> Phase:
        """Send ``entries`` at ``rate`` jobs/s; wait until all finish."""
        return asyncio.run(self._phase(rate, entries))

    def get(self, path: str) -> "tuple[int, bytes]":
        return asyncio.run(request(self.port, "GET", path))


# -- the server ---------------------------------------------------------------

class Server:
    """One ``python -m repro.service`` process with fresh state."""

    def __init__(self, run: Run, name: str) -> None:
        self.state = run.workdir / f"{name}-state"
        self.store = run.workdir / f"{name}-store"
        for path in (self.state, self.store):
            shutil.rmtree(path, ignore_errors=True)
        n = str(run.nproc)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "--state-dir",
             str(self.state), "--port", "0", "--max-running", n,
             "--sim-cache", str(self.store), "--queue-depth", "4096",
             "--max-pending-kib", "262144", "--default-concurrency", n,
             "--default-queued", "4096"],
            stdout=subprocess.DEVNULL)
        self.port = self._wait_ready()

    def _wait_ready(self, timeout_s: float = 60.0) -> int:
        deadline = time.monotonic() + timeout_s
        discovery = self.state / "server.json"
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with code {self.proc.returncode}")
            try:
                port = int(json.loads(discovery.read_text())["port"])
                if asyncio.run(request(port, "GET", "/readyz"))[0] == 200:
                    return port
            except (OSError, ValueError, KeyError):
                pass
            time.sleep(0.02)
        raise RuntimeError("server did not become ready")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


# -- the workload ---------------------------------------------------------------

class Service:
    """Catalog, reference results and the running server of one run."""

    def __init__(self, run: Run) -> None:
        self.run = run
        self.entries = catalog(run.seed, run.smoke)
        self.mix = JobMix(run.seed, self.entries)
        self.server: "Server | None" = None
        self.started = 0

    def start(self) -> Server:
        """Start a server and serve every catalog job once, which warms
        its result store with the simulator jobs' chips."""
        server = Server(self.run, f"server-{self.started}")
        self.started += 1
        try:
            client = Client(server.port, self.entries, self.run.nproc)
            phase = client.phase(50.0, list(range(len(self.entries))))
            if len(phase.done()) != len(self.entries):
                raise RuntimeError("warming the server failed")
        except BaseException:
            server.stop()
            raise
        self.server = server
        return server

    def stop(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def client(self) -> Client:
        return Client(self.server.port, self.entries, self.run.nproc)

    def inline_result(self, i: int, journal: "Path | None" = None) -> str:
        """``canonical_json(run_job(spec))``, in this process, warm."""
        kind, spec = self.entries[i]
        if kind == "sim":
            # Same result as the served spec; the store is the server's,
            # so the simulator path runs warm as it does there.
            spec = json.loads(json.dumps(spec))
            spec["evaluator"]["cache"] = str(self.server.store)
        return canonical_json(run_job(spec, checkpoint_path=journal))

    def check(self, phases: "list[Phase]") -> None:
        """Count each job; its served result must equal the inline one."""
        run = self.run
        refs = [self.inline_result(i) for i in range(len(self.entries))]
        for phase in phases:
            for job in phase.jobs:
                name = job.job_id or f"#{job.entry}"
                if job.status != "done" or job.result is None:
                    run.op(run.check(False, f"job {name} ended {job.status}"))
                else:
                    run.op(run.check(
                        canonical_json(job.result) == refs[job.entry],
                        f"job {name}: served result differs from run_job"))
        run.expect("results", digest(refs))


def _phase_detail(phase: Phase) -> dict:
    return {"rate": phase.rate, "jobs": len(phase.jobs),
            "latency_ms": summarize([1e3 * x for x in phase.latencies()]),
            "late_ms_max": 1e3 * max((j.late for j in phase.jobs),
                                     default=0.0),
            "backlog_end": phase.backlog(),
            "rejected": sum(1 for j in phase.jobs
                            if j.status == "http-429")}


def _phases(run: Run, client: Client, svc: Service) -> "dict[str, Phase]":
    """The :data:`PHASES`, untraced: ``<phase>.p50_ms`` and
    ``<phase>.tail_ms``.

    Unlike the other workloads' times, latencies are not scaled by host
    speed: much of a job's latency is waiting (the arrival schedule, the
    poll interval) that a slower host does not stretch, and scaled
    latencies measured noisier than raw ones (bench/README.md).
    """
    phases = {}
    for name, rate, share in PHASES:
        n = max(1, round(rate * share * run.seconds))
        phases[name] = client.phase(rate, svc.mix.take(n))
        run.latency(name, phases[name].latencies())
        run.detail[name] = _phase_detail(phases[name])
    return phases


def measure(run: Run) -> None:
    """Untraced: set-up, then the light and the heavy phase."""
    svc = Service(run)
    run.repeat_setup(svc.start, teardown=lambda server: server.stop(),
                     reps=5)
    try:
        phases = _phases(run, svc.client(), svc)
        svc.check(list(phases.values()))
    finally:
        svc.stop()


def _server_run(client: Client, job: Job) -> "tuple[float, float]":
    """``(wall start, seconds)`` of the job's ``service.job.run`` span,
    read back from the job's own trace."""
    status, payload = client.get(f"/v1/jobs/{job.job_id}/trace")
    if status == 200:
        for line in payload.decode().splitlines():
            event = json.loads(line)
            if event.get("name") == "service.job.run":
                return float(event["ts"]), float(event["dur_s"])
    raise RuntimeError(f"job {job.job_id} has no service.job.run span")


def _record_phase(run: Run, client: Client,
                  phase: Phase) -> "tuple[list[float], list[float]]":
    """One ``bench.service.job`` span per job, tiled by its stages:
    generator lateness, submit, queue wait and server-side run (from the
    job's own trace), then the poll that saw it done.  Returns the
    queue waits and server-side run times."""
    trace = run.trace
    wall = phase.wall_offset
    waits, runs = [], []
    for i, job in enumerate(phase.done()):
        run_ts, run_s = _server_run(client, job)
        waits.append(run_ts - (job.accepted + wall))
        runs.append(run_s)
        root = trace.new_id()
        stages = [("service.generator_late", job.due, job.sent - job.due),
                  ("service.submit", job.sent, job.accepted - job.sent),
                  ("service.queue_wait", job.accepted, waits[-1]),
                  ("service.job.run", run_ts - wall, run_s),
                  ("service.poll_slack", run_ts - wall + run_s,
                   job.seen_done - (run_ts - wall + run_s))]
        for name, start, dur in stages:
            trace.record(name, start + wall, dur, parent=root)
        trace.record("bench.service.job", job.due + wall, job.latency,
                     span_id=root, parent=None, rid=f"job-{i}",
                     kind=client.entries[job.entry][0])
    return waits, runs


def _max_rate(client: Client, svc: Service, seconds: float,
              heavy_ok: bool) -> "tuple[float, list[Phase]]":
    """Bisect :data:`PROBE_RANGE` for the highest rate holding the limit."""
    lo, hi = PROBE_RANGE
    best = lo if heavy_ok else 0.0
    phases = []
    for _ in range(PROBES):
        rate = (lo + hi) / 2
        phase = client.phase(rate, svc.mix.take(max(1, round(rate * seconds))))
        phases.append(phase)
        if phase.passes():
            lo = best = rate
        else:
            hi = rate
    return best, phases


def _inline_jobs(run: Run, svc: Service) -> None:
    """``run_job`` on every catalog spec with a fresh journal: run time
    per kind and journal bytes per evaluation."""
    times: "dict[str, list[float]]" = {}
    per_eval = []
    with run.span("bench.service.inline"):
        for rep in range(3):
            for i, (kind, _) in enumerate(svc.entries):
                journal = run.workdir / f"journal-{rep}-{i}.jsonl"
                t0 = time.perf_counter()
                with run.span("jobs.run", kind=kind):
                    result = json.loads(svc.inline_result(i, journal))
                times.setdefault(kind, []).append(time.perf_counter() - t0)
                per_eval.append(journal.stat().st_size
                                / max(1, result["evaluations"]))
    for kind, samples in times.items():
        run.layers[f"jobs.run_ms.{kind}"] = 1e3 * median(samples)
    run.layers["journal.bytes_per_eval"] = median(per_eval)


def measure_traced(run: Run) -> None:
    """The light and the heavy phase untraced, the heavy phase's jobs
    again traced stage by stage, the max-rate bisection, then every
    catalog job inline."""
    svc = Service(run)
    svc.start()
    try:
        client = svc.client()
        phases = _phases(run, client, svc)
        untraced = phases["heavy"]
        run.trace.start()
        traced = client.phase(HEAVY_RATE, [j.entry for j in untraced.jobs])
        waits, runs = _record_phase(run, client, traced)
        max_rate, probes = _max_rate(client, svc, 0.25 * run.seconds,
                                     traced.passes())
        _inline_jobs(run, svc)
        run.trace.stop()
        svc.check([*phases.values(), traced, *probes])
    finally:
        svc.stop()
    done = traced.done()
    submits = [1e3 * (j.accepted - j.sent) for j in done]
    run.layers.update({
        "service.submit_ms.p50": median(submits),
        "service.submit_ms.p90": p90(submits),
        "service.poll_ms.p50": 1e3 * median([p for j in done
                                             for p in j.polls]),
        "service.queue_wait_ms.p50": 1e3 * median(waits),
        "service.run_ms.p50": 1e3 * median(runs),
        "service.polls_per_job": sum(len(j.polls) for j in done) / len(done),
        "service.rejected": sum(1 for j in traced.jobs
                                if j.status == "http-429"),
        "service.generator_late_ms.max": 1e3 * max(j.late for j in done),
        "service.backlog_end": traced.backlog(),
        "trace.overhead_ratio": (median(traced.latencies())
                                 / median(untraced.latencies())),
    })
    run.layer("max_rate_jobs_per_s", max_rate,
              f"bisection over {PROBE_RANGE} in {PROBES} probes")
    run.detail["heavy_traced"] = _phase_detail(traced)
    run.detail["probes"] = [_phase_detail(p) for p in probes]
