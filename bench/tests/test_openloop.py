"""The open-loop client times each job from when it was due.

A stub job server on localhost stalls its first submission; with one
connection the client cannot send the next job on time, and that job's
latency must include the wait (the generator ran late).
"""

import asyncio
import json
import threading

import pytest

from bench.service import KIND_SHARES, Client, JobMix

STALL_S = 0.3
RUN_S = 0.05


class StubServer:
    """Accepts jobs and reports each done ``RUN_S`` after submission."""

    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.submitted: "dict[str, float]" = {}
        self.port = 0
        ready = threading.Event()
        self.thread = threading.Thread(target=self._serve, args=(ready,),
                                       daemon=True)
        self.thread.start()
        assert ready.wait(5)

    def _serve(self, ready: threading.Event) -> None:
        asyncio.set_event_loop(self.loop)
        server = self.loop.run_until_complete(
            asyncio.start_server(self._handle, "127.0.0.1", 0))
        self.port = server.sockets[0].getsockname()[1]
        ready.set()
        self.loop.run_forever()
        server.close()
        self.loop.run_until_complete(server.wait_closed())
        self.loop.close()

    async def _handle(self, reader, writer) -> None:
        line = await reader.readline()
        method, path = line.decode().split()[:2]
        length = 0
        while (header := await reader.readline()) not in (b"\r\n", b""):
            name, _, value = header.decode().partition(":")
            if name.lower() == "content-length":
                length = int(value)
        if length:
            await reader.readexactly(length)
        now = self.loop.time()
        if method == "POST":
            job_id = f"j{len(self.submitted)}"
            if job_id == "j0":
                await asyncio.sleep(STALL_S)
                now = self.loop.time()
            self.submitted[job_id] = now
            status, doc = 202, {"job_id": job_id, "status": "queued"}
        else:
            job_id = path.rsplit("/", 1)[1]
            done = now - self.submitted[job_id] >= RUN_S
            status, doc = 200, {"job_id": job_id,
                                "status": "done" if done else "running",
                                "result": {"job": job_id} if done else None}
        body = json.dumps(doc).encode()
        writer.write(f"HTTP/1.1 {status} X\r\nContent-Length: {len(body)}"
                     f"\r\nConnection: close\r\n\r\n".encode() + body)
        await writer.drain()
        writer.close()

    def close(self) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(5)
        assert not self.thread.is_alive()


@pytest.fixture
def stub():
    server = StubServer()
    yield server
    server.close()


def test_latency_runs_from_due_time_and_counts_generator_lateness(stub):
    client = Client(stub.port, [("small", {"space": {}})], connections=1)
    phase = client.phase(20.0, [0, 0, 0])  # due every 50 ms
    first, second, third = phase.jobs
    assert [j.status for j in phase.jobs] == ["done"] * 3
    # the stalled submission holds the only connection, so the second
    # job is sent about STALL_S - 50 ms after it fell due
    assert second.late == pytest.approx(STALL_S - 0.05, abs=0.08)
    assert second.latency >= second.late + RUN_S
    assert third.late > 0.1
    for job in phase.jobs:
        assert job.latency == pytest.approx(job.seen_done - job.due)
        assert job.seen_done >= job.accepted + RUN_S
        assert job.polls, "each job is polled until done"
        assert job.result == {"job": job.job_id}
    assert first.latency >= STALL_S + RUN_S


def test_polls_are_at_least_ten_ms_apart(stub):
    client = Client(stub.port, [("small", {"space": {}})], connections=2)
    phase = client.phase(100.0, [0])
    job = phase.jobs[0]
    # RUN_S of running at one poll per >= 10 ms: at most RUN_S/10ms + 1
    assert 1 <= len(job.polls) <= RUN_S / 0.010 + 1
    assert phase.backlog() == 1  # not done when its 10 ms schedule ended


def test_every_batch_holds_the_job_mix_exactly():
    entries = [("small", {}), ("small", {}), ("large", {}), ("sim", {})]
    mix = JobMix(7, entries)
    for n in (1, 7, 10, 32):
        batch = mix.take(n)
        kinds = [entries[i][0] for i in batch]
        counts = {k: kinds.count(k) for k in ("small", "large", "sim")}
        assert sum(counts.values()) == n
        for kind, share in KIND_SHARES:
            assert abs(counts[kind] - share * n) < 1
    assert JobMix(7, entries).take(10) == JobMix(7, entries).take(10)
