"""The traced run's span recorder and its per-layer rollup.

A traced run switches on the program's own tracer with an in-memory
sink, so the program's spans (``dse.aps.*``, ``dse.batch``,
``dse.chunk.*``, ``sim.run``, ``sim.cache.*``) and the benchmark's
spans around each public call land in one list, in exit order.  At the
end the list is folded by :class:`repro.obs.stream.SpanRollup` into
per-name self times and written out as one ``c2bound.trace/1`` file.

Naming: every operation (a search, a sweep pass, a served job) is one
root span named ``bench.<op>`` carrying the request id ``rid``; spans
below it are named after the layer they time.  The rollup's self time
of the ``bench.*`` roots is the part of the traced wall time that no
layer accounts for, which is what :meth:`BenchTrace.coverage` reports.
"""

from __future__ import annotations

import json
import time
from contextlib import nullcontext
from pathlib import Path

from repro.obs import SpanRollup, configure_tracing, disable_tracing
from repro.obs.events import SCHEMA_VERSION

#: Per-layer metric -> span names whose self time it sums.
SELF_TIME_LAYERS = {
    "core.optimize_s": ("dse.aps.analytic",),
    "workloads.streams_s": ("workloads.streams",),
    "sim.loop_s": ("sim.run",),
    "sim.build_s": ("sim.simulate",),
    "dse.evaluate.self_s": ("dse.aps.simulate", "dse.brute.sweep",
                            "dse.batch", "dse.chip_for"),
    "dse.pool.self_s": ("dse.pool",),
    "dse.pool.queue_wait_s": ("dse.chunk.queue_wait",),
    "dse.pool.execute_s": ("dse.chunk.execute",),
    "dse.pool.ipc_s": ("dse.chunk.ipc",),
    "cache.key_s": ("cache.key",),
    "cache.get_s": ("cache.get", "sim.cache.lookup"),
}

#: Ids of spans recorded after the fact (:meth:`BenchTrace.new_id`)
#: start here, far above the ids the program's tracer hands out.
_MANUAL_ID_BASE = 1 << 40


class BenchTrace:
    """In-memory span sink plus helpers for benchmark-side spans.

    Usable as the program tracer's ``sink`` (it has ``write`` and
    ``close``).  :meth:`start` installs it; :meth:`stop` restores the
    disabled tracer.
    """

    def __init__(self) -> None:
        self.events: "list[dict]" = []
        self._next_manual = _MANUAL_ID_BASE
        self.tracer = None

    # -- sink protocol ------------------------------------------------------
    def write(self, event: dict) -> None:
        self.events.append(event)

    def close(self) -> None:
        """Nothing to flush: events stay in memory until :meth:`dump`."""

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        self.tracer = configure_tracing(None, enabled=True)
        self.tracer.sink = self

    def stop(self) -> None:
        disable_tracing()
        self.tracer = None

    def span(self, name: str, **attrs):
        """A live span on the program's tracer (nests with its spans);
        a no-op while the recorder is stopped."""
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, **attrs)

    # -- spans measured elsewhere (concurrent requests) ----------------------
    def new_id(self) -> int:
        span_id = self._next_manual
        self._next_manual += 1
        return span_id

    def record(self, name: str, start_wall: float, dur_s: float, *,
               span_id: "int | None" = None, parent: "int | None" = None,
               **attrs) -> int:
        """Append a finished span; children must be recorded first."""
        if span_id is None:
            span_id = self.new_id()
        self.events.append({"type": "span", "name": name, "id": span_id,
                            "parent": parent, "ts": start_wall,
                            "dur_s": max(0.0, dur_s), "attrs": attrs})
        return span_id

    # -- results ------------------------------------------------------------
    def rollup(self) -> SpanRollup:
        rollup = SpanRollup()
        for event in self.events:
            rollup.handle(event)
        return rollup

    def layer_seconds(self) -> "dict[str, float]":
        """Self time summed per layer metric of :data:`SELF_TIME_LAYERS`."""
        self_s = self.rollup().self_seconds()
        return {metric: sum(self_s.get(name, 0.0) for name in names)
                for metric, names in SELF_TIME_LAYERS.items()}

    def coverage(self) -> float:
        """Share of the operations' wall time some layer span accounts for.

        The wall time is the summed duration of the ``bench.*`` root
        spans; their self time is what no layer span below them covers.
        """
        rollup = self.rollup()
        roots = [n for n in rollup.aggregates if n.startswith("bench.")]
        wall = sum(rollup.aggregates[n][1] for n in roots)
        if wall <= 0:
            return 0.0
        uncovered = sum(rollup.aggregates[n][2] for n in roots)
        return 1.0 - uncovered / wall

    def dump(self, path: Path, *, run_name: str, **attrs) -> Path:
        """Write the ``c2bound.trace/1`` file: a run header, then spans."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"type": "run", "schema": SCHEMA_VERSION, "name": run_name,
                  "ts": time.time(), "attrs": attrs}
        with path.open("w") as fh:
            for event in [header, *self.events]:
                fh.write(json.dumps(event, default=str) + "\n")
        return path
