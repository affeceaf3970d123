"""Host speed, measured between operations, so timings from a shared
host stay comparable.

A shared virtual machine runs at a speed that moves by tens of percent
for minutes at a time, as neighbours load the physical cores, and the
guest sees it as slower execution: CPU time grows with wall time, so
neither measure is steady on its own.  The workloads therefore run a
fixed reference task (:func:`reference_s`, independent of the program
under test) before and after every timed set-up and operation (served
jobs' latencies excepted, see :func:`bench.service._phases`).  Each
time is scaled by :data:`REFERENCE_S` over the mean of the reference
times around it: the time it would have taken on the reference host
with no neighbours.  The raw times stay in the result's detail.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Seconds one :func:`_task` takes on the reference host (a 2-vCPU
#: Intel Xeon virtual machine, Python 3.11, NumPy 2) when no neighbour
#: loads it.
REFERENCE_S = 0.0063
#: Repetitions per sample; their median is the sample.
REPS = 9


def _task() -> None:
    """Interpreter work and array arithmetic, the two kinds of work the
    workloads do."""
    total, table = 0, {}
    for i in range(40_000):
        total += i * i
        table[i & 1023] = total
    a = np.arange(100_000, dtype=np.int64)
    for _ in range(4):
        a = (a * 7 + 3) % 1_000_003


def reference_s() -> float:
    """Median time of :data:`REPS` runs of the reference task, now."""
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        _task()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def factor(samples: "list[tuple[float, float]]", start: float,
           end: float) -> "float | None":
    """:data:`REFERENCE_S` over the mean of the last sample taken at or
    before ``start`` and the first taken at or after ``end``; ``None``
    when neither exists.  ``samples`` are ``(time.monotonic(), seconds)``
    in time order."""
    before = [s for t, s in samples if t <= start][-1:]
    after = [s for t, s in samples if t >= end][:1]
    near = before + after
    if not near:
        return None
    return REFERENCE_S * len(near) / sum(near)
