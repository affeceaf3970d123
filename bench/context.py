"""Per-run bookkeeping shared by the workloads: metrics, operation
accounting, correctness checks, timing and the pinned expectations."""

from __future__ import annotations

import json
import time
from contextlib import nullcontext
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from bench.host import ROOT, nproc
from bench.hostspeed import REFERENCE_S, factor, reference_s
from bench.stats import median, summarize

if TYPE_CHECKING:  # the launching process never imports the program
    from bench.tracing import BenchTrace

#: Pinned outputs for the default seed (see ``python -m bench --pin``).
EXPECTED_PATH = ROOT / "bench" / "expected.json"
EXPECTED_SCHEMA = "c2bound.bench-expected/1"
DEFAULT_SEED = 1

class Run:
    """One workload run: what it measured and whether its outputs held.

    Parameters
    ----------
    workload, seed, seconds:
        What to run and for how long to measure.
    smoke:
        Tiny sizes (the test suite's end-to-end check).
    workdir:
        Private scratch directory inside the checkout.
    trace:
        The traced run's recorder, or ``None`` for an untraced run.
    expected:
        The loaded expectations file; entries exist only for
        :data:`DEFAULT_SEED`.
    pin:
        Record observed outputs into ``expected`` instead of checking.
    """

    def __init__(self, workload: str, *, seed: int, seconds: float,
                 smoke: bool, workdir: Path,
                 trace: "BenchTrace | None" = None,
                 expected: "dict | None" = None, pin: bool = False) -> None:
        self.workload = workload
        self.seed = int(seed)
        self.seconds = float(seconds)
        self.smoke = smoke
        self.workdir = workdir
        self.trace = trace
        self.nproc = nproc()
        self.metrics: "dict[str, dict]" = {}
        #: Per-layer values this run measured, by BENCHMARK.json name.
        self.layers: "dict[str, float]" = {}
        self.notes: "dict[str, str]" = {}
        self.detail: dict = {}
        self.failures: "list[str]" = []
        self.attempted = 0
        self.failed = 0
        self.expected = expected if expected is not None else {}
        self.pin = pin
        #: Host-speed samples, ``(time.monotonic(), seconds)``.
        self._speed: "list[tuple[float, float]]" = []

    def span(self, name: str, **attrs):
        """A span in the traced run; a no-op otherwise."""
        if self.trace is None:
            return nullcontext()
        return self.trace.span(name, **attrs)

    # -- results ------------------------------------------------------------
    def metric(self, name: str, value: float, unit: str) -> None:
        """A metric of the result line (see :func:`bench.child._finish`)."""
        self.metrics[name] = {"value": float(value), "unit": unit}

    def layer(self, name: str, value: float, note: str = "") -> None:
        """A per-layer metric of BENCHMARK.json, with an optional note
        (a tail's percentile and sample count) for the printout."""
        self.layers[name] = float(value)
        if note:
            self.notes[name] = note

    def latency(self, name: str, samples_s: "list[float]") -> None:
        """``<name>.p50_ms`` and ``<name>.tail_ms``: the median and the
        highest percentile with :data:`~bench.stats.TAIL_BEYOND` samples
        beyond it, noted with that percentile and the sample count (the
        tail reads 0 when the samples are too few for one)."""
        s = summarize([1e3 * x for x in samples_s])
        self.layer(f"{name}.p50_ms", s.get("p50", 0.0), f"n={s['n']}")
        self.layer(f"{name}.tail_ms", s.get("tail", 0.0),
                   f"p{s['tail_q']}, n={s['n']}" if "tail" in s
                   else f"n={s['n']}, too few for a tail")

    def op(self, ok: bool) -> bool:
        """Count one attempted operation (a search, pass or job)."""
        self.attempted += 1
        if not ok:
            self.failed += 1
        return ok

    def check(self, ok: bool, message: str) -> bool:
        """Record a correctness check; a failing one fails the run."""
        if not ok:
            self.failures.append(message)
        return ok

    # -- pinned outputs -----------------------------------------------------
    def _pins(self) -> "dict | None":
        if self.seed != self.expected.get("seed", DEFAULT_SEED):
            return None
        size = "smoke" if self.smoke else "full"
        return (self.expected.setdefault(size, {})
                .setdefault(self.workload, {}))

    def expect(self, key: str, observed) -> bool:
        """Compare ``observed`` with the value pinned under ``key``.

        Only the default seed has pins; other seeds pass here and rely
        on the workloads' cross-path checks instead.  With ``pin`` set
        the observation is recorded rather than compared.
        """
        pins = self._pins()
        if pins is None:
            return True
        observed = json.loads(json.dumps(observed))
        if self.pin:
            pins[key] = observed
            return True
        if key not in pins:
            return self.check(False, f"no pinned value for {key!r}; "
                                     "re-pin with `python -m bench --pin`")
        return self.check(pins[key] == observed,
                          f"{key}: expected {pins[key]!r}, got {observed!r}")

    # -- timing -------------------------------------------------------------
    def speed_sample(self) -> None:
        """Time the host-speed reference task now (see
        :mod:`bench.hostspeed`); call it between timed operations."""
        self._speed.append((time.monotonic(), reference_s()))

    def scaled(self, name: str,
               intervals: "list[tuple[float, float]]") -> "list[float]":
        """The length in seconds of each of ``intervals``
        (``time.monotonic`` start/end pairs), scaled to the reference
        host speed by the speed samples around it.  Raw and scaled
        lengths are kept in the detail under ``name``; an interval
        without a sample around it fails the run rather than going
        unscaled, and the result is then empty."""
        raw, scaled = [], []
        for a, b in intervals:
            f = factor(self._speed, a, b)
            if not self.check(f is not None,
                              f"{name}: no host-speed sample around an "
                              "interval"):
                return []
            raw.append(b - a)
            scaled.append(raw[-1] * f)
        self.detail[name] = {"raw_s": raw, "scaled_s": scaled}
        return scaled

    def repeat_setup(self, build: Callable[[], object],
                     teardown: "Callable[[object], None] | None" = None,
                     reps: int = 3):
        """Run ``build`` ``reps`` times; keep the last, report the median.

        Every earlier result is handed to ``teardown``.  ``setup_s`` is
        the median build time, so work moved into set-up shows without
        one slow start deciding it.
        """
        intervals = []
        built = None
        self.speed_sample()
        for _ in range(reps):
            if built is not None and teardown is not None:
                teardown(built)
            t0 = time.monotonic()
            built = build()
            intervals.append((t0, time.monotonic()))
            self.speed_sample()
        scaled = self.scaled("setup_s", intervals)
        if scaled:
            self.metric("setup_s", median(scaled), "s")
        return built

    def timed_ops(self, op: Callable[[int], None], *,
                  min_ops: int = 1) -> "list[tuple[float, float]]":
        """Run ``op(i)`` until the measuring time is spent, with a speed
        sample before each; returns each operation's ``(start, end)``.

        A new operation starts only if the median so far says it will
        end within ``seconds`` (at least ``min_ops`` always run), so a
        run lasts about ``seconds`` whatever the operation's length.
        """
        intervals: "list[tuple[float, float]]" = []
        start = time.monotonic()
        self.speed_sample()
        while True:
            t0 = time.monotonic()
            op(len(intervals))
            intervals.append((t0, time.monotonic()))
            self.speed_sample()
            elapsed = time.monotonic() - start
            typical = median([b - a for a, b in intervals])
            if len(intervals) >= min_ops and elapsed + typical > self.seconds:
                return intervals

    def result(self) -> dict:
        if self._speed:
            # The host's median speed over the run against the reference
            # host (1.0: as fast; 0.8: 20% slower).
            self.detail["host_speed"] = median(
                [REFERENCE_S / s for _, s in self._speed])
        return {"workload": self.workload, "seed": self.seed,
                "seconds": self.seconds, "smoke": self.smoke,
                "trace": self.trace is not None,
                "correct": not self.failures and self.failed == 0,
                "attempted": self.attempted, "failed": self.failed,
                "failures": self.failures, "metrics": self.metrics,
                "layers": self.layers, "notes": self.notes,
                "detail": self.detail}


def load_expected() -> dict:
    if not EXPECTED_PATH.is_file():
        return {"schema": EXPECTED_SCHEMA, "seed": DEFAULT_SEED}
    return json.loads(EXPECTED_PATH.read_text())


def save_expected(expected: dict) -> None:
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True)
                             + "\n")
