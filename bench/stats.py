"""Summary statistics and digests shared by the workloads and ``compare``."""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from typing import Sequence

#: A tail percentile is reported only with this many samples beyond it.
TAIL_BEYOND = 10


def median(samples: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    return float(statistics.median(samples))


def quartiles(samples: Sequence[float]) -> "tuple[float, float, float]":
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(samples) == 1:
        x = float(samples[0])
        return x, x, x
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return float(q1), float(q2), float(q3)


def spread(samples: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(samples)
    return (q3 - q1) / med if med else 0.0


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the sample at rank ``ceil(q/100 * n)``."""
    ordered = sorted(samples)
    return float(ordered[max(math.ceil(q * len(ordered) / 100), 1) - 1])


def tail(samples: Sequence[float],
         beyond: int = TAIL_BEYOND) -> "tuple[int, float] | None":
    """The highest whole percentile with ``beyond`` samples above it.

    ``q`` qualifies when its nearest-rank sample still has ``beyond``
    samples after it.  Returns ``(q, value)``, or ``None`` when even the
    median has fewer than ``beyond`` samples above it (fewer than
    ``2 * beyond`` samples).
    """
    n = len(samples)
    if n < 2 * beyond:
        return None
    q = (100 * (n - beyond)) // n
    return q, percentile(samples, q)


def p90(samples: Sequence[float]) -> float:
    """The 90th percentile when the tail rule allows it (``n >= 100``),
    else 0: fewer samples cannot show a 90th percentile."""
    t = tail(samples)
    return percentile(samples, 90) if t is not None and t[0] >= 90 else 0.0


def summarize(samples: Sequence[float]) -> dict:
    """Median, the qualifying tail percentile and the sample count."""
    out = {"n": len(samples)}
    if samples:
        out["p50"] = median(samples)
        t = tail(samples)
        if t is not None:
            out["tail_q"], out["tail"] = t
    return out


def digest(obj) -> str:
    """Short content hash of a JSON-able value (floats by ``repr``)."""
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":"),
                         default=repr)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]
