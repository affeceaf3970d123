"""The reporting rules: tail percentiles, quartiles, digests and the
host-speed scaling factor."""

import statistics

import pytest

from bench.hostspeed import REFERENCE_S, factor
from bench.stats import (digest, p90, percentile, quartiles, spread,
                         summarize, tail)


def test_tail_needs_ten_samples_beyond_the_median():
    assert tail(list(range(19))) is None
    q, value = tail(list(range(20)))
    assert q == 50
    assert sum(1 for x in range(20) if x > value) == 10


@pytest.mark.parametrize("n, q", [(20, 50), (25, 60), (60, 83),
                                  (100, 90), (101, 90), (199, 94),
                                  (1000, 99)])
def test_tail_is_the_highest_percentile_with_ten_beyond(n, q):
    samples = [float(x) for x in range(n)]
    got_q, value = tail(samples)
    assert got_q == q
    assert sum(1 for x in samples if x > value) >= 10
    # one percentile higher would leave fewer than ten beyond it
    higher = percentile(samples, q + 1)
    assert q == 99 or sum(1 for x in samples if x > higher) < 10


def test_tail_ignores_sample_order():
    samples = [5.0, 1.0, 9.0, 3.0] * 10
    assert tail(samples) == tail(sorted(samples))


def test_p90_only_from_a_hundred_samples():
    assert p90([1.0] * 99) == 0.0
    assert p90([float(x) for x in range(1, 101)]) == 90.0


def test_quartiles_match_statistics_quantiles():
    samples = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6]
    q1, med, q3 = quartiles(samples)
    assert [q1, med, q3] == statistics.quantiles(samples, n=4)
    assert spread(samples) == pytest.approx((q3 - q1) / med)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_summarize_reports_count_median_and_tail():
    out = summarize([float(x) for x in range(100)])
    assert out["n"] == 100 and out["tail_q"] == 90
    assert out["p50"] == 49.5
    assert summarize([]) == {"n": 0}


def test_digest_is_stable_and_exact_on_floats():
    assert digest({"b": [0.1, 2], "a": "x"}) == digest({"a": "x",
                                                       "b": [0.1, 2]})
    assert digest([0.1 + 0.2]) != digest([0.3])


def test_host_speed_factor_uses_the_samples_around_an_interval():
    samples = [(0.0, 2 * REFERENCE_S), (10.0, REFERENCE_S),
               (20.0, 4 * REFERENCE_S)]
    # before 1 s: the sample at 0; after 9 s: the sample at 10
    assert factor(samples, 1.0, 9.0) == pytest.approx(2 / 3)
    assert factor(samples, 10.0, 20.0) == pytest.approx(2 / 5)
    assert factor(samples, 21.0, 22.0) == pytest.approx(1 / 4)
    assert factor([], 0.0, 1.0) is None
