"""Per-point bookkeeping of a sweep: enumeration order, the split budget
memo and the memory a sweep keeps.

- ``DesignSpace.__iter__`` walks ``itertools.product`` of the grids;
  it must be exactly ``config_at(0), config_at(1), …``, key order
  included.
- ``BudgetedEvaluator`` keys its memo by sorted names, then by the
  values in that order.  :class:`CanonicalBudget` below is the plain
  :func:`~repro.dse.evaluate.canonical_key` memo it replaced; both must
  charge, reread, replay and journal alike.
- A served surrogate sweep keeps one value tuple and one cost per
  charged point; the pin fails on the old memo of ``k + 1`` tuples.
"""

from __future__ import annotations

import tempfile
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dse.evaluate import BudgetedEvaluator, canonical_key
from repro.dse.jobs import run_job
from repro.dse.space import DesignSpace, Parameter
from repro.resilience.checkpoint import CheckpointJournal, load_journal

# -- enumeration order --------------------------------------------------------

_VALUES = st.one_of(st.integers(-50, 50),
                    st.floats(allow_nan=False, allow_infinity=False),
                    st.text(max_size=3), st.booleans())


@st.composite
def spaces(draw) -> DesignSpace:
    names = draw(st.lists(st.text(min_size=1, max_size=4), min_size=1,
                          max_size=4, unique=True))
    params = []
    for name in names:
        # Unique under == (1 == 1.0 == True), as Parameter requires.
        grid = list(dict.fromkeys(draw(st.lists(_VALUES, min_size=1,
                                                max_size=4))))
        params.append(Parameter(name, tuple(grid)))
    return DesignSpace(params)


@settings(max_examples=150, deadline=None)
@given(spaces())
def test_iteration_is_config_at_order(space):
    listed = list(space)
    assert len(listed) == space.size
    want = [space.config_at(i) for i in range(space.size)]
    assert listed == want
    # Same key order and the very same value objects, not just equal ones.
    for got, ref in zip(listed, want):
        assert list(got) == list(ref) == list(space.names)
        assert all(got[k] is ref[k] for k in ref)


def test_iteration_is_last_parameter_fastest():
    space = DesignSpace([Parameter("a", (1, 2)), Parameter("b", ("x", "y"))])
    assert list(space) == [{"a": 1, "b": "x"}, {"a": 1, "b": "y"},
                           {"a": 2, "b": "x"}, {"a": 2, "b": "y"}]
    assert space.size == 4


# -- the split memo against a canonical-key reference -------------------------

def _cost(config: dict) -> float:
    """A deterministic, point-specific cost."""
    return zlib.crc32(repr(canonical_key(config)).encode()) / 7.0


class Inner:
    """Counts every point the memo lets through."""

    def __init__(self) -> None:
        self.calls = 0

    def evaluate(self, config: dict) -> float:
        self.calls += 1
        return _cost(config)

    def evaluate_batch(self, configs):
        self.calls += len(configs)
        return np.array([_cost(c) for c in configs])


class CanonicalBudget:
    """The reference: one memo keyed by ``canonical_key``, one pending
    set, one ledger of charged ``(key, cost)`` in charge order."""

    def __init__(self) -> None:
        self.cache: dict = {}
        self.pending: set = set()
        self.ledger: list = []
        self.evaluations = 0
        self.evaluations_cached = 0
        self.inner_calls = 0

    def restore(self, entries) -> None:
        for key, cost in entries:
            if key not in self.cache:
                self.cache[key] = float(cost)
                self.pending.add(key)

    def evaluate_batch(self, configs) -> list:
        out = []
        fresh: dict = {}
        for config in configs:
            key = canonical_key(config)
            if key in self.cache:
                if key in self.pending:
                    self.pending.discard(key)
                    self.evaluations += 1
                else:
                    self.evaluations_cached += 1
                out.append(self.cache[key])
            elif key in fresh:
                self.evaluations_cached += 1
                out.append(fresh[key])
            else:
                fresh[key] = _cost(config)
                out.append(fresh[key])
        self.inner_calls += len(fresh)
        self.evaluations += len(fresh)
        self.cache.update(fresh)
        self.ledger.extend(fresh.items())
        return out


_POOL = st.sampled_from([0.5, 2.0, 1, 1.0, True, 0.0, -0.0, "x", None])


@st.composite
def points(draw) -> dict:
    names = draw(st.lists(st.sampled_from(["a0", "n", "rob", "w"]),
                          min_size=1, max_size=4, unique=True))
    # The draw order of the names is the insertion order: the same point
    # arrives with its keys in several orders.
    return {name: draw(_POOL) for name in names}


_CALLS = st.lists(
    st.tuples(st.sampled_from(["batch", "scalar"]),
              st.lists(points(), min_size=1, max_size=12)),
    min_size=1, max_size=6)


@settings(max_examples=200, deadline=None)
@given(restored=st.lists(st.tuples(points(), st.floats(-1e3, 1e3)),
                         max_size=6),
       calls=_CALLS)
def test_split_memo_accounts_like_canonical_keys(restored, calls):
    entries = [(canonical_key(c), cost) for c, cost in restored]
    ref = CanonicalBudget()
    ref.restore(entries)
    inner = Inner()
    with tempfile.TemporaryDirectory() as tmp:
        journal = CheckpointJournal.create(Path(tmp) / "j.jsonl",
                                           run_id="oracle")
        budget = BudgetedEvaluator(inner, checkpoint=journal)
        budget.restore(entries)
        for kind, batch in calls:
            want = ref.evaluate_batch(batch)
            if kind == "batch":
                got = list(budget.evaluate_batch(batch))
            else:
                got = [budget.evaluate(c) for c in batch]
            assert got == want
            assert budget.evaluations == ref.evaluations
            assert budget.evaluations_cached == ref.evaluations_cached
            assert inner.calls == ref.inner_calls
        budget.close()
        _header, ledger, _states = load_journal(Path(tmp) / "j.jsonl")
    assert ledger == ref.ledger
    assert [(repr(k), repr(c)) for k, c in ledger] == [
        (repr(k), repr(c)) for k, c in ref.ledger]


def test_restored_point_replays_once_then_rereads():
    budget = BudgetedEvaluator(Inner())
    key = canonical_key({"n": 4, "a0": 1.0})
    budget.restore([(key, 2.5), (key, 9.9)])
    # Reordered keys, then an equal int-for-float spelling.
    costs = budget.evaluate_batch([{"n": 4, "a0": 1.0}, {"a0": 1, "n": 4}])
    assert list(costs) == [2.5, 2.5]
    assert (budget.evaluations, budget.evaluations_cached) == (1, 1)
    assert budget.evaluate({"a0": 1.0, "n": 4}) == 2.5
    assert (budget.evaluations, budget.evaluations_cached) == (1, 2)
    assert budget.inner.calls == 0


# -- memory a served sweep keeps ----------------------------------------------

#: Bytes a charged point may keep.  On CPython 3.11 a four-parameter
#: point keeps about 125 B (its value tuple, its cost and its memo slot);
#: the canonical-key memo kept about 340 B.
MAX_BYTES_PER_POINT = 250


def test_served_sweep_bounded_memory(tmp_path):
    """Retained traced memory per charged point of a 21,952-point
    journaled surrogate job, as the slope between the first and the last
    progress report (the batch in flight is in both, so it cancels)."""
    k = 28

    def grid(lo: float, hi: float) -> "list[float]":
        return [float(v) for v in np.geomspace(lo, hi, k)]

    spec = {"kind": "sweep", "method": "brute",
            "space": {"params": [
                {"name": "a0", "values": grid(0.1, 1.0)},
                {"name": "a1", "values": grid(0.05, 0.5)},
                {"name": "a2", "values": grid(0.05, 0.5)},
                {"name": "n", "values": [8]}]},
            "evaluator": {"type": "surrogate", "noise": 0.02,
                          "app": {"f_seq": 0.05, "f_mem": 0.3,
                                  "concurrency": 4.0}}}
    seen: "list[tuple[int, int]]" = []
    tracemalloc.start()
    try:
        result = run_job(spec, checkpoint_path=tmp_path / "job.jsonl",
                         on_progress=lambda n: seen.append(
                             (n, tracemalloc.get_traced_memory()[0])))
    finally:
        tracemalloc.stop()
    assert result["space_size"] == k ** 3 >= 20_000
    assert result["evaluations"] == k ** 3  # every point is feasible
    (n0, m0), (n1, m1) = seen[0], seen[-1]
    assert n1 - n0 >= 15_000
    per_point = (m1 - m0) / (n1 - n0)
    print(f"{per_point:.0f} B kept per charged point")
    assert per_point <= MAX_BYTES_PER_POINT, (
        f"{per_point:.0f} B kept per charged point")
