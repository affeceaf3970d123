"""Eval lines built from cached fragments are the old encoder's bytes.

A journal caches one JSON fragment per ``(name, value)`` item.  Values
that compare and hash alike but encode differently (``0.0``/``-0.0``,
``1``/``1.0``/``True``, NaN) must never share one, and a journal
written by the plain ``applog.encode`` of each record must resume to
the same bytes and results as one written with the cache.
"""

from __future__ import annotations

import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dse.evaluate import BudgetedEvaluator
from repro.io.applog import encode
from repro.resilience.checkpoint import (
    _FRAGMENT_CAP,
    CheckpointJournal,
    load_journal,
)


def old_line(names, values, cost) -> str:
    """An eval line as ``applog.encode`` writes the whole record."""
    k = [[name, "f", repr(value)] if isinstance(value, float)
         else [name, "v", value] for name, value in zip(names, values)]
    return encode({"type": "eval", "k": k, "c": repr(float(cost))})


_AWKWARD = [0.0, -0.0, 1, 1.0, True, False, 0, math.nan, -math.nan,
            math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
            None, "", "1", "ÿ", "☃"]

# Mostly a few names and awkward values, so rows collide on them.
_VALUES = st.one_of(st.sampled_from(_AWKWARD), st.sampled_from(_AWKWARD),
                    st.floats(), st.integers(), st.text(max_size=3))

_NAMES = st.one_of(st.sampled_from(["a0", "été", "核"]),
                   st.sampled_from(["a0", "été", "核"]),
                   st.text(min_size=1, max_size=3))


@st.composite
def rows(draw):
    names = draw(st.lists(_NAMES, min_size=0, max_size=4, unique=True))
    values = tuple(draw(_VALUES) for _ in names)
    cost = draw(st.one_of(st.floats(), st.sampled_from(_AWKWARD[:4])))
    return tuple(names), values, cost


@settings(max_examples=300, deadline=None)
@given(st.lists(rows(), min_size=1, max_size=25))
@example([(("x",), (0.0,), 1.0), (("x",), (-0.0,), -0.0)])
@example([(("x",), (1,), 1.0), (("x",), (1.0,), 1.0), (("x",), (True,), 1.0)])
def test_every_line_equals_the_old_encoding(batch):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "j.jsonl"
        with CheckpointJournal.create(path, run_id="r") as journal:
            # One journal: fragments cached for one row serve the next.
            journal.append_eval_rows(batch)
            journal.append_evals(
                [(tuple(zip(names, values)), cost)
                 for names, values, cost in batch])
            header = encode(journal.header)
        written = path.read_text()
    want = "".join(old_line(*row) for row in batch)
    assert written == header + want + want


def test_equal_values_of_other_types_never_share_a_fragment(tmp_path):
    values = [0.0, -0.0, 0, False, 1, 1.0, True, math.nan]
    rows = [(("x",), (v,), 1.0) for v in values + values]
    with CheckpointJournal.create(tmp_path / "j.jsonl") as journal:
        journal.append_eval_rows(rows)
        cached = dict(journal._fragments)
    body = (tmp_path / "j.jsonl").read_text().splitlines(True)[1:]
    assert body == [old_line(*row) for row in rows]
    # The zeros and NaN are encoded afresh each time; the rest once per
    # (name, type, value).
    assert sorted(cached.values()) == sorted([
        '["x", "v", 0]', '["x", "v", false]', '["x", "v", 1]',
        '["x", "f", "1.0"]', '["x", "v", true]'])


def test_fragment_cache_is_capped(tmp_path):
    rows = [(("i",), (i,), float(i)) for i in range(_FRAGMENT_CAP + 500)]
    with CheckpointJournal.create(tmp_path / "j.jsonl") as journal:
        journal.append_eval_rows(rows)
        assert len(journal._fragments) == _FRAGMENT_CAP
        journal.append_eval_rows(rows[-3:])
    body = (tmp_path / "j.jsonl").read_text().splitlines(True)[1:]
    assert body == [old_line(*row) for row in rows + rows[-3:]]


def test_unhashable_value_encodes_without_the_cache(tmp_path):
    with CheckpointJournal.create(tmp_path / "j.jsonl") as journal:
        journal.append_evals([((("grid", [1, 2.0]),), 3.0)])
    body = (tmp_path / "j.jsonl").read_text().splitlines(True)[1:]
    assert body == [old_line(("grid",), ([1, 2.0],), 3.0)]


def test_resume_from_an_old_encoder_journal_is_bit_identical(
        tmp_path, surrogate, small_space):
    """An interrupted run's ledger written record by record with
    ``applog.encode`` resumes to the uninterrupted run's bytes, costs
    and counters."""
    configs = [small_space.config_at(i) for i in range(small_space.size)]
    batches = [configs[i:i + 200] for i in range(0, len(configs), 200)]

    def sweep(budget):
        costs = np.concatenate([budget.evaluate_batch(b) for b in batches])
        budget.close()
        return costs, budget.evaluations, budget.evaluations_cached

    whole = tmp_path / "whole.jsonl"
    want = sweep(BudgetedEvaluator(surrogate, checkpoint=CheckpointJournal
                                   .create(whole, method="brute",
                                           run_id="r")))
    _header, ledger, _states = load_journal(whole)
    assert len(ledger) == want[1] > 300

    # The interrupted run: its first 301 charges, cut mid-batch, each
    # encoded as a whole record.
    resumed = tmp_path / "resumed.jsonl"
    with CheckpointJournal.create(resumed, method="brute",
                                  run_id="r") as old:
        old.append({"type": "eval",
                    "k": [[n, "f", repr(v)] if isinstance(v, float)
                          else [n, "v", v] for n, v in key],
                    "c": repr(cost)} for key, cost in ledger[:301])
    got = sweep(BudgetedEvaluator(surrogate, method="brute",
                                  checkpoint=resumed, resume=True))
    assert np.array_equal(got[0], want[0])
    assert got[1:] == want[1:]
    assert resumed.read_bytes() == whole.read_bytes()
