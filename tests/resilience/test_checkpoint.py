"""Checkpoint journals: exact round-trips, crash tolerance, resume wiring."""

from __future__ import annotations

import json
import math
from dataclasses import replace

import pytest

from repro.dse.evaluate import BudgetedEvaluator, canonical_key
from repro.errors import CheckpointError
from repro.resilience import (
    CHECKPOINT_SCHEMA,
    CheckpointJournal,
    checkpoint_hash,
    journal_for_method,
    load_journal,
    read_journal_headers,
)
from repro.runconfig import current, install

AWKWARD_COSTS = [0.1 + 0.2, 1e-17, 3.141592653589793, 2.0 ** -1074,
                 math.inf, 123456789.000000001]


def _key(i: int, cost: float) -> tuple:
    return canonical_key({"a0": 0.1 * i, "n": i, "tag": f"p{i}"})


class TestJournalRoundTrip:
    def test_exact_float_round_trip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CheckpointJournal.create(path, method="aps") as journal:
            for i, cost in enumerate(AWKWARD_COSTS):
                journal.append_eval(_key(i, cost), cost)
        header, evals, states = load_journal(path)
        assert header["schema"] == CHECKPOINT_SCHEMA
        assert header["method"] == "aps"
        assert states == []
        assert [k for k, _ in evals] == [
            _key(i, c) for i, c in enumerate(AWKWARD_COSTS)]
        for (_, got), expected in zip(evals, AWKWARD_COSTS):
            # Bit-exact: repr round-trips IEEE-754 doubles.
            assert got == expected and type(got) is float

    def test_key_types_round_trip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        key = canonical_key({"f": 0.30000000000000004, "i": 7,
                             "s": "name", "b": True})
        with CheckpointJournal.create(path) as journal:
            journal.append_eval(key, 1.0)
        _, evals, _ = load_journal(path)
        restored = evals[0][0]
        assert restored == key
        assert [type(v) for _, v in restored] == [type(v) for _, v in key]

    def test_batch_append_and_state_records_keep_order(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CheckpointJournal.create(path, method="ga") as journal:
            journal.append_eval(_key(0, 1.0), 1.0)
            journal.append_state("generation", {"gen": 1})
            journal.append_evals([(_key(1, 2.0), 2.0), (_key(2, 3.0), 3.0)])
        header, evals, states = load_journal(path)
        assert len(evals) == 3 and len(states) == 1
        assert states[0]["tag"] == "generation"
        # The on-disk record order interleaves exactly as written.
        lines = [json.loads(l) for l in
                 path.read_text().splitlines()][1:]
        assert [r["type"] for r in lines] == [
            "eval", "state", "eval", "eval"]

    def test_checkpoint_hash(self, tmp_path):
        path = tmp_path / "j.jsonl"
        assert checkpoint_hash(path) is None
        CheckpointJournal.create(path).close()
        digest = checkpoint_hash(path)
        assert isinstance(digest, str) and len(digest) == 64


class TestCrashTolerance:
    def _journal_with_tail(self, tmp_path, tail: str):
        path = tmp_path / "j.jsonl"
        with CheckpointJournal.create(path, method="aps") as journal:
            journal.append_eval(_key(0, 1.5), 1.5)
            journal.append_eval(_key(1, 2.5), 2.5)
        with open(path, "a") as handle:
            handle.write(tail)
        return path

    def test_torn_tail_is_healed(self, tmp_path, fresh_registry):
        path = self._journal_with_tail(
            tmp_path, '{"type": "eval", "k": [["a0", "f", "0.')
        journal, evals, _ = CheckpointJournal.open_resume(path, method="aps")
        journal.close()
        assert [c for _, c in evals] == [1.5, 2.5]
        # The torn line is gone from disk and was counted.
        assert "0.\n" not in path.read_text()
        assert fresh_registry.snapshot()["counters"][
            "resilience.checkpoint.torn_tail"] == 1
        # The healed journal loads cleanly.
        _, evals2, _ = load_journal(path)
        assert evals2 == evals

    def test_corrupt_middle_line_refuses_resume(self, tmp_path):
        path = self._journal_with_tail(tmp_path, "")
        lines = path.read_text().splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]  # tear a *middle* line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError):
            CheckpointJournal.open_resume(path, method="aps")

    def test_method_mismatch_refuses_resume(self, tmp_path):
        path = self._journal_with_tail(tmp_path, "")
        with pytest.raises(CheckpointError):
            CheckpointJournal.open_resume(path, method="ga")

    def test_missing_file_resumes_as_fresh(self, tmp_path):
        journal, evals, states = CheckpointJournal.open_resume(
            tmp_path / "absent.jsonl", method="aps")
        journal.close()
        assert evals == [] and states == []

    def test_invalid_header_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"type": "header", "schema": "bogus/9"}\n')
        with pytest.raises(CheckpointError):
            load_journal(path)


class TestHeadersAndDefaults:
    def test_read_journal_headers_skips_garbage(self, tmp_path):
        CheckpointJournal.create(tmp_path / "aps.jsonl", method="aps",
                                 run_id="runA").close()
        (tmp_path / "junk.jsonl").write_text("not json\n")
        (tmp_path / "other.txt").write_text("ignored\n")
        headers = read_journal_headers(tmp_path)
        assert [h["run_id"] for h in headers] == ["runA"]
        assert headers[0]["path"].endswith("aps.jsonl")

    def test_journal_for_method_off_by_default(self):
        assert current().checkpoint is None
        assert journal_for_method("aps") is None

    def test_journal_for_method_claims_deterministic_names(self, tmp_path):
        install(replace(current(), checkpoint=tmp_path, run_id="runX"))
        j1, evals1 = journal_for_method("aps")
        j2, evals2 = journal_for_method("aps")
        j3, _ = journal_for_method(None)
        for j in (j1, j2, j3):
            j.close()
        assert j1.path.name == "aps.jsonl"
        assert j2.path.name == "aps-2.jsonl"
        assert j3.path.name == "search.jsonl"
        assert j1.header["run_id"] == "runX"
        # A new process (a newly installed config) maps methods to the
        # same names — the property resume relies on.
        install(replace(current(), resume=True))
        j1b, _ = journal_for_method("aps")
        j1b.close()
        assert j1b.path.name == "aps.jsonl"


class TestBudgetedEvaluatorIntegration:
    def test_journal_ledgers_only_fresh_charges(self, tmp_path, surrogate,
                                                configs):
        path = tmp_path / "j.jsonl"
        budget = BudgetedEvaluator(surrogate, method="brute",
                                   checkpoint=path)
        budget.evaluate_batch(configs)
        budget.evaluate_batch(configs)       # all cached: nothing appended
        budget.evaluate(configs[0])          # cached too
        budget.close()
        _, evals, _ = load_journal(path)
        assert len(evals) == budget.evaluations == len(configs)

    def test_resume_is_bit_identical_with_exact_counters(
            self, tmp_path, surrogate, configs, fresh_registry):
        path = tmp_path / "j.jsonl"
        fresh = BudgetedEvaluator(surrogate, method="brute",
                                  checkpoint=path)
        costs = fresh.evaluate_batch(configs)
        fresh.close()

        resumed = BudgetedEvaluator(surrogate, method="brute",
                                    checkpoint=path, resume=True)
        costs2 = resumed.evaluate_batch(configs)
        resumed.close()
        assert (costs == costs2).all()
        # Replayed restores count as the fresh charges they were: both
        # local counters match the uninterrupted run exactly.
        assert resumed.evaluations == fresh.evaluations
        assert resumed.evaluations_cached == fresh.evaluations_cached
        counters = fresh_registry.snapshot()["counters"]
        assert counters["resilience.checkpoint.restored"] == len(configs)
        # ... and nothing was re-journaled.
        _, evals, _ = load_journal(path)
        assert len(evals) == len(configs)

    def test_scalar_path_replays_identically(self, tmp_path, surrogate,
                                             configs):
        path = tmp_path / "j.jsonl"
        fresh = BudgetedEvaluator(surrogate, checkpoint=path)
        want = [fresh.evaluate(c) for c in configs[:6]]
        fresh.close()
        resumed = BudgetedEvaluator(surrogate, checkpoint=path, resume=True)
        got = [resumed.evaluate(c) for c in configs[:6]]
        resumed.close()
        assert got == want
        assert resumed.evaluations == len(want)
        assert resumed.evaluations_cached == 0

    def test_process_defaults_wire_every_search_evaluator(
            self, tmp_path, surrogate, configs):
        install(replace(current(), checkpoint=tmp_path, run_id="runZ"))
        budget = BudgetedEvaluator(surrogate, method="rsm")
        budget.evaluate_batch(configs[:5])
        budget.close()
        header, evals, _ = load_journal(tmp_path / "rsm.jsonl")
        assert header["run_id"] == "runZ"
        assert len(evals) == 5
