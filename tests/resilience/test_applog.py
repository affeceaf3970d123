"""The append-only log rule, shared by every JSONL log in the package.

Two properties carry the crash story:

- a file cut at *any* byte offset resumes to exactly the records whose
  newline falls before the cut, and healing leaves exactly that byte
  prefix on disk — no surviving record is ever rewritten;
- a file with no complete line (a writer killed between creating the
  file and writing its header) is a torn, empty log, not a refusal.
"""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dse.evaluate import canonical_key
from repro.errors import CheckpointError
from repro.io.applog import read_records, split_lines
from repro.obs.events import read_jsonl
from repro.obs.stream import TraceReader
from repro.resilience import (
    CHECKPOINT_SCHEMA,
    JOBS_SCHEMA,
    CheckpointJournal,
    JobRegistry,
    checkpoint_hash,
    load_journal,
    replay_registry,
)
from repro.service.state import ServiceState

HEADERLESS = [b"", b'{"type": "header", "sch']


def _header(path) -> dict:
    return json.loads(path.read_bytes().split(b"\n")[0])


class TestSplitLines:
    @pytest.mark.parametrize("data, lines, tail", [
        (b"", [], b""),
        (b"torn", [], b"torn"),
        (b"a\n", [b"a"], b""),
        (b"a\n\nb\nc", [b"a", b"", b"b"], b"c"),
    ])
    def test_complete_lines_and_remainder(self, data, lines, tail):
        assert split_lines(data) == (lines, tail)


class TestHeaderless:
    @pytest.mark.parametrize("content", HEADERLESS)
    def test_checkpoint_resume_starts_empty(self, tmp_path, content):
        path = tmp_path / "checkpoint.jsonl"
        path.write_bytes(content)
        journal, evals, states = CheckpointJournal.open_resume(
            path, method="aps")
        journal.append_eval(canonical_key({"n": 4}), 1.5)
        journal.close()
        assert evals == [] and states == []
        header = _header(path)
        assert header["schema"] == CHECKPOINT_SCHEMA
        assert header["method"] == "aps"
        _, restored, _ = load_journal(path)
        assert [cost for _, cost in restored] == [1.5]

    @pytest.mark.parametrize("content", HEADERLESS)
    def test_registry_resume_starts_empty(self, tmp_path, content):
        path = tmp_path / "jobs.jsonl"
        path.write_bytes(content)
        assert replay_registry(path).submits == []
        registry, replay = JobRegistry.open_resume(path)
        registry.close()
        assert replay.submits == [] and replay.next_seq == 0
        assert _header(path)["schema"] == JOBS_SCHEMA
        assert replay_registry(path).submits == []

    def test_service_starts_over_empty_registry(self, tmp_path):
        (tmp_path / "jobs.jsonl").write_bytes(b"")
        state = ServiceState(tmp_path)
        state.registry.close()
        assert state.jobs == {}
        assert _header(tmp_path / "jobs.jsonl")["schema"] == JOBS_SCHEMA

    def test_checkpoint_first_line_not_a_header_refused(self, tmp_path):
        path = tmp_path / "checkpoint.jsonl"
        path.write_text('{"type": "eval", "k": [], "c": "1.0"}\n')
        with pytest.raises(CheckpointError, match="invalid header"):
            CheckpointJournal.open_resume(path)

    def test_corrupt_header_line_refused(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        path.write_text('{"type": "header", "sch\n')
        with pytest.raises(CheckpointError, match="corrupt complete line"):
            JobRegistry.open_resume(path)


_costs = st.floats(allow_nan=False, width=64)
_evals = st.lists(st.tuples(st.integers(0, 3), _costs), max_size=6)


class TestCutAnywhere:
    @settings(max_examples=60, deadline=None)
    @given(evals=_evals, data=st.data())
    def test_resume_keeps_exactly_the_complete_prefix(
            self, tmp_path_factory, evals, data):
        base = tmp_path_factory.mktemp("cut")
        entries = [(canonical_key({"n": n, "i": i}), cost)
                   for i, (n, cost) in enumerate(evals)]
        with CheckpointJournal.create(base / "full.jsonl", method="aps",
                                      run_id="r") as journal:
            for key, cost in entries:
                journal.append_eval(key, cost)
        full = (base / "full.jsonl").read_bytes()
        cut = data.draw(st.integers(0, len(full)), label="cut")
        path = base / "checkpoint.jsonl"
        path.write_bytes(full[:cut])

        # A tailer and a one-shot read agree on the cut file.
        records, _ = read_records(path, ValueError)
        assert TraceReader(path).read_all() == records == read_jsonl(path)

        journal, restored, _ = CheckpointJournal.open_resume(
            path, method="aps")
        journal.close()
        header_end = full.index(b"\n") + 1
        if cut < header_end:
            # Header-less: a torn, empty log with a fresh header.
            assert restored == []
            assert _header(path)["schema"] == CHECKPOINT_SCHEMA
            return
        kept = full[:cut].count(b"\n") - 1
        assert restored == entries[:kept]
        prefix = full[:full.rfind(b"\n", 0, cut) + 1]
        assert path.read_bytes() == prefix
        assert checkpoint_hash(path) == hashlib.sha256(prefix).hexdigest()

    def test_append_after_heal_continues_the_prefix(self, tmp_path):
        path = tmp_path / "checkpoint.jsonl"
        with CheckpointJournal.create(path, method="aps") as journal:
            journal.append_eval(canonical_key({"n": 1}), 1.0)
        whole = path.read_bytes()
        path.write_bytes(whole + b'{"type": "eval", "k"')
        journal, _, _ = CheckpointJournal.open_resume(path, method="aps")
        journal.append_eval(canonical_key({"n": 2}), 2.0)
        journal.close()
        assert path.read_bytes().startswith(whole)
        _, restored, _ = load_journal(path)
        assert [cost for _, cost in restored] == [1.0, 2.0]
