"""Kill-and-resume round trips: resumed searches are bit-identical.

Two interruption shapes are exercised end to end:

- a *torn* run — the journal is truncated mid-stream, as a crash
  between appends would leave it;
- a *killed* run — a child process hard-exits (``ExitAfter``, the
  deterministic SIGKILL stand-in) mid-sweep and the parent resumes from
  the journal the corpse left behind.

In both cases the resumed search must reproduce the uninterrupted
run's result AND its budget accounting exactly.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import repro
from repro.cli import main
from repro.dse import SurrogateEvaluator, brute_force_search, genetic_search
from repro.obs import RunManifest, stable_view
from repro.resilience import CRASH_EXIT_STATUS, load_journal
from repro.runconfig import current, install


class TestTornJournalResume:
    def test_ga_resume_matches_uninterrupted_run(self, tmp_path, app,
                                                 machine, surrogate,
                                                 small_space):
        kwargs = dict(population=8, generations=4, seed=4)
        baseline = genetic_search(small_space, surrogate, **kwargs)

        # A checkpointed run whose journal we then tear mid-stream.
        install(replace(current(), checkpoint=tmp_path))
        genetic_search(small_space, SurrogateEvaluator(app, machine),
                       **kwargs)
        journal_path = tmp_path / "ga.jsonl"
        lines = journal_path.read_text().splitlines()
        assert len(lines) > 12  # header + enough evals to truncate
        journal_path.write_text("\n".join(lines[:11]) + "\n")

        install(replace(current(), resume=True))
        resumed = genetic_search(small_space,
                                 SurrogateEvaluator(app, machine), **kwargs)
        assert resumed.best_config == baseline.best_config
        assert resumed.best_cost == baseline.best_cost
        # Replayed points count as the fresh charges they were, so the
        # budget matches the uninterrupted run exactly.
        assert resumed.evaluations == baseline.evaluations
        # The healed journal now ledgers the full run, duplicate-free.
        _, evals, _ = load_journal(journal_path)
        assert len(evals) == len({k for k, _ in evals})
        assert len(evals) == baseline.evaluations


_CHILD_SCRIPT = """\
import sys
from pathlib import Path
from repro.core.params import ApplicationProfile, MachineParameters
from repro.dse import SurrogateEvaluator, brute_force_search
from repro.dse.space import DesignSpace, Parameter
from repro.laws.gfunction import PowerLawG
from repro.resilience import ExitAfter
from repro.runconfig import RunConfig, install

app = ApplicationProfile(f_seq=0.02, f_mem=0.35, concurrency=4.0,
                         g=PowerLawG(1.0))
machine = MachineParameters(total_area=400.0, shared_area=40.0)
space = DesignSpace([
    Parameter("a0", (0.25, 0.5, 1.0, 2.0)),
    Parameter("a1", (0.1, 0.25, 0.5, 1.0)),
    Parameter("a2", (0.5, 1.0, 2.0, 4.0)),
    Parameter("n", (2, 8, 32, 64)),
    Parameter("issue_width", (1, 2, 4, 8)),
    Parameter("rob_size", (32, 128, 512)),
])
install(RunConfig(checkpoint=Path(sys.argv[1])))
evaluator = ExitAfter(SurrogateEvaluator(app, machine), n=int(sys.argv[2]))
brute_force_search(space, evaluator, batch_size=64)
raise SystemExit("unreachable: ExitAfter must have killed the sweep")
"""


class TestKilledProcessResume:
    def test_child_killed_mid_sweep_then_resume_bit_identical(
            self, tmp_path, surrogate, small_space):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD_SCRIPT, str(tmp_path), "500"],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == CRASH_EXIT_STATUS, proc.stderr

        # The corpse left a usable partial journal behind.
        journal_path = tmp_path / "brute.jsonl"
        _, partial, _ = load_journal(journal_path)
        assert 0 < len(partial) < small_space.size

        baseline = brute_force_search(small_space, surrogate)
        install(replace(current(), checkpoint=tmp_path, resume=True))
        resumed = brute_force_search(small_space, surrogate)
        assert resumed.best_config == baseline.best_config
        assert resumed.best_cost == baseline.best_cost
        assert resumed.evaluations == baseline.evaluations
        assert resumed.skipped_infeasible == baseline.skipped_infeasible
        _, evals, _ = load_journal(journal_path)
        assert len(evals) == baseline.evaluations


class TestCLIAndManifest:
    def test_resume_requires_checkpoint(self, capsys):
        assert main(["fig12", "--resume"]) == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_lineage_is_volatile_in_stable_view(self):
        a = RunManifest("exp", config={"x": 1}, run_id="runA")
        b = RunManifest("exp", config={"x": 1}, run_id="runB")
        b.set_lineage(resumed=True, parent_run_ids=["runA"])
        view_a, view_b = stable_view(a.finish()), stable_view(b.finish())
        for view in (view_a, view_b):
            for key in ("run_id", "lineage", "started_at", "wall_time_s",
                        "git_sha"):
                assert key not in view
        assert {k: v for k, v in view_a.items() if k != "metrics"} == \
               {k: v for k, v in view_b.items() if k != "metrics"}
        full = b.finish()
        assert full["run_id"] == "runB"
        assert full["lineage"]["parent_run_ids"] == ["runA"]
