"""End to end at tiny sizes: every workload runs and checks out, a
perturbed pinned digest fails the run, a warm pass that re-simulates is
caught, and without the program's source the benchmark refuses to run."""

import json
import shutil
import subprocess
import sys

from bench import sweep
from bench.context import DEFAULT_SEED, Run, load_expected
from bench.host import ROOT


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "-m", "bench", "--smoke",
                           "--seconds", "1", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def _last(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _smoke_run(tmp_path, expected=None) -> Run:
    return Run("warm-sweep", seed=DEFAULT_SEED, seconds=1, smoke=True,
               workdir=tmp_path, expected=expected)


def test_every_workload_runs_and_checks_out():
    proc = _bench()
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = _last(proc)
    assert result["correct"] and result["failed"] == 0
    names = {key.split("/")[0] for key in result["metrics"]}
    assert names == {"aps-wide", "aps-narrow", "warm-sweep", "service"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_a_perturbed_expected_digest_fails_the_run(tmp_path):
    expected = load_expected()
    expected["smoke"]["warm-sweep"]["sweep"]["costs_digest"] = "0" * 16
    run = _smoke_run(tmp_path, expected)
    sweep.measure(run)
    assert not run.result()["correct"]
    assert any(f.startswith("sweep:") for f in run.failures), run.failures


def test_a_warm_pass_that_re_simulates_is_caught(tmp_path):
    run = _smoke_run(tmp_path)
    work = sweep.Sweep(run)
    root = tmp_path / "store"
    _, result, probe = work.pass_(root)
    ref = (root, sweep._summary(result, probe), probe.costs)
    sweep.check_warm(run, work, ref)
    assert not run.failures
    # Lose entries: the pooled pass misses them in pool workers, whose
    # counters this process never sees, and writes them back.
    for path in list(root.rglob("*.json"))[::4]:
        path.unlink()
    sweep.check_warm(run, work, ref)
    assert any("pooled warm pass wrote" in f for f in run.failures), \
        run.failures


def test_without_the_program_source_it_exits_nonzero(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "-m", "bench", "--workload",
                           "aps-wide", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
