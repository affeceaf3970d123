"""Perf-regression sentry: noise-banded gating over BENCH records."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "perf_sentry",
    Path(__file__).resolve().parent.parent / "scripts" / "perf_sentry.py")
sentry = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(sentry)


def _bench_record(path: Path, *, test="test_fig12", wall=1.0,
                  evaluations=100):
    path.write_text(json.dumps({
        "schema": "c2bound.manifest/1",
        "experiment": "fig12",
        "test": test,
        "package_version": "1.0.0",
        "git_sha": "cafe",
        "wall_time_s": wall,
        "metrics": {"counters": {"dse.evaluations": evaluations},
                    "gauges": {}, "histograms": {}},
    }))


def _seed_history(baselines: Path, *, bench="test_fig12",
                  times=(1.0,) * 5, evaluations=100):
    with baselines.open("a") as fh:
        for wall in times:
            fh.write(json.dumps({
                "bench": bench, "wall_time_s": wall, "git_sha": "cafe",
                "package_version": "1.0.0",
                "work": {"dse.evaluations": evaluations}}) + "\n")


@pytest.fixture
def results(tmp_path):
    d = tmp_path / "results"
    d.mkdir()
    return d


@pytest.fixture
def baselines(tmp_path):
    return tmp_path / "perf_baselines.jsonl"


class TestLoad:
    def test_summary_records_without_wall_time_are_skipped(self, results):
        (results / "BENCH_speedup.json").write_text(
            json.dumps({"speedup": 20.0, "batched_s": 0.1}))
        _bench_record(results / "BENCH_real.json")
        records = sentry.load_bench_records(results)
        assert [r["bench"] for r in records] == ["test_fig12"]
        assert records[0]["work"] == {"dse.evaluations": 100}


class TestUpdate:
    def test_update_appends_history(self, results, baselines):
        _bench_record(results / "BENCH_a.json", wall=2.0)
        assert sentry.run_update(results, baselines) == 1
        assert sentry.run_update(results, baselines) == 1
        history = sentry.load_history(baselines)
        assert [e["wall_time_s"] for e in history["test_fig12"]] == [2.0, 2.0]


class TestCheck:
    def test_synthetic_2x_slowdown_fails(self, results, baselines):
        """The acceptance criterion: a 2x regression must always trip."""
        _seed_history(baselines, times=(1.0, 1.02, 0.98, 1.01, 0.99))
        _bench_record(results / "BENCH_fig12.json", wall=2.0)
        report = sentry.run_check(results, baselines)
        assert report["regressions"] == 1
        check = report["checks"][0]
        assert check["status"] == "regression"
        assert check["ratio"] == pytest.approx(2.0)

    def test_2x_fails_even_at_max_noise_band(self, results, baselines):
        # Wildly noisy history saturates the band at BAND_CEIL < 1.0,
        # so 2x the median still fails.
        times = (1.0, 0.2, 3.0, 0.5, 2.5, 1.1, 0.9)
        _seed_history(baselines, times=times)
        median = sorted(times)[len(times) // 2]
        _bench_record(results / "BENCH_fig12.json", wall=2.0 * median)
        report = sentry.run_check(results, baselines)
        assert report["checks"][0]["band"] == sentry.BAND_CEIL
        assert report["regressions"] == 1

    def test_noise_within_band_passes(self, results, baselines):
        _seed_history(baselines, times=(1.0, 1.05, 0.95, 1.02, 0.97))
        _bench_record(results / "BENCH_fig12.json", wall=1.3)  # +30%
        report = sentry.run_check(results, baselines)
        assert report["regressions"] == 0
        assert report["checks"][0]["status"] == "ok"

    def test_speedup_passes(self, results, baselines):
        _seed_history(baselines)
        _bench_record(results / "BENCH_fig12.json", wall=0.4)
        report = sentry.run_check(results, baselines)
        assert report["checks"][0]["status"] == "ok"

    def test_unknown_bench_is_new_not_failed(self, results, baselines):
        baselines.write_text("")
        _bench_record(results / "BENCH_fig12.json")
        report = sentry.run_check(results, baselines)
        assert report["checks"][0]["status"] == "new"
        assert report["regressions"] == 0

    def test_workload_drift_skips_comparison(self, results, baselines):
        _seed_history(baselines, evaluations=100)
        # Same bench now does 10x the work: slower, but not a regression.
        _bench_record(results / "BENCH_fig12.json", wall=10.0,
                      evaluations=1000)
        report = sentry.run_check(results, baselines)
        assert report["checks"][0]["status"] == "workload_drift"
        assert report["regressions"] == 0

    def test_zero_count_is_no_work_not_drift(self, results, baselines):
        # Whether a zeroed counter lands in a record depends on which
        # benches ran earlier in the session; zero and absent agree.
        baselines.write_text(json.dumps({
            "bench": "test_fig12", "wall_time_s": 1.0, "work": {}}) + "\n")
        _bench_record(results / "BENCH_fig12.json", evaluations=0)
        report = sentry.run_check(results, baselines)
        assert report["checks"][0]["status"] == "ok"
        assert report["drifted"] == []

    def test_window_limits_history(self, results, baselines):
        # Ancient slow history beyond the window must not mask a
        # regression against the recent fast regime.
        _seed_history(baselines, times=(10.0,) * 30)
        _seed_history(baselines, times=(1.0,) * 20)
        _bench_record(results / "BENCH_fig12.json", wall=2.0)
        report = sentry.run_check(results, baselines, window=20)
        check = report["checks"][0]
        assert check["baseline_s"] == pytest.approx(1.0)
        assert check["status"] == "regression"


class TestMain:
    def test_check_exit_codes_and_json(self, results, baselines, tmp_path,
                                       capsys):
        _seed_history(baselines)
        _bench_record(results / "BENCH_fig12.json", wall=1.0)
        json_out = tmp_path / "sentry.json"
        rc = sentry.main(["check", "--results", str(results),
                          "--baselines", str(baselines),
                          "--json", str(json_out)])
        assert rc == 0
        assert json.loads(json_out.read_text())["regressions"] == 0
        _bench_record(results / "BENCH_fig12.json", wall=5.0)
        rc = sentry.main(["check", "--results", str(results),
                          "--baselines", str(baselines)])
        assert rc == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_workload_drift_fails_and_names_the_bench(
            self, results, baselines, capsys):
        _seed_history(baselines, evaluations=100)
        _bench_record(results / "BENCH_fig12.json", evaluations=1000)
        rc = sentry.main(["check", "--results", str(results),
                          "--baselines", str(baselines)])
        assert rc == 1
        captured = capsys.readouterr()
        assert "DRIFT      test_fig12" in captured.out
        assert "workload drift in test_fig12" in captured.err
        # Re-baselining in the same change clears the gate.
        sentry.run_update(results, baselines)
        assert sentry.main(["check", "--results", str(results),
                            "--baselines", str(baselines)]) == 0
        capsys.readouterr()

    def test_update_then_check_round_trip(self, results, baselines,
                                          capsys):
        _bench_record(results / "BENCH_fig12.json", wall=1.0)
        assert sentry.main(["update", "--results", str(results),
                            "--baselines", str(baselines)]) == 0
        assert sentry.main(["check", "--results", str(results),
                            "--baselines", str(baselines)]) == 0
        capsys.readouterr()

    def test_missing_results_dir(self, tmp_path, capsys):
        rc = sentry.main(["check", "--results",
                          str(tmp_path / "absent")])
        assert rc == 2
        capsys.readouterr()

    def test_committed_baselines_cover_tracked_benches(self):
        committed = sentry.DEFAULT_BASELINES
        assert committed.exists(), "seed benchmarks/perf_baselines.jsonl"
        history = sentry.load_history(committed)
        assert {"test_dse_batch_speedup",
                "test_sim_hotpath_speedup"} <= set(history)
