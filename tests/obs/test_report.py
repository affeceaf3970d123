"""Run analysis: discovery, report building, HTML, diff, tail."""

from __future__ import annotations

import json
from html.parser import HTMLParser

import pytest

from repro.obs.registry import get_registry
from repro.obs.report import (
    REPORT_SCHEMA,
    build_report,
    cli_main,
    diff_runs,
    discover_run,
    render_html,
)

_VOID = {"meta", "line", "circle", "polyline", "br", "img", "input"}


def _trace_events():
    return [
        {"type": "run", "schema": "c2bound.trace/1", "name": "t",
         "ts": 100.0, "attrs": {}},
        {"type": "span", "name": "sim.run", "id": 3, "parent": 2,
         "ts": 100.5, "dur_s": 2.0, "attrs": {"cores": 2}},
        {"type": "span", "name": "dse.batch", "id": 2, "parent": 1,
         "ts": 100.2, "dur_s": 2.5,
         "attrs": {"size": 10, "fresh": 8, "cached": 2}},
        {"type": "event", "name": "resilience.chunk_lost", "ts": 103.0,
         "span": 1, "attrs": {"chunk": 0, "reason": "timeout"}},
        {"type": "span", "name": "dse.batch", "id": 4, "parent": 1,
         "ts": 103.0, "dur_s": 1.0,
         "attrs": {"size": 10, "fresh": 2, "cached": 8}},
        # Starts before batch 4 and ends after it: trace (exit) order
        # and start order disagree.
        {"type": "span", "name": "dse.batch", "id": 5, "parent": 1,
         "ts": 102.8, "dur_s": 1.5,
         "attrs": {"size": 2, "fresh": 1, "cached": 1}},
        {"type": "span", "name": "experiment.fig12", "id": 1,
         "parent": None, "ts": 100.0, "dur_s": 5.0, "attrs": {}},
    ]


def _make_run(root, *, out_name="runA", csv_text="a,b\n1,2\n",
              fresh=10, wall=5.0):
    root.mkdir(parents=True, exist_ok=True)
    manifest = {
        "schema": "c2bound.manifest/1",
        "experiment": "fig12",
        "run_id": f"id-{out_name}",
        "argv": ["fig12", "--out", out_name],
        "config": {"workload": "fluidanimate", "n_ops": 8000,
                   "out": out_name, "resume": out_name == "runB"},
        "seed": None,
        "package_version": "1.0.0",
        "git_sha": "deadbeef",
        "started_at": 100.0,
        "wall_time_s": wall,
        "metrics": {},
    }
    metrics = {
        "counters": {"dse.evaluations": fresh,
                     "dse.evaluations{method=aps}": fresh // 2,
                     "dse.evaluations{method=ann}": fresh - fresh // 2,
                     "dse.evaluations_cached": 10,
                     "sim.cache.hits": 3 if out_name == "runB" else 0},
        "gauges": {"dse.ann.cv_error": 0.05},
        "histograms": {"dse.batch_seconds":
                       {"count": 2, "sum": wall, "min": 0.1,
                        "max": wall, "mean": wall / 2}},
    }
    (root / "manifest_fig12.json").write_text(json.dumps(manifest))
    (root / "metrics.json").write_text(json.dumps(metrics))
    (root / "trace.jsonl").write_text(
        "".join(json.dumps(e) + "\n" for e in _trace_events()))
    (root / "fig12.csv").write_text(csv_text)
    # Distractors that content-sniffing must not misidentify.
    (root / "notes.json").write_text(json.dumps({"hello": 1}))
    return root


class _Balance(HTMLParser):
    def __init__(self):
        super().__init__()
        self.stack = []

    def handle_starttag(self, tag, attrs):
        if tag not in _VOID:
            self.stack.append(tag)

    def handle_endtag(self, tag):
        if tag in _VOID:  # self-closed SVG marks surface as start+end
            return
        assert self.stack and self.stack[-1] == tag, (
            f"unbalanced </{tag}>, stack {self.stack[-3:]}")
        self.stack.pop()


class TestDiscovery:
    def test_artifacts_found_by_content(self, tmp_path):
        run = discover_run(_make_run(tmp_path / "runA"))
        assert run.manifest_path.name == "manifest_fig12.json"
        assert run.metrics_path.name == "metrics.json"
        assert run.trace_path.name == "trace.jsonl"
        assert [p.name for p in run.csvs] == ["fig12.csv"]
        assert run.experiment == "fig12"

    def test_metrics_fall_back_to_manifest(self, tmp_path):
        root = _make_run(tmp_path / "runA")
        (root / "metrics.json").unlink()
        manifest = json.loads((root / "manifest_fig12.json").read_text())
        manifest["metrics"] = {"counters": {"dse.evaluations": 7},
                               "gauges": {}, "histograms": {}}
        (root / "manifest_fig12.json").write_text(json.dumps(manifest))
        run = discover_run(root)
        assert run.metrics_path is None
        assert run.metrics["counters"]["dse.evaluations"] == 7

    def test_empty_dir(self, tmp_path):
        run = discover_run(tmp_path)
        assert run.manifest is None and run.trace_path is None
        assert run.csvs == []


class TestBuildReport:
    def test_report_document(self, tmp_path):
        report = build_report(_make_run(tmp_path / "runA"))
        assert report["schema"] == REPORT_SCHEMA
        assert report["experiment"] == "fig12"
        assert report["wall_time_s"] == 5.0
        assert report["evaluations"]["fresh"] == 10
        assert report["evaluations"]["by_method"] == {"aps": 5, "ann": 5}
        # Profile: experiment root of 5s fully covers the trace window.
        profile = report["profile"]
        assert profile["coverage"] == pytest.approx(1.0)
        assert profile["buckets"]["simulation"]["seconds"] == (
            pytest.approx(2.0 + 2.5 - 2.0 + 1.0 + 1.5))  # sim.run + batch self
        # Curve: cumulative cached share in batch start order (batch 5
        # before batch 4), not trace order, which would give [10, 20, 22].
        assert [p["evaluations"] for p in report["cache_curve"]] == [
            10, 12, 22]
        assert [p["hit_rate"] for p in report["cache_curve"]] == [
            pytest.approx(0.2), pytest.approx(0.25), pytest.approx(0.5)]
        # Timeline carries the resilience event with run-relative time.
        assert len(report["timeline"]) == 1
        entry = report["timeline"][0]
        assert entry["name"] == "resilience.chunk_lost"
        assert entry["t_rel_s"] == pytest.approx(3.0)
        assert entry["attrs"]["reason"] == "timeout"

    def test_report_without_trace(self, tmp_path):
        root = _make_run(tmp_path / "runA")
        (root / "trace.jsonl").unlink()
        report = build_report(root)
        assert report["profile"] is None
        assert report["cache_curve"] == []
        assert report["evaluations"]["fresh"] == 10


class TestRenderHtml:
    def test_self_contained_and_balanced(self, tmp_path):
        page = render_html(build_report(_make_run(tmp_path / "runA")))
        parser = _Balance()
        parser.feed(page)
        assert parser.stack == []
        for fragment in ("Wall-clock attribution",
                         "Evaluation-cache hit rate",
                         "Retry / fault timeline",
                         "resilience.chunk_lost",
                         "simulation", "viz-root",
                         "prefers-color-scheme: dark"):
            assert fragment in page, fragment
        # Self-contained: no external fetches.
        assert "http://" not in page and "https://" not in page
        assert "<script" not in page

    def test_render_without_trace(self, tmp_path):
        root = _make_run(tmp_path / "runA")
        (root / "trace.jsonl").unlink()
        page = render_html(build_report(root))
        assert "No trace found" in page


class TestDiff:
    def test_resumed_twin_is_bit_identical(self, tmp_path):
        a = _make_run(tmp_path / "runA", out_name="runA", wall=5.0)
        b = _make_run(tmp_path / "runB", out_name="runB", wall=3.0)
        diff = diff_runs(a, b)
        assert diff["verdict"] == "bit_identical"
        assert diff["config"]["identical"] is True
        # The invocation differences are visible, just not identity.
        assert "out" in diff["config"]["invocation_differing"]
        assert "resume" in diff["config"]["invocation_differing"]
        # Volatile counters differ and surface as deltas only.
        assert "sim.cache.hits" in diff["metrics"]["deltas"]["counters"]
        assert diff["metrics"]["mismatches"] == []
        assert diff["outputs"]["all_identical"]
        assert diff["wall_time"]["delta_s"] == pytest.approx(-2.0)

    def test_perturbed_csv_fails_identity(self, tmp_path):
        a = _make_run(tmp_path / "runA")
        b = _make_run(tmp_path / "runB", csv_text="a,b\n1,999\n")
        diff = diff_runs(a, b)
        assert diff["verdict"] == "different"
        assert diff["outputs"]["differing"] == ["fig12.csv"]

    def test_deterministic_counter_mismatch_fails_identity(self, tmp_path):
        a = _make_run(tmp_path / "runA", fresh=10)
        b = _make_run(tmp_path / "runB", fresh=12)
        diff = diff_runs(a, b)
        assert diff["verdict"] == "different"
        assert "dse.evaluations" in diff["metrics"]["mismatches"]

    def test_histogram_compared_on_count_only(self, tmp_path):
        # Same counts, different sums (wall-clock): still identical.
        a = _make_run(tmp_path / "runA", wall=5.0)
        b = _make_run(tmp_path / "runB", wall=9.0)
        diff = diff_runs(a, b)
        assert diff["verdict"] == "bit_identical"

    def test_profile_bucket_deltas_present(self, tmp_path):
        a = _make_run(tmp_path / "runA")
        b = _make_run(tmp_path / "runB")
        diff = diff_runs(a, b)
        assert set(diff["profile"]["buckets"]) == {
            "simulation", "cache_io", "ipc", "queue_wait",
            "retry_backoff", "search", "framework"}


class TestCli:
    def test_report_command_writes_artifacts(self, tmp_path, capsys):
        root = _make_run(tmp_path / "runA")
        assert cli_main(["report", str(root), "--flame"]) == 0
        out = capsys.readouterr().out
        assert "wall-clock attribution" in out
        assert (root / "report.json").exists()
        assert (root / "report.html").exists()
        report = json.loads((root / "report.json").read_text())
        assert report["schema"] == REPORT_SCHEMA

    def test_report_reads_the_trace_once(self, tmp_path, capsys):
        root = _make_run(tmp_path / "runA")
        lines = len((root / "trace.jsonl").read_text().splitlines())
        events = get_registry().counter("obs.stream.events")
        before = events.value
        build_report(root)
        assert events.value - before == lines
        before = events.value
        assert cli_main(["report", str(root), "--flame"]) == 0
        assert events.value - before == lines
        assert "experiment.fig12" in capsys.readouterr().out  # the flame

    def test_report_command_out_dir(self, tmp_path):
        root = _make_run(tmp_path / "runA")
        out = tmp_path / "elsewhere"
        assert cli_main(["report", str(root), "--out", str(out),
                         "--quiet"]) == 0
        assert (out / "report.html").exists()
        assert not (root / "report.html").exists()

    def test_report_command_bad_dir(self, tmp_path):
        assert cli_main(["report", str(tmp_path / "nope")]) == 2

    def test_diff_command_exit_codes(self, tmp_path, capsys):
        a = _make_run(tmp_path / "runA")
        b = _make_run(tmp_path / "runB")
        c = _make_run(tmp_path / "runC", csv_text="a,b\n9,9\n")
        json_out = tmp_path / "diff.json"
        assert cli_main(["diff", str(a), str(b),
                         "--json", str(json_out)]) == 0
        assert "bit_identical" in capsys.readouterr().out
        assert json.loads(json_out.read_text())["kind"] == "diff"
        assert cli_main(["diff", str(a), str(c), "--quiet"]) == 1
        assert cli_main(["diff", str(a), str(tmp_path / "nope")]) == 2

    def test_tail_once(self, tmp_path, capsys):
        root = _make_run(tmp_path / "runA")
        assert cli_main(["tail", str(root / "trace.jsonl"),
                         "--once"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out, "tail printed nothing"
        assert "evals=22" in out[-1]
        assert "experiment.fig12" in out[-1]

    def test_tail_empty_trace(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert cli_main(["tail", str(path), "--once"]) == 1
        assert "no events" in capsys.readouterr().out

    def test_unknown_command(self, capsys):
        assert cli_main(["frobnicate"]) == 2
        assert cli_main([]) == 2
