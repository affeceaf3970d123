"""``python -m bench compare``: verdicts, exit codes, host refusal."""

import json

import pytest

from bench.compare import compare, judge, main

BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


def test_clear_gain_is_improved():
    new = [x * 0.8 for x in BASE]
    assert judge(BASE, new, "lower", 0.1) == ("improved", 1.0)


def test_higher_is_better_flips_the_direction():
    new = [x * 0.8 for x in BASE]
    verdict, wins = judge(BASE, new, "higher", 0.1)
    assert verdict == "worse" and wins == 0.0


def test_regression_beyond_the_bound_is_worse():
    assert judge(BASE, [x * 1.2 for x in BASE], "lower", 0.1)[0] == "worse"


def test_small_drift_within_the_bound_is_unchanged():
    assert judge(BASE, [x * 1.03 for x in BASE], "lower", 0.1)[0] \
        == "unchanged"


def test_gain_needs_nine_in_ten_pairs():
    # better median, but only 8 of 10 pairs won
    new = [x * 0.97 for x in BASE[:8]] + [x * 1.05 for x in BASE[8:]]
    verdict, wins = judge(BASE, new, "lower", 0.1)
    assert wins == pytest.approx(0.8)
    assert verdict == "unchanged"


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    shifted = [x * 1.05 for x in reversed(noisy)]
    assert judge(noisy, shifted, "lower", 0.1)[0] == "unresolved"
    # ... unless every new run beats every base run
    assert judge(noisy, [10.0] * 10, "lower", 0.1)[0] == "improved"


def test_per_layer_counts_read_same_or_changed():
    assert judge([5.0] * 3, [5.0] * 3, "lower", None)[0] == "same"
    assert judge([5.0] * 3, [6.0] * 3, "lower", None)[0] == "changed"
    assert judge([5.0, 5.1], [5.0, 5.2], "lower", None)[0] == "info"


def test_per_layer_timings_can_read_improved_but_never_worse():
    faster = [x * 0.8 for x in BASE]
    assert judge(BASE, faster, "lower", None) == ("improved", 1.0)
    assert judge(faster, BASE, "lower", None) == ("info", 0.0)


def _run(workload, value, failed=0, host="cpu-a"):
    return {"schema": "c2bound.bench-result/1", "workload": workload,
            "trace": False, "smoke": False, "attempted": 10,
            "failed": failed, "correct": failed == 0,
            "metrics": {"setup_s": {"value": value, "unit": "s"}},
            "layers": {"search_s": value / 10, "failed_frac": failed / 10},
            "host": {"cpu_model": host, "nproc": 2, "python": "3",
                     "numpy": "2", "platform": "linux"}}


SPECS = {"setup_s": {"name": "setup_s", "unit": "s", "better": "lower",
                     "bound": 0.1},
         "search_s": {"name": "search_s", "unit": "s", "better": "lower"},
         "failed_frac": {"name": "failed_frac", "unit": "ratio",
                         "better": "lower"}}


def test_rows_per_workload_include_untraced_layers_and_failed_share():
    base = [_run("a", v) for v in BASE]
    new = [_run("a", v, failed=1) for v in BASE]
    rows = compare(base, new, SPECS)
    assert [(r["metric"], r["verdict"]) for r in rows] == [
        ("setup_s", "unchanged"), ("search_s", "info"),
        ("failed_frac", "worse")]


def _write(path, runs):
    path.write_text("".join(json.dumps(r) + "\n" for r in runs))
    return str(path)


def test_main_exits_nonzero_on_a_worse_row(tmp_path, capsys):
    base = _write(tmp_path / "base.jsonl", [_run("a", v) for v in BASE])
    same = _write(tmp_path / "same.jsonl", [_run("a", v) for v in BASE])
    slow = _write(tmp_path / "slow.jsonl",
                  [_run("a", v * 1.5) for v in BASE])
    assert main([base, same]) == 0
    assert main([base, slow]) == 1
    assert "worse" in capsys.readouterr().out


def test_main_refuses_results_from_different_hosts(tmp_path, capsys):
    base = _write(tmp_path / "base.jsonl", [_run("a", 1.0)])
    other = _write(tmp_path / "other.jsonl", [_run("a", 1.0, host="cpu-b")])
    assert main([base, other]) == 2
    assert "different hosts" in capsys.readouterr().err
