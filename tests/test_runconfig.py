"""The one run configuration: environment seeding, the process slot, the
CLI's flag precedence, and the single place ``C2BOUND_*`` is read."""

from __future__ import annotations

import ast
import json
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import pytest

import repro
from repro import cli
from repro.errors import DesignSpaceError
from repro.io.results import ResultTable
from repro.resilience.checkpoint import journal_for_method
from repro.runconfig import RunConfig, current, install

SRC = Path(repro.__file__).resolve().parent


@pytest.fixture
def clean_env(monkeypatch):
    monkeypatch.delenv("C2BOUND_SIM_CACHE", raising=False)
    return monkeypatch


# ---- the only reader of C2BOUND_* ------------------------------------------

def _env_reads(path: Path) -> "list[int]":
    """Lines of a module that name a ``C2BOUND_*`` variable in code (not
    a docstring) while the module touches ``os.environ``/``os.getenv``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    touches_env = any(
        (isinstance(node, ast.Attribute)
         and node.attr in ("environ", "getenv"))
        or (isinstance(node, ast.Name) and node.id in ("environ", "getenv"))
        for node in ast.walk(tree))
    if not touches_env:
        return []
    docstrings = {id(body[0].value) for body in
                  (getattr(n, "body", None) for n in ast.walk(tree))
                  if isinstance(body, list) and body
                  and isinstance(body[0], ast.Expr)
                  and isinstance(body[0].value, ast.Constant)}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.startswith("C2BOUND_")
            and id(node) not in docstrings]


def test_only_runconfig_reads_c2bound_environment():
    readers = {str(path.relative_to(SRC)): lines
               for path in sorted(SRC.rglob("*.py"))
               if (lines := _env_reads(path))}
    # The scan finds the one legitimate reader, so it can find others.
    assert set(readers) == {"runconfig.py"}, readers


# ---- environment seeding ---------------------------------------------------

def test_from_env_defaults(clean_env):
    config = RunConfig.from_env()
    assert config == RunConfig()
    assert config.batch_size == 2048
    assert config.sim_cache is None
    assert (config.checkpoint, config.resume, config.run_id) == (
        None, False, None)


def test_from_env_sim_cache(clean_env, tmp_path):
    clean_env.setenv("C2BOUND_SIM_CACHE", str(tmp_path / "store"))
    store = RunConfig.from_env().sim_cache
    assert store is not None and store.root == tmp_path / "store"
    clean_env.setenv("C2BOUND_SIM_CACHE", "")
    assert RunConfig.from_env().sim_cache is None


# ---- the value and the slot ------------------------------------------------

def test_config_is_frozen():
    config = RunConfig()
    with pytest.raises(FrozenInstanceError):
        config.batch_size = 7  # type: ignore[misc]


def test_batch_size_is_validated():
    with pytest.raises(DesignSpaceError):
        RunConfig(batch_size=0)


def test_install_returns_previous_and_none_reseeds(clean_env, tmp_path):
    mine = RunConfig(batch_size=7)
    before = install(mine)
    assert current() is mine
    assert install(None) is mine
    clean_env.setenv("C2BOUND_SIM_CACHE", str(tmp_path / "store"))
    assert current().sim_cache.root == tmp_path / "store"
    install(before)


def test_journal_claims_reset_on_install(tmp_path):
    config = replace(current(), checkpoint=tmp_path)
    install(config)
    first, _ = journal_for_method("aps")
    second, _ = journal_for_method("aps")
    assert (first.path.name, second.path.name) == ("aps.jsonl",
                                                   "aps-2.jsonl")
    # Claims are bookkeeping, not settings: they do not affect equality.
    assert config == replace(config)
    install(replace(config, resume=True))
    again, _ = journal_for_method("aps")
    assert again.path.name == "aps.jsonl"
    # Re-installing the same config resets its claims too.
    install(config)
    assert not config.journal_claims
    for journal in (first, second, again):
        journal.close()


# ---- the CLI builds and installs one config --------------------------------

@pytest.fixture
def probe(monkeypatch):
    """A ``probe`` experiment recording the config it runs under."""
    seen: "list[RunConfig]" = []

    def run(reporter):
        seen.append(current())
        table = ResultTable(["x"], title="probe")
        table.add_row(1)
        return table

    monkeypatch.setitem(cli.EXPERIMENTS, "probe", ("records config", run))
    return seen


@pytest.mark.parametrize("flags,env,expected", [
    (["--no-sim-cache", "--sim-cache", "flag"], "env", None),
    (["--sim-cache", "flag"], "env", "flag"),
    ([], "env", "env"),
    ([], None, None),
], ids=["no-sim-cache", "flag", "env", "off"])
def test_cli_sim_cache_precedence(clean_env, tmp_path, probe, flags, env,
                                  expected):
    if env is not None:
        clean_env.setenv("C2BOUND_SIM_CACHE", str(tmp_path / env))
    argv = ["probe", "--quiet"] + [
        str(tmp_path / f) if f == "flag" else f for f in flags]
    assert cli.main(argv) == 0
    [config] = probe
    root = None if config.sim_cache is None else config.sim_cache.root
    assert root == (None if expected is None else tmp_path / expected)


def test_cli_manifest_config_is_the_installed_config(tmp_path, probe):
    manifest_path = tmp_path / "manifest.json"
    assert cli.main(["probe", "--quiet", "--batch-size", "7",
                     "--checkpoint", str(tmp_path / "ck"),
                     "--sim-cache", str(tmp_path / "store"),
                     "--manifest", str(manifest_path)]) == 0
    [config] = probe
    manifest = json.loads(manifest_path.read_text())
    assert config.batch_size == 7
    assert manifest["run_id"] == config.run_id
    fields = config.manifest_config()
    assert {k: manifest["config"][k] for k in fields} == fields
    # main() hands the previous config back when it returns.
    assert current() is not config


def test_cli_resume_without_checkpoint_exits_2(probe, capsys):
    assert cli.main(["probe", "--resume"]) == 2
    assert "--checkpoint" in capsys.readouterr().err
    assert probe == []


def test_diff_treats_batch_size_as_invocation_only(tmp_path, capsys):
    run_a, run_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["fig1", "--quiet", "--out", str(run_a)]) == 0
    assert cli.main(["fig1", "--quiet", "--out", str(run_b),
                     "--batch-size", "7"]) == 0
    capsys.readouterr()
    assert cli.main(["diff", str(run_a), str(run_b)]) == 0
    assert "bit_identical" in capsys.readouterr().out


@pytest.mark.parametrize("key,value", [
    ("sim_kernel", True),
    ("sanitize", True),
    ("sanitize_log", "findings.jsonl"),
])
def test_diff_ignores_retired_settings(tmp_path, capsys, key, value):
    # Manifests written while these were run settings (the epoch kernel
    # switch, the runtime shard-write checker and its log) carry them in
    # config; they must still diff identical to newer runs.
    run_a, run_b = tmp_path / "a", tmp_path / "b"
    for run in (run_a, run_b):
        assert cli.main(["fig1", "--quiet", "--out", str(run)]) == 0
    manifest_path = run_a / "manifest_fig1.json"
    manifest = json.loads(manifest_path.read_text())
    assert key not in manifest["config"]
    manifest["config"][key] = value
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert cli.main(["diff", str(run_a), str(run_b)]) == 0
    out = capsys.readouterr().out
    assert "verdict: bit_identical" in out
    assert "config: identical" in out
