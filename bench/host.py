"""Where the benchmark runs: checkout paths, a clean child environment
and the host fingerprint every result carries."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

#: The checkout the benchmark measures (the directory holding ``bench/``).
ROOT = Path(__file__).resolve().parents[1]
#: The program under test, imported from source.
SRC = ROOT / "src"
#: Scratch space for stores, server state and traces.
WORK = ROOT / ".bench_work"

#: Prefix of the program's own environment switches.  A developer's
#: shell may set ``C2BOUND_SIM_CACHE`` (turns on a result cache),
#: ``C2BOUND_SIM_KERNEL=0`` (forces the scalar simulator) or
#: ``C2BOUND_SANITIZE`` (arms the shard sanitizer); any of them would
#: change what a workload measures, so workload processes never see them.
DROPPED_ENV_PREFIX = "C2BOUND_"


def work_dir() -> Path:
    """:data:`WORK`, created with a ``.gitignore`` that ignores all of it,
    so nothing a run leaves there shows up in the checkout's git status."""
    WORK.mkdir(exist_ok=True)
    ignore = WORK / ".gitignore"
    if not ignore.is_file():
        ignore.write_text("*\n")
    return WORK


def source_present() -> bool:
    """Whether the checkout holds the program's source tree."""
    return (SRC / "repro" / "__init__.py").is_file()


def nproc() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def child_env(tmpdir: Path) -> dict:
    """Environment for a workload process and everything it starts.

    Drops the program's switches, puts the checkout's source first on
    the import path and points temporary files into ``tmpdir`` so a run
    writes nothing outside the checkout.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(DROPPED_ENV_PREFIX)}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(tmpdir)
    return env


def dropped_env() -> "list[str]":
    """Names of the switches :func:`child_env` removes from this shell."""
    return sorted(k for k in os.environ if k.startswith(DROPPED_ENV_PREFIX))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_sha() -> "str | None":
    # The ceiling keeps git from adopting a repository above the
    # checkout: an exported tree has no SHA of its own.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=5)
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def fingerprint(seed: int) -> dict:
    """CPU model, core count, interpreter and NumPy versions, SHA, seed."""
    import numpy
    return {"cpu_model": _cpu_model(), "nproc": nproc(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": sys.platform,
            "git_sha": _git_sha(), "seed": int(seed)}


#: Fingerprint fields that must agree before two results are compared.
HOST_KEYS = ("cpu_model", "nproc", "python", "numpy", "platform")


def host_of(fp: dict) -> tuple:
    """The part of a fingerprint naming the machine and toolchain."""
    return tuple(fp.get(k) for k in HOST_KEYS)
