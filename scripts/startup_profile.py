"""Start-up import profile: ``-X importtime`` self time by package.

Runs three start-up lines, each in a fresh interpreter:

- ``aps`` — the benchmark's ``aps-*`` set-up line,
  ``import repro.dse, repro.experiments.fig12_aps, repro.workloads,
  repro.sim``;
- ``server`` — what ``c2bound serve`` imports before it listens,
  ``import repro.service.cli, repro.service.server``;
- ``version`` — ``python -m repro.cli --version``.

Each of ``--runs`` rounds runs every line once per source tree, the
trees in alternating order, so drift on the host hits all of them
alike.  The self times ``-X importtime`` reports are summed by package
(``repro.<subpackage>``, ``numpy``, and everything else as ``stdlib
and other``) and the median over rounds is printed as one Markdown
table per line: milliseconds, with the number of modules imported in
brackets.  Stdlib only.  Usage::

    python scripts/startup_profile.py                  # this tree
    python scripts/startup_profile.py --runs 31 \\
        --src before=/path/to/old/src --src after=src  # a comparison

Whether the interpreter may write ``.pyc`` files changes the numbers
(``PYTHONDONTWRITEBYTECODE`` makes every import compile from source);
the header says which held.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

LINES = {
    "aps": ["-c", "import repro.dse, repro.experiments.fig12_aps, "
                  "repro.workloads, repro.sim"],
    "server": ["-c", "import repro.service.cli, repro.service.server"],
    "version": ["-m", "repro.cli", "--version"],
}
OTHER = "stdlib and other"
ALL = "all"


def package_of(module: str) -> str:
    """The row a module's self time is summed into."""
    parts = module.split(".")
    if parts[0] == "repro":
        return ".".join(parts[:2])
    if parts[0] == "numpy":
        return "numpy"
    return OTHER


def parse_importtime(stderr: str) -> "dict[str, tuple[float, int]]":
    """Package -> (self milliseconds, modules) from ``-X importtime``."""
    totals: "dict[str, list[float]]" = defaultdict(lambda: [0.0, 0])
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the column header
        self_ms = int(fields[0]) / 1000.0
        for row in (package_of(fields[2].strip()), ALL):
            totals[row][0] += self_ms
            totals[row][1] += 1
    return {row: (ms, int(n)) for row, (ms, n) in totals.items()}


def profile_once(src: Path,
                 argv: "list[str]") -> "dict[str, tuple[float, int]]":
    """One fresh interpreter's self time by package."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-X", "importtime", *argv],
                          env=env, capture_output=True, text=True,
                          check=True)
    return parse_importtime(done.stderr)


def profile(trees: "dict[str, Path]", runs: int) -> dict:
    """(line, tree label) -> package -> list of per-run (ms, modules)."""
    samples: dict = defaultdict(lambda: defaultdict(list))
    labels = list(trees)
    for i in range(runs):
        order = labels if i % 2 == 0 else labels[::-1]
        for line, argv in LINES.items():
            for label in order:
                run = profile_once(trees[label], argv)
                for row, value in run.items():
                    samples[line, label][row].append(value)
    return samples


def table(line: str, labels: "list[str]", samples: dict, runs: int) -> str:
    rows = sorted({row for label in labels for row in samples[line, label]},
                  key=lambda row: (row != ALL, row == OTHER, row))
    out = ["| package | " + " | ".join(labels) + " |",
           "|---|" + "---|" * len(labels)]
    for row in rows:
        cells = []
        for label in labels:
            values = samples[line, label].get(row, [])
            # A package absent from a run counts as 0 ms there.
            ms = [v[0] for v in values] + [0.0] * (runs - len(values))
            count = max((v[1] for v in values), default=0)
            cells.append(f"{statistics.median(ms):.1f} ({count})")
        out.append(f"| {row} | " + " | ".join(cells) + " |")
    return "\n".join(out)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=15,
                        help="rounds per line and tree (default 15)")
    parser.add_argument("--src", action="append", default=[],
                        metavar="LABEL=PATH",
                        help="a source tree to profile (repeatable; "
                             "default: this repository's src)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    trees: "dict[str, Path]" = {}
    for item in args.src:
        label, sep, path = item.partition("=")
        if not sep or not label or not path:
            parser.error(f"--src wants LABEL=PATH, got {item!r}")
        trees[label] = Path(path).resolve()
    if not trees:
        trees["this tree"] = Path(__file__).resolve().parents[1] / "src"
    samples = profile(trees, args.runs)
    pyc = ("no .pyc written (PYTHONDONTWRITEBYTECODE)"
           if os.environ.get("PYTHONDONTWRITEBYTECODE") else ".pyc allowed")
    print(f"# Start-up self time by package: median of {args.runs} "
          f"fresh interpreters per cell, Python "
          f"{sys.version.split()[0]}, {pyc}\n")
    for line, line_argv in LINES.items():
        shown = " ".join(line_argv[1:] if line_argv[0] == "-c"
                         else ["python", *line_argv])
        print(f"## {line}: `{shown}`\n")
        print(table(line, list(trees), samples, args.runs) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
