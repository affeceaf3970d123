"""The C2L2xx interprocedural rules: bad fixtures, clean fixtures, and
seeded mutations of the real tree.

Each rule gets a minimal fixture package that violates exactly its
invariant plus a clean counterpart; the mutation tests then re-lint the
actual ``src/`` tree with one regression spliced in, proving the rules
fire on the real fabric/simulator code and not just on toy layouts.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import LintEngine
from repro.analysis.rules import make_rules
from repro.analysis.source import load_project


def codes(result):
    return [d.code for d in result.diagnostics]


# ---- C2L202: cross-boundary escape ------------------------------------------

BAD_JOBS = '''\
from concurrent.futures import ProcessPoolExecutor

SHARED = {}


def work(x):
    return x


def tally(x):
    global SHARED
    SHARED["x"] = x
    return x


class Runner:
    def evaluate(self, x):
        return x

    def launch(self, pool):
        pool.submit(work, lambda: 2)
        pool.submit(self.evaluate, 1)
        pool.submit(work, SHARED)
        pool.submit(tally, 3)
'''

GOOD_JOBS = '''\
from concurrent.futures import ProcessPoolExecutor

_TRACER = None


def work(x):
    return x


def get_tracer():
    global _TRACER
    if _TRACER is None:
        _TRACER = object()
    return _TRACER


def launch(pool, payload):
    pool.submit(work, payload)
    pool.submit(get_tracer)
'''


def test_c2l202_flags_every_escape_kind(lint_tree):
    result = lint_tree({"esc/__init__.py": "", "esc/jobs.py": BAD_JOBS},
                       rules=["C2L202"])
    assert codes(result) == ["C2L202"] * 4
    messages = " | ".join(d.message for d in result.diagnostics)
    assert "lambda crosses the pool boundary" in messages
    assert "bound method Runner.evaluate crosses the pool boundary" \
        in messages
    assert "mutable module global 'SHARED' crosses the pool boundary" \
        in messages
    assert "module global 'SHARED' written in pool-worker code" in messages


def test_c2l202_allows_plain_args_and_singleton_init(lint_tree):
    # get_tracer() writes _TRACER, but the lazy-singleton idiom
    # (get_* prefix + private global) is exempt.
    result = lint_tree({"esc/__init__.py": "", "esc/jobs.py": GOOD_JOBS},
                       rules=["C2L202"])
    assert codes(result) == []


# ---- C2L203: hot-path purity ------------------------------------------------

BAD_CORE = '''\
TICKS = 0


class CoreModel:
    def advance(self, horizon):
        self._bump()
        return self._step(horizon)

    def _step(self, horizon):
        self._lock.acquire()
        log(horizon)
        return horizon

    def _bump(self):
        global TICKS
        TICKS += 1


def log(value):
    print(value)
'''

GOOD_CORE = '''\
class CoreModel:
    def advance(self, horizon):
        return self._step(horizon)

    def _step(self, horizon):
        return horizon * 2
'''


def test_c2l203_flags_impurity_reachable_from_hot_roots(lint_tree):
    result = lint_tree({"hot/__init__.py": "", "hot/sim/__init__.py": "",
                        "hot/sim/core.py": BAD_CORE},
                       rules=["C2L203"])
    assert codes(result) == ["C2L203"] * 3
    messages = " | ".join(d.message for d in result.diagnostics)
    assert "writes module global 'TICKS'" in messages
    assert "performs I/O: print()" in messages
    assert "takes a lock: .acquire()" in messages
    # Every diagnostic names the hot root the offender is reachable from.
    assert all("reachable from hot.sim.core.CoreModel.advance" in d.message
               for d in result.diagnostics)


def test_c2l203_clean_on_pure_hot_path(lint_tree):
    result = lint_tree({"hot/__init__.py": "", "hot/sim/__init__.py": "",
                        "hot/sim/core.py": GOOD_CORE},
                       rules=["C2L203"])
    assert codes(result) == []


def test_c2l203_ignores_same_code_off_the_hot_roots(lint_tree):
    # An identically impure class that is not a hot root stays silent.
    source = BAD_CORE.replace("class CoreModel:", "class Helper:")
    result = lint_tree({"hot/__init__.py": "", "hot/sim/__init__.py": "",
                        "hot/sim/core.py": source},
                       rules=["C2L203"])
    assert codes(result) == []


# ---- C2L204: front-tier hit discipline --------------------------------------

BAD_TIERS_DIRECT = '''\
from collections import OrderedDict


class _Span:
    def span(self, name):
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def get_tracer():
    return _Span()


class TieredStore:
    def __init__(self):
        self._mem = OrderedDict()

    def get(self, key):
        mem = self._mem
        if key in mem:
            with get_tracer().span("hit"):
                return mem[key]
        return None
'''

BAD_TIERS_TRANSITIVE = '''\
from collections import OrderedDict


class TieredStore:
    def __init__(self):
        self._mem = OrderedDict()

    def get(self, key):
        if key in self._mem:
            self._note(key)
            return self._mem[key]
        return None

    def _note(self, key):
        with open("/tmp/x", "a") as fh:
            fh.write(key)
'''

GOOD_TIERS = '''\
from collections import OrderedDict


class TieredStore:
    def __init__(self):
        self._mem = OrderedDict()

    def get(self, key):
        mem = self._mem
        if key in mem:
            mem.move_to_end(key)
            return mem[key]
        with open(key) as fh:  # the miss path may touch disk
            return fh.read()
'''


def test_c2l204_flags_span_in_hit_branch(lint_tree):
    result = lint_tree({"tiers/__init__.py": "",
                        "tiers/store.py": BAD_TIERS_DIRECT},
                       rules=["C2L204"])
    assert codes(result) == ["C2L204"]
    assert "tracing span inside the front-tier hit branch" in \
        result.diagnostics[0].message


def test_c2l204_flags_transitive_io_from_hit_branch(lint_tree):
    result = lint_tree({"tiers/__init__.py": "",
                        "tiers/store.py": BAD_TIERS_TRANSITIVE},
                       rules=["C2L204"])
    assert codes(result) == ["C2L204"]
    message = result.diagnostics[0].message
    assert "reaches disk I/O (open())" in message
    assert "_note" in message


def test_c2l204_hit_branch_check_is_branch_local(lint_tree):
    # I/O on the miss path is legal; only the membership-guarded hit
    # branch is constrained.
    result = lint_tree({"tiers/__init__.py": "",
                        "tiers/store.py": GOOD_TIERS},
                       rules=["C2L204"])
    assert codes(result) == []


# ---- seeded mutations of the real tree --------------------------------------


def _mutated_lint(repo_root, rel_suffix, anchor, replacement):
    """Re-lint ``src/`` with one regression spliced into a real file."""
    project = load_project([repo_root / "src"], root=repo_root)
    source = next(s for s in project.files
                  if s.path.as_posix().endswith(rel_suffix))
    assert anchor in source.text, \
        f"mutation anchor no longer present in {rel_suffix}"
    source.text = source.text.replace(anchor, replacement, 1)
    source.tree = ast.parse(source.text)
    return LintEngine(make_rules(None, flow=True)).run_project(project)


def _findings(result, code):
    return [d for d in result.diagnostics if d.code == code]


def test_mutation_lambda_in_submit_fires_c2l202(repo_root):
    result = _mutated_lint(
        repo_root, "repro/dse/fabric.py",
        "                                  [configs[i] for i in indices])",
        "                                  [configs[i] for i in indices],"
        " (lambda: None))")
    found = _findings(result, "C2L202")
    assert found, codes(result)
    assert any("lambda crosses the pool boundary" in d.message
               for d in found)


def test_mutation_print_in_core_step_fires_c2l203(repo_root):
    result = _mutated_lint(
        repo_root, "repro/sim/core.py",
        "        self._next = j + 1\n        idx = self._instr_list[j]",
        "        self._next = j + 1\n        print(j)\n"
        "        idx = self._instr_list[j]")
    found = _findings(result, "C2L203")
    assert found, codes(result)
    assert any("performs I/O: print()" in d.message
               and "core.py" in d.path for d in found)


def test_mutation_span_in_front_hit_fires_c2l204(repo_root):
    result = _mutated_lint(
        repo_root, "repro/sim/cache_store.py",
        "            mem.move_to_end(key)\n            self.hits += 1",
        "            get_tracer().span(\"sim.cache.hit\")\n"
        "            mem.move_to_end(key)\n            self.hits += 1")
    found = _findings(result, "C2L204")
    assert found, codes(result)
    assert any("tracing span inside the front-tier hit branch" in d.message
               and "cache_store.py" in d.path for d in found)


def test_mutation_span_in_remember_fires_c2l204_transitively(repo_root):
    # The span lands in _remember, which the pending-promotion hit
    # branch of get() calls — the rule must walk the call edge.
    result = _mutated_lint(
        repo_root, "repro/sim/cache_store.py",
        "    def _remember(self, key: str, cost: float) -> None:\n"
        "        mem = self._mem",
        "    def _remember(self, key: str, cost: float) -> None:\n"
        "        get_tracer().span(\"sim.cache.remember\")\n"
        "        mem = self._mem")
    found = _findings(result, "C2L204")
    assert found, codes(result)
    assert any("reaches a tracing span" in d.message
               and "_remember" in d.message for d in found)
