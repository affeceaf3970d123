"""Call-graph construction: aliased imports, re-exports, decorators,
method calls through ``self``, annotation- and attribute-based typing,
and module-level instances.

One fixture package exercises every resolution path the flow rules lean
on; the assertions pin resolved *edges* (what the rules consume), not
resolver internals.
"""

from __future__ import annotations

import pytest

PKG = {
    "pkg/__init__.py": "",
    "pkg/util.py": '''\
    """Leaf helpers the rest of the fixture package calls into."""


    def helper():
        return 1


    def deco(fn):
        return fn


    class Base:
        def shared(self):
            return helper()


    class Tool(Base):
        def __init__(self):
            self.count = 0

        def run(self):
            return self.shared()


    TOOL = Tool()
    SWAPPED = Tool()


    def via_own_instance():
        return TOOL.run()


    def swap():
        global SWAPPED
        SWAPPED = Base()


    def via_swapped_instance():
        return SWAPPED.run()


    def via_shadowed_instance(TOOL):
        return TOOL.run()
    ''',
    "pkg/api/__init__.py": "from pkg.util import helper as exported\n",
    "pkg/lazyapi/__init__.py": '''\
    from typing import TYPE_CHECKING

    from pkg.loader import attach

    if TYPE_CHECKING:
        from pkg.util import helper as lazily

    __getattr__, __dir__ = attach(__name__, __file__)
    ''',
    "pkg/sub/__init__.py": "",
    "pkg/sub/mod.py": '''\
    from ..util import helper as up


    def climb():
        return up()
    ''',
    "pkg/core.py": '''\
    import json

    import pkg.util as u
    from pkg.api import exported
    from pkg.lazyapi import lazily

    from . import util
    from .util import TOOL, Tool, deco


    @deco
    def decorated():
        return util.helper()


    def via_alias():
        return u.helper()


    def via_export():
        return exported()


    def via_lazy_export():
        return lazily()


    def calls_decorated():
        return decorated()


    def opaque(x):
        return json.dumps(x)


    def via_imported_instance():
        return TOOL.run()


    def via_module_instance():
        return util.TOOL.run()


    def nested_def():
        def inner():
            return util.helper()
        return inner


    class Engine:
        def __init__(self, tool: "Tool | None" = None):
            self.tool = tool if tool is not None else Tool()

        def tick(self):
            return self.tool.run()

        def poke(self, t: Tool):
            return t.shared()
    ''',
}


@pytest.fixture
def flow(flow_tree):
    _, analysis = flow_tree(PKG)
    return analysis


def test_module_functions_and_methods_indexed(flow):
    quals = set(flow.graph.functions)
    assert {"pkg.util.helper", "pkg.core.decorated", "pkg.util.Tool.run",
            "pkg.core.Engine.tick"} <= quals


def test_relative_import_of_module_resolves(flow):
    # `from . import util` + `util.helper()` inside pkg/core.py
    assert flow.edges["pkg.core.decorated"] == {"pkg.util.helper"}


def test_aliased_absolute_import_resolves(flow):
    # `import pkg.util as u` + `u.helper()`
    assert flow.edges["pkg.core.via_alias"] == {"pkg.util.helper"}


def test_two_level_relative_import_resolves(flow):
    # `from ..util import helper as up` inside pkg/sub/mod.py
    assert flow.graph.modules["pkg.sub.mod"].imports["up"] == \
        "pkg.util.helper"
    assert flow.edges["pkg.sub.mod.climb"] == {"pkg.util.helper"}


def test_package_reexport_resolves(flow):
    # pkg/api/__init__.py re-exports helper under a new name
    assert flow.graph.resolve_export("pkg.api.exported") == \
        "pkg.util.helper"
    assert flow.edges["pkg.core.via_export"] == {"pkg.util.helper"}


def test_lazy_package_reexport_resolves(flow):
    # pkg/lazyapi/__init__.py names its re-export under TYPE_CHECKING
    # (loaded on first use at run time); that block is its export map.
    assert flow.graph.resolve_export("pkg.lazyapi.lazily") == \
        "pkg.util.helper"
    assert flow.edges["pkg.core.via_lazy_export"] == {"pkg.util.helper"}
    assert "pkg.lazyapi.attach" not in flow.graph.exports


def test_repo_flow_keeps_every_reexport_and_edge(repo_root):
    # Lazy package inits must not cost the flow pass resolution.  The
    # eager tree resolved 314 re-exports and 1358 call edges; all of
    # them are kept, plus the C2L104 rule's export and the seven edges
    # of the code added with it (repro._lazy, C2L104, the export scan),
    # a net eight edges of batch keying (sim_cache_keys,
    # SimulatorEvaluator.cache_keys_for, fabric config_keys), and a net
    # nineteen of the shared append-only log (repro.io.applog and the
    # journal, registry, trace and findings readers moved onto it).
    # The one run config (repro.runconfig) removed seven re-exports (the
    # batch and checkpoint default setters and resolve_workers) and
    # moved the settings' readers onto runconfig.current: 21 edges out,
    # 22 in.  Mesh latencies computed from coordinates (repro.sim.noc's
    # shared formula, its lazily filled table and the kernel's
    # vectorised column) added four.  Retiring the kernel run setting
    # removed one (CMPSimulator._run -> runconfig.current).  Unboxed
    # record columns moved the core trace out of CoreModel.result (one
    # edge to AccessTrace.from_arrays out) and gave the L2 and DRAM
    # traces a shared column copy (two edges to hierarchy._columns in).
    # Building the L2 and DRAM traces on first read moved them from the
    # hierarchy onto SimulationResult, which CMPSimulator._run no longer
    # calls (two edges out), and folding the kernel's GC-pause wrapper
    # into run_epoch_kernel dropped the wrapper's call (one out).
    # Deriving the L1-miss fields on demand deleted MeshNoC.latencies
    # (its edge to _mesh_latency and _core_state's edge to it out) and
    # has run_epoch_kernel call _mesh_latency directly (one in).
    # Dirty bits as one mask per set gave SetAssociativeCache.access_rw
    # and .fill a shared victim helper, _replace_dirty (two in).
    # Deleting shard ownership removed one re-export (SingleWriterRule)
    # and 26 edges: that lint rule's seven; the runtime shard-write
    # checker module's five (check_shard_write, record_finding,
    # load_findings); check_shard_write and shard_of_key out of
    # SimCacheStore._persist and shard_of_key out of .put; two to
    # runconfig.current out of SimCacheStore.__init__ and .__setstate__;
    # the fabric's five (_run_fabric to the per-slot _slot_evaluator and
    # to the parent's re-put of stolen results, and the edges into and
    # out of the slot-to-shard-set inverse of owner_of_shard); three of
    # the two-step config seeding (_env_settings and current's extra
    # RunConfig call); and the submit scanner's payload-builder
    # resolution.  The fabric's one worker evaluator added one
    # (FabricEvaluator.__init__ -> _worker_evaluator).
    # Reading each trace once removed two re-exports (EventBus,
    # MetricFold) and a net nine edges.  Out: the bus's nine
    # (EventBus.pump's two, .subscribe's one to _Subscription, the
    # bus calls of _fold_trace, tail_command and follow), TraceReader's
    # to ObservabilityError (max_bytes) and __iter__'s to read_all,
    # _hit_rate_curve's two reads, the third fold of report_command,
    # and _compare_profiles' fold and build_profile calls.  Moved:
    # build_report's seven callees and report_command's call onto
    # _build_report, which build_report now calls.  In: follow ->
    # TraceReader.poll, _fold_trace -> read_all and the two folds'
    # handle methods, tail_command -> ProgressAggregator.handle,
    # _compare_profiles -> profile_trace, and profile_trace ->
    # SpanRollup.handle (its rollup no longer optional).  The one
    # nested-Brent area split (core.optimizer.split_budget) replaced
    # the three splits' six edges to brent_minimize and
    # InvalidParameterError with its own two, plus one from each split
    # to it.  The per-process stream memo added seven: the workload
    # fingerprint JSON helper (sim_cache_keys -> workload_json, and its
    # calls of fingerprint and _dumps), StreamMemo.streams' calls of it
    # and of _read_only, and the np.unique replacement unique_ints,
    # called by C2BoundOptimizer.optimize and integer_minimize.
    # Typing module-level instances (`NAME = Class(...)`) added four:
    # the edge it exists for, simulate_chip_cost ->
    # StreamMemo.streams (called as `_STREAMS.streams(...)`), and the
    # resolver's own three (CallGraph.resolve_instance ->
    # resolve_export and -> _constructed_classes, and
    # _FunctionScanner._expr_class -> resolve_instance).  Moving the
    # search paths' analysis imports into the functions that use them
    # lost no edge: function-level imports are module aliases to the
    # resolver, so run_fig12 still reaches genetic_search and
    # LagrangianSystem.solve newton_solve.
    # Splitting the budget memo and caching journal fragments added a
    # net twelve.  Out: both BudgetedEvaluator evaluate paths' calls of
    # canonical_key, DesignSpace.__iter__ -> config_at (it walks
    # itertools.product) and append_evals' calls of _encode_key and
    # AppendLog.append.  In: each evaluate path's calls of _split,
    # _memo_for, _replays and _charge, _split -> _values_getter,
    # AppendLog.append -> append_encoded, and the journal's line
    # builder (append_evals -> append_eval_rows, which calls
    # _eval_line and append_encoded; _eval_line -> _fragment and
    # _encode_item; _fragment -> _cacheable and _encode_item).
    from repro._lazy import _reexports
    from repro.analysis.flow import get_flow
    from repro.analysis.source import load_project

    flow = get_flow(load_project([repo_root / "src"], root=repo_root))
    assert len(flow.graph.exports) == 305
    assert sum(len(callees) for callees in flow.edges.values()) == 1384
    edges = flow.edges
    assert "repro.sim.cmp.StreamMemo.streams" in \
        edges["repro.sim.cmp.simulate_chip_cost"]
    assert "repro.dse.ga.genetic_search" in \
        edges["repro.experiments.fig12_aps.run_fig12"]
    assert "repro.solvers.newton.newton_solve" in \
        edges["repro.core.lagrange.LagrangianSystem.solve"]
    for init in (repo_root / "src" / "repro").rglob("__init__.py"):
        package = ".".join(init.parent.relative_to(repo_root / "src").parts)
        for name, (module, attr) in _reexports(str(init)).items():
            assert flow.graph.exports[f"{package}.{name}"] == \
                f"{module}.{attr}"


def test_decorated_function_keeps_def_site_identity(flow):
    assert "pkg.core.decorated" in flow.graph.functions
    assert flow.edges["pkg.core.calls_decorated"] == {"pkg.core.decorated"}


def test_self_method_call_walks_bases(flow):
    # Tool.run calls self.shared(), defined on Base
    assert flow.edges["pkg.util.Tool.run"] == {"pkg.util.Base.shared"}


def test_attr_type_inferred_through_conditional_ctor(flow):
    # `self.tool = tool if tool is not None else Tool()` with a
    # `Tool | None` parameter annotation: both arms agree.
    engine = flow.graph.classes["pkg.core.Engine"]
    assert engine.attr_types["tool"] == "pkg.util.Tool"
    assert flow.edges["pkg.core.Engine.tick"] == {"pkg.util.Tool.run"}


def test_constructor_call_edges_to_init(flow):
    assert "pkg.util.Tool.__init__" in flow.edges["pkg.core.Engine.__init__"]


def test_annotated_param_method_call_resolves(flow):
    # poke(t: Tool) → t.shared() lands on the base-class method
    assert flow.edges["pkg.core.Engine.poke"] == {"pkg.util.Base.shared"}


def test_module_level_instance_method_call_resolves(flow):
    # `TOOL = Tool()` bound once at module level types TOOL, whether it
    # is called in its own module, imported by name, or reached through
    # its module.
    assert flow.graph.resolve_instance("pkg.util.TOOL") == "pkg.util.Tool"
    for caller in ("pkg.util.via_own_instance",
                   "pkg.core.via_imported_instance",
                   "pkg.core.via_module_instance"):
        assert flow.edges[caller] == {"pkg.util.Tool.run"}, caller


def test_rebound_or_shadowed_instance_adds_no_edge(flow):
    # A global rebound through `global` may hold another class; a
    # parameter named like the global is a different object.
    assert flow.graph.resolve_instance("pkg.util.SWAPPED") is None
    assert flow.edges["pkg.util.via_swapped_instance"] == set()
    assert flow.edges["pkg.util.via_shadowed_instance"] == set()


def test_nested_def_body_is_skipped(flow):
    # The scanner's stated rule: a nested def binds a name and its body
    # is not scanned, so its calls give the enclosing function no edge.
    assert flow.edges["pkg.core.nested_def"] == set()


def test_unresolvable_call_adds_no_edge(flow):
    # Under-approximation contract: stdlib calls produce no guessed edge.
    assert flow.edges["pkg.core.opaque"] == set()
    assert "json.dumps" in flow.summaries["pkg.core.opaque"].unresolved
