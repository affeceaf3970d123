"""Command-line interface: regenerate any paper table/figure.

Usage::

    c2bound list
    c2bound fig1
    c2bound fig8 [--out results/]
    c2bound all --out results/
    c2bound fig12 --trace trace.jsonl --metrics-out metrics.json

Every run is observable: ``--trace`` writes a JSONL span/event trace
(schema in ``docs/OBSERVABILITY.md``), ``--metrics-out`` snapshots the
metrics registry (simulation budgets, per-layer cache counters, solver
work), ``--manifest`` records the run's provenance (config, seed, git
SHA, wall time, final metrics), and ``--quiet`` silences stdout while
leaving all of those outputs intact.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from repro.io.results import ResultTable
    from repro.obs import Reporter

__all__ = ["main"]


def _fig8(reporter: Reporter) -> ResultTable:
    from repro.experiments import run_scaling_figure
    return run_scaling_figure(f_mem=0.3, quantity="WT")


def _fig9(reporter: Reporter) -> ResultTable:
    from repro.experiments import run_scaling_figure
    return run_scaling_figure(f_mem=0.9, quantity="WT")


def _fig10(reporter: Reporter) -> ResultTable:
    from repro.experiments import run_scaling_figure
    return run_scaling_figure(f_mem=0.3, quantity="throughput")


def _fig11(reporter: Reporter) -> ResultTable:
    from repro.experiments import run_scaling_figure
    return run_scaling_figure(f_mem=0.9, quantity="throughput")


def _fig12(reporter: Reporter) -> ResultTable:
    from repro.experiments import run_fig12
    table, outcome = run_fig12()
    reporter.note(f"APS narrowed {outcome.space_size:,} points to "
                  f"{outcome.aps_sims} simulations")
    return table


def _fig1(reporter: Reporter) -> ResultTable:
    from repro.experiments import run_fig1
    return run_fig1()


def _table1(reporter: Reporter) -> ResultTable:
    from repro.experiments import run_table1
    return run_table1()


def _fig7(reporter: Reporter) -> ResultTable:
    from repro.experiments import run_fig7
    return run_fig7()


def _fig13(reporter: Reporter) -> ResultTable:
    from repro.experiments import run_fig13
    return run_fig13()


def _capacity(reporter: Reporter) -> ResultTable:
    from repro.experiments import run_capacity_bound
    return run_capacity_bound()


def _aps_accuracy(reporter: Reporter) -> ResultTable:
    from repro.experiments import run_aps_accuracy
    table, _ = run_aps_accuracy()
    return table


def _calibration(reporter: Reporter) -> ResultTable:
    from repro.experiments.calibration import run_calibration
    table, rho = run_calibration()
    reporter.note(
        f"fitted-vs-simulated miss-rate rank correlation: {rho:.3f}",
        metric="experiment.calibration.rank_correlation", value=rho)
    return table


def _mechanisms(reporter: Reporter) -> ResultTable:
    from repro.experiments.mechanisms import run_mechanism_sweep
    return run_mechanism_sweep()


def _validation(reporter: Reporter) -> ResultTable:
    from repro.experiments.validation import run_model_validation
    table, rho = run_model_validation()
    reporter.note(
        f"Spearman rank correlation: {rho:.3f}",
        metric="experiment.validation.rank_correlation", value=rho)
    return table


def _ablation_factors(reporter: Reporter) -> ResultTable:
    from repro.experiments.ablation import run_factor_ablation
    return run_factor_ablation()


def _ablation_miss_curve(reporter: Reporter) -> ResultTable:
    from repro.experiments.ablation import run_miss_curve_ablation
    return run_miss_curve_ablation()


EXPERIMENTS: dict[str, tuple[str, Callable[[Reporter], ResultTable]]] = {
    "fig1": ("C-AMAT worked example (exact match)", _fig1),
    "table1": ("g(N) factors of Table I", _table1),
    "fig7": ("core allocation for multiple tasks", _fig7),
    "fig8": ("W and T vs N, f_mem=0.3", _fig8),
    "fig9": ("W and T vs N, f_mem=0.9", _fig9),
    "fig10": ("throughput W/T vs N, f_mem=0.3", _fig10),
    "fig11": ("throughput W/T vs N, f_mem=0.9", _fig11),
    "fig12": ("simulation counts: APS vs ANN vs full sweep", _fig12),
    "fig13": ("APC per memory layer", _fig13),
    "capacity": ("Section V capacity-bounded problem size", _capacity),
    "aps-accuracy": ("Section IV APS error vs full sweep", _aps_accuracy),
    "validation": ("analytic model vs simulator rank agreement",
                   _validation),
    "mechanisms": ("concurrency mechanisms vs C-AMAT parameters",
                   _mechanisms),
    "calibration": ("fitted miss curves vs simulation", _calibration),
    "ablation-factors": ("ablate the concurrency/capacity factors",
                         _ablation_factors),
    "ablation-miss-curve": ("ablate the miss-curve exponent",
                            _ablation_miss_curve),
}


def _build_parser() -> argparse.ArgumentParser:
    from repro.obs import package_version

    parser = argparse.ArgumentParser(
        prog="c2bound",
        description="Regenerate tables/figures of the C2-Bound paper "
                    "(Liu & Sun, SC'15).")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {package_version()}")
    parser.add_argument("experiment",
                        help="experiment id, 'list', 'all', "
                             "'characterize', 'cache', 'lint', "
                             "'report', 'diff', 'tail', or 'serve'")
    parser.add_argument("subcommand", nargs="?", default=None,
                        help="subcommand for 'cache' (stats | clear)")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for CSV output (optional); also "
                             "receives the run manifest")
    parser.add_argument("--trace", type=Path, default=None, metavar="FILE",
                        help="write a JSONL span/event trace to FILE")
    parser.add_argument("--metrics-out", type=Path, default=None,
                        metavar="FILE",
                        help="write a JSON metrics-registry snapshot to FILE")
    parser.add_argument("--manifest", type=Path, default=None,
                        metavar="FILE",
                        help="write a run manifest (config, seed, git SHA, "
                             "wall time, metrics) to FILE")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress stdout (files are still written)")
    parser.add_argument("--batch-size", type=int, default=None, metavar="B",
                        help="design points per batched evaluator call "
                             "(default 2048)")
    parser.add_argument("--checkpoint", type=Path, default=None,
                        metavar="DIR",
                        help="journal every charged DSE evaluation into DIR "
                             "(one JSONL ledger per search method)")
    parser.add_argument("--resume", action="store_true",
                        help="restore existing journals in --checkpoint DIR "
                             "before running (a resumed run is bit-identical "
                             "to an uninterrupted one)")
    parser.add_argument("--sim-cache", type=Path, default=None, metavar="DIR",
                        help="persistent simulation-result cache directory "
                             "(default: $C2BOUND_SIM_CACHE when set)")
    parser.add_argument("--no-sim-cache", action="store_true",
                        help="disable the persistent simulation cache "
                             "(overrides --sim-cache and the environment)")
    parser.add_argument("--workload", default="fluidanimate",
                        help="workload name for 'characterize' "
                             "(a PARSEC-like profile)")
    parser.add_argument("--n-ops", type=int, default=8000,
                        help="memory operations for 'characterize'")
    return parser


def main(argv: "list[str] | None" = None) -> int:
    """Entry point for the ``c2bound`` console script."""
    raw = list(sys.argv[1:]) if argv is None else list(argv)
    if raw and raw[0] == "lint":
        # The lint subcommand has its own flag set; dispatch before the
        # experiment parser can reject them.
        from repro.analysis.cli import main as lint_main
        return lint_main(raw[1:])
    if raw and raw[0] in ("report", "diff", "tail"):
        # Run-analysis subcommands likewise own their flags.
        from repro.obs.report import cli_main as analysis_main
        return analysis_main(raw)
    if raw and raw[0] == "serve":
        # The job server owns its flag set too (see docs/SERVICE.md).
        from repro.service.cli import main as serve_main
        return serve_main(raw[1:])
    args = _build_parser().parse_args(raw)
    from repro.obs import (Reporter, RunManifest, configure_tracing,
                           get_registry)

    reporter = Reporter(quiet=args.quiet)

    if args.experiment == "list":
        if not args.quiet:
            for key, (desc, _fn) in EXPERIMENTS.items():
                print(f"{key:20s} {desc}")
            print(f"{'characterize':20s} measure a workload's C2-Bound "
                  "profile (--workload, --n-ops)")
        return 0

    from dataclasses import replace

    from repro.runconfig import RunConfig, install

    # Flag precedence for the cache: --no-sim-cache > --sim-cache DIR >
    # $C2BOUND_SIM_CACHE > off.
    config = RunConfig.from_env()
    if args.no_sim_cache:
        config = replace(config, sim_cache=None)
    elif args.sim_cache is not None:
        from repro.sim.cache_store import SimCacheStore
        config = replace(config, sim_cache=SimCacheStore(args.sim_cache))
    if args.experiment == "cache":
        return _cache_command(args, reporter, config.sim_cache)
    if args.resume and args.checkpoint is None:
        reporter.error("--resume requires --checkpoint DIR")
        return 2
    from repro.resilience.checkpoint import new_run_id, read_journal_headers

    config = replace(config, checkpoint=args.checkpoint, resume=args.resume,
                     run_id=new_run_id())
    if args.batch_size is not None:
        config = replace(config, batch_size=args.batch_size)

    # Fresh accounting per invocation: tracing always aggregates (for
    # the timing summary); the JSONL sink exists only with --trace.
    registry = get_registry()
    registry.reset()
    tracer = configure_tracing(args.trace, enabled=True)
    manifest = RunManifest(
        args.experiment,
        config={"out": str(args.out) if args.out else None,
                "trace": str(args.trace) if args.trace else None,
                "workload": args.workload, "n_ops": args.n_ops,
                **config.manifest_config()},
        argv=list(sys.argv[1:]) if argv is None else list(argv),
        run_id=config.run_id)
    if args.checkpoint is not None:
        # Lineage: the runs that wrote the journals about to be restored.
        parents: "list[str]" = []
        if args.resume:
            parents = sorted({h["run_id"] for h in
                              read_journal_headers(args.checkpoint)
                              if h.get("run_id")})
        manifest.set_lineage(resumed=bool(args.resume),
                             parent_run_ids=parents)
    previous = install(config)
    try:
        if args.experiment == "characterize":
            status = _characterize_command(args, reporter)
        else:
            status = _run_experiments(args, reporter, tracer)
        if status == 0:
            _write_outputs(args, reporter, tracer, manifest, registry)
    finally:
        # Close the sink, restore the default disabled tracer and hand
        # back the previous run config, so library use after main()
        # pays no tracing cost and inherits none of this run's settings.
        tracer.close()
        from repro.obs import disable_tracing
        disable_tracing()
        install(previous)
    return status


def _cache_command(args, reporter: Reporter, store) -> int:
    """``c2bound cache stats|clear`` — inspect or empty the store."""
    if args.subcommand not in ("stats", "clear"):
        reporter.error("cache needs a subcommand: "
                       "'c2bound cache stats' or 'c2bound cache clear'")
        return 2
    if store is None:
        reporter.error("no simulation cache configured; pass --sim-cache "
                       "DIR or set $C2BOUND_SIM_CACHE")
        return 2
    if args.subcommand == "clear":
        removed = store.clear()
        reporter.note(f"removed {removed} cached simulation(s) "
                      f"from {store.root}")
        return 0
    from repro.io.results import ResultTable

    table = ResultTable(["field", "value"], title="Simulation cache")
    for field, value in store.stats().items():
        table.add_row(field, value)
    reporter.table(table, trailing_blank=False)
    return 0


def _run_experiments(args, reporter: Reporter, tracer) -> int:
    keys = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    unknown = [k for k in keys if k not in EXPERIMENTS]
    if unknown:
        reporter.error(f"unknown experiment(s): {', '.join(unknown)}; "
                       f"try 'c2bound list'")
        return 2
    for key in keys:
        _desc, fn = EXPERIMENTS[key]
        with tracer.span(f"experiment.{key}"):
            table = fn(reporter)
        reporter.table(table)
        if args.out is not None:
            path = table.save_csv(args.out / f"{key}.csv")
            reporter.saved(path)
    return 0


def _write_outputs(args, reporter: Reporter, tracer, manifest,
                   registry) -> None:
    """End-of-run artifacts: timing summary, metrics, manifest."""
    timing = tracer.timing_table()
    if timing is not None:
        reporter.table(timing, trailing_blank=False)
    if args.metrics_out is not None:
        reporter.saved(registry.write_json(args.metrics_out))
    _finish_lineage(args, manifest, registry)
    manifest_path = args.manifest
    if manifest_path is None and args.out is not None:
        manifest_path = args.out / f"manifest_{args.experiment}.json"
    if manifest_path is not None:
        reporter.saved(manifest.write(manifest_path,
                                      metrics=registry.snapshot()))


def _finish_lineage(args, manifest, registry) -> None:
    """Complete the manifest's resume/failover lineage after the run.

    Records, per checkpoint journal, the creating run's id and the
    ledger's content hash, plus this run's retry/failover counters —
    the audit trail for "what did this run survive, and what did it
    restart from".
    """
    counters = registry.snapshot().get("counters", {})
    failover = {name: counters[name] for name in sorted(counters)
                if name.startswith("resilience.")}
    if failover:
        manifest.set_lineage(failover=failover)
    if args.checkpoint is None:
        return
    from repro.resilience.checkpoint import (
        checkpoint_hash,
        read_journal_headers,
    )
    manifest.set_lineage(checkpoints=[
        {"path": h["path"], "run_id": h.get("run_id"),
         "method": h.get("method"), "sha256": checkpoint_hash(h["path"])}
        for h in read_journal_headers(args.checkpoint)])


def _characterize_command(args, reporter: Reporter) -> int:
    """Measure a workload's profile and print the model inputs."""
    from repro.characterize import characterize
    from repro.io.results import ResultTable
    from repro.workloads.parsec import PARSEC_LIKE, parsec_like

    if args.workload not in PARSEC_LIKE:
        reporter.error(f"unknown workload {args.workload!r}; "
                       f"available: {', '.join(sorted(PARSEC_LIKE))}")
        return 2
    workload = parsec_like(args.workload, n_ops=args.n_ops)
    report = characterize(workload)
    profile = report.profile
    table = ResultTable(["parameter", "value"],
                        title=f"Characterization: {args.workload}")
    table.add_row("f_mem", profile.f_mem)
    table.add_row("concurrency C", profile.concurrency)
    table.add_row("C-AMAT (cycles/access)", report.mean_camat)
    table.add_row("working set (KiB)", report.working_set_kib)
    table.add_row("instructions", profile.ic0)
    table.add_row("g(N) regime", profile.g.regime())
    reporter.table(table, trailing_blank=False)
    if args.out is not None:
        path = table.save_csv(args.out / f"characterize_{args.workload}.csv")
        reporter.saved(path)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
