"""Command-line interface: the compaction tool of Section IV.

"The proposed compaction approach was implemented as a tool written in
Python language.  This tool interacts with one logic simulator and one
fault injector simulator, composing an environment to analyze and compact
the GPU's STLs."  This module is that tool's front end::

    python -m repro info      --module decoder_unit
    python -m repro analyze   --module decoder_unit --json
    python -m repro generate  --ptp IMM --seed 0 --sbs 60 --out ptp_imm/
    python -m repro lint      --ptp-dir ptp_imm/ --json
    python -m repro compact   --ptp-dir ptp_imm/ --out compacted/ --reports
    python -m repro campaign  --stl-dir stl/ --out compacted/ --resume \
                              --max-fc-drop 0.5 --ptp-timeout 300
    python -m repro tables    --scale smoke

All simulation artifacts are written as text files (tracing report, VCDE
pattern report, fault-sim report, labeled program), as in the paper.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .analysis import experiments as _experiments
from .analysis.tables import render_table1, table1_rows
from .core.campaign import run_stl_campaign
from .core.checkpoint import CampaignCheckpoint
from .core.patterns import write_pattern_report
from .core.pipeline import CompactionPipeline
from .core.reports import (
    write_campaign_summary,
    write_compaction_summary,
    write_fault_sim_report,
    write_labeled_ptp,
)
from .errors import ReproError
from .exec import ArtifactCache, RunMetrics, resolve_jobs
from .gpu.trace import write_trace_report
from .netlist.modules import build_decoder_unit, build_sfu, build_sp_core
from .stl.io import load_ptp, load_stl, save_ptp, save_stl
from .verify import verify_ptp

_MODULE_BUILDERS = {
    "decoder_unit": lambda width: build_decoder_unit(),
    "sp_core": build_sp_core,
    "sfu": build_sfu,
}

_GENERATORS = {
    "IMM": ("decoder_unit", "generate_imm"),
    "MEM": ("decoder_unit", "generate_mem"),
    "CNTRL": ("decoder_unit", "generate_cntrl"),
    "RAND": ("sp_core", "generate_rand"),
}


def _build_module(name, width):
    try:
        return _MODULE_BUILDERS[name](width)
    except KeyError:
        raise SystemExit("unknown module {!r}; pick one of {}".format(
            name, ", ".join(sorted(_MODULE_BUILDERS)))) from None


def cmd_info(args):
    module = _build_module(args.module, args.width)
    from .faults import FaultList

    stats = module.netlist.stats()
    fault_list = FaultList(module.netlist)
    print("module    : {}".format(module.name))
    print("gates     : {}".format(stats["gates"]))
    print("depth     : {}".format(stats["depth"]))
    print("inputs    : {} nets ({})".format(
        stats["inputs"], ", ".join(sorted(module.input_words))))
    print("outputs   : {} nets ({})".format(
        stats["outputs"], ", ".join(sorted(module.output_words))))
    print("faults    : {} collapsed stuck-at".format(len(fault_list)))
    by_type = ", ".join("{} {}".format(count, name)
                        for name, count in sorted(stats["by_type"].items()))
    print("cell mix  : {}".format(by_type))
    return 0


def cmd_generate(args):
    if args.ptp not in _GENERATORS:
        raise SystemExit(
            "unknown PTP {!r}; this command generates {} (TPGEN/SFU_IMM "
            "need an ATPG run: see examples/compact_functional_units.py)"
            .format(args.ptp, ", ".join(sorted(_GENERATORS))))
    target, fn_name = _GENERATORS[args.ptp]
    from .stl import generators

    generator = getattr(generators, fn_name)
    ptp = generator(seed=args.seed, num_sbs=args.sbs)
    save_ptp(ptp, args.out)
    print("wrote {} ({} instructions, target {}) to {}".format(
        ptp.name, ptp.size, ptp.target, args.out))
    return 0


def _exec_options(args):
    """(jobs, cache, metrics) from the shared exec CLI flags."""
    jobs = (args.jobs if args.jobs is not None
            else resolve_jobs(None, default=os.cpu_count() or 1))
    cache = None if args.no_cache else ArtifactCache(args.cache_dir)
    return jobs, cache, RunMetrics()


def _finish_metrics(metrics, cache, path):
    """Fold in cache counters, persist (optional), print the summary."""
    if cache is not None:
        metrics.absorb_cache_stats(cache.stats)
    if path:
        metrics.save(path)
    print(metrics.summary_table())


def cmd_lint(args):
    """Statically verify saved PTPs; exit 1 on error diagnostics."""
    if args.ptp_dir:
        ptps = [load_ptp(args.ptp_dir)]
    else:
        ptps = list(load_stl(args.stl_dir))
    reports = [verify_ptp(ptp) for ptp in ptps]
    errors = sum(len(report.errors) for report in reports)
    warnings = sum(len(report.warnings) for report in reports)
    if args.json:
        # Per-rule-id totals over every linted PTP, so consumers get the
        # aggregate without re-walking the diagnostic arrays.
        rule_counts = {}
        for report in reports:
            for diagnostic in report.diagnostics:
                rule_counts[diagnostic.rule] = (
                    rule_counts.get(diagnostic.rule, 0) + 1)
        print(json.dumps({
            "ptps": [report.to_dict() for report in reports],
            "errors": errors,
            "warnings": warnings,
            "rule_counts": rule_counts,
        }, indent=1, sort_keys=True))
    else:
        for report in reports:
            print(report.render_text())
        print("lint: {} PTP(s), {} error(s), {} warning(s)".format(
            len(reports), errors, warnings))
    return 1 if errors else 0


def cmd_analyze(args):
    """Static testability report: untestability proofs and fault counts."""
    from .testability import analyze_module

    names = [args.module] if args.module else sorted(_MODULE_BUILDERS)
    reports = []
    for name in names:
        module = _build_module(name, args.width)
        reports.append((module,
                        analyze_module(module.netlist, name=module.name)))
    if args.json:
        print(json.dumps([report.to_dict() for __, report in reports],
                         indent=1, sort_keys=True))
    else:
        for module, report in reports:
            print(report.render_text(module.netlist,
                                     max_proofs=args.max_proofs))
    return 0


def cmd_compact(args):
    ptp = load_ptp(args.ptp_dir)
    module = _build_module(ptp.target, args.width)
    jobs, cache, metrics = _exec_options(args)
    pipeline = CompactionPipeline(module, jobs=jobs, cache=cache,
                                  metrics=metrics, verify=args.verify,
                                  static_prune=args.static_prune,
                                  incremental=args.incremental)
    outcome = pipeline.compact(ptp, reverse_patterns=args.reverse,
                               evaluate=not args.no_evaluate)
    save_ptp(outcome.compacted, args.out)
    print(write_compaction_summary(outcome))
    if outcome.verification is not None and outcome.verification.diagnostics:
        print(outcome.verification.render_text())
    _finish_metrics(metrics, cache, args.metrics_out)
    if args.reports:
        reports_dir = os.path.join(args.out, "reports")
        os.makedirs(reports_dir, exist_ok=True)
        with open(os.path.join(reports_dir, "trace.txt"), "w") as handle:
            handle.write(write_trace_report(outcome.tracing.trace))
        with open(os.path.join(reports_dir, "patterns.vcde"), "w") as handle:
            handle.write(write_pattern_report(
                outcome.tracing.pattern_report))
        with open(os.path.join(reports_dir, "fault_sim.txt"), "w") as handle:
            handle.write(write_fault_sim_report(
                outcome.fault_result, outcome.tracing.pattern_report))
        with open(os.path.join(reports_dir, "labeled.txt"), "w") as handle:
            handle.write(write_labeled_ptp(outcome.labeled))
        print("reports written to {}".format(reports_dir))
    return 0


def cmd_campaign(args):
    stl = load_stl(args.stl_dir)
    targets = []
    for ptp in stl:
        if ptp.target not in targets:
            targets.append(ptp.target)
    modules = {name: _build_module(name, args.width) for name in targets}
    checkpoint_path = args.checkpoint or os.path.join(args.out,
                                                     "campaign.json")
    checkpoint = CampaignCheckpoint.load_or_create(checkpoint_path,
                                                   resume=args.resume)
    jobs, cache, metrics = _exec_options(args)
    reports = run_stl_campaign(
        stl, modules,
        checkpoint=checkpoint,
        resume=args.resume,
        evaluate=not args.no_evaluate,
        max_fc_drop=args.max_fc_drop,
        ptp_timeout=args.ptp_timeout,
        max_trace_cycles=args.max_trace_cycles,
        keep_going=args.keep_going,
        jobs=jobs,
        cache=cache,
        metrics=metrics,
        verify=args.verify,
        static_prune=args.static_prune,
        incremental=args.incremental,
    )
    for report in reports:
        print(write_campaign_summary(report))
    save_stl(stl, args.out)
    # Metrics land next to the checkpoint unless routed elsewhere.
    metrics_path = args.metrics_out or os.path.join(
        os.path.dirname(os.path.abspath(checkpoint_path)), "metrics.json")
    _finish_metrics(metrics, cache, metrics_path)
    print("STL ({} PTPs) written to {}; checkpoint at {}; metrics at {}"
          .format(len(stl), args.out, checkpoint_path, metrics_path))
    return 1 if any(report.num_failed for report in reports) else 0


def cmd_tables(args):
    scale = _experiments.SMOKE if args.scale == "smoke" else (
        _experiments.DEFAULT)
    experiment = _experiments.Experiment(scale)
    print(render_table1(table1_rows(experiment.table1_features())))
    if args.table1_only:
        return 0
    from .analysis import paper_data
    from .analysis.tables import compaction_rows, render_compaction_table

    for title, paper_table in (("TABLE II", paper_data.TABLE2),
                               ("TABLE III", paper_data.TABLE3)):
        rows = experiment.compaction_table(paper_table)
        print(render_compaction_table(compaction_rows(rows, paper_table),
                                      title + " (measured | paper)"))
    return 0


def _add_exec_arguments(parser):
    """Parallel-execution-engine flags shared by compact and campaign."""
    group = parser.add_argument_group("execution engine")
    group.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="fault-simulation worker processes (default: "
                            "$REPRO_JOBS or the CPU count; results are "
                            "bit-identical at any job count)")
    group.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="artifact cache directory (default: "
                            "$REPRO_CACHE_DIR or ~/.cache/repro)")
    group.add_argument("--no-cache", action="store_true",
                       help="disable the content-addressed artifact cache "
                            "(every stage-2 simulation recomputes)")
    group.add_argument("--metrics-out", default=None, metavar="FILE",
                       help="write the run-metrics JSON here (campaign "
                            "default: metrics.json next to the checkpoint)")
    group.add_argument("--verify", choices=("strict", "warn", "off"),
                       default="warn",
                       help="static verification of the reduced PTP "
                            "before stage 5 (default: warn; strict "
                            "aborts the compaction on error-severity "
                            "diagnostics, off skips the gate)")
    group.add_argument("--static-prune", choices=("off", "safe", "strict"),
                       default="off",
                       help="static testability pruning (default: off; "
                            "safe removes provably-untestable faults "
                            "from the FC denominator, leaving every "
                            "detected-fault set unchanged; strict "
                            "additionally re-simulates every pruned "
                            "fault per PTP and aborts if one is "
                            "detected)")
    group.add_argument("--incremental", choices=("off", "on", "strict"),
                       default="off",
                       help="cross-run fault-state restore (default: off; "
                            "on restores detection state from the cache "
                            "for faults whose cone-support pattern values "
                            "are unchanged since the last run and "
                            "re-simulates only the invalidated remainder; "
                            "strict re-simulates everything anyway and "
                            "aborts unless the restored state is "
                            "bit-identical; requires the artifact cache, "
                            "so it rejects --no-cache)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="STL compaction tool (DATE 2022 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="describe a target module")
    p_info.add_argument("--module", default="decoder_unit")
    p_info.add_argument("--width", type=int, default=16,
                        help="datapath width for sp_core/sfu")
    p_info.set_defaults(func=cmd_info)

    p_gen = sub.add_parser("generate", help="generate a PTP to a directory")
    p_gen.add_argument("--ptp", required=True,
                       help="IMM | MEM | CNTRL | RAND")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--sbs", type=int, default=60,
                       help="number of Small Blocks")
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_generate)

    p_lint = sub.add_parser(
        "lint",
        help="statically verify saved PTPs (exit 1 on error-severity "
             "diagnostics, 0 otherwise)")
    what = p_lint.add_mutually_exclusive_group(required=True)
    what.add_argument("--ptp-dir", help="one saved PTP directory")
    what.add_argument("--stl-dir", help="an STL directory (every PTP)")
    p_lint.add_argument("--json", action="store_true",
                        help="emit machine-readable diagnostics instead "
                             "of the text listing")
    p_lint.set_defaults(func=cmd_lint)

    p_analyze = sub.add_parser(
        "analyze",
        help="static testability report: untestability proofs and "
             "fault counts")
    p_analyze.add_argument("--module", default=None,
                           help="target module (default: all modules)")
    p_analyze.add_argument("--width", type=int, default=16,
                           help="datapath width for sp_core/sfu")
    p_analyze.add_argument("--json", action="store_true",
                           help="emit the machine-readable report "
                                "(includes every proof)")
    p_analyze.add_argument("--max-proofs", type=int, default=20,
                           metavar="N",
                           help="proof lines in the text report "
                                "(default: 20)")
    p_analyze.set_defaults(func=cmd_analyze)

    p_compact = sub.add_parser("compact",
                               help="compact a saved PTP directory")
    p_compact.add_argument("--ptp-dir", required=True)
    p_compact.add_argument("--out", required=True)
    p_compact.add_argument("--width", type=int, default=16)
    p_compact.add_argument("--reverse", action="store_true",
                           help="apply stage-3 patterns in reverse order")
    p_compact.add_argument("--no-evaluate", action="store_true",
                           help="skip the stage-5 validation fault sims")
    p_compact.add_argument("--reports", action="store_true",
                           help="also write trace/VCDE/FSR/LPTP files")
    _add_exec_arguments(p_compact)
    p_compact.set_defaults(func=cmd_compact)

    p_campaign = sub.add_parser(
        "campaign",
        help="resiliently compact a whole STL directory, with "
             "checkpoint/resume")
    p_campaign.add_argument("--stl-dir", required=True,
                            help="STL directory (stl.json manifest + one "
                                 "subdirectory per PTP)")
    p_campaign.add_argument("--out", required=True,
                            help="output STL directory")
    p_campaign.add_argument("--width", type=int, default=16)
    p_campaign.add_argument("--checkpoint",
                            help="checkpoint file (default: "
                                 "<out>/campaign.json)")
    p_campaign.add_argument("--resume", action="store_true",
                            help="skip PTPs recorded in the checkpoint and "
                                 "restore the fault-dropping state")
    p_campaign.add_argument("--max-fc-drop", type=float, default=None,
                            metavar="PP",
                            help="FC-regression guard: roll a compaction "
                                 "back when it loses more than PP "
                                 "percentage points of FC (default: off; "
                                 "0.0 = roll back any loss)")
    p_campaign.add_argument("--ptp-timeout", type=float, default=None,
                            metavar="SECONDS",
                            help="per-PTP wall-clock watchdog budget")
    p_campaign.add_argument("--max-trace-cycles", type=int, default=None,
                            metavar="CCS",
                            help="per-PTP traced-kernel cycle budget")
    keep = p_campaign.add_mutually_exclusive_group()
    keep.add_argument("--keep-going", dest="keep_going",
                      action="store_true", default=True,
                      help="continue past failed PTPs (default)")
    keep.add_argument("--fail-fast", dest="keep_going",
                      action="store_false",
                      help="abort the campaign at the first failed PTP")
    p_campaign.add_argument("--no-evaluate", action="store_true",
                            help="skip stage-5 FC evaluation (disables the "
                                 "FC-regression guard)")
    _add_exec_arguments(p_campaign)
    p_campaign.set_defaults(func=cmd_campaign)

    p_tables = sub.add_parser("tables",
                              help="regenerate the paper's tables")
    p_tables.add_argument("--scale", choices=("smoke", "default"),
                          default="smoke")
    p_tables.add_argument("--table1-only", action="store_true")
    p_tables.set_defaults(func=cmd_tables)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # Flush here, so that a closed stdout raises below rather than
        # at interpreter exit.
        sys.stdout.flush()
        return code
    except ReproError as exc:
        print("repro: {}: {}".format(type(exc).__name__, exc),
              file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout (``repro ... | head``).  Point stdout
        # at devnull so that the exit flush cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
