"""Microbenchmark: cone-walk vs. event-driven stage-3 fault sim.

Times one decoder-unit stuck-at fault simulation over the IMM pattern
set, for the production ``event`` engine and the ``cone`` reference,
inline and through two forked workers, asserts all
configurations stay bit-identical, and writes ``BENCH_fault_sim.json``
at the repo root (patterns/s, faults/s, speedups over the sequential
cone walk, pool speedup, gates evaluated vs. skipped).

These are stage-3 microbenchmark numbers on one small module, not
campaign speedups: the end-to-end campaign benchmark is
``perfbench/run.py`` (``BENCHMARK.json``).

Each pooled repeat forks its own workers, as every pooled run of a
campaign does, so the pooled rows include the fork and the join.
Nothing is primed: the workers inherit the simulator, its good values
(memoized by the first repeat) and the fault list.

Speedup across job counts is hardware-dependent: on a single-core runner
the pooled path pays IPC overhead for no gain (speedup <= 1), which the
JSON records honestly alongside ``cpu_count`` (production job resolution
short-circuits to inline on one CPU, so no real campaign pays it).  The
event-vs-cone speedup is algorithmic (the frontier dies long before the
static cone ends) and holds at any core count.

Wall-clock *thresholds* are opt-in via ``REPRO_BENCH_STRICT=1``: smoke
and CI runs record timings without gating on them (shared runners jitter
far more than the margins involved), while bit-identity and gate-count
invariants are asserted unconditionally.
"""

import json
import os
import time

from repro.core.tracing import run_logic_tracing
from repro.exec import (
    ArtifactCache,
    IncrementalFaultSim,
    RunMetrics,
    ShardedFaultScheduler,
)
from repro.faults import FaultList, FaultSimulator
from repro.faults.dropping import FaultListReport
from repro.isa.instruction import Program
from repro.netlist.modules import build_decoder_unit
from repro.stl import generate_imm

_ENGINES = ("cone", "event")
_JOB_COUNTS = (1, 2)
_OUT_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "BENCH_fault_sim.json")


def _time_run(fn, repeats=3):
    """Best-of-N wall time (minimizes scheduler noise on shared
    runners)."""
    best = None
    result = None
    for __ in range(repeats):
        started = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def _counted_run(scheduler, simulator, patterns, fault_list, last):
    """``scheduler.run`` that leaves the run's ``fault_sim`` counter
    deltas in the dict *last*."""
    groups = scheduler.metrics.groups
    before = dict(groups.get("fault_sim", {}))
    result = scheduler.run(simulator, patterns, fault_list)
    after = groups["fault_sim"]
    last.update((name, after[name] - before.get(name, 0)) for name in after)
    return result


def test_bench_cone_vs_event_fault_sim():
    smoke = bool(os.environ.get("REPRO_BENCH_SMOKE"))
    strict = bool(os.environ.get("REPRO_BENCH_STRICT"))
    module = build_decoder_unit()
    ptp = generate_imm(seed=0, num_sbs=12 if smoke else 60)
    tracing = run_logic_tracing(ptp, module)
    patterns = tracing.pattern_report.to_pattern_set()
    fault_list = FaultList(module.netlist)

    # One scheduler per job count, reused across both engines.
    schedulers = {
        jobs: ShardedFaultScheduler(jobs=jobs, metrics=RunMetrics())
        for jobs in _JOB_COUNTS
    }
    baseline = None
    rows = []
    for engine in _ENGINES:
        simulator = FaultSimulator(module.netlist, engine=engine)
        for jobs in _JOB_COUNTS:
            scheduler = schedulers[jobs]
            last = {}
            seconds, result = _time_run(
                lambda: _counted_run(scheduler, simulator, patterns,
                                     fault_list, last))
            if baseline is None:
                baseline = result
            else:
                assert (result.first_detection
                        == baseline.first_detection)
            pooled_seconds = last.get("pooled_job_seconds")
            rows.append({
                "engine": engine,
                "jobs": jobs,
                "seconds": seconds,
                "patterns_per_second": patterns.count / seconds,
                "faults_per_second": len(fault_list) / seconds,
                "gates_evaluated": last.get("gates_evaluated"),
                "gates_skipped": last.get("gates_skipped"),
                "chunks": last.get("chunks"),
                "shard_utilization": (
                    last["busy_seconds"] / pooled_seconds
                    if pooled_seconds else None),
                "inline_fallback": bool(last.get("inline_fallback")),
            })
    pool_gauges = dict(schedulers[2].metrics.pool)

    by_config = {(row["engine"], row["jobs"]): row for row in rows}
    cone_sequential = by_config[("cone", 1)]["seconds"]
    for row in rows:
        row["speedup_vs_cone_1job"] = cone_sequential / row["seconds"]
    event_speedup = by_config[("event", 1)]["speedup_vs_cone_1job"]
    pool_event_speedup = (by_config[("event", 1)]["seconds"]
                          / by_config[("event", 2)]["seconds"])
    gates_skipped = by_config[("event", 1)]["gates_skipped"]

    # Static triage: the safe mode moves provably untestable faults out of
    # the worklist and the FC denominator.  It is recorded for that
    # meaning only; it claims no speed (no pattern excites those faults
    # or carries their effect to an output, so they are cheap anyway).
    report = FaultListReport(module.netlist, static_prune="safe")
    prune_ratio = report.untestable_faults / len(fault_list)
    event_sim = FaultSimulator(module.netlist)
    full_result = event_sim.run(patterns, fault_list)
    pruned_result = event_sim.run(patterns, report.remaining)
    # Soundness invariant: pruning only ever removes never-detected
    # faults, so the detected sets agree exactly.
    assert (set(pruned_result.detected_faults)
            == set(full_result.detected_faults))

    document = {
        "workload": {
            "module": module.name,
            "ptp": ptp.name,
            "patterns": patterns.count,
            "faults": len(fault_list),
            "smoke": smoke,
        },
        "static_prune": {
            "total_faults": len(fault_list),
            "pruned_faults": report.untestable_faults,
            "static_prune_ratio": prune_ratio,
        },
        "cpu_count": os.cpu_count(),
        "strict": strict,
        "event_speedup_sequential": event_speedup,
        "pool_event_speedup_2jobs": pool_event_speedup,
        "pool": pool_gauges,
        "runs": rows,
    }
    with open(_OUT_PATH, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)

    print()
    print("fault-sim bench ({} faults x {} patterns, {} CPU(s)):".format(
        len(fault_list), patterns.count, os.cpu_count()))
    for row in rows:
        print("  engine={:<5} jobs={}: {:.3f}s, {:.0f} patterns/s, "
              "speedup x{:.2f}, gates eval/skip {}/{}".format(
                  row["engine"], row["jobs"], row["seconds"],
                  row["patterns_per_second"], row["speedup_vs_cone_1job"],
                  row["gates_evaluated"], row["gates_skipped"]))
    print("  pool: {} worker(s) spawned, {} chunk(s) dispatched, "
          "event 2-job speedup x{:.2f}".format(
              pool_gauges.get("workers_spawned", 0),
              pool_gauges.get("chunks_dispatched", 0),
              pool_event_speedup))
    print("  static prune: {}/{} fault(s) proven untestable ({:.1%})"
          .format(report.untestable_faults, len(fault_list), prune_ratio))

    # Invariants (asserted unconditionally — they are not timing-based).
    # The event engine's gain is algorithmic, not a scheduling artifact:
    # it must actually have skipped dead-cone work.
    assert gates_skipped and gates_skipped > 0
    assert by_config[("cone", 1)]["gates_skipped"] == 0
    # Pooled rows really went through the pool (workers + chunks), and
    # never silently fell back inline.
    assert pool_gauges.get("workers_spawned", 0) >= 2
    assert pool_gauges.get("chunks_dispatched", 0) >= 2
    assert not any(row["inline_fallback"] for row in rows)
    assert all(row["patterns_per_second"] > 0 for row in rows)
    # The decoder unit has a proven-untestable bucket, so the static
    # triage must actually have shrunk the worklist.
    assert 0 < prune_ratio < 1
    assert os.path.getsize(_OUT_PATH) > 0

    # Wall-clock thresholds: opt-in only (REPRO_BENCH_STRICT=1) so shared
    # runners record trajectories without flaking on scheduler jitter.
    if strict:
        assert event_speedup > 1.2, (
            "event engine regressed to x{:.2f} vs cone".format(
                event_speedup))
        if (os.cpu_count() or 1) >= 2:
            assert pool_event_speedup >= 1.2, (
                "2-job pool only x{:.2f} vs sequential event on a "
                "{}-CPU machine".format(pool_event_speedup,
                                        os.cpu_count()))


def test_bench_incremental_warm_rerun(tmp_path):
    """Benchmark: warm incremental re-run after a single-SB edit.

    Populates a fault-state record from the unedited IMM workload, deletes
    one store block, and times the warm incremental run against a
    from-scratch simulation of the same edited pattern set, once per
    sequential engine (cone and event).  Two invariants are structural,
    not timing-based, and assert unconditionally per engine: the warm run
    re-simulates fewer than half the faults (the ISSUE acceptance bar),
    and its merged result is bit-identical to the from-scratch run.  The
    speedups land in ``BENCH_fault_sim.json`` next to the engine rows
    (under ``incremental``); the headline ``warm_rerun_speedup`` is the
    cone-engine number — the same sequential reference the other bench
    rows normalize against.  (The event engine with fault dropping is so
    fast on the decoder unit that restore overhead can exceed the sim it
    avoids; the per-engine rows record that honestly instead of hiding
    it.)
    """
    smoke = bool(os.environ.get("REPRO_BENCH_SMOKE"))
    strict = bool(os.environ.get("REPRO_BENCH_STRICT"))
    module = build_decoder_unit()
    ptp = generate_imm(seed=0, num_sbs=12 if smoke else 60)
    base_patterns = run_logic_tracing(
        ptp, module).pattern_report.to_pattern_set()
    lo, hi = ptp.sb_hints[len(ptp.sb_hints) // 2]
    ins = ptp.program.instructions
    edited = ptp.with_program(Program(ins[:lo] + ins[hi:]))
    edited_patterns = run_logic_tracing(
        edited, module).pattern_report.to_pattern_set()
    fault_list = FaultList(module.netlist)

    cache = ArtifactCache(str(tmp_path / "cache"))
    inc = IncrementalFaultSim(cache, mode="on")
    engines = {}
    for engine in ("cone", "event"):
        simulator = FaultSimulator(module.netlist, engine=engine)
        scratch_seconds, scratch = _time_run(
            lambda: simulator.run(edited_patterns, fault_list))
        key = cache.fault_state_key(ptp.name, module, engine)
        cold_started = time.perf_counter()
        inc.run(simulator, base_patterns, fault_list, key)
        cold_seconds = time.perf_counter() - cold_started
        warm_seconds, (warm, info) = _time_run(
            lambda: inc.run(simulator, edited_patterns, fault_list, key))

        assert warm.first_detection == scratch.first_detection
        resim_fraction = info["faults_resimulated"] / len(fault_list)
        # The ISSUE acceptance bar: a single-SB edit invalidates a strict
        # minority of the decoder-unit fault population.
        assert resim_fraction < 0.5, (
            "warm re-run re-simulated {:.0%} of faults after one SB edit"
            .format(resim_fraction))
        engines[engine] = {
            "faults_restored": info["faults_restored"],
            "faults_resimulated": info["faults_resimulated"],
            "resim_fraction": resim_fraction,
            "cold_seconds": cold_seconds,
            "warm_seconds": warm_seconds,
            "scratch_seconds": scratch_seconds,
            "warm_rerun_speedup": scratch_seconds / warm_seconds,
        }

    section = {
        "faults": len(fault_list),
        "patterns_cold": base_patterns.count,
        "patterns_warm": edited_patterns.count,
        "engines": engines,
        "warm_rerun_speedup": engines["cone"]["warm_rerun_speedup"],
    }
    try:
        with open(_OUT_PATH) as handle:
            document = json.load(handle)
    except (OSError, ValueError):
        document = {}
    document["incremental"] = section
    with open(_OUT_PATH, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)

    print()
    print("incremental warm re-run ({} faults, single-SB edit):".format(
        len(fault_list)))
    for engine, row in engines.items():
        print("  {:<6} scratch {:.3f}s, warm {:.3f}s, speedup x{:.2f}, "
              "{}/{} fault(s) re-simulated ({:.1%})".format(
                  engine, row["scratch_seconds"], row["warm_seconds"],
                  row["warm_rerun_speedup"], row["faults_resimulated"],
                  len(fault_list), row["resim_fraction"]))

    if strict:
        assert engines["cone"]["warm_rerun_speedup"] > 1.2, (
            "warm incremental re-run only x{:.2f} vs from-scratch cone"
            .format(engines["cone"]["warm_rerun_speedup"]))
