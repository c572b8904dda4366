"""Sharded fault simulation: bit-identical merge, dropping, fallback."""

import multiprocessing
import multiprocessing.context

import pytest

from repro.core.pipeline import CompactionPipeline
from repro.core.tracing import run_logic_tracing
from repro.errors import SchedulerError
from repro.exec import RunMetrics, ShardedFaultScheduler, resolve_jobs
from repro.faults import FaultList, FaultSimulator
from repro.stl import generate_imm, generate_mem


@pytest.fixture(scope="module")
def du_workload(du_module):
    """(simulator, patterns, fault_list) for one decoder-unit PTP."""
    ptp = generate_imm(seed=11, num_sbs=5)
    tracing = run_logic_tracing(ptp, du_module)
    patterns = tracing.pattern_report.to_pattern_set()
    return (FaultSimulator(du_module.netlist), patterns,
            FaultList(du_module.netlist))


# -- job resolution ---------------------------------------------------------

def test_resolve_jobs_env_and_validation(monkeypatch):
    import repro.exec.scheduler as sched_mod

    monkeypatch.setattr(sched_mod.os, "cpu_count", lambda: 8)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs(None) == 1
    assert resolve_jobs(None, default=6) == 6
    assert resolve_jobs(3) == 3
    monkeypatch.setenv("REPRO_JOBS", "4")
    assert resolve_jobs(None) == 4
    assert resolve_jobs(2) == 2          # explicit beats the env
    monkeypatch.setenv("REPRO_JOBS", "zero")
    with pytest.raises(SchedulerError):
        resolve_jobs(None)
    with pytest.raises(SchedulerError):
        resolve_jobs(0)
    with pytest.raises(SchedulerError):
        resolve_jobs(-2)


def test_resolve_jobs_clamps_to_inline_on_one_cpu(monkeypatch):
    """Regression: on a 1-CPU machine a pool can only lose, so env- and
    default-resolved job counts short-circuit to the inline path.  An
    explicit count is still honored (tests and benchmarks deliberately
    exercise pools on one CPU)."""
    import repro.exec.scheduler as sched_mod

    monkeypatch.setattr(sched_mod.os, "cpu_count", lambda: 1)
    monkeypatch.setenv("REPRO_JOBS", "4")
    assert resolve_jobs(None) == 1
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs(None, default=6) == 1
    assert resolve_jobs(4) == 4          # explicit stays explicit
    # cpu_count() can return None; treat it like one CPU.
    monkeypatch.setattr(sched_mod.os, "cpu_count", lambda: None)
    assert resolve_jobs(None, default=2) == 1


# -- merge equivalence ------------------------------------------------------

@pytest.mark.parametrize("jobs", [1, 2, 4, 7])
def test_sharded_result_bit_identical_to_sequential(du_workload, jobs):
    simulator, patterns, fault_list = du_workload
    sequential = simulator.run(patterns, fault_list)
    with ShardedFaultScheduler(jobs=jobs) as scheduler:
        sharded = scheduler.run(simulator, patterns, fault_list)
    assert sharded.pattern_count == sequential.pattern_count
    assert sharded.first_detection == sequential.first_detection
    assert list(sharded.fault_list) == list(sequential.fault_list)


def test_sharded_run_records_metrics(du_workload):
    simulator, patterns, fault_list = du_workload
    metrics = RunMetrics()
    with ShardedFaultScheduler(jobs=2, metrics=metrics) as scheduler:
        scheduler.run(simulator, patterns, fault_list)
    run = metrics.groups["fault_sim"]
    assert run["runs"] == 1
    assert run["faults"] == len(fault_list)
    assert run["patterns"] == patterns.count
    assert run["pooled_job_seconds"] == 2 * run["seconds"] > 0.0
    # Chunk streaming: several chunks per worker.
    assert run["chunks"] >= 2
    assert run["busy_seconds"] > 0.0
    assert metrics.pool["workers_spawned"] == 2
    assert metrics.pool["chunks_dispatched"] >= run["chunks"]


def test_small_fault_lists_run_inline(du_workload):
    simulator, patterns, fault_list = du_workload
    metrics = RunMetrics()
    scheduler = ShardedFaultScheduler(jobs=4, metrics=metrics)
    small = FaultList(simulator.netlist, list(fault_list)[:16])
    result = scheduler.run(simulator, patterns, small)
    assert result.first_detection == simulator.run(
        patterns, small).first_detection
    run = metrics.groups["fault_sim"]
    assert run["runs"] == 1
    assert "chunks" not in run           # below jobs * min_faults_per_shard


def test_pool_failure_falls_back_inline(du_workload, monkeypatch):
    """A worker that cannot be started, or a platform without fork, runs
    the simulation inline and counts the fallback."""
    def refuse(process):
        raise OSError("no process spawning in this sandbox")

    simulator, patterns, fault_list = du_workload
    sequential = simulator.run(patterns, fault_list)
    metrics = RunMetrics()
    scheduler = ShardedFaultScheduler(jobs=4, metrics=metrics)
    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start",
                        refuse)
    result = scheduler.run(simulator, patterns, fault_list)
    assert result.first_detection == sequential.first_detection
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn"])
    result = scheduler.run(simulator, patterns, fault_list)
    assert result.first_detection == sequential.first_detection
    assert metrics.groups["fault_sim"]["inline_fallback"] == 2
    assert "chunks" not in metrics.groups["fault_sim"]
    assert metrics.pool["workers_spawned"] == 0


# -- dropping carried across PTPs ------------------------------------------

def _run_dropping_pipeline(du_module, job_count, engine):
    """IMM then MEM under fault dropping; returns (pipeline, outcomes,
    per-PTP drop-state fingerprint sequence)."""
    pipeline = CompactionPipeline(du_module, jobs=job_count)
    pipeline.simulator = FaultSimulator(du_module.netlist, engine=engine)
    outcomes = []
    fingerprints = []
    for ptp in (generate_imm(seed=7, num_sbs=4),
                generate_mem(seed=7, num_sbs=4)):
        outcomes.append(pipeline.compact(ptp, evaluate=False))
        fingerprints.append(pipeline.fault_report.fingerprint())
    return pipeline, outcomes, fingerprints


@pytest.mark.parametrize("engine", ["event", "cone"])
@pytest.mark.parametrize("jobs", [2, 4])
def test_dropping_across_two_ptps_survives_sharding_and_engine(
        du_module, jobs, engine):
    """IMM then MEM under fault dropping: every per-PTP artifact of the
    sharded pipeline — under either propagation engine — is bit-identical
    to the sequential cone-walk pipeline's, including the fingerprint of
    the drop state after every PTP."""
    seq_pipeline, seq_outcomes, seq_fps = _run_dropping_pipeline(
        du_module, 1, "cone")
    par_pipeline, par_outcomes, par_fps = _run_dropping_pipeline(
        du_module, jobs, engine)

    for seq, par in zip(seq_outcomes, par_outcomes):
        # Stage-3 results merge bit-identically...
        assert (par.fault_result.first_detection
                == seq.fault_result.first_detection)
        # ...so the second PTP simulated the same remaining list and the
        # whole compaction is equivalent.
        assert len(par.fault_result.fault_list) == len(
            seq.fault_result.fault_list)
        assert par.newly_dropped_faults == seq.newly_dropped_faults
        assert list(par.compacted.program) == list(seq.compacted.program)
    # The drop state agreed after EVERY PTP, not just at the end.
    assert par_fps == seq_fps
    assert (par_pipeline.fault_report.remaining_faults
            == seq_pipeline.fault_report.remaining_faults)
