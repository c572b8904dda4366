"""Forked fault-simulation workers: death recovery, poison, cleanup.

The soak-style tests here kill workers mid-run and feed the scheduler a
poisoned slice, asserting the merged first detections stay bit-identical
to the sequential run and no worker outlives a run — the scheduler
layer's fault isolation must never corrupt a FaultListReport.  Workers
are forked, so a test replaces the worker loop by monkeypatching
``_serve``, which the fork inherits.
"""

import multiprocessing
import os
import signal
import struct
import time

import pytest

import repro.exec.scheduler as scheduler_mod
from repro.core.tracing import run_logic_tracing
from repro.errors import SchedulerError
from repro.exec import RunMetrics, ShardedFaultScheduler
from repro.faults import OUTPUT_PIN, FaultList, FaultSimulator, StuckAtFault
from repro.faults.dropping import FaultListReport
from repro.stl import generate_imm


@pytest.fixture(scope="module")
def workload(du_module):
    """(simulator, patterns, fault_list) for one decoder-unit PTP."""
    ptp = generate_imm(seed=3, num_sbs=4)
    tracing = run_logic_tracing(ptp, du_module)
    patterns = tracing.pattern_report.to_pattern_set()
    return (FaultSimulator(du_module.netlist), patterns,
            FaultList(du_module.netlist))


def _pooled(jobs=2, **kwargs):
    metrics = RunMetrics()
    return ShardedFaultScheduler(jobs=jobs, metrics=metrics, **kwargs), \
        metrics


def _first_claim(marker):
    """True in exactly one process: the first to create *marker*."""
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return False
    return True


# -- lifecycle --------------------------------------------------------------

def test_no_worker_outlives_a_run(workload):
    """Each pooled run forks its workers and joins them before it
    returns; a second run over a new pattern set is bit-identical."""
    simulator, patterns, fault_list = workload
    scheduler, metrics = _pooled()
    result = scheduler.run(simulator, patterns, fault_list)
    assert result.first_detection == simulator.run(
        patterns, fault_list).first_detection
    assert multiprocessing.active_children() == []

    other = patterns.subset(range(patterns.count - 1, -1, -1))
    result = scheduler.run(simulator, other, fault_list)
    assert result.first_detection == simulator.run(
        other, fault_list).first_detection
    assert multiprocessing.active_children() == []
    assert metrics.pool["workers_spawned"] == 4
    assert metrics.pool["worker_deaths"] == 0


# -- worker death -----------------------------------------------------------

def test_mid_run_worker_death_requeues_orphans(workload, monkeypatch,
                                               tmp_path):
    """One worker is SIGKILLed after it receives its first slice: the
    survivor absorbs the requeued slices and the merge stays
    bit-identical."""
    simulator, patterns, fault_list = workload
    sequential = simulator.run(patterns, fault_list)
    marker = str(tmp_path / "killed")
    real_serve = scheduler_mod._serve

    def dying_serve(simulator, patterns, faults, tasks, results):
        if not _first_claim(marker):
            return real_serve(simulator, patterns, faults, tasks, results)
        tasks.recv()
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(scheduler_mod, "_serve", dying_serve)
    scheduler, metrics = _pooled()
    result = scheduler.run(simulator, patterns, fault_list)
    assert os.path.exists(marker), "the kill hook never fired"
    assert result.first_detection == sequential.first_detection
    assert metrics.pool["worker_deaths"] == 1
    assert metrics.pool["chunks_requeued"] >= 1
    assert metrics.pool["chunks_inline"] == 0
    assert multiprocessing.active_children() == []


def test_worker_dying_mid_send_is_requeued(workload, monkeypatch, tmp_path):
    """A worker that dies halfway through sending a result leaves a
    truncated message in its pipe: the parent must count it as a death
    and requeue its slices instead of waiting for the rest forever."""
    simulator, patterns, fault_list = workload
    sequential = simulator.run(patterns, fault_list)
    marker = str(tmp_path / "truncated")
    real_serve = scheduler_mod._serve

    def truncating_serve(simulator, patterns, faults, tasks, results):
        if not _first_claim(marker):
            return real_serve(simulator, patterns, faults, tasks, results)
        tasks.recv()
        # A length header promising far more bytes than ever follow;
        # the pause lets the parent start reading before the death.
        os.write(results.fileno(), struct.pack("!i", 1 << 20) + b"partial")
        time.sleep(0.5)
        os._exit(1)

    monkeypatch.setattr(scheduler_mod, "_serve", truncating_serve)
    scheduler, metrics = _pooled()
    result = scheduler.run(simulator, patterns, fault_list)
    assert result.first_detection == sequential.first_detection
    assert metrics.pool["worker_deaths"] == 1
    assert metrics.pool["chunks_requeued"] >= 1
    assert multiprocessing.active_children() == []


def test_every_worker_dead_finishes_inline(workload, monkeypatch):
    """With no survivors the parent simulates the rest itself — the run
    completes (venue changes, result doesn't) instead of hanging."""
    simulator, patterns, fault_list = workload
    sequential = simulator.run(patterns, fault_list)

    def dying_serve(simulator, patterns, faults, tasks, results):
        tasks.recv()
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(scheduler_mod, "_serve", dying_serve)
    scheduler, metrics = _pooled()
    result = scheduler.run(simulator, patterns, fault_list)
    assert result.first_detection == sequential.first_detection
    assert metrics.pool["worker_deaths"] == 2
    assert metrics.pool["chunks_inline"] == metrics.groups["fault_sim"][
        "chunks"] > 2
    assert multiprocessing.active_children() == []


# -- poisoned slices --------------------------------------------------------

def _poison(netlist):
    """A structurally valid-looking fault whose net does not exist — it
    crashes any engine that simulates it, in any process."""
    return StuckAtFault(net=netlist.num_nets + 1000, gate=None,
                        pin=OUTPUT_PIN, stuck_at=1)


def test_poisoned_chunk_raises_scheduler_error_and_pool_survives(workload):
    """A poisoned slice fails in its worker and again inline, and the run
    raises; no worker outlives it, and the next run is exact."""
    simulator, patterns, fault_list = workload
    poisoned = FaultList(simulator.netlist,
                         list(fault_list)[:40] + [_poison(simulator.netlist)])
    scheduler, metrics = _pooled(min_faults_per_shard=1)
    with pytest.raises(SchedulerError, match="in a worker and inline"):
        scheduler.run(simulator, patterns, poisoned)
    assert multiprocessing.active_children() == []
    assert metrics.pool["chunks_inline"] == 0
    result = scheduler.run(simulator, patterns, fault_list)
    assert result.first_detection == simulator.run(
        patterns, fault_list).first_detection


def test_poisoned_chunk_failure_does_not_corrupt_fault_report(workload):
    """Campaign-style soak: PTP 1 drops normally, PTP 2's simulation hits
    a poisoned slice and fails — the report must still hold exactly PTP
    1's drops, and PTP 3 must then simulate as if PTP 2 never happened."""
    simulator, patterns, __ = workload
    report = FaultListReport(simulator.netlist)
    scheduler, __ = _pooled(min_faults_per_shard=1)
    first = scheduler.run(simulator, patterns, report.remaining)
    report.drop_result(first, "PTP1")
    fingerprint = report.fingerprint()

    poisoned = FaultList(simulator.netlist,
                         list(report.remaining)[:20]
                         + [_poison(simulator.netlist)])
    with pytest.raises(SchedulerError):
        scheduler.run(simulator, patterns, poisoned)
    # Isolation: the failed simulation left no trace in the report.
    assert report.fingerprint() == fingerprint

    third = scheduler.run(simulator, patterns, report.remaining)
    reference = simulator.run(patterns, report.remaining)
    assert third.first_detection == reference.first_detection


# -- slicing and the inline path --------------------------------------------

def test_ragged_multi_chunk_run_is_bit_identical(workload, monkeypatch):
    """With the slice floor lowered, a 101-fault list over two workers
    streams as several full slices plus a shorter last one, and the merge
    is still bit-identical."""
    monkeypatch.setattr(scheduler_mod, "MIN_AUTO_CHUNK", 1)
    simulator, patterns, fault_list = workload
    faults = FaultList(simulator.netlist, list(fault_list)[:101])
    sequential = simulator.run(patterns, faults)
    scheduler, metrics = _pooled()
    result = scheduler.run(simulator, patterns, faults)
    assert result.first_detection == sequential.first_detection
    size = -(-101 // (2 * scheduler_mod.CHUNKS_PER_WORKER))
    assert 101 % size, "the last slice must be ragged"
    assert metrics.groups["fault_sim"]["chunks"] == -(-101 // size) > 2
    assert metrics.pool["chunks_dispatched"] == -(-101 // size)


def test_single_job_runs_inline(workload):
    simulator, patterns, fault_list = workload
    sequential = simulator.run(patterns, fault_list)
    scheduler, metrics = _pooled(jobs=1)
    result = scheduler.run(simulator, patterns, fault_list)
    assert result.first_detection == sequential.first_detection
    assert metrics.pool["workers_spawned"] == 0
    run = metrics.groups["fault_sim"]
    assert run["runs"] == 1
    assert "chunks" not in run
