"""Worker pool: persistence, pattern priming, death recovery, poison.

The soak-style tests here kill workers (idle and mid-run) and feed the
pool a poisoned chunk, asserting the merged first detections stay
bit-identical to the sequential run and the pool remains usable afterwards — the scheduler
layer's fault isolation must never corrupt a FaultListReport.
"""

import gc
import os
import signal
import struct
import time
import weakref

import pytest

from repro.core.tracing import run_logic_tracing
from repro.errors import SchedulerError
from repro.exec import RunMetrics, ShardedFaultScheduler, WorkerPool
from repro.faults import OUTPUT_PIN, FaultList, FaultSimulator, StuckAtFault
from repro.faults.dropping import FaultListReport
from repro.netlist import PatternSet
from repro.stl import generate_imm


@pytest.fixture(scope="module")
def workload(du_module):
    """(simulator, patterns, fault_list) for one decoder-unit PTP."""
    ptp = generate_imm(seed=3, num_sbs=4)
    tracing = run_logic_tracing(ptp, du_module)
    patterns = tracing.pattern_report.to_pattern_set()
    return (FaultSimulator(du_module.netlist), patterns,
            FaultList(du_module.netlist))


# -- persistence ------------------------------------------------------------

def test_workers_and_priming_persist_across_runs(workload):
    simulator, patterns, fault_list = workload
    sequential = simulator.run(patterns, fault_list)
    metrics = RunMetrics()
    with WorkerPool(2, metrics=metrics) as pool:
        for __ in range(3):
            firsts, busy, stats = pool.simulate(
                simulator, patterns, fault_list)
            assert firsts == sequential.first_detection
    # Spawned once, primed once per worker — not once per run.
    assert metrics.pool["workers_spawned"] == 2
    assert metrics.pool["contexts_shipped"] == 2
    assert metrics.pool["patterns_shipped"] == 2
    assert metrics.pool["worker_init_events"] == 2
    assert metrics.pool["worker_init_seconds"] > 0.0


def test_pool_keeps_only_the_latest_pattern_set(workload):
    """A pooled run on a new pattern set replaces the context's old set in
    the parent and in every worker, so the old set is not pinned."""
    import repro.exec.pool as pool_mod

    simulator, patterns, fault_list = workload
    sequential = simulator.run(patterns, fault_list)
    old = PatternSet(simulator.netlist, patterns.count, dict(patterns.packed))
    dead = weakref.ref(old)
    with WorkerPool(2) as pool:
        assert pool.simulate(simulator, old, fault_list)[0] == \
            sequential.first_detection
        firsts = pool.simulate(simulator, patterns, fault_list)[0]
        (context,) = pool._contexts
        assert context.pattern[0] is patterns
        assert all(len(w.patterns) == 1 for w in pool._workers)
    assert firsts == sequential.first_detection
    del old
    gc.collect()
    assert dead() is None

    # Worker side: a second prime for the same context replaces the first.
    state = pool_mod._WorkerState()
    pool_mod._prime_context(state, 0, simulator.netlist, simulator.engine)
    for pat_id in (1, 2):
        pool_mod._prime_patterns(state, 0, pat_id, patterns.packed,
                                 patterns.count)
    assert list(state.patterns) == [0]
    assert state.patterns[0][0] == 2
    with pytest.raises(SchedulerError):
        pool_mod._run_chunk(state, 0, 1, [0])


# -- worker death -----------------------------------------------------------

def test_idle_worker_kill_is_respawned_next_run(workload):
    simulator, patterns, fault_list = workload
    sequential = simulator.run(patterns, fault_list)
    metrics = RunMetrics()
    with WorkerPool(2, metrics=metrics) as pool:
        firsts, __, __ = pool.simulate(simulator, patterns, fault_list)
        assert firsts == sequential.first_detection
        victim = pool._workers[0].process
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=5)
        firsts, __, __ = pool.simulate(simulator, patterns, fault_list)
        assert firsts == sequential.first_detection
    assert metrics.pool["worker_deaths"] >= 1
    assert metrics.pool["workers_spawned"] >= 3


def test_mid_run_worker_death_requeues_orphans(workload, monkeypatch):
    """Kill one worker right after it is primed (so its dispatched chunks
    are orphaned mid-run): the survivor must absorb the requeued chunks
    and the merge must stay bit-identical."""
    import repro.exec.pool as pool_mod

    simulator, patterns, fault_list = workload
    sequential = simulator.run(patterns, fault_list)
    metrics = RunMetrics()
    original_prime = pool_mod.WorkerPool._prime
    killed = []

    def killing_prime(self, worker, context, pats, pat_id):
        original_prime(self, worker, context, pats, pat_id)
        if not killed:
            killed.append(worker.worker_id)
            os.kill(worker.process.pid, signal.SIGKILL)
            worker.process.join(timeout=5)

    monkeypatch.setattr(pool_mod.WorkerPool, "_prime", killing_prime)
    with WorkerPool(2, metrics=metrics) as pool:
        firsts, __, __ = pool.simulate(simulator, patterns, fault_list)
    assert killed, "the kill hook never fired"
    assert firsts == sequential.first_detection
    assert metrics.pool["worker_deaths"] >= 1
    assert metrics.pool["chunks_requeued"] >= 1


def test_worker_dying_mid_send_is_requeued(workload, monkeypatch):
    """A worker that dies halfway through sending a result leaves a
    truncated message in its pipe: the parent must count it as a death
    and requeue its chunks instead of waiting for the rest forever."""
    import repro.exec.pool as pool_mod

    simulator, patterns, fault_list = workload
    sequential = simulator.run(patterns, fault_list)
    real_main = pool_mod._worker_main

    def truncating_main(worker_id, tasks, results):
        if worker_id != 0:
            return real_main(worker_id, tasks, results)
        while tasks.get()[0] != "chunk":
            pass
        # A length header promising far more bytes than ever follow;
        # the pause lets the parent start reading before the death.
        os.write(results.fileno(), struct.pack("!i", 1 << 20) + b"partial")
        time.sleep(0.5)
        os._exit(1)

    monkeypatch.setattr(pool_mod, "_worker_main", truncating_main)
    metrics = RunMetrics()
    with WorkerPool(2, metrics=metrics) as pool:
        firsts, __, __ = pool.simulate(simulator, patterns, fault_list)
    assert firsts == sequential.first_detection
    assert metrics.pool["worker_deaths"] >= 1
    assert metrics.pool["chunks_requeued"] >= 1


def test_every_worker_dead_finishes_inline(workload):
    """With no survivors the parent simulates the rest itself — the run
    completes (venue changes, result doesn't) instead of hanging."""
    simulator, patterns, fault_list = workload
    sequential = simulator.run(patterns, fault_list)
    metrics = RunMetrics()
    with WorkerPool(1, metrics=metrics) as pool:
        firsts, __, __ = pool.simulate(simulator, patterns, fault_list)
        assert firsts == sequential.first_detection
        os.kill(pool._workers[0].process.pid, signal.SIGKILL)
        pool._workers[0].process.join(timeout=5)
        # Keep the pool from respawning so the inline path is forced.
        pool.target_workers = 0
        firsts, __, __ = pool.simulate(simulator, patterns, fault_list)
    assert firsts == sequential.first_detection
    assert metrics.pool["chunks_inline"] >= 1


# -- poisoned chunks --------------------------------------------------------

def _poison(netlist):
    """A structurally valid-looking fault whose net does not exist — it
    crashes any engine that simulates it, on any worker."""
    return StuckAtFault(net=netlist.num_nets + 1000, gate=None,
                        pin=OUTPUT_PIN, stuck_at=1)


def test_poisoned_chunk_raises_scheduler_error_and_pool_survives(workload):
    simulator, patterns, fault_list = workload
    sequential = simulator.run(patterns, fault_list)
    poisoned = FaultList(simulator.netlist,
                         list(fault_list)[:40] + [_poison(simulator.netlist)])
    metrics = RunMetrics()
    with ShardedFaultScheduler(jobs=2, min_faults_per_shard=1,
                               metrics=metrics) as scheduler:
        with pytest.raises(SchedulerError):
            scheduler.run(simulator, patterns, poisoned)
        # Retried on another worker, then failed inline too.
        assert metrics.pool["chunk_errors"] >= 2
        assert metrics.pool["chunks_requeued"] >= 1
        # The pool is still usable and still exact afterwards.
        result = scheduler.run(simulator, patterns, fault_list)
        assert result.first_detection == sequential.first_detection


def test_poisoned_chunk_failure_does_not_corrupt_fault_report(workload):
    """Campaign-style soak: PTP 1 drops normally, PTP 2's simulation hits
    a poisoned chunk and fails — the report must still hold exactly PTP
    1's drops, and PTP 3 must then simulate as if PTP 2 never happened."""
    simulator, patterns, __ = workload
    report = FaultListReport(simulator.netlist)
    with ShardedFaultScheduler(jobs=2, min_faults_per_shard=1,
                               metrics=RunMetrics()) as scheduler:
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


# -- chunking and the inline path -----------------------------------------

def test_ragged_multi_chunk_run_is_bit_identical(workload, monkeypatch):
    """Dynamic sizing with the chunk floor lowered: a 101-fault list over
    two workers streams as several full chunks plus a shorter last one,
    and the merge is still bit-identical."""
    import repro.exec.pool as pool_mod

    monkeypatch.setattr(pool_mod, "MIN_AUTO_CHUNK", 1)
    simulator, patterns, fault_list = workload
    faults = FaultList(simulator.netlist, list(fault_list)[:101])
    sequential = simulator.run(patterns, faults)
    with WorkerPool(2) as pool:
        firsts, busy, __ = pool.simulate(simulator, patterns, faults)
    assert firsts == sequential.first_detection
    size = -(-101 // (2 * pool_mod.CHUNKS_PER_WORKER))
    assert 101 % size, "the last chunk must be ragged"
    assert len(busy) == -(-101 // size) > 2


def test_single_job_runs_inline(workload):
    simulator, patterns, fault_list = workload
    sequential = simulator.run(patterns, fault_list)
    with ShardedFaultScheduler(jobs=1, metrics=RunMetrics()) as scheduler:
        result = scheduler.run(simulator, patterns, fault_list)
        assert result.first_detection == sequential.first_detection
        assert scheduler._pool is None, "no pool may be constructed"
    run = scheduler.metrics.groups["fault_sim"]
    assert run["runs"] == 1
    assert "chunks" not in run
