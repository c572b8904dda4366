"""Sharded stage-3 fault simulation over workers forked per run.

Gate-level stuck-at fault simulation is embarrassingly parallel across
faults: each fault's first detection depends only on the (shared) good-
machine values and its own fanout cone.  The scheduler exploits this by
cutting a module's fault list into contiguous slices, streaming them
through ``jobs`` worker processes, and merging the per-slice first
detections back in fault-list order — so the merged
:class:`~repro.faults.fault_sim.FaultSimResult` is **bit-identical** to
the sequential run (same ``first_detection``, same fault order).

Each pooled run forks its own workers after the parent has computed the
good-machine values of the pattern set, so every worker inherits the
simulator, its good values and the fault list; a task is only a
``(start, stop)`` slice and a result only that slice's first detections.
Nothing is pickled into a worker, and no worker outlives :meth:`run`.

Fault dropping composes with sharding because the pipeline shards
*after* the drop filter (the scheduler receives the already-filtered
remaining list) and merges *before* the next drop, so detection credit
stays with the PTP that first detected the fault, exactly as
:class:`~repro.faults.dropping.FaultListReport` attributes it.

Every run adds to the ``fault_sim`` counter group of the scheduler's
:class:`~repro.exec.metrics.RunMetrics`: ``runs``, ``faults``,
``patterns``, ``seconds``, ``gates_evaluated`` and ``gates_skipped``;
pooled runs also add ``chunks``, the chunks' ``busy_seconds`` and
``pooled_job_seconds`` (jobs x wall seconds), whose ratio is the shard
utilization.  Worker events land in the ``pool`` group:
``workers_spawned``, ``chunks_dispatched``, ``worker_deaths``,
``chunks_requeued`` and ``chunks_inline``.  Where the platform cannot
fork, or a worker fails to start, the run goes inline and counts
``fault_sim.inline_fallback``.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import time

from ..errors import SchedulerError
from ..faults.fault import FaultList
from ..faults.fault_sim import FaultSimResult

#: Environment variable consulted when no explicit job count is given
#: (lets CI run the whole tier-1 suite through the sharded path).
JOBS_ENV = "REPRO_JOBS"

#: Slice sizing targets this many slices per worker, so a slow slice
#: leaves the other workers something to stream.
CHUNKS_PER_WORKER = 4

#: Slice sizing never cuts slices smaller than this (per-slice dispatch
#: overhead would dominate).
MIN_AUTO_CHUNK = 16

#: Slices a worker holds at once: it starts the next one while the
#: parent merges the last.
_WINDOW = 2


def resolve_jobs(jobs=None, default=1):
    """Normalize a job count.

    ``None`` falls back to ``$REPRO_JOBS`` and then to *default*
    (callers that want "use the machine" pass ``default=os.cpu_count()``).
    Counts resolved from the environment or the default are clamped to 1
    on single-CPU machines — a pool there can only lose (it serializes
    the same work through extra processes), so the inline path is taken
    instead.  An *explicit* ``jobs`` argument is honored as given (tests
    and benchmarks deliberately exercise pools on one CPU).

    Raises:
        SchedulerError: non-positive or non-integer job count.
    """
    explicit = jobs is not None
    if jobs is None:
        env = os.environ.get(JOBS_ENV)
        if env:
            try:
                jobs = int(env)
            except ValueError as exc:
                raise SchedulerError(
                    "{}={!r} is not an integer".format(JOBS_ENV,
                                                       env)) from exc
        else:
            jobs = default if default is not None else 1
    if not isinstance(jobs, int) or jobs < 1:
        raise SchedulerError("jobs must be a positive integer, got {!r}"
                             .format(jobs))
    if not explicit and jobs > 1 and (os.cpu_count() or 1) < 2:
        jobs = 1
    return jobs


def _simulate(simulator, patterns, faults):
    """``simulator.run`` over *faults*; returns (first detections, busy
    seconds, propagation-counter delta)."""
    before = dict(simulator.stats)
    started = time.perf_counter()
    firsts = simulator.run(patterns, faults).first_detection
    busy = time.perf_counter() - started
    return firsts, busy, {key: value - before.get(key, 0)
                          for key, value in simulator.stats.items()}


def _serve(simulator, patterns, faults, tasks, results):
    """Worker loop: simulate each ``(start, stop)`` slice of *faults*
    received on *tasks* and send its first detections down *results*;
    ``None`` (or a closed task pipe) stops the worker."""
    while True:
        try:
            task = tasks.recv()
        except EOFError:
            return
        if task is None:
            return
        start, stop = task
        try:
            message = ("done", start) + _simulate(simulator, patterns,
                                                  faults[start:stop])
        except Exception:
            # The parent retries the slice inline and reports that
            # run's error if it fails too.
            message = ("error", start)
        results.send(message)


class _Worker:
    """Parent-side handle of one forked worker."""

    __slots__ = ("process", "tasks", "results", "inflight")

    def __init__(self, process, tasks, results):
        self.process = process
        self.tasks = tasks          # sending end of the task pipe
        self.results = results      # receiving end of the result pipe
        self.inflight = {}          # start -> stop of dispatched slices


class ShardedFaultScheduler:
    """Runs a :class:`~repro.faults.fault_sim.FaultSimulator` workload
    sliced across worker processes forked for each run.

    Args:
        jobs: worker processes (None: ``$REPRO_JOBS`` or 1).  ``1`` runs
            inline in this process with zero pool overhead.
        min_faults_per_shard: below ``jobs * min_faults_per_shard`` faults
            the workers are not worth forking and the run goes inline
            (the result is identical either way).
        metrics: optional :class:`~repro.exec.metrics.RunMetrics`.

    The scheduler holds no processes between runs, so one scheduler can
    serve any number of pipelines and campaigns; :meth:`close` and the
    context manager are no-ops kept for callers that release it.
    """

    def __init__(self, jobs=None, min_faults_per_shard=32, metrics=None):
        self.jobs = resolve_jobs(jobs)
        self.min_faults_per_shard = min_faults_per_shard
        self.metrics = metrics

    def close(self):
        """No-op: every run joins its own workers before it returns."""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def _bump(self, name, amount=1):
        if self.metrics is not None:
            self.metrics.bump(name, amount)

    def run(self, simulator, patterns, fault_list=None):
        """Pooled equivalent of ``simulator.run(patterns, fault_list)``.

        Returns a :class:`FaultSimResult` bit-identical to the sequential
        call's.

        Raises:
            SchedulerError: a slice failed in a worker and again inline.
        """
        if fault_list is None:
            fault_list = FaultList(simulator.netlist)
        started = time.perf_counter()
        pooled = None
        if (self.jobs > 1 and patterns.count
                and len(fault_list) >= self.jobs * self.min_faults_per_shard):
            if "fork" in multiprocessing.get_all_start_methods():
                try:
                    pooled = self._run_forked(simulator, patterns,
                                              list(fault_list))
                except OSError:
                    pass
            if pooled is None:
                # Restricted environments (no fork, no process start):
                # degrade to the sequential path rather than failing the
                # compaction.
                self._bump("fault_sim.inline_fallback")
        if pooled is None:
            firsts, __, stats = _simulate(simulator, patterns, fault_list)
        else:
            firsts, busy, stats = pooled
        seconds = time.perf_counter() - started
        counts = {"runs": 1, "faults": len(fault_list),
                  "patterns": patterns.count, "seconds": seconds,
                  "gates_evaluated": stats.get("gates_evaluated", 0),
                  "gates_skipped": stats.get("gates_skipped", 0)}
        if pooled is not None:
            counts.update(chunks=len(busy), busy_seconds=sum(busy),
                          pooled_job_seconds=self.jobs * seconds)
        for name, amount in counts.items():
            self._bump("fault_sim." + name, amount)
        return FaultSimResult(fault_list, patterns.count, firsts)

    def _run_forked(self, simulator, patterns, faults):
        """Simulate *faults* in ``jobs`` forked workers.

        Returns ``(firsts, busy, stats)``: the first detections in
        fault-list order, each slice's busy seconds, and the summed
        propagation-counter deltas.  Raises OSError when a worker cannot
        be started.
        """
        total = len(faults)
        size = max(MIN_AUTO_CHUNK,
                   -(-total // (self.jobs * CHUNKS_PER_WORKER)))
        pending = [(start, min(start + size, total))
                   for start in range(0, total, size)]
        pending.reverse()           # pop() hands slices out in list order
        firsts = [None] * total
        busy = []
        stats = {}

        def absorb(start, chunk_firsts, chunk_busy, chunk_stats):
            firsts[start:start + len(chunk_firsts)] = chunk_firsts
            busy.append(chunk_busy)
            for key, value in chunk_stats.items():
                stats[key] = stats.get(key, 0) + value

        def run_inline(start, stop):
            try:
                absorb(start, *_simulate(simulator, patterns,
                                         faults[start:stop]))
            except Exception as exc:
                raise SchedulerError(
                    "fault slice [{}:{}] failed in a worker and inline: "
                    "{!r}".format(start, stop, exc)) from exc
            self._bump("pool.chunks_inline")

        def fill(worker):
            while pending and len(worker.inflight) < _WINDOW:
                start, stop = pending.pop()
                try:
                    worker.tasks.send((start, stop))
                except OSError:
                    # The worker is gone; its result pipe reads EOF next.
                    pending.append((start, stop))
                    return
                worker.inflight[start] = stop
                self._bump("pool.chunks_dispatched")

        # Workers inherit the memoized good values instead of each
        # recomputing them.
        simulator.good_values(patterns)
        context = multiprocessing.get_context("fork")
        workers = []
        try:
            for __ in range(min(self.jobs, len(pending))):
                task_out, task_in = context.Pipe(duplex=False)
                result_out, result_in = context.Pipe(duplex=False)
                process = context.Process(
                    target=_serve, daemon=True,
                    args=(simulator, patterns, faults, task_out, result_in))
                try:
                    process.start()
                finally:
                    # The worker must hold the only copies of its ends, so
                    # that its death reads as EOF on the result pipe.
                    task_out.close()
                    result_in.close()
                workers.append(_Worker(process, task_in, result_out))
                self._bump("pool.workers_spawned")
            live = {worker.results: worker for worker in workers}
            for worker in workers:
                fill(worker)
            while pending or any(w.inflight for w in live.values()):
                if not live:
                    for start, stop in pending:
                        run_inline(start, stop)
                    break
                for pipe in multiprocessing.connection.wait(list(live)):
                    worker = live[pipe]
                    try:
                        message = pipe.recv()
                    except (EOFError, OSError):
                        # Death (also halfway through a send): its slices
                        # go back to the survivors.
                        del live[pipe]
                        self._bump("pool.worker_deaths")
                        if worker.inflight:
                            self._bump("pool.chunks_requeued",
                                       len(worker.inflight))
                            pending.extend(worker.inflight.items())
                            worker.inflight.clear()
                        for survivor in live.values():
                            fill(survivor)
                        continue
                    tag, start = message[:2]
                    stop = worker.inflight.pop(start)
                    if tag == "done":
                        absorb(start, *message[2:])
                    else:
                        run_inline(start, stop)
                    fill(worker)
        finally:
            _stop(workers)
        return firsts, busy, stats


def _stop(workers):
    """Stop, join and release every worker; kill what does not exit."""
    for worker in workers:
        try:
            worker.tasks.send(None)
        except OSError:
            pass
    for worker in workers:
        worker.process.join(timeout=1)
        if worker.process.is_alive():
            worker.process.kill()
            worker.process.join()
        worker.tasks.close()
        worker.results.close()
