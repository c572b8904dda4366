"""Sharded stage-3 fault simulation over a persistent worker pool.

Gate-level stuck-at fault simulation is embarrassingly parallel across
faults: each fault's detection word depends only on the (shared) good-
machine values and its own fanout cone.  The scheduler exploits this by
cutting a module's fault list into contiguous chunks, streaming them
through a campaign-lifetime :class:`~repro.exec.pool.WorkerPool`, and
merging the per-chunk results back in fault-list order — so the merged
:class:`~repro.faults.fault_sim.FaultSimResult` is **bit-identical** to
the sequential run (same ``detection_words``, same ``first_detection``,
same fault order).

Fault dropping composes with sharding because the pipeline shards
*after* the drop filter (the scheduler receives the already-filtered
remaining list) and merges *before* the next drop, so detection credit
stays with the PTP that first detected the fault, exactly as
:class:`~repro.faults.dropping.FaultListReport` attributes it.  The pool
holds no drop state, so one scheduler can serve several campaigns.

Workers are created once per scheduler (in practice: once per campaign —
pipelines share one scheduler) and primed with the netlist, propagation
schedule, and pattern set exactly once each; chunk jobs then carry only
canonical fault ids.  If the platform refuses to start worker processes
(sandboxes, restricted containers), the scheduler falls back to inline
execution and reports it through the metrics counter
``scheduler_inline_fallback``.
"""

from __future__ import annotations

import os
import time

from ..errors import SchedulerError
from ..faults.fault import FaultList
from ..faults.fault_sim import FaultSimResult
from .pool import WorkerPool

#: Environment variable consulted when no explicit job count is given
#: (lets CI run the whole tier-1 suite through the sharded path).
JOBS_ENV = "REPRO_JOBS"


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


def shard_bounds(count, shards):
    """Contiguous balanced shard boundaries: [(start, stop), ...].

    Deterministic: the first ``count % shards`` shards get one extra
    element.  Empty shards are never produced (*shards* is clamped to
    *count*; zero *count* yields no shards).
    """
    if count == 0:
        return []
    shards = max(1, min(shards, count))
    base, extra = divmod(count, shards)
    bounds = []
    start = 0
    for i in range(shards):
        stop = start + base + (1 if i < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def _stats_delta(simulator, before):
    """Propagation-counter delta of *simulator* since snapshot *before*."""
    return {key: value - before.get(key, 0)
            for key, value in simulator.stats.items()}


class ShardedFaultScheduler:
    """Runs a :class:`~repro.faults.fault_sim.FaultSimulator` workload
    chunked across a persistent pool of worker processes.

    One scheduler should span a whole campaign: its pool is started at
    the first pooled run and reused by every later run (across PTPs and
    across modules — worker state is cached per netlist context), which
    is what amortizes worker spawn and netlist/pattern priming.  Call
    :meth:`close` (or use the scheduler as a context manager) when the
    campaign is done.

    Args:
        jobs: worker processes (None: ``$REPRO_JOBS`` or 1).  ``1`` runs
            inline in this process with zero pool overhead.
        min_faults_per_shard: below ``jobs * min_faults_per_shard`` faults
            the pool is not worth waking and the run goes inline (the
            result is identical either way).
        metrics: optional :class:`~repro.exec.metrics.RunMetrics`.
        chunk_size: faults per streamed chunk (None: dynamic — about
            ``chunks_per_worker`` chunks per worker, never below
            :data:`~repro.exec.pool.MIN_AUTO_CHUNK`).
        chunks_per_worker: dynamic-sizing target used when *chunk_size*
            is None.
        pool: False disables the worker pool entirely (every run is
            inline regardless of *jobs*) — the CLI's ``--no-pool``.
        max_retries: per-chunk requeue budget before the parent simulates
            a failing chunk inline.
    """

    def __init__(self, jobs=None, min_faults_per_shard=32, metrics=None,
                 chunk_size=None, chunks_per_worker=4, pool=True,
                 max_retries=1):
        self.jobs = resolve_jobs(jobs)
        self.min_faults_per_shard = min_faults_per_shard
        self.metrics = metrics
        self.chunk_size = chunk_size
        self.chunks_per_worker = chunks_per_worker
        self.pool_enabled = pool
        self.max_retries = max_retries
        self._pool = None

    # -- pool lifecycle --------------------------------------------------

    def _ensure_pool(self):
        """The scheduler's :class:`WorkerPool` (constructed lazily; no
        processes are spawned until the first pooled run)."""
        if self._pool is None:
            self._pool = WorkerPool(self.jobs, metrics=self.metrics,
                                    max_retries=self.max_retries)
        return self._pool

    def close(self):
        """Shut the worker pool down (idempotent; the scheduler stays
        usable — a later pooled run starts a fresh pool)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    # -- runs ------------------------------------------------------------

    def run(self, simulator, patterns, fault_list=None, restored=None):
        """Pooled equivalent of ``simulator.run(patterns, fault_list)``.

        Returns a :class:`FaultSimResult` bit-identical to the sequential
        call's.  *restored* is a pass-through metrics annotation: the
        number of faults the incremental layer restored from cache
        alongside this (already-compacted) worklist.
        """
        if fault_list is None:
            fault_list = FaultList(simulator.netlist)
        started = time.perf_counter()
        if (self.jobs == 1 or not self.pool_enabled or patterns.count == 0
                or len(fault_list) < self.jobs * self.min_faults_per_shard):
            return self._run_inline(simulator, patterns, fault_list,
                                    started, restored=restored)
        try:
            pool = self._ensure_pool()
            words, firsts, busy, stats = pool.simulate(
                simulator, patterns, fault_list,
                chunk_size=self.chunk_size,
                chunks_per_worker=self.chunks_per_worker)
        except (OSError, PermissionError) as exc:
            # Restricted environments (no fork/semaphores): degrade to the
            # sequential path rather than failing the compaction.
            del exc
            if self.metrics is not None:
                self.metrics.bump("scheduler_inline_fallback")
            return self._run_inline(simulator, patterns, fault_list,
                                    started, restored=restored)
        result = FaultSimResult(fault_list, patterns.count, words, firsts)
        self._record(result, time.perf_counter() - started, jobs=self.jobs,
                     shard_busy=busy, engine=simulator.engine, stats=stats,
                     chunks=len(busy), restored=restored)
        return result

    def _run_inline(self, simulator, patterns, fault_list, started,
                    restored=None):
        before = dict(simulator.stats)
        result = simulator.run(patterns, fault_list)
        self._record(result, time.perf_counter() - started, jobs=1,
                     engine=simulator.engine,
                     stats=_stats_delta(simulator, before),
                     restored=restored)
        return result

    def _record(self, result, seconds, jobs, shard_busy=None, engine=None,
                stats=None, chunks=None, restored=None):
        if self.metrics is None:
            return
        stats = stats or {}
        self.metrics.record_fault_sim(
            faults=len(result.fault_list), patterns=result.pattern_count,
            seconds=seconds, jobs=jobs, shard_busy_seconds=shard_busy,
            engine=engine, chunks=chunks,
            gates_evaluated=stats.get("gates_evaluated"),
            gates_skipped=stats.get("gates_skipped"), restored=restored)


def run_sharded(simulator, patterns, fault_list=None, jobs=None,
                metrics=None, chunk_size=None):
    """One-shot helper: pooled fault simulation without keeping a
    scheduler around (the pool is torn down before returning — campaign
    code should hold a :class:`ShardedFaultScheduler` instead)."""
    with ShardedFaultScheduler(jobs=jobs, metrics=metrics,
                               chunk_size=chunk_size) as scheduler:
        return scheduler.run(simulator, patterns, fault_list)
