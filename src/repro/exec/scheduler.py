"""Sharded stage-3 fault simulation over a persistent worker pool.

Gate-level stuck-at fault simulation is embarrassingly parallel across
faults: each fault's first detection depends only on the (shared) good-
machine values and its own fanout cone.  The scheduler exploits this by
cutting a module's fault list into contiguous chunks, streaming them
through a campaign-lifetime :class:`~repro.exec.pool.WorkerPool`, and
merging the per-chunk first detections back in fault-list order — so the
merged :class:`~repro.faults.fault_sim.FaultSimResult` is
**bit-identical** to the sequential run (same ``first_detection``, same
fault order).

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
execution and counts it as ``fault_sim.inline_fallback``.

Every run adds to the ``fault_sim`` counter group of the scheduler's
:class:`~repro.exec.metrics.RunMetrics`: ``runs``, ``faults``,
``patterns``, ``seconds``, ``gates_evaluated`` and ``gates_skipped``;
pooled runs also add ``chunks``, the chunks' ``busy_seconds`` and
``pooled_job_seconds`` (jobs x wall seconds), whose ratio is the shard
utilization.
"""

from __future__ import annotations

import os
import time

from ..errors import SchedulerError
from ..faults.fault import FaultList
from ..faults.fault_sim import FaultSimResult
from .pool import WorkerPool, _stats_delta

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

    Pooled runs are cut into chunks by the pool's dynamic sizing (see
    :meth:`~repro.exec.pool.WorkerPool.simulate`).
    """

    def __init__(self, jobs=None, min_faults_per_shard=32, metrics=None):
        self.jobs = resolve_jobs(jobs)
        self.min_faults_per_shard = min_faults_per_shard
        self.metrics = metrics
        self._pool = None

    # -- pool lifecycle --------------------------------------------------

    def _ensure_pool(self):
        """The scheduler's :class:`WorkerPool` (constructed lazily; no
        processes are spawned until the first pooled run)."""
        if self._pool is None:
            self._pool = WorkerPool(self.jobs, metrics=self.metrics)
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

    def run(self, simulator, patterns, fault_list=None):
        """Pooled equivalent of ``simulator.run(patterns, fault_list)``.

        Returns a :class:`FaultSimResult` bit-identical to the sequential
        call's.
        """
        if fault_list is None:
            fault_list = FaultList(simulator.netlist)
        started = time.perf_counter()
        pooled = None
        if (self.jobs > 1 and patterns.count
                and len(fault_list) >= self.jobs * self.min_faults_per_shard):
            try:
                pooled = self._ensure_pool().simulate(simulator, patterns,
                                                      fault_list)
            except (OSError, PermissionError):
                # Restricted environments (no fork/semaphores): degrade to
                # the sequential path rather than failing the compaction.
                if self.metrics is not None:
                    self.metrics.bump("fault_sim.inline_fallback")
        if pooled is None:
            before = dict(simulator.stats)
            result = simulator.run(patterns, fault_list)
            stats = _stats_delta(simulator, before)
        else:
            firsts, busy, stats = pooled
            result = FaultSimResult(fault_list, patterns.count, firsts)
        seconds = time.perf_counter() - started
        counts = {"runs": 1, "faults": len(fault_list),
                  "patterns": patterns.count, "seconds": seconds,
                  "gates_evaluated": stats.get("gates_evaluated", 0),
                  "gates_skipped": stats.get("gates_skipped", 0)}
        if pooled is not None:
            counts.update(chunks=len(busy), busy_seconds=sum(busy),
                          pooled_job_seconds=self.jobs * seconds)
        if self.metrics is not None:
            for name, amount in counts.items():
                self.metrics.bump("fault_sim." + name, amount)
        return result
