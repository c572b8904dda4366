"""Run metrics for compaction executions (the exec subsystem's gauges).

One :class:`RunMetrics` instance accompanies a pipeline run or a whole
campaign and records:

* per-stage wall time (seconds) and entry counts, keyed by the pipeline
  stage names of :data:`repro.core.pipeline.STAGES` plus exec-internal
  stages such as ``"fault_simulation.sharded"``;
* fault-simulation throughput — patterns/s and faults/s per run, plus
  campaign-wide totals;
* artifact-cache hit/miss/put/eviction counts;
* shard utilization — the fraction of the scheduler's wall-clock budget
  (jobs x elapsed) that shards spent simulating, averaged over sharded
  runs (1.0 = perfectly balanced shards with zero pool overhead);
* worker-pool gauges — workers spawned/died, per-worker context and
  pattern priming, chunks dispatched/requeued/inlined, and cumulative
  worker-init seconds.

The document is JSON-serializable (:meth:`RunMetrics.to_dict`), persists
atomically next to the campaign checkpoint (:meth:`RunMetrics.save`, same
write-temp-then-rename discipline), and renders as an aligned summary
table for the CLI (:meth:`RunMetrics.summary_table`).
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from contextlib import contextmanager

#: Bumped whenever the metrics JSON layout changes incompatibly.
FORMAT_VERSION = 5


class RunMetrics:
    """Mutable metrics accumulator shared across pipeline runs.

    Args:
        clock: monotonic time source (injectable for tests).
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stage_seconds = {}
        self.stage_counts = {}
        self.fault_sim_runs = []
        self.cache = {"hits": 0, "misses": 0, "puts": 0, "evictions": 0}
        self.counters = {}
        self.pool = {}
        self.static = {"prune_mode": "off", "faults_pruned_static": 0,
                       "cross_checked": 0}
        self.incremental = {"runs": 0, "records_loaded": 0,
                            "records_missing": 0, "groups_total": 0,
                            "groups_restored": 0, "groups_invalidated": 0,
                            "faults_restored": 0, "faults_resimulated": 0,
                            "strict_checks": 0}

    # -- stage timing ----------------------------------------------------

    @contextmanager
    def stage_timer(self, stage):
        """Accumulate the wall time of one *stage* entry."""
        started = self.clock()
        try:
            yield
        finally:
            elapsed = self.clock() - started
            self.stage_seconds[stage] = (
                self.stage_seconds.get(stage, 0.0) + elapsed)
            self.stage_counts[stage] = self.stage_counts.get(stage, 0) + 1

    # -- fault-simulation throughput ------------------------------------

    def record_fault_sim(self, faults, patterns, seconds, jobs=1,
                         shard_busy_seconds=None, engine=None,
                         gates_evaluated=None, gates_skipped=None,
                         chunks=None, restored=None):
        """Record one fault-simulation run.

        Args:
            faults: number of simulated faults.
            patterns: number of applied patterns.
            seconds: wall time of the run.
            jobs: worker processes used (1 = sequential/inline).
            shard_busy_seconds: per-chunk busy times (pooled runs only);
                utilization = sum(busy) / (jobs * wall).
            engine: propagation engine name (``"event"``/``"cone"``).
            gates_evaluated: gate evaluations spent propagating faults.
            gates_skipped: static-cone gates the engine never touched
                (the event engine's trimmed execution redundancy; 0 for
                the cone walk).
            chunks: streamed chunk count (pooled runs only).
            restored: faults whose detection state was restored from the
                incremental fault-state cache instead of simulated
                (incremental runs only).
        """
        run = {
            "faults": faults,
            "patterns": patterns,
            "seconds": seconds,
            "jobs": jobs,
            "faults_per_second": faults / seconds if seconds > 0 else None,
            "patterns_per_second": (patterns / seconds if seconds > 0
                                    else None),
        }
        if engine is not None:
            run["engine"] = engine
        if gates_evaluated is not None:
            run["gates_evaluated"] = gates_evaluated
        if gates_skipped is not None:
            run["gates_skipped"] = gates_skipped
        if chunks is not None:
            run["chunks"] = chunks
        if restored is not None:
            run["faults_restored"] = restored
        if shard_busy_seconds is not None:
            busy = sum(shard_busy_seconds)
            run["shards"] = len(shard_busy_seconds)
            run["shard_utilization"] = (
                busy / (jobs * seconds) if seconds > 0 and jobs > 0
                else None)
        self.fault_sim_runs.append(run)

    # -- cache counters --------------------------------------------------

    def record_cache_event(self, hit):
        """Count one cache lookup (*hit* truthy: hit, else miss)."""
        self.cache["hits" if hit else "misses"] += 1

    def absorb_cache_stats(self, stats):
        """Overwrite the cache counters with an
        :attr:`~repro.exec.cache.ArtifactCache.stats` snapshot (the cache
        sees every lookup, including ones made outside this metrics
        object's reach)."""
        self.cache = dict(stats)

    def bump(self, counter, amount=1):
        """Increment a free-form named counter."""
        self.counters[counter] = self.counters.get(counter, 0) + amount

    # -- worker-pool gauges ----------------------------------------------

    def record_pool_event(self, event, amount=1):
        """Count one worker-pool event (``workers_spawned``,
        ``chunks_dispatched``, ``chunks_requeued``, ...)."""
        self.pool[event] = self.pool.get(event, 0) + amount

    def record_pool_seconds(self, gauge, seconds):
        """Accumulate a pool time gauge (``worker_init_seconds``)."""
        self.pool[gauge] = self.pool.get(gauge, 0.0) + seconds

    def record_verification(self, errors, warnings):
        """Count one static-verifier run and its diagnostic totals."""
        self.bump("verify.runs")
        self.bump("verify.errors", errors)
        self.bump("verify.warnings", warnings)

    # -- static-testability gauges ----------------------------------------

    def record_static_triage(self, prune_mode, faults_pruned):
        """Record one module's static-testability triage (accumulating —
        a campaign sums the pruned counts over its modules)."""
        self.static["prune_mode"] = prune_mode
        self.static["faults_pruned_static"] += faults_pruned

    def record_cross_check(self, faults):
        """Count faults re-simulated by the strict-mode differential
        cross-check."""
        self.static["cross_checked"] += faults

    # -- incremental fault-state gauges -----------------------------------

    def record_incremental(self, info):
        """Accumulate one incremental fault-sim run's hit/invalidation
        numbers (the *info* dict of
        :meth:`repro.exec.incremental.IncrementalFaultSim.run`)."""
        self.incremental["runs"] += 1
        if info.get("record_hit"):
            self.incremental["records_loaded"] += 1
        else:
            self.incremental["records_missing"] += 1
        for field in ("groups_total", "groups_restored",
                      "groups_invalidated", "faults_restored",
                      "faults_resimulated", "strict_checks"):
            self.incremental[field] += info.get(field, 0)

    # -- aggregates ------------------------------------------------------

    @property
    def total_faults_simulated(self):
        return sum(run["faults"] for run in self.fault_sim_runs)

    @property
    def total_fault_sim_seconds(self):
        return sum(run["seconds"] for run in self.fault_sim_runs)

    def aggregate_rate(self, field):
        """Campaign-wide *field*/s over all fault-sim runs (None if no
        time was measured)."""
        seconds = self.total_fault_sim_seconds
        if seconds <= 0:
            return None
        return sum(run[field] for run in self.fault_sim_runs) / seconds

    def mean_shard_utilization(self):
        values = [run["shard_utilization"] for run in self.fault_sim_runs
                  if run.get("shard_utilization") is not None]
        if not values:
            return None
        return sum(values) / len(values)

    @property
    def total_gates_evaluated(self):
        return sum(run.get("gates_evaluated") or 0
                   for run in self.fault_sim_runs)

    @property
    def total_gates_skipped(self):
        return sum(run.get("gates_skipped") or 0
                   for run in self.fault_sim_runs)

    # -- serialization ---------------------------------------------------

    def to_dict(self):
        return {
            "version": FORMAT_VERSION,
            "stages": {
                stage: {"seconds": self.stage_seconds[stage],
                        "count": self.stage_counts.get(stage, 0)}
                for stage in sorted(self.stage_seconds)
            },
            "fault_sim": {
                "runs": list(self.fault_sim_runs),
                "total_faults": self.total_faults_simulated,
                "total_seconds": self.total_fault_sim_seconds,
                "faults_per_second": self.aggregate_rate("faults"),
                "patterns_per_second": self.aggregate_rate("patterns"),
                "mean_shard_utilization": self.mean_shard_utilization(),
                "total_gates_evaluated": self.total_gates_evaluated,
                "total_gates_skipped": self.total_gates_skipped,
            },
            "cache": dict(self.cache),
            "counters": dict(self.counters),
            "pool": dict(self.pool),
            "static": dict(self.static),
            "incremental": dict(self.incremental),
        }

    def save(self, path):
        """Atomically persist :meth:`to_dict` as JSON at *path*."""
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        fd, temp_path = tempfile.mkstemp(dir=directory, prefix=".metrics-",
                                         suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(self.to_dict(), handle, indent=1, sort_keys=True)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp_path, path)
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise

    # -- rendering -------------------------------------------------------

    def summary_table(self):
        """Aligned text table of the headline numbers (CLI output)."""
        rows = [("stage", "runs", "seconds")]
        for stage in sorted(self.stage_seconds):
            rows.append((stage, str(self.stage_counts.get(stage, 0)),
                         "{:.3f}".format(self.stage_seconds[stage])))
        widths = [max(len(row[i]) for row in rows) for i in range(3)]
        lines = ["RUN METRICS"]
        for i, row in enumerate(rows):
            lines.append("  {}  {}  {}".format(
                row[0].ljust(widths[0]), row[1].rjust(widths[1]),
                row[2].rjust(widths[2])))
            if i == 0:
                lines.append("  " + "-" * (sum(widths) + 4))

        def rate(value):
            return "n/a" if value is None else "{:.1f}".format(value)

        lines.append("  fault sims        : {} run(s), {} fault(s), "
                     "{:.3f}s".format(len(self.fault_sim_runs),
                                      self.total_faults_simulated,
                                      self.total_fault_sim_seconds))
        lines.append("  faults/s          : {}".format(
            rate(self.aggregate_rate("faults"))))
        lines.append("  patterns/s        : {}".format(
            rate(self.aggregate_rate("patterns"))))
        utilization = self.mean_shard_utilization()
        lines.append("  shard utilization : {}".format(
            "n/a (no sharded runs)" if utilization is None
            else "{:.0%}".format(utilization)))
        lines.append("  gates eval/skip   : {} / {}".format(
            self.total_gates_evaluated, self.total_gates_skipped))
        lines.append("  verify            : {} run(s), {} error(s), "
                     "{} warning(s)".format(
                         self.counters.get("verify.runs", 0),
                         self.counters.get("verify.errors", 0),
                         self.counters.get("verify.warnings", 0)))
        lines.append("  static triage     : prune={}, {} fault(s) pruned, "
                     "{} cross-checked"
                     .format(self.static.get("prune_mode", "off"),
                             self.static.get("faults_pruned_static", 0),
                             self.static.get("cross_checked", 0)))
        lines.append("  incremental       : {} run(s), {} record(s) loaded, "
                     "{}/{} group(s) restored, {} fault(s) restored, "
                     "{} re-simulated".format(
                         self.incremental.get("runs", 0),
                         self.incremental.get("records_loaded", 0),
                         self.incremental.get("groups_restored", 0),
                         self.incremental.get("groups_total", 0),
                         self.incremental.get("faults_restored", 0),
                         self.incremental.get("faults_resimulated", 0)))
        lines.append("  cache             : {} hit(s), {} miss(es), "
                     "{} put(s), {} eviction(s), {} corrupt".format(
                         self.cache.get("hits", 0),
                         self.cache.get("misses", 0),
                         self.cache.get("puts", 0),
                         self.cache.get("evictions", 0),
                         self.cache.get("corrupt", 0)))
        lines.append("  worker pool       : {} spawned, {} death(s), "
                     "{} chunk(s), {} requeue(d)".format(
                         self.pool.get("workers_spawned", 0),
                         self.pool.get("worker_deaths", 0),
                         self.pool.get("chunks_dispatched", 0),
                         self.pool.get("chunks_requeued", 0)))
        return "\n".join(lines)
