"""Run metrics for compaction executions (the exec subsystem's gauges).

One :class:`RunMetrics` instance accompanies a pipeline run or a whole
campaign.  It is a store with two primitives and no component knowledge:

* :meth:`RunMetrics.stage_timer` — per-stage wall time (seconds) and
  entry counts, keyed by the pipeline stage names of
  :data:`repro.core.pipeline.STAGES`;
* :meth:`RunMetrics.bump` — a counter ``"group.name"`` filed under its
  group.  Each component names its own counters: the scheduler writes
  ``fault_sim.*`` (sums over runs: faults, patterns, seconds, gates,
  chunks, busy seconds, and jobs x wall seconds of pooled runs) and
  its workers' events ``pool.*``, the pipeline ``verify.*`` and
  ``static.*``, the incremental layer ``incremental.*``.  The artifact cache counts in
  its own :attr:`~repro.exec.cache.ArtifactCache.stats`, copied in once
  by :meth:`RunMetrics.absorb_cache_stats`.

The document is JSON-serializable (:meth:`RunMetrics.to_dict`), persists
atomically next to the campaign checkpoint (:meth:`RunMetrics.save`, same
write-temp-then-rename discipline), and renders as an aligned summary
table for the CLI (:meth:`RunMetrics.summary_table`), which derives the
fault-sim rates and shard utilization from the ``fault_sim`` sums.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager

from .cache import write_atomic

#: Bumped whenever the metrics JSON layout changes incompatibly.
FORMAT_VERSION = 6

#: Groups and keys every document carries, counted or not: CI steps and
#: benchmark scripts index them without a default.
_LAYOUT = {
    "cache": dict.fromkeys(("hits", "misses", "puts", "evictions"), 0),
    "pool": {},
    "static": {"prune_mode": "off", "faults_pruned_static": 0,
               "cross_checked": 0},
    "incremental": dict.fromkeys(
        ("runs", "records_loaded", "records_missing", "groups_total",
         "groups_restored", "groups_invalidated", "faults_restored",
         "faults_resimulated", "strict_checks"), 0),
}


class RunMetrics:
    """Mutable metrics store shared across pipeline runs.

    Args:
        clock: monotonic time source (injectable for tests).

    Attributes:
        groups: group name -> :class:`collections.Counter` of its
            counters (a missing counter reads 0).
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stage_seconds = {}
        self.stage_counts = {}
        self.groups = {group: Counter(keys)
                       for group, keys in _LAYOUT.items()}

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

    def bump(self, counter, amount=1):
        """Add *amount* to ``"group.name"`` *counter* (an amount of 0
        still makes the counter appear in the document)."""
        group, __, name = counter.partition(".")
        self.groups.setdefault(group, Counter())[name] += amount

    def absorb_cache_stats(self, stats):
        """Overwrite the ``cache`` group with an
        :attr:`~repro.exec.cache.ArtifactCache.stats` snapshot."""
        self.groups["cache"] = Counter(stats)

    @property
    def pool(self):
        return self.groups["pool"]

    @property
    def incremental(self):
        return self.groups["incremental"]

    # -- serialization ---------------------------------------------------

    def to_dict(self):
        document = {group: dict(counts)
                    for group, counts in self.groups.items()}
        document["version"] = FORMAT_VERSION
        document["stages"] = {
            stage: {"seconds": self.stage_seconds[stage],
                    "count": self.stage_counts.get(stage, 0)}
            for stage in sorted(self.stage_seconds)
        }
        return document

    def save(self, path):
        """Atomically persist :meth:`to_dict` as JSON at *path*."""
        write_atomic(path,
                     json.dumps(self.to_dict(), indent=1, sort_keys=True),
                     fsync=True)

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

        def ratio(part, whole, form):
            return "n/a" if whole <= 0 else form.format(part / whole)

        sim = self.groups.get("fault_sim", Counter())
        verify = self.groups.get("verify", Counter())
        static, cache = self.groups["static"], self.groups["cache"]
        inc, pool = self.incremental, self.pool
        lines += [
            "  fault sims        : {} run(s), {} fault(s), {:.3f}s".format(
                sim["runs"], sim["faults"], sim["seconds"]),
            "  faults/s          : " + ratio(sim["faults"], sim["seconds"],
                                             "{:.1f}"),
            "  patterns/s        : " + ratio(sim["patterns"], sim["seconds"],
                                             "{:.1f}"),
            "  shard utilization : " + (
                "n/a (no sharded runs)" if sim["pooled_job_seconds"] <= 0
                else "{:.0%}".format(sim["busy_seconds"]
                                     / sim["pooled_job_seconds"])),
            "  gates eval/skip   : {} / {}".format(
                sim["gates_evaluated"], sim["gates_skipped"]),
            "  verify            : {} run(s), {} error(s), {} warning(s)"
            .format(verify["runs"], verify["errors"], verify["warnings"]),
            "  static triage     : prune={}, {} fault(s) pruned, "
            "{} cross-checked".format(static["prune_mode"],
                                      static["faults_pruned_static"],
                                      static["cross_checked"]),
            "  incremental       : {} run(s), {} record(s) loaded, "
            "{}/{} group(s) restored, {} fault(s) restored, "
            "{} re-simulated".format(
                inc["runs"], inc["records_loaded"], inc["groups_restored"],
                inc["groups_total"], inc["faults_restored"],
                inc["faults_resimulated"]),
            "  cache             : {} hit(s), {} miss(es), {} put(s), "
            "{} eviction(s), {} corrupt".format(
                cache["hits"], cache["misses"], cache["puts"],
                cache["evictions"], cache["corrupt"]),
            "  worker pool       : {} spawned, {} death(s), {} chunk(s), "
            "{} requeue(d)".format(
                pool["workers_spawned"], pool["worker_deaths"],
                pool["chunks_dispatched"], pool["chunks_requeued"]),
        ]
        return "\n".join(lines)
