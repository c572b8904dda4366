"""Parallel execution engine: sharding, artifact caching, run metrics.

The exec subsystem makes compaction campaigns fast without changing what
they compute:

* :mod:`repro.exec.scheduler` — streams stage-3 fault chunks through a
  campaign-lifetime worker pool and merges the results bit-identically
  to the sequential run;
* :mod:`repro.exec.pool` — the persistent worker pool itself: one-shot
  netlist/pattern priming per worker, dynamic chunk sizing, and
  death/poison recovery;
* :mod:`repro.exec.cache` — content-addressed on-disk memoization of
  stage-2 tracing artifacts (SHA-256 keys over PTP content, GPU config,
  module fingerprint, stage name) with atomic writes and an LRU cap;
* :mod:`repro.exec.incremental` — cross-run fault-state restore: cached
  per-(PTP, module, engine) detection records keyed by cone-support
  pattern values, so a re-run after an STL edit only re-simulates the
  faults whose cone inputs actually changed (``--incremental``);
* :mod:`repro.exec.metrics` — per-stage wall time, fault-sim throughput,
  cache hit/miss counters, and shard utilization, persisted as JSON next
  to the campaign checkpoint and rendered as the CLI's summary table.
"""

from .cache import ArtifactCache, cached_logic_tracing, default_cache_dir, module_fingerprint
from .incremental import (
    INCREMENTAL_MODES,
    IncrementalFaultSim,
    fault_site_key,
    validate_incremental_mode,
)
from .metrics import RunMetrics
from .pool import WorkerPool
from .scheduler import JOBS_ENV, ShardedFaultScheduler, resolve_jobs, run_sharded, shard_bounds

__all__ = [
    "ArtifactCache",
    "cached_logic_tracing",
    "default_cache_dir",
    "module_fingerprint",
    "INCREMENTAL_MODES",
    "IncrementalFaultSim",
    "fault_site_key",
    "validate_incremental_mode",
    "RunMetrics",
    "WorkerPool",
    "JOBS_ENV",
    "ShardedFaultScheduler",
    "resolve_jobs",
    "run_sharded",
    "shard_bounds",
]
