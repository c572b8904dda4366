"""Parallel execution engine: sharding, artifact caching, run metrics.

The exec subsystem makes compaction campaigns fast without changing what
they compute:

* :mod:`repro.exec.scheduler` — streams stage-3 fault slices through
  worker processes forked for each run (they inherit the simulator,
  its good values and the fault list), recovers from worker deaths and
  failing slices, and merges the results bit-identically to the
  sequential run;
* :mod:`repro.exec.cache` — content-addressed on-disk memoization of
  stage-2 tracing artifacts (SHA-256 keys over PTP content, GPU config,
  module fingerprint, stage name) with atomic writes and an LRU cap;
* :mod:`repro.exec.incremental` — cross-run fault-state restore: cached
  per-(PTP, module, engine) detection records keyed by cone-support
  pattern values, so a re-run after an STL edit only re-simulates the
  faults whose cone inputs actually changed (``--incremental``);
* :mod:`repro.exec.metrics` — a component-agnostic store: per-stage
  wall time plus grouped counters that each component names itself
  (``fault_sim.*``, ``pool.*``, ``incremental.*``, ...), persisted as
  JSON next to the campaign checkpoint and rendered as the CLI's
  summary table.
"""

from .cache import ArtifactCache, cached_logic_tracing, default_cache_dir, module_fingerprint
from .incremental import (
    INCREMENTAL_MODES,
    IncrementalFaultSim,
    fault_site_key,
    validate_incremental_mode,
)
from .metrics import RunMetrics
from .scheduler import JOBS_ENV, ShardedFaultScheduler, resolve_jobs

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
    "JOBS_ENV",
    "ShardedFaultScheduler",
    "resolve_jobs",
]
