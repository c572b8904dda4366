"""The five-stage compaction pipeline (Fig. 1 of the paper).

:class:`CompactionPipeline` owns one target module and its persistent
fault-list report; :meth:`CompactionPipeline.compact` drives one PTP
through:

1. PTP partitioning (ARC identification);
2. logic tracing (tracing report + VCDE pattern report);
3. ONE optimized fault simulation + instruction labeling;
4. PTP reduction (SB removal, data relocation);
5. reassembly support (final FC evaluation of original vs compacted PTP).

Fault dropping is applied across PTPs targeting the same module: the
detected faults of each compacted PTP are removed from the module's fault
list before the next PTP's fault simulation (this ordering sensitivity is
the paper's MEM-after-IMM and RAND-after-TPGEN effect).
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from ..errors import CompactionError, VerificationError
from ..exec.cache import cached_logic_tracing
from ..exec.incremental import IncrementalFaultSim, validate_incremental_mode
from ..exec.scheduler import ShardedFaultScheduler
from ..faults.dropping import FaultListReport
from ..faults.fault import FaultList
from ..faults.fault_sim import FaultSimulator
from ..gpu.gpu import Gpu
from .fc_eval import evaluate_fc
from .labeling import label_instructions
from .partition import partition_ptp
from .reduction import reduce_ptp


#: Pipeline stage names, in execution order.  ``stage_hook`` callbacks and
#: :class:`~repro.errors.PtpFailure.stage` use these exact strings.
#: ``verify`` is the static-verification gate between reduction and the
#: stage-5 evaluation (skipped when the pipeline runs with
#: ``verify="off"``).
STAGES = ("partition", "tracing", "fault_simulation", "reduction",
          "verify", "evaluation")

#: Accepted values of the pipeline's ``verify`` mode.
VERIFY_MODES = ("strict", "warn", "off")


@dataclass
class CompactionOutcome:
    """Everything produced by compacting one PTP.

    Size/duration/FC fields mirror the columns of Tables II and III.
    """

    ptp: object                     # original PTP
    compacted: object               # the CPTP
    partition: object = None
    labeled: object = None
    reduction: object = None
    tracing: object = None
    fault_result: object = None
    #: the static verifier's :class:`~repro.verify.VerificationReport`
    #: over the (original, compacted) pair (None with ``verify="off"``).
    verification: object = None

    original_size: int = 0
    compacted_size: int = 0
    original_cycles: int = 0
    compacted_cycles: int = 0
    original_fc: float | None = None
    compacted_fc: float | None = None
    compaction_seconds: float = 0.0
    fault_simulations: int = 0
    newly_dropped_faults: int = 0
    #: artifact-cache keys touched by this compaction (name -> SHA-256),
    #: e.g. ``{"tracing": ..., "evaluation_compacted": ...}``; campaign
    #: checkpoints persist them so resumed runs reuse the artifacts.
    cache_keys: dict = field(default_factory=dict)

    @property
    def size_reduction_percent(self):
        """Size change in percent of the original size (Table II/III
        column 3).  Sign convention: negative means the CPTP is *smaller*
        (a -73% value reads "73% fewer instructions"); 0.0 means no
        change.  Positive values cannot be produced by the pipeline."""
        if self.original_size == 0:
            return 0.0
        return -100.0 * (self.original_size - self.compacted_size) / (
            self.original_size)

    @property
    def duration_reduction_percent(self):
        """Duration change in percent of the original clock-cycle count.
        Same sign convention as :attr:`size_reduction_percent`: negative
        means the CPTP runs *shorter*."""
        if self.original_cycles == 0:
            return 0.0
        return -100.0 * (self.original_cycles - self.compacted_cycles) / (
            self.original_cycles)

    @property
    def fc_diff(self):
        """Compacted minus original FC, in percentage points (negative
        means the compaction *lost* coverage); None unless stage 5 ran."""
        if self.original_fc is None or self.compacted_fc is None:
            return None
        return self.compacted_fc - self.original_fc


class CompactionPipeline:
    """Compaction tool for PTPs targeting one GPU module.

    Args:
        module: the target :class:`HardwareModule`.
        gpu: optional shared GPU model.
        collapse: build the collapsed module fault list (the default).
        jobs: worker processes for stage-3/5 fault simulation (None:
            ``$REPRO_JOBS`` or sequential; sharded results are
            bit-identical to sequential ones).
        cache: optional :class:`~repro.exec.cache.ArtifactCache`
            memoizing stage-2 tracing artifacts across runs.
        metrics: optional :class:`~repro.exec.metrics.RunMetrics`
            accumulating stage timings, throughput, and cache counters.
        scheduler: optional shared
            :class:`~repro.exec.scheduler.ShardedFaultScheduler` — a
            campaign passes one scheduler to every per-module pipeline so
            the worker pool (and its primed netlist/pattern state)
            persists across modules and PTPs.  The caller that built the
            scheduler owns its lifetime; without one the pipeline builds
            its own from *jobs*/*chunk_size*/*pool* and :meth:`close`
            shuts it down.
        chunk_size: faults per streamed pool chunk (None: dynamic);
            ignored when *scheduler* is given.
        pool: False forces every fault simulation inline (the CLI's
            ``--no-pool``); ignored when *scheduler* is given.
        verify: static-verification gate on the reduced PTP, run between
            stage 4 and stage 5 (:func:`repro.verify.verify_compaction`):
            ``"warn"`` (default) records the diagnostics on the outcome,
            ``"strict"`` additionally raises
            :class:`~repro.errors.VerificationError` on error-severity
            diagnostics *before* the fault report is mutated, ``"off"``
            skips verification entirely.
        static_prune: static-testability pruning mode
            (:data:`repro.testability.analysis.PRUNE_MODES`).  ``"safe"``
            moves the provably-untestable faults into the report's
            untestable bucket before any simulation — they skip stage-3
            chunking entirely and leave the FC denominator; ``"strict"``
            additionally re-simulates every pruned fault per PTP under
            the differential oracle and raises
            :class:`~repro.errors.TestabilityError` if one is detected.
            ``"off"`` (default) is the seed behavior, bit for bit.
        rank: stage-3 worklist ordering
            (:data:`repro.testability.analysis.RANK_MODES`); ``"scoap"``
            simulates easiest-to-detect faults first so fault dropping
            fires earlier.  A pure permutation: every detected set is
            unchanged.
        incremental: cross-run fault-state restore mode
            (:data:`repro.exec.incremental.INCREMENTAL_MODES`).  ``"on"``
            stores a per-(PTP, module, engine) fault-state record in the
            artifact cache after every module-observability fault
            simulation and, on the next run, restores detection state
            verbatim for faults whose cone-support pattern values are
            unchanged, re-simulating only the invalidated remainder;
            ``"strict"`` additionally re-simulates everything and raises
            :class:`~repro.errors.IncrementalError` unless the restored
            result is bit-identical (the soundness oracle).  Requires a
            *cache*; ``"off"`` (default) is the seed behavior.

    Attributes:
        simulator: the stage-3 :class:`~repro.faults.fault_sim.FaultSimulator`
            (the default event engine).  Differential tests replace it
            with the ``"cone"`` reference; stage-3 runs and the
            fault-state key read it at every :meth:`compact`.
    """

    def __init__(self, module, gpu=None, collapse=True, jobs=None,
                 cache=None, metrics=None, verify="warn",
                 scheduler=None, chunk_size=None, pool=True,
                 static_prune="off", rank=None, incremental="off"):
        if verify not in VERIFY_MODES:
            raise CompactionError(
                "verify must be one of {}, got {!r}".format(
                    "/".join(VERIFY_MODES), verify))
        self.verify = verify
        self.module = module
        self.gpu = gpu or Gpu()
        if static_prune in (None, "off") and rank in (None, "none"):
            self.static_prune, self.rank = "off", "none"
            self._analysis = None
        else:
            from ..testability.analysis import (
                TestabilityAnalysis,
                validate_prune_mode,
                validate_rank_mode,
            )
            self.static_prune = validate_prune_mode(static_prune)
            self.rank = validate_rank_mode(rank)
            self._analysis = TestabilityAnalysis(module.netlist)
        self.fault_report = FaultListReport(module.netlist,
                                            collapse=collapse,
                                            static_prune=self.static_prune)
        if metrics is not None and (self.static_prune != "off"
                                    or self.rank != "none"):
            dominance = self._analysis.dominance(self.fault_report.full_list)
            metrics.record_static_triage(
                self.static_prune, self.rank,
                self.fault_report.untestable_faults, dominance.num_classes)
        self.simulator = FaultSimulator(module.netlist)
        self.cache = cache
        self.metrics = metrics
        self.incremental = validate_incremental_mode(incremental or "off")
        if self.incremental == "off":
            self._incremental = None
        else:
            self._incremental = IncrementalFaultSim(
                cache, metrics=metrics, mode=self.incremental)
        if scheduler is not None:
            self.scheduler = scheduler
            self._owns_scheduler = False
        else:
            self.scheduler = ShardedFaultScheduler(
                jobs=jobs, metrics=metrics, chunk_size=chunk_size,
                pool=pool)
            self._owns_scheduler = True
        self.outcomes = []
        self._eval_list = None

    def _worklist(self, dropping):
        """The stage-3 target fault list: the remaining list under
        dropping (already minus the untestable bucket), the testable list
        otherwise — pruned faults never reach the scheduler's chunking in
        any mode.  ``rank="scoap"`` reorders the list (a permutation, so
        detection sets are invariant)."""
        if dropping:
            target = self.fault_report.remaining
        else:
            target = self.evaluation_fault_list
        if self.rank == "scoap":
            target = FaultList(self.module.netlist,
                               self._analysis.rank(list(target)))
        return target

    @property
    def evaluation_fault_list(self):
        """The FC fault list: the full collapsed list under
        ``static_prune="off"`` (seed accounting), the testable list
        otherwise (proven-untestable faults leave the denominator)."""
        if self.static_prune == "off":
            return self.fault_report.full_list
        if self._eval_list is None:
            pruned = frozenset(self.fault_report.untestable)
            self._eval_list = FaultList(
                self.module.netlist,
                [f for f in self.fault_report.full_list
                 if f not in pruned])
        return self._eval_list

    @property
    def jobs(self):
        """Resolved stage-3 worker process count (1 = sequential)."""
        return self.scheduler.jobs

    def close(self):
        """Shut down the pipeline's worker pool.  No-op when the
        scheduler was passed in (the owner closes it)."""
        if self._owns_scheduler:
            self.scheduler.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def _timed(self, stage):
        """Stage-timer context (no-op without a metrics object)."""
        if self.metrics is None:
            return nullcontext()
        return self.metrics.stage_timer(stage)

    def compact(self, ptp, reverse_patterns=False, evaluate=True,
                dropping=True, stage_hook=None):
        """Compact one PTP; returns a :class:`CompactionOutcome`.

        Args:
            ptp: the PTP (must target this pipeline's module).
            reverse_patterns: apply the stage-3 pattern sequence in reverse
                (the paper's SFU_IMM configuration).
            evaluate: run the stage-5 validation fault simulations and fill
                the FC columns (two extra fault simulations, evaluation
                only — the compaction itself still uses ONE).
            dropping: label against the module's *remaining* fault list and
                update it afterwards (the paper's configuration); False
                uses the full list and leaves the report untouched.
            stage_hook: optional ``hook(stage, **info)`` called on entry to
                each stage of :data:`STAGES`; after tracing completes the
                ``fault_simulation`` call carries ``cycles=<kernel ccs>``.
                Campaign watchdogs hook in here; an exception raised from
                a stage-1..4 or verify hook aborts the compaction before
                the fault report is mutated (drops land between the
                verification gate and evaluation, and detected faults
                stay covered by the original PTP either way).  A strict
                verification failure aborts at the same point.
        """
        if ptp.target != self.module.name:
            raise CompactionError("PTP {!r} targets {!r}, pipeline is for "
                                  "{!r}".format(ptp.name, ptp.target,
                                                self.module.name))
        hook = stage_hook or (lambda stage, **info: None)
        started = time.perf_counter()

        cache_keys = {}
        # Stage 1: partitioning.
        hook("partition")
        with self._timed("partition"):
            partition = partition_ptp(ptp)
        # Stage 2: logic tracing (RTL trace + GL pattern report),
        # memoized by the artifact cache when one is attached.
        hook("tracing")
        with self._timed("tracing"):
            tracing, key, __ = cached_logic_tracing(
                ptp, self.module, self.gpu, self.cache, self.metrics)
            if key is not None:
                cache_keys["tracing"] = key
        report = tracing.pattern_report
        if reverse_patterns:
            report = report.reversed()
        patterns = report.to_pattern_set()
        # Stage 3: ONE optimized fault simulation + labeling.  Sharding
        # happens *after* the drop filter (the scheduler sees the already
        # filtered target list) and the merged result feeds the drop
        # below, so cross-PTP dropping survives parallel execution.
        hook("fault_simulation", cycles=tracing.cycles)
        target_list = self._worklist(dropping)
        with self._timed("fault_simulation"):
            if self._incremental is not None:
                state_key = self.cache.fault_state_key(
                    ptp.name, self.module, self.simulator.engine)
                cache_keys["fault_state_record"] = state_key
                fault_result, __info = self._incremental.run(
                    self.scheduler, self.simulator, patterns, target_list,
                    state_key)
            else:
                fault_result = self.scheduler.run(self.simulator, patterns,
                                                  target_list)
        # Strict mode: re-simulate the statically pruned faults against
        # this PTP's patterns under the differential oracle.  Raises (and
        # aborts before the fault report is mutated) if any proof is
        # contradicted by an actual detection.
        if (self.static_prune == "strict"
                and self.fault_report.untestable_faults):
            from ..testability.analysis import cross_check_pruned
            checked = cross_check_pruned(self.module.netlist, patterns,
                                         list(self.fault_report.untestable))
            if self.metrics is not None:
                self.metrics.record_cross_check(checked)
        labeled = label_instructions(ptp, tracing.trace, report,
                                     fault_result)
        # Stage 4: reduction.
        hook("reduction")
        with self._timed("reduction"):
            reduction = reduce_ptp(labeled, partition)
        compaction_seconds = time.perf_counter() - started

        # Static verification gate: prove the reduced PTP structurally
        # sound and the stage-4 invariants intact BEFORE the fault report
        # is mutated — a strict failure aborts with no side effects, like
        # a stage-1..4 hook exception.
        verification = None
        if self.verify != "off":
            hook("verify")
            with self._timed("verify"):
                # Imported lazily: repro.verify pulls in repro.core
                # submodules at import time, so a module-level import
                # here would be circular on first import of the verify
                # package.
                from ..verify import verify_compaction

                verification = verify_compaction(
                    ptp, reduction.compacted, pc_map=reduction.pc_map,
                    partition=partition)
            if self.metrics is not None:
                self.metrics.record_verification(
                    len(verification.errors), len(verification.warnings))
            if self.verify == "strict" and not verification.ok:
                first = verification.errors[0]
                raise VerificationError(
                    "compacted PTP {!r} failed static verification with "
                    "{} error(s), e.g. {}".format(
                        reduction.compacted.name,
                        len(verification.errors), first.render()),
                    report=verification)

        if dropping:
            # The next PTP's worklist is the shrunken remaining list, so
            # dropped faults never reach the scheduler again.
            dropped = self.fault_report.drop_result(fault_result, ptp.name)
        else:
            dropped = 0

        outcome = CompactionOutcome(
            ptp=ptp, compacted=reduction.compacted, partition=partition,
            labeled=labeled, reduction=reduction, tracing=tracing,
            fault_result=fault_result, verification=verification,
            original_size=ptp.size,
            compacted_size=reduction.compacted.size,
            original_cycles=tracing.cycles,
            compaction_seconds=compaction_seconds,
            fault_simulations=1,
            newly_dropped_faults=dropped,
            cache_keys=cache_keys,
        )

        # Stage 5: reassembly validation (evaluation-only fault sims).
        # The original PTP's tracing hits the stage-2 cache entry; the
        # compacted PTP gets its own content key.
        hook("evaluation")
        with self._timed("evaluation"):
            if evaluate:
                # Under static pruning the FC denominator is the testable
                # list; under "off" evaluate_fc keeps building its own
                # full list (the seed accounting, bit for bit).
                eval_list = (self.evaluation_fault_list
                             if self.static_prune != "off" else None)
                original_eval = evaluate_fc(
                    ptp, self.module, fault_list=eval_list, gpu=self.gpu,
                    reverse_patterns=reverse_patterns, cache=self.cache,
                    scheduler=self.scheduler, metrics=self.metrics,
                    incremental=self._incremental)
                compacted_eval = evaluate_fc(
                    reduction.compacted, self.module, fault_list=eval_list,
                    gpu=self.gpu,
                    reverse_patterns=reverse_patterns, cache=self.cache,
                    scheduler=self.scheduler, metrics=self.metrics,
                    incremental=self._incremental)
                if original_eval.cache_key is not None:
                    cache_keys["evaluation_original"] = (
                        original_eval.cache_key)
                if compacted_eval.cache_key is not None:
                    cache_keys["evaluation_compacted"] = (
                        compacted_eval.cache_key)
                outcome.original_fc = original_eval.fc_percent
                outcome.compacted_fc = compacted_eval.fc_percent
                outcome.original_cycles = original_eval.cycles
                outcome.compacted_cycles = compacted_eval.cycles
                outcome.fault_simulations += 2
            else:
                compacted_tracing, key, __ = cached_logic_tracing(
                    reduction.compacted, self.module, self.gpu, self.cache,
                    self.metrics)
                if key is not None:
                    cache_keys["evaluation_compacted"] = key
                outcome.compacted_cycles = compacted_tracing.cycles

        self.outcomes.append(outcome)
        return outcome

    def compact_stl(self, stl, reverse_for=("SFU_IMM",), evaluate=True):
        """Compact every PTP of *stl* that targets this module, in STL
        order (fault dropping carries across them); returns the outcomes
        and replaces the PTPs inside *stl* with their compacted versions."""
        outcomes = []
        for ptp in list(stl.targeting(self.module.name)):
            outcome = self.compact(ptp,
                                   reverse_patterns=ptp.name in reverse_for,
                                   evaluate=evaluate)
            stl.replace(ptp.name, outcome.compacted)
            outcomes.append(outcome)
        return outcomes
