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
from dataclasses import dataclass
from functools import partial

from ..errors import CompactionError, VerificationError
from ..exec.incremental import IncrementalFaultSim, validate_incremental_mode
from ..exec.scheduler import ShardedFaultScheduler
from ..faults.dropping import FaultListReport
from ..faults.fault_sim import FaultSimulator
from ..gpu.gpu import Gpu
from .fc_eval import evaluate_fc
from .labeling import label_instructions
from .partition import partition_ptp
from .reduction import reduce_ptp
from .tracing import trace_and_pack


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
    #: detected-fault sets of the two stage-5 evaluations (None unless
    #: stage 5 ran); the union over several PTPs is their combined FC
    #: (:func:`~repro.core.fc_eval.combined_fc`).
    original_detected: set | None = None
    compacted_detected: set | None = None
    compaction_seconds: float = 0.0
    fault_simulations: int = 0
    newly_dropped_faults: int = 0

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
        jobs: worker processes for stage-3/5 fault simulation (None:
            ``$REPRO_JOBS`` or sequential; sharded results are
            bit-identical to sequential ones).
        cache: optional :class:`~repro.exec.cache.ArtifactCache`
            memoizing stage-2 tracing artifacts across runs.
        metrics: optional :class:`~repro.exec.metrics.RunMetrics`
            accumulating stage timings and the ``verify``/``static``
            counters (the scheduler and the incremental layer add
            theirs).
        scheduler: optional shared
            :class:`~repro.exec.scheduler.ShardedFaultScheduler` — a
            campaign passes one scheduler to every per-module pipeline;
            without one the pipeline builds its own from *jobs*.
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
        simulator: the :class:`~repro.faults.fault_sim.FaultSimulator` of
            every stage-3 and stage-5 fault simulation (the default event
            engine).  Differential tests replace it with the ``"cone"``
            reference; the runs and the fault-state key read it at every
            :meth:`compact`.
    """

    def __init__(self, module, gpu=None, jobs=None, cache=None,
                 metrics=None, verify="warn", scheduler=None,
                 static_prune="off", incremental="off"):
        if verify not in VERIFY_MODES:
            raise CompactionError(
                "verify must be one of {}, got {!r}".format(
                    "/".join(VERIFY_MODES), verify))
        self.verify = verify
        self.module = module
        self.gpu = gpu or Gpu()
        self.fault_report = FaultListReport(module.netlist,
                                            static_prune=static_prune)
        prune_mode = self.fault_report.static_prune
        if metrics is not None and prune_mode != "off":
            metrics.groups["static"]["prune_mode"] = prune_mode
            metrics.bump("static.faults_pruned_static",
                         self.fault_report.untestable_faults)
        self.simulator = FaultSimulator(module.netlist)
        self.cache = cache
        self.metrics = metrics
        self.incremental = validate_incremental_mode(incremental or "off")
        if self.incremental == "off":
            self._incremental = None
        else:
            self._incremental = IncrementalFaultSim(
                cache, metrics=metrics, mode=self.incremental)
        self.scheduler = scheduler or ShardedFaultScheduler(
            jobs=jobs, metrics=metrics)

    @property
    def jobs(self):
        """Resolved stage-3 worker process count (1 = sequential)."""
        return self.scheduler.jobs

    def _timed(self, stage):
        """Stage-timer context (no-op without a metrics object)."""
        if self.metrics is None:
            return nullcontext()
        return self.metrics.stage_timer(stage)

    def _simulate(self, ptp, patterns, fault_list):
        """The module-observability fault simulation of *ptp*'s
        *patterns*, for stage 3 and stage 5 alike: an incremental restore
        from the (PTP, module, engine) fault-state record (re-simulating
        inline) when the incremental layer is on, else a scheduler run."""
        if self._incremental is None:
            return self.scheduler.run(self.simulator, patterns, fault_list)
        key = self.cache.fault_state_key(ptp.name, self.module,
                                         self.simulator.engine)
        result, __info = self._incremental.run(
            self.simulator, patterns, fault_list, key)
        return result

    def compact(self, ptp, reverse_patterns=False, evaluate=True,
                stage_hook=None):
        """Compact one PTP; returns a :class:`CompactionOutcome`.

        Args:
            ptp: the PTP (must target this pipeline's module).
            reverse_patterns: apply the stage-3 pattern sequence in reverse
                (the paper's SFU_IMM configuration).
            evaluate: run the stage-5 validation fault simulations and fill
                the FC columns (two extra fault simulations, evaluation
                only — the compaction itself still uses ONE).
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

        # Stage 1: partitioning.
        hook("partition")
        with self._timed("partition"):
            partition = partition_ptp(ptp)
        # Stage 2: logic tracing (RTL trace + GL pattern report),
        # memoized by the artifact cache when one is attached, and the
        # pattern set every fault simulation of this PTP reads.
        hook("tracing")
        with self._timed("tracing"):
            traced = trace_and_pack(ptp, self.module, self.gpu, self.cache,
                                    reverse_patterns)
        tracing = traced.tracing
        # Stage 3: ONE optimized fault simulation + labeling, against
        # the module's remaining fault list (pruned and already dropped
        # faults never reach the scheduler).  Sharding happens *after*
        # the drop filter and the merged result feeds the drop below, so
        # cross-PTP dropping survives parallel execution.
        hook("fault_simulation", cycles=tracing.cycles)
        with self._timed("fault_simulation"):
            fault_result = self._simulate(ptp, traced.patterns,
                                          self.fault_report.remaining)
        # Strict mode: re-simulate the statically pruned faults against
        # this PTP's patterns under the differential oracle.  Raises (and
        # aborts before the fault report is mutated) if any proof is
        # contradicted by an actual detection.
        if (self.fault_report.static_prune == "strict"
                and self.fault_report.untestable_faults):
            from ..testability.analysis import cross_check_pruned
            checked = cross_check_pruned(self.module.netlist,
                                         traced.patterns,
                                         list(self.fault_report.untestable))
            if self.metrics is not None:
                self.metrics.bump("static.cross_checked", checked)
        labeled = label_instructions(ptp, tracing.trace, traced.report,
                                     fault_result.detections_per_pattern())
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
                self.metrics.bump("verify.runs")
                self.metrics.bump("verify.errors", len(verification.errors))
                self.metrics.bump("verify.warnings",
                                  len(verification.warnings))
            if self.verify == "strict" and not verification.ok:
                first = verification.errors[0]
                raise VerificationError(
                    "compacted PTP {!r} failed static verification with "
                    "{} error(s), e.g. {}".format(
                        reduction.compacted.name,
                        len(verification.errors), first.render()),
                    report=verification)

        # The next PTP's worklist is the shrunken remaining list, so
        # dropped faults never reach the scheduler again.
        dropped = self.fault_report.drop_result(fault_result, ptp.name)

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
        )

        # Stage 5: reassembly validation (evaluation-only fault sims).
        # The original PTP is evaluated from its stage-2 tracing and
        # pattern set; the compacted PTP is traced (under its own cache
        # key) and packed the same way.
        hook("evaluation")
        with self._timed("evaluation"):
            compacted = trace_and_pack(reduction.compacted, self.module,
                                       self.gpu, self.cache,
                                       reverse_patterns)
            outcome.compacted_cycles = compacted.tracing.cycles
            if evaluate:
                # The report's own FC list: the kept detected sets then
                # hold the faults the report already holds, not a fresh
                # copy per run.
                eval_list = self.fault_report.testable
                original_eval = evaluate_fc(
                    traced, self.simulator, eval_list,
                    simulate=partial(self._simulate, ptp))
                compacted_eval = evaluate_fc(
                    compacted, self.simulator, eval_list,
                    simulate=partial(self._simulate, reduction.compacted))
                outcome.original_fc = original_eval.fc_percent
                outcome.compacted_fc = compacted_eval.fc_percent
                outcome.original_detected = original_eval.detected
                outcome.compacted_detected = compacted_eval.detected
                outcome.fault_simulations += 2
        return outcome
