"""Resilient multi-PTP compaction campaigns.

:class:`CompactionCampaign` wraps a
:class:`~repro.core.pipeline.CompactionPipeline` and drives a whole STL
through it the way :meth:`~CompactionPipeline.compact_stl` does, but a
campaign survives what would abort the plain loop:

* **per-PTP failure isolation** — any :class:`~repro.errors.ReproError`
  raised while compacting one PTP (including watchdog breaches, below)
  is caught and recorded as a structured
  :class:`~repro.errors.PtpFailure`; the original PTP stays in the STL,
  so the STL never loses coverage and the campaign continues;
* a **watchdog** — a wall-clock budget (``ptp_timeout``) checked at
  every pipeline stage boundary, plus a clock-cycle budget
  (``max_trace_cycles``) on the traced kernel duration, both raised as
  :class:`~repro.errors.WatchdogError` subtypes and isolated like any
  other per-PTP failure;
* an **FC-regression guard** — when stage-5 evaluation reports an
  ``fc_diff`` below ``-max_fc_drop`` percentage points, the compaction
  is *rolled back*: the original PTP is retained and the event recorded,
  enforcing the paper's "almost preserves FC" claim as an invariant
  (detected faults stay dropped — they were detected by the original
  PTP's patterns, and the original PTP remains in the STL);
* **checkpoint/resume** — after every PTP the campaign atomically
  persists the per-PTP outcomes plus the module's fault-dropping state;
  a resumed campaign skips completed PTPs, re-applies their compacted
  programs to the STL, and restores the fault list bit-identically,
  preserving the ordering-sensitive MEM-after-IMM / RAND-after-TPGEN
  dropping semantics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..errors import CampaignError, CycleBudgetError, PtpFailure, PtpTimeoutError, ReproError
from ..exec.scheduler import ShardedFaultScheduler
from .pipeline import CompactionPipeline

#: Per-PTP campaign statuses (the summary report's vocabulary).
COMPACTED = "compacted"
ROLLED_BACK = "rolled-back"
FAILED = "failed"
SKIPPED = "skipped"


class Watchdog:
    """Stage-boundary watchdog, usable directly as a pipeline stage hook.

    The pipeline is pure Python, so the watchdog cannot preempt a stage
    mid-flight; it checks the wall-clock budget on entry to every stage
    and the cycle budget as soon as tracing reports the kernel duration.

    Args:
        timeout: wall-clock seconds allowed per PTP (None: unlimited).
        max_trace_cycles: clock-cycle cap on the traced kernel duration
            (None: unlimited) — a PTP whose kernel runs away (e.g. a
            corrupted CNTRL loop bound) breaches this before its fault
            simulation is attempted.
        clock: monotonic time source (injectable for tests).
    """

    def __init__(self, timeout=None, max_trace_cycles=None,
                 clock=time.monotonic):
        self.timeout = timeout
        self.max_trace_cycles = max_trace_cycles
        self.clock = clock
        self.stage = None
        self._deadline = None

    def start(self):
        """Arm the wall-clock budget for one PTP."""
        self.stage = None
        self._deadline = (self.clock() + self.timeout
                          if self.timeout is not None else None)

    def __call__(self, stage, **info):
        self.stage = stage
        if self._deadline is not None and self.clock() > self._deadline:
            raise PtpTimeoutError(
                "PTP compaction exceeded its {}s budget (entering stage "
                "{})".format(self.timeout, stage), stage=stage)
        cycles = info.get("cycles")
        if (self.max_trace_cycles is not None and cycles is not None
                and cycles > self.max_trace_cycles):
            raise CycleBudgetError(
                "traced kernel ran {} cycles, budget is {}".format(
                    cycles, self.max_trace_cycles), stage="tracing")


@dataclass
class PtpRecord:
    """One PTP's campaign outcome (one row of the summary report).

    Attributes:
        name: PTP name.
        status: :data:`COMPACTED`, :data:`ROLLED_BACK`, :data:`FAILED`
            or :data:`SKIPPED` (completed by a previous, resumed run).
        outcome: the :class:`~repro.core.pipeline.CompactionOutcome`
            (None for failed PTPs and for PTPs skipped on resume).
        failure: the :class:`~repro.errors.PtpFailure` (failed only).
        numbers: summary numbers (sizes, cycles, FC, fc_diff) — survives
            checkpointing, unlike the full outcome.
        prior_status: for :data:`SKIPPED` records, the status the PTP
            reached in the interrupted run.
    """

    name: str
    status: str
    outcome: object = None
    failure: PtpFailure | None = None
    numbers: dict = field(default_factory=dict)
    prior_status: str | None = None

    @property
    def kept_original(self):
        """True when the original PTP (not a CPTP) is in the final STL."""
        if self.status == SKIPPED:
            return self.prior_status != COMPACTED
        return self.status != COMPACTED


@dataclass
class CampaignReport:
    """Everything :meth:`CompactionCampaign.run` produced.

    Attributes:
        module_name: the target module the campaign compacted for.
        records: per-PTP :class:`PtpRecord`, in STL order.
        total_faults / remaining_faults / coverage_percent: the module
            fault-report state after the campaign.
    """

    module_name: str
    records: list
    total_faults: int = 0
    remaining_faults: int = 0
    coverage_percent: float = 0.0

    def by_status(self, status):
        return [r for r in self.records if r.status == status]

    @property
    def num_failed(self):
        return len(self.by_status(FAILED))

    @property
    def num_compacted(self):
        return len(self.by_status(COMPACTED))


def _outcome_numbers(outcome):
    numbers = {
        "original_size": outcome.original_size,
        "compacted_size": outcome.compacted_size,
        "original_cycles": outcome.original_cycles,
        "compacted_cycles": outcome.compacted_cycles,
        "original_fc": outcome.original_fc,
        "compacted_fc": outcome.compacted_fc,
        "fc_diff": outcome.fc_diff,
        "compaction_seconds": outcome.compaction_seconds,
        "newly_dropped_faults": outcome.newly_dropped_faults,
    }
    if outcome.verification is not None:
        numbers["verify_errors"] = len(outcome.verification.errors)
        numbers["verify_warnings"] = len(outcome.verification.warnings)
    return numbers


class CompactionCampaign:
    """Resilient campaign driver for one pipeline (one target module).

    Args:
        pipeline: the :class:`CompactionPipeline` to drive.
        max_fc_drop: FC-regression guard threshold in percentage points
            (None disables the guard; ``0.0`` rolls back any FC loss).
            Requires stage-5 evaluation — with ``evaluate=False`` the
            guard has nothing to check and is inert.
        ptp_timeout: per-PTP wall-clock budget in seconds (None: off).
        max_trace_cycles: per-PTP traced-kernel cycle budget (None: off).
        keep_going: continue past failed PTPs (the default); False
            re-raises the first failure as a :class:`CampaignError`
            after recording and checkpointing it.
        checkpoint: optional
            :class:`~repro.core.checkpoint.CampaignCheckpoint` to
            persist progress into (saved after every PTP).
        clock: monotonic time source for the watchdog (test hook).
    """

    def __init__(self, pipeline, max_fc_drop=None, ptp_timeout=None,
                 max_trace_cycles=None, keep_going=True, checkpoint=None,
                 clock=time.monotonic):
        if max_fc_drop is not None and max_fc_drop < 0:
            raise CampaignError(
                "max_fc_drop must be >= 0 percentage points (got {})"
                .format(max_fc_drop))
        self.pipeline = pipeline
        self.max_fc_drop = max_fc_drop
        self.keep_going = keep_going
        self.checkpoint = checkpoint
        self.watchdog = Watchdog(timeout=ptp_timeout,
                                 max_trace_cycles=max_trace_cycles,
                                 clock=clock)

    @property
    def module_name(self):
        return self.pipeline.module.name

    @property
    def metrics(self):
        """The pipeline's :class:`~repro.exec.metrics.RunMetrics`
        accumulator (None when the pipeline runs without metrics)."""
        return self.pipeline.metrics

    # -- resume ----------------------------------------------------------

    def _restore(self):
        """Restore the pipeline's fault-dropping state from the
        checkpoint (no-op when the checkpoint has none for this
        module — e.g. the interrupted run died before this module's
        first PTP)."""
        state = self.checkpoint.module_state(self.module_name)
        if state is not None:
            self.pipeline.fault_report.restore_state(state)

    def _skip(self, stl, ptp):
        """Re-apply one checkpointed PTP; returns its SKIPPED record."""
        entry = self.checkpoint.ptp_entry(ptp.name)
        prior = entry["status"]
        if prior == COMPACTED:
            compacted = self.checkpoint.compacted_ptp(ptp.name)
            if compacted is None:
                raise CampaignError(
                    "checkpoint marks {!r} compacted but holds no "
                    "compacted program".format(ptp.name))
            stl.replace(ptp.name, compacted)
        failure = (PtpFailure.from_dict(entry["failure"])
                   if entry.get("failure") else None)
        return PtpRecord(name=ptp.name, status=SKIPPED,
                         numbers=dict(entry.get("numbers", {})),
                         failure=failure, prior_status=prior)

    # -- one PTP ---------------------------------------------------------

    def _compact_one(self, stl, ptp, reverse_patterns, evaluate):
        self.watchdog.start()
        try:
            outcome = self.pipeline.compact(
                ptp, reverse_patterns=reverse_patterns, evaluate=evaluate,
                stage_hook=self.watchdog)
        except ReproError as exc:
            context = {"module": self.module_name,
                       "ptp_timeout": self.watchdog.timeout,
                       "max_trace_cycles": self.watchdog.max_trace_cycles}
            # A strict verification failure carries its report; persist
            # the diagnostics so the checkpoint explains the rejection.
            report = getattr(exc, "report", None)
            if report is not None:
                context["diagnostics"] = [d.to_dict()
                                          for d in report.diagnostics]
            failure = PtpFailure.from_exception(
                ptp.name, exc, stage=self.watchdog.stage, context=context)
            return PtpRecord(name=ptp.name, status=FAILED, failure=failure)

        numbers = _outcome_numbers(outcome)
        if (self.max_fc_drop is not None and outcome.fc_diff is not None
                and outcome.fc_diff < -self.max_fc_drop):
            return PtpRecord(name=ptp.name, status=ROLLED_BACK,
                             outcome=outcome, numbers=numbers)
        stl.replace(ptp.name, outcome.compacted)
        return PtpRecord(name=ptp.name, status=COMPACTED, outcome=outcome,
                         numbers=numbers)

    def _persist(self, record):
        if self.checkpoint is None:
            return
        compacted = (record.outcome.compacted
                     if record.status == COMPACTED else None)
        # Checkpoint the artifact content keys this PTP touched, plus the
        # fingerprint of the dropping state it left behind — a resumed
        # campaign reuses the artifacts and can verify it restored the
        # exact fault list they were produced under.
        cache_keys = (dict(record.outcome.cache_keys)
                      if record.outcome is not None else {})
        cache_keys["fault_state"] = self.pipeline.fault_report.fingerprint()
        diagnostics = None
        if (record.outcome is not None
                and record.outcome.verification is not None):
            diagnostics = [d.to_dict() for d
                           in record.outcome.verification.diagnostics]
        elif record.failure is not None:
            # A strict-gate rejection has no outcome; its findings
            # travel in the failure context instead.
            diagnostics = record.failure.context.get("diagnostics")
        self.checkpoint.record_ptp(record.name, record.status,
                                   numbers=record.numbers,
                                   failure=record.failure,
                                   compacted=compacted,
                                   cache_keys=cache_keys,
                                   diagnostics=diagnostics)
        self.checkpoint.record_module_state(
            self.module_name, self.pipeline.fault_report.state_dict())
        self.checkpoint.save()

    # -- the campaign ----------------------------------------------------

    def run(self, stl, reverse_for=("SFU_IMM",), evaluate=True,
            resume=False):
        """Compact every PTP of *stl* targeting this module, resiliently.

        Compacted PTPs replace their originals inside *stl* (as
        :meth:`CompactionPipeline.compact_stl` does); rolled-back and
        failed PTPs keep their originals.  Returns a
        :class:`CampaignReport`.

        With *resume* (requires a checkpoint), PTPs already recorded in
        the checkpoint are skipped and their checkpointed results
        re-applied; the fault-dropping state is restored first so the
        remaining PTPs see exactly the fault list an uninterrupted run
        would have shown them.
        """
        if resume:
            if self.checkpoint is None:
                raise CampaignError("resume requires a checkpoint")
            self._restore()
        records = []
        for ptp in list(stl.targeting(self.module_name)):
            if resume and self.checkpoint.has_ptp(ptp.name):
                records.append(self._skip(stl, ptp))
                continue
            record = self._compact_one(stl, ptp,
                                       ptp.name in reverse_for, evaluate)
            records.append(record)
            self._persist(record)
            if record.status == FAILED and not self.keep_going:
                raise CampaignError(
                    "campaign aborted (fail-fast) — {}".format(
                        record.failure.describe()))
        report = self.pipeline.fault_report
        return CampaignReport(
            module_name=self.module_name,
            records=records,
            total_faults=report.total_faults,
            remaining_faults=report.remaining_faults,
            coverage_percent=report.coverage(),
        )


def run_stl_campaign(stl, modules, gpu=None, checkpoint=None, resume=False,
                     reverse_for=("SFU_IMM",), evaluate=True, jobs=None,
                     cache=None, metrics=None,
                     verify="warn", scheduler=None, chunk_size=None,
                     pool=True, static_prune="off", rank=None,
                     incremental="off", **kwargs):
    """Run one campaign per target module of *stl*, sharing a checkpoint.

    Modules are processed in order of first appearance in the STL, each
    through its own fresh :class:`CompactionPipeline`; the shared
    checkpoint keys fault-dropping state by module name, so a kill at
    any PTP boundary resumes every module correctly.  ONE
    :class:`~repro.exec.scheduler.ShardedFaultScheduler` (and therefore
    one persistent worker pool) spans every module and PTP of the
    campaign — workers are spawned once, primed per netlist context, and
    torn down when the last module finishes.

    Args:
        stl: the :class:`~repro.stl.ptp.SelfTestLibrary` (mutated).
        modules: mapping of module name to built
            :class:`HardwareModule` — must cover every PTP target.
        gpu: optional shared GPU model.
        checkpoint / resume: as for :class:`CompactionCampaign`.
        jobs: stage-3/5 fault-simulation worker processes, shared by
            every per-module pipeline (None: ``$REPRO_JOBS`` or 1).
        cache: optional shared
            :class:`~repro.exec.cache.ArtifactCache`.
        metrics: optional shared
            :class:`~repro.exec.metrics.RunMetrics` accumulating over
            the whole multi-module campaign.
        verify: static-verification mode for every per-module pipeline
            (``"strict"``/``"warn"``/``"off"``); a strict failure is
            isolated like any other per-PTP error and the diagnostics
            land in the checkpoint.
        scheduler: optional caller-owned scheduler (the campaign then
            leaves it open on return); without one a campaign-lifetime
            scheduler is built from *jobs*/*chunk_size*/*pool* and closed
            in a ``finally``.
        chunk_size: faults per streamed pool chunk (None: dynamic).
        pool: False disables the worker pool (every run inline).
        static_prune: static-testability pruning mode for every
            per-module pipeline (``"off"``/``"safe"``/``"strict"``; see
            :class:`CompactionPipeline`).
        rank: stage-3 worklist ordering for every per-module pipeline
            (``None``/``"none"``/``"scoap"``).
        incremental: cross-run fault-state restore mode for every
            per-module pipeline (``"off"``/``"on"``/``"strict"``; see
            :class:`CompactionPipeline` and
            :mod:`repro.exec.incremental`).  A re-entered campaign —
            same cache directory, edited STL — then restores detection
            state for every fault whose cone-support pattern values are
            unchanged and re-simulates only the invalidated remainder;
            requires *cache*.
        **kwargs: forwarded to every :class:`CompactionCampaign`.

    Returns:
        List of per-module :class:`CampaignReport`, in campaign order.
    """
    targets = []
    for ptp in stl:
        if ptp.target not in targets:
            targets.append(ptp.target)
    missing = [t for t in targets if t not in modules]
    if missing:
        raise CampaignError("no module build for target(s) {}".format(
            ", ".join(sorted(missing))))
    owns_scheduler = scheduler is None
    if owns_scheduler:
        scheduler = ShardedFaultScheduler(jobs=jobs, metrics=metrics,
                                          chunk_size=chunk_size, pool=pool)
    reports = []
    try:
        for target in targets:
            campaign = CompactionCampaign(
                CompactionPipeline(modules[target], gpu=gpu, jobs=jobs,
                                   cache=cache, metrics=metrics,
                                   verify=verify,
                                   scheduler=scheduler,
                                   static_prune=static_prune, rank=rank,
                                   incremental=incremental),
                checkpoint=checkpoint, **kwargs)
            reports.append(campaign.run(stl, reverse_for=reverse_for,
                                        evaluate=evaluate, resume=resume))
    finally:
        if owns_scheduler:
            scheduler.close()
    return reports
