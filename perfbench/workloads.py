"""The campaign benchmark's workloads, their timed passes and output checks.

Every workload runs at ``ExperimentScale`` DEFAULT with only the seed
changed, through public entry points: the ``repro.stl.generators``
functions and ``repro.core.campaign.run_stl_campaign``.  One *rep* is:

* a cold pass: generate the workload's PTPs and compact them (stages 1-5
  with FC evaluation) into a fresh, empty artifact cache;
* a warm pass against the cache the cold pass filled (see each workload).
  Every workload reports every end-to-end metric of ``BENCHMARK.json``,
  ``warm_s`` included, so ``sp_signature`` and ``sfu_pool`` have a warm
  pass too: a cheap one, stages 1-4 only.

``jobs`` and the cache are passed explicitly, so ``REPRO_JOBS`` and
``REPRO_CACHE_DIR`` cannot change a run.  Each campaign gets a fresh
scheduler, as ``run_stl_campaign`` makes by default; the benchmark builds
it so that it can read the pool workers' peak resident set before they
shut down.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import random
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.analysis.experiments import ExperimentScale
from repro.core.campaign import FAILED, run_stl_campaign
from repro.exec.cache import ArtifactCache
from repro.exec.metrics import RunMetrics
from repro.exec.scheduler import ShardedFaultScheduler
from repro.isa.instruction import Program
from repro.isa.opcodes import Fmt
from repro.netlist.modules import build_decoder_unit, build_sfu, build_sp_core
from repro.stl import generators
from repro.stl.ptp import SelfTestLibrary

@dataclass
class PassResult:
    """What the output checks need from one campaign pass.

    The campaign's full outcomes are dropped, so the next pass runs on a
    heap the size a fresh campaign would see.
    """

    #: PTP name -> the record's numbers without the wall-clock
    #: ``compaction_seconds`` (empty for a FAILED record).
    numbers: dict
    #: PTP name -> why the compaction failed (FAILED, verification errors).
    problems: dict
    #: module name -> (fault-report coverage percent, remaining faults).
    coverage: dict

    @classmethod
    def of(cls, reports):
        numbers, problems = {}, {}
        for report in reports:
            for record in report.records:
                numbers[record.name] = {
                    key: value for key, value in record.numbers.items()
                    if key != "compaction_seconds"}
                if record.status == FAILED:
                    problems[record.name] = record.failure.describe()
                elif not record.outcome.verification.ok:
                    problems[record.name] = "verification errors"
        return cls(numbers, problems,
                   {report.module_name: (report.coverage_percent,
                                         report.remaining_faults)
                    for report in reports})


@dataclass
class Rep:
    """What one rep of a workload measured and found."""

    cold_s: float
    warm_s: float
    peak_rss_mb: float
    originals: list
    cold: PassResult
    warm: PassResult
    attempted: int = 0
    #: failed PTP compactions: ``"<pass>:<PTP>"`` -> first reason found.
    failures: dict = field(default_factory=dict)
    metrics: object = None

    def fail(self, pass_name, ptp_name, reason):
        self.failures.setdefault("{}:{}".format(pass_name, ptp_name),
                                 reason)


def build_module(name, scale):
    """Build the target module *name* at *scale*."""
    if name == "decoder_unit":
        return build_decoder_unit()
    if name == "sp_core":
        return build_sp_core(scale.datapath_width)
    return build_sfu(scale.datapath_width)


def _vm_hwm_mb(pid):
    """Peak resident set of a live process, in MiB (None if gone)."""
    try:
        with open("/proc/{}/status".format(pid)) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def peak_rss_mb():
    """Largest peak resident set of this process and its live children."""
    peaks = [_vm_hwm_mb(os.getpid())]
    peaks += [_vm_hwm_mb(child.pid)
              for child in multiprocessing.active_children()]
    return max(peak for peak in peaks if peak is not None)


def delete_one_sb(ptp, rng):
    """Copy of *ptp* with one seed-chosen ``sb_hints`` range deleted.

    Branch targets and labels past the range shift down; a target inside
    it falls through to the instruction after it.  The name is kept, so
    the incremental layer finds the PTP's fault-state record.
    """
    size = ptp.size
    candidates = [hint for hint in ptp.sb_hints if hint[1] < size]
    start, end = candidates[rng.randrange(len(candidates))]
    width = end - start

    def remap(target):
        if target < start:
            return target
        return start if target < end else target - width

    kept = list(ptp.program)[:start] + list(ptp.program)[end:]
    instructions = [instr.with_target(remap(instr.target))
                    if instr.fmt is Fmt.BRANCH else instr
                    for instr in kept]
    labels = {label: remap(target)
              for label, target in ptp.program.labels.items()}
    return ptp.with_program(Program(instructions, labels))


class Workload:
    """One benchmark workload: its PTPs, campaign settings and checks."""

    name = ""
    modules = ()
    jobs = 1
    incremental = "off"
    #: Whether the warm pass runs stage-5 evaluation.
    warm_evaluate = False

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.scale = ExperimentScale(seed=seed)
        self.work_dir = work_dir
        self.built = {name: build_module(name, self.scale)
                      for name in self.modules}

    # -- pieces each workload defines -------------------------------------

    def generate(self):
        """The workload's STL, generated through ``generators``."""
        raise NotImplementedError

    def warm_stl(self, originals):
        """The STL the warm pass compacts (default: the originals)."""
        return SelfTestLibrary(originals)

    def check_cold(self, numbers):
        """Reason a cold compaction's output is wrong, or None."""
        return None

    def check_rep(self, rep):
        """A warm re-compaction of the same STL gives the cold sizes and
        cycles."""
        for name, numbers in rep.warm.numbers.items():
            cold = rep.cold.numbers[name]
            for key in ("compacted_size", "original_cycles",
                        "compacted_cycles"):
                if numbers.get(key) != cold.get(key):
                    rep.fail("warm", name, "{} {} != cold {}".format(
                        key, numbers.get(key), cold.get(key)))

    # -- one rep ----------------------------------------------------------

    def _campaign(self, stl, cache, metrics, evaluate=True):
        """One campaign through a scheduler of its own, as
        ``run_stl_campaign`` builds by default; returns the reports and
        the peak resident set read just before the pool shuts down."""
        scheduler = ShardedFaultScheduler(jobs=self.jobs, metrics=metrics)
        try:
            reports = run_stl_campaign(
                stl, self.built, jobs=self.jobs, cache=cache,
                metrics=metrics, scheduler=scheduler,
                incremental=self.incremental, evaluate=evaluate)
            return reports, peak_rss_mb()
        finally:
            scheduler.close()

    def fresh_cache(self, tag):
        return ArtifactCache(tempfile.mkdtemp(prefix=tag + "-",
                                              dir=self.work_dir))

    def run_rep(self, span=lambda name: nullcontext()):
        """One cold and one warm pass, each inside ``span(pass name)`` and
        each started after a full garbage collection; the output checks
        are :meth:`check`'s, made afterwards."""
        cache = self.fresh_cache(self.name)
        metrics = RunMetrics()
        gc.collect()
        with span("cold"):
            started = time.perf_counter()
            stl = self.generate()
            originals = list(stl)
            reports, cold_rss = self._campaign(stl, cache, metrics)
            cold_s = time.perf_counter() - started
        cold = PassResult.of(reports)
        del stl, reports
        # The campaign swaps compacted PTPs into the STL it is given.
        warm_stl = self.warm_stl(originals)
        gc.collect()
        with span("warm"):
            started = time.perf_counter()
            reports, warm_rss = self._campaign(
                warm_stl, cache, metrics, evaluate=self.warm_evaluate)
            warm_s = time.perf_counter() - started
        return Rep(cold_s=cold_s, warm_s=warm_s,
                   peak_rss_mb=max(cold_rss, warm_rss), originals=originals,
                   cold=cold, warm=PassResult.of(reports), metrics=metrics)

    def check(self, rep, first=None):
        """Count *rep*'s PTP compactions and record the failed ones: a
        FAILED status, verification errors, or a failed output check.
        The checks are :meth:`check_cold` and, for a run's first rep,
        :meth:`check_rep`; every pass must repeat the numbers of the same
        pass in the *first* rep."""
        for pass_name in ("cold", "warm"):
            result = getattr(rep, pass_name)
            reference = result if first is None else getattr(first,
                                                             pass_name)
            for name, numbers in result.numbers.items():
                rep.attempted += 1
                reason = result.problems.get(name)
                if reason is None and pass_name == "cold":
                    reason = self.check_cold(numbers)
                if reason is None and numbers != reference.numbers[name]:
                    reason = "differs from the first {} pass".format(
                        pass_name)
                if reason is not None:
                    rep.fail(pass_name, name, reason)
        if first is None:
            self.check_rep(rep)


class DuEdit(Workload):
    """IMM, MEM, CNTRL on decoder_unit, inline, incremental on; the warm
    pass compacts the STL again after deleting one seed-chosen SB from
    each PTP."""

    name = "du_edit"
    modules = ("decoder_unit",)
    incremental = "on"
    warm_evaluate = True

    def generate(self):
        scale = self.scale
        return SelfTestLibrary([
            generators.generate_imm(seed=scale.seed, num_sbs=scale.imm_sbs),
            generators.generate_mem(seed=scale.seed, num_sbs=scale.mem_sbs),
            generators.generate_cntrl(seed=scale.seed,
                                      num_sbs=scale.cntrl_sbs),
        ])

    def warm_stl(self, originals):
        rng = random.Random(self.seed)
        return SelfTestLibrary([delete_one_sb(ptp, rng) for ptp in originals])

    def check_rep(self, rep):
        """An untimed from-scratch compaction of the edited STL must give
        the warm pass's numbers (sizes, cycles, FCs, drops) and module
        fault-report coverage."""
        scratch = PassResult.of(run_stl_campaign(
            self.warm_stl(rep.originals), self.built, jobs=1,
            cache=self.fresh_cache("scratch"), incremental="off"))
        warm = rep.warm
        for name, numbers in warm.numbers.items():
            if numbers != scratch.numbers[name]:
                rep.fail("warm", name, "differs from a from-scratch "
                         "compaction")
            elif warm.coverage != scratch.coverage:
                rep.fail("warm", name, "module fault-report coverage "
                         "differs from a from-scratch compaction")


class SpSignature(Workload):
    """TPGEN then RAND on sp_core, inline, incremental off.  The warm pass
    repeats stages 1-4 against the warm cache without evaluation: the
    signature evaluation reads neither the cache nor incremental state,
    so repeating it would only re-measure the cold fold."""

    name = "sp_signature"
    modules = ("sp_core",)

    def generate(self):
        scale = self.scale
        tpgen, __ = generators.generate_tpgen(
            self.built["sp_core"], seed=scale.seed,
            atpg_random_patterns=scale.tpgen_random_patterns,
            atpg_max_backtracks=scale.tpgen_max_backtracks,
            atpg_podem_fault_limit=scale.tpgen_podem_fault_limit)
        rand = generators.generate_rand(seed=scale.seed,
                                        num_sbs=scale.rand_sbs)
        return SelfTestLibrary([tpgen, rand])


class SfuPool(Workload):
    """SFU_IMM on sfu with reversed patterns, pooled at ``jobs=2`` (at
    most the CPU count), incremental off.  The warm pass repeats stages
    1-4 against the warm cache through a fresh pool."""

    name = "sfu_pool"
    modules = ("sfu",)
    jobs = min(2, os.cpu_count() or 1)

    def generate(self):
        scale = self.scale
        sfu_imm, __ = generators.generate_sfu_imm(
            self.built["sfu"], seed=scale.seed,
            atpg_random_patterns=scale.sfu_random_patterns,
            atpg_max_backtracks=scale.sfu_max_backtracks,
            atpg_podem_fault_limit=scale.sfu_podem_fault_limit)
        return SelfTestLibrary([sfu_imm])

    def check_cold(self, numbers):
        """SFU_IMM keeps its FC exactly (the paper's Table III shape)."""
        if numbers["fc_diff"] != 0.0:
            return "fc_diff is {}, expected 0.0".format(numbers["fc_diff"])
        return None


WORKLOADS = {cls.name: cls for cls in (DuEdit, SpSignature, SfuPool)}


def quality_metrics(result):
    """Size and duration reduction summed over the PTPs of a
    :class:`PassResult`, and their mean FCs (failed PTPs have none)."""
    rows = [row for row in result.numbers.values() if row]

    def reduction(before, after):
        total = sum(row[before] for row in rows)
        return 100.0 * (total - sum(row[after] for row in rows)) / total

    return {
        "size_reduction_pct": reduction("original_size", "compacted_size"),
        "duration_reduction_pct": reduction("original_cycles",
                                            "compacted_cycles"),
        "orig_fc_pct": sum(row["original_fc"] for row in rows) / len(rows),
        "compacted_fc_pct": (sum(row["compacted_fc"] for row in rows)
                             / len(rows)),
    }
