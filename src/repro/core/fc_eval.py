"""Stage 5 support — fault-coverage evaluation of (compacted) PTPs.

"In this stage, a final fault simulation is employed to evaluate the FC
features of the CPTPs in the new STL." (Section III stage 5.)

Observability follows the PTP's detection mechanism (Section II.C: "the
fault detection of a PTP is commonly performed using ... thread signatures
... out of the values on any observation point or memory output"):

* module-output observability for DU and SFU PTPs (results are stored
  straight to memory);
* signature-per-thread observability for SP PTPs (TPGEN / RAND fold their
  results into an SpT) — the MISR fold makes aliasing a real effect, which
  is what moves the SP FC numbers under compaction.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..faults.fault import FaultList
from ..faults.fault_sim import FaultSimulator


@dataclass
class FcEvaluation:
    """FC of one PTP against one module fault list.

    Attributes:
        ptp: the evaluated PTP.
        fc_percent: fault coverage over the full module fault list.
        detected: set of detected faults.
        cycles: the PTP's duration in clock cycles.
        pattern_count: patterns applied to the module.
        observability: "module" or "signature".
    """

    ptp: object
    fc_percent: float
    detected: set
    cycles: int
    pattern_count: int
    observability: str


def evaluate_fc(ptp, module, fault_list=None, gpu=None, observability=None,
                reverse_patterns=False, cache=None, scheduler=None,
                incremental=None):
    """Fault-simulate *ptp* end to end and report its FC.

    Args:
        ptp: the PTP to evaluate.
        module: the target :class:`HardwareModule`.
        fault_list: faults to measure against (default: the module's full
            collapsed list — the denominator is always this list's size).
        gpu: optional shared :class:`~repro.gpu.gpu.Gpu`.
        observability: "module" or "signature"; default picks "signature"
            for PTPs with ``uses_signature`` and "module" otherwise.
        reverse_patterns: apply the pattern sequence in reverse order (the
            paper does this for SFU_IMM).
        cache: optional :class:`~repro.exec.cache.ArtifactCache` — the
            tracing is looked up/stored by content key (a repeated
            evaluation, e.g. the FC-guard's stage-5 re-run, skips the
            RTL/GL simulation entirely).
        scheduler: optional
            :class:`~repro.exec.scheduler.ShardedFaultScheduler` for the
            module-observability fault simulation (the signature fold
            always runs inline).  A campaign-shared scheduler reuses its
            already-primed worker pool here; evaluation simulates all of
            *fault_list*, never the dropped remainder (under static
            pruning the pipeline passes the testable list).
        incremental: optional
            :class:`~repro.exec.incremental.IncrementalFaultSim` — the
            module-observability simulation then restores unchanged-cone
            detection state from the fault-state record keyed by
            (*ptp* name, *module*, engine) and re-simulates only the
            invalidated remainder.  Signature-observability evaluations
            ignore it (the MISR fold consumes result-bus value *diffs*,
            which the record does not carry).

    Returns:
        An :class:`FcEvaluation`.
    """
    from ..exec.cache import cached_logic_tracing

    if fault_list is None:
        fault_list = FaultList(module.netlist)
    if observability is None:
        observability = "signature" if ptp.uses_signature else "module"

    tracing = cached_logic_tracing(ptp, module, gpu, cache)
    report = tracing.pattern_report
    if reverse_patterns:
        report = report.reversed()
    patterns = report.to_pattern_set()
    simulator = FaultSimulator(module.netlist)

    if observability == "signature":
        signature_detected = simulator.run_signature(
            patterns, fault_list, module.output_words["result"],
            report.thread_sequences())
        detected = {fault for fault, hit in zip(fault_list,
                                                signature_detected) if hit}
    elif incremental is not None:
        key = incremental.cache.fault_state_key(ptp.name, module,
                                                simulator.engine)
        result, __info = incremental.run(scheduler, simulator, patterns,
                                         fault_list, key)
        detected = set(result.detected_faults)
    elif scheduler is not None:
        result = scheduler.run(simulator, patterns, fault_list)
        detected = set(result.detected_faults)
    else:
        result = simulator.run(patterns, fault_list)
        detected = set(result.detected_faults)

    fc = 100.0 * len(detected) / len(fault_list) if len(fault_list) else 0.0
    return FcEvaluation(
        ptp=ptp,
        fc_percent=fc,
        detected=detected,
        cycles=tracing.cycles,
        pattern_count=patterns.count,
        observability=observability,
    )


def combined_fc(detected_sets, total_faults):
    """FC of several PTPs taken together: the union of their detected-fault
    sets (e.g. :attr:`FcEvaluation.detected`) over *total_faults*."""
    union = set()
    for detected in detected_sets:
        union |= detected
    return 100.0 * len(union) / total_faults if total_faults else 0.0
