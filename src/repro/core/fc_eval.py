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

from ..errors import CompactionError
from ..faults.fault import FaultList

#: Accepted ``observability`` values of :func:`evaluate_fc`.
OBSERVABILITIES = ("module", "signature")


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


def evaluate_fc(traced, simulator, fault_list=None, observability=None,
                simulate=None):
    """Fault-simulate a traced PTP and report its FC.

    Args:
        traced: the PTP's :class:`~repro.core.tracing.TracedPtp` (from
            :func:`~repro.core.tracing.trace_and_pack`, which applies
            ``reverse_patterns``).
        simulator: the module's
            :class:`~repro.faults.fault_sim.FaultSimulator`.
        fault_list: faults to measure against (default: the module's full
            collapsed list — the denominator is always this list's size).
        observability: "module" or "signature"; default picks "signature"
            for PTPs with ``uses_signature`` and "module" otherwise.
        simulate: the module-observability fault simulation, called as
            ``simulate(patterns, fault_list)`` and returning a
            :class:`~repro.faults.fault_sim.FaultSimResult`: the pipeline
            passes its incremental/scheduler step, the default is
            ``simulator.run``.  The signature fold always runs
            ``simulator.run_signature`` inline.

    Returns:
        An :class:`FcEvaluation`.

    Raises:
        CompactionError: *observability* is not None, "module" or
            "signature".
    """
    if observability is None:
        observability = ("signature" if traced.ptp.uses_signature
                         else "module")
    if observability not in OBSERVABILITIES:
        raise CompactionError(
            "observability must be one of {}, got {!r}".format(
                "/".join(OBSERVABILITIES), observability))
    if fault_list is None:
        fault_list = FaultList(simulator.netlist)
    patterns = traced.patterns

    if observability == "signature":
        module = traced.report.module
        signature_detected = simulator.run_signature(
            patterns, fault_list, module.output_words["result"],
            traced.report.thread_sequences())
        detected = {fault for fault, hit in zip(fault_list,
                                                signature_detected) if hit}
    else:
        simulate = simulate or simulator.run
        detected = set(simulate(patterns, fault_list).detected_faults)

    fc = 100.0 * len(detected) / len(fault_list) if len(fault_list) else 0.0
    return FcEvaluation(
        ptp=traced.ptp,
        fc_percent=fc,
        detected=detected,
        cycles=traced.tracing.cycles,
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
