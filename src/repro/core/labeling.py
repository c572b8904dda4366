"""Stage 3 (second step) — instruction labeling (Fig. 2 of the paper).

Each instruction of the PTP is matched with its execution clock cycles via
the tracing report; for every warp that executed it, and for every cc of
that execution, the Fault Sim Report is consulted: if the test pattern
applied at that cc detects faults, the instruction is *essential*,
otherwise it stays *unessential* and becomes a removal candidate.

Fault dropping concentrates detections on the earliest application of each
effective pattern, which is what gives the method its compaction power: a
pattern repeated later detects nothing new, so redundant instructions stay
unessential.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import CompactionError

ESSENTIAL = "essential"
UNESSENTIAL = "unessential"


@dataclass
class LabeledPtp:
    """The Labeled Parallel Test Program (LPTP).

    Attributes:
        ptp: the analyzed PTP.
        labels: per-pc label, :data:`ESSENTIAL` or :data:`UNESSENTIAL`.
        executed: per-pc bool — whether any warp executed the pc.
        detecting_ccs: the set of clock cycles whose patterns detected
            faults (diagnostic).
    """

    ptp: object
    labels: list
    executed: list
    detecting_ccs: set = field(default_factory=set)

    @property
    def num_essential(self):
        return sum(1 for label in self.labels if label == ESSENTIAL)

    @property
    def num_unessential(self):
        return len(self.labels) - self.num_essential


def label_instructions(ptp, trace, pattern_report, detections):
    """Run the Fig. 2 labeling algorithm.

    Args:
        ptp: the PTP under compaction.
        trace: tracing report (list of TraceRecord) from stage 2.
        pattern_report: the module PatternReport from stage 2 — its pattern
            order must match *detections*.
        detections: the Fault Sim Report's per-pattern detected-fault
            counts (:meth:`FaultSimResult.detections_per_pattern
            <repro.faults.fault_sim.FaultSimResult.detections_per_pattern>`
            of the stage-3 fault simulation with fault dropping).

    Returns:
        A :class:`LabeledPtp`.
    """
    if len(detections) != pattern_report.count:
        raise CompactionError(
            "fault sim saw {} patterns but the report has {}".format(
                len(detections), pattern_report.count))

    # FSR_cc: clock cycles whose pattern detects at least one fault.
    detecting_ccs = {cc for cc, count in zip(pattern_report.cc_of_pattern(),
                                             detections) if count}

    size = len(ptp.program)
    labels = [UNESSENTIAL] * size
    executed = [False] * size
    for record in trace:  # one record per (instruction, warp) execution
        if not 0 <= record.pc < size:
            raise CompactionError("trace pc {} outside the PTP".format(
                record.pc))
        executed[record.pc] = True
        if labels[record.pc] == ESSENTIAL:
            continue  # "go to next instruction"
        for cc in range(record.decode_cc, record.exec_end_cc + 1):
            if cc in detecting_ccs:
                labels[record.pc] = ESSENTIAL
                break
    return LabeledPtp(ptp=ptp, labels=labels, executed=executed,
                      detecting_ccs=detecting_ccs)
