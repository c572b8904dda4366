"""Prior-work baseline: test-program reordering ([17] in the paper).

Cantoro et al. reorder pieces of a test program so that high-contribution
pieces run first, then truncate the tail that adds no coverage.  This
implementation works on the same SB segmentation as the main method: one
fault simulation attributes first detections to SBs, SBs are reordered by
descending contribution, and SBs with zero first-detections are dropped.

Unlike the paper's method it changes the execution order of the surviving
SBs, so it is only sound for PTPs without inter-SB data dependences (e.g.
SFU_IMM); for SpT-based PTPs it perturbs the signature chain.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..core.partition import partition_ptp
from ..core.reduction import segment_small_blocks
from ..core.tracing import trace_and_pack
from ..faults.fault import FaultList
from ..faults.fault_sim import FaultSimulator
from ..gpu.gpu import Gpu
from ..isa.instruction import Program


@dataclass
class ReorderOutcome:
    """Result of the reordering baseline on one PTP."""

    ptp: object
    compacted: object
    original_size: int
    compacted_size: int
    fault_simulations: int
    wall_seconds: float
    sb_order: list

    @property
    def size_reduction_percent(self):
        if self.original_size == 0:
            return 0.0
        return -100.0 * (self.original_size - self.compacted_size) / (
            self.original_size)


def compact_by_reordering(ptp, module, fault_list=None, gpu=None):
    """Reorder SBs by fault-detection contribution and drop barren ones.

    Only supports straight-line PTPs (no branches outside pinned
    prologue/epilogue); raises otherwise.
    """
    gpu = gpu or Gpu()
    if fault_list is None:
        fault_list = FaultList(module.netlist)
    simulator = FaultSimulator(module.netlist)
    started = time.perf_counter()

    partition = partition_ptp(ptp)
    small_blocks = segment_small_blocks(ptp, partition)

    traced = trace_and_pack(ptp, module, gpu)
    tracing, report = traced.tracing, traced.report
    result = simulator.run(traced.patterns, fault_list)

    # Attribute first detections to SBs through the cc -> pc -> SB chain.
    cc_to_pc = {}
    for record in tracing.trace:
        for cc in range(record.decode_cc, record.exec_end_cc + 1):
            cc_to_pc[cc] = record.pc
    sb_of_pc = {}
    for i, sb in enumerate(small_blocks):
        for pc in sb.pcs():
            sb_of_pc[pc] = i
    contribution = [0] * len(small_blocks)
    ccs = report.cc_of_pattern()
    for first in result.first_detection:
        if first is None:
            continue
        pc = cc_to_pc.get(ccs[first])
        if pc is None:
            continue
        sb_index = sb_of_pc.get(pc)
        if sb_index is not None:
            contribution[sb_index] += 1

    instructions = list(ptp.program)
    pinned = [(i, sb) for i, sb in enumerate(small_blocks)
              if not sb.removable]
    movable = [(i, sb) for i, sb in enumerate(small_blocks) if sb.removable]
    movable.sort(key=lambda pair: -contribution[pair[0]])

    new_instructions = []
    order = []
    # Keep pinned prologue SBs (before the first movable SB) first, then
    # contributing movable SBs, then the remaining pinned tail.
    first_movable_start = min((sb.start for __, sb in movable),
                              default=len(instructions))
    for i, sb in pinned:
        if sb.start < first_movable_start:
            new_instructions.extend(instructions[pc] for pc in sb.pcs())
            order.append(i)
    for i, sb in movable:
        if contribution[i] == 0:
            continue
        new_instructions.extend(instructions[pc] for pc in sb.pcs())
        order.append(i)
    for i, sb in pinned:
        if sb.start >= first_movable_start:
            new_instructions.extend(instructions[pc] for pc in sb.pcs())
            order.append(i)

    compacted = ptp.with_program(Program(new_instructions, {}),
                                 name=ptp.name + "_reordered")
    return ReorderOutcome(
        ptp=ptp,
        compacted=compacted,
        original_size=ptp.size,
        compacted_size=compacted.size,
        fault_simulations=1,
        wall_seconds=time.perf_counter() - started,
        sb_order=order,
    )
