"""Prior-work baseline: iterative remove-and-resimulate compaction.

The CPU-oriented techniques the paper compares against ([13]-[16]) "require
as many fault simulations as the number of instructions in a TP": they
produce compacted-TP candidates by removing pieces and fault-simulate each
candidate to check the FC.  This module implements that strategy at SB
granularity (the evolutionary/subroutine methods of [16] work on code
chunks) so the benchmark can reproduce the paper's headline cost claim —
ONE fault simulation for our method versus hundreds for the baseline — on
identical PTPs.

The greedy loop scans SBs (back to front, the order that removes trailing
redundancy fastest); an SB is removed when the candidate PTP without it
keeps the full fault coverage.  Every candidate costs one end-to-end logic
simulation plus one fault simulation.
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
from ..isa.opcodes import Fmt, info


@dataclass
class IterativeOutcome:
    """Result of the iterative baseline on one PTP."""

    ptp: object
    compacted: object
    original_size: int
    compacted_size: int
    original_cycles: int
    compacted_cycles: int
    original_fc: float
    compacted_fc: float
    fault_simulations: int
    removed_sbs: int
    wall_seconds: float
    candidates_tried: int = 0

    @property
    def size_reduction_percent(self):
        if self.original_size == 0:
            return 0.0
        return -100.0 * (self.original_size - self.compacted_size) / (
            self.original_size)

    @property
    def duration_reduction_percent(self):
        if self.original_cycles == 0:
            return 0.0
        return -100.0 * (self.original_cycles - self.compacted_cycles) / (
            self.original_cycles)

    @property
    def fc_diff(self):
        return self.compacted_fc - self.original_fc


def _rebuild(ptp, instructions, keep, suffix):
    """PTP with only the kept instructions, branch targets remapped."""
    pc_map = [None] * len(instructions)
    new_instructions = []
    for pc, kept in enumerate(keep):
        if kept:
            pc_map[pc] = len(new_instructions)
            new_instructions.append(instructions[pc])

    def remap(target):
        for candidate in range(target, len(pc_map)):
            if pc_map[candidate] is not None:
                return pc_map[candidate]
        return max(len(new_instructions) - 1, 0)

    for i, instr in enumerate(new_instructions):
        if info(instr.op).fmt is Fmt.BRANCH:
            new_instructions[i] = instr.with_target(remap(instr.target))
    labels = {name: remap(target)
              for name, target in ptp.program.labels.items()}
    return ptp.with_program(Program(new_instructions, labels),
                            name=ptp.name + suffix)


def _measure(ptp, module, simulator, fault_list, gpu):
    traced = trace_and_pack(ptp, module, gpu)
    result = simulator.run(traced.patterns, fault_list)
    return traced.tracing.cycles, set(result.detected_faults)


def compact_iteratively(ptp, module, fault_list=None, gpu=None,
                        max_candidates=None, allow_fc_loss=0.0):
    """Run the remove-and-resimulate baseline on *ptp*.

    Args:
        ptp: the PTP to compact.
        module: the target :class:`HardwareModule`.
        fault_list: faults to preserve coverage of (default: full list).
        gpu: optional shared GPU model.
        max_candidates: cap on candidate evaluations (None = all SBs).
        allow_fc_loss: tolerated FC loss in percentage points per step.

    Returns:
        An :class:`IterativeOutcome` (its ``fault_simulations`` counts the
        initial measurement plus one per candidate).
    """
    gpu = gpu or Gpu()
    if fault_list is None:
        fault_list = FaultList(module.netlist)
    simulator = FaultSimulator(module.netlist)
    started = time.perf_counter()

    partition = partition_ptp(ptp)
    small_blocks = [sb for sb in segment_small_blocks(ptp, partition)
                    if sb.removable]
    instructions = list(ptp.program)
    keep = [True] * len(instructions)

    base_cycles, base_detected = _measure(ptp, module, simulator,
                                          fault_list, gpu)
    fault_sims = 1
    total = len(fault_list)
    base_fc = 100.0 * len(base_detected) / total if total else 0.0

    current = ptp
    current_detected = base_detected
    removed = 0
    tried = 0
    for sb in reversed(small_blocks):
        if max_candidates is not None and tried >= max_candidates:
            break
        tried += 1
        candidate_keep = list(keep)
        for pc in sb.pcs():
            candidate_keep[pc] = False
        candidate = _rebuild(ptp, instructions, candidate_keep,
                             "_candidate")
        __, detected = _measure(candidate, module, simulator, fault_list,
                                gpu)
        fault_sims += 1
        lost = len(current_detected - detected)
        lost_percent = 100.0 * lost / total if total else 0.0
        if lost_percent <= allow_fc_loss:
            keep = candidate_keep
            current_detected = detected
            removed += 1
    current = _rebuild(ptp, instructions, keep, "_iterative")
    final_cycles, final_detected = _measure(current, module, simulator,
                                            fault_list, gpu)
    fault_sims += 1
    final_fc = 100.0 * len(final_detected) / total if total else 0.0

    return IterativeOutcome(
        ptp=ptp,
        compacted=current,
        original_size=ptp.size,
        compacted_size=current.size,
        original_cycles=base_cycles,
        compacted_cycles=final_cycles,
        original_fc=base_fc,
        compacted_fc=final_fc,
        fault_simulations=fault_sims,
        removed_sbs=removed,
        wall_seconds=time.perf_counter() - started,
        candidates_tried=tried,
    )
