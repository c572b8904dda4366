"""Experiment A3 — ablations of the method's design choices.

(i)  Labeling against the fault simulator's *dropping* detections vs all
     detections: without dropping, every repeatedly-detecting instruction
     looks essential and compaction collapses — dropping is what powers
     the method.
(ii) SFU_IMM stage-3 pattern order, forward vs reversed: the paper applied
     the SFU patterns "in reverse order during the fault simulation of
     stage 3"; the order changes which SBs are labeled essential.
(iii) Removal granularity, SB vs single instruction: removing individual
     unessential instructions (instead of whole load/execute/propagate
     SBs) strips operand loads from surviving test operations, so the
     survivors no longer apply the patterns the labeling certified — the
     compacted program's pattern stream is corrupted (its FC becomes
     accidental), which is why the method removes whole SBs.
"""

from conftest import run_once
from repro.core import (
    CompactionPipeline,
    evaluate_fc,
    label_instructions,
    partition_ptp,
    reduce_ptp,
    run_logic_tracing,
    trace_and_pack,
)
from repro.core.labeling import ESSENTIAL
from repro.core.reduction import segment_small_blocks
from repro.faults.fault_sim import FaultSimulator
from repro.isa.instruction import Program
from repro.netlist.simulator import iter_set_bits
from repro.stl import generate_imm, generate_sfu_imm


def test_labeling_requires_fault_dropping(benchmark, experiment):
    module = experiment.modules["decoder_unit"]
    gpu = experiment.gpu
    ptp = generate_imm(seed=13, num_sbs=40)

    def run():
        traced = trace_and_pack(ptp, module, gpu)
        simulator = FaultSimulator(module.netlist)
        # Without dropping a fault counts at every detecting pattern.
        all_detections = [0] * traced.patterns.count
        for word in simulator.detection_words(traced.patterns):
            for k in iter_set_bits(word):
                all_detections[k] += 1
        partition = partition_ptp(ptp)
        with_drop = reduce_ptp(label_instructions(
            ptp, traced.tracing.trace, traced.report,
            simulator.run(traced.patterns).detections_per_pattern()),
            partition)
        without_drop = reduce_ptp(label_instructions(
            ptp, traced.tracing.trace, traced.report, all_detections),
            partition)
        return with_drop, without_drop

    with_drop, without_drop = run_once(benchmark, run)
    print()
    print("ABLATION A3(i): labeling with vs without fault dropping")
    print("  with dropping   : {} -> {} instructions".format(
        ptp.size, with_drop.compacted.size))
    print("  without dropping: {} -> {} instructions".format(
        ptp.size, without_drop.compacted.size))
    # Without dropping nearly everything is "essential": compaction dies.
    assert with_drop.compacted.size < without_drop.compacted.size
    assert without_drop.compacted.size > 0.9 * ptp.size


def test_sfu_pattern_order_matters(benchmark, experiment):
    module = experiment.modules["sfu"]
    gpu = experiment.gpu
    ptp, __ = generate_sfu_imm(module, seed=13, atpg_random_patterns=96,
                               atpg_max_backtracks=5)

    def run():
        forward = CompactionPipeline(module, gpu=gpu).compact(
            ptp, reverse_patterns=False, evaluate=False)
        backward = CompactionPipeline(module, gpu=gpu).compact(
            ptp, reverse_patterns=True, evaluate=False)
        return forward, backward

    forward, backward = run_once(benchmark, run)
    print()
    print("ABLATION A3(ii): SFU_IMM stage-3 pattern order")
    print("  forward : {} -> {} instructions".format(
        ptp.size, forward.compacted.size))
    print("  reversed: {} -> {} instructions (paper's configuration)"
          .format(ptp.size, backward.compacted.size))
    # Both compact; the surviving sets differ (first-detection shifts).
    fwd_kept = {pc for pc, new in enumerate(forward.reduction.pc_map)
                if new is not None}
    bwd_kept = {pc for pc, new in enumerate(backward.reduction.pc_map)
                if new is not None}
    assert fwd_kept != bwd_kept
    # Detected fault population is order-independent.
    assert (forward.fault_result.num_detected
            == backward.fault_result.num_detected)


def test_sb_granularity_preserves_certified_patterns(benchmark, experiment):
    # SFU_IMM is the PTP whose SBs are fully data-independent (Section IV),
    # so SB-granular removal must preserve every surviving pattern exactly;
    # pseudorandom SP PTPs deliberately read stale pool registers across
    # SBs, which is the SpT re-chaining effect, not a granularity issue.
    from collections import Counter

    module = experiment.modules["sfu"]
    gpu = experiment.gpu

    ptp, __atpg = generate_sfu_imm(module, seed=13,
                                   atpg_random_patterns=96,
                                   atpg_max_backtracks=5)

    def run():
        traced = trace_and_pack(ptp, module, gpu)
        result = FaultSimulator(module.netlist).run(traced.patterns)
        partition = partition_ptp(ptp)
        labeled = label_instructions(ptp, traced.tracing.trace,
                                     traced.report,
                                     result.detections_per_pattern())
        sb_level = reduce_ptp(labeled, partition)

        # Instruction-granular removal: drop every unessential instruction
        # outside the pinned SBs individually.
        pinned = {pc for sb in segment_small_blocks(ptp, partition)
                  if not sb.removable for pc in sb.pcs()}
        instructions = list(ptp.program)
        kept = [instr for pc, instr in enumerate(instructions)
                if pc in pinned or labeled.labels[pc] == ESSENTIAL]
        instr_level = ptp.with_program(Program(kept, {}),
                                       name=ptp.name + "_instr")

        def pattern_multiset(candidate):
            run_result = run_logic_tracing(candidate, module, gpu=gpu)
            return Counter(record.values
                           for record in run_result.pattern_report.records)

        original = pattern_multiset(ptp)
        sb_patterns = pattern_multiset(sb_level.compacted)
        instr_patterns = pattern_multiset(instr_level)
        simulator = FaultSimulator(module.netlist)
        sb_fc = evaluate_fc(trace_and_pack(sb_level.compacted, module, gpu),
                            simulator).fc_percent
        instr_fc = evaluate_fc(trace_and_pack(instr_level, module, gpu),
                               simulator).fc_percent
        return (ptp, sb_level, instr_level, original, sb_patterns,
                instr_patterns, sb_fc, instr_fc)

    (ptp, sb_level, instr_level, original, sb_patterns, instr_patterns,
     sb_fc, instr_fc) = run_once(benchmark, run)
    print()
    print("ABLATION A3(iii): SB-granular vs instruction-granular removal")
    print("  SB granularity    : {} instructions, FC {:.2f}%, patterns "
          "preserved".format(sb_level.compacted.size, sb_fc))
    novel = +(instr_patterns - original)
    print("  instr granularity : {} instructions, FC {:.2f}%, {} novel "
          "(uncertified) patterns".format(instr_level.size, instr_fc,
                                          sum(novel.values())))
    # SB-granular removal keeps each surviving instruction's original
    # patterns: the compacted stream is a sub-multiset of the original.
    assert not +(sb_patterns - original)
    # Instruction-granular removal strips operand loads: the survivors
    # apply patterns the fault simulation never certified.
    assert +(instr_patterns - original)
    assert instr_level.size <= sb_level.compacted.size
