"""Stages 3-4: the Fig. 2 labeling and Fig. 3 reduction algorithms.

These tests drive the algorithms with real tracing artifacts but
hand-controlled fault results, so the expected essential/unessential labels
and removals are known exactly.
"""

import pytest

from repro.core.labeling import ESSENTIAL, UNESSENTIAL, label_instructions
from repro.core.partition import partition_ptp
from repro.core.reduction import reduce_ptp, segment_small_blocks
from repro.core.tracing import run_logic_tracing
from repro.errors import CompactionError
from repro.gpu.config import KernelConfig
from repro.isa import assemble
from repro.isa.opcodes import Op
from repro.stl.ptp import ParallelTestProgram


def _du_ptp(source, name="T"):
    return ParallelTestProgram(name=name, target="decoder_unit",
                               program=assemble(source),
                               kernel=KernelConfig())


# R1 is the reserved SpT register (stl.signature.SIG_REG); PTPs use the
# pool registers R2..R9 for operands.
THREE_SB = """
    S2R R0, TID_X
    MOV32I R8, 0x11
    IADD R2, R8, R8
    GST [R0+0x0], R2
    MOV32I R3, 0x22
    IMUL R4, R3, R3
    GST [R0+0x1], R4
    MOV32I R5, 0x33
    XOR R6, R5, R5
    GST [R0+0x2], R6
    EXIT
"""


def _fake_counts(pattern_count, detecting):
    """Fault Sim Report counts with one fault first-detected per index in
    *detecting*."""
    counts = [0] * pattern_count
    for k in detecting:
        counts[k] += 1
    return counts


@pytest.fixture()
def traced(du_module, gpu):
    ptp = _du_ptp(THREE_SB)
    tracing = run_logic_tracing(ptp, du_module, gpu=gpu)
    return ptp, tracing


def test_labeling_marks_detecting_instructions(traced):
    ptp, tracing = traced
    report = tracing.pattern_report
    # The pattern at index k corresponds to instruction pc=k (one warp,
    # straight line): mark patterns of pc 2 and pc 5 as detecting.
    counts = _fake_counts(report.count, [2, 5])
    labeled = label_instructions(ptp, tracing.trace, report, counts)
    assert labeled.labels[2] == ESSENTIAL
    assert labeled.labels[5] == ESSENTIAL
    assert labeled.num_essential == 2
    assert all(label == UNESSENTIAL
               for pc, label in enumerate(labeled.labels)
               if pc not in (2, 5))
    assert all(labeled.executed)


def test_labeling_with_no_detections(traced):
    ptp, tracing = traced
    counts = _fake_counts(tracing.pattern_report.count, [])
    labeled = label_instructions(ptp, tracing.trace,
                                 tracing.pattern_report, counts)
    assert labeled.num_essential == 0


def test_labeling_rejects_mismatched_pattern_counts(traced):
    ptp, tracing = traced
    for count in (tracing.pattern_report.count + 5,
                  tracing.pattern_report.count - 1):
        with pytest.raises(CompactionError, match="patterns"):
            label_instructions(ptp, tracing.trace, tracing.pattern_report,
                               _fake_counts(count, []))


def test_reduction_removes_only_fully_unessential_sbs(traced, du_module,
                                                      gpu):
    ptp, tracing = traced
    partition = partition_ptp(ptp)
    # SB2 (pcs 4-6) has an essential instruction; SB1 and SB3 do not.
    counts = _fake_counts(tracing.pattern_report.count, [5])
    labeled = label_instructions(ptp, tracing.trace,
                                 tracing.pattern_report, counts)
    reduction = reduce_ptp(labeled, partition)
    kept_ops = [i.op for i in reduction.compacted.program]
    # Pinned prologue + SB2 + pinned EXIT survive.
    assert kept_ops == [Op.S2R, Op.MOV32I, Op.IMUL, Op.GST, Op.EXIT]
    assert reduction.removed_instructions == 6
    assert len(reduction.removed_blocks) == 2
    # The compacted PTP still executes.
    out = run_logic_tracing(reduction.compacted, du_module, gpu=gpu)
    assert out.cycles > 0


def test_reduction_keeps_everything_when_all_essential(traced):
    ptp, tracing = traced
    counts = _fake_counts(tracing.pattern_report.count,
                          list(range(tracing.pattern_report.count)))
    labeled = label_instructions(ptp, tracing.trace,
                                 tracing.pattern_report, counts)
    partition = partition_ptp(ptp)
    reduction = reduce_ptp(labeled, partition)
    assert reduction.compacted.size == ptp.size


def test_segmentation_three_sbs(traced):
    ptp, tracing = traced
    partition = partition_ptp(ptp)
    blocks = segment_small_blocks(ptp, partition)
    removable = [sb for sb in blocks if sb.removable]
    assert [(sb.start, sb.end) for sb in removable] == [
        (1, 4), (4, 7), (7, 10)]
    pinned = [sb for sb in blocks if not sb.removable]
    assert [(sb.start, sb.end) for sb in pinned] == [(0, 1), (10, 11)]


def test_segmentation_covers_every_pc(traced):
    ptp, tracing = traced
    partition = partition_ptp(ptp)
    blocks = segment_small_blocks(ptp, partition)
    covered = sorted(pc for sb in blocks for pc in sb.pcs())
    assert covered == list(range(ptp.size))


def test_branch_targets_remapped_after_removal(du_module, gpu):
    ptp = _du_ptp("""
        S2R R0, TID_X
        MOV32I R1, 0x1
        IADD R2, R1, R1
        GST [R0+0x0], R2
        MOV32I R3, 0x2
        IADD R4, R3, R3
        GST [R0+0x1], R4
        SSY done
        MOV32I R5, 0x10
        ISETP P0, R0, R5, LT
    @P0 BRA done
        MOV32I R6, 0x3
    done:
        JOIN
        EXIT
    """)
    tracing = run_logic_tracing(ptp, du_module, gpu=gpu)
    partition = partition_ptp(ptp)
    # Only the SSY..JOIN hammock's ISETP pattern detects faults: pcs 1-6
    # (two plain SBs) get removed, the hammock survives, targets remap.
    pc_of_pattern = [r.pc for r in tracing.pattern_report.records]
    detecting = [k for k, pc in enumerate(pc_of_pattern) if pc == 9][:1]
    counts = _fake_counts(tracing.pattern_report.count, detecting)
    labeled = label_instructions(ptp, tracing.trace,
                                 tracing.pattern_report, counts)
    reduction = reduce_ptp(labeled, partition)
    compacted = reduction.compacted
    ops = [i.op for i in compacted.program]
    assert Op.SSY in ops and Op.JOIN in ops
    join_pc = ops.index(Op.JOIN)
    for instr in compacted.program:
        if instr.op in (Op.SSY, Op.BRA):
            assert instr.target == join_pc
    out = run_logic_tracing(compacted, du_module, gpu=gpu)
    assert out.cycles > 0


def test_data_relocation_drops_orphaned_arrays(sp_module, gpu):
    from repro.stl.generators.atpg_based import generate_tpgen

    ptp, __ = generate_tpgen(sp_module, seed=3, atpg_random_patterns=24,
                             atpg_max_backtracks=3)
    tracing = run_logic_tracing(ptp, sp_module, gpu=gpu)
    partition = partition_ptp(ptp)
    counts = _fake_counts(tracing.pattern_report.count, [])
    labeled = label_instructions(ptp, tracing.trace,
                                 tracing.pattern_report, counts)
    reduction = reduce_ptp(labeled, partition)
    # Everything removable went away, so every operand array is orphaned.
    from repro.stl.builder import OUTPUT_BASE

    data_words = [a for a in reduction.compacted.global_image
                  if a < OUTPUT_BASE]
    assert data_words == []
    assert any(a < OUTPUT_BASE for a in ptp.global_image)
