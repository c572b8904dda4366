"""Reduction edge cases: hammocks, inadmissible regions, pc maps."""

from repro.core.labeling import label_instructions
from repro.core.partition import partition_ptp
from repro.core.reduction import _hammock_spans, reduce_ptp, segment_small_blocks
from repro.core.tracing import run_logic_tracing
from repro.gpu.config import KernelConfig
from repro.isa import assemble
from repro.stl.ptp import ParallelTestProgram


def _ptp(source):
    return ParallelTestProgram(name="T", target="decoder_unit",
                               program=assemble(source),
                               kernel=KernelConfig())


def test_hammock_detection_simple():
    ptp = _ptp("""
        S2R R0, TID_X
        ISETP P0, R0, R2, LT
        SSY j
    @P0 BRA j
        MOV32I R3, 0x1
    j:
        JOIN
        EXIT
    """)
    partition = partition_ptp(ptp)
    spans = _hammock_spans(list(ptp.program), partition)
    assert spans == {2: 5}


def test_hammock_rejected_when_branch_escapes():
    ptp = _ptp("""
        S2R R0, TID_X
        SSY j
    @P0 BRA 0
        MOV32I R3, 0x1
    j:
        JOIN
        EXIT
    """)
    partition = partition_ptp(ptp)
    assert _hammock_spans(list(ptp.program), partition) == {}


def test_hammock_rejected_when_entered_from_outside():
    ptp = _ptp("""
        S2R R0, TID_X
        BRA inside
        SSY j
    @P0 BRA j
    inside:
        MOV32I R3, 0x1
    j:
        JOIN
        EXIT
    """)
    partition = partition_ptp(ptp)
    assert 2 not in _hammock_spans(list(ptp.program), partition)


def test_hammock_rejected_with_nested_ssy():
    ptp = _ptp("""
        S2R R0, TID_X
        SSY j
        SSY j2
    @P0 BRA j2
    j2:
        JOIN
    j:
        JOIN
        EXIT
    """)
    partition = partition_ptp(ptp)
    spans = _hammock_spans(list(ptp.program), partition)
    # The outer span contains another SSY: rejected; the inner qualifies.
    assert 1 not in spans
    assert spans.get(2) == 4


def test_inadmissible_blocks_stay_pinned():
    ptp = _ptp("""
        S2R R0, TID_X
        CLD R20, c[0x0]
        MOV32I R21, 0x0
    loop:
        IADD32I R21, R21, 0x1
        ISETP P1, R21, R20, LT
    @P1 BRA loop
        EXIT
    """)
    partition = partition_ptp(ptp)
    blocks = segment_small_blocks(ptp, partition)
    loop_pcs = {3, 4, 5}
    for sb in blocks:
        if set(sb.pcs()) & loop_pcs:
            assert not sb.removable


def test_pc_map_is_monotonic(du_module, gpu):
    from repro.stl import generate_imm

    ptp = generate_imm(seed=17, num_sbs=8)
    tracing = run_logic_tracing(ptp, du_module, gpu=gpu)
    counts = [1] + [0] * (tracing.pattern_report.count - 1)
    labeled = label_instructions(ptp, tracing.trace,
                                 tracing.pattern_report, counts)
    reduction = reduce_ptp(labeled, partition_ptp(ptp))
    kept = [(old, new) for old, new in enumerate(reduction.pc_map)
            if new is not None]
    news = [new for __, new in kept]
    assert news == sorted(news)
    assert news == list(range(len(news)))
    for old, new in kept:
        assert reduction.compacted.program[new] == ptp.program[old]
