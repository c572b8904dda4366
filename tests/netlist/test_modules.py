"""The three synthesized target modules vs their reference models."""

from hypothesis import given, settings, strategies as st

from repro.isa import Instruction, Pred, assemble, encode
from repro.isa.opcodes import CmpOp, Op
from repro.netlist.modules import SPOp
from repro.netlist.modules.decoder_unit import UNIT_ORDER, reference_decode
from repro.netlist.modules.sfu import FUNC_CODES, SEG_BITS, sfu_reference_result
from repro.netlist.modules.sp_core import ISA_TO_SPOP, sp_reference_result

W = 8  # conftest TEST_WIDTH


# --- Decoder Unit ----------------------------------------------------------

def test_du_dimensions(du_module):
    assert len(du_module.input_words["instr"]) == 64
    assert du_module.netlist.num_gates > 500


def test_du_decodes_every_opcode(du_module):
    words = [encode(Instruction(op)) for op in Op]
    patterns = du_module.pattern_set([[("instr", word)] for word in words])
    out = du_module.simulate(patterns)
    for k, word in enumerate(words):
        ref = reference_decode(word)
        for port, expected in ref.items():
            assert out[port][k] == expected, (list(Op)[k], port)


def test_du_illegal_opcode(du_module):
    patterns = du_module.pattern_set([[("instr", 0xFE << 56)]])
    out = du_module.simulate(patterns)
    assert out["valid"][0] == 0
    assert out["illegal"][0] == 1
    assert out["writes_reg"][0] == 0


def test_du_predicate_guard_decode(du_module):
    instr = Instruction(Op.IADD, dst=1, src_a=2, src_b=3,
                        pred=Pred(2, True))
    patterns = du_module.pattern_set([[("instr", encode(instr))]])
    out = du_module.simulate(patterns)
    assert out["pred_en"][0] == 1
    assert out["pred_idx"][0] == 2
    assert out["pred_neg"][0] == 1


def test_du_unit_one_hot_is_exclusive(du_module):
    patterns = du_module.pattern_set(
        [[("instr", encode(Instruction(op)))] for op in Op])
    out = du_module.simulate(patterns)
    for k, op in enumerate(Op):
        unit_bits = out["unit"][k]
        assert bin(unit_bits).count("1") == 1
        from repro.isa.opcodes import info
        assert unit_bits == 1 << UNIT_ORDER.index(info(op).unit)


def test_du_matches_reference_on_program(du_module):
    program = assemble("""
        MOV32I R1, 0xFFFF0000
        IADD32I R2, R1, 0x7F
        ISETP P1, R2, R1, LE
    @!P1 BRA 0
        GLD R3, [R2+0x100]
        SST [R3+0x10], R2
        CLD R4, c[0x20]
        IMAD R5, R1, R2, R3
        COS R6, R5
        EXIT
    """)
    words = [encode(i) for i in program]
    patterns = du_module.pattern_set([[("instr", word)] for word in words])
    out = du_module.simulate(patterns)
    for k, word in enumerate(words):
        for port, expected in reference_decode(word).items():
            assert out[port][k] == expected, (k, port)


# --- SP core ---------------------------------------------------------------

def test_isa_to_spop_covers_all_sp_instructions():
    from repro.isa.opcodes import INFO, Unit
    sp_ops = {op for op, info in INFO.items() if info.unit is Unit.SP}
    assert set(ISA_TO_SPOP) == sp_ops


@given(st.sampled_from(list(SPOp)), st.integers(0, 255),
       st.integers(0, 255), st.integers(0, 255),
       st.sampled_from(list(CmpOp)))
@settings(max_examples=150, deadline=None)
def test_sp_netlist_matches_reference(sp_module, op, a, b, c, cmp_op):
    patterns = sp_module.pattern_set([[("op", op.value), ("cmp", cmp_op.value),
                                       ("a", a), ("b", b), ("c", c)]])
    out = sp_module.simulate(patterns)
    result, pred = sp_reference_result(op, a, b, c, cmp_op, W)
    assert out["result"][0] == result
    assert out["pred"][0] == pred


def test_sp_undefined_opcode_yields_zero(sp_module):
    patterns = sp_module.pattern_set([[("op", 15), ("a", 0xAB), ("b", 0x1)]])
    out = sp_module.simulate(patterns)
    assert out["result"][0] == 0
    assert out["pred"][0] == 0


def test_sp_shift_flush_semantics(sp_module):
    # Shift amounts at/above the width flush the barrel shifter output.
    patterns = sp_module.pattern_set([
        [("op", SPOp.SHL.value), ("a", 0xFF), ("b", 8)],
        [("op", SPOp.SHR.value), ("a", 0xFF), ("b", 9)],
        [("op", SPOp.SHL.value), ("a", 0xFF), ("b", 3)],
    ])
    out = sp_module.simulate(patterns)
    assert out["result"][0] == 0
    assert out["result"][1] == 0
    assert out["result"][2] == 0xF8


def test_sp_setp_only_raises_pred(sp_module):
    patterns = sp_module.pattern_set([[("op", SPOp.SETP.value),
                                       ("cmp", CmpOp.EQ.value),
                                       ("a", 5), ("b", 5)]])
    out = sp_module.simulate(patterns)
    assert out["pred"][0] == 1
    assert out["result"][0] == 0


# --- SFU ------------------------------------------------------------------

def test_sfu_dimensions(sfu_module):
    assert len(sfu_module.input_words["x"]) == W
    assert len(sfu_module.input_words["func"]) == 3


@given(st.integers(0, 5), st.integers(0, 255))
@settings(max_examples=100, deadline=None)
def test_sfu_netlist_matches_reference(sfu_module, func, x):
    patterns = sfu_module.pattern_set([[("func", func), ("x", x)]])
    out = sfu_module.simulate(patterns)
    assert out["y"][0] == sfu_reference_result(func, x, W)


def test_sfu_distinct_functions_differ(sfu_module):
    """RCP and SIN tables must actually differ (non-degenerate ROM)."""
    patterns = sfu_module.pattern_set(
        [[("func", func), ("x", 0x40)] for func in range(6)])
    out = sfu_module.simulate(patterns)
    assert len(set(out["y"])) > 2


def test_sfu_segments_differ(sfu_module):
    """Different input segments hit different coefficients."""
    step = 1 << (W - SEG_BITS)
    patterns = sfu_module.pattern_set(
        [[("func", FUNC_CODES["RCP"]), ("x", seg * step)]
         for seg in range(1 << SEG_BITS)])
    out = sfu_module.simulate(patterns)
    assert len(set(out["y"])) > 2
