"""Monitor artifacts: trace report round-trip, stimulus consistency.

The central cross-abstraction invariant: for every SP stimulus captured
during a kernel run, feeding the pattern into the synthesized SP netlist
reproduces the architectural result (truncated to the datapath width).
The same holds for the SFU.  This is what makes the compaction method's
pattern reports faithful to the hardware.
"""

import pytest

from repro.gpu import DecoderUnitCollector, Gpu, KernelConfig, SfuCollector, SpCoreCollector
from repro.gpu.trace import parse_trace_report, write_trace_report
from repro.isa import assemble, decode
from repro.netlist.modules.sp_core import SPOp

W = 8

SOURCE = """
    S2R R0, TID_X
    MOV32I R1, 0x3C
    IADD R2, R0, R1
    IMUL R3, R2, R2
    XOR R4, R3, R0
    SHL32I R5, R4, 0x2
    ISET R6, R5, R1, GT
    ISETP P0, R0, R1, LT
    SEL R7, P0, R5, R6
    IMAD R8, R2, R3, R4
    SIN R9, R8
    RCP R10, R2
    GST [R0+0x40], R9
    EXIT
"""


@pytest.fixture(scope="module")
def kernel_run():
    gpu = Gpu()
    collectors = [DecoderUnitCollector(), SpCoreCollector(W), SfuCollector(W)]
    result = gpu.run_kernel(assemble(SOURCE), KernelConfig(),
                            collectors=collectors)
    return result


def test_trace_covers_every_executed_instruction(kernel_run):
    pcs = sorted({r.pc for r in kernel_run.trace})
    assert pcs == list(range(14))


def test_trace_cc_spans_do_not_overlap(kernel_run):
    spans = sorted((r.decode_cc, r.exec_end_cc) for r in kernel_run.trace)
    for (s1, e1), (s2, __) in zip(spans, spans[1:]):
        assert e1 < s2


def test_trace_report_round_trip(kernel_run):
    text = write_trace_report(kernel_run.trace)
    parsed = parse_trace_report(text)
    assert parsed == kernel_run.trace


def test_du_stimuli_decode_back_to_program(kernel_run):
    program = assemble(SOURCE)
    for record in kernel_run.stimuli["decoder_unit"]:
        word = record.value_dict["instr"]
        assert decode(word) == program[record.pc]


def test_sp_stimuli_one_per_thread_per_sp_instruction(kernel_run):
    # 10 SP-unit instructions (S2R..IMAD incl. MOV32I/SEL) x 32 threads.
    assert len(kernel_run.stimuli["sp_core"]) == 10 * 32


def test_sfu_stimuli_for_sin_and_rcp(kernel_run):
    records = kernel_run.stimuli["sfu"]
    assert len(records) == 2 * 32
    funcs = {record.value_dict["func"] for record in records}
    assert funcs == {0, 2}  # RCP, SIN


def test_stimuli_sorted_by_cc(kernel_run):
    for module in ("decoder_unit", "sp_core", "sfu"):
        ccs = [r.cc for r in kernel_run.stimuli[module]]
        assert ccs == sorted(ccs)


def test_sp_stimuli_ccs_inside_trace_exec_spans(kernel_run):
    spans = {}
    for record in kernel_run.trace:
        spans.setdefault(record.pc, []).append(
            (record.exec_start_cc, record.exec_end_cc))
    for record in kernel_run.stimuli["sp_core"]:
        assert any(start <= record.cc <= end
                   for start, end in spans[record.pc])


def test_sp_netlist_reproduces_architectural_results(kernel_run, sp_module):
    """Feed every captured SP pattern into the gate-level SP core; its
    result must equal the architectural result mod 2^W."""
    from repro.isa.opcodes import CmpOp
    from repro.netlist.modules.sp_core import sp_reference_result

    for record in kernel_run.stimuli["sp_core"]:
        v = record.value_dict
        result, __ = sp_reference_result(SPOp(v["op"]), v["a"], v["b"],
                                         v["c"], CmpOp(v["cmp"]), W)
        out = sp_module.simulate(sp_module.pattern_set([record.values]))
        assert out["result"][0] == result


def test_thread_field_populated_for_lane_modules(kernel_run):
    threads = {record.thread for record in kernel_run.stimuli["sp_core"]}
    assert threads == set(range(32))
    assert all(record.thread == -1
               for record in kernel_run.stimuli["decoder_unit"])


def test_lane_mapping_is_thread_mod_width(kernel_run):
    for record in kernel_run.stimuli["sp_core"]:
        assert record.lane == record.thread % 8
    for record in kernel_run.stimuli["sfu"]:
        assert record.lane == record.thread % 2  # two SFUs
