"""Pattern report (VCDE), fault-sim report, LPTP listing round trips."""

import types

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.labeling import label_instructions
from repro.core.patterns import (
    PatternReport,
    parse_pattern_report,
    write_pattern_report,
)
from repro.core.reports import (
    parse_fault_sim_report,
    write_compaction_summary,
    write_fault_sim_report,
    write_labeled_ptp,
)
from repro.core.tracing import run_logic_tracing
from repro.errors import NetlistError, ReportError
from repro.faults import FaultList, FaultSimulator
from repro.gpu.config import KernelConfig
from repro.gpu.stimuli import StimulusRecord
from repro.isa import assemble
from repro.netlist import GateType, Netlist
from repro.netlist.modules import HardwareModule
from repro.stl.ptp import ParallelTestProgram

from ..pattern_rows import add_words

SOURCE = """
    S2R R0, TID_X
    MOV32I R2, 0x4D
    IADD R3, R2, R0
    GST [R0+0x0], R3
    MOV32I R4, 0xF0
    XOR R5, R4, R0
    GST [R0+0x1], R5
    EXIT
"""


@pytest.fixture(scope="module")
def artifacts(du_module, gpu):
    ptp = ParallelTestProgram(name="P", target="decoder_unit",
                              program=assemble(SOURCE),
                              kernel=KernelConfig())
    tracing = run_logic_tracing(ptp, du_module, gpu=gpu)
    patterns = tracing.pattern_report.to_pattern_set()
    result = FaultSimulator(du_module.netlist).run(
        patterns, FaultList(du_module.netlist))
    return ptp, tracing, result


def test_pattern_report_to_pattern_set(artifacts, du_module):
    ptp, tracing, __ = artifacts
    report = tracing.pattern_report
    patterns = report.to_pattern_set()
    assert patterns.count == report.count == ptp.size
    # Pattern k must be the encoded instruction word of record k.
    for k, record in enumerate(report.records):
        word = 0
        for i, net in enumerate(du_module.input_words["instr"]):
            word |= patterns.value_of(net, k) << i
        assert word == record.value_dict["instr"]


def test_vcde_round_trip(artifacts, du_module):
    __, tracing, __result = artifacts
    text = write_pattern_report(tracing.pattern_report)
    assert text.startswith("#VCDE module=decoder_unit")
    parsed = parse_pattern_report(text, du_module)
    assert parsed.records == tracing.pattern_report.records


def test_vcde_rejects_wrong_module(artifacts, sp_module):
    __, tracing, __result = artifacts
    text = write_pattern_report(tracing.pattern_report)
    with pytest.raises(ReportError):
        parse_pattern_report(text, sp_module)


def test_vcde_rejects_garbage():
    fake = types.SimpleNamespace(name="decoder_unit", input_words={})
    with pytest.raises(ReportError):
        parse_pattern_report("not a report", fake)


def test_reversed_report(artifacts):
    __, tracing, __result = artifacts
    report = tracing.pattern_report
    rev = report.reversed()
    assert rev.records == list(reversed(report.records))
    assert rev.cc_of_pattern() == list(reversed(report.cc_of_pattern()))


def test_thread_sequences_partition_patterns(artifacts):
    __, tracing, __result = artifacts
    sequences = tracing.pattern_report.thread_sequences()
    all_indices = sorted(k for seq in sequences.values() for k in seq)
    assert all_indices == list(range(tracing.pattern_report.count))
    for seq in sequences.values():
        assert seq == sorted(seq)


def test_fault_sim_report_round_trip(artifacts):
    __, tracing, result = artifacts
    text = write_fault_sim_report(result, tracing.pattern_report)
    header, rows = parse_fault_sim_report(text)
    assert header["module"] == "decoder_unit"
    assert int(header["detected"]) == result.num_detected
    assert len(rows) == tracing.pattern_report.count
    counts = result.detections_per_pattern()
    for k, cc, detected in rows:
        assert counts[k] == detected
        assert cc == tracing.pattern_report.records[k].cc
    assert sum(r[2] for r in rows) == result.num_detected


def test_labeled_ptp_listing(artifacts):
    ptp, tracing, result = artifacts
    labeled = label_instructions(ptp, tracing.trace, tracing.pattern_report,
                                 result.detections_per_pattern())
    text = write_labeled_ptp(labeled)
    lines = text.strip().splitlines()
    assert lines[0].startswith("#LPTP name=P")
    assert len(lines) == 1 + ptp.size
    flags = {line.split()[0] for line in lines[1:]}
    assert flags <= {"E", "u"}


def test_compaction_summary_mentions_single_fault_sim(du_module, gpu):
    from repro.core.pipeline import CompactionPipeline
    from repro.stl import generate_imm

    pipeline = CompactionPipeline(du_module, gpu=gpu)
    outcome = pipeline.compact(generate_imm(seed=2, num_sbs=4))
    text = write_compaction_summary(outcome)
    assert "PTP IMM" in text
    assert "1 for the compaction itself" in text
    assert "FC:" in text


def _ported_module():
    """A module with three ports of 1, 5 and 9 input nets."""
    nl = Netlist("ports")
    words = {"op": nl.add_inputs(1, "op"), "a": nl.add_inputs(5, "a"),
             "b": nl.add_inputs(9, "b")}
    nl.mark_output(nl.add_gate(GateType.XOR, words["a"][0], words["b"][0]))
    nl.finalize()
    return HardwareModule(name="ports", netlist=nl, input_words=words,
                          output_words={})


_WIDTHS = {"op": 1, "a": 5, "b": 9}


@st.composite
def _records_values(draw):
    """Per-record ``(port, value)`` tuples over :func:`_ported_module`:
    each record lists some ports once, and the whole set is sometimes
    spoiled by one negative or too-wide value or one port listed twice."""
    records = []
    for __ in range(draw(st.integers(0, 30))):
        ports = draw(st.lists(st.sampled_from(sorted(_WIDTHS)), unique=True))
        records.append([(port, draw(st.integers(0, 2 ** _WIDTHS[port] - 1)))
                        for port in ports])
    spoil = draw(st.sampled_from([None, None, "negative", "wide", "twice"]))
    listed = [k for k, values in enumerate(records) if values]
    if spoil and listed:
        k = draw(st.sampled_from(listed))
        port, value = records[k][0]
        if spoil == "negative":
            records[k][0] = (port, -1)
        elif spoil == "wide":
            records[k][0] = (port, 2 ** _WIDTHS[port])
        else:
            records[k].append((port, value))
    return records


@given(_records_values())
@settings(max_examples=80, deadline=None)
def test_to_pattern_set_matches_per_record_add_words(records_values):
    """The column-wise ``to_pattern_set`` packs what the per-pattern
    reference ``add_words`` packs record by record, with missing ports 0, and raises NetlistError exactly
    when that reference does (negative or too-wide value, a port listed
    twice in one record)."""
    module = _ported_module()
    records = [StimulusRecord(cc=k, block=0, warp=0, lane=k % 4, pc=k,
                              values=tuple(values), thread=k % 4)
               for k, values in enumerate(records_values)]
    report = PatternReport(module, records)
    reference = dict.fromkeys(module.netlist.inputs, 0)
    try:
        for k, record in enumerate(records):
            add_words(reference, k, [(module.input_words[port], value)
                                     for port, value in record.values])
    except NetlistError:
        with pytest.raises(NetlistError):
            report.to_pattern_set()
        return
    patterns = report.to_pattern_set()
    assert patterns.count == len(records)
    assert dict(patterns.packed) == reference
