"""Experiment T2 — Table II: compaction of the Decoder Unit PTPs.

Runs the five-stage pipeline on IMM, MEM, and CNTRL in the paper's order
(fault dropping carried from one PTP to the next) and prints compacted
size / duration / FC-delta rows next to the published Table II.

Shape checks (paper values in parentheses):
* IMM and MEM compact heavily (-97.30% / -98.64% size);
* MEM — compacted after IMM under dropping — compacts at least as hard as
  IMM in relative terms;
* CNTRL compacts moderately and its *duration* compacts less than its
  *size* (-73.51% size vs -36.95% duration: the parametric loop survives);
* FC deltas are small for IMM and CNTRL (+0.06 / -0.00).
"""

from conftest import run_once
from repro.analysis import compaction_rows, paper_data, render_compaction_table


def test_table2_decoder_unit(benchmark, experiment):
    rows = run_once(benchmark,
                    lambda: experiment.compaction_table(paper_data.TABLE2))
    print()
    print(render_compaction_table(
        compaction_rows(rows, paper_data.TABLE2),
        "TABLE II. COMPACTION RESULTS, DECODER UNIT PTPS "
        "(measured | paper)"))

    imm, mem, cntrl = rows["IMM"], rows["MEM"], rows["CNTRL"]
    # Pseudorandom DU PTPs compact massively.
    assert imm.size_reduction_percent < -55.0
    assert mem.size_reduction_percent < -55.0
    # MEM rides IMM's fault dropping: compacts at least as hard as IMM.
    assert mem.size_reduction_percent <= imm.size_reduction_percent + 1.0
    # CNTRL: duration compacts less than size (the inadmissible loop).
    assert cntrl.size_reduction_percent < -15.0
    assert cntrl.duration_reduction_percent > (
        cntrl.size_reduction_percent - 1.0)
    # FC deltas: IMM exactly preserved (first PTP, context-free patterns),
    # others small.
    assert abs(imm.fc_diff) < 0.5
    assert abs(cntrl.fc_diff) < 5.0
    # One fault simulation drove each compaction.
    for outcome in (imm, mem, cntrl):
        assert outcome.fault_simulations == 3  # 1 compaction + 2 validation
