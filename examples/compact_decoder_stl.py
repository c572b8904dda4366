#!/usr/bin/env python3
"""Compact the Decoder Unit's slice of an STL (the paper's Table II flow).

Generates the three DU PTPs (IMM, MEM, CNTRL), compacts them with one STL
campaign in the paper's order (fault dropping carried across PTPs, the
STL reassembled in place), and prints every intermediate artifact a test
engineer would inspect: ARC percentages, the labeled-program listing head,
the fault-sim report head, and the final Table-II-shaped rows.

Run:  python examples/compact_decoder_stl.py
"""

from repro.core import (
    partition_ptp,
    run_stl_campaign,
    write_compaction_summary,
    write_fault_sim_report,
    write_labeled_ptp,
)
from repro.netlist.modules import build_decoder_unit
from repro.stl import SelfTestLibrary, generate_cntrl, generate_imm, generate_mem


def head(text, lines=8):
    return "\n".join(text.splitlines()[:lines])


def main():
    decoder_unit = build_decoder_unit()
    stl = SelfTestLibrary([
        generate_imm(seed=1, num_sbs=50),
        generate_mem(seed=1, num_sbs=50),
        generate_cntrl(seed=1, num_sbs=14),
    ])
    print("STL: {} PTPs, {} instructions total".format(len(stl),
                                                       stl.total_size))
    for ptp in stl:
        partition = partition_ptp(ptp)
        print("  {:<6} {:5d} instructions, ARC {:5.1f}%".format(
            ptp.name, ptp.size, partition.arc_percent()))

    total_before = stl.total_size
    report, = run_stl_campaign(stl, {decoder_unit.name: decoder_unit})
    print("\nModule fault list: {} collapsed stuck-at faults".format(
        report.total_faults))
    outcomes = [record.outcome for record in report.records]

    for outcome in outcomes:
        print()
        print(write_compaction_summary(outcome))
        print("-- labeled program (head) " + "-" * 30)
        print(head(write_labeled_ptp(outcome.labeled)))
        print("-- fault sim report (head) " + "-" * 29)
        print(head(write_fault_sim_report(
            outcome.fault_result, outcome.tracing.pattern_report)))

    print("\nReassembled STL: {} -> {} instructions ({:+.2f}%)".format(
        total_before, stl.total_size,
        -100.0 * (total_before - stl.total_size) / total_before))
    print("Cumulative DU fault coverage after dropping: {:.2f}%".format(
        report.coverage_percent))


if __name__ == "__main__":
    main()
