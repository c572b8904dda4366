#!/usr/bin/env python3
"""Inspect the ATPG -> PTP conversion pipeline on the SP core.

Shows what the paper's "parser tool" does: the raw ATPG pattern stream
(op / cmp / operand fields), which patterns have no equivalent GPU
instruction (partial conversion), how the survivors are grouped by
micro-op into Small Blocks, and the resulting SASS-like assembly.

Run:  python examples/atpg_to_ptp.py
"""

from collections import Counter

from repro.faults import FaultList
from repro.isa import disassemble
from repro.netlist.modules import SPOp, build_sp_core
from repro.stl import generate_tpgen
from repro.stl.generators.atpg_based import _sp_pattern_tuples


def main():
    sp_core = build_sp_core(8)
    fault_list = FaultList(sp_core.netlist)
    print("SP core: {} gates, {} collapsed stuck-at faults".format(
        sp_core.netlist.num_gates, len(fault_list)))

    ptp, atpg = generate_tpgen(sp_core, seed=42, atpg_random_patterns=96,
                               atpg_max_backtracks=8)
    print("ATPG: {} patterns, {:.2f}% fault coverage, {} untestable "
          "({} proven statically), {} aborted".format(
              atpg.patterns.count, atpg.coverage(len(fault_list)),
              len(atpg.untestable), len(atpg.proofs), len(atpg.aborted)))

    tuples = _sp_pattern_tuples(sp_core, atpg)
    valid_codes = {e.value for e in SPOp}
    ops = Counter()
    skipped = 0
    for op_code, cmp_code, a, b, c in tuples:
        if op_code in valid_codes:
            ops[SPOp(op_code).name] += 1
        else:
            skipped += 1
    print("\nPattern op mix (op field of the ATPG cubes):")
    for name, count in ops.most_common():
        print("  {:<5} {:4d}".format(name, count))
    print("  {} pattern(s) skipped: op field encodes no instruction "
          "(partial conversion, as in the paper)".format(skipped))

    print("\nTPGEN PTP: {} instructions in {} Small Blocks".format(
        ptp.size, len(ptp.sb_hints)))
    print("Operand arrays in global memory: {} words".format(
        len(ptp.global_image)))

    start, end = ptp.sb_hints[0]
    print("\nFirst Small Block (pcs {}..{}):".format(start, end - 1))
    print(disassemble(list(ptp.program)[start:end]))
    print("\nFirst 4 per-thread operand words of its 'a' array:")
    first_load = next(i for i in list(ptp.program)[start:end]
                      if i.op.value == "GLD")
    for t in range(4):
        print("  thread {}: 0x{:08X}".format(
            t, ptp.global_image[first_load.imm + t]))


if __name__ == "__main__":
    main()
