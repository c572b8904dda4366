#!/usr/bin/env python3
"""Compare the one-fault-simulation method against the iterative baseline.

Compacts the same IMM-style PTP two ways — the paper's pipeline and the
iterative remove-and-resimulate baseline ([13]-[16] style) — and prints
fault-simulation counts, wall time, and resulting sizes.

Run:  python examples/baseline_comparison.py
"""

import time

from repro.baselines import compact_iteratively
from repro.core import CompactionPipeline
from repro.netlist.modules import build_decoder_unit
from repro.stl import generate_imm


def main():
    decoder_unit = build_decoder_unit()
    ptp = generate_imm(seed=3, num_sbs=30)
    print("PTP under test: IMM-style, {} instructions\n".format(ptp.size))

    started = time.perf_counter()
    ours = CompactionPipeline(decoder_unit).compact(ptp, evaluate=False)
    ours_seconds = time.perf_counter() - started

    theirs = compact_iteratively(ptp, decoder_unit)

    print("{:<22} {:>10} {:>12} {:>10}".format(
        "method", "fault sims", "wall (s)", "size"))
    print("-" * 58)
    print("{:<22} {:>10} {:>12.2f} {:>10}".format(
        "proposed (1 sim)", ours.fault_simulations, ours_seconds,
        ours.compacted_size))
    print("{:<22} {:>10} {:>12.2f} {:>10}".format(
        "iterative [13-16]", theirs.fault_simulations,
        theirs.wall_seconds, theirs.compacted_size))

    print("\nThe proposed method needs {}x fewer fault simulations than "
          "the iterative baseline.".format(theirs.fault_simulations))


if __name__ == "__main__":
    main()
