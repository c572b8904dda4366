"""Experiment A2 — cost comparison against prior-work iterative compaction.

The paper's headline advantage (Sections I, IV, V): the proposed method
needs ONE logic simulation and ONE fault simulation per PTP, while prior
CPU-oriented techniques [13]-[16] "require as many fault simulations as the
number of instructions in a TP".  This benchmark compacts the same IMM-style
PTP with both methods and reports fault-simulation counts and wall time.
"""

import time

from conftest import run_once
from repro.baselines import compact_iteratively
from repro.core import CompactionPipeline
from repro.stl import generate_imm


def test_single_fault_sim_vs_iterative(benchmark, experiment):
    module = experiment.modules["decoder_unit"]
    gpu = experiment.gpu
    # A dedicated mid-size PTP keeps the baseline tractable (it is O(SBs)
    # fault simulations) while leaving real redundancy to remove.
    ptp = generate_imm(seed=7, num_sbs=40)

    def run_both():
        t0 = time.perf_counter()
        ours = CompactionPipeline(module, gpu=gpu).compact(ptp,
                                                           evaluate=False)
        ours_seconds = time.perf_counter() - t0
        theirs = compact_iteratively(ptp, module, gpu=gpu)
        return ours, ours_seconds, theirs

    ours, ours_seconds, theirs = run_once(benchmark, run_both)

    print()
    print("ABLATION A2: proposed method vs iterative baseline "
          "(IMM-style PTP, {} instructions)".format(ptp.size))
    print("  proposed : {:4d} fault sim(s), {:7.2f}s, size {:+.2f}%".format(
        ours.fault_simulations, ours_seconds,
        ours.size_reduction_percent))
    print("  iterative: {:4d} fault sim(s), {:7.2f}s, size {:+.2f}%".format(
        theirs.fault_simulations, theirs.wall_seconds,
        theirs.size_reduction_percent))
    ratio = theirs.wall_seconds / max(ours_seconds, 1e-9)
    print("  wall-time ratio: {:.1f}x".format(ratio))

    assert ours.fault_simulations == 1
    assert theirs.fault_simulations >= 40
    assert theirs.wall_seconds > ours_seconds
    # Quality stays comparable: both remove a similar amount of code.
    assert ours.compacted_size <= ptp.size
    assert abs(ours.compacted_size - theirs.compacted_size) <= 0.5 * ptp.size
