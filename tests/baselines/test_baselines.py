"""Prior-work baselines: correctness and the fault-simulation cost gap."""

import pytest

from repro.baselines import compact_iteratively
from repro.core import CompactionPipeline, run_logic_tracing
from repro.stl import generate_imm


@pytest.fixture(scope="module")
def imm():
    return generate_imm(seed=8, num_sbs=8)


def test_iterative_preserves_fc_exactly(du_module, gpu, imm):
    outcome = compact_iteratively(imm, du_module, gpu=gpu)
    assert outcome.compacted_fc == pytest.approx(outcome.original_fc)
    assert outcome.compacted_size <= outcome.original_size


def test_iterative_needs_one_fault_sim_per_candidate(du_module, gpu, imm):
    outcome = compact_iteratively(imm, du_module, gpu=gpu)
    # initial + one per candidate SB + final
    assert outcome.fault_simulations == outcome.candidates_tried + 2
    assert outcome.candidates_tried >= 8


def test_iterative_vs_pipeline_cost_gap(du_module, gpu, imm):
    """The paper's headline: our method uses ONE fault simulation for the
    compaction; the iterative baseline uses one per candidate."""
    pipeline = CompactionPipeline(du_module, gpu=gpu)
    ours = pipeline.compact(imm, evaluate=False)
    theirs = compact_iteratively(imm, du_module, gpu=gpu)
    assert ours.fault_simulations == 1
    assert theirs.fault_simulations > 5 * ours.fault_simulations
    # At this tiny scale every SB may be essential; neither method may
    # grow the program, and both agree when nothing is removable.
    assert ours.compacted_size <= imm.size
    assert theirs.compacted_size <= imm.size


def test_iterative_max_candidates_cap(du_module, gpu, imm):
    outcome = compact_iteratively(imm, du_module, gpu=gpu, max_candidates=3)
    assert outcome.candidates_tried == 3
    assert outcome.fault_simulations == 5


def test_iterative_compacted_is_executable(du_module, gpu, imm):
    outcome = compact_iteratively(imm, du_module, gpu=gpu)
    tracing = run_logic_tracing(outcome.compacted, du_module, gpu=gpu)
    assert tracing.cycles == outcome.compacted_cycles
