"""Stage-5 FC evaluation: observabilities, reversal, combination."""

import pytest

from repro.core.fc_eval import combined_fc, evaluate_fc
from repro.faults import FaultList
from repro.stl import generate_imm, generate_rand


def test_default_observability_follows_ptp(du_module, sp_module, gpu):
    imm = generate_imm(seed=3, num_sbs=4)
    rand = generate_rand(seed=3, num_sbs=4)
    assert evaluate_fc(imm, du_module, gpu=gpu).observability == "module"
    assert evaluate_fc(rand, sp_module, gpu=gpu).observability == "signature"


def test_fc_against_full_list_by_default(du_module, gpu):
    imm = generate_imm(seed=3, num_sbs=6)
    evaluation = evaluate_fc(imm, du_module, gpu=gpu)
    total = len(FaultList(du_module.netlist))
    assert evaluation.fc_percent == pytest.approx(
        100.0 * len(evaluation.detected) / total)
    assert 0.0 < evaluation.fc_percent < 100.0
    assert evaluation.pattern_count == imm.size  # one DU pattern per instr


def test_fc_against_subset_list_keeps_subset_denominator(du_module, gpu):
    imm = generate_imm(seed=3, num_sbs=6)
    full = FaultList(du_module.netlist)
    half = FaultList(du_module.netlist, list(full)[: len(full) // 2])
    evaluation = evaluate_fc(imm, du_module, gpu=gpu, fault_list=half)
    assert evaluation.detected <= set(half)


def test_reversed_patterns_same_fc(du_module, gpu):
    """Detection is order-independent; only first-detection attribution
    (used by labeling) changes with order."""
    imm = generate_imm(seed=3, num_sbs=6)
    forward = evaluate_fc(imm, du_module, gpu=gpu)
    backward = evaluate_fc(imm, du_module, gpu=gpu, reverse_patterns=True)
    assert forward.detected == backward.detected


def test_combined_fc_is_union(du_module, gpu):
    a = evaluate_fc(generate_imm(seed=3, num_sbs=5), du_module, gpu=gpu)
    b = evaluate_fc(generate_imm(seed=99, num_sbs=5), du_module, gpu=gpu)
    total = len(FaultList(du_module.netlist))
    union_fc = combined_fc([a.detected, b.detected], total)
    assert union_fc >= max(a.fc_percent, b.fc_percent)
    assert union_fc == pytest.approx(
        100.0 * len(a.detected | b.detected) / total)


def test_combined_fc_empty():
    assert combined_fc([], 100) == 0.0
    assert combined_fc([], 0) == 0.0
