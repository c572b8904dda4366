"""Stage-5 FC evaluation: observabilities, reversal, combination."""

import pytest

from repro.core.fc_eval import combined_fc, evaluate_fc
from repro.core.tracing import trace_and_pack
from repro.errors import CompactionError
from repro.faults import FaultList, FaultSimulator
from repro.stl import generate_imm, generate_rand


def _evaluate(ptp, module, gpu, reverse_patterns=False, **kwargs):
    """Trace and pack *ptp*, then evaluate it on a fresh simulator."""
    traced = trace_and_pack(ptp, module, gpu,
                            reverse_patterns=reverse_patterns)
    return evaluate_fc(traced, FaultSimulator(module.netlist), **kwargs)


def test_default_observability_follows_ptp(du_module, sp_module, gpu):
    imm = generate_imm(seed=3, num_sbs=4)
    rand = generate_rand(seed=3, num_sbs=4)
    assert _evaluate(imm, du_module, gpu).observability == "module"
    assert _evaluate(rand, sp_module, gpu).observability == "signature"


def test_fc_against_full_list_by_default(du_module, gpu):
    imm = generate_imm(seed=3, num_sbs=6)
    evaluation = _evaluate(imm, du_module, gpu)
    total = len(FaultList(du_module.netlist))
    assert evaluation.fc_percent == pytest.approx(
        100.0 * len(evaluation.detected) / total)
    assert 0.0 < evaluation.fc_percent < 100.0
    assert evaluation.pattern_count == imm.size  # one DU pattern per instr


def test_fc_against_subset_list_keeps_subset_denominator(du_module, gpu):
    imm = generate_imm(seed=3, num_sbs=6)
    full = FaultList(du_module.netlist)
    half = FaultList(du_module.netlist, list(full)[: len(full) // 2])
    evaluation = _evaluate(imm, du_module, gpu, fault_list=half)
    assert evaluation.detected <= set(half)


def test_reversed_patterns_same_fc(du_module, gpu):
    """Detection is order-independent; only first-detection attribution
    (used by labeling) changes with order."""
    imm = generate_imm(seed=3, num_sbs=6)
    forward = _evaluate(imm, du_module, gpu)
    backward = _evaluate(imm, du_module, gpu, reverse_patterns=True)
    assert forward.detected == backward.detected


def test_combined_fc_is_union(du_module, gpu):
    a = _evaluate(generate_imm(seed=3, num_sbs=5), du_module, gpu)
    b = _evaluate(generate_imm(seed=99, num_sbs=5), du_module, gpu)
    total = len(FaultList(du_module.netlist))
    union_fc = combined_fc([a.detected, b.detected], total)
    assert union_fc >= max(a.fc_percent, b.fc_percent)
    assert union_fc == pytest.approx(
        100.0 * len(a.detected | b.detected) / total)


def test_combined_fc_empty():
    assert combined_fc([], 100) == 0.0
    assert combined_fc([], 0) == 0.0


@pytest.mark.parametrize("observability", ["Module", "spt", ""])
def test_unknown_observability_is_rejected(du_module, gpu, observability):
    imm = generate_imm(seed=3, num_sbs=2)
    with pytest.raises(CompactionError, match="observability"):
        _evaluate(imm, du_module, gpu, observability=observability)


def test_evaluation_reads_the_traced_patterns(du_module, gpu):
    """The evaluation simulates the pattern set it is handed, through the
    given simulate step, and reports the tracing's duration."""
    traced = trace_and_pack(generate_imm(seed=3, num_sbs=4), du_module, gpu)
    simulator = FaultSimulator(du_module.netlist)
    seen = []

    def simulate(patterns, fault_list):
        seen.append(patterns)
        return simulator.run(patterns, fault_list)

    evaluation = evaluate_fc(traced, simulator, simulate=simulate)
    assert seen == [traced.patterns]
    assert evaluation.cycles == traced.tracing.cycles
    assert evaluation.pattern_count == traced.patterns.count
    assert evaluation.detected == evaluate_fc(traced, simulator).detected
