"""Additional fault-simulator behaviors: coverage math, result views."""

import pytest

from repro.faults import OUTPUT_PIN, FaultList, FaultSimulator, StuckAtFault
from repro.netlist import GateType, Netlist

from ..pattern_rows import pattern_set


def _nl():
    nl = Netlist("t")
    a = nl.add_input("a")
    b = nl.add_input("b")
    x = nl.add_gate(GateType.OR, a, b)
    nl.mark_output(x)
    nl.finalize()
    return nl, a, b, x


def test_coverage_with_custom_denominator():
    nl, a, b, x = _nl()
    patterns = pattern_set(nl, [{a: 1, b: 0}])
    fl = FaultList(nl, [StuckAtFault(x, 0, OUTPUT_PIN, 0),
                        StuckAtFault(x, 0, OUTPUT_PIN, 1)])
    result = FaultSimulator(nl).run(patterns, fl)
    assert result.num_detected == 1
    assert result.coverage() == pytest.approx(50.0)
    assert result.coverage(total=10) == pytest.approx(10.0)


def test_detected_and_undetected_views():
    nl, a, b, x = _nl()
    patterns = pattern_set(nl, [{a: 1, b: 0}])
    fl = FaultList(nl, [StuckAtFault(x, 0, OUTPUT_PIN, 0),
                        StuckAtFault(x, 0, OUTPUT_PIN, 1)])
    result = FaultSimulator(nl).run(patterns, fl)
    assert result.detected_faults == [fl[0]]
    assert result.undetected_faults == [fl[1]]


def test_coverage_of_empty_list():
    nl, *_ = _nl()
    patterns = pattern_set(nl, [{}])
    result = FaultSimulator(nl).run(patterns, FaultList(nl, []))
    assert result.coverage() == 0.0


def test_identical_fault_lists_give_identical_results():
    nl1, a1, b1, x1 = _nl()
    patterns = pattern_set(nl1, [{a1: av, b1: bv} for av, bv in
                                 ((0, 0), (1, 0), (0, 1), (1, 1))])
    sim = FaultSimulator(nl1)
    assert (sim.run(patterns).first_detection
            == sim.run(patterns).first_detection)
    assert sim.detection_words(patterns) == sim.detection_words(patterns)


def test_detection_word_bits_within_pattern_mask():
    nl, a, b, x = _nl()
    patterns = pattern_set(nl, [{a: av, b: bv}
                                for av, bv in ((1, 1), (0, 0), (1, 0))])
    for word in FaultSimulator(nl).detection_words(patterns):
        assert word >> patterns.count == 0
