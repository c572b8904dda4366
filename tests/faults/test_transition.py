"""Transition-delay fault model (the paper's future-work extension)."""

import pytest

from repro.faults import (
    FALL,
    RISE,
    TransitionFault,
    TransitionFaultSimulator,
    enumerate_transition_faults,
)
from repro.netlist import GateType, Netlist

from ..pattern_rows import pattern_set


def _buf():
    nl = Netlist("buf")
    a = nl.add_input("a")
    out = nl.add_gate(GateType.BUF, a)
    nl.mark_output(out)
    nl.finalize()
    return nl, a, out


def test_enumeration_covers_both_edges():
    nl, a, out = _buf()
    faults = enumerate_transition_faults(nl)
    assert TransitionFault(a, RISE) in faults
    assert TransitionFault(a, FALL) in faults
    assert TransitionFault(out, RISE) in faults
    assert len(faults) == 4


def test_rise_needs_zero_to_one_launch():
    nl, a, out = _buf()
    patterns = pattern_set(nl, [{a: value} for value in (0, 1, 1, 0, 1)])
    sim = TransitionFaultSimulator(nl)
    faults = [TransitionFault(a, RISE)]
    # Launches at pattern 1 (0->1) and 4 (0->1); capture propagates.
    assert sim.detection_words(patterns, faults) == [0b10010]
    assert sim.run(patterns, faults).first_detection == [1]


def test_fall_needs_one_to_zero_launch():
    nl, a, out = _buf()
    patterns = pattern_set(nl, [{a: value} for value in (1, 0, 0, 1, 0)])
    sim = TransitionFaultSimulator(nl)
    faults = [TransitionFault(a, FALL)]
    assert sim.detection_words(patterns, faults) == [0b10010]
    assert sim.run(patterns, faults).first_detection == [1]


def test_first_pattern_never_detects():
    nl, a, out = _buf()
    patterns = pattern_set(nl, [
        {a: 1},  # would need a predecessor for the launch
    ])
    sim = TransitionFaultSimulator(nl)
    result = sim.run(patterns, [TransitionFault(a, RISE)])
    assert result.first_detection == [None]


def test_constant_stream_detects_nothing():
    nl, a, out = _buf()
    patterns = pattern_set(nl, [{a: 1} for __ in range(5)])
    sim = TransitionFaultSimulator(nl)
    result = sim.run(patterns)
    assert result.num_detected == 0


def test_capture_must_propagate():
    # out = AND(a, b): a rise on `a` launched while b=0 is not captured.
    nl = Netlist("and")
    a = nl.add_input("a")
    b = nl.add_input("b")
    out = nl.add_gate(GateType.AND, a, b)
    nl.mark_output(out)
    nl.finalize()
    patterns = pattern_set(nl, [
        {a: 0, b: 0},
        {a: 1, b: 0},  # launch without propagation (b blocks)
        {a: 0, b: 1},
        {a: 1, b: 1},  # launch AND capture
    ])
    sim = TransitionFaultSimulator(nl)
    faults = [TransitionFault(a, RISE)]
    assert sim.detection_words(patterns, faults) == [0b1000]
    assert sim.run(patterns, faults).first_detection == [3]


def test_transition_coverage_below_stuck_at():
    """Transition detection requires launch + capture, so a pattern set's
    transition coverage never exceeds its stem stuck-at coverage."""
    import random

    from repro.faults import FaultList, FaultSimulator
    from repro.netlist.modules import build_sp_core

    sp = build_sp_core(8)
    rng = random.Random(5)
    patterns = sp.pattern_set(
        [[("op", rng.randrange(15)), ("cmp", rng.randrange(6)),
          ("a", rng.getrandbits(8)), ("b", rng.getrandbits(8)),
          ("c", rng.getrandbits(8))] for __ in range(60)])
    transition = TransitionFaultSimulator(sp.netlist).run(patterns)
    stems = [f for f in FaultList(sp.netlist) if f.is_stem()]
    stuck = FaultSimulator(sp.netlist).run(
        patterns, FaultList(sp.netlist, stems))
    assert 0 < transition.num_detected
    assert transition.coverage() <= stuck.coverage() + 1e-9


def test_equivalent_stuck_at_maps_edges_to_capture_values():
    """Slow-to-rise captures as stuck-at-0, slow-to-fall as stuck-at-1
    (the launch drives the net toward the value the slow net misses)."""
    assert TransitionFault(3, RISE).equivalent_stuck_at() == 0
    assert TransitionFault(3, FALL).equivalent_stuck_at() == 1
    nl, a, out = _buf()
    for fault in enumerate_transition_faults(nl):
        expected = 0 if fault.edge == RISE else 1
        assert fault.equivalent_stuck_at() == expected


def test_stem_proxy_builds_the_equivalent_stuck_at_site():
    from repro.errors import FaultSimError
    from repro.faults import OUTPUT_PIN
    from repro.faults.transition import _stem_proxy

    nl, a, out = _buf()
    proxy = _stem_proxy(nl, out, TransitionFault(out, RISE)
                        .equivalent_stuck_at())
    assert proxy.net == out
    assert proxy.gate == nl.driver_of(out)
    assert proxy.pin == OUTPUT_PIN
    assert proxy.stuck_at == 0
    pi_proxy = _stem_proxy(nl, a, 1)
    assert pi_proxy.gate is None and pi_proxy.stuck_at == 1
    with pytest.raises(FaultSimError):
        _stem_proxy(nl, 10 ** 6, 0)


def test_transition_detection_is_equivalent_stuck_at_gated_by_launch():
    """The load-bearing identity of the model: the transition detection
    word is exactly the equivalent stuck-at stem fault's detection word
    masked by the launch cycles."""
    import random

    from repro.faults import FaultSimulator
    from repro.faults.fault import FaultList
    from repro.faults.transition import _stem_proxy

    nl = Netlist("gated")
    a, b, c = (nl.add_input() for __ in range(3))
    g1 = nl.add_gate(GateType.AND, a, b)
    g2 = nl.add_gate(GateType.XOR, g1, c)
    nl.mark_output(g2)
    nl.finalize()
    rng = random.Random(11)
    patterns = pattern_set(nl, [{net: rng.getrandbits(1) for net in nl.inputs}
                                for __ in range(12)])

    transition_faults = enumerate_transition_faults(nl)
    simulator = TransitionFaultSimulator(nl)
    words = simulator.detection_words(patterns, transition_faults)
    assert simulator.run(patterns, transition_faults).first_detection == [
        (word & -word).bit_length() - 1 if word else None for word in words]
    proxies = FaultList(nl, [
        _stem_proxy(nl, f.net, f.equivalent_stuck_at())
        for f in transition_faults])
    stuck = FaultSimulator(nl).detection_words(patterns, proxies)
    good = FaultSimulator(nl)._logic.run(patterns)
    mask = patterns.mask
    for i, fault in enumerate(transition_faults):
        value = good[fault.net]
        if fault.edge == RISE:
            launch = (~(value << 1)) & value & mask
        else:
            launch = (value << 1) & (~value) & mask
        launch &= ~1
        assert words[i] == stuck[i] & launch


def test_campaign_level_transition_mapping_on_generator_ptp(du_module, gpu):
    """Campaign-level mapping check over a real generator PTP's traced
    patterns: every transition detection cycle is also a detection cycle
    of the equivalent stuck-at stem fault (launch gating only removes
    cycles, never adds them)."""
    from repro.core import run_logic_tracing
    from repro.faults import FaultList, FaultSimulator
    from repro.faults.transition import _stem_proxy
    from repro.stl import generate_imm

    ptp = generate_imm(seed=7, num_sbs=10)
    tracing = run_logic_tracing(ptp, du_module, gpu=gpu)
    patterns = tracing.pattern_report.to_pattern_set()

    transition_faults = enumerate_transition_faults(du_module.netlist)
    words = TransitionFaultSimulator(du_module.netlist).detection_words(
        patterns, transition_faults)
    proxies = FaultList(du_module.netlist, [
        _stem_proxy(du_module.netlist, f.net, f.equivalent_stuck_at())
        for f in transition_faults])
    stuck = FaultSimulator(du_module.netlist).detection_words(patterns,
                                                              proxies)

    detected = 0
    for word, stuck_word in zip(words, stuck):
        assert word & ~stuck_word == 0
        detected += 1 if word else 0
    assert 0 < detected < len(transition_faults)


def test_pipeline_stages_compose_with_transition_model(du_module, gpu):
    """Stages 1-4 run unchanged against the transition-fault report
    (Section V: 'the same compaction approach can be adapted')."""
    from repro.core import label_instructions, partition_ptp, reduce_ptp, run_logic_tracing
    from repro.stl import generate_imm

    ptp = generate_imm(seed=21, num_sbs=12)
    tracing = run_logic_tracing(ptp, du_module, gpu=gpu)
    patterns = tracing.pattern_report.to_pattern_set()
    result = TransitionFaultSimulator(du_module.netlist).run(patterns)
    partition = partition_ptp(ptp)
    labeled = label_instructions(ptp, tracing.trace,
                                 tracing.pattern_report,
                                 result.detections_per_pattern())
    reduction = reduce_ptp(labeled, partition)
    assert labeled.num_essential > 0
    assert reduction.compacted.size <= ptp.size
    # The compacted PTP still executes.
    out = run_logic_tracing(reduction.compacted, du_module, gpu=gpu)
    assert out.cycles > 0
