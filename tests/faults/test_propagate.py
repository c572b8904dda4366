"""Event-driven propagation: schedule structure + cone-walk equivalence.

The load-bearing test is the hypothesis oracle: over random netlists,
random pattern sets, and the full uncollapsed fault list, the event
engine must be bit-identical to the cone-walk engine — same
detection words, same first detections, same SpT signature verdicts
(including truncated MISR widths), also on netlists whose outputs observe
only part of their logic —
and on either engine ``run``'s first detections must be the lowest set
bits of ``detection_words``.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FaultSimError
from repro.faults import OUTPUT_PIN, FaultList, FaultSimulator, StuckAtFault
from repro.faults.fault import enumerate_faults
from repro.faults.propagate import EventDrivenEngine, PropagationSchedule
from repro.netlist import GateType, LogicSimulator, Netlist
from repro.netlist.gates import ARITY

from ..pattern_rows import pattern_set


def _random_netlist(rng, num_inputs=4, num_gates=18, num_outputs=3,
                    subset=False):
    """A random netlist; with *subset*, only a random non-empty subset of
    its candidate outputs is marked, leaving the rest of the logic
    unobserved."""
    nl = Netlist("rand")
    nets = [nl.add_input() for __ in range(num_inputs)]
    for __ in range(num_gates):
        gate_type = rng.choice([GateType.AND, GateType.OR, GateType.XOR,
                                GateType.NAND, GateType.NOR, GateType.NOT,
                                GateType.XNOR, GateType.MUX, GateType.BUF])
        ins = [rng.choice(nets) for __ in range(ARITY[gate_type])]
        nets.append(nl.add_gate(gate_type, *ins))
    outputs = rng.sample(nets[-(num_outputs * 3):], num_outputs)
    if subset:
        outputs = rng.sample(outputs, rng.randrange(1, num_outputs + 1))
    for net in outputs:
        nl.mark_output(net)
    nl.finalize()
    return nl


def _random_patterns(rng, nl, count):
    return pattern_set(nl, [{net: rng.getrandbits(1) for net in nl.inputs}
                            for __ in range(count)])


def _pair(nl):
    return (FaultSimulator(nl, engine="event"),
            FaultSimulator(nl, engine="cone"))


# -- the equivalence oracle --------------------------------------------------

@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_event_engine_is_bit_identical_to_cone_walk(seed):
    rng = random.Random(seed)
    nl = _random_netlist(rng)
    patterns = _random_patterns(rng, nl, rng.randrange(1, 14))
    fault_list = FaultList(nl, enumerate_faults(nl, collapse=False))
    event, cone = _pair(nl)
    assert (event.detection_words(patterns, fault_list)
            == cone.detection_words(patterns, fault_list))
    assert (event.run(patterns, fault_list).first_detection
            == cone.run(patterns, fault_list).first_detection)


@given(st.integers(0, 2 ** 31 - 1), st.sampled_from([0, 1, 63, 64, 65]),
       st.booleans())
@settings(max_examples=25, deadline=None)
def test_run_keeps_the_lowest_set_bit_of_detection_words(seed, count,
                                                         empty):
    """Pattern counts on both sides of one 64-bit limb, no patterns at
    all, and an empty fault list: on both engines ``run`` holds exactly
    the lowest set bit of each ``detection_words`` word, and the two
    engines' words agree."""
    rng = random.Random(seed)
    nl = _random_netlist(rng)
    patterns = _random_patterns(rng, nl, count)
    fault_list = FaultList(nl, [] if empty else enumerate_faults(
        nl, collapse=False))
    words = {}
    for simulator in _pair(nl):
        result = simulator.run(patterns, fault_list)
        words[simulator.engine] = simulator.detection_words(patterns,
                                                            fault_list)
        assert result.pattern_count == count
        assert result.fault_list is fault_list
        assert len(words[simulator.engine]) == len(fault_list)
        for word, first in zip(words[simulator.engine],
                               result.first_detection):
            assert 0 <= word < 1 << count
            assert first == ((word & -word).bit_length() - 1 if word
                             else None)
    assert words["event"] == words["cone"]


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=15, deadline=None)
def test_event_engine_matches_cone_under_subset_observability(seed):
    rng = random.Random(seed)
    nl = _random_netlist(rng, subset=True)
    patterns = _random_patterns(rng, nl, 8)
    fault_list = FaultList(nl, enumerate_faults(nl, collapse=False))
    event, cone = _pair(nl)
    assert (event.detection_words(patterns, fault_list)
            == cone.detection_words(patterns, fault_list))


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=15, deadline=None)
def test_event_signature_verdicts_match_cone(seed):
    rng = random.Random(seed)
    nl = _random_netlist(rng)
    count = rng.randrange(2, 12)
    patterns = _random_patterns(rng, nl, count)
    result_word = list(nl.outputs)
    # Two interleaved threads plus (sometimes) a truncated MISR.
    sequences = {(0, t): [k for k in range(count) if k % 2 == t]
                 for t in range(2)}
    misr_width = rng.choice([None, max(1, len(result_word) - 1)])
    fault_list = FaultList(nl, enumerate_faults(nl, collapse=False))
    event, cone = _pair(nl)
    ev_sig = event.run_signature(patterns, fault_list, result_word,
                                 sequences, misr_width=misr_width)
    cw_sig = cone.run_signature(patterns, fault_list, result_word,
                                sequences, misr_width=misr_width)
    assert ev_sig == cw_sig
    assert (event.detection_words(patterns, fault_list)
            == cone.detection_words(patterns, fault_list))
    assert (event.run(patterns, fault_list).first_detection
            == cone.run(patterns, fault_list).first_detection)


# -- schedule structure ------------------------------------------------------

def test_schedule_levels_fanout_and_cones_match_netlist():
    rng = random.Random(11)
    nl = _random_netlist(rng, num_gates=24)
    schedule = PropagationSchedule(nl)
    assert schedule.depth == nl.logic_depth
    for gate in nl.gates:
        assert schedule.gate_level[gate.index] == nl.net_level(gate.output)
        assert schedule.gate_level[gate.index] >= 1
        for net in gate.inputs:
            assert nl.net_level(net) < schedule.gate_level[gate.index]
    for net in range(nl.num_nets):
        assert list(schedule.fanout[net]) == list(nl.fanout_gates(net))
        assert schedule.cone_size(net) == len(nl.cone_from_net(net))


def test_schedule_reach_marks_exactly_the_input_cones_of_targets():
    rng = random.Random(12)
    nl = _random_netlist(rng, num_gates=24)
    schedule = PropagationSchedule(nl)
    targets = frozenset(nl.outputs)
    reach = schedule.reach_from(targets)
    for net in range(nl.num_nets):
        # A net reaches the targets iff it is one or some target's driver
        # lies in its fanout cone.
        cone_nets = {net} | {nl.gates[g].output for g in nl.cone_from_net(
            net)}
        assert reach[net] == bool(cone_nets & targets)
    # Cached per target set (frozenset-keyed).
    assert schedule.reach_from(targets) is reach


def test_schedule_seed_net_for_stem_and_pin_faults():
    nl = Netlist("seed")
    a = nl.add_input()
    b = nl.add_input()
    out = nl.add_gate(GateType.AND, a, b)
    nl.mark_output(out)
    nl.finalize()
    schedule = PropagationSchedule(nl)
    assert schedule.seed_net(StuckAtFault(a, None, OUTPUT_PIN, 0)) == a
    assert schedule.seed_net(StuckAtFault(a, 0, 0, 1)) == out


# -- engine behaviour --------------------------------------------------------

def _dying_chain():
    """a AND 0-held b, then a BUF chain: a stem fault on `a` is excited
    but its effect dies at the first gate."""
    nl = Netlist("chain")
    a = nl.add_input()
    b = nl.add_input()
    net = nl.add_gate(GateType.AND, a, b)
    for __ in range(4):
        net = nl.add_gate(GateType.BUF, net)
    nl.mark_output(net)
    nl.finalize()
    return nl, a, b


def test_frontier_death_stops_the_walk_early():
    nl, a, b = _dying_chain()
    patterns = pattern_set(nl, [{a: 1, b: 0}])
    engine = EventDrivenEngine(nl)
    good = LogicSimulator(nl).run(patterns)
    good_list = [0] * nl.num_nets
    for net, value in good.items():
        good_list[net] = value
    fault = StuckAtFault(a, None, OUTPUT_PIN, 0)
    faulty, changed = engine.propagate(fault, good_list, patterns.mask)
    # Only the AND was evaluated; it killed the effect (0 AND 0 == 1 AND 0)
    # and none of the 4 downstream BUFs ran.
    assert engine.last_evaluated == 1
    assert changed == [a]
    assert faulty[nl.outputs[0]] == good_list[nl.outputs[0]]


def test_gate_reading_the_seed_twice_is_evaluated_once():
    """A gate with the seed net on both pins is scheduled once, so its
    output is listed once among the changed nets."""
    nl = Netlist("twice")
    a = nl.add_input()
    n = nl.add_gate(GateType.NOT, a)
    out = nl.add_gate(GateType.NAND, n, n)
    nl.mark_output(out)
    nl.finalize()
    patterns = pattern_set(nl, [{a: 0}])
    good_list = [0] * nl.num_nets
    for net, value in LogicSimulator(nl).run(patterns).items():
        good_list[net] = value
    engine = EventDrivenEngine(nl)
    fault = StuckAtFault(n, None, OUTPUT_PIN, 0)
    faulty, changed = engine.propagate(fault, good_list, patterns.mask)
    assert changed == [n, out]
    assert engine.last_evaluated == 1


def test_unexcited_fault_short_circuits():
    nl, a, b = _dying_chain()
    patterns = pattern_set(nl, [{a: 1, b: 0}])
    engine = EventDrivenEngine(nl)
    good_list = [0] * nl.num_nets
    good_list[a] = 1
    fault = StuckAtFault(a, None, OUTPUT_PIN, 1)  # a already 1 everywhere
    assert engine.seed_value(fault, good_list, patterns.mask) is None
    assert engine.propagate(fault, good_list, patterns.mask) == (None, None)


def test_event_stats_report_skipped_gates_and_cone_reports_none():
    nl, a, b = _dying_chain()
    patterns = pattern_set(nl, [{a: 1, b: 0}])
    fault_list = FaultList(nl, [StuckAtFault(a, None, OUTPUT_PIN, 0)])
    event, cone = _pair(nl)
    event.run(patterns, fault_list)
    cone.run(patterns, fault_list)
    # The static cone of `a` holds 5 gates; the frontier died after 1.
    assert event.stats["gates_evaluated"] == 1
    assert event.stats["gates_skipped"] == 4
    assert cone.stats["gates_skipped"] == 0
    assert cone.stats["gates_evaluated"] == 1


def test_unobservable_cone_head_is_pruned():
    # y's cone (y -> z) drives no output, only x is one, so its faults
    # never propagate at all.
    nl = Netlist("prune")
    a = nl.add_input()
    x = nl.add_gate(GateType.NOT, a)
    y = nl.add_gate(GateType.BUF, a)
    nl.add_gate(GateType.BUF, y)
    nl.mark_output(x)
    nl.finalize()
    patterns = pattern_set(nl, [{a: 0}])
    fault_list = FaultList(nl, [StuckAtFault(y, 1, OUTPUT_PIN, 1)])
    event, cone = _pair(nl)
    result = event.run(patterns, fault_list)
    assert result.first_detection == [None]
    assert event.stats["faults_pruned"] == 1
    assert event.stats["gates_evaluated"] == 0
    assert cone.detection_words(patterns, fault_list) == [0]


def test_unknown_engine_is_rejected():
    nl, __, __ = _dying_chain()
    for engine in ("warp", "batch"):
        with pytest.raises(FaultSimError):
            FaultSimulator(nl, engine=engine)


def test_fault_grouping_keeps_fault_list_order():
    # Faults sharing a cone head, interleaved with another head's, keep
    # their detection words at their original fault-list positions.
    nl = Netlist("group")
    a = nl.add_input()
    b = nl.add_input()
    g = nl.add_gate(GateType.AND, a, b)
    nl.mark_output(g)
    nl.finalize()
    patterns = pattern_set(nl, [
        {a: 1, b: 1},
        {a: 0, b: 1}])
    faults = [
        StuckAtFault(g, 0, OUTPUT_PIN, 0),   # head g
        StuckAtFault(a, None, OUTPUT_PIN, 1),  # head a
        StuckAtFault(a, 0, 0, 0),            # pin fault, head g again
        StuckAtFault(g, 0, OUTPUT_PIN, 1),   # head g
    ]
    fault_list = FaultList(nl, faults)
    event, cone = _pair(nl)
    words = event.detection_words(patterns, fault_list)
    assert words == cone.detection_words(patterns, fault_list)
    assert words == [0b01, 0b10, 0b01, 0b10]
