"""Event-driven propagation: schedule structure + cone-walk equivalence.

The load-bearing test is the hypothesis oracle: over random netlists,
random pattern sets, and the full uncollapsed fault list, the event
engine must be bit-identical to the cone-walk engine — same
detection words, same first detections, same SpT signature verdicts
(including truncated MISR widths), under full and subset observability.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FaultSimError
from repro.faults import OUTPUT_PIN, FaultList, FaultSimulator, StuckAtFault
from repro.faults.fault import enumerate_faults
from repro.faults.propagate import _OPCODE, EventDrivenEngine, PropagationSchedule, evaluate_opcode
from repro.netlist import GateType, LogicSimulator, Netlist, PatternSet
from repro.netlist.gates import ARITY, evaluate


def _random_netlist(rng, num_inputs=4, num_gates=18, num_outputs=3):
    nl = Netlist("rand")
    nets = [nl.add_input() for __ in range(num_inputs)]
    for __ in range(num_gates):
        gate_type = rng.choice([GateType.AND, GateType.OR, GateType.XOR,
                                GateType.NAND, GateType.NOR, GateType.NOT,
                                GateType.XNOR, GateType.MUX, GateType.BUF])
        ins = [rng.choice(nets) for __ in range(ARITY[gate_type])]
        nets.append(nl.add_gate(gate_type, *ins))
    for net in rng.sample(nets[-(num_outputs * 3):], num_outputs):
        nl.mark_output(net)
    nl.finalize()
    return nl


def _random_patterns(rng, nl, count):
    patterns = PatternSet(nl)
    for __ in range(count):
        patterns.add({net: rng.getrandbits(1) for net in nl.inputs})
    return patterns


def _pair(nl, observed=None):
    return (FaultSimulator(nl, observed_outputs=observed, engine="event"),
            FaultSimulator(nl, observed_outputs=observed, engine="cone"))


# -- the equivalence oracle --------------------------------------------------

@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_event_engine_is_bit_identical_to_cone_walk(seed):
    rng = random.Random(seed)
    nl = _random_netlist(rng)
    patterns = _random_patterns(rng, nl, rng.randrange(1, 14))
    fault_list = FaultList(nl, enumerate_faults(nl, collapse=False))
    event, cone = _pair(nl)
    ev = event.run(patterns, fault_list)
    cw = cone.run(patterns, fault_list)
    assert ev.detection_words == cw.detection_words
    assert ev.first_detection == cw.first_detection


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=15, deadline=None)
def test_event_engine_matches_cone_under_subset_observability(seed):
    rng = random.Random(seed)
    nl = _random_netlist(rng)
    patterns = _random_patterns(rng, nl, 8)
    observed = rng.sample(list(nl.outputs),
                          rng.randrange(1, len(set(nl.outputs)) + 1))
    observed = list(dict.fromkeys(observed))
    fault_list = FaultList(nl, enumerate_faults(nl, collapse=False))
    event, cone = _pair(nl, observed=observed)
    ev = event.run(patterns, fault_list)
    cw = cone.run(patterns, fault_list)
    assert ev.detection_words == cw.detection_words


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
    ev_result, ev_sig = event.run_signature(patterns, fault_list,
                                            result_word, sequences,
                                            misr_width=misr_width)
    cw_result, cw_sig = cone.run_signature(patterns, fault_list,
                                           result_word, sequences,
                                           misr_width=misr_width)
    assert ev_result.detection_words == cw_result.detection_words
    assert ev_result.first_detection == cw_result.first_detection
    assert ev_sig == cw_sig


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


def test_evaluate_opcode_matches_gate_evaluate():
    rng = random.Random(13)
    mask = (1 << 6) - 1
    for gate_type, opcode in _OPCODE.items():
        for __ in range(20):
            values = tuple(rng.getrandbits(6)
                           for __ in range(ARITY[gate_type]))
            assert (evaluate_opcode(opcode, values, mask)
                    == evaluate(gate_type, values, mask))
    with pytest.raises(FaultSimError):
        evaluate_opcode(99, (0,), mask)


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
    patterns = PatternSet(nl)
    patterns.add({a: 1, b: 0})
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


def test_unexcited_fault_short_circuits():
    nl, a, b = _dying_chain()
    patterns = PatternSet(nl)
    patterns.add({a: 1, b: 0})
    engine = EventDrivenEngine(nl)
    good_list = [0] * nl.num_nets
    good_list[a] = 1
    fault = StuckAtFault(a, None, OUTPUT_PIN, 1)  # a already 1 everywhere
    assert engine.seed_value(fault, good_list, patterns.mask) is None
    assert engine.propagate(fault, good_list, patterns.mask) == (None, None)


def test_event_stats_report_skipped_gates_and_cone_reports_none():
    nl, a, b = _dying_chain()
    patterns = PatternSet(nl)
    patterns.add({a: 1, b: 0})
    fault_list = FaultList(nl, [StuckAtFault(a, None, OUTPUT_PIN, 0)])
    event, cone = _pair(nl)
    event.run(patterns, fault_list)
    cone.run(patterns, fault_list)
    # The static cone of `a` holds 5 gates; the frontier died after 1.
    assert event.stats["gates_evaluated"] == 1
    assert event.stats["gates_skipped"] == 4
    assert event.stats["gates_visited"] == 1
    assert cone.stats["gates_skipped"] == 0
    assert cone.stats["gates_visited"] == 5
    assert cone.stats["gates_evaluated"] == 1


def test_unobservable_cone_head_is_pruned():
    # y's cone contains no observed output when observation is narrowed
    # to x, so its faults never propagate at all.
    nl = Netlist("prune")
    a = nl.add_input()
    x = nl.add_gate(GateType.NOT, a)
    y = nl.add_gate(GateType.BUF, a)
    z = nl.add_gate(GateType.BUF, y)
    nl.mark_output(x)
    nl.mark_output(z)
    nl.finalize()
    patterns = PatternSet(nl)
    patterns.add({a: 0})
    fault_list = FaultList(nl, [StuckAtFault(y, 1, OUTPUT_PIN, 1)])
    event = FaultSimulator(nl, observed_outputs=[x], engine="event")
    result = event.run(patterns, fault_list)
    assert result.detection_words == [0]
    assert event.stats["faults_pruned"] == 1
    assert event.stats["gates_evaluated"] == 0
    cone = FaultSimulator(nl, observed_outputs=[x], engine="cone")
    assert cone.run(patterns, fault_list).detection_words == [0]


def test_unknown_engine_is_rejected():
    nl, __, __ = _dying_chain()
    for engine in ("warp", "batch"):
        with pytest.raises(FaultSimError):
            FaultSimulator(nl, engine=engine)


def test_fault_grouping_keeps_fault_list_order():
    # Faults sharing a cone head are grouped for setup, but the detection
    # words must land at their original fault-list positions.
    nl = Netlist("group")
    a = nl.add_input()
    b = nl.add_input()
    g = nl.add_gate(GateType.AND, a, b)
    nl.mark_output(g)
    nl.finalize()
    patterns = PatternSet(nl)
    patterns.add({a: 1, b: 1})
    patterns.add({a: 0, b: 1})
    faults = [
        StuckAtFault(g, 0, OUTPUT_PIN, 0),   # head g
        StuckAtFault(a, None, OUTPUT_PIN, 1),  # head a
        StuckAtFault(a, 0, 0, 0),            # pin fault, head g again
        StuckAtFault(g, 0, OUTPUT_PIN, 1),   # head g
    ]
    fault_list = FaultList(nl, faults)
    event, cone = _pair(nl)
    ev = event.run(patterns, fault_list)
    cw = cone.run(patterns, fault_list)
    assert ev.detection_words == cw.detection_words
    assert ev.detection_words == [0b01, 0b10, 0b01, 0b10]
