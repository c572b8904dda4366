"""Fault simulator: hand-checked detections + brute-force cross-validation."""

import random

from hypothesis import given, settings, strategies as st

from repro.faults import OUTPUT_PIN, FaultList, FaultSimulator, StuckAtFault
from repro.faults.fault import enumerate_faults
from repro.netlist import GateType, LogicSimulator, Netlist, PatternSet
from repro.netlist.gates import evaluate

from ..pattern_rows import pattern_set


def _and_netlist():
    nl = Netlist("and2")
    a = nl.add_input("a")
    b = nl.add_input("b")
    out = nl.add_gate(GateType.AND, a, b)
    nl.mark_output(out)
    nl.finalize()
    return nl, a, b, out


def test_known_detections_on_and_gate():
    nl, a, b, out = _and_netlist()
    patterns = pattern_set(nl, [
        {a: 1, b: 1},  # detects out s-a-0, a s-a-0, b s-a-0
        {a: 0, b: 1},  # detects out s-a-1, a s-a-1
    ])
    sim = FaultSimulator(nl)
    fl = FaultList(nl, [
        StuckAtFault(out, 0, OUTPUT_PIN, 0),
        StuckAtFault(out, 0, OUTPUT_PIN, 1),
        StuckAtFault(a, None, OUTPUT_PIN, 0),
        StuckAtFault(a, None, OUTPUT_PIN, 1),
        StuckAtFault(b, None, OUTPUT_PIN, 1),
    ])
    result = sim.run(patterns, fl)
    by_fault = dict(zip(fl, result.first_detection))
    assert by_fault[fl[0]] == 0          # out s-a-0 first seen at pattern 0
    assert by_fault[fl[1]] == 1          # out s-a-1 needs the 0-output case
    assert by_fault[fl[2]] == 0          # a s-a-0
    assert by_fault[fl[3]] == 1          # a s-a-1 with a=0,b=1
    assert by_fault[fl[4]] is None       # b s-a-1 never observed (b always 1)


def test_undetected_without_excitation():
    nl, a, b, out = _and_netlist()
    patterns = pattern_set(nl, [{a: 0, b: 0}])
    sim = FaultSimulator(nl)
    fl = FaultList(nl, [StuckAtFault(out, 0, OUTPUT_PIN, 0)])
    result = sim.run(patterns, fl)
    assert result.first_detection == [None]
    assert result.coverage() == 0.0


def test_empty_pattern_set():
    nl, *_ = _and_netlist()
    sim = FaultSimulator(nl)
    result = sim.run(PatternSet(nl))
    assert result.pattern_count == 0
    assert result.num_detected == 0


def test_detections_per_pattern_dropping_vs_not():
    nl, a, b, out = _and_netlist()
    patterns = pattern_set(nl, [
        {a: 1, b: 1},
        {a: 1, b: 1},  # identical pattern: detects again w/o drop
    ])
    sim = FaultSimulator(nl)
    fl = FaultList(nl, [StuckAtFault(out, 0, OUTPUT_PIN, 0)])
    # Dropping: the fault counts once, at its first detecting pattern;
    # the detection word keeps every detecting pattern.
    assert sim.run(patterns, fl).detections_per_pattern() == [1, 0]
    assert sim.detection_words(patterns, fl) == [0b11]


def test_input_pin_fault_is_local_to_gate():
    # b fans out to an AND and an OR; a pin fault on the AND's b-pin must
    # not disturb the OR.
    nl = Netlist("fan")
    a = nl.add_input()
    b = nl.add_input()
    g_and = nl.add_gate(GateType.AND, a, b)   # gate 0
    g_or = nl.add_gate(GateType.OR, a, b)     # gate 1
    nl.mark_output(g_and)
    nl.mark_output(g_or)
    nl.finalize()
    pin_fault = StuckAtFault(b, 0, 1, 1)      # AND pin-b stuck-at-1
    stem_fault = StuckAtFault(b, None, OUTPUT_PIN, 1)
    patterns = pattern_set(nl, [{a: 1, b: 0}])
    sim = FaultSimulator(nl)
    words = sim.detection_words(patterns,
                                FaultList(nl, [pin_fault, stem_fault]))
    # Pin fault flips only the AND output; stem fault also flips the OR.
    assert words == [1, 1]
    values = LogicSimulator(nl).run(patterns)
    assert values[g_or] == 1  # OR already 1: stem fault detected via AND


def test_observed_outputs_subset():
    # The same logic twice: y is an output of the first netlist only, and
    # a fault whose effect reaches only y is detected there alone.
    detected = []
    for observe_y in (True, False):
        nl = Netlist("obs")
        a = nl.add_input()
        x = nl.add_gate(GateType.NOT, a)
        y = nl.add_gate(GateType.BUF, a)
        nl.mark_output(x)
        if observe_y:
            nl.mark_output(y)
        nl.finalize()
        patterns = pattern_set(nl, [{a: 0}])
        fl = FaultList(nl, [StuckAtFault(y, 1, OUTPUT_PIN, 1)])
        detected.append(FaultSimulator(nl).run(patterns, fl).num_detected)
    assert detected == [1, 0]


def _brute_force_detection(nl, fault, assignments):
    """Reference: per-pattern scalar simulation with explicit injection."""
    word = 0
    for k, assignment in enumerate(assignments):
        values = {0: 0, 1: 1}
        values.update(assignment)
        faulty = dict(values)
        if fault.is_stem() and fault.gate is None:
            faulty[fault.net] = fault.stuck_at
        for gate in nl.levelized_gates:
            g_ins = tuple(values[n] for n in gate.inputs)
            values[gate.output] = evaluate(gate.gate_type, g_ins, 1)
            f_ins = tuple(faulty[n] for n in gate.inputs)
            if not fault.is_stem() and fault.gate == gate.index:
                f_ins = (f_ins[:fault.pin] + (fault.stuck_at,)
                         + f_ins[fault.pin + 1:])
            out_val = evaluate(gate.gate_type, f_ins, 1)
            if fault.is_stem() and fault.net == gate.output:
                out_val = fault.stuck_at
            faulty[gate.output] = out_val
        if any(values[o] != faulty[o] for o in nl.outputs):
            word |= 1 << k
    return word


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=12, deadline=None)
def test_fault_sim_matches_brute_force_on_random_netlist(seed):
    rng = random.Random(seed)
    nl = Netlist("rand")
    nets = [nl.add_input() for __ in range(4)]
    for __ in range(18):
        gate_type = rng.choice([GateType.AND, GateType.OR, GateType.XOR,
                                GateType.NAND, GateType.NOR, GateType.NOT,
                                GateType.XNOR, GateType.MUX, GateType.BUF])
        from repro.netlist.gates import ARITY
        ins = [rng.choice(nets) for __ in range(ARITY[gate_type])]
        nets.append(nl.add_gate(gate_type, *ins))
    for net in rng.sample(nets[-8:], 3):
        nl.mark_output(net)
    nl.finalize()

    assignments = [{net: rng.getrandbits(1) for net in nl.inputs}
                   for __ in range(12)]
    patterns = pattern_set(nl, assignments)

    fault_list = FaultList(nl, enumerate_faults(nl, collapse=False))
    words = FaultSimulator(nl).detection_words(patterns, fault_list)
    for fault, word in zip(fault_list, words):
        assert word == _brute_force_detection(nl, fault, assignments), (
            fault.describe(nl))


# -- the Fault Sim Report counts ---------------------------------------------

def _naive_detections_per_pattern(words, pattern_count):
    """Reference implementation: test every bit of every word directly and
    count each fault at its lowest detecting pattern only."""
    counts = [0] * pattern_count
    for word in words:
        for k in range(pattern_count):
            if (word >> k) & 1:
                counts[k] += 1
                break
    return counts


@given(st.lists(st.integers(min_value=0, max_value=(1 << 20) - 1),
                min_size=0, max_size=12))
@settings(max_examples=60, deadline=None)
def test_detections_per_pattern_matches_naive_bit_loop(words):
    from repro.faults.fault_sim import FaultSimResult
    from repro.netlist.simulator import iter_set_bits

    pattern_count = 20
    result = FaultSimResult.from_words(list(range(len(words))),
                                       pattern_count, iter(words))
    assert (result.detections_per_pattern()
            == _naive_detections_per_pattern(words, pattern_count))
    for word, first in zip(words, result.first_detection):
        bits = list(iter_set_bits(word))
        assert bits == sorted(bits)
        assert (bits[0] if bits else None) == first


def test_detections_per_pattern_counts_sum_to_bitcounts():
    from repro.faults.fault_sim import FaultSimResult

    result = FaultSimResult(fault_list=[0, 1, 2, 3], pattern_count=4,
                            first_detection=[0, 1, None, 3])
    # Each detected fault counts exactly once, at its first detecting
    # pattern.
    counts = result.detections_per_pattern()
    assert counts == [1, 1, 0, 1]
    assert sum(counts) == result.num_detected
