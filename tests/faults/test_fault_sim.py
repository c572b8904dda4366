"""Fault simulator: hand-checked detections + brute-force cross-validation."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import OUTPUT_PIN, FaultList, FaultSimulator, StuckAtFault
from repro.faults.fault import enumerate_faults
from repro.netlist import GateType, LogicSimulator, Netlist, PatternSet
from repro.netlist.gates import evaluate


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
    patterns = PatternSet(nl)
    patterns.add({a: 1, b: 1})  # detects out s-a-0, a s-a-0, b s-a-0
    patterns.add({a: 0, b: 1})  # detects out s-a-1, a s-a-1
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
    patterns = PatternSet(nl)
    patterns.add({a: 0, b: 0})
    sim = FaultSimulator(nl)
    fl = FaultList(nl, [StuckAtFault(out, 0, OUTPUT_PIN, 0)])
    result = sim.run(patterns, fl)
    assert result.first_detection == [None]
    assert result.coverage() == 0.0


@pytest.mark.parametrize("engine", ["cone", "event"])
def test_pattern_mutation_between_runs_is_not_served_stale(engine):
    # Regression: good values were memoized on the PatternSet's identity
    # alone, so adding patterns after a run kept serving the old good
    # machine.  sa0 on the AND output is only detected by the (1, 1)
    # pattern, which arrives in the second add.
    nl, a, b, out = _and_netlist()
    fault_list = FaultList(nl, [StuckAtFault(out, 0, OUTPUT_PIN, 0)])
    simulator = FaultSimulator(nl, engine=engine)
    patterns = PatternSet(nl)
    patterns.add({a: 1, b: 0})
    assert simulator.run(patterns, fault_list).detection_words == [0b0]
    patterns.add({a: 1, b: 1})
    assert simulator.run(patterns, fault_list).detection_words == [0b10]


def test_empty_pattern_set():
    nl, *_ = _and_netlist()
    sim = FaultSimulator(nl)
    result = sim.run(PatternSet(nl))
    assert result.pattern_count == 0
    assert result.num_detected == 0


def test_detections_per_pattern_dropping_vs_not():
    nl, a, b, out = _and_netlist()
    patterns = PatternSet(nl)
    patterns.add({a: 1, b: 1})
    patterns.add({a: 1, b: 1})  # identical pattern: detects again w/o drop
    sim = FaultSimulator(nl)
    fl = FaultList(nl, [StuckAtFault(out, 0, OUTPUT_PIN, 0)])
    result = sim.run(patterns, fl)
    assert result.detections_per_pattern(dropping=True) == [1, 0]
    assert result.detections_per_pattern(dropping=False) == [1, 1]
    assert result.detecting_patterns(dropping=True) == {0}
    assert result.detecting_patterns(dropping=False) == {0, 1}


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
    patterns = PatternSet(nl)
    patterns.add({a: 1, b: 0})
    sim = FaultSimulator(nl)
    result = sim.run(patterns, FaultList(nl, [pin_fault, stem_fault]))
    # Pin fault flips only the AND output; stem fault also flips the OR.
    assert result.detection_words[0] == 1
    assert result.detection_words[1] == 1
    values = LogicSimulator(nl).run(patterns)
    assert values[g_or] == 1  # OR already 1: stem fault detected via AND


def test_observed_outputs_subset():
    nl = Netlist("obs")
    a = nl.add_input()
    x = nl.add_gate(GateType.NOT, a)
    y = nl.add_gate(GateType.BUF, a)
    nl.mark_output(x)
    nl.mark_output(y)
    nl.finalize()
    patterns = PatternSet(nl)
    patterns.add({a: 0})
    fl = FaultList(nl, [StuckAtFault(y, 1, OUTPUT_PIN, 1)])
    full = FaultSimulator(nl).run(patterns, fl)
    narrowed = FaultSimulator(nl, observed_outputs=[x]).run(patterns, fl)
    assert full.num_detected == 1
    assert narrowed.num_detected == 0


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
    patterns = PatternSet(nl)
    for assignment in assignments:
        patterns.add(assignment)

    fault_list = FaultList(nl, enumerate_faults(nl, collapse=False))
    result = FaultSimulator(nl).run(patterns, fault_list)
    for fault, word in zip(fault_list, result.detection_words):
        assert word == _brute_force_detection(nl, fault, assignments), (
            fault.describe(nl))


# -- packed-word bit iteration (exec PR regression pin) ---------------------

def _naive_detections_per_pattern(result):
    """Reference implementation: test every bit of every word directly."""
    counts = [0] * result.pattern_count
    for word in result.detection_words:
        for k in range(result.pattern_count):
            if (word >> k) & 1:
                counts[k] += 1
    return counts


@given(st.lists(st.integers(min_value=0, max_value=(1 << 20) - 1),
                min_size=0, max_size=12))
@settings(max_examples=60, deadline=None)
def test_detections_per_pattern_matches_naive_bit_loop(words):
    from repro.faults.fault_sim import FaultSimResult, iter_set_bits

    pattern_count = 20
    firsts = [(word & -word).bit_length() - 1 if word else None
              for word in words]
    result = FaultSimResult(fault_list=list(range(len(words))),
                            pattern_count=pattern_count,
                            detection_words=list(words),
                            first_detection=firsts)
    assert (result.detections_per_pattern(dropping=False)
            == _naive_detections_per_pattern(result))
    # The iterator is also what derives first detections and pattern sets.
    naive_hits = {k for word in words for k in range(pattern_count)
                  if (word >> k) & 1}
    assert result.detecting_patterns(dropping=False) == naive_hits
    for word, first in zip(words, firsts):
        bits = list(iter_set_bits(word))
        assert bits == sorted(bits)
        assert (bits[0] if bits else None) == first


def test_detections_per_pattern_counts_sum_to_bitcounts():
    from repro.faults.fault_sim import FaultSimResult

    words = [0b1011, 0b0110, 0, 0b1000]
    result = FaultSimResult(fault_list=[0, 1, 2, 3], pattern_count=4,
                            detection_words=words,
                            first_detection=[0, 1, None, 3])
    counts = result.detections_per_pattern(dropping=False)
    assert sum(counts) == sum(w.bit_count() for w in words)
    # With dropping, each detected fault counts exactly once, at its first
    # detecting pattern.
    dropped = result.detections_per_pattern(dropping=True)
    assert dropped == [1, 1, 0, 1]
    assert sum(dropped) == result.num_detected
