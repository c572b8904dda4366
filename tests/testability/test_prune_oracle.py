"""The prune-soundness oracle.

Over random netlists (seeded with tied-constant pins, the trigger for
UT001/UT003 proofs) and random pattern sets: no fault pruned in ``safe``
mode may ever be detected — by the cone walk or the event engine — and
SCOAP rank reordering must leave every detection set unchanged.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TestabilityError
from repro.faults import FaultList, FaultSimulator
from repro.netlist import GateType, Netlist, PatternSet
from repro.netlist.gates import ARITY
from repro.netlist.netlist import CONST0, CONST1
from repro.testability import TestabilityAnalysis, cross_check_pruned


def _random_netlist(rng, num_inputs=4, num_gates=18, num_outputs=3):
    """Like the propagate-test generator, but feeds CONST0/CONST1 into
    some pins so constant propagation has something to chew on."""
    nl = Netlist("rand")
    nets = [nl.add_input() for __ in range(num_inputs)]
    for __ in range(num_gates):
        gate_type = rng.choice([GateType.AND, GateType.OR, GateType.XOR,
                                GateType.NAND, GateType.NOR, GateType.NOT,
                                GateType.XNOR, GateType.MUX, GateType.BUF])
        ins = []
        for __p in range(ARITY[gate_type]):
            if rng.random() < 0.15:
                ins.append(rng.choice((CONST0, CONST1)))
            else:
                ins.append(rng.choice(nets))
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


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_safe_pruned_faults_are_never_detected_by_any_engine(seed):
    rng = random.Random(seed)
    nl = _random_netlist(rng)
    patterns = _random_patterns(rng, nl, rng.randrange(1, 14))
    full = FaultList(nl)
    pruned_list = FaultList(nl, prune="safe")
    pruned = set(pruned_list.pruned)
    assert set(pruned_list) | pruned == set(full)
    assert set(pruned_list).isdisjoint(pruned)
    if not pruned:
        return
    target = FaultList(nl, sorted(pruned, key=lambda f: full.id_of(f)))
    for engine in ("cone", "event"):
        simulator = FaultSimulator(nl, engine=engine)
        result = simulator.run(patterns, target)
        assert result.detected_faults == [], \
            "engine {} detected statically pruned fault(s)".format(engine)
    # The strict-mode oracle agrees (and counts what it checked).
    assert cross_check_pruned(nl, patterns, pruned) == len(pruned)


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=15, deadline=None)
def test_scoap_rank_is_a_detection_set_invariant_permutation(seed):
    rng = random.Random(seed)
    nl = _random_netlist(rng)
    patterns = _random_patterns(rng, nl, 8)
    plain = FaultList(nl)
    ranked = FaultList(nl, rank="scoap")
    assert sorted(plain, key=repr) == sorted(ranked, key=repr)
    simulator = FaultSimulator(nl, engine="event")
    detected_plain = set(simulator.run(patterns, plain).detected_faults)
    detected_ranked = set(simulator.run(patterns, ranked).detected_faults)
    assert detected_plain == detected_ranked
    # Rank is deterministic.
    again = FaultList(nl, rank="scoap")
    assert list(again) == list(ranked)


def test_cross_check_raises_on_an_unsound_prune():
    # Hand the oracle a blatantly detectable "pruned" fault: it must
    # refuse with a TestabilityError naming the witness.
    nl = Netlist("unsound")
    a = nl.add_input()
    out = nl.add_gate(GateType.BUF, a)
    nl.mark_output(out)
    nl.finalize()
    patterns = PatternSet(nl)
    patterns.add({a: 0})
    patterns.add({a: 1})
    detectable = FaultList(nl)[0:2]
    with pytest.raises(TestabilityError):
        cross_check_pruned(nl, patterns, detectable)


def test_cross_check_is_a_noop_without_faults_or_patterns():
    nl = Netlist("empty")
    a = nl.add_input()
    nl.mark_output(nl.add_gate(GateType.BUF, a))
    nl.finalize()
    assert cross_check_pruned(nl, PatternSet(nl), list(FaultList(nl))) == \
        len(FaultList(nl))
    patterns = PatternSet(nl)
    patterns.add({a: 1})
    assert cross_check_pruned(nl, patterns, []) == 0


def test_fault_list_knobs_validate_their_modes():
    nl = Netlist("knobs")
    a = nl.add_input()
    nl.mark_output(nl.add_gate(GateType.BUF, a))
    nl.finalize()
    with pytest.raises(TestabilityError):
        FaultList(nl, prune="aggressive")
    with pytest.raises(TestabilityError):
        FaultList(nl, rank="alphabetical")
    default = FaultList(nl)
    assert default.prune_mode == "off" and default.rank_mode == "none"
    assert default.pruned == [] and default.proofs == {}


def test_pruned_faults_carry_their_proofs():
    nl = Netlist("proofs")
    a = nl.add_input()
    g = nl.add_gate(GateType.AND, a, CONST0)
    nl.mark_output(g)
    nl.finalize()
    fault_list = FaultList(nl, prune="safe")
    assert fault_list.pruned
    for fault in fault_list.pruned:
        assert fault_list.proofs[fault].fault is fault
