"""The prune-soundness oracle.

Over random netlists (seeded with tied-constant pins, the trigger for
UT001/UT003 proofs) and random pattern sets: no fault pruned in ``safe``
mode may ever be detected — by the cone walk or the event engine — and
the pruned report must detect exactly the faults the full list does.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TestabilityError
from repro.faults import FaultList, FaultSimulator
from repro.faults.dropping import FaultListReport
from repro.netlist import GateType, Netlist, PatternSet
from repro.netlist.gates import ARITY
from repro.netlist.netlist import CONST0, CONST1
from repro.testability import cross_check_pruned

from ..pattern_rows import pattern_set


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
    return pattern_set(nl, [{net: rng.getrandbits(1) for net in nl.inputs}
                            for __ in range(count)])


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_safe_pruned_faults_are_never_detected_by_any_engine(seed):
    rng = random.Random(seed)
    nl = _random_netlist(rng)
    patterns = _random_patterns(rng, nl, rng.randrange(1, 14))
    full = FaultList(nl)
    report = FaultListReport(nl, static_prune="safe")
    pruned = set(report.untestable)
    assert set(report.remaining) | pruned == set(full)
    assert set(report.remaining).isdisjoint(pruned)
    # Soundness: the pruned worklist detects exactly what the full list
    # detects.
    event = FaultSimulator(nl, engine="event")
    assert set(event.run(patterns, report.remaining).detected_faults) == \
        set(event.run(patterns, full).detected_faults)
    if not pruned:
        return
    for engine in ("cone", "event"):
        simulator = FaultSimulator(nl, engine=engine)
        result = simulator.run(patterns, report.untestable)
        assert result.detected_faults == [], \
            "engine {} detected statically pruned fault(s)".format(engine)
    # The strict-mode oracle agrees (and counts what it checked).
    assert cross_check_pruned(nl, patterns, pruned) == len(pruned)


def test_cross_check_raises_on_an_unsound_prune():
    # Hand the oracle a blatantly detectable "pruned" fault: it must
    # refuse with a TestabilityError naming the witness.
    nl = Netlist("unsound")
    a = nl.add_input()
    out = nl.add_gate(GateType.BUF, a)
    nl.mark_output(out)
    nl.finalize()
    patterns = pattern_set(nl, [{a: 0}, {a: 1}])
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
    patterns = pattern_set(nl, [{a: 1}])
    assert cross_check_pruned(nl, patterns, []) == 0


def test_fault_list_knobs_validate_their_modes():
    nl = Netlist("knobs")
    a = nl.add_input()
    nl.mark_output(nl.add_gate(GateType.BUF, a))
    nl.finalize()
    with pytest.raises(TestabilityError):
        FaultListReport(nl, static_prune="aggressive")
    default = FaultListReport(nl)
    assert default.static_prune == "off"
    assert list(default.untestable) == [] and default.proofs == {}


def test_pruned_faults_carry_their_proofs():
    nl = Netlist("proofs")
    a = nl.add_input()
    g = nl.add_gate(GateType.AND, a, CONST0)
    nl.mark_output(g)
    nl.finalize()
    report = FaultListReport(nl, static_prune="safe")
    assert report.untestable_faults
    for fault in report.untestable:
        assert report.proofs[fault].fault is fault
