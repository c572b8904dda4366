"""ATPG: PODEM on hand-built circuits, untestability, campaign behavior.

The hypothesis oracle at the end checks PODEM's event-driven implication
with its undo trail against a full three-valued re-simulation after every
assignment and backtrack, on random netlists and random faults.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.experiments import SMOKE
from repro.faults import OUTPUT_PIN, FaultList, FaultSimulator, PodemEngine, StuckAtFault, run_atpg
from repro.faults.atpg import X, _eval3
from repro.faults.fault import enumerate_faults
from repro.netlist import GateType, Netlist
from repro.netlist.modules import HardwareModule
from repro.netlist.netlist import CONST0, CONST1

from ..pattern_rows import pattern_set
from .test_propagate import _random_netlist


def _chain():
    """out = NOT(AND(a, OR(b, c)))"""
    nl = Netlist("chain")
    a = nl.add_input("a")
    b = nl.add_input("b")
    c = nl.add_input("c")
    o = nl.add_gate(GateType.OR, b, c)
    g = nl.add_gate(GateType.AND, a, o)
    out = nl.add_gate(GateType.NOT, g)
    nl.mark_output(out)
    nl.finalize()
    return nl, a, b, c, o, g, out


def _confirm(nl, fault, cube):
    patterns = pattern_set(nl, [{net: cube.get(net, 0) for net in nl.inputs}])
    result = FaultSimulator(nl).run(patterns, FaultList(nl, [fault]))
    return result.num_detected == 1


@pytest.mark.parametrize("stuck_at", [0, 1])
def test_podem_generates_valid_tests_for_all_stem_faults(stuck_at):
    nl, a, b, c, o, g, out = _chain()
    engine = PodemEngine(nl)
    for net in (a, b, c, o, g, out):
        gate = nl.driver_of(net)
        fault = StuckAtFault(net, gate, OUTPUT_PIN, stuck_at)
        status, cube = engine.generate(fault)
        assert status == "detected", fault.describe(nl)
        assert _confirm(nl, fault, cube), fault.describe(nl)


def test_podem_proves_redundant_fault_untestable():
    # out = OR(a, NOT(a)) is constantly 1: its s-a-1 fault is untestable.
    nl = Netlist("red")
    a = nl.add_input("a")
    na = nl.add_gate(GateType.NOT, a)
    out = nl.add_gate(GateType.OR, a, na)
    nl.mark_output(out)
    nl.finalize()
    engine = PodemEngine(nl)
    status, __ = engine.generate(StuckAtFault(out, 1, OUTPUT_PIN, 1))
    assert status == "untestable"


def test_podem_handles_input_pin_faults():
    nl, a, b, c, o, g, out = _chain()
    engine = PodemEngine(nl)
    # AND gate's pin reading `o`, stuck-at-1 (branch fault).
    and_gate = nl.driver_of(g)
    fault = StuckAtFault(o, and_gate, 1, 1)
    status, cube = engine.generate(fault)
    assert status == "detected"
    assert _confirm(nl, fault, cube)


def test_podem_respects_backtrack_limit():
    nl, *_ = _chain()
    engine = PodemEngine(nl, max_backtracks=0)
    # With zero backtracks some faults may still pass (first try), but the
    # engine must never raise.
    for fault in FaultList(nl):
        status, __ = engine.generate(fault)
        assert status in ("detected", "untestable", "aborted")


def _module(nl):
    return HardwareModule(name=nl.name, netlist=nl,
                          input_words={"in": list(nl.inputs)},
                          output_words={"out": list(nl.outputs)})


def test_run_atpg_full_campaign_high_coverage():
    nl, *_ = _chain()
    result = run_atpg(_module(nl), seed=3, random_patterns=16)
    fl = FaultList(nl)
    # The chain circuit has no redundancy: everything should be detected.
    assert not result.aborted
    assert not result.untestable
    assert result.coverage(len(fl)) == pytest.approx(100.0)
    # Every emitted pattern is attributed at least one fault.
    assert len(result.pattern_faults) == result.patterns.count
    replay = FaultSimulator(nl).run(result.patterns, fl)
    assert replay.num_detected == len(fl)


def test_run_atpg_is_deterministic():
    nl1, *_ = _chain()
    nl2, *_ = _chain()
    r1 = run_atpg(_module(nl1), seed=9, random_patterns=8)
    r2 = run_atpg(_module(nl2), seed=9, random_patterns=8)
    assert r1.patterns.count == r2.patterns.count
    assert [sorted(f.net for f in group) for group in r1.pattern_faults] \
        == [sorted(f.net for f in group) for group in r2.pattern_faults]


def test_run_atpg_random_phase_stops_when_everything_detected():
    nl, *_ = _chain()
    result = run_atpg(_module(nl), seed=1, random_patterns=4096,
                      random_batch=16)
    # Far fewer patterns than requested: dropping empties the list early.
    assert result.patterns.count < 200


# -- static skip soundness ----------------------------------------------------

@pytest.mark.parametrize("name, limit, backtracks, randoms", [
    ("sp_module", SMOKE.tpgen_podem_fault_limit, SMOKE.tpgen_max_backtracks,
     SMOKE.tpgen_random_patterns),
    ("sfu_module", SMOKE.sfu_podem_fault_limit, SMOKE.sfu_max_backtracks,
     SMOKE.sfu_random_patterns),
])
def test_statically_skipped_targets_are_never_detected(request, name, limit,
                                                      backtracks, randoms):
    module = request.getfixturevalue(name)
    netlist = module.netlist
    result = run_atpg(module, seed=SMOKE.seed, random_patterns=randoms,
                      max_backtracks=backtracks, podem_fault_limit=limit)
    assert result.proofs, "the SMOKE run should exercise the skip path"
    assert set(result.proofs) <= set(result.untestable)
    assert not set(result.proofs) & set(result.detected)
    for fault, proof in result.proofs.items():
        assert proof.fault == fault
    replay = FaultSimulator(netlist, engine="cone").run(
        result.patterns, FaultList(netlist, list(result.proofs)))
    assert replay.num_detected == 0


# -- event-driven implication oracle ------------------------------------------

def _full_imply(netlist, pi_values, fault):
    """Full three-valued (good, faulty) re-simulation from *pi_values*."""
    good = [X] * netlist.num_nets
    faulty = [X] * netlist.num_nets
    good[CONST0] = faulty[CONST0] = 0
    good[CONST1] = faulty[CONST1] = 1
    for net in netlist.inputs:
        good[net] = faulty[net] = pi_values.get(net, X)
    if fault.pin == OUTPUT_PIN and fault.gate is None:
        faulty[fault.net] = fault.stuck_at
    fault_gate = fault.gate if fault.pin != OUTPUT_PIN else None
    stem_net = fault.net if fault.pin == OUTPUT_PIN else None
    for gate in netlist.levelized_gates:
        g_ins = [good[n] for n in gate.inputs]
        f_ins = [faulty[n] for n in gate.inputs]
        if fault_gate == gate.index:
            f_ins[fault.pin] = fault.stuck_at
        good[gate.output] = _eval3(gate.gate_type, g_ins)
        faulty[gate.output] = (fault.stuck_at if stem_net == gate.output
                               else _eval3(gate.gate_type, f_ins))
    return good, faulty


def _is_d(good, faulty, net):
    return good[net] != X and faulty[net] != X and good[net] != faulty[net]


def _full_frontier(netlist, good, faulty, fault):
    """Every D-frontier gate, by a scan in levelized order."""
    frontier = []
    for gate in netlist.levelized_gates:
        if good[gate.output] != X and faulty[gate.output] != X:
            continue
        pin_d = (fault.pin != OUTPUT_PIN and fault.gate == gate.index
                 and good[fault.net] == 1 - fault.stuck_at)
        if pin_d or any(_is_d(good, faulty, n) for n in gate.inputs):
            frontier.append(gate)
    return frontier


def _check_state(engine, netlist, pi_values, fault):
    good, faulty = _full_imply(netlist, pi_values, fault)
    assert engine._good == good
    assert engine._faulty == faulty
    frontier = _full_frontier(netlist, good, faulty, fault)
    first = engine._first_frontier()
    assert (first.index if first else None) == (
        frontier[0].index if frontier else None)
    assert len(engine._frontier) == len(frontier)
    assert engine._detected() == any(_is_d(good, faulty, n)
                                     for n in netlist.outputs)


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_event_driven_implication_matches_full_resimulation(seed):
    rng = random.Random(seed)
    netlist = _random_netlist(rng, num_inputs=rng.randrange(2, 7))
    engine = PodemEngine(netlist)
    faults = enumerate_faults(netlist, collapse=False)
    stems = [f for f in faults if f.pin == OUTPUT_PIN]
    pins = [f for f in faults if f.pin != OUTPUT_PIN]
    targets = rng.sample(stems, 2) + rng.sample(pins, min(2, len(pins)))
    for fault in targets:
        engine._reset(fault)
        pi_values = {}
        decisions = []  # (net, trail mark), as PODEM keeps them
        _check_state(engine, netlist, pi_values, fault)
        for __ in range(rng.randrange(1, 16)):
            free = [n for n in netlist.inputs if n not in pi_values]
            if decisions and (not free or rng.random() < 0.35):
                # Backtrack to a random earlier decision; sometimes flip
                # it, as PODEM does, by re-assigning its PI at its mark.
                k = rng.randrange(len(decisions))
                net, mark = decisions[k]
                engine._undo(mark)
                for undone, __ in decisions[k:]:
                    del pi_values[undone]
                del decisions[k:]
                _check_state(engine, netlist, pi_values, fault)
                if rng.random() < 0.5:
                    continue
                free = [net]
            net = rng.choice(free)
            value = rng.getrandbits(1)
            decisions.append((net, len(engine._trail)))
            pi_values[net] = value
            engine._assign(net, value)
            _check_state(engine, netlist, pi_values, fault)
