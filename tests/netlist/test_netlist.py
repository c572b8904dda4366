"""Netlist IR: construction, validation, levelization, cones."""

import pytest

from repro.errors import NetlistError
from repro.netlist import CONST0, CONST1, GateType, Netlist


def _tiny():
    nl = Netlist("tiny")
    a = nl.add_input("a")
    b = nl.add_input("b")
    x = nl.add_gate(GateType.AND, a, b)
    y = nl.add_gate(GateType.NOT, x)
    nl.mark_output(y, "y")
    return nl, a, b, x, y


def test_constants_are_nets_0_and_1():
    assert CONST0 == 0 and CONST1 == 1


def test_construction_and_stats():
    nl, a, b, x, y = _tiny()
    nl.finalize()
    stats = nl.stats()
    assert stats["gates"] == 2
    assert stats["inputs"] == 2
    assert stats["outputs"] == 1
    assert stats["depth"] == 2
    assert stats["by_type"] == {"AND": 1, "NOT": 1}


def test_gate_arity_checked():
    nl = Netlist("bad")
    a = nl.add_input()
    with pytest.raises(NetlistError):
        nl.add_gate(GateType.AND, a)
    with pytest.raises(NetlistError):
        nl.add_gate(GateType.NOT, a, a)


def test_unknown_input_net_rejected():
    nl = Netlist("bad")
    a = nl.add_input()
    with pytest.raises(NetlistError):
        nl.add_gate(GateType.NOT, 99)


def test_undriven_output_rejected():
    nl = Netlist("bad")
    nl.add_input()
    nl.mark_output(nl.new_net())
    with pytest.raises(NetlistError):
        nl.finalize()


def test_finalize_is_idempotent_and_freezes():
    nl, *_ = _tiny()
    nl.finalize()
    nl.finalize()
    with pytest.raises(NetlistError):
        nl.add_input()
    with pytest.raises(NetlistError):
        nl.add_gate(GateType.NOT, 2)


def test_driver_and_fanout():
    nl, a, b, x, y = _tiny()
    nl.finalize()
    assert nl.driver_of(a) is None
    assert nl.gates[nl.driver_of(x)].gate_type is GateType.AND
    assert nl.fanout_gates(x) == [1]
    assert nl.fanout_gates(y) == []


def test_cone_from_net():
    nl = Netlist("cone")
    a = nl.add_input()
    b = nl.add_input()
    x = nl.add_gate(GateType.AND, a, b)     # gate 0
    y = nl.add_gate(GateType.OR, x, b)      # gate 1
    z = nl.add_gate(GateType.NOT, b)        # gate 2 (not in cone of a)
    w = nl.add_gate(GateType.XOR, y, z)     # gate 3
    nl.mark_output(w)
    nl.finalize()
    assert nl.cone_from_net(a) == [0, 1, 3]
    assert nl.cone_from_net(b) == [0, 1, 2, 3]


def test_levelized_order_is_topological():
    nl, *_ = _tiny()
    nl.finalize()
    seen = set(nl.inputs) | {CONST0, CONST1}
    for gate in nl.levelized_gates:
        assert all(n in seen for n in gate.inputs)
        seen.add(gate.output)
