"""HardwareModule wrapper: port validation and simulation helpers."""

import pytest

from repro.errors import NetlistError
from repro.netlist import GateType, Netlist
from repro.netlist.modules import HardwareModule


def _module():
    nl = Netlist("toy")
    a = nl.add_inputs(4, "a")
    b = nl.add_inputs(4, "b")
    out = [nl.add_gate(GateType.XOR, x, y) for x, y in zip(a, b)]
    for net in out:
        nl.mark_output(net)
    nl.finalize()
    return HardwareModule(name="toy", netlist=nl,
                          input_words={"a": a, "b": b},
                          output_words={"out": out})


def test_add_pattern_and_simulate():
    module = _module()
    patterns = module.pattern_set([
        [("a", 0b1010), ("b", 0b0110)],
        [("a", 0xF)],  # b defaults to 0
    ])
    out = module.simulate(patterns)
    assert out["out"] == [0b1100, 0xF]


def test_unknown_port_rejected():
    module = _module()
    with pytest.raises(NetlistError, match="no input port 'nope'"):
        module.pattern_set([[("nope", 1)]])


def test_pattern_index_returned():
    """Pattern ``k`` of the built set is the ``k``-th entry."""
    module = _module()
    a = module.input_words["a"]
    patterns = module.pattern_set([[("a", 1)], [("a", 2)]])
    assert patterns.count == 2
    assert [patterns.value_of(a[0], k) for k in range(2)] == [1, 0]
    assert [patterns.value_of(a[1], k) for k in range(2)] == [0, 1]


def test_pattern_set_builder_checks_each_case():
    module = _module()
    with pytest.raises(NetlistError, match="assigned twice in pattern 1"):
        module.pattern_set([[("a", 1)], [("a", 1), ("a", 2)]])
    with pytest.raises(NetlistError, match="negative"):
        module.pattern_set([[("a", -1)]])
    with pytest.raises(NetlistError, match="does not fit"):
        module.pattern_set([[("b", 0x10)]])
    empty = module.pattern_set([])
    assert empty.count == 0 and set(empty.packed.values()) == {0}
