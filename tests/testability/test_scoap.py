"""SCOAP controllability/observability: formulas, passes, summaries."""

import pytest

from repro.netlist import GateType, Netlist
from repro.netlist.netlist import CONST0, CONST1
from repro.testability import INF, compute_scoap, scoap_summary


def test_primary_input_and_constant_scores():
    nl = Netlist("pi")
    a = nl.add_input("a")
    buf = nl.add_gate(GateType.BUF, a)
    nl.mark_output(buf)
    nl.finalize()
    scores = compute_scoap(nl)
    assert scores.of_net(a) == (1, 1, 1)
    assert scores.cc0[CONST0] == 1 and scores.cc1[CONST0] == INF
    assert scores.cc0[CONST1] == INF and scores.cc1[CONST1] == 1


def test_and_or_controllability_formulas():
    nl = Netlist("andor")
    a, b = nl.add_input(), nl.add_input()
    g_and = nl.add_gate(GateType.AND, a, b)
    g_or = nl.add_gate(GateType.OR, a, b)
    g_nand = nl.add_gate(GateType.NAND, a, b)
    g_nor = nl.add_gate(GateType.NOR, a, b)
    g_not = nl.add_gate(GateType.NOT, a)
    for net in (g_and, g_or, g_nand, g_nor, g_not):
        nl.mark_output(net)
    nl.finalize()
    scores = compute_scoap(nl)
    # AND: cc0 = min(1,1)+1 = 2, cc1 = 1+1+1 = 3; OR mirrors.
    assert (scores.cc0[g_and], scores.cc1[g_and]) == (2, 3)
    assert (scores.cc0[g_or], scores.cc1[g_or]) == (3, 2)
    assert (scores.cc0[g_nand], scores.cc1[g_nand]) == (3, 2)
    assert (scores.cc0[g_nor], scores.cc1[g_nor]) == (2, 3)
    assert (scores.cc0[g_not], scores.cc1[g_not]) == (2, 2)


def test_xor_and_mux_controllability():
    nl = Netlist("xormux")
    a, b, s = nl.add_input(), nl.add_input(), nl.add_input()
    g_xor = nl.add_gate(GateType.XOR, a, b)
    g_mux = nl.add_gate(GateType.MUX, a, b, s)
    nl.mark_output(g_xor)
    nl.mark_output(g_mux)
    nl.finalize()
    scores = compute_scoap(nl)
    # XOR: cc0 = min(1+1, 1+1)+1 = 3 either way.
    assert (scores.cc0[g_xor], scores.cc1[g_xor]) == (3, 3)
    # MUX: min over the two select branches = (1+1)+1 = 3.
    assert (scores.cc0[g_mux], scores.cc1[g_mux]) == (3, 3)


def test_observability_backward_pass_folds_side_inputs():
    nl = Netlist("co")
    a, b = nl.add_input(), nl.add_input()
    g = nl.add_gate(GateType.AND, a, b)
    nl.mark_output(g)
    nl.finalize()
    scores = compute_scoap(nl)
    assert scores.co[g] == 0
    # co(a) = co(g) + cc1(b) + 1 = 0 + 1 + 1.
    assert scores.co[a] == 2 and scores.co[b] == 2


def test_dangling_cone_is_unobservable():
    nl = Netlist("dangle")
    a = nl.add_input()
    seen = nl.add_gate(GateType.BUF, a)
    hidden = nl.add_gate(GateType.NOT, a)
    nl.mark_output(seen)
    nl.finalize()
    scores = compute_scoap(nl)
    assert scores.co[hidden] == INF
    assert scores.co[a] == 1


def test_reconvergent_fanout_keeps_scores_an_estimate():
    # XOR(a, a) is constant 0, but SCOAP still assigns a finite CC1 —
    # the documented reason scores estimate but never prove.
    nl = Netlist("reconv")
    a = nl.add_input()
    g = nl.add_gate(GateType.XOR, a, a)
    nl.mark_output(g)
    nl.finalize()
    scores = compute_scoap(nl)
    assert scores.cc1[g] != INF


def test_observed_override_changes_the_co_pass():
    nl = Netlist("override")
    a = nl.add_input()
    mid = nl.add_gate(GateType.BUF, a)
    out = nl.add_gate(GateType.NOT, mid)
    nl.mark_output(out)
    nl.finalize()
    default = compute_scoap(nl)
    assert default.co[mid] == 1
    override = compute_scoap(nl, observed=[mid])
    assert override.co[mid] == 0
    assert override.co[out] == INF


def test_scoap_summary_shape():
    nl = Netlist("summary")
    a = nl.add_input()
    nl.mark_output(nl.add_gate(GateType.BUF, a))
    nl.finalize()
    summary = scoap_summary(compute_scoap(nl))
    assert set(summary) == {"cc0", "cc1", "co"}
    for stats in summary.values():
        assert set(stats) == {"max", "mean", "unreachable"}
    # CONST0/CONST1 each have one uncontrollable polarity.
    assert summary["cc0"]["unreachable"] == 1
    assert summary["cc1"]["unreachable"] == 1


def test_unknown_gate_type_raises():
    from repro.errors import FaultSimError
    from repro.testability.scoap import _gate_controllability, _sensitize_cost
    with pytest.raises(FaultSimError):
        _gate_controllability("bogus", (0,), [0], [0])
    with pytest.raises(FaultSimError):
        _sensitize_cost("bogus", (0,), 0, [0], [0])
