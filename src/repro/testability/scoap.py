"""SCOAP testability measures over levelized netlists.

Sandia Controllability/Observability Analysis Program (SCOAP) scores are
the classic static pre-simulation testability metric: ``CC0(n)`` /
``CC1(n)`` estimate the effort (roughly: number of pin assignments) needed
to drive net ``n`` to 0 / 1, and ``CO(n)`` the effort to propagate a value
difference on ``n`` to an observed output.  Both are computed without a
single simulation pattern:

* controllability is one forward fixpoint over the ``net_level`` buckets
  (creation order is topological, so a single levelized pass converges);
* observability is one backward pass from the observed nets, folding the
  side-input controllabilities needed to sensitize each gate.

Scores are *estimates*, not proofs — reconvergent fanout makes SCOAP
optimistic (e.g. ``XOR(a, a)`` gets a finite CC1 although the net is
constant 0) — so the compaction flow never prunes on them; they are
reported by ``repro analyze`` (:mod:`repro.testability.analysis`), and
untestability proofs come from :mod:`repro.testability.untestable`
instead.

:data:`INF` marks unreachable scores: a net that cannot be driven to a
value (a constant net's opposite polarity) or that no observed output can
see (a dangling cone).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import FaultSimError
from ..netlist.gates import GateType
from ..netlist.netlist import CONST0, CONST1

#: Unreachable score (uncontrollable polarity / unobservable net).
INF = float("inf")


@dataclass(frozen=True)
class ScoapScores:
    """Net-indexed SCOAP scores of one netlist.

    Attributes:
        cc0: per-net 0-controllability (``INF``: provably or structurally
            never 0 under this estimate).
        cc1: per-net 1-controllability.
        co: per-net observability toward the ``observed`` nets (``INF``:
            no sensitizable path found).
        observed: the observation points the CO pass started from.
    """

    cc0: tuple
    cc1: tuple
    co: tuple
    observed: tuple

    def of_net(self, net):
        """``(cc0, cc1, co)`` triple of one net."""
        return (self.cc0[net], self.cc1[net], self.co[net])


def _finite(values):
    return [v for v in values if v != INF]


def scoap_summary(scores):
    """Headline statistics of a :class:`ScoapScores` (the ``repro
    analyze`` summary block): max/mean of each finite score family plus
    the count of INF (unreachable) entries."""
    summary = {}
    for name, values in (("cc0", scores.cc0), ("cc1", scores.cc1),
                         ("co", scores.co)):
        finite = _finite(values)
        summary[name] = {
            "max": max(finite) if finite else None,
            "mean": (sum(finite) / len(finite)) if finite else None,
            "unreachable": len(values) - len(finite),
        }
    return summary


def compute_scoap(netlist, observed=None):
    """Compute :class:`ScoapScores` for *netlist*.

    Args:
        netlist: a finalized :class:`~repro.netlist.netlist.Netlist`.
        observed: observation-point nets for the CO pass (default: the
            primary outputs — module-level observability, matching
            :class:`~repro.faults.fault_sim.FaultSimulator`).
    """
    netlist.finalize()
    if observed is None:
        observed = list(netlist.outputs)
    num_nets = netlist.num_nets

    cc0 = [INF] * num_nets
    cc1 = [INF] * num_nets
    cc0[CONST0], cc1[CONST0] = 1, INF
    cc0[CONST1], cc1[CONST1] = INF, 1
    for net in netlist.inputs:
        cc0[net] = cc1[net] = 1

    for gate in netlist.levelized_gates:
        out = gate.output
        cc0[out], cc1[out] = _gate_controllability(gate.gate_type,
                                                   gate.inputs, cc0, cc1)

    co = [INF] * num_nets
    for net in observed:
        co[net] = 0
    # Reverse topological: creation order is topological, so the reverse
    # walk sees every gate after all of its fanout gates.
    for gate in reversed(netlist.levelized_gates):
        out_co = co[gate.output]
        if out_co == INF:
            continue
        for pin in range(len(gate.inputs)):
            pin_co = out_co + _sensitize_cost(gate.gate_type, gate.inputs,
                                              pin, cc0, cc1) + 1
            net = gate.inputs[pin]
            if pin_co < co[net]:
                co[net] = pin_co
    return ScoapScores(cc0=tuple(cc0), cc1=tuple(cc1), co=tuple(co),
                       observed=tuple(observed))


def _gate_controllability(gate_type, inputs, cc0, cc1):
    """``(cc0, cc1)`` of one gate output from its input scores."""
    if gate_type is GateType.BUF:
        a = inputs[0]
        return cc0[a] + 1, cc1[a] + 1
    if gate_type is GateType.NOT:
        a = inputs[0]
        return cc1[a] + 1, cc0[a] + 1
    if gate_type is GateType.AND:
        a, b = inputs
        return min(cc0[a], cc0[b]) + 1, cc1[a] + cc1[b] + 1
    if gate_type is GateType.NAND:
        a, b = inputs
        return cc1[a] + cc1[b] + 1, min(cc0[a], cc0[b]) + 1
    if gate_type is GateType.OR:
        a, b = inputs
        return cc0[a] + cc0[b] + 1, min(cc1[a], cc1[b]) + 1
    if gate_type is GateType.NOR:
        a, b = inputs
        return min(cc1[a], cc1[b]) + 1, cc0[a] + cc0[b] + 1
    if gate_type is GateType.XOR:
        a, b = inputs
        return (min(cc0[a] + cc0[b], cc1[a] + cc1[b]) + 1,
                min(cc0[a] + cc1[b], cc1[a] + cc0[b]) + 1)
    if gate_type is GateType.XNOR:
        a, b = inputs
        return (min(cc0[a] + cc1[b], cc1[a] + cc0[b]) + 1,
                min(cc0[a] + cc0[b], cc1[a] + cc1[b]) + 1)
    if gate_type is GateType.MUX:
        a, b, sel = inputs
        return (min(cc0[sel] + cc0[a], cc1[sel] + cc0[b]) + 1,
                min(cc0[sel] + cc1[a], cc1[sel] + cc1[b]) + 1)
    raise FaultSimError("unknown gate type {!r}".format(gate_type))


def _sensitize_cost(gate_type, inputs, pin, cc0, cc1):
    """Side-input controllability cost of propagating a difference from
    input *pin* to the gate output (the CO folding term)."""
    if gate_type in (GateType.BUF, GateType.NOT):
        return 0
    if gate_type in (GateType.AND, GateType.NAND):
        return sum(cc1[net] for q, net in enumerate(inputs) if q != pin)
    if gate_type in (GateType.OR, GateType.NOR):
        return sum(cc0[net] for q, net in enumerate(inputs) if q != pin)
    if gate_type in (GateType.XOR, GateType.XNOR):
        return sum(min(cc0[net], cc1[net])
                   for q, net in enumerate(inputs) if q != pin)
    if gate_type is GateType.MUX:
        a, b, sel = inputs
        if pin == 0:            # a visible while sel = 0
            return cc0[sel]
        if pin == 1:            # b visible while sel = 1
            return cc1[sel]
        # sel visible only when a and b differ.
        return min(cc0[a] + cc1[b], cc1[a] + cc0[b])
    raise FaultSimError("unknown gate type {!r}".format(gate_type))
