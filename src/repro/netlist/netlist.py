"""Gate-level netlist data structure.

A :class:`Netlist` is a DAG of combinational gates over integer-indexed nets.
Net 0 and net 1 are the constant-0 and constant-1 nets.  Each non-constant
net is driven either by a primary input or by exactly one gate.

The structure is append-only during construction and validated/levelized
once finalized; simulation and fault analysis use the levelized gate order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import NetlistError
from .gates import ARITY, GateType

#: Net index of the constant-0 / constant-1 nets.
CONST0 = 0
CONST1 = 1


@dataclass(frozen=True)
class Gate:
    """One gate instance: ``output = gate_type(*inputs)``."""

    index: int
    gate_type: GateType
    inputs: tuple
    output: int


@dataclass
class Netlist:
    """A combinational gate-level netlist.

    Attributes:
        name: human-readable module name (e.g. ``"decoder_unit"``).
        gates: list of :class:`Gate`, in creation order.
        inputs: primary-input net indices, in declared order.
        outputs: primary-output net indices, in declared order.
        net_names: optional net index -> name map for ports and debug.
    """

    name: str
    gates: list = field(default_factory=list)
    inputs: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    net_names: dict = field(default_factory=dict)
    _next_net: int = 2  # nets 0/1 are the constants
    _driver: dict = field(default_factory=dict)  # net -> gate index
    _finalized: bool = False
    _levelized: list = None
    _fanout: dict = None
    _level: dict = None  # net -> topological level

    # -- construction ---------------------------------------------------------

    def new_net(self, name=None):
        """Allocate a fresh net index (undriven until used)."""
        if self._finalized:
            raise NetlistError("netlist {!r} is finalized".format(self.name))
        net = self._next_net
        self._next_net += 1
        if name is not None:
            self.net_names[net] = name
        return net

    def add_input(self, name=None):
        """Declare a new primary input net and return its index."""
        net = self.new_net(name)
        self.inputs.append(net)
        return net

    def add_inputs(self, count, prefix):
        """Declare *count* primary inputs named ``prefix[i]`` (LSB first)."""
        return [self.add_input("{}[{}]".format(prefix, i))
                for i in range(count)]

    def add_gate(self, gate_type, *inputs, name=None):
        """Add a gate driving a fresh net; returns the output net index."""
        if self._finalized:
            raise NetlistError("netlist {!r} is finalized".format(self.name))
        if len(inputs) != ARITY[gate_type]:
            raise NetlistError("{} expects {} inputs, got {}".format(
                gate_type.name, ARITY[gate_type], len(inputs)))
        for net in inputs:
            if not 0 <= net < self._next_net:
                raise NetlistError("gate input references unknown net {}"
                                   .format(net))
        out = self.new_net(name)
        gate = Gate(len(self.gates), gate_type, tuple(inputs), out)
        self.gates.append(gate)
        self._driver[out] = gate.index
        return out

    def mark_output(self, net, name=None):
        """Declare *net* as a primary output."""
        if not 0 <= net < self._next_net:
            raise NetlistError("unknown output net {}".format(net))
        self.outputs.append(net)
        if name is not None:
            self.net_names[net] = name

    # -- finalized views --------------------------------------------------------

    @property
    def num_nets(self):
        return self._next_net

    @property
    def num_gates(self):
        return len(self.gates)

    def driver_of(self, net):
        """Gate index driving *net*, or None for PIs/constants."""
        return self._driver.get(net)

    def finalize(self):
        """Validate the netlist, compute levels and fanout; idempotent."""
        if self._finalized:
            return self
        input_set = set(self.inputs)
        driven = set(self._driver) | input_set | {CONST0, CONST1}
        for gate in self.gates:
            for net in gate.inputs:
                if net not in driven:
                    raise NetlistError(
                        "gate {} of {!r} reads undriven net {}".format(
                            gate.index, self.name, net))
        for net in self.outputs:
            if net not in driven:
                raise NetlistError("output net {} is undriven".format(net))
        for net in input_set:
            if net in self._driver:
                raise NetlistError("primary input net {} is gate-driven"
                                   .format(net))

        # Levelize: gates in creation order are already topological because
        # add_gate only references existing nets; verify and store.
        level = {CONST0: 0, CONST1: 0}
        for net in self.inputs:
            level[net] = 0
        levelized = []
        for gate in self.gates:
            glev = 0
            for net in gate.inputs:
                if net not in level:
                    raise NetlistError(
                        "netlist {!r} is not topologically ordered at gate {}"
                        .format(self.name, gate.index))
                glev = max(glev, level[net])
            level[gate.output] = glev + 1
            levelized.append(gate)
        self._levelized = levelized
        self._level = level

        fanout = {}
        for gate in self.gates:
            for net in gate.inputs:
                fanout.setdefault(net, []).append(gate.index)
        self._fanout = fanout
        self._finalized = True
        return self

    @property
    def levelized_gates(self):
        """Gates in topological order (requires :meth:`finalize`)."""
        if not self._finalized:
            raise NetlistError("finalize() the netlist first")
        return self._levelized

    def fanout_gates(self, net):
        """Gate indices reading *net* (requires :meth:`finalize`)."""
        if not self._finalized:
            raise NetlistError("finalize() the netlist first")
        return self._fanout.get(net, [])

    def net_level(self, net):
        """Topological level of *net*: 0 for constants/primary inputs,
        ``1 + max(input levels)`` for gate outputs (requires
        :meth:`finalize`).  Undriven (never-read) nets are level 0."""
        if not self._finalized:
            raise NetlistError("finalize() the netlist first")
        return self._level.get(net, 0)

    @property
    def logic_depth(self):
        """Maximum gate level of the netlist (requires :meth:`finalize`)."""
        if not self._finalized:
            raise NetlistError("finalize() the netlist first")
        return max(self._level.values(), default=0)

    def cone_from_net(self, net):
        """Gate indices in the transitive fanout of *net*, topological."""
        if not self._finalized:
            raise NetlistError("finalize() the netlist first")
        seen = set()
        frontier = [net]
        while frontier:
            current = frontier.pop()
            for g_idx in self.fanout_gates(current):
                if g_idx not in seen:
                    seen.add(g_idx)
                    frontier.append(self.gates[g_idx].output)
        return sorted(seen)

    def stats(self):
        """Summary dict: gate counts by type, net/IO counts, logic depth."""
        by_type = {}
        for gate in self.gates:
            by_type[gate.gate_type.name] = by_type.get(gate.gate_type.name,
                                                       0) + 1
        depth = self.logic_depth if self._finalized else 0
        return {
            "name": self.name,
            "gates": self.num_gates,
            "nets": self.num_nets,
            "inputs": len(self.inputs),
            "outputs": len(self.outputs),
            "depth": depth,
            "by_type": by_type,
        }
