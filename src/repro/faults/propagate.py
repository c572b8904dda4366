"""Event-driven fault propagation over levelized netlists.

The cone-walk engine in :mod:`repro.faults.fault_sim` visits **every** gate
in a fault's static fanout cone, even after the fault effect has died out —
for a typical stuck-at fault only a fraction of the cone ever carries a
difference, so most of that walk is execution redundancy (the kind ERASER
and GATSPI trim at gate level).  This module provides the event-driven
alternative:

* :class:`PropagationSchedule` precomputes, once per netlist, the flat
  structure the hot loop needs: fanout adjacency, per-gate topological
  levels, integer gate opcodes, plus lazily-cached observability reach
  tables and static cone sizes.
* :class:`EventDrivenEngine` propagates one fault as a *frontier* of
  changed nets that advances level by level through that schedule and
  terminates as soon as the frontier empties — gates whose inputs never
  change are never touched.

Bit-identity with the cone walk follows from three facts: (1) a gate is
evaluated by the cone walk iff at least one of its inputs differs from the
good machine, which is exactly the event condition; (2) levels order every
evaluation after all of its input updates, so both engines evaluate each
gate over identical input values; and (3) a net is driven by exactly one
gate and the netlist is acyclic, so no net is ever updated twice and the
set of changed nets cannot differ.  The equivalence oracle in
``tests/faults/test_propagate.py`` checks this over random netlists.
"""

from __future__ import annotations

from ..netlist.gates import GateType, evaluate
from .fault import OUTPUT_PIN

#: Integer opcodes for the inlined gate evaluator (enum identity checks in
#: the inner loop are measurably slower than small-int comparisons).
_BUF, _NOT, _AND, _OR, _NAND, _NOR, _XOR, _XNOR, _MUX = range(9)

_OPCODE = {
    GateType.BUF: _BUF,
    GateType.NOT: _NOT,
    GateType.AND: _AND,
    GateType.OR: _OR,
    GateType.NAND: _NAND,
    GateType.NOR: _NOR,
    GateType.XOR: _XOR,
    GateType.XNOR: _XNOR,
    GateType.MUX: _MUX,
}


class PropagationSchedule:
    """Static per-netlist propagation structure.

    Built once per simulator (cheap: one pass over the gates) and shared by
    every fault of every run:

    Attributes:
        opcode: per-gate integer opcode.
        gate_inputs: per-gate input net tuple.
        gate_output: per-gate output net.
        fanout: per-net tuple of reading gate indices.
        gate_level: per-gate topological level (1-based).
        depth: maximum gate level.
    """

    def __init__(self, netlist):
        netlist.finalize()
        self.netlist = netlist
        gates = netlist.gates
        self.opcode = [_OPCODE[g.gate_type] for g in gates]
        self.gate_inputs = [g.inputs for g in gates]
        self.gate_output = [g.output for g in gates]
        self.gate_level = [netlist.net_level(g.output) for g in gates]
        self.depth = netlist.logic_depth
        fanout = [[] for __ in range(netlist.num_nets)]
        for gate in gates:
            for net in gate.inputs:
                fanout[net].append(gate.index)
        self.fanout = [tuple(readers) for readers in fanout]
        self._reach = {}       # frozenset(targets) -> per-net bool list
        self._cone_sizes = None  # net -> gates in its static fanout cone
        self._support = {}     # seed net -> frozenset of supporting PIs
        self._pi_mask = None   # net -> bitmask over PI slots (lazy DP)
        self._pi_list = None   # PI slot -> net index

    def seed_net(self, fault):
        """The net whose change seeds *fault*'s propagation (the cone
        head): the faulted net for stem faults, the reading gate's output
        for input-pin faults."""
        if fault.pin == OUTPUT_PIN:
            return fault.net
        return self.gate_output[fault.gate]

    def reach_from(self, targets):
        """Per-net bool list: can the net reach any of *targets*?

        *targets* must be a frozenset of net indices (hashable cache key).
        A net reaches the targets when it is one, or when any gate reading
        it drives a reaching net — one reverse-topological pass, cached.
        """
        reach = self._reach.get(targets)
        if reach is None:
            reach = [False] * self.netlist.num_nets
            for net in targets:
                reach[net] = True
            gate_output = self.gate_output
            gate_inputs = self.gate_inputs
            for index in range(len(gate_output) - 1, -1, -1):
                if reach[gate_output[index]]:
                    for net in gate_inputs[index]:
                        reach[net] = True
            self._reach[targets] = reach
        return reach

    def _pi_masks(self):
        """Per-net bitmask over PI slots: bit *i* set when ``_pi_list[i]``
        is in the net's fanin closure.  One forward topological pass (the
        gate list is topologically ordered), computed lazily once."""
        if self._pi_mask is None:
            pis = sorted(self.netlist.inputs)
            self._pi_list = pis
            mask = [0] * self.netlist.num_nets
            for slot, net in enumerate(pis):
                mask[net] = 1 << slot
            gate_inputs = self.gate_inputs
            gate_output = self.gate_output
            for index in range(len(gate_output)):
                acc = 0
                for net in gate_inputs[index]:
                    acc |= mask[net]
                mask[gate_output[index]] |= acc
            self._pi_mask = mask
        return self._pi_mask

    def support_of(self, seed):
        """Primary inputs whose pattern values determine the detection
        outcome of every fault seeded at *seed*: the fanin closure of the
        seed plus the inputs and outputs of every gate in its fanout cone.

        The good values on these nets fix (a) excitation — the seed's
        driving gate, when present, is in the closure, so its input nets
        are too — and (b) propagation and observation, because every
        side-input consumed while the fault effect walks the cone is an
        input of a cone gate.  Faults whose supporting PI values are
        unchanged between two pattern sets therefore detect identically;
        this is the soundness lemma the incremental restore layer
        (:mod:`repro.exec.incremental`) relies on.  Cached per seed.
        """
        support = self._support.get(seed)
        if support is None:
            # Forward walk over the seed's static fanout cone, OR-ing each
            # visited net's precomputed fanin-PI bitmask.  The fanin
            # closure of {seed} ∪ {cone gate inputs} projected onto the
            # PIs is exactly the union of those per-net masks (cone gate
            # *outputs* add nothing: an output's mask is the OR of its
            # input masks, which are already accumulated).
            mask = self._pi_masks()
            acc = mask[seed]
            seen_gates = set()
            seen_nets = {seed}
            stack = [seed]
            while stack:
                net = stack.pop()
                for gate in self.fanout[net]:
                    if gate not in seen_gates:
                        seen_gates.add(gate)
                        for inp in self.gate_inputs[gate]:
                            acc |= mask[inp]
                        out = self.gate_output[gate]
                        if out not in seen_nets:
                            seen_nets.add(out)
                            stack.append(out)
            pis = self._pi_list
            members = []
            while acc:
                low = acc & -acc
                members.append(pis[low.bit_length() - 1])
                acc ^= low
            support = frozenset(members)
            self._support[seed] = support
        return support

    def cone_size(self, net):
        """Number of gates in the static transitive fanout of *net* (what
        the cone walk would visit).  The sizes of all nets come from one
        reverse-topological bitset pass on first use: a net's cone is the
        union, over the gates reading it, of the gate and its output's
        cone."""
        if self._cone_sizes is None:
            cones = [0] * self.netlist.num_nets
            gate_inputs = self.gate_inputs
            gate_output = self.gate_output
            for gate in range(len(gate_output) - 1, -1, -1):
                cone = cones[gate_output[gate]] | 1 << gate
                for input_net in gate_inputs[gate]:
                    cones[input_net] |= cone
            self._cone_sizes = [bin(cone).count("1") for cone in cones]
        return self._cone_sizes[net]


class EventDrivenEngine:
    """Frontier propagation of single faults through a schedule.

    One engine per :class:`~repro.faults.fault_sim.FaultSimulator`; the
    level buckets and the scheduling stamp array are reused across faults
    (cleared lazily, versioned by a serial counter) so per-fault setup is
    O(frontier), not O(netlist).

    Attributes:
        last_evaluated: gates evaluated by the most recent
            :meth:`advance` (the caller's gates-evaluated counter).
    """

    def __init__(self, netlist):
        self.schedule = PropagationSchedule(netlist)
        self._buckets = [[] for __ in range(self.schedule.depth + 1)]
        self._stamp = [0] * len(self.schedule.gate_output)
        self._serial = 0
        self.last_evaluated = 0

    def seed_value(self, fault, good_list, mask):
        """Activation check: the packed faulty value of the seed net, or
        None when the fault is not excited by any pattern.

        For stem faults this is the stuck word; for input-pin faults the
        faulted gate is evaluated once with the stuck pin.
        """
        stuck_word = mask if fault.stuck_at else 0
        if fault.pin == OUTPUT_PIN:
            if stuck_word == good_list[fault.net]:
                return None
            return stuck_word
        schedule = self.schedule
        gate = fault.gate
        values = [good_list[net] for net in schedule.gate_inputs[gate]]
        values[fault.pin] = stuck_word
        out = evaluate(schedule.netlist.gates[gate].gate_type, values, mask)
        if out == good_list[schedule.gate_output[gate]]:
            return None
        return out

    def advance(self, seed, seed_value, good_list, mask):
        """Advance the frontier from ``{seed: seed_value}`` to quiescence.

        Returns:
            ``(faulty, changed_nets)`` — the per-net packed faulty values
            (list indexed by net; equal to the good value everywhere the
            fault never reached) and the nets whose faulty value differs
            from the good machine, in update order.  The loop exits the
            moment no scheduled gate remains: dead fault effects cost
            nothing beyond the gates that killed them.
        """
        schedule = self.schedule
        opcode = schedule.opcode
        gate_inputs = schedule.gate_inputs
        gate_output = schedule.gate_output
        gate_level = schedule.gate_level
        fanout = schedule.fanout
        buckets = self._buckets
        stamp = self._stamp
        self._serial += 1
        serial = self._serial

        faulty = good_list[:]
        faulty[seed] = seed_value
        changed_nets = [seed]
        pending = 0
        for gate in fanout[seed]:
            if stamp[gate] != serial:
                stamp[gate] = serial
                buckets[gate_level[gate]].append(gate)
                pending += 1

        evaluated = 0
        level = 0
        while pending:
            level += 1
            bucket = buckets[level]
            if not bucket:
                continue
            for gate in bucket:
                ins = gate_inputs[gate]
                code = opcode[gate]
                if code == _AND:
                    out = faulty[ins[0]] & faulty[ins[1]]
                elif code == _OR:
                    out = faulty[ins[0]] | faulty[ins[1]]
                elif code == _NAND:
                    out = ~(faulty[ins[0]] & faulty[ins[1]]) & mask
                elif code == _NOR:
                    out = ~(faulty[ins[0]] | faulty[ins[1]]) & mask
                elif code == _XOR:
                    out = faulty[ins[0]] ^ faulty[ins[1]]
                elif code == _XNOR:
                    out = ~(faulty[ins[0]] ^ faulty[ins[1]]) & mask
                elif code == _MUX:
                    sel = faulty[ins[2]]
                    out = (faulty[ins[0]] & ~sel
                           | faulty[ins[1]] & sel) & mask
                elif code == _BUF:
                    out = faulty[ins[0]]
                else:
                    out = ~faulty[ins[0]] & mask
                evaluated += 1
                out_net = gate_output[gate]
                if out != good_list[out_net]:
                    faulty[out_net] = out
                    changed_nets.append(out_net)
                    for reader in fanout[out_net]:
                        if stamp[reader] != serial:
                            stamp[reader] = serial
                            buckets[gate_level[reader]].append(reader)
                            pending += 1
            pending -= len(bucket)
            buckets[level] = []
        self.last_evaluated = evaluated
        return faulty, changed_nets

    def propagate(self, fault, good_list, mask):
        """Activation check + frontier advance for one fault.

        Returns ``(faulty, changed_nets)`` or ``(None, None)`` when the
        fault is never excited.
        """
        seed = self.schedule.seed_net(fault)
        seed_value = self.seed_value(fault, good_list, mask)
        if seed_value is None:
            self.last_evaluated = 0
            return None, None
        return self.advance(seed, seed_value, good_list, mask)
