"""ATPG for single stuck-at faults: random phase + deterministic PODEM.

This stands in for the commercial ATPG tool the paper uses to build the
TPGEN and SFU_IMM PTPs ("test patterns extracted from an ATPG", Section IV).

The random phase fault-simulates batches of pseudorandom patterns with fault
dropping.  The deterministic phase then walks the remaining faults:

* **Static skip.** A target that
  :class:`~repro.testability.untestable.UntestabilityProver` proves
  undetectable (UT001-UT003) is recorded as untestable with its proof and
  never reaches PODEM.  Such a target could only have ended untestable or
  aborted, and neither outcome draws random bits or emits a pattern, so
  skipping it changes no pattern.
* **PODEM** (Goel, 1981) runs on the rest, with a five-valued composite
  algebra encoded as (good, faulty) pairs over {0, 1, X}.

PODEM's implication is event-driven.  Each target starts from the all-X
state with the fault injected; assigning a primary input re-evaluates only
the gates that read a net whose (good, faulty) pair changed, level by level
over the :class:`~repro.faults.propagate.PropagationSchedule` fanout, and
pushes every overwritten pair onto a trail.  A backtrack pops the trail
back to the decision's mark instead of re-simulating, and the D-frontier
and the set of primary outputs showing D/D' are kept up to date over the
nets each step touches.  The resulting state equals a full re-simulation
after every step (the hypothesis oracle in ``tests/faults/test_atpg.py``
checks this), so the search makes exactly the decisions of a full-pass
PODEM.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from ..errors import AtpgError
from ..netlist.gates import ARITY, CONTROLLING_VALUE, GateType
from ..netlist.netlist import CONST0, CONST1
from ..netlist.simulator import PatternSet
from .fault import OUTPUT_PIN, FaultList, fault_sort_key
from .fault_sim import FaultSimulator
from .propagate import PropagationSchedule

X = 2  # unknown logic value in the three-valued component domain


def _and3(a, b):
    if a == 0 or b == 0:
        return 0
    if a == X or b == X:
        return X
    return 1


def _or3(a, b):
    if a == 1 or b == 1:
        return 1
    if a == X or b == X:
        return X
    return 0


def _not3(a):
    return X if a == X else 1 - a


def _xor3(a, b):
    if a == X or b == X:
        return X
    return a ^ b


def _mux3(a, b, sel):
    if sel == 0:
        return a
    if sel == 1:
        return b
    return a if a == b and a != X else X


def _eval3(gate_type, ins):
    if gate_type is GateType.BUF:
        return ins[0]
    if gate_type is GateType.NOT:
        return _not3(ins[0])
    if gate_type is GateType.AND:
        return _and3(ins[0], ins[1])
    if gate_type is GateType.OR:
        return _or3(ins[0], ins[1])
    if gate_type is GateType.NAND:
        return _not3(_and3(ins[0], ins[1]))
    if gate_type is GateType.NOR:
        return _not3(_or3(ins[0], ins[1]))
    if gate_type is GateType.XOR:
        return _xor3(ins[0], ins[1])
    if gate_type is GateType.XNOR:
        return _not3(_xor3(ins[0], ins[1]))
    if gate_type is GateType.MUX:
        return _mux3(ins[0], ins[1], ins[2])
    raise AtpgError("unknown gate type {!r}".format(gate_type))


#: Per gate type, :func:`_eval3` over every input combination, indexed by
#: the base-3 number the input values spell (first input most significant).
_TABLES = {
    gate_type: tuple(_eval3(gate_type, ins)
                     for ins in itertools.product((0, 1, X), repeat=arity))
    for gate_type, arity in ARITY.items()
}


def _table_index(values):
    index = 0
    for value in values:
        index = 3 * index + value
    return index


_INVERTING = {GateType.NOT, GateType.NAND, GateType.NOR, GateType.XNOR}


@dataclass
class AtpgResult:
    """Outcome of an ATPG campaign.

    Attributes:
        patterns: the generated :class:`~repro.netlist.simulator.PatternSet`.
        pattern_faults: per pattern, the list of faults it was generated for
            or first-detected (random patterns list their dropped faults).
        detected: faults detected by the campaign.
        untestable: deterministic-phase targets for which no test exists:
            proven statically (see :attr:`proofs`) or by PODEM's search.
        aborted: faults PODEM gave up on (backtrack limit).
        proofs: ``{fault: UntestabilityProof}`` for the untestable targets
            the static prover settled before PODEM; the other untestable
            faults were proven by PODEM.
    """

    patterns: PatternSet
    pattern_faults: list
    detected: list = field(default_factory=list)
    untestable: list = field(default_factory=list)
    aborted: list = field(default_factory=list)
    proofs: dict = field(default_factory=dict)

    def coverage(self, total):
        return 100.0 * len(self.detected) / total if total else 0.0


class PodemEngine:
    """PODEM test generation for one netlist."""

    def __init__(self, netlist, max_backtracks=500):
        netlist.finalize()
        self.netlist = netlist
        self.max_backtracks = max_backtracks
        self._po_set = set(netlist.outputs)
        self._gates = netlist.levelized_gates
        schedule = PropagationSchedule(netlist)
        self._fanout = schedule.fanout
        self._gate_inputs = schedule.gate_inputs
        self._gate_output = schedule.gate_output
        self._gate_level = schedule.gate_level
        self._table = [_TABLES[gate.gate_type] for gate in netlist.gates]
        self._rank = [0] * netlist.num_gates  # position in levelized order
        for rank, gate in enumerate(self._gates):
            self._rank[gate.index] = rank
        self._buckets = [[] for __ in range(schedule.depth + 1)]
        self._stamp = [0] * netlist.num_gates
        self._serial = 0
        # The good machine with every primary input at X: one full pass,
        # shared by every target.
        good = [X] * netlist.num_nets
        good[CONST0] = 0
        good[CONST1] = 1
        for gate in self._gates:
            good[gate.output] = self._table[gate.index][
                _table_index([good[net] for net in gate.inputs])]
        self._x_good = good

    # -- event-driven composite-value implication -----------------------------

    def _reset(self, fault):
        """Start a target: the all-X state with *fault* injected."""
        self._fault = fault
        self._stuck = fault.stuck_at
        if fault.pin == OUTPUT_PIN:
            self._stem_net, self._fault_gate = fault.net, -1
        else:
            self._stem_net, self._fault_gate = -1, fault.gate
        self._good = self._x_good[:]
        self._faulty = self._x_good[:]
        self._trail = []  # (net, previous good, previous faulty)
        self._frontier = set()  # levelized ranks of the D-frontier gates
        self._d_outputs = set()  # primary outputs showing D or D'
        changed = []
        if fault.pin == OUTPUT_PIN and fault.gate is None:
            self._set(fault.net, self._good[fault.net], fault.stuck_at,
                      changed)
            seeds = self._fanout[fault.net]
        else:
            seeds = (fault.gate,)
        self._propagate(seeds, changed)
        # The pin-faulted gate reads fault.net, so refreshing that net's
        # readers puts it on the frontier when its pin already holds D.
        changed.append(fault.net)
        self._refresh(changed)

    def _assign(self, net, value):
        """Assign primary input *net* and imply forward."""
        changed = []
        faulty = self._stuck if net == self._stem_net else value
        self._set(net, value, faulty, changed)
        self._propagate(self._fanout[net], changed)
        self._refresh(changed)

    def _undo(self, mark):
        """Pop the trail back to length *mark*."""
        trail = self._trail
        good, faulty = self._good, self._faulty
        changed = []
        while len(trail) > mark:
            net, good[net], faulty[net] = trail.pop()
            changed.append(net)
        self._refresh(changed)

    def _set(self, net, good_value, faulty_value, changed):
        self._trail.append((net, self._good[net], self._faulty[net]))
        self._good[net] = good_value
        self._faulty[net] = faulty_value
        changed.append(net)

    def _propagate(self, seeds, changed):
        """Re-evaluate *seeds* and, level by level, every reader of a net
        whose (good, faulty) pair changed; record changes on the trail."""
        good, faulty, trail = self._good, self._faulty, self._trail
        gate_inputs, gate_output = self._gate_inputs, self._gate_output
        gate_level, fanout, table = self._gate_level, self._fanout, self._table
        buckets, stamp = self._buckets, self._stamp
        fault_gate, stem_net, stuck = (self._fault_gate, self._stem_net,
                                       self._stuck)
        fault_pin = self._fault.pin
        self._serial += 1
        serial = self._serial
        pending = 0
        for gate in seeds:
            if stamp[gate] != serial:
                stamp[gate] = serial
                buckets[gate_level[gate]].append(gate)
                pending += 1
        level = 0
        while pending:
            level += 1
            bucket = buckets[level]
            if not bucket:
                continue
            for gate in bucket:
                ins = gate_inputs[gate]
                values = table[gate]
                if len(ins) == 2:
                    a, b = ins
                    g_out = values[3 * good[a] + good[b]]
                    f_out = values[3 * faulty[a] + faulty[b]]
                elif len(ins) == 1:
                    g_out = values[good[ins[0]]]
                    f_out = values[faulty[ins[0]]]
                else:
                    a, b, sel = ins
                    g_out = values[9 * good[a] + 3 * good[b] + good[sel]]
                    f_out = values[9 * faulty[a] + 3 * faulty[b]
                                   + faulty[sel]]
                if gate == fault_gate:
                    f_ins = [faulty[net] for net in ins]
                    f_ins[fault_pin] = stuck
                    f_out = values[_table_index(f_ins)]
                out = gate_output[gate]
                if out == stem_net:
                    f_out = stuck
                if g_out == good[out] and f_out == faulty[out]:
                    continue
                trail.append((out, good[out], faulty[out]))
                good[out] = g_out
                faulty[out] = f_out
                changed.append(out)
                for reader in fanout[out]:
                    if stamp[reader] != serial:
                        stamp[reader] = serial
                        buckets[gate_level[reader]].append(reader)
                        pending += 1
            pending -= len(bucket)
            buckets[level] = []

    def _refresh(self, changed):
        """Update the D-frontier and the D outputs over the readers of the
        *changed* nets.

        A gate's membership depends on its inputs and its output, and its
        output only changes in the same event pass (hence the same trail
        segment) as one of its inputs, so the readers cover every gate
        whose membership can change.  The one exception is the gate
        :meth:`_reset` seeds: a pin-faulted gate reads ``fault.net``,
        which :meth:`_reset` refreshes, and a stem-faulted gate's faulty
        output is always known, so its membership never changes there.
        """
        good, faulty = self._good, self._faulty
        gate_inputs, gate_output = self._gate_inputs, self._gate_output
        frontier, rank, fanout = self._frontier, self._rank, self._fanout
        touched = set()
        for net in changed:
            touched.update(fanout[net])
            if net in self._po_set:
                if good[net] != X and faulty[net] != X \
                        and good[net] != faulty[net]:
                    self._d_outputs.add(net)
                else:
                    self._d_outputs.discard(net)
        fault_gate = self._fault_gate
        excited = good[self._fault.net] == 1 - self._stuck
        for gate in touched:
            out = gate_output[gate]
            member = False
            if good[out] == X or faulty[out] == X:
                if gate == fault_gate and excited:
                    member = True
                else:
                    for net in gate_inputs[gate]:
                        g_val = good[net]
                        if (g_val != X and faulty[net] != X
                                and g_val != faulty[net]):
                            member = True
                            break
            if member:
                frontier.add(rank[gate])
            else:
                frontier.discard(rank[gate])

    def _first_frontier(self):
        """The D-frontier gate that comes first in levelized order, or
        None.  The frontier holds the gates with an unknown output and a
        D/D' on some input; for an input-pin fault the D sits on the
        faulted pin itself (the net keeps its good value), so the faulted
        gate joins when the pin's good value opposes the stuck value."""
        if not self._frontier:
            return None
        return self._gates[min(self._frontier)]

    def _detected(self):
        return bool(self._d_outputs)

    # -- objective / backtrace -----------------------------------------------

    def _objective(self, fault):
        """Return (net, value) goal, or None when no useful objective."""
        good, faulty = self._good, self._faulty
        if good[fault.net] == X:
            return fault.net, 1 - fault.stuck_at
        gate = self._first_frontier()
        if gate is None:
            return None
        controlling = CONTROLLING_VALUE.get(gate.gate_type)
        noncontrolling = 1 - controlling if controlling is not None else 1
        for net in gate.inputs:
            if good[net] == X or faulty[net] == X:
                return net, noncontrolling
        return None

    def _backtrace(self, net, value, good):
        """Walk *net* back to an unassigned PI, tracking inversions."""
        guard = 0
        while True:
            guard += 1
            if guard > self.netlist.num_gates + 8:
                raise AtpgError("backtrace did not reach a primary input")
            driver_idx = self.netlist.driver_of(net)
            if driver_idx is None:
                return net, value
            gate = self.netlist.gates[driver_idx]
            if gate.gate_type in _INVERTING:
                value = 1 - value if value != X else X
            chosen = None
            for candidate in gate.inputs:
                if good[candidate] == X and candidate not in (CONST0, CONST1):
                    chosen = candidate
                    break
            if chosen is None:
                # All inputs assigned: pick the first non-constant anyway;
                # the implication will expose the conflict and we backtrack.
                for candidate in gate.inputs:
                    if candidate not in (CONST0, CONST1):
                        chosen = candidate
                        break
                if chosen is None:
                    raise AtpgError("backtrace hit constant-only gate")
            net = chosen

    # -- main search -----------------------------------------------------------

    def generate(self, fault):
        """Generate a test cube for *fault*.

        Returns:
            (status, pi_values): status is "detected", "untestable", or
            "aborted"; pi_values maps input nets to 0/1 for detected faults.
        """
        self._reset(fault)
        good = self._good  # updated in place by _assign and _undo
        pi_values = {}
        decisions = []  # [net, value, tried_other, trail mark]
        backtracks = 0

        while True:
            if self._detected():
                return "detected", dict(pi_values)

            failed = False
            site_good = good[fault.net]
            if site_good != X and site_good == fault.stuck_at:
                failed = True  # fault can no longer be excited
            elif site_good != X and not self._frontier:
                failed = True  # excited but nowhere to propagate

            if not failed:
                goal = self._objective(fault)
                if goal is None:
                    failed = True
                else:
                    pi_net, pi_value = self._backtrace(*goal, good)
                    # Backtrace landed on an assigned PI (conflict path):
                    # flip the most recent decision instead of looping.
                    failed = pi_net in pi_values

            if failed:
                while decisions and decisions[-1][2]:
                    del pi_values[decisions.pop()[0]]
                if not decisions:
                    return "untestable", {}
                backtracks += 1
                if backtracks > self.max_backtracks:
                    return "aborted", {}
                top = decisions[-1]
                self._undo(top[3])
                top[1] = 1 - top[1]
                top[2] = True
                pi_values[top[0]] = top[1]
                self._assign(top[0], top[1])
                continue

            if pi_value == X:
                pi_value = 1
            decisions.append([pi_net, pi_value, False, len(self._trail)])
            pi_values[pi_net] = pi_value
            self._assign(pi_net, pi_value)


def _pack(netlist, assignments):
    """:class:`PatternSet` of *assignments* ({input net: 0/1} each), in
    order: one word over every input, one value per pattern."""
    inputs = netlist.inputs
    return PatternSet.from_columns(
        netlist,
        [(list(inputs), [sum(assignment[net] << i
                             for i, net in enumerate(inputs))
                         for assignment in assignments])],
        len(assignments))


def run_atpg(module, seed=0, random_patterns=256, random_batch=32,
             max_backtracks=500, fault_list=None, podem_fault_limit=None):
    """Full ATPG campaign over a :class:`HardwareModule`.

    Random-pattern phase with fault dropping, then PODEM on the remainder
    (at most *podem_fault_limit* deterministic targets when set — the tail
    stays uncovered, as with a bounded commercial ATPG effort).  Targets
    the static untestability prover settles count against that limit but
    never reach PODEM.

    Returns an :class:`AtpgResult` whose ``patterns`` are in generation
    order and whose ``pattern_faults[k]`` lists the faults attributed to
    pattern ``k`` (dropped by it in the random phase, or targeted by PODEM).
    """
    from ..testability.untestable import UntestabilityProver

    netlist = module.netlist
    if fault_list is None:
        fault_list = FaultList(netlist)
    rng = random.Random(seed)
    simulator = FaultSimulator(netlist)

    assignments = []   # emitted patterns, {input net: 0/1} each
    pattern_faults = []
    remaining = fault_list
    detected = []

    emitted = 0
    while emitted < random_patterns and len(remaining):
        batch = [{net: rng.getrandbits(1) for net in netlist.inputs}
                 for __ in range(min(random_batch,
                                     random_patterns - emitted))]
        assignments.extend(batch)
        result = simulator.run(_pack(netlist, batch), remaining)
        newly = {}
        for fault, first in zip(result.fault_list, result.first_detection):
            if first is not None:
                newly.setdefault(first, []).append(fault)
        pattern_faults.extend(newly.get(k, []) for k in range(len(batch)))
        dropped = [f for group in newly.values() for f in group]
        detected.extend(dropped)
        remaining = remaining.without(dropped)
        emitted += len(batch)

    engine = PodemEngine(netlist, max_backtracks=max_backtracks)
    prover = UntestabilityProver(netlist, netlist.outputs)
    untestable, aborted, proofs = [], [], {}
    alive = set(remaining)
    podem_targets = 0
    for fault in list(remaining):
        if fault not in alive:
            continue  # dropped by an earlier PODEM pattern
        if podem_fault_limit is not None and podem_targets >= (
                podem_fault_limit):
            break
        podem_targets += 1
        proof = prover.prove(fault)
        if proof is not None:
            proofs[fault] = proof
            untestable.append(fault)
            alive.discard(fault)
            continue
        status, cube = engine.generate(fault)
        if status == "untestable":
            untestable.append(fault)
            alive.discard(fault)
            continue
        if status == "aborted":
            aborted.append(fault)
            continue
        assignment = {net: cube.get(net, rng.getrandbits(1))
                      for net in netlist.inputs}
        result = simulator.run(_pack(netlist, [assignment]),
                               FaultList(netlist, sorted(alive, key=fault_sort_key)))
        confirmed = [f for f, first in zip(result.fault_list,
                                           result.first_detection)
                     if first is not None]
        if fault not in confirmed:
            aborted.append(fault)
            continue
        assignments.append(assignment)
        pattern_faults.append(confirmed)
        detected.extend(confirmed)
        alive.difference_update(confirmed)

    return AtpgResult(patterns=_pack(netlist, assignments),
                      pattern_faults=pattern_faults,
                      detected=detected, untestable=untestable,
                      aborted=aborted, proofs=proofs)
