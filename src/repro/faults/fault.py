"""Single stuck-at fault model over gate-level netlists.

Fault sites are gate output nets, primary-input nets, and gate input pins.
Structural equivalence collapsing removes input-pin faults that are
equivalent to the gate's output fault (e.g. any AND input stuck-at-0 is
equivalent to the output stuck-at-0), matching the collapsed stuck-at lists
commercial fault simulators produce for standard-cell netlists.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import FaultSimError
from ..netlist.gates import CONTROLLING_VALUE, GateType
from ..netlist.netlist import CONST0, CONST1

#: Pin index meaning "the gate's output" in a fault site.
OUTPUT_PIN = -1


@dataclass(frozen=True)
class StuckAtFault:
    """One collapsed single stuck-at fault.

    Attributes:
        net: the faulted net (for pin faults, the net the pin reads).
        gate: reading gate index for input-pin faults; driving gate index (or
            None for primary inputs) for output/stem faults.
        pin: input pin position within ``gate``, or :data:`OUTPUT_PIN`.
        stuck_at: 0 or 1.
    """

    net: int
    gate: object  # int or None
    pin: int
    stuck_at: int

    def is_stem(self):
        """True for output/primary-input (stem) faults."""
        return self.pin == OUTPUT_PIN

    def describe(self, netlist=None):
        """Human-readable site description, e.g. ``net 12 (g5.in0) s-a-1``."""
        name = ""
        if netlist is not None and self.net in netlist.net_names:
            name = " ({})".format(netlist.net_names[self.net])
        if self.is_stem():
            site = "net {}{}".format(self.net, name)
        else:
            site = "net {}{} @ g{}.in{}".format(self.net, name, self.gate,
                                                self.pin)
        return "{} s-a-{}".format(site, self.stuck_at)


def fault_sort_key(fault):
    """Deterministic ordering key (gate may be None for PI stems)."""
    return (fault.net, fault.pin, fault.stuck_at,
            -1 if fault.gate is None else fault.gate)


def enumerate_faults(netlist, collapse=True):
    """Enumerate the (optionally collapsed) stuck-at fault list of *netlist*.

    Returns a deterministic, sorted list of :class:`StuckAtFault`.

    Collapsing rules (when *collapse*):

    * BUF/NOT input faults are dropped (equivalent to the output fault, with
      inversion for NOT).
    * For AND/NAND (OR/NOR), input stuck-at-controlling faults are dropped —
      they are equivalent to the output stuck-at the controlled response.
    * Input pins on fanout-free nets keep only the stem fault of the driving
      net (the pin fault is indistinguishable from the stem fault).
    """
    netlist.finalize()
    faults = []

    # Stem faults: every primary input and every gate output.
    for net in netlist.inputs:
        for value in (0, 1):
            faults.append(StuckAtFault(net, None, OUTPUT_PIN, value))
    for gate in netlist.gates:
        for value in (0, 1):
            faults.append(StuckAtFault(gate.output, gate.index, OUTPUT_PIN,
                                       value))

    # Input-pin faults.
    for gate in netlist.gates:
        for pin, net in enumerate(gate.inputs):
            if net in (CONST0, CONST1):
                continue  # tied pins are untestable sites
            fanout = len(netlist.fanout_gates(net)) + (
                1 if net in netlist.outputs else 0)
            for value in (0, 1):
                if collapse:
                    if gate.gate_type in (GateType.BUF, GateType.NOT):
                        continue
                    controlling = CONTROLLING_VALUE.get(gate.gate_type)
                    if controlling is not None and value == controlling:
                        continue
                    if fanout <= 1 and gate.gate_type is not GateType.MUX:
                        # Fanout-free: pin fault == stem fault of the net.
                        continue
                faults.append(StuckAtFault(net, gate.index, pin, value))
    return sorted(faults, key=fault_sort_key)


class FaultList:
    """Ordered collection of faults with stable integer ids.

    Static pruning is not applied here: it lives in
    :class:`~repro.faults.dropping.FaultListReport` (``static_prune=``).

    Args:
        netlist: the finalized netlist the faults belong to.
        faults: explicit fault collection (default: the collapsed
            enumeration of *netlist*).
    """

    def __init__(self, netlist, faults=None):
        netlist.finalize()
        self.netlist = netlist
        if faults is None:
            faults = enumerate_faults(netlist)
        self.faults = list(faults)
        self._ids = {fault: i for i, fault in enumerate(self.faults)}
        if len(self._ids) != len(self.faults):
            raise FaultSimError("duplicate faults in fault list")

    def __len__(self):
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    def __getitem__(self, idx):
        return self.faults[idx]

    def id_of(self, fault):
        return self._ids[fault]

    def without(self, detected):
        """New :class:`FaultList` minus the *detected* faults."""
        detected = set(detected)
        remaining = [f for f in self.faults if f not in detected]
        return FaultList(self.netlist, remaining)
