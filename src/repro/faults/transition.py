"""Transition-delay fault model (the paper's declared future work).

Section V: "we plan to extend the compaction capabilities ... as well as
targeting other fault models."  This module provides that extension for
transition-delay faults (slow-to-rise / slow-to-fall) on the same
substrate, so the whole five-stage pipeline can compact PTPs against them.

Semantics (launch-on-capture over the PTP's pattern stream): a slow-to-rise
fault on a net is detected by pattern pair (k-1, k) when pattern k-1 sets
the net to 0, pattern k sets it to 1 (the launch), and the net stuck-at-0
effect propagates to an observed output under pattern k (the capture).
Dually for slow-to-fall with stuck-at-1.  Because consecutive clock cycles
of a PTP supply the pattern pairs, the detection records stay per-cc and
the labeling stage works unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import FaultSimError
from .fault import OUTPUT_PIN, FaultList, StuckAtFault
from .fault_sim import FaultSimResult, FaultSimulator

RISE = "rise"
FALL = "fall"


@dataclass(frozen=True)
class TransitionFault:
    """One transition-delay fault on a stem net.

    Attributes:
        net: the slow net.
        edge: :data:`RISE` (slow-to-rise) or :data:`FALL` (slow-to-fall).
    """

    net: int
    edge: str

    def equivalent_stuck_at(self):
        """The stuck-at value whose propagation captures this fault."""
        return 0 if self.edge == RISE else 1

    def describe(self, netlist=None):
        name = ""
        if netlist is not None and self.net in netlist.net_names:
            name = " ({})".format(netlist.net_names[self.net])
        return "net {}{} slow-to-{}".format(self.net, name, self.edge)


def enumerate_transition_faults(netlist):
    """Both-edge transition faults on every PI and gate-output net."""
    netlist.finalize()
    faults = []
    for net in list(netlist.inputs) + [g.output for g in netlist.gates]:
        faults.append(TransitionFault(net, RISE))
        faults.append(TransitionFault(net, FALL))
    return faults


class TransitionFaultSimulator:
    """Transition-delay fault simulation over a pattern sequence.

    Reuses the stuck-at engine: the slow value behaves as a momentary
    stuck-at during the capture cycle; the launch condition gates which
    patterns count.
    """

    def __init__(self, netlist):
        self._stuck = FaultSimulator(netlist)
        self.netlist = netlist

    def run(self, patterns, faults=None):
        """Simulate; returns a :class:`FaultSimResult`-shaped record of
        first detections whose ``fault_list`` is the transition-fault
        list."""
        if faults is None:
            faults = enumerate_transition_faults(self.netlist)
        return FaultSimResult.from_words(
            _TransitionList(self.netlist, faults), patterns.count,
            self.detection_words(patterns, faults))

    def detection_words(self, patterns, faults=None):
        """Per-fault packed detection words: bit ``k`` set when pattern
        pair (k-1, k) launches the transition and captures it."""
        if faults is None:
            faults = enumerate_transition_faults(self.netlist)
        if patterns.count == 0:
            return [0] * len(faults)
        mask = patterns.mask
        # One stuck-at simulation over the distinct stem proxies computes
        # every capture propagation word.
        proxies = [_stem_proxy(self.netlist, fault.net,
                               fault.equivalent_stuck_at())
                   for fault in faults]
        proxy_list = FaultList(self.netlist, dict.fromkeys(proxies))
        capture = self._stuck.detection_words(patterns, proxy_list)
        good = self._stuck.good_values(patterns)

        detection_words = []
        for fault, proxy in zip(faults, proxies):
            propagate_word = capture[proxy_list.id_of(proxy)]
            # Launch: the net transitions into the slow direction between
            # consecutive patterns (0->1 for rise, 1->0 for fall).
            value = good[fault.net]
            if fault.edge == RISE:
                launch = (~(value << 1)) & value & mask
            else:
                launch = (value << 1) & (~value) & mask
            launch &= ~1  # pattern 0 has no predecessor
            detection_words.append(propagate_word & launch)
        return detection_words


class _TransitionList:
    """Minimal FaultList-shaped container for transition faults."""

    def __init__(self, netlist, faults):
        self.netlist = netlist
        self.faults = list(faults)

    def __len__(self):
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    def __getitem__(self, idx):
        return self.faults[idx]


def _stem_proxy(netlist, net, stuck_value):
    """Stuck-at stem fault used to compute the capture propagation."""
    driver = netlist.driver_of(net)
    if driver is None and net not in netlist.inputs:
        raise FaultSimError("net {} is not a stem".format(net))
    return StuckAtFault(net, driver, OUTPUT_PIN, stuck_value)
