"""The static-prune mode and the ``repro analyze`` report.

The compaction flow reaches the untestability prover through
:class:`~repro.faults.dropping.FaultListReport`, whose ``static_prune``
mode :func:`validate_prune_mode` checks.  :func:`cross_check_pruned` is
the ``strict`` mode's differential oracle: it re-simulates every pruned
fault with the ``cone`` reference engine and raises if any proof is ever
contradicted by an actual detection.

:func:`analyze_module` runs the untestability prover over one module and
produces the ``repro analyze`` report document: the proofs and the fault
counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import TestabilityError
from .untestable import PROOF_KINDS, UntestabilityProver

#: Valid values of the flow-level ``static_prune`` knob.
PRUNE_MODES = ("off", "safe", "strict")


def validate_prune_mode(mode):
    """Normalize/validate a ``static_prune`` knob value."""
    if mode is None:
        return "off"
    if mode not in PRUNE_MODES:
        raise TestabilityError(
            "static_prune must be one of {}, got {!r}".format(
                "/".join(PRUNE_MODES), mode))
    return mode


def cross_check_pruned(netlist, patterns, pruned):
    """Differential oracle of ``--static-prune strict``: simulate every
    statically pruned fault and raise if any is detected.

    The simulation uses the ``cone`` reference engine: the static cone
    walk shares no propagation code with the event engine the campaign
    runs, so the check does not trust the production path.

    Args:
        netlist: the module netlist.
        patterns: the pattern set the main simulation used.
        pruned: iterable of statically pruned faults.

    Returns:
        The number of cross-checked faults.

    Raises:
        TestabilityError: a pruned fault was detected — a soundness bug
            in the static analysis (the error lists the witnesses).
    """
    from ..faults.fault import FaultList
    from ..faults.fault_sim import FaultSimulator

    pruned = list(pruned)
    if not pruned or patterns.count == 0:
        return len(pruned)
    simulator = FaultSimulator(netlist, engine="cone")
    result = simulator.run(patterns, FaultList(netlist, pruned))
    detected = result.detected_faults
    if detected:
        witnesses = "; ".join(f.describe(netlist) for f in detected[:5])
        raise TestabilityError(
            "static prune soundness violation: {} statically pruned "
            "fault(s) were detected by the cone engine (e.g. {})".format(
                len(detected), witnesses))
    return len(pruned)


@dataclass
class TestabilityReport:
    """The ``repro analyze`` document for one module.

    JSON-serializable via :meth:`to_dict`; renders as aligned text via
    :meth:`render_text`.
    """

    __test__ = False  # name starts with Test*; keep pytest from collecting

    module: str
    gates: int
    nets: int
    observed: int
    total_faults: int
    untestable_by_kind: dict
    proofs: list = field(default_factory=list)

    @property
    def untestable_count(self):
        return sum(self.untestable_by_kind.values())

    @property
    def testable_faults(self):
        return self.total_faults - self.untestable_count

    def to_dict(self):
        return {
            "module": self.module,
            "gates": self.gates,
            "nets": self.nets,
            "observed": self.observed,
            "faults": {
                "total": self.total_faults,
                "testable": self.testable_faults,
                "untestable": self.untestable_count,
            },
            "untestable_by_kind": dict(self.untestable_by_kind),
            "proofs": [proof.to_dict() for proof in self.proofs],
        }

    def render_text(self, netlist=None, max_proofs=20):
        lines = ["TESTABILITY {} ({} gates, {} nets, {} observed)".format(
            self.module, self.gates, self.nets, self.observed)]
        lines.append("  faults            : {} collapsed stuck-at".format(
            self.total_faults))
        lines.append("  untestable        : {} proven ({})".format(
            self.untestable_count,
            ", ".join("{} {}".format(count, kind) for kind, count
                      in sorted(self.untestable_by_kind.items()))
            or "none"))
        lines.append("  testable          : {} (the safe-prune FC "
                     "denominator)".format(self.testable_faults))
        shown = self.proofs[:max_proofs]
        if shown:
            lines.append("  proofs:")
            for proof in shown:
                lines.append("    {}".format(proof.render(netlist)))
            hidden = len(self.proofs) - len(shown)
            if hidden > 0:
                lines.append("    ... {} more (use --json for the full "
                             "listing)".format(hidden))
        return "\n".join(lines)


def analyze_module(netlist, name=None):
    """Prove the untestable faults of one module netlist, observed at
    its primary outputs.

    Returns a :class:`TestabilityReport` holding every untestability
    proof over the module's collapsed fault list and the fault counts.
    """
    from ..faults.fault import FaultList

    fault_list = FaultList(netlist)
    proofs = UntestabilityProver(netlist).untestable(fault_list)
    by_kind = {}
    for proof in proofs.values():
        by_kind[proof.kind] = by_kind.get(proof.kind, 0) + 1
    return TestabilityReport(
        module=name or netlist.name,
        gates=netlist.num_gates,
        nets=netlist.num_nets,
        observed=len(netlist.outputs),
        total_faults=len(fault_list),
        untestable_by_kind=by_kind,
        proofs=list(proofs.values()),
    )


__all__ = ["TestabilityReport", "analyze_module",
           "cross_check_pruned", "validate_prune_mode", "PRUNE_MODES",
           "PROOF_KINDS"]
