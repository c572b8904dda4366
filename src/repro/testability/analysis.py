"""Static testability engine facade (the pre-simulation triage layer).

:class:`TestabilityAnalysis` bundles the three static analyses over one
netlist + observation set — SCOAP scores, dominance collapsing, and
untestability proofs — behind the interface the compaction flow consumes:

* :meth:`TestabilityAnalysis.untestable` — provably undetectable faults
  (the ``--static-prune safe`` pruning set: removing them cannot change
  any detected-fault set);
* :meth:`TestabilityAnalysis.rank` — GIF-PO-style static detectability
  ordering of a fault worklist (easiest-to-detect first, so fault
  dropping fires as early as possible) — a pure permutation, so every
  detection set is invariant under it;
* :meth:`TestabilityAnalysis.dominance` — the id-preserving dominance
  class map for reports and ``repro analyze``.

:func:`cross_check_pruned` is the ``strict`` mode's differential oracle:
it re-simulates every pruned fault with the ``cone`` reference engine and
raises if any proof is ever contradicted by an actual detection.

:func:`analyze_module` produces the ``repro analyze`` report document.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import TestabilityError
from .dominance import collapse_dominance
from .scoap import INF, _sensitize_cost, compute_scoap, scoap_summary
from .untestable import PROOF_KINDS, UntestabilityProver

#: Valid values of the flow-level ``static_prune`` knob.
PRUNE_MODES = ("off", "safe", "strict")

#: Valid values of the flow-level ``rank`` knob (None/"none" = keep the
#: canonical fault-list order).
RANK_MODES = ("none", "scoap")


def validate_prune_mode(mode):
    """Normalize/validate a ``static_prune`` knob value."""
    if mode is None:
        return "off"
    if mode not in PRUNE_MODES:
        raise TestabilityError(
            "static_prune must be one of {}, got {!r}".format(
                "/".join(PRUNE_MODES), mode))
    return mode


def validate_rank_mode(mode):
    """Normalize/validate a ``rank`` knob value."""
    if mode is None:
        return "none"
    if mode not in RANK_MODES:
        raise TestabilityError("rank must be one of {}, got {!r}".format(
            "/".join(RANK_MODES), mode))
    return mode


class TestabilityAnalysis:
    """Static testability analyses of one netlist + observation set.

    Everything is computed lazily and cached: SCOAP and the constant map
    are one pass each, untestability proofs are one pass over the fault
    list plus per-seed implication walks, dominance is one pass over the
    gates.

    Args:
        netlist: finalized netlist.
        observed: observation-point nets (default: the primary outputs —
            module-level observability, matching
            :class:`~repro.faults.fault_sim.FaultSimulator`).
    """

    __test__ = False  # name starts with Test*; keep pytest from collecting

    def __init__(self, netlist, observed=None):
        netlist.finalize()
        self.netlist = netlist
        if observed is None:
            observed = list(netlist.outputs)
        self.observed = tuple(observed)
        self._scoap = None
        self._prover = None

    @property
    def scoap(self):
        """The :class:`~repro.testability.scoap.ScoapScores` (lazy)."""
        if self._scoap is None:
            self._scoap = compute_scoap(self.netlist, self.observed)
        return self._scoap

    @property
    def prover(self):
        """The :class:`~repro.testability.untestable.UntestabilityProver`
        (lazy)."""
        if self._prover is None:
            self._prover = UntestabilityProver(self.netlist, self.observed)
        return self._prover

    # -- untestability ----------------------------------------------------

    def prove_untestable(self, fault):
        return self.prover.prove(fault)

    def untestable(self, faults):
        """Ordered ``{fault: proof}`` over *faults* (the safe prune set)."""
        return self.prover.untestable(faults)

    # -- ranking ----------------------------------------------------------

    def fault_score(self, fault):
        """Static detectability score of one fault: controllability of
        the activating value plus observability of the site (pin faults
        fold the reading gate's sensitization cost).  Lower = easier to
        detect; :data:`~repro.testability.scoap.INF` = no sensitizable
        path under the SCOAP estimate."""
        scores = self.scoap
        activation = (scores.cc1 if fault.stuck_at == 0
                      else scores.cc0)[fault.net]
        observability = self._site_observability(fault, scores)
        return activation + observability

    def _site_observability(self, fault, scores):
        if fault.is_stem():
            return scores.co[fault.net]
        gate = self.netlist.gates[fault.gate]
        out_co = scores.co[gate.output]
        if out_co == INF:
            return INF
        return out_co + _sensitize_cost(gate.gate_type, gate.inputs,
                                        fault.pin, scores.cc0,
                                        scores.cc1) + 1

    def rank(self, faults):
        """*faults* reordered easiest-detectable-first (stable: equal
        scores keep their input order, so the permutation — and with it
        every detection set — is deterministic)."""
        indexed = list(faults)
        return sorted(indexed,
                      key=lambda f, s=self.fault_score: (s(f) == INF,
                                                         s(f)))

    # -- dominance --------------------------------------------------------

    def dominance(self, fault_list):
        """Dominance-collapse *fault_list*; see
        :func:`repro.testability.dominance.collapse_dominance`."""
        return collapse_dominance(self.netlist, fault_list, self.observed)


def cross_check_pruned(netlist, patterns, pruned, observed=None):
    """Differential oracle of ``--static-prune strict``: simulate every
    statically pruned fault and raise if any is detected.

    The simulation uses the ``cone`` reference engine: the static cone
    walk shares no propagation code with the event engine the campaign
    runs, so the check does not trust the production path.

    Args:
        netlist: the module netlist.
        patterns: the pattern set the main simulation used.
        pruned: iterable of statically pruned faults.
        observed: observation nets (default: primary outputs).

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
    simulator = FaultSimulator(netlist, observed_outputs=observed,
                               engine="cone")
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
    scoap: dict
    dominance_classes: int
    dominance_collapsed_away: int
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
                "dominance_classes": self.dominance_classes,
                "dominance_collapsed_away": self.dominance_collapsed_away,
            },
            "scoap": _jsonable_scoap(self.scoap),
            "untestable_by_kind": dict(self.untestable_by_kind),
            "proofs": [proof.to_dict() for proof in self.proofs],
        }

    def render_text(self, netlist=None, max_proofs=20):
        lines = ["TESTABILITY {} ({} gates, {} nets, {} observed)".format(
            self.module, self.gates, self.nets, self.observed)]
        lines.append("  faults            : {} collapsed stuck-at".format(
            self.total_faults))
        lines.append("  dominance         : {} class(es), {} fault(s) "
                     "collapsed away".format(
                         self.dominance_classes,
                         self.dominance_collapsed_away))
        lines.append("  untestable        : {} proven ({})".format(
            self.untestable_count,
            ", ".join("{} {}".format(count, kind) for kind, count
                      in sorted(self.untestable_by_kind.items()))
            or "none"))
        lines.append("  testable          : {} (the safe-prune FC "
                     "denominator)".format(self.testable_faults))
        for name in ("cc0", "cc1", "co"):
            stats = self.scoap[name]
            mean = ("n/a" if stats["mean"] is None
                    else "{:.1f}".format(stats["mean"]))
            lines.append("  scoap {:<11} : max {}, mean {}, {} "
                         "unreachable".format(
                             name.upper(), stats["max"], mean,
                             stats["unreachable"]))
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


def _jsonable_scoap(summary):
    """INF-free copy of a :func:`scoap_summary` (JSON has no inf)."""
    clean = {}
    for name, stats in summary.items():
        clean[name] = {
            key: (None if value == INF else value)
            for key, value in stats.items()
        }
    return clean


def analyze_module(netlist, observed=None, name=None):
    """Run the full static testability analysis of one module netlist.

    Returns a :class:`TestabilityReport` covering SCOAP summary
    statistics, dominance classes, and every untestability proof over
    the module's collapsed fault list.
    """
    from ..faults.fault import FaultList

    analysis = TestabilityAnalysis(netlist, observed=observed)
    fault_list = FaultList(netlist)
    proofs = analysis.untestable(fault_list)
    by_kind = {}
    for proof in proofs.values():
        by_kind[proof.kind] = by_kind.get(proof.kind, 0) + 1
    dominance = analysis.dominance(fault_list)
    return TestabilityReport(
        module=name or netlist.name,
        gates=netlist.num_gates,
        nets=netlist.num_nets,
        observed=len(analysis.observed),
        total_faults=len(fault_list),
        scoap=scoap_summary(analysis.scoap),
        dominance_classes=dominance.num_classes,
        dominance_collapsed_away=dominance.num_collapsed_away,
        untestable_by_kind=by_kind,
        proofs=list(proofs.values()),
    )


__all__ = ["TestabilityAnalysis", "TestabilityReport", "analyze_module",
           "cross_check_pruned", "validate_prune_mode",
           "validate_rank_mode", "PRUNE_MODES", "RANK_MODES",
           "PROOF_KINDS"]
