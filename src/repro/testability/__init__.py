"""Static testability engine: pre-simulation triage of the fault list.

Three analyses over the levelized netlist, none of which runs a single
simulation pattern:

* :mod:`~repro.testability.scoap` — SCOAP CC0/CC1/CO testability scores
  (estimates, reported by ``repro analyze``);
* :mod:`~repro.testability.dominance` — dominance collapsing over
  fanout-free dominator chains (id-preserving class map, attribution
  only);
* :mod:`~repro.testability.untestable` — untestability *proofs*
  (UT001/UT002/UT003), the only analysis allowed to prune faults.

:mod:`~repro.testability.analysis` runs all three for the ``repro
analyze`` report and holds the static-prune mode and its strict
cross-check.
"""

from .analysis import (
    PRUNE_MODES,
    TestabilityReport,
    analyze_module,
    cross_check_pruned,
    validate_prune_mode,
)
from .dominance import DominanceResult, collapse_dominance
from .scoap import INF, ScoapScores, compute_scoap, scoap_summary
from .untestable import PROOF_KINDS, UntestabilityProof, UntestabilityProver, propagate_constants

__all__ = [
    "INF",
    "PROOF_KINDS",
    "PRUNE_MODES",
    "DominanceResult",
    "ScoapScores",
    "TestabilityReport",
    "UntestabilityProof",
    "UntestabilityProver",
    "analyze_module",
    "collapse_dominance",
    "compute_scoap",
    "cross_check_pruned",
    "propagate_constants",
    "scoap_summary",
    "validate_prune_mode",
]
