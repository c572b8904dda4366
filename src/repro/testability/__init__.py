"""Static testability engine: pre-simulation triage of the fault list.

:mod:`~repro.testability.untestable` proves faults untestable
(UT001/UT002/UT003) over the levelized netlist without running a single
simulation pattern.  Its proofs feed the FC fault list: ATPG skips the
proven targets, and ``--static-prune`` drops them from the FC
denominator.

:mod:`~repro.testability.analysis` runs the prover for the ``repro
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
from .untestable import PROOF_KINDS, UntestabilityProof, UntestabilityProver, propagate_constants

__all__ = [
    "PROOF_KINDS",
    "PRUNE_MODES",
    "TestabilityReport",
    "UntestabilityProof",
    "UntestabilityProver",
    "analyze_module",
    "cross_check_pruned",
    "propagate_constants",
    "validate_prune_mode",
]
