"""Cross-PTP fault dropping (the paper's *fault list report*).

Several PTPs of an STL target the same GPU module.  The paper keeps one
fault-list report per module, initially containing every fault; after each
PTP's fault simulation the detected faults are removed, so the next PTP is
simulated against the *remaining* faults only.  This is what makes the MEM
PTP (compacted after IMM) compact harder than IMM, and what collapses the
standalone FC of RAND (compacted after TPGEN) in Table III.
"""

from __future__ import annotations

import hashlib
import json

from ..errors import FaultSimError
from .fault import FaultList


class FaultListReport:
    """Persistent per-module fault list with drop-on-detection updates.

    Args:
        netlist: the module netlist.
        collapse: apply structural equivalence collapsing.
        static_prune: static-prune mode (``"off"``/``"safe"``/
            ``"strict"``).  When on, the provably-untestable faults move
            to the :attr:`untestable` bucket before any simulation: they
            never enter the remaining worklist and leave the FC
            denominator (:meth:`coverage` divides by
            :attr:`testable_faults`).  ``"off"`` preserves the seed
            accounting exactly.
        observed: observation nets for the untestability proofs
            (default: primary outputs).
    """

    def __init__(self, netlist, collapse=True, static_prune="off",
                 observed=None):
        self.netlist = netlist
        self.full_list = FaultList(netlist, collapse=collapse)
        if static_prune in (None, "off"):
            self.static_prune = "off"
            self.untestable = FaultList(netlist, [])
            self.proofs = {}
        else:
            from ..testability.analysis import TestabilityAnalysis, validate_prune_mode
            self.static_prune = validate_prune_mode(static_prune)
            analysis = TestabilityAnalysis(netlist, observed=observed)
            self.proofs = analysis.untestable(self.full_list)
            self.untestable = FaultList(netlist, list(self.proofs))
        self._pruned_set = frozenset(self.untestable)
        self.remaining = FaultList(
            netlist, [f for f in self.full_list
                      if f not in self._pruned_set])
        self._detected_by = {}  # fault -> label of the PTP that detected it

    @property
    def total_faults(self):
        """Size of the original (never shrinking) fault list."""
        return len(self.full_list)

    @property
    def untestable_faults(self):
        """Size of the proven-untestable bucket (0 under ``"off"``)."""
        return len(self.untestable)

    @property
    def testable_faults(self):
        """The FC denominator under static pruning: total minus proven
        untestable."""
        return self.total_faults - self.untestable_faults

    @property
    def remaining_faults(self):
        return len(self.remaining)

    @property
    def detected_faults(self):
        return self.testable_faults - self.remaining_faults

    def detected_by(self, fault):
        """Label of the PTP that first detected *fault* (None if alive)."""
        return self._detected_by.get(fault)

    def drop(self, detected, label):
        """Remove *detected* faults from the remaining list.

        Args:
            detected: iterable of faults reported detected by a simulation.
            label: name of the PTP whose simulation detected them.

        Returns:
            Number of newly dropped faults.
        """
        detected = list(detected)
        alive = {f for f in self.remaining}
        unknown = [f for f in detected if f not in alive
                   and f not in self._detected_by]
        if unknown:
            raise FaultSimError(
                "{} detected fault(s) outside the fault list".format(
                    len(unknown)))
        new = [f for f in detected if f in alive]
        for fault in new:
            self._detected_by[fault] = label
        self.remaining = self.remaining.without(new)
        return len(new)

    def drop_result(self, result, label):
        """Drop the detected faults of a fault-simulation *result*.

        Returns:
            Number of newly dropped faults (attributed to *label*).
        """
        alive = {f for f in self.remaining}
        return self.drop((fault for fault, first
                          in zip(result.fault_list, result.first_detection)
                          if first is not None and fault in alive), label)

    def coverage(self):
        """Cumulative fault coverage (%) over the module fault list.

        Denominator: all faults under ``static_prune="off"`` (the seed
        accounting), the testable faults otherwise — proven-untestable
        faults are not achievable coverage, so keeping them in the
        denominator would cap FC below 100% for reasons no pattern can
        fix.
        """
        if self.testable_faults == 0:
            return 0.0
        return 100.0 * self.detected_faults / self.testable_faults

    def reset(self):
        """Restore the full fault list (new compaction campaign)."""
        self.remaining = FaultList(
            self.netlist, [f for f in self.full_list
                           if f not in self._pruned_set])
        self._detected_by = {}

    # -- checkpoint state -----------------------------------------------

    def state_dict(self):
        """JSON-serializable snapshot of the dropping state.

        Faults are referenced by their stable id in the full (never
        shrinking) list — :func:`~repro.faults.fault.enumerate_faults` is
        deterministic for a given netlist, so ids are reproducible across
        processes.  ``total_faults`` doubles as a compatibility
        fingerprint for :meth:`restore_state`.
        """
        state = {
            "total_faults": self.total_faults,
            "detected": [[self.full_list.id_of(fault), label]
                         for fault, label in sorted(
                             self._detected_by.items(),
                             key=lambda item: self.full_list.id_of(item[0]))],
        }
        # Under "off" the snapshot is byte-identical to the seed format,
        # so existing checkpoints/fingerprints stay valid; under pruning
        # the mode is recorded so checkpoints cannot silently cross
        # accounting regimes.
        if self.static_prune != "off":
            state["static_prune"] = self.static_prune
        return state

    def fingerprint(self):
        """Stable SHA-256 hex digest of the dropping state.

        Two reports over the same netlist have equal fingerprints exactly
        when their remaining lists (and detection attributions) are
        identical — campaign checkpoints and run metrics use this to mark
        which dropping state a shard/cache artifact was produced under.
        """
        payload = json.dumps(self.state_dict(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def restore_state(self, state):
        """Restore a :meth:`state_dict` snapshot exactly.

        The rebuilt ``remaining`` list is bit-identical to the one the
        snapshotted report held: :meth:`drop` filters the remaining list
        in full-list order, and so does this.

        Raises:
            FaultSimError: the snapshot belongs to a different fault list
                (size mismatch or out-of-range fault ids).
        """
        if state.get("total_faults") != self.total_faults:
            raise FaultSimError(
                "checkpointed fault list has {} faults, module has {}"
                .format(state.get("total_faults"), self.total_faults))
        snap_prune = state.get("static_prune", "off")
        if snap_prune != self.static_prune:
            raise FaultSimError(
                "checkpoint was taken under static_prune={!r}, report "
                "runs under {!r}".format(snap_prune, self.static_prune))
        detected_by = {}
        for fault_id, label in state.get("detected", []):
            if not 0 <= fault_id < self.total_faults:
                raise FaultSimError(
                    "fault id {} outside the fault list".format(fault_id))
            detected_by[self.full_list[fault_id]] = label
        self._detected_by = detected_by
        self.remaining = FaultList(
            self.netlist,
            [f for f in self.full_list
             if f not in detected_by and f not in self._pruned_set])
