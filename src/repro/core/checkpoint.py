"""Campaign checkpoint persistence (write-temp-then-rename JSON).

A campaign checkpoint is one JSON file capturing everything a resumed
campaign needs to continue *exactly* where the previous run stopped:

* per-PTP outcome records — status (``compacted`` / ``rolled-back`` /
  ``failed``), the structured :class:`~repro.errors.PtpFailure` for
  failed PTPs, the Table-II/III numbers, the static verifier's
  diagnostics, and (for compacted PTPs) the full compacted PTP as a
  :func:`~repro.stl.io.ptp_to_dict` value;
* per-module fault-dropping state — the
  :meth:`~repro.faults.dropping.FaultListReport.state_dict` snapshot,
  so the ordering-sensitive MEM-after-IMM / RAND-after-TPGEN semantics
  survive the interruption bit-identically.

Every :meth:`CampaignCheckpoint.save` writes the whole document to a
temporary file in the same directory and ``os.replace``-renames it over
the target, so a kill at any instant leaves either the previous complete
checkpoint or the new complete checkpoint — never a torn file.
"""

from __future__ import annotations

import json

from ..errors import CheckpointError
from ..exec.cache import write_atomic

#: Bumped whenever the checkpoint document layout changes incompatibly.
FORMAT_VERSION = 1


class CampaignCheckpoint:
    """In-memory campaign checkpoint document bound to one file path.

    The document is a plain dict so the campaign runner can stay
    ignorant of the file layout::

        {
          "version": 1,
          "ptps": {name: {"status": ..., "failure": {...} | null,
                          "numbers": {...}, "compacted": {...} | null,
                          "diagnostics": [...]}},
          "order": [names in completion order],
          "modules": {module_name: <FaultListReport.state_dict()>}
        }

    A resumed campaign needs no artifact keys: the
    :class:`~repro.exec.cache.ArtifactCache` is content-addressed, so the
    same PTP meets the same entries again.  Entry fields the loader does
    not read are ignored, so version-1 checkpoints whose entries still
    carry an artifact-key dict from earlier releases load unchanged.
    """

    def __init__(self, path):
        self.path = path
        self.ptps = {}
        self.order = []
        self.modules = {}

    # -- content ---------------------------------------------------------

    def has_ptp(self, name):
        return name in self.ptps

    def ptp_entry(self, name):
        return self.ptps.get(name)

    def record_ptp(self, name, status, numbers=None, failure=None,
                   compacted=None, diagnostics=None):
        """Record one PTP's final campaign outcome.

        Args:
            name: PTP name.
            status: ``"compacted"``, ``"rolled-back"`` or ``"failed"``.
            numbers: optional dict of summary numbers (sizes, FC, ...).
            failure: optional :class:`~repro.errors.PtpFailure`.
            compacted: the compacted PTP (status ``"compacted"`` only).
            diagnostics: optional list of static-verifier diagnostic
                dicts (:meth:`repro.verify.Diagnostic.to_dict`) — the
                pipeline's verification gate findings for this PTP.
        """
        from ..stl.io import ptp_to_dict

        entry = {
            "status": status,
            "numbers": dict(numbers or {}),
            "failure": failure.to_dict() if failure is not None else None,
            "compacted": (ptp_to_dict(compacted)
                          if compacted is not None else None),
            "diagnostics": list(diagnostics or []),
        }
        if name not in self.ptps:
            self.order.append(name)
        self.ptps[name] = entry

    def ptp_diagnostics(self, name):
        """Static-verifier diagnostic dicts recorded for *name* ([] when
        absent — including checkpoints written before the verifier)."""
        entry = self.ptps.get(name)
        if entry is None:
            return []
        return list(entry.get("diagnostics") or [])

    def record_module_state(self, module_name, state):
        """Record a module's fault-dropping :meth:`state_dict` snapshot."""
        self.modules[module_name] = state

    def module_state(self, module_name):
        return self.modules.get(module_name)

    def compacted_ptp(self, name):
        """The checkpointed compacted PTP for *name*, or None."""
        from ..stl.io import ptp_from_dict

        entry = self.ptps.get(name)
        if entry is None or entry.get("compacted") is None:
            return None
        return ptp_from_dict(entry["compacted"])

    # -- persistence -----------------------------------------------------

    def save(self):
        """Atomically persist the document (write temp, then rename)."""
        document = {
            "version": FORMAT_VERSION,
            "ptps": self.ptps,
            "order": self.order,
            "modules": self.modules,
        }
        write_atomic(self.path,
                     json.dumps(document, indent=1, sort_keys=True),
                     fsync=True)

    @classmethod
    def load(cls, path):
        """Load a checkpoint file written by :meth:`save`.

        Raises:
            CheckpointError: missing file, invalid JSON, wrong layout, or
                an incompatible :data:`FORMAT_VERSION`.
        """
        try:
            with open(path) as handle:
                document = json.load(handle)
        except OSError as exc:
            raise CheckpointError("cannot read checkpoint {!r}: {}".format(
                path, exc)) from exc
        except json.JSONDecodeError as exc:
            raise CheckpointError("corrupt checkpoint {!r}: {}".format(
                path, exc)) from exc
        if not isinstance(document, dict):
            raise CheckpointError("corrupt checkpoint {!r}: not an object"
                                  .format(path))
        version = document.get("version")
        if version != FORMAT_VERSION:
            raise CheckpointError(
                "checkpoint {!r} has format version {!r}, expected {}"
                .format(path, version, FORMAT_VERSION))
        checkpoint = cls(path)
        ptps = document.get("ptps", {})
        order = document.get("order", sorted(ptps))
        modules = document.get("modules", {})
        if not isinstance(ptps, dict) or not isinstance(order, list) \
                or not isinstance(modules, dict):
            raise CheckpointError("corrupt checkpoint {!r}: bad sections"
                                  .format(path))
        unknown = [name for name in order if name not in ptps]
        if unknown:
            raise CheckpointError(
                "corrupt checkpoint {!r}: order names {} have no entries"
                .format(path, unknown))
        checkpoint.ptps = ptps
        checkpoint.order = list(order)
        checkpoint.modules = modules
        return checkpoint

    @classmethod
    def load_or_create(cls, path, resume=False):
        """Open *path* for a campaign run.

        With *resume*, the file must exist and parse; without, any
        existing file is ignored (the campaign starts fresh and
        overwrites it at the first PTP boundary).
        """
        if resume:
            return cls.load(path)
        return cls(path)
