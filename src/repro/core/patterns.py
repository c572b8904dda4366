"""Test-pattern report (the paper's VCDE-format interchange file).

Stage 2's gate-level simulation produces, per target module, "the sequence
of test patterns per clock cycle applied to the target module"; the paper
stores them in VCDE (extended value-change-dump) text files consumed by the
optimized fault simulation.  This module provides:

* :class:`PatternReport` — the in-memory pattern sequence with its cc /
  warp / thread bookkeeping, plus conversion to a netlist
  :class:`~repro.netlist.simulator.PatternSet`;
* a VCDE-like text serialization that round-trips.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ReportError
from ..gpu.stimuli import StimulusRecord


@dataclass
class PatternReport:
    """The per-module test-pattern sequence extracted from a PTP run.

    Attributes:
        module: the target :class:`HardwareModule`.
        records: :class:`~repro.gpu.stimuli.StimulusRecord` list in
            application order (the fault simulator consumes them 1:1).
    """

    module: object
    records: list

    @property
    def count(self):
        return len(self.records)

    def to_pattern_set(self):
        """Build the netlist
        :class:`~repro.netlist.simulator.PatternSet` (one pattern per
        record) with :meth:`HardwareModule.pattern_set`; a port a record
        does not list is 0 in that pattern.

        Raises:
            NetlistError: a record lists one port twice, or a value does
                not fit its port.
        """
        return self.module.pattern_set(
            [record.values for record in self.records])

    def reversed(self):
        """Pattern report with application order reversed (the paper
        applies SFU_IMM's patterns in reverse order in stage 3)."""
        return PatternReport(self.module, list(reversed(self.records)))

    def cc_of_pattern(self):
        """List: pattern index -> clock cycle."""
        return [record.cc for record in self.records]

    def thread_sequences(self):
        """Per-thread ordered pattern indices: {(block, thread): [k, ...]}.

        Used by the signature-per-thread observability model.
        """
        sequences = {}
        for k, record in enumerate(self.records):
            key = (record.block, record.thread)
            sequences.setdefault(key, []).append(k)
        return sequences


_HEADER = "#VCDE module={} ports={}"


def write_pattern_report(report):
    """Serialize a :class:`PatternReport` to VCDE-like text."""
    ports = sorted({port for record in report.records
                    for port, __ in record.values})
    if not ports:
        ports = sorted(report.module.input_words)
    lines = [_HEADER.format(report.module.name, ",".join(ports))]
    for record in report.records:
        values = dict(record.values)
        lines.append("{} {} {} {} {} {} {}".format(
            record.cc, record.block, record.warp, record.lane, record.pc,
            record.thread,
            " ".join("0x{:X}".format(values.get(p, 0)) for p in ports)))
    return "\n".join(lines) + "\n"


def parse_pattern_report(text, module):
    """Parse VCDE-like text back into a :class:`PatternReport`."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("#VCDE"):
        raise ReportError("missing VCDE header")
    header = lines[0].split()
    fields = dict(part.split("=", 1) for part in header[1:])
    if fields.get("module") != module.name:
        raise ReportError("pattern report is for module {!r}, not {!r}"
                          .format(fields.get("module"), module.name))
    ports = fields["ports"].split(",") if fields.get("ports") else []
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 6 + len(ports):
            raise ReportError("VCDE line {}: expected {} fields, got {}"
                              .format(lineno, 6 + len(ports), len(parts)))
        try:
            cc, block, warp, lane, pc, thread = (int(p) for p in parts[:6])
            values = tuple(sorted(
                (port, int(parts[6 + i], 16))
                for i, port in enumerate(ports)))
        except ValueError as exc:
            raise ReportError("VCDE line {}: {}".format(lineno,
                                                          exc)) from exc
        records.append(StimulusRecord(cc, block, warp, lane, pc, values,
                                      thread))
    return PatternReport(module, records)
