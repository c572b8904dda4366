"""Text report writers/parsers (the tool's file interchange formats).

"The simulation reports, employed during the compaction process, are
generated as text files." (Section IV.)  Besides the tracing report
(:mod:`repro.gpu.trace`) and the VCDE pattern report
(:mod:`repro.core.patterns`), this module renders:

* the Fault Sim Report — per pattern: cc, activated faults, detected
  faults (stage 3);
* the Labeled PTP listing — per instruction: label + assembly (Fig. 2's
  output);
* a compaction summary block (one per PTP, Table II/III shaped).
"""

from __future__ import annotations

from ..errors import ReportError
from ..isa.disassembler import format_instruction
from .labeling import ESSENTIAL


def write_fault_sim_report(fault_result, pattern_report):
    """Render the stage-3 Fault Sim Report.

    One line per pattern: pattern index, clock cycle, number of faults
    first detected at that pattern.
    """
    counts = fault_result.detections_per_pattern()
    ccs = pattern_report.cc_of_pattern()
    lines = ["#FSR module={} patterns={} faults={} detected={}".format(
        pattern_report.module.name, fault_result.pattern_count,
        len(fault_result.fault_list), fault_result.num_detected)]
    for k, (cc, count) in enumerate(zip(ccs, counts)):
        lines.append("{} {} {}".format(k, cc, count))
    return "\n".join(lines) + "\n"


def _parse_header(line, tag):
    """Parse a ``#TAG key=value ...`` header line; raises with line 1."""
    header = {}
    for part in line.split()[1:]:
        if "=" not in part:
            raise ReportError(
                "{} line 1: malformed header field {!r} (expected "
                "key=value)".format(tag, part))
        key, value = part.split("=", 1)
        header[key] = value
    return header


def parse_fault_sim_report(text):
    """Parse a Fault Sim Report; returns (header dict, rows).

    Rows are (pattern_index, cc, detected_count) tuples.

    Raises:
        ReportError: truncated or malformed input; the message carries
            the offending 1-based line number.
    """
    lines = text.splitlines()
    if not lines or not lines[0].startswith("#FSR"):
        raise ReportError("missing FSR header")
    header = _parse_header(lines[0], "FSR")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ReportError("FSR line {}: expected 3 fields, got {}"
                              .format(lineno, len(parts)))
        try:
            row = tuple(int(p) for p in parts)
        except ValueError as exc:
            raise ReportError("FSR line {}: non-integer field in {!r}"
                              .format(lineno, line)) from exc
        if any(value < 0 for value in row):
            raise ReportError("FSR line {}: negative field in {!r}"
                              .format(lineno, line))
        rows.append(row)
    if "patterns" in header:
        try:
            declared = int(header["patterns"])
        except ValueError as exc:
            raise ReportError("FSR line 1: non-integer patterns={!r}"
                              .format(header["patterns"])) from exc
        if len(rows) != declared:
            raise ReportError(
                "FSR truncated: header declares {} pattern row(s), found "
                "{} (last row at line {})".format(
                    declared, len(rows), len(lines)))
    return header, rows


def write_labeled_ptp(labeled):
    """Render the LPTP: ``<label> <pc> <assembly>`` per instruction."""
    lines = ["#LPTP name={} essential={} unessential={}".format(
        labeled.ptp.name, labeled.num_essential, labeled.num_unessential)]
    for pc, (label, instr) in enumerate(zip(labeled.labels,
                                            labeled.ptp.program)):
        flag = "E" if label == ESSENTIAL else "u"
        lines.append("{} {:5d}  {}".format(flag, pc,
                                           format_instruction(instr)))
    return "\n".join(lines) + "\n"


def parse_labeled_ptp(text):
    """Parse a Labeled PTP listing; returns (header dict, rows).

    Rows are (essential: bool, pc, assembly text) tuples.

    Raises:
        ReportError: truncated or malformed input; the message carries
            the offending 1-based line number.
    """
    lines = text.splitlines()
    if not lines or not lines[0].startswith("#LPTP"):
        raise ReportError("missing LPTP header")
    header = _parse_header(lines[0], "LPTP")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(None, 2)
        if len(parts) != 3:
            raise ReportError("LPTP line {}: expected '<E|u> <pc> "
                              "<assembly>'".format(lineno))
        flag, pc_text, assembly = parts
        if flag not in ("E", "u"):
            raise ReportError("LPTP line {}: bad label flag {!r}".format(
                lineno, flag))
        try:
            pc = int(pc_text)
        except ValueError as exc:
            raise ReportError("LPTP line {}: non-integer pc {!r}".format(
                lineno, pc_text)) from exc
        if pc != len(rows):
            raise ReportError(
                "LPTP line {}: pc {} out of sequence (expected {})"
                .format(lineno, pc, len(rows)))
        rows.append((flag == "E", pc, assembly))
    for key in ("essential", "unessential"):
        if key not in header:
            continue
        try:
            declared = int(header[key])
        except ValueError as exc:
            raise ReportError("LPTP line 1: non-integer {}={!r}".format(
                key, header[key])) from exc
        counted = sum(1 for essential, __, __t in rows
                      if essential == (key == "essential"))
        if counted != declared:
            raise ReportError(
                "LPTP truncated: header declares {} {} instruction(s), "
                "found {}".format(declared, key, counted))
    return header, rows


def write_compaction_summary(outcome):
    """One PTP's compaction summary (the Table II/III row, as text)."""
    lines = [
        "PTP {}".format(outcome.ptp.name),
        "  size:     {} -> {} instructions ({:+.2f}%)".format(
            outcome.original_size, outcome.compacted_size,
            outcome.size_reduction_percent),
        "  duration: {} -> {} ccs ({:+.2f}%)".format(
            outcome.original_cycles, outcome.compacted_cycles,
            outcome.duration_reduction_percent),
    ]
    if outcome.fc_diff is not None:
        lines.append("  FC:       {:.2f}% -> {:.2f}% (diff {:+.2f})".format(
            outcome.original_fc, outcome.compacted_fc, outcome.fc_diff))
    lines.append("  compaction time: {:.2f}s ({} fault simulation{} total, "
                 "1 for the compaction itself)".format(
                     outcome.compaction_seconds, outcome.fault_simulations,
                     "s" if outcome.fault_simulations != 1 else ""))
    return "\n".join(lines) + "\n"


def write_campaign_summary(report):
    """Render a :class:`~repro.core.campaign.CampaignReport` as text.

    One line per PTP — status, then sizes and FC when available, or the
    failure diagnostic — plus the module's cumulative coverage footer.
    """
    lines = ["CAMPAIGN {} — {} PTP(s)".format(report.module_name,
                                              len(report.records))]
    for record in report.records:
        status = record.status
        if record.prior_status is not None:
            status = "{} ({} in interrupted run)".format(
                status, record.prior_status)
        detail = ""
        if record.failure is not None:
            detail = "  [{} at {}: {}]".format(
                record.failure.error_code, record.failure.stage or "?",
                record.failure.message)
        elif record.numbers.get("original_size"):
            numbers = record.numbers
            detail = "  size {} -> {}".format(numbers["original_size"],
                                              numbers["compacted_size"])
            if numbers.get("fc_diff") is not None:
                detail += ", FC diff {:+.2f}pp".format(numbers["fc_diff"])
        lines.append("  {:<12} {:<12}{}".format(record.name, status,
                                                detail))
    lines.append("  coverage: {:.2f}% ({}/{} faults dropped)".format(
        report.coverage_percent,
        report.total_faults - report.remaining_faults,
        report.total_faults))
    return "\n".join(lines) + "\n"
