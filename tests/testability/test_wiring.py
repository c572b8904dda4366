"""Flow wiring: report accounting, checkpoint compat, metrics, prover."""

import json

import pytest

from repro.errors import FaultSimError, TestabilityError
from repro.exec.metrics import RunMetrics
from repro.faults import FaultList
from repro.faults.dropping import FaultListReport
from repro.netlist import GateType, Netlist
from repro.netlist.netlist import CONST0
from repro.testability import (
    UntestabilityProver,
    analyze_module,
    validate_prune_mode,
)


def _module_netlist():
    """A netlist with all three proof kinds represented."""
    nl = Netlist("wired")
    a, b = nl.add_input("a"), nl.add_input("b")
    g = nl.add_gate(GateType.AND, a, b)
    const = nl.add_gate(GateType.AND, a, CONST0)    # UT001 site
    blocked = nl.add_gate(GateType.OR, b, CONST0)
    dead = nl.add_gate(GateType.AND, blocked, const)  # UT003 feeds
    dangling = nl.add_gate(GateType.NOT, g)         # UT002 cone
    nl.mark_output(g)
    nl.mark_output(dead)
    nl.finalize()
    return nl


def test_report_accounting_under_safe_prune():
    nl = _module_netlist()
    off = FaultListReport(nl)
    safe = FaultListReport(nl, static_prune="safe")
    assert off.static_prune == "off" and off.untestable_faults == 0
    assert safe.total_faults == off.total_faults
    assert safe.untestable_faults > 0
    assert safe.testable_faults == \
        safe.total_faults - safe.untestable_faults
    assert safe.remaining_faults == safe.testable_faults
    assert safe.detected_faults == 0
    # Remaining excludes exactly the untestable bucket.
    assert set(safe.remaining) == \
        set(off.remaining) - set(safe.untestable)
    for fault in safe.untestable:
        assert safe.proofs[fault].kind in ("UT001", "UT002", "UT003")


def test_coverage_denominator_excludes_untestable_bucket():
    nl = _module_netlist()
    off = FaultListReport(nl)
    safe = FaultListReport(nl, static_prune="safe")
    detected = list(safe.remaining)[:3]
    off.drop(detected, "PTP")
    safe.drop(detected, "PTP")
    assert off.coverage() == pytest.approx(
        100.0 * 3 / off.total_faults)
    assert safe.coverage() == pytest.approx(
        100.0 * 3 / safe.testable_faults)
    assert safe.coverage() > off.coverage()
    safe.reset()
    assert safe.remaining_faults == safe.testable_faults
    assert safe.coverage() == 0.0


def test_testable_list_is_the_one_fc_list():
    nl = _module_netlist()
    off = FaultListReport(nl)
    assert off.testable is off.full_list
    assert off.remaining is off.testable

    safe = FaultListReport(nl, static_prune="safe")
    assert list(safe.testable) == [f for f in safe.full_list
                                   if f not in safe.proofs]
    assert list(safe.remaining) == list(safe.testable)
    detected = list(safe.testable)[1:4]
    safe.drop(detected, "IMM")
    expected = [f for f in safe.testable if f not in detected]
    assert list(safe.remaining) == expected
    state = safe.state_dict()
    fresh = FaultListReport(nl, static_prune="safe")
    fresh.restore_state(state)
    assert list(fresh.remaining) == expected
    safe.reset()
    assert list(safe.remaining) == list(safe.testable)


def test_checkpoint_state_roundtrip_and_mode_guard():
    nl = _module_netlist()
    safe = FaultListReport(nl, static_prune="safe")
    safe.drop(list(safe.remaining)[:2], "IMM")
    state = json.loads(json.dumps(safe.state_dict()))
    assert state["static_prune"] == "safe"

    fresh = FaultListReport(nl, static_prune="safe")
    fresh.restore_state(state)
    assert fresh.fingerprint() == safe.fingerprint()
    assert list(fresh.remaining) == list(safe.remaining)

    # Seed snapshots (no static_prune key) only restore into "off".
    off = FaultListReport(nl)
    off_state = off.state_dict()
    assert "static_prune" not in off_state
    with pytest.raises(FaultSimError):
        FaultListReport(nl, static_prune="safe").restore_state(off_state)
    with pytest.raises(FaultSimError):
        FaultListReport(nl).restore_state(state)


def test_metrics_static_gauges_accumulate_and_render(du_module):
    """Each pruning pipeline adds its module's pruned count (a campaign
    sums them over its modules)."""
    from repro.core.pipeline import CompactionPipeline

    metrics = RunMetrics()
    assert metrics.groups["static"]["prune_mode"] == "off"
    for __ in range(2):
        pipeline = CompactionPipeline(du_module, metrics=metrics,
                                      static_prune="safe")
        pruned = pipeline.fault_report.untestable_faults
    assert pruned > 0
    assert metrics.groups["static"] == {"prune_mode": "safe",
                                        "faults_pruned_static": 2 * pruned,
                                        "cross_checked": 0}
    assert metrics.to_dict()["static"]["faults_pruned_static"] == 2 * pruned
    assert "static triage" in metrics.summary_table()
    assert "prune=safe" in metrics.summary_table()


def test_prover_matches_report_and_scores():
    nl = _module_netlist()
    # The prover's proofs are exactly the report's safe-prune bucket.
    proofs = UntestabilityProver(nl).untestable(FaultList(nl))
    assert list(proofs) == list(
        FaultListReport(nl, static_prune="safe").untestable)
    assert validate_prune_mode(None) == "off"
    with pytest.raises(TestabilityError):
        validate_prune_mode("bogus")


def test_analyze_module_report_document():
    nl = _module_netlist()
    report = analyze_module(nl)
    assert report.module == "wired"
    assert report.total_faults == len(FaultList(nl))
    assert report.untestable_count == len(report.proofs)
    assert report.testable_faults == \
        report.total_faults - report.untestable_count
    doc = json.loads(json.dumps(report.to_dict()))
    assert doc["faults"]["total"] == report.total_faults
    assert doc["faults"]["untestable"] == report.untestable_count
    assert sum(doc["untestable_by_kind"].values()) == \
        report.untestable_count
    text = report.render_text(nl, max_proofs=2)
    assert "TESTABILITY wired" in text
    assert "... {} more".format(report.untestable_count - 2) in text \
        or report.untestable_count <= 2
