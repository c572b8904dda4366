"""Verify gate wired into pipeline, campaign, checkpoint, and metrics."""

import pytest

from repro.core import CampaignCheckpoint, CompactionPipeline, run_stl_campaign
from repro.core.campaign import COMPACTED, FAILED
from repro.core.pipeline import STAGES, VERIFY_MODES
from repro.core.reduction import ReductionResult
from repro.errors import CompactionError, VerificationError
from repro.exec.metrics import RunMetrics
from repro.isa.instruction import Program
from repro.stl import SelfTestLibrary, generate_imm
from repro.verify import VerificationReport


def _break_reduction(monkeypatch):
    """Make stage 4 drop the pinned preamble instruction — a CMP003
    violation the verifier must catch."""
    from repro.core import pipeline as pipeline_module

    real = pipeline_module.reduce_ptp

    def broken(labeled, partition):
        result = real(labeled, partition)
        instrs = list(result.compacted.program)
        return ReductionResult(
            compacted=result.compacted.with_program(Program(instrs[1:])),
            small_blocks=result.small_blocks,
            removed_blocks=result.removed_blocks,
            kept_blocks=result.kept_blocks,
            pc_map=None)

    monkeypatch.setattr(pipeline_module, "reduce_ptp", broken)


def test_verify_is_a_pipeline_stage():
    assert "verify" in STAGES
    assert STAGES.index("verify") == STAGES.index("evaluation") - 1
    assert VERIFY_MODES == ("strict", "warn", "off")


def test_unknown_verify_mode_rejected(du_module):
    with pytest.raises(CompactionError, match="verify"):
        CompactionPipeline(du_module, verify="loud")


def test_strict_gate_passes_clean_compaction_and_counts_metrics(du_module):
    metrics = RunMetrics()
    pipe = CompactionPipeline(du_module, verify="strict", metrics=metrics)
    outcome = pipe.compact(generate_imm(seed=4, num_sbs=5), evaluate=False)
    assert isinstance(outcome.verification, VerificationReport)
    assert outcome.verification.ok
    assert metrics.groups["verify"]["runs"] == 1
    assert metrics.groups["verify"]["errors"] == 0
    assert "verify" in metrics.stage_seconds
    assert "verify" in metrics.summary_table()


def test_strict_gate_rejects_broken_reduction(du_module, monkeypatch):
    _break_reduction(monkeypatch)
    pipe = CompactionPipeline(du_module, verify="strict")
    with pytest.raises(VerificationError) as excinfo:
        pipe.compact(generate_imm(seed=4, num_sbs=5), evaluate=False)
    assert excinfo.value.stage == "verify"
    report = excinfo.value.report
    assert report is not None and not report.ok
    assert "CMP003" in report.rule_ids


def test_warn_mode_records_but_does_not_raise(du_module, monkeypatch):
    _break_reduction(monkeypatch)
    pipe = CompactionPipeline(du_module, verify="warn")
    outcome = pipe.compact(generate_imm(seed=4, num_sbs=5), evaluate=False)
    assert not outcome.verification.ok
    assert "CMP003" in outcome.verification.rule_ids


def test_off_mode_skips_verification(du_module, monkeypatch):
    _break_reduction(monkeypatch)
    pipe = CompactionPipeline(du_module, verify="off")
    outcome = pipe.compact(generate_imm(seed=4, num_sbs=5), evaluate=False)
    assert outcome.verification is None


def test_campaign_isolates_verify_failure_and_checkpoints_diagnostics(
        du_module, gpu, monkeypatch, tmp_path):
    _break_reduction(monkeypatch)
    checkpoint = CampaignCheckpoint(str(tmp_path / "campaign.json"))
    stl = SelfTestLibrary([generate_imm(seed=4, num_sbs=5)])
    reports = run_stl_campaign(stl, {"decoder_unit": du_module}, gpu=gpu,
                               checkpoint=checkpoint, evaluate=False,
                               verify="strict")
    record = reports[0].records[0]
    assert record.status == FAILED
    assert record.failure.error_code == "VerificationError"
    assert record.failure.stage == "verify"
    diagnostics = record.failure.context["diagnostics"]
    assert any(d["rule"] == "CMP003" for d in diagnostics)
    # The checkpoint carries the findings for post-mortems and resumes.
    reloaded = CampaignCheckpoint.load(str(tmp_path / "campaign.json"))
    assert reloaded.ptp_entry("IMM")["status"] == FAILED
    saved = reloaded.ptp_diagnostics("IMM")
    assert any(d["rule"] == "CMP003" for d in saved)


def test_campaign_warn_mode_checkpoints_compacted_diagnostics(
        du_module, gpu, tmp_path):
    checkpoint = CampaignCheckpoint(str(tmp_path / "campaign.json"))
    stl = SelfTestLibrary([generate_imm(seed=4, num_sbs=5)])
    reports = run_stl_campaign(stl, {"decoder_unit": du_module}, gpu=gpu,
                               checkpoint=checkpoint, evaluate=False,
                               verify="warn")
    assert reports[0].records[0].status == COMPACTED
    reloaded = CampaignCheckpoint.load(str(tmp_path / "campaign.json"))
    saved = reloaded.ptp_diagnostics("IMM")
    assert all(d["severity"] == "warning" for d in saved)
    numbers = reloaded.ptp_entry("IMM")["numbers"]
    assert numbers["verify_errors"] == 0
    assert numbers["verify_warnings"] == len(saved)


def test_checkpoint_diagnostics_accessor_defaults_empty(tmp_path):
    checkpoint = CampaignCheckpoint(str(tmp_path / "c.json"))
    assert checkpoint.ptp_diagnostics("nope") == []
    checkpoint.record_ptp("X", "failed")
    assert checkpoint.ptp_diagnostics("X") == []
    checkpoint.save()
    assert CampaignCheckpoint.load(
        str(tmp_path / "c.json")).ptp_diagnostics("X") == []
