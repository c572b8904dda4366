"""Resilient campaign runner: isolation, watchdog, FC guard, summary."""

import pytest

from repro.analysis.experiments import SMOKE
from repro.core import (
    CampaignCheckpoint,
    CompactionCampaign,
    CompactionPipeline,
    run_stl_campaign,
    write_campaign_summary,
)
from repro.core.campaign import COMPACTED, FAILED, ROLLED_BACK, SKIPPED, Watchdog
from repro.errors import CampaignError, CompactionError, CycleBudgetError, PtpTimeoutError
from repro.exec import RunMetrics, ShardedFaultScheduler
from repro.stl import (
    SelfTestLibrary,
    generate_cntrl,
    generate_imm,
    generate_mem,
    generate_rand,
    generate_sfu_imm,
)


def _du_stl(num_sbs=5):
    return SelfTestLibrary([generate_imm(seed=4, num_sbs=num_sbs),
                            generate_mem(seed=4, num_sbs=num_sbs),
                            generate_cntrl(seed=4, num_sbs=num_sbs)])


def _fail_reduction_for(monkeypatch, ptp_name):
    """Make stage-4 reduction raise for one named PTP."""
    from repro.core import pipeline as pipeline_module

    real = pipeline_module.reduce_ptp

    def exploding(labeled, partition):
        if labeled.ptp.name == ptp_name:
            raise CompactionError("injected stage-4 failure")
        return real(labeled, partition)

    monkeypatch.setattr(pipeline_module, "reduce_ptp", exploding)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_watchdog_timeout_fires_at_stage_boundary():
    clock = FakeClock()
    watchdog = Watchdog(timeout=10.0, clock=clock)
    watchdog.start()
    watchdog("partition")
    clock.now = 11.0
    with pytest.raises(PtpTimeoutError) as excinfo:
        watchdog("tracing")
    assert excinfo.value.stage == "tracing"


def test_watchdog_cycle_budget():
    watchdog = Watchdog(max_trace_cycles=100)
    watchdog.start()
    watchdog("fault_simulation", cycles=100)  # at the budget: fine
    with pytest.raises(CycleBudgetError) as excinfo:
        watchdog("fault_simulation", cycles=101)
    assert excinfo.value.stage == "tracing"


def test_failed_ptp_is_isolated_and_campaign_continues(du_module, gpu,
                                                       monkeypatch):
    """Acceptance: one PTP raising mid-compaction must not lose the
    campaign — the remaining PTPs complete, the failing PTP's original
    stays in the STL, and the failure is reported."""
    _fail_reduction_for(monkeypatch, "MEM")
    stl = _du_stl()
    original_mem_size = stl["MEM"].size
    original_imm_size = stl["IMM"].size
    campaign = CompactionCampaign(CompactionPipeline(du_module, gpu=gpu))
    report = campaign.run(stl, evaluate=False)

    statuses = {r.name: r.status for r in report.records}
    assert statuses == {"IMM": COMPACTED, "MEM": FAILED,
                        "CNTRL": COMPACTED}
    # The failing PTP's original is retained, untouched.
    assert stl["MEM"].size == original_mem_size
    # The others were compacted and replaced in the STL.
    assert stl["IMM_compacted"].size <= original_imm_size
    failure = report.by_status(FAILED)[0].failure
    assert failure.error_code == "CompactionError"
    assert failure.stage == "reduction"
    assert failure.ptp_name == "MEM"
    assert "injected" in failure.message


def test_fail_fast_aborts_after_recording(du_module, gpu, monkeypatch,
                                          tmp_path):
    _fail_reduction_for(monkeypatch, "IMM")
    checkpoint = CampaignCheckpoint(str(tmp_path / "campaign.json"))
    campaign = CompactionCampaign(CompactionPipeline(du_module, gpu=gpu),
                                  keep_going=False, checkpoint=checkpoint)
    with pytest.raises(CampaignError, match="fail-fast"):
        campaign.run(_du_stl(num_sbs=4), evaluate=False)
    # The failure was checkpointed before the abort.
    reloaded = CampaignCheckpoint.load(str(tmp_path / "campaign.json"))
    assert reloaded.ptp_entry("IMM")["status"] == FAILED


def test_cycle_budget_breach_keeps_original(du_module, gpu):
    stl = _du_stl(num_sbs=4)
    campaign = CompactionCampaign(CompactionPipeline(du_module, gpu=gpu),
                                  max_trace_cycles=1)
    report = campaign.run(stl, evaluate=False)
    assert all(r.status == FAILED for r in report.records)
    assert all(r.failure.error_code == "CycleBudgetError"
               for r in report.records)
    assert stl["IMM"].size > 0  # originals untouched
    assert report.remaining_faults == report.total_faults


def test_ptp_timeout_recorded_as_failure(du_module, gpu):
    class JumpyClock(FakeClock):
        def __call__(self):
            value = self.now
            self.now += 60.0  # every look at the clock costs a minute
            return value

    campaign = CompactionCampaign(CompactionPipeline(du_module, gpu=gpu),
                                  ptp_timeout=30.0, clock=JumpyClock())
    report = campaign.run(_du_stl(num_sbs=4), evaluate=False)
    assert all(r.status == FAILED for r in report.records)
    assert all(r.failure.error_code == "PtpTimeoutError"
               for r in report.records)


def test_fc_guard_rolls_back_regressions(du_module, gpu):
    """MEM after IMM loses FC on this configuration; with a tight guard
    the compaction must be rolled back and the original retained."""
    stl = _du_stl(num_sbs=6)
    original_mem_size = stl["MEM"].size
    campaign = CompactionCampaign(CompactionPipeline(du_module, gpu=gpu),
                                  max_fc_drop=0.5)
    report = campaign.run(stl)
    by_name = {r.name: r for r in report.records}
    assert by_name["IMM"].status == COMPACTED  # fc_diff == 0 on fresh list
    assert by_name["MEM"].status == ROLLED_BACK
    assert by_name["MEM"].numbers["fc_diff"] < -0.5
    assert stl["MEM"].size == original_mem_size
    assert by_name["MEM"].kept_original


def test_fc_guard_disabled_without_threshold(du_module, gpu):
    stl = _du_stl(num_sbs=6)
    campaign = CompactionCampaign(CompactionPipeline(du_module, gpu=gpu))
    report = campaign.run(stl)
    assert all(r.status == COMPACTED for r in report.records)


def test_negative_max_fc_drop_rejected(du_module, gpu):
    with pytest.raises(CampaignError):
        CompactionCampaign(CompactionPipeline(du_module, gpu=gpu),
                           max_fc_drop=-1.0)


def test_resume_without_checkpoint_rejected(du_module, gpu):
    campaign = CompactionCampaign(CompactionPipeline(du_module, gpu=gpu))
    with pytest.raises(CampaignError):
        campaign.run(_du_stl(), resume=True)


def test_run_stl_campaign_covers_multiple_modules(du_module, sp_module,
                                                  gpu):
    stl = SelfTestLibrary([generate_imm(seed=4, num_sbs=4),
                           generate_rand(seed=4, num_sbs=3)])
    reports = run_stl_campaign(stl,
                               {"decoder_unit": du_module,
                                "sp_core": sp_module},
                               gpu=gpu, evaluate=False)
    assert [r.module_name for r in reports] == ["decoder_unit", "sp_core"]
    assert all(rec.status == COMPACTED
               for r in reports for rec in r.records)
    assert stl["IMM_compacted"] and stl["RAND_compacted"]


def test_run_stl_campaign_missing_module(du_module, gpu):
    stl = SelfTestLibrary([generate_rand(seed=4, num_sbs=3)])
    with pytest.raises(CampaignError, match="sp_core"):
        run_stl_campaign(stl, {"decoder_unit": du_module}, gpu=gpu)


def test_campaign_summary_lists_every_status(du_module, gpu, monkeypatch):
    _fail_reduction_for(monkeypatch, "CNTRL")
    stl = _du_stl(num_sbs=6)
    campaign = CompactionCampaign(CompactionPipeline(du_module, gpu=gpu),
                                  max_fc_drop=0.5)
    text = write_campaign_summary(campaign.run(stl))
    assert "IMM" in text and "compacted" in text
    assert "rolled-back" in text
    assert "CompactionError" in text
    assert "coverage:" in text


def test_skipped_records_report_prior_status(du_module, gpu, tmp_path):
    checkpoint = CampaignCheckpoint(str(tmp_path / "c.json"))
    stl = _du_stl(num_sbs=4)
    CompactionCampaign(CompactionPipeline(du_module, gpu=gpu),
                       checkpoint=checkpoint).run(stl, evaluate=False)
    resumed = CompactionCampaign(
        CompactionPipeline(du_module, gpu=gpu),
        checkpoint=CampaignCheckpoint.load(str(tmp_path / "c.json")))
    report = resumed.run(_du_stl(num_sbs=4), resume=True)
    assert all(r.status == SKIPPED for r in report.records)
    assert all(r.prior_status == COMPACTED for r in report.records)
    text = write_campaign_summary(report)
    assert "skipped" in text and "interrupted run" in text


def _record_numbers(reports):
    """Every PTP record's status and numbers, minus wall-clock time."""
    return [(record.name, record.status,
             {key: value for key, value in record.numbers.items()
              if key != "compaction_seconds"})
            for report in reports for record in report.records]


def test_caller_owned_scheduler_serves_two_campaigns(sfu_module, gpu):
    """One pooled scheduler reused across two campaigns gives each the
    records of a campaign with a fresh scheduler: the scheduler keeps no
    state from the first campaign's fault dropping that could skip
    faults in the second."""
    ptp, __ = generate_sfu_imm(
        sfu_module, seed=1,
        atpg_random_patterns=SMOKE.sfu_random_patterns,
        atpg_max_backtracks=SMOKE.sfu_max_backtracks,
        atpg_podem_fault_limit=SMOKE.sfu_podem_fault_limit)
    modules = {"sfu": sfu_module}

    def campaign(scheduler=None):
        return _record_numbers(run_stl_campaign(
            SelfTestLibrary([ptp]), modules, gpu=gpu, jobs=2,
            scheduler=scheduler))

    fresh = [campaign(), campaign()]
    metrics = RunMetrics()
    shared = ShardedFaultScheduler(jobs=2, min_faults_per_shard=1,
                                   metrics=metrics)
    reused = [campaign(shared), campaign(shared)]
    assert metrics.pool["workers_spawned"], "the campaigns never forked"
    assert reused == fresh
    (__, status, numbers), = fresh[1]
    assert status == COMPACTED
    assert numbers["compacted_size"] < numbers["original_size"]
