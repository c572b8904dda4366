"""Checkpoint persistence and kill/resume equivalence.

The acceptance property: a campaign killed after any PTP and re-run with
resume must end with a bit-identical remaining fault list and identical
final FC to an uninterrupted run.
"""

import json
import os

import pytest

from repro.core import CampaignCheckpoint, CompactionCampaign, CompactionPipeline
from repro.core.campaign import COMPACTED, SKIPPED
from repro.core.pipeline import CompactionPipeline as _Pipeline
from repro.errors import CheckpointError
from repro.stl import SelfTestLibrary, generate_cntrl, generate_imm, generate_mem


def _du_stl(num_sbs=4):
    return SelfTestLibrary([generate_imm(seed=4, num_sbs=num_sbs),
                            generate_mem(seed=4, num_sbs=num_sbs),
                            generate_cntrl(seed=4, num_sbs=num_sbs)])


# -- file format ---------------------------------------------------------


def test_save_is_atomic_rename(tmp_path):
    path = str(tmp_path / "c.json")
    checkpoint = CampaignCheckpoint(path)
    checkpoint.record_ptp("IMM", COMPACTED, numbers={"original_size": 10})
    checkpoint.save()
    # No temp litter left behind, only the complete file.
    assert os.listdir(str(tmp_path)) == ["c.json"]
    reloaded = CampaignCheckpoint.load(path)
    assert reloaded.ptp_entry("IMM")["numbers"]["original_size"] == 10
    assert reloaded.order == ["IMM"]


def test_load_missing_file(tmp_path):
    with pytest.raises(CheckpointError, match="cannot read"):
        CampaignCheckpoint.load(str(tmp_path / "absent.json"))


def test_load_corrupt_json(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("{ not json")
    with pytest.raises(CheckpointError, match="corrupt"):
        CampaignCheckpoint.load(str(path))


def test_load_wrong_version(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"version": 999, "ptps": {}, "order": [],
                                "modules": {}}))
    with pytest.raises(CheckpointError, match="version"):
        CampaignCheckpoint.load(str(path))


def test_load_order_entry_mismatch(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"version": 1, "ptps": {},
                                "order": ["ghost"], "modules": {}}))
    with pytest.raises(CheckpointError, match="ghost"):
        CampaignCheckpoint.load(str(path))


def test_load_or_create_requires_file_on_resume(tmp_path):
    path = str(tmp_path / "c.json")
    fresh = CampaignCheckpoint.load_or_create(path, resume=False)
    assert fresh.ptps == {}
    with pytest.raises(CheckpointError):
        CampaignCheckpoint.load_or_create(path, resume=True)


# -- kill/resume equivalence ---------------------------------------------


def _fault_state(pipeline):
    report = pipeline.fault_report
    return (list(report.remaining),
            {report.full_list.id_of(f): report.detected_by(f)
             for f in report.full_list if report.detected_by(f)})


@pytest.mark.parametrize("kill_after", [1, 2])
def test_kill_and_resume_matches_uninterrupted(du_module, gpu, tmp_path,
                                               monkeypatch, kill_after):
    """Kill the campaign after PTP *kill_after*, resume, and compare the
    final fault list and FC to an uninterrupted run — bit-identical."""
    # Reference: uninterrupted campaign.
    reference_stl = _du_stl()
    reference = CompactionCampaign(CompactionPipeline(du_module, gpu=gpu))
    reference_report = reference.run(reference_stl, evaluate=False)
    reference_state = _fault_state(reference.pipeline)

    # Interrupted campaign: a hard kill (not a ReproError) mid-campaign.
    path = str(tmp_path / "campaign.json")
    killed = CompactionCampaign(CompactionPipeline(du_module, gpu=gpu),
                                checkpoint=CampaignCheckpoint(path))
    compacted_count = {"n": 0}
    real_compact = _Pipeline.compact

    def compact_and_kill(self, ptp, **kwargs):
        if compacted_count["n"] == kill_after:
            raise KeyboardInterrupt("killed")
        compacted_count["n"] += 1
        return real_compact(self, ptp, **kwargs)

    monkeypatch.setattr(_Pipeline, "compact", compact_and_kill)
    with pytest.raises(KeyboardInterrupt):
        killed.run(_du_stl(), evaluate=False)
    monkeypatch.setattr(_Pipeline, "compact", real_compact)

    # Resume with a fresh pipeline and a fresh copy of the STL.
    resumed_stl = _du_stl()
    resumed = CompactionCampaign(
        CompactionPipeline(du_module, gpu=gpu),
        checkpoint=CampaignCheckpoint.load(path))
    resumed_report = resumed.run(resumed_stl, resume=True)
    resumed_state = _fault_state(resumed.pipeline)

    # Bit-identical remaining fault list (same faults, same order) and
    # identical detected-by attribution.
    assert resumed_state[0] == reference_state[0]
    assert resumed_state[1] == reference_state[1]
    # Identical final FC.
    assert resumed_report.coverage_percent == (
        reference_report.coverage_percent)
    assert resumed_report.remaining_faults == (
        reference_report.remaining_faults)
    # The resumed STL ends up with the same compacted programs.
    for reference_ptp, resumed_ptp in zip(reference_stl, resumed_stl):
        assert resumed_ptp.name == reference_ptp.name
        assert list(resumed_ptp.program) == list(reference_ptp.program)
    # Statuses: first *kill_after* skipped, the rest compacted fresh.
    statuses = [r.status for r in resumed_report.records]
    assert statuses == [SKIPPED] * kill_after + (
        [COMPACTED] * (3 - kill_after))


def test_resume_restores_dropping_order_semantics(du_module, gpu,
                                                  tmp_path):
    """A resumed MEM-after-IMM campaign must label MEM against exactly
    the post-IMM remaining list, not the full list."""
    path = str(tmp_path / "c.json")
    stl = SelfTestLibrary([generate_imm(seed=4, num_sbs=5)])
    first = CompactionCampaign(CompactionPipeline(du_module, gpu=gpu),
                               checkpoint=CampaignCheckpoint(path))
    first.run(stl, evaluate=False)
    dropped_by_imm = (first.pipeline.fault_report.total_faults
                      - first.pipeline.fault_report.remaining_faults)
    assert dropped_by_imm > 0

    # Continue the campaign with MEM appended, resuming from checkpoint.
    resumed = CompactionCampaign(
        CompactionPipeline(du_module, gpu=gpu),
        checkpoint=CampaignCheckpoint.load(path))
    continued_stl = SelfTestLibrary([generate_imm(seed=4, num_sbs=5),
                                     generate_mem(seed=4, num_sbs=5)])
    report = resumed.run(continued_stl, resume=True)
    mem_record = report.records[1]
    assert mem_record.status == COMPACTED
    # MEM's fault simulation ran against the restored (reduced) list.
    assert len(mem_record.outcome.fault_result.fault_list) == (
        first.pipeline.fault_report.remaining_faults)


def test_legacy_cache_keys_entries_still_load(tmp_path):
    path = str(tmp_path / "ck.json")
    checkpoint = CampaignCheckpoint(path)
    checkpoint.record_ptp("IMM", "compacted", numbers={"original_size": 9})
    checkpoint.record_ptp("MEM", "failed")
    checkpoint.save()
    with open(path) as handle:
        assert "cache_keys" not in handle.read()

    # Version-1 checkpoints of earlier releases carry a per-entry
    # artifact-key dict; it is ignored and the rest still loads.
    with open(path) as handle:
        document = json.load(handle)
    document["ptps"]["IMM"]["cache_keys"] = {"tracing": "a" * 64,
                                            "fault_state": "b" * 64}
    with open(path, "w") as handle:
        json.dump(document, handle)
    legacy = CampaignCheckpoint.load(path)
    assert legacy.order == ["IMM", "MEM"]
    assert legacy.ptp_entry("IMM")["numbers"] == {"original_size": 9}
    assert legacy.ptp_entry("MEM")["status"] == "failed"
