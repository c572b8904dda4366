"""Campaign-level incremental oracle: STL edits, kill/resume, drop carry-over.

The acceptance property for ``--incremental``: a warm campaign over an
*edited* STL — one store block deleted, store blocks reordered, a
global-image word rewritten, a whole PTP swapped for a different build —
must end bit-identical to a from-scratch campaign over the same edited
STL.  "Bit-identical" means the detected-fault attribution, the module
fault coverage, and :meth:`FaultListReport.fingerprint` all match, for
the production event engine and the cone reference (swapped into the
pipeline's stage-3 simulator), against sequential and pooled
from-scratch campaigns (the incremental layer itself re-simulates
inline).  Warm runs use
``strict`` mode, so the built-in from-scratch comparison doubles as an
oracle inside every example.
"""

import os
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import CampaignCheckpoint, CompactionCampaign, CompactionPipeline
from repro.core.campaign import COMPACTED, SKIPPED
from repro.core.pipeline import CompactionPipeline as _Pipeline
from repro.exec import ArtifactCache, RunMetrics
from repro.faults import FaultSimulator
from repro.isa.instruction import Program
from repro.stl import (
    SelfTestLibrary,
    generate_cntrl,
    generate_imm,
    generate_mem,
)

NUM_SBS = 3


def _du_stl(imm_seed=4, mem_seed=4, cntrl_seed=4):
    return SelfTestLibrary([
        generate_imm(seed=imm_seed, num_sbs=NUM_SBS),
        generate_mem(seed=mem_seed, num_sbs=NUM_SBS),
        generate_cntrl(seed=cntrl_seed, num_sbs=NUM_SBS),
    ])


def _pipeline(module, engine, **kwargs):
    """A pipeline whose stage-3 simulations run on *engine*."""
    pipeline = CompactionPipeline(module, **kwargs)
    pipeline.simulator = FaultSimulator(module.netlist, engine=engine)
    return pipeline


def _fault_state(pipeline):
    """Detected-fault attribution plus the remaining list, the campaign's
    bit-identity witness (same shape as the checkpoint suite uses)."""
    report = pipeline.fault_report
    return (list(report.remaining),
            {report.full_list.id_of(f): report.detected_by(f)
             for f in report.full_list if report.detected_by(f)})


# -- STL edit operations -------------------------------------------------
#
# Splice edits (delete / reorder store blocks) only apply to branch-free
# PTPs — CNTRL's programs carry absolute branch targets that a splice
# would break, which is an STL-authoring constraint, not an incremental
# one.  Swapping and image rewrites apply to any PTP.


def _spliceable(ptp):
    return len(ptp.sb_hints) >= 2 and not ptp.program.labels


def _delete_sb(rng, ptp):
    lo, hi = ptp.sb_hints[rng.randrange(len(ptp.sb_hints))]
    ins = ptp.program.instructions
    return ptp.with_program(Program(ins[:lo] + ins[hi:]))


def _reorder_sbs(rng, ptp):
    spans = [(lo, hi) for lo, hi in ptp.sb_hints]
    ins = ptp.program.instructions
    head = ins[:spans[0][0]]
    tail = ins[spans[-1][1]:]
    blocks = [ins[lo:hi] for lo, hi in spans]
    rng.shuffle(blocks)
    return ptp.with_program(Program(
        head + [i for block in blocks for i in block] + tail))


def _rewrite_image_word(rng, ptp):
    if not ptp.global_image:
        return ptp
    image = dict(ptp.global_image)
    address = rng.choice(sorted(image))
    image[address] ^= 1 << rng.randrange(32)
    return replace(ptp, global_image=image)


def _swap_ptp(rng, ptp):
    """A different build of the same PTP (new seed, same name): the
    maximal edit — everything about its patterns may change."""
    generator = {"IMM": generate_imm, "MEM": generate_mem,
                 "CNTRL": generate_cntrl}[ptp.name]
    return generator(seed=rng.randrange(5, 1000), num_sbs=NUM_SBS)


def _edit_stl(rng, stl):
    """Apply 1-2 random edits, returning a fresh edited STL."""
    ptps = list(stl)
    for __ in range(rng.randrange(1, 3)):
        index = rng.randrange(len(ptps))
        ptp = ptps[index]
        ops = [_rewrite_image_word, _swap_ptp]
        if _spliceable(ptp):
            ops += [_delete_sb, _reorder_sbs]
        ptps[index] = rng.choice(ops)(rng, ptp)
    return SelfTestLibrary(ptps)


# -- the STL-edit oracle -------------------------------------------------


def _run_campaign(module, stl, cache, incremental, engine, jobs=None,
                  evaluate=False):
    metrics = RunMetrics()
    pipeline = _pipeline(module, engine, cache=cache, metrics=metrics,
                         jobs=jobs, incremental=incremental)
    report = CompactionCampaign(pipeline).run(stl, evaluate=evaluate)
    return report, _fault_state(pipeline), \
        pipeline.fault_report.fingerprint(), metrics


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=5, deadline=None)
def test_stl_edit_oracle_across_engines(du_module, tmp_path_factory, seed):
    cache_dir = str(tmp_path_factory.mktemp("stl-edit"))

    for engine in ("cone", "event"):
        cache = ArtifactCache(os.path.join(cache_dir, engine))
        # Cold campaign over the unedited STL populates the records.
        __r, __s, __f, cold = _run_campaign(du_module, _du_stl(), cache,
                                            "on", engine)
        assert cold.incremental["records_missing"] > 0

        # The same edit sequence is re-derived from the seed for every
        # run that needs it (campaigns mutate their STL in place).
        edited = _edit_stl(random.Random(seed), _du_stl())
        warm_report, warm_state, warm_print, warm = _run_campaign(
            du_module, edited, cache, "strict", engine)
        scratch_report, scratch_state, scratch_print, __ = _run_campaign(
            du_module, _edit_stl(random.Random(seed), _du_stl()),
            ArtifactCache(os.path.join(cache_dir, engine + "-scratch")),
            "off", engine)

        assert warm_state == scratch_state
        assert warm_print == scratch_print
        assert warm_report.coverage_percent == (
            scratch_report.coverage_percent)
        assert warm_report.remaining_faults == (
            scratch_report.remaining_faults)
        assert warm.incremental["records_loaded"] > 0


def test_stl_edit_oracle_pooled_with_fc_evaluation(du_module, tmp_path):
    """The ``jobs=2`` variant, with stage-5 FC evaluation on: per-PTP
    original and compacted FC numbers must match a from-scratch pooled
    campaign after a single-SB deletion."""
    cache = ArtifactCache(str(tmp_path / "cache"))
    _run_campaign(du_module, _du_stl(), cache, "on", "event", jobs=2,
                  evaluate=True)

    rng = random.Random(99)
    edited = SelfTestLibrary([
        _delete_sb(rng, generate_imm(seed=4, num_sbs=NUM_SBS)),
        generate_mem(seed=4, num_sbs=NUM_SBS),
        generate_cntrl(seed=4, num_sbs=NUM_SBS),
    ])
    warm_report, warm_state, warm_print, warm = _run_campaign(
        du_module, edited, cache, "strict", "event", jobs=2, evaluate=True)

    rng = random.Random(99)
    scratch = SelfTestLibrary([
        _delete_sb(rng, generate_imm(seed=4, num_sbs=NUM_SBS)),
        generate_mem(seed=4, num_sbs=NUM_SBS),
        generate_cntrl(seed=4, num_sbs=NUM_SBS),
    ])
    scratch_report, scratch_state, scratch_print, __ = _run_campaign(
        du_module, scratch, cache=ArtifactCache(str(tmp_path / "c2")),
        incremental="off", engine="event", jobs=2, evaluate=True)

    assert warm_state == scratch_state
    assert warm_print == scratch_print
    for ours, theirs in zip(warm_report.records, scratch_report.records):
        assert ours.status == theirs.status == COMPACTED
        assert ours.outcome.original_fc == theirs.outcome.original_fc
        assert ours.outcome.compacted_fc == theirs.outcome.compacted_fc
        assert ours.outcome.compacted_size == theirs.outcome.compacted_size
    # The deleted SB invalidated strictly less than everything: the warm
    # run restored detection state rather than re-simulating it all.
    assert warm.incremental["faults_restored"] > 0


# -- satellite: kill mid-run, resume incrementally -----------------------


@pytest.mark.parametrize("engine", ["cone", "event"])
def test_kill_and_incremental_resume_is_bit_identical(du_module, gpu,
                                                      tmp_path,
                                                      monkeypatch, engine):
    """Kill a ``--incremental on`` campaign after one PTP, resume with the
    same cache and checkpoint: the merged result must be bit-identical to
    an uninterrupted from-scratch campaign, per engine."""
    reference = CompactionCampaign(
        _pipeline(du_module, engine, gpu=gpu))
    reference_report = reference.run(_du_stl(), evaluate=False)
    reference_state = _fault_state(reference.pipeline)
    reference_print = reference.pipeline.fault_report.fingerprint()

    cache = ArtifactCache(str(tmp_path / "cache"))
    path = str(tmp_path / "campaign.json")
    killed = CompactionCampaign(
        _pipeline(du_module, engine, gpu=gpu, cache=cache,
                  incremental="on"),
        checkpoint=CampaignCheckpoint(path))
    compacted = {"n": 0}
    real_compact = _Pipeline.compact

    def compact_and_kill(self, ptp, **kwargs):
        if compacted["n"] == 1:
            raise KeyboardInterrupt("killed")
        compacted["n"] += 1
        return real_compact(self, ptp, **kwargs)

    monkeypatch.setattr(_Pipeline, "compact", compact_and_kill)
    with pytest.raises(KeyboardInterrupt):
        killed.run(_du_stl(), evaluate=False)
    monkeypatch.setattr(_Pipeline, "compact", real_compact)

    resumed = CompactionCampaign(
        _pipeline(du_module, engine, gpu=gpu, cache=cache,
                  incremental="on"),
        checkpoint=CampaignCheckpoint.load(path))
    resumed_report = resumed.run(_du_stl(), evaluate=False, resume=True)
    assert _fault_state(resumed.pipeline) == reference_state
    assert resumed.pipeline.fault_report.fingerprint() == reference_print
    assert resumed_report.coverage_percent == (
        reference_report.coverage_percent)
    statuses = [r.status for r in resumed_report.records]
    assert statuses == [SKIPPED] + [COMPACTED] * 2


# -- satellite: cross-PTP drop carry-over under restore ------------------


def test_drop_carry_over_when_first_ptp_restores_from_cache(du_module,
                                                            tmp_path):
    """A fault dropped by IMM stays dropped — and stays attributed to
    IMM — when IMM is restored verbatim from the fault-state record and
    only the edited MEM re-simulates."""
    cache = ArtifactCache(str(tmp_path / "cache"))
    imm = generate_imm(seed=4, num_sbs=NUM_SBS)
    mem = generate_mem(seed=4, num_sbs=NUM_SBS)

    cold = CompactionPipeline(du_module, cache=cache, incremental="on")
    cold.compact(imm, evaluate=False)
    cold.compact(mem, evaluate=False)

    edited_mem = _rewrite_image_word(random.Random(3), mem)
    assert edited_mem.global_image != mem.global_image

    metrics = RunMetrics()
    warm = CompactionPipeline(du_module, cache=cache, metrics=metrics,
                              incremental="strict")
    warm.compact(imm, evaluate=False)
    imm_resimulated = metrics.incremental["faults_resimulated"]
    assert imm_resimulated == 0  # IMM unchanged: restored verbatim
    assert metrics.incremental["faults_restored"] > 0
    warm.compact(edited_mem, evaluate=False)

    scratch = CompactionPipeline(du_module,
                                 cache=ArtifactCache(str(tmp_path / "c2")))
    scratch.compact(imm, evaluate=False)
    scratch.compact(edited_mem, evaluate=False)

    assert _fault_state(warm) == _fault_state(scratch)
    assert warm.fault_report.fingerprint() == (
        scratch.fault_report.fingerprint())
    # Attribution: every IMM drop in the scratch run is an IMM drop in
    # the warm run (no edited-MEM leakage into restored-IMM credit).
    warm_by = _fault_state(warm)[1]
    assert any(name == "IMM" for name in warm_by.values())
    assert any(name == "MEM" for name in warm_by.values())
