"""End-to-end pipeline invariants (stage 1-5 integration)."""

import pytest

from repro.core import CompactionPipeline, evaluate_fc, run_logic_tracing, trace_and_pack
from repro.errors import CompactionError
from repro.faults import FaultSimulator
from repro.stl import generate_cntrl, generate_imm, generate_mem, generate_rand


@pytest.fixture()
def du_pipeline(du_module, gpu):
    return CompactionPipeline(du_module, gpu=gpu)


def test_compact_rejects_wrong_target(du_pipeline):
    rand = generate_rand(seed=1, num_sbs=3)
    with pytest.raises(CompactionError):
        du_pipeline.compact(rand)


def test_compaction_reduces_and_preserves_fc(du_pipeline, du_module, gpu):
    """First PTP on a fresh module: module-output FC must be exactly
    preserved (DU patterns are context-free, every first-detecting pattern
    is kept)."""
    ptp = generate_imm(seed=4, num_sbs=20)
    outcome = du_pipeline.compact(ptp)
    assert outcome.compacted_size < outcome.original_size
    assert outcome.compacted_cycles < outcome.original_cycles
    assert outcome.fc_diff == pytest.approx(0.0)
    assert outcome.fault_simulations == 3  # 1 compaction + 2 validation


def test_essential_instructions_survive(du_pipeline):
    from repro.core.labeling import ESSENTIAL

    ptp = generate_imm(seed=4, num_sbs=12)
    outcome = du_pipeline.compact(ptp)
    labeled = outcome.labeled
    kept = {pc for pc, new in enumerate(outcome.reduction.pc_map)
            if new is not None}
    for pc, label in enumerate(labeled.labels):
        if label == ESSENTIAL:
            assert pc in kept


def test_dropping_carries_across_ptps(du_pipeline):
    imm = generate_imm(seed=4, num_sbs=15)
    mem = generate_mem(seed=4, num_sbs=15)
    first = du_pipeline.compact(imm)
    before = du_pipeline.fault_report.remaining_faults
    second = du_pipeline.compact(mem)
    after = du_pipeline.fault_report.remaining_faults
    assert first.newly_dropped_faults > 0
    assert after <= before
    # MEM (second) must compact at least as hard as it would standalone.
    fresh = CompactionPipeline(du_pipeline.module, gpu=du_pipeline.gpu)
    standalone = fresh.compact(generate_mem(seed=4, num_sbs=15))
    assert second.compacted_size <= standalone.compacted_size


def test_cntrl_duration_compacts_less_than_size(du_pipeline):
    outcome = du_pipeline.compact(generate_cntrl(seed=4, num_sbs=18))
    # The parametric loop survives whole, so duration reduction lags size
    # reduction (the paper's CNTRL row: -73.51% size vs -36.95% duration).
    assert outcome.size_reduction_percent < 0
    assert outcome.duration_reduction_percent >= (
        outcome.size_reduction_percent)
    from repro.isa.opcodes import Op

    kept_ops = [i.op for i in outcome.compacted.program]
    assert Op.CLD in kept_ops  # the parametric loop's trip-count load


def test_compacted_ptp_is_executable(du_pipeline, du_module, gpu):
    for gen, kw in ((generate_imm, {"num_sbs": 10}),
                    (generate_mem, {"num_sbs": 10}),
                    (generate_cntrl, {"num_sbs": 8})):
        outcome = du_pipeline.compact(gen(seed=6, **kw))
        tracing = run_logic_tracing(outcome.compacted, du_module, gpu=gpu)
        assert tracing.cycles == outcome.compacted_cycles


def test_sp_pipeline_uses_signature_observability(sp_module, gpu):
    pipeline = CompactionPipeline(sp_module, gpu=gpu)
    outcome = pipeline.compact(generate_rand(seed=4, num_sbs=10))
    assert outcome.original_fc is not None
    evaluation = evaluate_fc(trace_and_pack(outcome.ptp, sp_module, gpu),
                             FaultSimulator(sp_module.netlist))
    assert evaluation.observability == "signature"
    assert evaluation.fc_percent == pytest.approx(outcome.original_fc)


def test_signature_fc_not_above_module_fc(sp_module, gpu):
    traced = trace_and_pack(generate_rand(seed=4, num_sbs=10), sp_module,
                            gpu)
    simulator = FaultSimulator(sp_module.netlist)
    sig = evaluate_fc(traced, simulator, observability="signature")
    mod = evaluate_fc(traced, simulator, observability="module")
    assert sig.fc_percent <= mod.fc_percent
    assert sig.detected <= mod.detected


def test_reverse_patterns_changes_first_detections(sfu_module, gpu):
    from repro.stl import generate_sfu_imm

    ptp, __ = generate_sfu_imm(sfu_module, seed=4, atpg_random_patterns=24,
                               atpg_max_backtracks=3)
    forward = CompactionPipeline(sfu_module, gpu=gpu).compact(
        ptp, reverse_patterns=False, evaluate=False)
    backward = CompactionPipeline(sfu_module, gpu=gpu).compact(
        ptp, reverse_patterns=True, evaluate=False)
    # Same detected fault set either way, but different essential labels.
    assert forward.fault_result.num_detected == (
        backward.fault_result.num_detected)


def test_sfu_compaction_preserves_fc_exactly(sfu_module, gpu):
    """No inter-SB data dependence in SFU_IMM: FC diff must be 0.0
    (Table III's SFU_IMM row)."""
    from repro.stl import generate_sfu_imm

    ptp, __ = generate_sfu_imm(sfu_module, seed=4, atpg_random_patterns=24,
                               atpg_max_backtracks=3)
    pipeline = CompactionPipeline(sfu_module, gpu=gpu)
    outcome = pipeline.compact(ptp, reverse_patterns=True)
    assert outcome.fc_diff == pytest.approx(0.0)


def test_outcome_percentages_consistent(du_pipeline):
    outcome = du_pipeline.compact(generate_imm(seed=9, num_sbs=10))
    expected = -100.0 * (outcome.original_size - outcome.compacted_size) \
        / outcome.original_size
    assert outcome.size_reduction_percent == pytest.approx(expected)
    assert outcome.compaction_seconds > 0



def test_compaction_traces_each_ptp_once(du_module, gpu, monkeypatch):
    """Stage 5 evaluates the original PTP from its stage-2 tracing: an
    evaluated compaction runs the GPU model for the original and for the
    compacted PTP, once each."""
    import repro.core.tracing as tracing_mod

    traced = []
    run = tracing_mod.run_logic_tracing

    def counting(ptp, module, gpu=None):
        traced.append(ptp.name)
        return run(ptp, module, gpu=gpu)

    monkeypatch.setattr(tracing_mod, "run_logic_tracing", counting)
    ptp = generate_imm(seed=9, num_sbs=6)
    outcome = CompactionPipeline(du_module, gpu=gpu).compact(ptp)
    assert traced == [ptp.name, outcome.compacted.name]


def test_compaction_reads_each_tracing_once(du_module, gpu, monkeypatch,
                                            tmp_path):
    """Through an artifact cache, an evaluated compaction looks up the
    original's and the compacted PTP's tracing once each; stage 5 reads
    nothing back."""
    from repro.exec.cache import ArtifactCache

    looked_up = []
    get = ArtifactCache.get

    def counting(self, key):
        looked_up.append(key)
        return get(self, key)

    monkeypatch.setattr(ArtifactCache, "get", counting)
    ptp = generate_imm(seed=9, num_sbs=6)
    pipeline = CompactionPipeline(du_module, gpu=gpu,
                                  cache=ArtifactCache(str(tmp_path)))
    outcome = pipeline.compact(ptp)
    assert len(looked_up) == len(set(looked_up)) == 2
    assert outcome.original_fc is not None


def test_stage5_runs_on_the_pipeline_simulator(du_module, gpu, monkeypatch):
    """Stage 3 and both stage-5 evaluations run on the pipeline's own
    simulator: swapped to the cone reference, all three run on cone, with
    the event engine's results."""
    ptp = generate_imm(seed=9, num_sbs=6)
    event = CompactionPipeline(du_module, gpu=gpu, jobs=1).compact(ptp)
    pipeline = CompactionPipeline(du_module, gpu=gpu, jobs=1)
    cone = pipeline.simulator = FaultSimulator(du_module.netlist,
                                               engine="cone")
    simulated = []
    run = cone.run

    def counting(patterns, fault_list=None):
        simulated.append(patterns)
        return run(patterns, fault_list)

    monkeypatch.setattr(cone, "run", counting)
    outcome = pipeline.compact(ptp)
    assert len(simulated) == 3
    assert simulated[0] is simulated[1]  # stage 5 reuses stage 3's set
    assert outcome.fault_result.first_detection == \
        event.fault_result.first_detection
    assert outcome.original_detected == event.original_detected
    assert outcome.compacted_detected == event.compacted_detected
