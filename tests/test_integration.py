"""Full-stack integration: the smoke-scale experiment campaign.

Exercises every subsystem together exactly as the benchmarks do, at the
small SMOKE scale, and checks the cross-cutting invariants that the
paper's story depends on.
"""

import multiprocessing

import pytest

from repro.analysis import SMOKE, Experiment, paper_data, stl_aggregate
from repro.analysis.experiments import COMBINED_ROWS
from repro.faults import FaultList


@pytest.fixture(scope="module")
def experiment():
    return Experiment(SMOKE)


@pytest.fixture(scope="module")
def outcomes(experiment):
    return experiment.outcomes


def test_du_dropping_order_effects(experiment, outcomes):
    du = next(report for report in experiment.campaign
              if report.module_name == "decoder_unit")
    # Every DU PTP was compacted against a shrinking fault list.
    assert du.total_faults - du.remaining_faults >= max(
        outcomes[name].newly_dropped_faults
        for name in ("IMM", "MEM", "CNTRL"))
    # IMM is first: its FC is exactly preserved (context-free DU patterns).
    assert outcomes["IMM"].fc_diff == pytest.approx(0.0)


def test_sp_campaign_rand_redundancy(outcomes):
    tpgen, rand = outcomes["TPGEN"], outcomes["RAND"]
    # RAND follows TPGEN under dropping: it compacts harder and its
    # standalone FC falls further (Table III's -17.07 mechanism).
    assert rand.size_reduction_percent <= tpgen.size_reduction_percent
    assert rand.fc_diff <= tpgen.fc_diff + 0.5


def test_sfu_campaign_fc_exact(outcomes):
    assert outcomes["SFU_IMM"].fc_diff == pytest.approx(0.0)


def test_compacted_programs_all_run(experiment, outcomes):
    from repro.core import run_logic_tracing

    for outcome in outcomes.values():
        module = experiment.modules[outcome.ptp.target]
        tracing = run_logic_tracing(outcome.compacted, module,
                                    gpu=experiment.gpu)
        assert tracing.cycles == outcome.compacted_cycles


def test_every_compaction_used_one_fault_sim(outcomes):
    for outcome in outcomes.values():
        assert outcome.fault_simulations == 3  # 1 + 2 validation


def test_aggregate_combines_all_campaigns(outcomes):
    aggregate = stl_aggregate(list(outcomes.values()))
    assert -100.0 < aggregate["size_reduction_pct"] <= 0.0
    assert -100.0 < aggregate["duration_reduction_pct"] <= 0.0


def test_sizes_shrink_nowhere_grow(outcomes):
    for outcome in outcomes.values():
        assert outcome.compacted_size <= outcome.original_size
        assert outcome.compacted_cycles <= outcome.original_cycles


def test_tables_equal_fresh_evaluations(experiment, outcomes):
    """Oracle for reading the tables from the campaign's stage 5: every
    Table I FC and duration equals a fresh forward-pattern evaluation of
    the original PTP, and every combined FC equals the union over fresh
    evaluations of the originals and the compacted PTPs."""
    from repro.core import combined_fc, evaluate_fc, trace_and_pack
    from repro.faults import FaultSimulator

    def fresh(ptp):
        module = experiment.modules[ptp.target]
        return evaluate_fc(
            trace_and_pack(ptp, module, experiment.gpu,
                           reverse_patterns=False),
            FaultSimulator(module.netlist))

    features = experiment.table1_features()
    originals = {name: fresh(experiment.stl[name]) for name in outcomes}
    for name, evaluation in originals.items():
        assert features[name]["fc"] == evaluation.fc_percent
        assert features[name]["duration"] == evaluation.cycles

    tables = {**experiment.compaction_table(paper_data.TABLE2),
              **experiment.compaction_table(paper_data.TABLE3)}
    for combo, parts in COMBINED_ROWS.items():
        module = experiment.modules[experiment.stl[parts[0]].target]
        total = len(FaultList(module.netlist))
        fc_original = combined_fc(
            [originals[p].detected for p in parts], total)
        fc_compacted = combined_fc(
            [fresh(outcomes[p].compacted).detected for p in parts], total)
        assert features[combo]["fc"] == fc_original
        assert tables[combo]["fc_diff"] == fc_compacted - fc_original


def test_campaign_leaves_no_pool_workers(monkeypatch):
    """The campaign's pool workers are stopped before it returns, even
    while the experiment keeps its results."""
    monkeypatch.setenv("REPRO_JOBS", "2")
    before = set(multiprocessing.active_children())
    experiment = Experiment(SMOKE)
    assert experiment.campaign
    assert set(multiprocessing.active_children()) - before == set()


def test_fault_sim_counts_every_scheduled_fault(experiment, monkeypatch):
    """``fault_sim.faults`` sums the fault lists the campaign handed its
    scheduler: no run is missed and none is counted twice."""
    from repro.core.campaign import run_stl_campaign
    from repro.exec import RunMetrics, ShardedFaultScheduler
    from repro.stl.ptp import SelfTestLibrary

    handed = []
    run = ShardedFaultScheduler.run

    def counting_run(self, simulator, patterns, fault_list=None):
        handed.append(len(fault_list if fault_list is not None
                          else FaultList(simulator.netlist)))
        return run(self, simulator, patterns, fault_list)

    monkeypatch.setattr(ShardedFaultScheduler, "run", counting_run)
    metrics = RunMetrics()
    run_stl_campaign(SelfTestLibrary(experiment.stl), experiment.modules,
                     gpu=experiment.gpu, metrics=metrics, keep_going=False)
    assert handed
    assert metrics.groups["fault_sim"]["runs"] == len(handed)
    assert metrics.groups["fault_sim"]["faults"] == sum(handed)
