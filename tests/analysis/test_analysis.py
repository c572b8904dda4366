"""Table builders and the smoke-scale experiment driver."""

import pytest

from repro.analysis import (
    SMOKE,
    Experiment,
    combined_outcome_row,
    compaction_rows,
    paper_data,
    render_compaction_table,
    render_table1,
    stl_aggregate,
    table1_rows,
)


def test_paper_constants_sanity():
    assert paper_data.TABLE1["IMM"]["size"] == 32736
    assert paper_data.TABLE2["MEM"]["size_pct"] == -98.64
    assert paper_data.TABLE3["RAND"]["fc_diff"] == -17.07
    assert paper_data.STL_SIZE_REDUCTION == -80.71


def test_table1_rendering_includes_paper_columns():
    rows = table1_rows({"IMM": {"size": 100, "arc": 100.0,
                                "duration": 1000, "fc": 65.0}})
    text = render_table1(rows)
    assert "TABLE I" in text
    assert "32736" in text  # paper reference value
    assert "65.00" in text


def test_compaction_row_from_dict_and_rendering():
    rows = compaction_rows(
        {"IMM": {"size": 10, "size_pct": -90.0, "duration": 100,
                 "duration_pct": -85.0, "fc_diff": 0.0, "seconds": 1.5}},
        paper_data.TABLE2)
    text = render_compaction_table(rows, "TABLE II")
    assert "-90.00" in text
    assert "-97.30" in text  # paper IMM size pct


class _Outcome:
    def __init__(self, osize, csize, occs, cccs, secs=1.0):
        self.original_size = osize
        self.compacted_size = csize
        self.original_cycles = occs
        self.compacted_cycles = cccs
        self.compaction_seconds = secs


def test_combined_outcome_row_weighted_sums():
    combined = combined_outcome_row(
        [_Outcome(100, 10, 1000, 100), _Outcome(100, 30, 1000, 300)],
        combined_fc_original=80.0, combined_fc_compacted=79.0)
    assert combined["size"] == 40
    assert combined["size_pct"] == pytest.approx(-80.0)
    assert combined["duration_pct"] == pytest.approx(-80.0)
    assert combined["fc_diff"] == pytest.approx(-1.0)
    assert combined["seconds"] == pytest.approx(2.0)


def test_stl_aggregate_uses_paper_shares():
    # If the compacted PTPs shrink to nothing, the STL keeps exactly the
    # non-compacted remainder share.
    aggregate = stl_aggregate([_Outcome(9069, 0, 7570, 0)])
    assert aggregate["size_reduction_pct"] == pytest.approx(-90.69, abs=0.1)
    assert aggregate["duration_reduction_pct"] == pytest.approx(-75.70,
                                                               abs=0.1)
    # No compaction at all -> no STL reduction.
    aggregate = stl_aggregate([_Outcome(1000, 1000, 1000, 1000)])
    assert aggregate["size_reduction_pct"] == pytest.approx(0.0)


@pytest.fixture(scope="module")
def experiment():
    return Experiment(SMOKE)


def test_experiment_builds_all_modules(experiment):
    assert set(experiment.modules) == {"decoder_unit", "sp_core", "sfu"}
    assert experiment.modules["sp_core"].params["width"] == 8


def test_experiment_builds_six_ptp_stl(experiment):
    names = [ptp.name for ptp in experiment.stl]
    assert names == ["IMM", "MEM", "CNTRL", "TPGEN", "RAND", "SFU_IMM"]


def test_du_campaign_smoke(experiment):
    du = experiment.campaign[0]
    assert du.module_name == "decoder_unit"
    assert [record.name for record in du.records] == ["IMM", "MEM", "CNTRL"]
    for record in du.records:
        assert record.outcome.compacted_size <= record.outcome.original_size
        assert record.outcome.fault_simulations == 3
    # Dropping accumulated across the three PTPs.
    assert du.total_faults - du.remaining_faults > 0
