"""Experiment T1 — Table I: main features of the evaluated PTPs.

Regenerates, for the scaled STL, the exact rows of the paper's Table I
(size, ARC %, duration in ccs, FC %) including the IMM+MEM+CNTRL and
TPGEN+RAND combined rows, and prints them next to the published values.

Shape checks (paper values in parentheses):
* every pseudorandom PTP is 100% ARC, CNTRL is below 100% (90.0);
* combined FCs exceed each constituent's FC;
* SP-core FC lands in the paper's 80-90 band.
"""

from conftest import run_once
from repro.analysis import render_table1, table1_rows


def test_table1_features(benchmark, experiment):
    features = run_once(benchmark, experiment.table1_features)
    print()
    print(render_table1(table1_rows(features)))

    assert features["IMM"]["arc"] == 100.0
    assert features["MEM"]["arc"] == 100.0
    assert features["RAND"]["arc"] == 100.0
    assert features["TPGEN"]["arc"] == 100.0
    assert features["SFU_IMM"]["arc"] == 100.0
    assert 75.0 < features["CNTRL"]["arc"] < 100.0  # paper: 90.0

    assert features["IMM+MEM+CNTRL"]["fc"] >= max(
        features[name]["fc"] for name in ("IMM", "MEM", "CNTRL"))
    assert features["TPGEN+RAND"]["fc"] >= max(
        features[name]["fc"] for name in ("TPGEN", "RAND"))

    for name in ("IMM", "MEM", "CNTRL", "TPGEN", "RAND", "SFU_IMM"):
        assert 30.0 < features[name]["fc"] < 100.0
        assert features[name]["duration"] > features[name]["size"]
