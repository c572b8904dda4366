"""Experiment T3 — Table III: compaction of the functional-unit PTPs.

Runs the pipeline on TPGEN then RAND (SP cores, shared fault dropping) and
on SFU_IMM (SFU, stage-3 patterns applied in reverse order, as the paper
does), printing rows next to the published Table III.

Shape checks (paper values in parentheses):
* RAND — pseudorandom, compacted after TPGEN — compacts much harder than
  TPGEN (-97.79% vs -75.81% size) but its standalone FC collapses
  (-17.07): its instructions mostly re-detect TPGEN's faults;
* TPGEN's own FC delta stays small (-1.31);
* the TPGEN+RAND *combined* FC delta is much smaller than RAND's (-3.13);
* SFU_IMM compacts least (ATPG patterns are information-dense; -41.20%)
  and its FC delta is exactly 0.0 (no inter-SB data dependence).
"""

from conftest import run_once
from repro.analysis import compaction_rows, paper_data, render_compaction_table


def test_table3_functional_units(benchmark, experiment):
    rows = run_once(benchmark,
                    lambda: experiment.compaction_table(paper_data.TABLE3))
    print()
    print(render_compaction_table(
        compaction_rows(rows, paper_data.TABLE3),
        "TABLE III. COMPACTION RESULTS, FUNCTIONAL-UNIT PTPS "
        "(measured | paper)"))

    tpgen, rand, sfu = rows["TPGEN"], rows["RAND"], rows["SFU_IMM"]

    # RAND (post-TPGEN dropping) compacts harder than TPGEN.
    assert rand.size_reduction_percent < tpgen.size_reduction_percent
    # ... and loses much more standalone FC than TPGEN does.
    assert rand.fc_diff < tpgen.fc_diff
    assert rand.fc_diff < -1.0            # paper: -17.07
    assert tpgen.fc_diff > -8.0           # paper: -1.31
    # The combined FC delta recovers most of RAND's standalone loss.
    assert rows["TPGEN+RAND"]["fc_diff"] > rand.fc_diff
    # SFU_IMM: smallest compaction of the table, FC exactly preserved.
    assert sfu.fc_diff == 0.0             # paper: 0.0
    assert sfu.size_reduction_percent > rand.size_reduction_percent
    for outcome in (tpgen, rand, sfu):
        assert outcome.fault_simulations == 3
