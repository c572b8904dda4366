"""Experiment A1 — whole-STL aggregate (Section IV, in-text).

"The selected PTPs' compaction implies 80.71% size and 64.43% duration
reduction rates for the whole STL."  The compacted PTPs cover 90.69% of
the STL's size and 75.70% of its duration; the rest (control-unit tests
excluded from compaction) is modeled with the same shares.
"""

from conftest import run_once
from repro.analysis import stl_aggregate


def test_aggregate_stl_reduction(benchmark, experiment):
    aggregate = run_once(
        benchmark, lambda: stl_aggregate(list(experiment.outcomes.values())))
    print()
    print("WHOLE-STL AGGREGATE (measured | paper)")
    print("  size reduction:     {:+.2f}% | {:+.2f}%".format(
        aggregate["size_reduction_pct"],
        aggregate["paper_size_reduction_pct"]))
    print("  duration reduction: {:+.2f}% | {:+.2f}%".format(
        aggregate["duration_reduction_pct"],
        aggregate["paper_duration_reduction_pct"]))

    # Both aggregates must show a large reduction, with duration reduced
    # less than size (the untouched remainder weighs more in duration).
    assert aggregate["size_reduction_pct"] < -40.0
    assert aggregate["duration_reduction_pct"] < -30.0
    assert (aggregate["duration_reduction_pct"]
            > aggregate["size_reduction_pct"])
