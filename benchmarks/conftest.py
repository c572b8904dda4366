"""Shared benchmark state: one experiment campaign per session.

The campaign is expensive (it is the paper's Tables I-III), so one
:class:`~repro.analysis.Experiment` runs it once and every table benchmark
reads its outcomes.  Scale is the package default
(:data:`repro.analysis.DEFAULT`).  ``REPRO_BENCH_SMOKE=1`` switches to the
test scale (:data:`repro.analysis.SMOKE`) for a quick run of the harness;
the table benchmarks' shape asserts are calibrated for DEFAULT only, so
at SMOKE some of them fail (IMM's size reduction, RAND's ``fc_diff`` and
the whole-STL size aggregate fall short of their DEFAULT-scale bounds).
"""

import os

import pytest

from repro.analysis import DEFAULT, SMOKE, Experiment


@pytest.fixture(scope="session")
def experiment():
    return Experiment(SMOKE if os.environ.get("REPRO_BENCH_SMOKE")
                      else DEFAULT)


def run_once(benchmark, fn):
    """Measure *fn* exactly once (campaigns are minutes-long)."""
    return benchmark.pedantic(fn, iterations=1, rounds=1)
