"""Run metrics: the stage timer, grouped counters, JSON, summary table."""

import json

from repro.exec import RunMetrics


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def advance(self, seconds):
        self.now += seconds

    def __call__(self):
        return self.now


def test_stage_timer_accumulates_across_entries():
    clock = FakeClock()
    metrics = RunMetrics(clock=clock)
    with metrics.stage_timer("tracing"):
        clock.advance(1.5)
    with metrics.stage_timer("tracing"):
        clock.advance(0.5)
    with metrics.stage_timer("reduction"):
        clock.advance(0.25)
    assert metrics.stage_seconds["tracing"] == 2.0
    assert metrics.stage_counts["tracing"] == 2
    assert metrics.stage_seconds["reduction"] == 0.25


def test_stage_timer_records_on_exception():
    clock = FakeClock()
    metrics = RunMetrics(clock=clock)
    try:
        with metrics.stage_timer("partition"):
            clock.advance(3.0)
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert metrics.stage_seconds["partition"] == 3.0
    assert metrics.stage_counts["partition"] == 1


def test_bump_files_counts_by_group():
    metrics = RunMetrics()
    metrics.bump("verify.runs")
    metrics.bump("verify.runs")
    metrics.bump("verify.errors", 0)
    metrics.bump("pool.worker_init_seconds", 0.25)
    assert metrics.groups["verify"] == {"runs": 2, "errors": 0}
    assert metrics.pool == {"worker_init_seconds": 0.25}
    # A missing counter reads 0, and the readers' fixed keys are there
    # before any component counted anything.
    assert metrics.groups["verify"]["warnings"] == 0
    assert metrics.incremental["faults_restored"] == 0
    assert metrics.incremental["faults_resimulated"] == 0
    assert metrics.groups["static"]["prune_mode"] == "off"


def test_fault_sim_rates_and_utilization():
    """Rates and utilization are ratios of the fault_sim sums: two pooled
    runs of 1 s (busy 2 of 2 job-seconds) and 3 s (busy 1 of 6) are 3/8
    utilized, not the 7/12 mean of their per-run ratios."""
    metrics = RunMetrics()
    for faults, patterns, seconds, busy in ((1000, 100, 1.0, 2.0),
                                            (500, 50, 3.0, 1.0)):
        for name, amount in (("runs", 1), ("faults", faults),
                             ("patterns", patterns), ("seconds", seconds),
                             ("busy_seconds", busy),
                             ("pooled_job_seconds", 2 * seconds)):
            metrics.bump("fault_sim." + name, amount)
    table = metrics.summary_table()
    assert "fault sims        : 2 run(s), 1500 fault(s), 4.000s" in table
    assert "faults/s          : 375.0" in table
    assert "patterns/s        : 37.5" in table
    assert "shard utilization : 38%" in table


def test_to_dict_and_save_round_trip(tmp_path):
    clock = FakeClock()
    metrics = RunMetrics(clock=clock)
    with metrics.stage_timer("tracing"):
        clock.advance(0.5)
    metrics.bump("fault_sim.runs")
    metrics.bump("fault_sim.faults", 10)
    metrics.bump("fault_sim.inline_fallback")
    metrics.absorb_cache_stats({"hits": 1, "misses": 1, "puts": 0,
                                "evictions": 0, "corrupt": 0})
    path = tmp_path / "out" / "metrics.json"
    metrics.save(str(path))
    document = json.loads(path.read_text())
    assert document["version"] == 6
    assert document["stages"] == {"tracing": {"seconds": 0.5, "count": 1}}
    assert document["fault_sim"] == {"runs": 1, "faults": 10,
                                     "inline_fallback": 1}
    assert document["cache"] == {"hits": 1, "misses": 1, "puts": 0,
                                 "evictions": 0, "corrupt": 0}
    assert document["pool"] == {}
    assert document["static"] == {"prune_mode": "off",
                                  "faults_pruned_static": 0,
                                  "cross_checked": 0}
    assert set(document["incremental"]) == {
        "runs", "records_loaded", "records_missing", "groups_total",
        "groups_restored", "groups_invalidated", "faults_restored",
        "faults_resimulated", "strict_checks"}
    assert not any(document["incremental"].values())
    assert set(document) == {"version", "stages", "fault_sim", "cache",
                             "pool", "static", "incremental"}
    leftovers = [p.name for p in path.parent.iterdir()
                 if p.name.endswith(".tmp")]
    assert leftovers == []


def test_absorb_cache_stats_overwrites_counters():
    metrics = RunMetrics()
    metrics.absorb_cache_stats({"hits": 1})
    metrics.absorb_cache_stats({"hits": 7, "misses": 2, "puts": 3,
                                "evictions": 1})
    assert metrics.groups["cache"]["hits"] == 7
    assert metrics.groups["cache"]["evictions"] == 1


def test_summary_table_mentions_headline_numbers():
    clock = FakeClock()
    metrics = RunMetrics(clock=clock)
    with metrics.stage_timer("fault_simulation"):
        clock.advance(2.0)
    metrics.absorb_cache_stats({"hits": 3, "misses": 1, "puts": 1,
                                "evictions": 0})
    table = metrics.summary_table()
    assert "RUN METRICS" in table
    assert "fault_simulation" in table
    assert "3 hit(s), 1 miss(es)" in table
    assert "fault batches" not in table
    assert "drop(s) broadcast" not in table
    # An empty store renders, and rendering adds no group to it.
    empty = RunMetrics()
    table = empty.summary_table()
    assert "no sharded runs" in table
    assert "faults/s          : n/a" in table
    assert "0 hit(s), 0 miss(es)" in table
    assert "fault_sim" not in empty.to_dict()
