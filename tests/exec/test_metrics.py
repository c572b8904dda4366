"""Run metrics: timers, throughput, serialization, summary rendering."""

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


def test_fault_sim_rates_and_utilization():
    metrics = RunMetrics()
    metrics.record_fault_sim(faults=1000, patterns=100, seconds=2.0,
                             jobs=4, shard_busy_seconds=[1.0, 1.0, 1.0,
                                                         1.0])
    metrics.record_fault_sim(faults=500, patterns=50, seconds=0.5)
    assert metrics.total_faults_simulated == 1500
    assert metrics.aggregate_rate("faults") == 1500 / 2.5
    assert metrics.aggregate_rate("patterns") == 150 / 2.5
    assert metrics.mean_shard_utilization() == 4.0 / 8.0
    zero = RunMetrics()
    assert zero.aggregate_rate("faults") is None
    assert zero.mean_shard_utilization() is None


def test_to_dict_and_save_round_trip(tmp_path):
    metrics = RunMetrics()
    metrics.record_fault_sim(faults=10, patterns=5, seconds=1.0, jobs=2,
                             shard_busy_seconds=[0.4, 0.4])
    metrics.record_cache_event(True)
    metrics.record_cache_event(False)
    metrics.bump("scheduler_inline_fallback")
    path = tmp_path / "out" / "metrics.json"
    metrics.save(str(path))
    document = json.loads(path.read_text())
    assert document["version"] == 5
    assert document["fault_sim"]["total_faults"] == 10
    assert "total_batches" not in document["fault_sim"]
    assert document["static"] == {"prune_mode": "off",
                                  "faults_pruned_static": 0,
                                  "cross_checked": 0}
    assert document["fault_sim"]["mean_shard_utilization"] == 0.4
    assert document["cache"] == {"hits": 1, "misses": 1, "puts": 0,
                                 "evictions": 0}
    assert document["counters"]["scheduler_inline_fallback"] == 1
    leftovers = [p.name for p in path.parent.iterdir()
                 if p.name.endswith(".tmp")]
    assert leftovers == []


def test_absorb_cache_stats_overwrites_counters():
    metrics = RunMetrics()
    metrics.record_cache_event(True)
    metrics.absorb_cache_stats({"hits": 7, "misses": 2, "puts": 3,
                                "evictions": 1})
    assert metrics.cache["hits"] == 7
    assert metrics.cache["evictions"] == 1


def test_summary_table_mentions_headline_numbers():
    clock = FakeClock()
    metrics = RunMetrics(clock=clock)
    with metrics.stage_timer("fault_simulation"):
        clock.advance(2.0)
    metrics.record_fault_sim(faults=200, patterns=40, seconds=2.0, jobs=2,
                             shard_busy_seconds=[0.9, 0.9])
    metrics.absorb_cache_stats({"hits": 3, "misses": 1, "puts": 1,
                                "evictions": 0})
    table = metrics.summary_table()
    assert "RUN METRICS" in table
    assert "fault_simulation" in table
    assert "3 hit(s), 1 miss(es)" in table
    assert "shard utilization : 45%" in table
    assert "fault batches" not in table
    assert "drop(s) broadcast" not in table
    empty = RunMetrics().summary_table()
    assert "no sharded runs" in empty
