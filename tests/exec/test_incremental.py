"""Incremental fault-state restore: unit semantics, corruption fallback,
and the pattern-level edit oracle.

The load-bearing property mirrors the differential suite: a warm
:class:`IncrementalFaultSim` run over an *edited* pattern set must be
bit-identical to a from-scratch simulation — detection words and first
detections — across {cone, event} x {inline, pooled}, for every
edit the record is designed to absorb (delete a chunk, reorder, append,
rewrite values).  Corruption tests pin the fallback contract: a torn or
bit-flipped record on disk costs a full re-simulation, never an
exception and never a wrong bit.
"""

import json
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import IncrementalError
from repro.exec import (
    ArtifactCache,
    IncrementalFaultSim,
    RunMetrics,
    ShardedFaultScheduler,
    fault_site_key,
    validate_incremental_mode,
)
from repro.exec.cache import _sha256_of
from repro.faults import FaultList, FaultSimulator
from repro.faults.fault import enumerate_faults
from repro.netlist import PatternSet

from .test_differential import _random_netlist, _random_patterns


def _key(tag):
    """A well-formed 64-hex record key for unit tests (no module build)."""
    return _sha256_of(["test-fault-state", tag])


def _patterns_as_rows(patterns, nl):
    """Explicit per-pattern input-value dicts (editable representation)."""
    return [{net: patterns.packed.get(net, 0) >> k & 1 for net in nl.inputs}
            for k in range(patterns.count)]


def _rows_to_patterns(rows, nl):
    patterns = PatternSet(nl)
    for row in rows:
        patterns.add(row)
    return patterns


def _edit_rows(rng, nl, rows):
    """Apply 1-3 random STL-style edits at the pattern level: delete a
    chunk, reorder, append fresh patterns, rewrite values in place."""
    rows = [dict(row) for row in rows]
    for __ in range(rng.randrange(1, 4)):
        op = rng.choice(("delete", "reorder", "append", "rewrite"))
        if op == "delete" and len(rows) > 1:
            lo = rng.randrange(len(rows))
            hi = min(len(rows), lo + rng.randrange(1, 4))
            del rows[lo:hi]
        elif op == "reorder":
            rng.shuffle(rows)
        elif op == "append":
            for __a in range(rng.randrange(1, 4)):
                rows.append({net: rng.getrandbits(1)
                             for net in nl.inputs})
        elif op == "rewrite":
            row = rng.choice(rows)
            net = rng.choice(list(nl.inputs))
            row[net] ^= 1
    if not rows:
        rows.append({net: rng.getrandbits(1) for net in nl.inputs})
    return rows


@pytest.fixture
def cache(tmp_path):
    return ArtifactCache(str(tmp_path / "cache"))


# -- mode validation -----------------------------------------------------


def test_mode_validation():
    for mode in ("off", "on", "strict"):
        assert validate_incremental_mode(mode) == mode
    with pytest.raises(IncrementalError, match="unknown incremental"):
        validate_incremental_mode("maybe")


def test_constructor_requires_cache_and_active_mode(cache):
    with pytest.raises(IncrementalError, match="requires an artifact"):
        IncrementalFaultSim(None)
    with pytest.raises(IncrementalError, match="'off'"):
        IncrementalFaultSim(cache, mode="off")
    with pytest.raises(IncrementalError, match="unknown"):
        IncrementalFaultSim(cache, mode="bogus")


def test_fault_site_key_is_stable_and_distinct():
    rng = random.Random(7)
    nl = _random_netlist(rng)
    faults = enumerate_faults(nl, collapse=False)
    keys = [fault_site_key(f) for f in faults]
    assert len(set(keys)) == len(keys)
    assert keys == [fault_site_key(f) for f in faults]


# -- restore semantics ---------------------------------------------------


def test_identical_rerun_restores_everything(cache):
    rng = random.Random(11)
    nl = _random_netlist(rng)
    patterns = _random_patterns(rng, nl, 6)
    fault_list = FaultList(nl, enumerate_faults(nl, collapse=False))
    simulator = FaultSimulator(nl, engine="event")
    inc = IncrementalFaultSim(cache, mode="strict")
    key = _key("identical")

    cold, info0 = inc.run(None, simulator, patterns, fault_list, key)
    assert not info0["record_hit"]
    assert info0["faults_resimulated"] == len(fault_list)
    assert info0["faults_restored"] == 0

    warm, info1 = inc.run(None, simulator, patterns, fault_list, key)
    assert info1["record_hit"]
    assert info1["groups_invalidated"] == 0
    assert info1["faults_resimulated"] == 0
    assert info1["faults_restored"] == len(fault_list)
    assert info1["strict_checks"] == 1
    assert warm.detection_words == cold.detection_words
    assert warm.first_detection == cold.first_detection


def test_restore_is_pattern_order_independent(cache):
    """Detections are keyed by support *value*, not pattern index: a
    shuffled subset of the recorded patterns restores without a single
    re-simulation, and the words match a from-scratch run exactly."""
    rng = random.Random(23)
    nl = _random_netlist(rng)
    rows = _patterns_as_rows(_random_patterns(rng, nl, 8), nl)
    fault_list = FaultList(nl, enumerate_faults(nl, collapse=False))
    simulator = FaultSimulator(nl, engine="event")
    inc = IncrementalFaultSim(cache, mode="strict")
    key = _key("order")

    inc.run(None, simulator, _rows_to_patterns(rows, nl), fault_list, key)
    subset = rows[1:7]
    rng.shuffle(subset)
    edited = _rows_to_patterns(subset, nl)
    warm, info = inc.run(None, simulator, edited, fault_list, key)
    assert info["record_hit"]
    assert info["groups_invalidated"] == 0
    assert info["faults_resimulated"] == 0

    reference = FaultSimulator(nl, engine="cone").run(edited, fault_list)
    assert warm.detection_words == reference.detection_words
    assert warm.first_detection == reference.first_detection


def test_unseen_values_invalidate_only_affected_cones(cache):
    """Rewriting one input value invalidates the cones whose support sees
    the new value — other cones restore — and the merged result is
    bit-identical to scratch either way."""
    rng = random.Random(37)
    nl = _random_netlist(rng, num_inputs=6, num_gates=24)
    rows = _patterns_as_rows(_random_patterns(rng, nl, 6), nl)
    fault_list = FaultList(nl, enumerate_faults(nl, collapse=False))
    simulator = FaultSimulator(nl, engine="event")
    inc = IncrementalFaultSim(cache, mode="strict")
    key = _key("invalidate")

    inc.run(None, simulator, _rows_to_patterns(rows, nl), fault_list, key)
    edited_rows = [dict(row) for row in rows]
    edited_rows[2][sorted(nl.inputs)[0]] ^= 1
    edited = _rows_to_patterns(edited_rows, nl)
    warm, info = inc.run(None, simulator, edited, fault_list, key)
    assert info["record_hit"]
    assert info["groups_restored"] + info["groups_invalidated"] == (
        info["groups_total"])

    reference = FaultSimulator(nl, engine="cone").run(edited, fault_list)
    assert warm.detection_words == reference.detection_words
    assert warm.first_detection == reference.first_detection


def test_new_faults_in_a_known_group_are_resimulated(cache):
    """A fault the record never saw re-simulates even when its cone group
    otherwise restores (collapsed run first, uncollapsed rerun)."""
    rng = random.Random(43)
    nl = _random_netlist(rng)
    patterns = _random_patterns(rng, nl, 5)
    collapsed = FaultList(nl)
    full = FaultList(nl, enumerate_faults(nl, collapse=False))
    assert len(full) > len(collapsed)
    simulator = FaultSimulator(nl, engine="event")
    inc = IncrementalFaultSim(cache, mode="strict")
    key = _key("growth")

    inc.run(None, simulator, patterns, collapsed, key)
    warm, info = inc.run(None, simulator, patterns, full, key)
    assert info["record_hit"]
    assert 0 < info["faults_restored"] <= len(collapsed)
    assert info["faults_resimulated"] >= len(full) - len(collapsed)
    reference = FaultSimulator(nl, engine="cone").run(patterns, full)
    assert warm.detection_words == reference.detection_words


def test_empty_pattern_set_and_empty_fault_list_bypass_the_record(cache):
    rng = random.Random(5)
    nl = _random_netlist(rng)
    simulator = FaultSimulator(nl, engine="event")
    inc = IncrementalFaultSim(cache, mode="on")
    no_patterns = FaultList(nl)
    result, info = inc.run(None, simulator, PatternSet(nl), no_patterns,
                           _key("empty"))
    assert result.detection_words == [0] * len(no_patterns)
    assert info["groups_total"] == 0
    assert not info["record_hit"]
    result, info = inc.run(None, simulator,
                           _random_patterns(rng, nl, 3),
                           FaultList(nl, []), _key("empty-faults"))
    assert result.detection_words == []
    assert info["groups_total"] == 0


# -- corruption fallback (regression) ------------------------------------


def _cold_then_corrupt(cache, how):
    """Cold run, then corrupt the on-disk record via *how*(path, payload).
    Returns everything a warm run needs."""
    rng = random.Random(61)
    nl = _random_netlist(rng)
    patterns = _random_patterns(rng, nl, 6)
    fault_list = FaultList(nl, enumerate_faults(nl, collapse=False))
    simulator = FaultSimulator(nl, engine="event")
    metrics = RunMetrics()
    inc = IncrementalFaultSim(cache, metrics=metrics, mode="on")
    key = _key("corrupt")
    cold, __ = inc.run(None, simulator, patterns, fault_list, key)
    path = cache._path_of(key)
    with open(path) as handle:
        payload = json.load(handle)
    how(path, payload)
    return inc, simulator, patterns, fault_list, key, cold, metrics, path


def test_truncated_record_falls_back_to_full_resimulation(cache):
    """Satellite regression: a torn write (invalid JSON) must cost a full
    re-simulation and a ``cache.corrupt`` bump — never an exception."""
    def truncate(path, payload):
        with open(path, "w") as handle:
            handle.write(json.dumps(payload)[:40])

    (inc, simulator, patterns, fault_list, key, cold, metrics,
     path) = _cold_then_corrupt(cache, truncate)
    warm, info = inc.run(None, simulator, patterns, fault_list, key)
    assert not info["record_hit"]
    assert info["faults_resimulated"] == len(fault_list)
    assert warm.detection_words == cold.detection_words
    assert cache.stats["corrupt"] >= 1
    assert metrics.counters["cache.corrupt"] >= 1
    # The torn entry was deleted, and the re-run rewrote a fresh one.
    assert os.path.exists(path)
    with open(path) as handle:
        assert json.load(handle)["checksum"]


def test_bit_flipped_record_is_detected_deleted_and_resimulated(cache):
    """Satellite regression: a flip that still parses as JSON is caught
    by the whole-payload checksum at load — entry deleted, corrupt
    counter bumped, full re-simulation, bit-identical result."""
    def flip(path, payload):
        gkey = sorted(payload["groups"])[0]
        sites = payload["groups"][gkey]["sites"]
        skey = sorted(sites)[0]
        sites[skey] = format(int(sites[skey], 16) ^ 1, "x")
        with open(path, "w") as handle:
            json.dump(payload, handle)

    (inc, simulator, patterns, fault_list, key, cold, metrics,
     __path) = _cold_then_corrupt(cache, flip)
    warm, info = inc.run(None, simulator, patterns, fault_list, key)
    assert not info["record_hit"]
    assert info["faults_resimulated"] == len(fault_list)
    assert warm.detection_words == cold.detection_words
    assert warm.first_detection == cold.first_detection
    assert cache.stats["corrupt"] >= 1
    assert metrics.counters["cache.corrupt"] >= 1


def test_stale_format_version_is_ignored_not_corrupt(cache):
    def stale(path, payload):
        payload["format"] = -1
        with open(path, "w") as handle:
            json.dump(payload, handle)

    (inc, simulator, patterns, fault_list, key, cold, metrics,
     __path) = _cold_then_corrupt(cache, stale)
    warm, info = inc.run(None, simulator, patterns, fault_list, key)
    assert not info["record_hit"]
    assert warm.detection_words == cold.detection_words
    assert cache.stats["corrupt"] == 0


def test_strict_mode_catches_a_forged_record(cache):
    """The strict oracle: a tampered record whose checksum was *re-forged*
    passes integrity checks, restores wrong bits, and must be caught by
    the from-scratch comparison with :class:`IncrementalError`."""
    def forge(path, payload):
        flipped = False
        for gkey in sorted(payload["groups"]):
            entry = payload["groups"][gkey]
            values = payload["supports"][entry["skey"]]["values"]
            for skey in sorted(entry["sites"]):
                mask = int(entry["sites"][skey], 16)
                if values:
                    entry["sites"][skey] = format(mask ^ 1, "x")
                    flipped = True
                    break
            if flipped:
                break
        assert flipped
        body = {field: payload[field]
                for field in ("format", "observed", "supports", "groups")}
        payload["checksum"] = _sha256_of(body)
        with open(path, "w") as handle:
            json.dump(payload, handle)

    (inc, simulator, patterns, fault_list, key, __cold, __metrics,
     __path) = _cold_then_corrupt(cache, forge)
    strict = IncrementalFaultSim(cache, mode="strict")
    with pytest.raises(IncrementalError, match="strict incremental"):
        strict.run(None, simulator, patterns, fault_list, key)


# -- the pattern-level edit oracle ---------------------------------------


@pytest.fixture(scope="module")
def pools():
    metrics = RunMetrics()
    schedulers = {
        jobs: ShardedFaultScheduler(jobs=jobs, min_faults_per_shard=1,
                                    metrics=metrics)
        for jobs in (2, 7)
    }
    yield schedulers
    for scheduler in schedulers.values():
        scheduler.close()


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=6, deadline=None)
def test_edit_oracle_across_engines_inline_and_pooled(pools, tmp_path_factory,
                                                      seed):
    """The tentpole oracle at the exec layer: cold run, random pattern
    edits (delete/reorder/append/rewrite), warm run — bit-identical to a
    from-scratch cone simulation for every engine, inline and pooled.
    Warm runs use strict mode, so the internal from-scratch comparison
    runs as well whenever anything was restored."""
    rng = random.Random(seed)
    nl = _random_netlist(rng)
    base_rows = _patterns_as_rows(
        _random_patterns(rng, nl, rng.randrange(3, 10)), nl)
    edited_rows = _edit_rows(rng, nl, base_rows)
    fault_list = FaultList(nl, enumerate_faults(nl, collapse=False))
    base = _rows_to_patterns(base_rows, nl)
    edited = _rows_to_patterns(edited_rows, nl)
    reference = FaultSimulator(nl, engine="cone").run(edited, fault_list)

    cache = ArtifactCache(str(tmp_path_factory.mktemp("incr-oracle")))
    for engine in ("cone", "event"):
        simulator = FaultSimulator(nl, engine=engine)
        inc = IncrementalFaultSim(cache, mode="strict")
        key = _sha256_of(["oracle", engine])
        __, info0 = inc.run(None, simulator, base, fault_list, key)
        assert not info0["record_hit"]
        warm, info1 = inc.run(None, simulator, edited, fault_list, key)
        assert info1["record_hit"]
        assert warm.detection_words == reference.detection_words
        assert warm.first_detection == reference.first_detection

        jobs = (2, 7)[seed % 2]
        scheduler = pools[jobs]
        pooled_key = _sha256_of(["oracle-pooled", engine])
        inc.run(scheduler, simulator, base, fault_list, pooled_key)
        pooled, pinfo = inc.run(scheduler, simulator, edited, fault_list,
                                pooled_key)
        assert pinfo["record_hit"]
        assert pooled.detection_words == reference.detection_words
        assert pooled.first_detection == reference.first_detection
