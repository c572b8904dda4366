"""Artifact cache: content addressing, atomicity, LRU cap, memoization."""

import json
import os

import pytest

from repro.exec import (
    ArtifactCache,
    cached_logic_tracing,
    default_cache_dir,
    module_fingerprint,
)
from repro.gpu import Gpu
from repro.gpu.config import GpuConfig
from repro.stl import generate_imm


@pytest.fixture
def cache(tmp_path):
    return ArtifactCache(str(tmp_path / "cache"))


# -- keys -------------------------------------------------------------------

def test_key_is_stable_and_content_sensitive(cache, du_module, sp_module):
    ptp_a = generate_imm(seed=1, num_sbs=3)
    ptp_b = generate_imm(seed=2, num_sbs=3)
    config = GpuConfig()
    key = cache.key_for(ptp_a, config, du_module, "tracing")
    assert key == cache.key_for(ptp_a, config, du_module, "tracing")
    assert len(key) == 64 and int(key, 16) >= 0
    # Any key ingredient changing changes the key.
    assert key != cache.key_for(ptp_b, config, du_module, "tracing")
    assert key != cache.key_for(ptp_a, config, du_module, "other-stage")
    assert key != cache.key_for(ptp_a, GpuConfig(num_sps=16), du_module,
                                "tracing")
    assert key != cache.key_for(ptp_a, config, sp_module, "tracing")


def test_module_fingerprint_distinguishes_builds(du_module, sp_module,
                                                 sfu_module):
    prints = {module_fingerprint(m)
              for m in (du_module, sp_module, sfu_module)}
    assert len(prints) == 3
    assert module_fingerprint(du_module) == module_fingerprint(du_module)


def test_default_cache_dir_honors_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
    assert default_cache_dir() == str(tmp_path / "elsewhere")
    monkeypatch.delenv("REPRO_CACHE_DIR")
    assert default_cache_dir().endswith(os.path.join(".cache", "repro"))


# -- store ------------------------------------------------------------------

def test_put_get_round_trip_and_counters(cache):
    key = "ab" + "0" * 62
    assert cache.get(key) is None
    cache.put(key, {"cycles": 42, "rows": [[1, 2]]})
    assert cache.get(key) == {"cycles": 42, "rows": [[1, 2]]}
    assert cache.stats == {"hits": 1, "misses": 1, "puts": 1,
                           "evictions": 0, "corrupt": 0}
    # Entries fan out under the first two key hex chars.
    assert os.path.exists(os.path.join(cache.directory, "ab",
                                       key + ".json"))


def test_corrupt_entry_is_a_miss_and_deleted(cache):
    key = "cd" + "1" * 62
    cache.put(key, {"ok": True})
    path = os.path.join(cache.directory, "cd", key + ".json")
    with open(path, "w") as handle:
        handle.write("{torn")
    assert cache.get(key) is None
    assert not os.path.exists(path)
    assert cache.stats["misses"] == 1


def test_non_utf8_entry_is_a_corrupt_miss_and_deleted(cache):
    """An entry that is not even UTF-8 text is corrupt like torn JSON:
    deleted, counted, and a miss — not an error out of ``get``."""
    key = "ef" + "2" * 62
    cache.put(key, {"ok": True})
    path = os.path.join(cache.directory, "ef", key + ".json")
    with open(path, "wb") as handle:
        handle.write(b"\xff\xfe\x00\x81")
    assert cache.get(key) is None
    assert not os.path.exists(path)
    assert cache.stats["misses"] == 1
    assert cache.stats["corrupt"] == 1


def test_no_temp_files_left_behind(cache):
    for i in range(5):
        cache.put("{:064x}".format(i), {"i": i})
    leftovers = [name for __, __d, files in os.walk(cache.directory)
                 for name in files if name.endswith(".tmp")]
    assert leftovers == []


def test_lru_eviction_drops_oldest_first(tmp_path):
    # Cap sized to hold one entry (~80 bytes) but not two.
    cache = ArtifactCache(str(tmp_path / "small"), max_bytes=100)
    old_key, new_key = "{:064x}".format(1), "{:064x}".format(2)
    cache.put(old_key, {"payload": "x" * 64})
    # Backdate the first entry so mtime ordering is unambiguous.
    old_path = cache._path_of(old_key)
    assert os.path.exists(old_path)
    os.utime(old_path, (1, 1))
    cache.put(new_key, {"payload": "y" * 64})
    assert not os.path.exists(old_path)
    assert cache.stats["evictions"] == 1
    # The newest entry survives the cap sweep that its own put triggered.
    assert cache.get(new_key) is not None


def test_clear_removes_entries(cache):
    for i in range(3):
        cache.put("{:064x}".format(i), {"i": i})
    cache.clear()
    assert cache._entries() == []


# -- tracing memoization ----------------------------------------------------

def test_cached_logic_tracing_round_trip(cache, du_module):
    ptp = generate_imm(seed=4, num_sbs=4)
    gpu = Gpu()
    first = cached_logic_tracing(ptp, du_module, gpu, cache)
    assert (cache.stats["hits"], cache.stats["misses"]) == (0, 1)
    second = cached_logic_tracing(ptp, du_module, gpu, cache)
    assert (cache.stats["hits"], cache.stats["misses"]) == (1, 1)
    # The reconstructed artifact is equivalent in every field.
    assert second.cycles == first.cycles
    assert second.instructions == first.instructions
    assert second.trace == first.trace
    assert second.pattern_report.records == first.pattern_report.records
    assert cache.stats == {"hits": 1, "misses": 1, "puts": 1,
                           "evictions": 0, "corrupt": 0}


def test_cached_payload_feeds_identical_fault_sim(cache, du_module):
    from repro.faults import FaultList, FaultSimulator

    ptp = generate_imm(seed=4, num_sbs=4)
    gpu = Gpu()
    fresh = cached_logic_tracing(ptp, du_module, gpu, cache)
    cached = cached_logic_tracing(ptp, du_module, gpu, cache)
    assert cache.stats["hits"] == 1
    simulator = FaultSimulator(du_module.netlist)
    fault_list = FaultList(du_module.netlist)
    assert (simulator.detection_words(
        fresh.pattern_report.to_pattern_set(), fault_list)
        == simulator.detection_words(
            cached.pattern_report.to_pattern_set(), fault_list))


def test_without_cache_degrades_to_plain_tracing(du_module):
    ptp = generate_imm(seed=4, num_sbs=3)
    from repro.core.tracing import run_logic_tracing

    tracing = cached_logic_tracing(ptp, du_module, Gpu(), None)
    plain = run_logic_tracing(ptp, du_module, gpu=Gpu())
    assert tracing.cycles == plain.cycles
    assert tracing.trace == plain.trace
    assert tracing.pattern_report.records == plain.pattern_report.records


def test_entry_files_are_compact_json(cache, du_module):
    ptp = generate_imm(seed=4, num_sbs=3)
    gpu = Gpu()
    cached_logic_tracing(ptp, du_module, gpu, cache)
    key = cache.key_for(ptp, gpu.config, du_module, "tracing")
    with open(cache._path_of(key)) as handle:
        payload = json.load(handle)
    assert set(payload) == {"cycles", "instructions", "trace", "patterns"}


def test_entry_bytes_are_the_one_shot_dump_and_round_trip(cache):
    """``put`` writes ``json.dumps(payload, separators=(",", ":"))`` as
    one string: the same bytes ``json.dump`` streamed, read back equal."""
    key = "ef" + "2" * 62
    payload = {"cycles": 7, "name": "IMM é", "rows": [[0, 1, 2**70]],
               "nested": {"b": [True, None, 1.5], "a": "x"}}
    cache.put(key, payload)
    with open(cache._path_of(key), "rb") as handle:
        raw = handle.read()
    assert raw == json.dumps(payload, separators=(",", ":")).encode()
    assert cache.get(key) == payload


def test_unserializable_payload_leaves_no_entry(cache):
    """The payload is serialized before any file is made, so a payload
    that cannot be leaves neither an entry nor a temp file behind."""
    key = "ef" + "3" * 62
    with pytest.raises(TypeError):
        cache.put(key, {"bad": object()})
    assert not os.path.exists(cache._path_of(key))
    assert [name for __, __d, files in os.walk(cache.directory)
            for name in files] == []
    assert cache.stats["puts"] == 0
