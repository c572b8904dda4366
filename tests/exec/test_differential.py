"""Differential oracle: pool runs are bit-identical to inline runs.

The reproduction's correctness rests on fault-coverage numbers being
independent of *how* the simulation executes, so the load-bearing test is
a hypothesis oracle over random netlists and pattern sets: detection
words, first-detection ccs, and SpT signature verdicts must be
bit-identical across {inline, pool} x {cone, event} x jobs in
{1, 2, 4, 7} x chunk sizes — including the cross-PTP fault-dropping
carry-over through one shared pool.

The schedulers (and their worker pools) are module-scoped: every example
streams through the same long-lived workers, which is exactly the
campaign-lifetime reuse the pool exists for (and what surfaces stale-state
bugs a fresh-pool-per-test suite would hide).
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.exec import RunMetrics, ShardedFaultScheduler
from repro.faults import FaultList, FaultSimulator
from repro.faults.dropping import FaultListReport
from repro.faults.fault import enumerate_faults
from repro.netlist import GateType, Netlist, PatternSet
from repro.netlist.gates import ARITY

#: Explicit job counts force real pools even on this 1-CPU CI machine
#: (resolve_jobs only clamps env/default-resolved counts).
JOB_COUNTS = (1, 2, 4, 7)

#: Chunk sizes cycled per example: degenerate (1), tiny, and dynamic.
CHUNK_SIZES = (None, 1, 3, 17)


def _random_netlist(rng, num_inputs=4, num_gates=18, num_outputs=3):
    nl = Netlist("rand")
    nets = [nl.add_input() for __ in range(num_inputs)]
    for __ in range(num_gates):
        gate_type = rng.choice([GateType.AND, GateType.OR, GateType.XOR,
                                GateType.NAND, GateType.NOR, GateType.NOT,
                                GateType.XNOR, GateType.MUX, GateType.BUF])
        ins = [rng.choice(nets) for __ in range(ARITY[gate_type])]
        nets.append(nl.add_gate(gate_type, *ins))
    for net in rng.sample(nets[-(num_outputs * 3):], num_outputs):
        nl.mark_output(net)
    nl.finalize()
    return nl


def _random_patterns(rng, nl, count):
    patterns = PatternSet(nl)
    for __ in range(count):
        patterns.add({net: rng.getrandbits(1) for net in nl.inputs})
    return patterns


@pytest.fixture(scope="module")
def pools():
    """One persistent scheduler per job count, shared by every example."""
    metrics = RunMetrics()
    schedulers = {
        jobs: ShardedFaultScheduler(jobs=jobs, min_faults_per_shard=1,
                                    metrics=metrics)
        for jobs in JOB_COUNTS
    }
    yield schedulers
    for scheduler in schedulers.values():
        scheduler.close()


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=8, deadline=None)
def test_pool_is_bit_identical_across_engines_jobs_and_chunks(pools, seed):
    rng = random.Random(seed)
    nl = _random_netlist(rng)
    patterns = _random_patterns(rng, nl, rng.randrange(1, 12))
    # The uncollapsed list mixes canonical faults (shipped as ids) with
    # input-pin faults outside the collapsed enumeration (shipped as
    # literal StuckAtFault objects) — both entry paths stay covered.
    fault_list = FaultList(nl, enumerate_faults(nl, collapse=False))
    reference = FaultSimulator(nl, engine="cone").run(patterns, fault_list)

    for engine in ("event", "cone"):
        simulator = FaultSimulator(nl, engine=engine)
        inline = simulator.run(patterns, fault_list)
        assert inline.detection_words == reference.detection_words
        assert inline.first_detection == reference.first_detection
        for jobs in JOB_COUNTS:
            scheduler = pools[jobs]
            scheduler.chunk_size = CHUNK_SIZES[seed % len(CHUNK_SIZES)]
            pooled = scheduler.run(simulator, patterns, fault_list)
            assert pooled.detection_words == reference.detection_words
            assert pooled.first_detection == reference.first_detection
            assert pooled.pattern_count == reference.pattern_count


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=6, deadline=None)
def test_cross_ptp_dropping_carry_over_matches_sequential(pools, seed):
    """Three simulated PTPs under fault dropping through one shared pool:
    per-PTP detection results AND the drop-state fingerprint after every
    PTP must match the sequential cone-walk reference exactly."""
    rng = random.Random(seed)
    nl = _random_netlist(rng, num_gates=24)
    ptp_patterns = [_random_patterns(rng, nl, rng.randrange(1, 10))
                    for __ in range(3)]

    sequential = FaultListReport(nl)
    reference_sim = FaultSimulator(nl, engine="cone")
    history = []
    for i, patterns in enumerate(ptp_patterns):
        result = reference_sim.run(patterns, sequential.remaining)
        sequential.drop_result(result, "ptp{}".format(i))
        history.append((result.detection_words, result.first_detection,
                        sequential.fingerprint()))

    for jobs in (2, 7):
        for engine in ("event", "cone"):
            report = FaultListReport(nl)
            simulator = FaultSimulator(nl, engine=engine)
            scheduler = pools[jobs]
            scheduler.chunk_size = CHUNK_SIZES[(seed + jobs)
                                               % len(CHUNK_SIZES)]
            for i, patterns in enumerate(ptp_patterns):
                result = scheduler.run(simulator, patterns,
                                       report.remaining)
                report.drop_result(result, "ptp{}".format(i))
                words, firsts, fingerprint = history[i]
                assert result.detection_words == words
                assert result.first_detection == firsts
                assert report.fingerprint() == fingerprint


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=6, deadline=None)
def test_signature_verdicts_match_across_engines_with_pooled_module_run(
        pools, seed):
    """SpT verdicts are engine-independent, and the module-observability
    view of the same workload through the pool matches them too (the
    signature fold itself is sequential by design — per-thread MISR state
    does not shard)."""
    rng = random.Random(seed)
    nl = _random_netlist(rng)
    count = rng.randrange(2, 10)
    patterns = _random_patterns(rng, nl, count)
    fault_list = FaultList(nl)
    result_word = list(dict.fromkeys(nl.outputs))
    sequences = {"t0": list(range(count))}

    cone_result, cone_verdicts = FaultSimulator(
        nl, engine="cone").run_signature(patterns, fault_list, result_word,
                                         sequences)
    event_result, event_verdicts = FaultSimulator(
        nl, engine="event").run_signature(patterns, fault_list,
                                          result_word, sequences)
    assert event_verdicts == cone_verdicts
    assert event_result.detection_words == cone_result.detection_words

    simulator = FaultSimulator(nl, engine="event")
    pooled = pools[4].run(simulator, patterns, fault_list)
    assert pooled.detection_words == cone_result.detection_words
    assert pooled.first_detection == cone_result.first_detection
