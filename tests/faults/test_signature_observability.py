"""Signature-observability fault simulation: aliasing semantics.

Cross-checks ``FaultSimulator.run_signature`` against a brute-force
reference that rebuilds each thread's corrupted result sequence and folds
it through the software MISR model.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.faults import OUTPUT_PIN, FaultList, FaultSimulator, StuckAtFault
from repro.faults.fault import enumerate_faults
from repro.faults.fault_sim import _misr_detects
from repro.netlist import GateType, LogicSimulator, Netlist, PatternSet
from repro.stl.signature import difference_fold, misr_fold

from ..pattern_rows import pattern_set


def _identity_module(width=4):
    """result = a (BUF word): fault effects are fully transparent."""
    nl = Netlist("ident")
    a = nl.add_inputs(width, "a")
    out = [nl.add_gate(GateType.BUF, bit) for bit in a]
    for net in out:
        nl.mark_output(net)
    nl.finalize()
    return nl, a, out


def test_signature_detection_matches_brute_force():
    width = 4
    nl, a, out = _identity_module(width)
    rng = random.Random(7)
    values = [rng.getrandbits(width) for __ in range(40)]
    patterns = PatternSet.from_columns(nl, [(a, values)], len(values))
    # Two interleaved threads.
    sequences = {(0, t): [k for k in range(40) if k % 2 == t]
                 for t in range(2)}
    fault_list = FaultList(nl)
    simulator = FaultSimulator(nl)
    signature_detected = simulator.run_signature(
        patterns, fault_list, out, sequences)

    good = LogicSimulator(nl).run(patterns)
    for fault, sig_hit in zip(fault_list, signature_detected):
        # Brute force: rebuild each thread's good and corrupted result
        # sequences from the propagated fault effects and fold both
        # through the software MISR model.
        expected = False
        changed = simulator._propagate_fault(fault, good, patterns.mask)
        for key, seq in sequences.items():
            diffs = []
            for k in seq:
                diff_value = 0
                for i, net in enumerate(out):
                    good_bit = (good[net] >> k) & 1
                    bad_bit = ((changed.get(net, good[net]) >> k) & 1)
                    diff_value |= (good_bit ^ bad_bit) << i
                diffs.append(diff_value)
            good_values = []
            bad_values = []
            for k, diff in zip(seq, diffs):
                value = 0
                for i, net in enumerate(out):
                    value |= ((good[net] >> k) & 1) << i
                good_values.append(value)
                bad_values.append(value ^ diff)
            if misr_fold(good_values, width) != misr_fold(bad_values,
                                                          width):
                expected = True
                break
        assert sig_hit == expected, fault.describe(nl)


def test_engineered_aliasing_case():
    """A fault excited exactly twice, `width` updates apart with equal
    diffs, aliases in the MISR (rotation period cancellation)."""
    width = 4
    nl, a, out = _identity_module(width)
    # Single thread; craft the pattern stream so a s-a-0 on a[0] is excited
    # at positions 0 and 4 only (value bit0 = 1 there, 0 elsewhere).
    stream = [0b0001, 0b0000, 0b0010, 0b0100, 0b0001, 0b0000, 0b0110,
              0b1000]
    patterns = PatternSet.from_columns(nl, [(a, stream)], len(stream))
    sequences = {(0, 0): list(range(len(stream)))}
    fault = StuckAtFault(a[0], None, OUTPUT_PIN, 0)
    fault_list = FaultList(nl, [fault])
    simulator = FaultSimulator(nl)
    signature_detected = simulator.run_signature(
        patterns, fault_list, out, sequences, misr_width=width)
    # Module-output observability sees it (twice), ...
    assert simulator.detection_words(patterns, fault_list)[0] \
        == 0b0001_0001
    # ... but the two equal diffs rotate onto each other and cancel:
    # positions 0 and 4, rotations (8-1-0)%4 == (8-1-4)%4 == 3.
    assert signature_detected[0] is False


def test_truncated_misr_ignores_result_bits_beyond_width():
    """Result-bus bits at positions >= misr_width never enter the MISR
    (``misr_update`` masks every folded value), so a fault whose only
    effect lands on such a bit must be sig-undetected.

    Regression: the fold used to build diff words over the full result
    bus, and a diff bit ``1 << i`` with ``i >= width`` escaped
    ``word_mask`` on the rotation-0 path — exactly this fault was
    spuriously reported as signature-detected.
    """
    width = 4
    nl, a, out = _identity_module(width)
    # Single excitation at the LAST sequence position (rotation 0).
    patterns = PatternSet.from_columns(nl, [(a, [0b0000, 0b1000])], 2)
    sequences = {(0, 0): [0, 1]}
    fault = StuckAtFault(a[3], None, OUTPUT_PIN, 0)  # flips bit 3 only
    for engine in ("event", "cone"):
        simulator = FaultSimulator(nl, engine=engine)
        fault_list = FaultList(nl, [fault])
        signature_detected = simulator.run_signature(
            patterns, fault_list, out, sequences, misr_width=2)
        # Module outputs see the flip; the 2-bit signature cannot.
        assert simulator.detection_words(patterns, fault_list) \
            == [0b10], engine
        assert signature_detected == [False], engine
    # Same fault on a bit the truncated MISR does cover is detected.
    low_fault = StuckAtFault(a[0], None, OUTPUT_PIN, 1)
    detected = FaultSimulator(nl).run_signature(
        patterns, FaultList(nl, [low_fault]), out, sequences, misr_width=2)
    assert detected == [True]


def test_truncated_misr_matches_brute_force_on_both_engines():
    """misr_width = len(result_word) - 1 cross-check: the fold must agree
    with explicitly re-folding good and corrupted result sequences through
    the software MISR at the truncated width."""
    width = 4
    misr_width = width - 1
    nl, a, out = _identity_module(width)
    rng = random.Random(21)
    count = 24
    patterns = PatternSet.from_columns(
        nl, [(a, [rng.getrandbits(width) for __ in range(count)])], count)
    sequences = {(0, t): [k for k in range(count) if k % 2 == t]
                 for t in range(2)}
    fault_list = FaultList(nl)
    good = LogicSimulator(nl).run(patterns)
    reference = FaultSimulator(nl, engine="cone")
    for engine in ("event", "cone"):
        simulator = FaultSimulator(nl, engine=engine)
        signature_detected = simulator.run_signature(
            patterns, fault_list, out, sequences, misr_width=misr_width)
        for fault, sig_hit in zip(fault_list, signature_detected):
            changed = reference._propagate_fault(fault, good, patterns.mask)
            expected = False
            for seq in sequences.values():
                good_values = []
                bad_values = []
                for k in seq:
                    value = 0
                    bad = 0
                    for i, net in enumerate(out):
                        value |= ((good[net] >> k) & 1) << i
                        bad |= ((changed.get(net, good[net]) >> k) & 1) << i
                    good_values.append(value)
                    bad_values.append(bad)
                if misr_fold(good_values, misr_width) != misr_fold(
                        bad_values, misr_width):
                    expected = True
                    break
            assert sig_hit == expected, (engine, fault.describe(nl))


def test_unexcited_fault_is_sig_undetected():
    width = 4
    nl, a, out = _identity_module(width)
    patterns = PatternSet.from_columns(nl, [(a, [0b0001])], 1)
    fault = StuckAtFault(a[0], None, OUTPUT_PIN, 1)  # already 1: no effect
    fault_list = FaultList(nl, [fault])
    simulator = FaultSimulator(nl)
    signature_detected = simulator.run_signature(
        patterns, fault_list, out, {(0, 0): [0]}, misr_width=width)
    assert simulator.detection_words(patterns, fault_list) == [0]
    assert signature_detected == [False]


def test_fold_prunes_faults_that_reach_only_unfolded_outputs():
    """The fold observes the result bus only: a fault whose cone reaches
    another output but no folded net is pruned before propagation, while
    module-output observability still detects it."""
    nl = Netlist("fold_reach")
    a = nl.add_input()
    result = nl.add_gate(GateType.NOT, a)
    side = nl.add_gate(GateType.BUF, nl.add_gate(GateType.BUF, a))
    nl.mark_output(result)
    nl.mark_output(side)
    nl.finalize()
    patterns = pattern_set(nl, [
        {a: 0},
        {a: 1}])
    side_head = nl.gates[1].output
    fault_list = FaultList(nl, [StuckAtFault(side_head, 1, OUTPUT_PIN, 1)])
    simulator = FaultSimulator(nl)
    assert simulator.run_signature(patterns, fault_list, [result],
                                   {(0, 0): [0, 1]}) == [False]
    assert simulator.stats["faults_pruned"] == 1
    assert simulator.stats["gates_evaluated"] == 0
    assert simulator.detection_words(patterns, fault_list) == [0b01]


def _brute_force_verdict(reference, good, mask, fault, out, sequences,
                         width):
    """Rebuild every thread's good and corrupted result sequence from the
    cone walk's faulty values and compare their software MISR folds."""
    changed = reference._propagate_fault(fault, good, mask)
    for sequence in sequences.values():
        good_values, bad_values = [], []
        for k in sequence:
            value = bad = 0
            for i, net in enumerate(out):
                value |= ((good[net] >> k) & 1) << i
                bad |= ((changed.get(net, good[net]) >> k) & 1) << i
            good_values.append(value)
            bad_values.append(bad)
        if misr_fold(good_values, width) != misr_fold(bad_values, width):
            return True
    return False


def _mixing_module(width=4):
    """out[i] = a[i] ^ (b[i] & a[i+1]): faults on b only show where a
    lets them through, so threads see different, aliasing-prone diffs."""
    nl = Netlist("mix")
    a = nl.add_inputs(width, "a")
    b = nl.add_inputs(width, "b")
    out = [nl.add_gate(GateType.XOR, a[i],
                       nl.add_gate(GateType.AND, b[i], a[(i + 1) % width]))
           for i in range(width)]
    for net in out:
        nl.mark_output(net)
    nl.finalize()
    return nl, a, b, out


@given(st.integers(1, 30), st.integers(1, 5), st.sampled_from([None, 3]),
       st.data())
@settings(max_examples=40, deadline=None)
def test_per_thread_fold_matches_brute_force(count, num_threads,
                                             misr_width, data):
    """Both engines against the software MISR, with patterns spread over
    threads in any order and some patterns in no thread at all."""
    nl, a, b, out = _mixing_module()
    rows = [(data.draw(st.integers(0, 15)), data.draw(st.integers(0, 15)))
            for __ in range(count)]
    patterns = PatternSet.from_columns(
        nl, [(a, [row[0] for row in rows]), (b, [row[1] for row in rows])],
        count)
    owner = data.draw(st.lists(st.integers(-1, num_threads - 1),
                               min_size=count, max_size=count))
    sequences = {}
    for t in range(num_threads):
        mine = [k for k in range(count) if owner[k] == t]
        sequences[(0, t)] = data.draw(st.permutations(mine))
    width = misr_width or len(out)
    fault_list = FaultList(nl, enumerate_faults(nl, collapse=False))
    good = LogicSimulator(nl).run(patterns)
    reference = FaultSimulator(nl, engine="cone")
    expected = [_brute_force_verdict(reference, good, patterns.mask, fault,
                                     out, sequences, width)
                for fault in fault_list]
    for engine in ("event", "cone"):
        verdicts = FaultSimulator(nl, engine=engine).run_signature(
            patterns, fault_list, out, sequences, misr_width=misr_width)
        assert verdicts == expected, engine


@given(st.integers(1, 32), st.integers(1, 300), st.data())
@settings(max_examples=120, deadline=None)
def test_chunk_fold_matches_difference_fold(width, length, data):
    """The fold's verdict over one thread is non-zero exactly when the
    per-position rotation fold of the result differences is.  The diffs
    are sparse bit flips, each sometimes paired with a twin that lands
    on the same signature bit, so aliasing cases are common."""
    diffs = {}
    for __ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, width - 1))
        p = data.draw(st.integers(0, length - 1))
        diffs[i] = diffs.get(i, 0) ^ 1 << p
        if data.draw(st.booleans()):
            # i + (length - 1 - p) == twin + (length - 1 - q)  (mod width)
            twin = data.draw(st.integers(0, width - 1))
            q = p + (twin - i) % width
            if q < length:
                diffs[twin] = diffs.get(twin, 0) ^ 1 << q
    by_position = {}
    for p in range(length):
        value = 0
        for i, diff in diffs.items():
            value |= (diff >> p & 1) << i
        by_position[p] = value
    assert _misr_detects(diffs, length, width) == (
        difference_fold(by_position, length, width) != 0)


def test_only_the_last_thread_detects():
    """Threads 0 and 1 alias the fault away (two equal diffs `width`
    updates apart); only thread 2, visited last, keeps it."""
    width = 4
    nl, a, out = _identity_module(width)
    aliasing = [0b0001, 0b0000, 0b0010, 0b0100, 0b0001, 0b0000, 0b0110,
                0b1000]
    single = [0b0000, 0b0001, 0b0010, 0b0100, 0b0000, 0b0000, 0b0110,
              0b1000]
    streams = [aliasing, aliasing, single]
    # Interleave: global pattern k is position k // 3 of thread k % 3.
    values = [stream[position] for position in range(len(single))
              for stream in streams]
    patterns = PatternSet.from_columns(nl, [(a, values)], len(values))
    sequences = {(0, t): list(range(t, patterns.count, 3))
                 for t in range(3)}
    fault_list = FaultList(nl, [StuckAtFault(a[0], None, OUTPUT_PIN, 0)])
    for engine in ("event", "cone"):
        simulator = FaultSimulator(nl, engine=engine)
        assert simulator.run_signature(
            patterns, fault_list, out, sequences) == [True], engine
        first_two = {key: sequences[key] for key in [(0, 0), (0, 1)]}
        assert simulator.run_signature(
            patterns, fault_list, out, first_two) == [False], engine
        assert simulator.run_signature(
            patterns, fault_list, out, {(0, 2): sequences[(0, 2)]}) \
            == [True], engine


def test_patterns_outside_every_thread_are_not_observed():
    """A pattern no thread applies feeds no signature: a fault excited
    only there is SpT-undetected (and counted inactive once), though the
    module outputs see it."""
    width = 4
    nl, a, out = _identity_module(width)
    patterns = PatternSet.from_columns(nl, [(a, [0b0001, 0b0000, 0b0000])],
                                       3)
    sequences = {(0, 0): [1], (0, 1): [2]}
    only_outside = StuckAtFault(a[0], None, OUTPUT_PIN, 0)
    everywhere = StuckAtFault(a[1], None, OUTPUT_PIN, 1)
    fault_list = FaultList(nl, [only_outside, everywhere])
    for engine in ("event", "cone"):
        simulator = FaultSimulator(nl, engine=engine)
        assert simulator.run_signature(
            patterns, fault_list, out, sequences) == [False, True], engine
        assert simulator.stats["faults_inactive"] == 1, engine
        assert simulator.detection_words(patterns, fault_list)[0] \
            == 0b001, engine
    assert FaultSimulator(nl).run_signature(
        patterns, fault_list, out, {}) == [False, False]


def test_reach_prune_counts_once_per_fault_not_per_thread():
    """The reach prune runs once per fault, before the thread loop: a
    pruned fault bumps ``faults_pruned`` once per ``run_signature`` call
    however many threads there are."""
    nl = Netlist("fold_reach_threads")
    a = nl.add_input()
    result = nl.add_gate(GateType.NOT, a)
    side = nl.add_gate(GateType.BUF, nl.add_gate(GateType.BUF, a))
    nl.mark_output(result)
    nl.mark_output(side)
    nl.finalize()
    patterns = pattern_set(nl, [{a: value} for value in (0, 1, 0, 1)])
    sequences = {(0, t): [t] for t in range(4)}
    fault_list = FaultList(
        nl, [StuckAtFault(nl.gates[1].output, 1, OUTPUT_PIN, 1)])
    simulator = FaultSimulator(nl)
    for calls in (1, 2):
        assert simulator.run_signature(patterns, fault_list, [result],
                                       sequences) == [False]
        assert simulator.stats["faults_pruned"] == calls
    assert simulator.stats["faults_inactive"] == 0
    assert simulator.stats["gates_evaluated"] == 0

