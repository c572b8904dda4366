"""Bit-parallel logic simulator: gate semantics and pattern packing."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NetlistError
from repro.netlist import CONST0, CONST1, GateType, LogicSimulator, Netlist, PatternSet
from repro.netlist.gates import ARITY, evaluate
from repro.netlist.simulator import iter_set_bits

from ..pattern_rows import add_words, pattern_set


@pytest.mark.parametrize("gate_type,table", [
    (GateType.BUF, {(0,): 0, (1,): 1}),
    (GateType.NOT, {(0,): 1, (1,): 0}),
    (GateType.AND, {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 1}),
    (GateType.OR, {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1}),
    (GateType.NAND, {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 0}),
    (GateType.NOR, {(0, 0): 1, (0, 1): 0, (1, 0): 0, (1, 1): 0}),
    (GateType.XOR, {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}),
    (GateType.XNOR, {(0, 0): 1, (0, 1): 0, (1, 0): 0, (1, 1): 1}),
    (GateType.MUX, {(0, 0, 0): 0, (1, 0, 0): 1, (0, 1, 0): 0, (1, 1, 0): 1,
                    (0, 0, 1): 0, (1, 0, 1): 0, (0, 1, 1): 1, (1, 1, 1): 1}),
])
def test_gate_truth_tables(gate_type, table):
    for inputs, expected in table.items():
        assert evaluate(gate_type, inputs, 1) == expected
    assert ARITY[gate_type] == len(next(iter(table)))


def _xor_netlist():
    nl = Netlist("xor")
    a = nl.add_input("a")
    b = nl.add_input("b")
    out = nl.add_gate(GateType.XOR, a, b)
    nl.mark_output(out, "out")
    nl.finalize()
    return nl, a, b, out


def test_pattern_set_add_and_mask():
    nl, a, b, out = _xor_netlist()
    assert PatternSet(nl).mask == 0
    patterns = pattern_set(nl, [{a: 1}, {a: 0, b: 1}, {a: 1, b: 1}])
    assert patterns.count == 3
    assert patterns.mask == 0b111
    assert patterns.value_of(a, 0) == 1
    assert patterns.value_of(b, 0) == 0
    assert patterns.value_of(b, 2) == 1


def test_pattern_set_rejects_non_input_nets():
    nl, a, b, out = _xor_netlist()
    with pytest.raises(NetlistError):
        pattern_set(nl, [{out: 1}])


def test_simulation_packs_all_patterns():
    nl, a, b, out = _xor_netlist()
    cases = [(0, 0), (0, 1), (1, 0), (1, 1)]
    patterns = pattern_set(nl, [{a: av, b: bv} for av, bv in cases])
    values = LogicSimulator(nl).run(patterns)
    for k, (av, bv) in enumerate(cases):
        assert (values[out] >> k) & 1 == (av ^ bv)
    assert values[CONST0] == 0
    assert values[CONST1] == patterns.mask


def test_run_words():
    nl, a, b, out = _xor_netlist()
    patterns = pattern_set(nl, [
        {a: 1, b: 0},
        {a: 1, b: 1}])
    results = LogicSimulator(nl).run_words(patterns, {"out": [out]})
    assert results["out"] == [1, 0]


def test_subset_and_reversed():
    nl, a, b, out = _xor_netlist()
    patterns = pattern_set(nl, [{a: av, b: bv} for av, bv in
                                [(1, 0), (0, 1), (1, 1), (0, 0)]])
    rev = patterns.reversed()
    assert rev.count == 4
    assert rev.value_of(a, 0) == patterns.value_of(a, 3)
    assert rev.value_of(b, 3) == patterns.value_of(b, 0)
    sub = patterns.subset([2, 0])
    assert sub.count == 2
    assert sub.value_of(a, 0) == patterns.value_of(a, 2)
    assert sub.value_of(a, 1) == patterns.value_of(a, 0)


def test_cross_netlist_pattern_rejected():
    nl1, a1, b1, _ = _xor_netlist()
    nl2, *_ = _xor_netlist()
    patterns = pattern_set(nl1, [{a1: 1}])
    with pytest.raises(NetlistError):
        LogicSimulator(nl2).run(patterns)


def test_value_of_rejects_out_of_range_indices():
    nl, a, b, out = _xor_netlist()
    patterns = pattern_set(nl, [
        {a: 1},
        {a: 0, b: 1}])
    with pytest.raises(IndexError):
        patterns.value_of(a, 2)
    with pytest.raises(IndexError):
        patterns.value_of(a, -1)
    with pytest.raises(IndexError):
        PatternSet(nl).value_of(a, 0)  # empty set has no pattern 0


def test_subset_rejects_out_of_range_indices():
    nl, a, b, out = _xor_netlist()
    patterns = pattern_set(nl, [{a: 1}])
    with pytest.raises(IndexError):
        patterns.subset([0, 1])
    with pytest.raises(IndexError):
        patterns.subset([-1])


def test_iter_set_bits_walks_ascending_and_rejects_negatives():
    assert list(iter_set_bits(0)) == []
    assert list(iter_set_bits(0b1011001)) == [0, 3, 4, 6]
    # A negative int has infinitely many two's-complement set bits; the
    # walk must fail loudly instead of looping forever.
    with pytest.raises(ValueError):
        list(iter_set_bits(-1))


def test_pattern_set_is_immutable():
    """A set never changes after it is built: assigning an attribute or a
    packed word raises, for built and for derived sets alike."""
    nl, a, b, out = _xor_netlist()
    built = pattern_set(nl, [{a: 1}, {b: 1}])
    for patterns in (built, built.subset([1]), built.reversed(),
                     PatternSet(nl)):
        count, words = patterns.count, dict(patterns.packed)
        with pytest.raises(AttributeError):
            patterns.count = 5
        with pytest.raises(AttributeError):
            patterns.packed = {}
        with pytest.raises(AttributeError):
            del patterns.netlist
        with pytest.raises(TypeError):
            patterns.packed[a] = 0b1
        assert patterns.count == count and dict(patterns.packed) == words



@given(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1,
                max_size=24),
       st.data())
@settings(max_examples=40, deadline=None)
def test_subset_repacking_matches_per_bit_reference(cases, data):
    """The linear shift/mask repack equals the naive per-(index, net)
    probe loop, including duplicated and reordered indices."""
    nl, a, b, out = _xor_netlist()
    patterns = pattern_set(nl, [{a: int(av), b: int(bv)}
                                for av, bv in cases])
    indices = data.draw(st.lists(
        st.integers(0, patterns.count - 1), min_size=0, max_size=30))
    sub = patterns.subset(indices)
    assert sub.count == len(indices)
    for net in nl.inputs:
        expected = 0
        for new_index, old_index in enumerate(indices):
            if (patterns.packed[net] >> old_index) & 1:
                expected |= 1 << new_index
        assert sub.packed[net] == expected


@given(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1,
                max_size=24))
@settings(max_examples=40, deadline=None)
def test_run_words_matches_per_bit_reference(cases):
    """The set-bit transposition equals probing every (pattern, bit)."""
    nl, a, b, out = _xor_netlist()
    patterns = pattern_set(nl, [{a: int(av), b: int(bv)}
                                for av, bv in cases])
    sim = LogicSimulator(nl)
    words = {"out": [out], "echo": [a, b]}
    results = sim.run_words(patterns, words)
    values = sim.run(patterns)
    for name, word in words.items():
        expected = []
        for k in range(patterns.count):
            value = 0
            for i, net in enumerate(word):
                value |= ((values[net] >> k) & 1) << i
            expected.append(value)
        assert results[name] == expected


@given(st.lists(st.tuples(st.booleans(), st.booleans(), st.booleans()),
                min_size=1, max_size=70))
@settings(max_examples=30, deadline=None)
def test_parallel_simulation_matches_serial(cases):
    """Simulating N patterns at once equals N single-pattern runs."""
    nl = Netlist("mix")
    a = nl.add_input()
    b = nl.add_input()
    c = nl.add_input()
    g1 = nl.add_gate(GateType.NAND, a, b)
    g2 = nl.add_gate(GateType.MUX, g1, c, b)
    g3 = nl.add_gate(GateType.XNOR, g2, a)
    nl.mark_output(g3)
    nl.finalize()
    sim = LogicSimulator(nl)

    batch = pattern_set(nl, [{a: int(av), b: int(bv), c: int(cv)}
                             for av, bv, cv in cases])
    packed = sim.run(batch)[g3]

    for k, (av, bv, cv) in enumerate(cases):
        single = pattern_set(nl, [{a: int(av), b: int(bv), c: int(cv)}])
        assert sim.run(single)[g3] == (packed >> k) & 1


# -- column-wise packing ------------------------------------------------------

def _wide_netlist(num_inputs=72):
    """*num_inputs* inputs (enough for a word wider than one 64-bit limb)
    and one gate output, which is not a primary input."""
    nl = Netlist("wide")
    ins = nl.add_inputs(num_inputs, "i")
    side = nl.add_gate(GateType.AND, ins[0], ins[1])
    nl.mark_output(side)
    nl.finalize()
    return nl, ins, side


def _add_words_reference(nl, columns, count):
    """``{input net: packed int}`` of *columns* packed one pattern at a
    time by the per-pattern reference ``add_words``."""
    reference = dict.fromkeys(nl.inputs, 0)
    for k in range(count):
        add_words(reference, k, [(word, values[k])
                                 for word, values in columns])
    return reference


@st.composite
def _column_cases(draw):
    """``(columns, count)`` over :func:`_wide_netlist`: disjoint words of
    1-70 inputs, sometimes spoiled by one bad net (a non-input or a net of
    another word) or one bad value (negative or one bit too wide)."""
    nl, ins, side = _wide_netlist()
    count = draw(st.integers(1, 20))
    order = draw(st.permutations(ins))
    sizes = draw(st.lists(st.sampled_from([1, 3, 8, 16, 70]), max_size=4))
    words, start = [], 0
    for size in sizes:
        if start + size <= len(order):
            words.append(list(order[start:start + size]))
            start += size
    columns = [(word, draw(st.lists(st.integers(0, 2 ** len(word) - 1),
                                    min_size=count, max_size=count)))
               for word in words]
    spoil = draw(st.sampled_from(
        [None, None, None, "non-input", "shared", "negative", "wide"]))
    if spoil and columns:
        which = draw(st.integers(0, len(columns) - 1))
        word, values = columns[which]
        k = draw(st.integers(0, count - 1))
        if spoil == "non-input":
            word = word + [side]
        elif spoil == "shared":
            word = word + [columns[which - 1][0][0]]
        elif spoil == "negative":
            values = values[:k] + [-1] + values[k + 1:]
        else:
            values = values[:k] + [2 ** len(word)] + values[k + 1:]
        columns[which] = (word, values)
    return nl, columns, count


@given(_column_cases())
@settings(max_examples=80, deadline=None)
def test_from_columns_matches_per_pattern_add_words(case):
    """``from_columns`` packs what the per-pattern reference ``add_words``
    packs, and raises NetlistError exactly when that reference does."""
    nl, columns, count = case
    try:
        reference = _add_words_reference(nl, columns, count)
    except NetlistError:
        with pytest.raises(NetlistError):
            PatternSet.from_columns(nl, columns, count)
        return
    packed = PatternSet.from_columns(nl, columns, count)
    assert packed.count == count
    assert dict(packed.packed) == reference


def test_from_columns_checks_each_case():
    nl, ins, side = _wide_netlist()
    word = ins[:4]
    packed = PatternSet.from_columns(nl, [(word, [5, 0])], 2).packed
    # LSB first: 5 = 0b101 sets word[0] and word[2] in pattern 0.
    assert [packed[net] for net in word] == [0b01, 0, 0b01, 0]
    with pytest.raises(NetlistError, match="not a primary input"):
        PatternSet.from_columns(nl, [([side], [1])], 1)
    with pytest.raises(NetlistError, match="more than one word"):
        PatternSet.from_columns(nl, [(word, [1]), ([ins[3]], [0])], 1)
    with pytest.raises(NetlistError, match="negative"):
        PatternSet.from_columns(nl, [(word, [0, -2])], 2)
    with pytest.raises(NetlistError, match="does not fit"):
        PatternSet.from_columns(nl, [(word, [16])], 1)
    with pytest.raises(NetlistError, match="column of 1 value"):
        PatternSet.from_columns(nl, [(word, [1])], 2)
    empty = PatternSet.from_columns(nl, [(word, [])], 0)
    assert empty.count == 0 and set(empty.packed.values()) == {0}


def test_from_columns_packs_words_wider_than_a_limb():
    nl, ins, __ = _wide_netlist()
    value = (1 << 69) | (1 << 64) | (1 << 63) | 1
    columns = [(ins[:70], [value, 0, value >> 1])]
    packed = PatternSet.from_columns(nl, columns, 3)
    assert dict(packed.packed) == _add_words_reference(nl, columns, 3)
    assert packed.value_of(ins[69], 0) == 1
    assert packed.value_of(ins[68], 2) == 1


@given(st.integers(1, 40), st.data())
@settings(max_examples=60, deadline=None)
def test_columnar_subset_matches_bit_by_bit_reference(count, data):
    """Unpack -> gather -> pack equals probing each kept bit: order and
    duplicates kept, and any index outside the set is an IndexError."""
    nl, ins, __ = _wide_netlist(num_inputs=5)
    columns = [([net], data.draw(st.lists(st.integers(0, 1), min_size=count,
                                          max_size=count)))
               for net in ins]
    patterns = PatternSet.from_columns(nl, columns, count)
    indices = data.draw(st.lists(st.integers(-2, count + 1), max_size=50))
    if any(not 0 <= index < count for index in indices):
        with pytest.raises(IndexError):
            patterns.subset(indices)
        return
    sub = patterns.subset(indices)
    assert sub.count == len(indices)
    for net in ins:
        for new_index, old_index in enumerate(indices):
            assert sub.value_of(net, new_index) == \
                patterns.value_of(net, old_index)
        assert sub.packed[net] >> len(indices) == 0
