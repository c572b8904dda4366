"""Builder macros verified against Python integer arithmetic (hypothesis)."""

from hypothesis import given, settings, strategies as st

from repro.netlist import LogicSimulator, Netlist, PatternSet, builder as bd

W = 8
word8 = st.integers(0, (1 << W) - 1)


def _eval(build, inputs_spec, cases):
    """Build a netlist via *build*, apply *cases*, return output values.

    Args:
        build: fn(nl, input_words) -> dict name -> word (lists of nets).
        inputs_spec: list of (name, width).
        cases: list of dicts name -> value.
    """
    nl = Netlist("t")
    words = {name: nl.add_inputs(width, name) for name, width in inputs_spec}
    outs = build(nl, words)
    for word in outs.values():
        for net in word:
            nl.mark_output(net)
    nl.finalize()
    patterns = PatternSet.from_columns(
        nl, [(word, [case.get(name, 0) for case in cases])
             for name, word in words.items()], len(cases))
    return LogicSimulator(nl).run_words(patterns, outs)


@given(st.lists(st.tuples(word8, word8), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_ripple_adder(pairs):
    def build(nl, words):
        total, carry = bd.ripple_adder(nl, words["a"], words["b"])
        return {"sum": total, "carry": [carry]}
    out = _eval(build, [("a", W), ("b", W)],
                [{"a": a, "b": b} for a, b in pairs])
    for k, (a, b) in enumerate(pairs):
        assert out["sum"][k] == (a + b) & 0xFF
        assert out["carry"][k] == (a + b) >> 8


@given(st.lists(st.tuples(word8, word8), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_subtractor(pairs):
    def build(nl, words):
        diff, no_borrow = bd.subtractor(nl, words["a"], words["b"])
        return {"diff": diff, "nb": [no_borrow]}
    out = _eval(build, [("a", W), ("b", W)],
                [{"a": a, "b": b} for a, b in pairs])
    for k, (a, b) in enumerate(pairs):
        assert out["diff"][k] == (a - b) & 0xFF
        assert out["nb"][k] == (1 if a >= b else 0)


@given(st.lists(st.tuples(word8, word8), min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_array_multiplier(pairs):
    def build(nl, words):
        return {"p": bd.array_multiplier(nl, words["a"], words["b"])}
    out = _eval(build, [("a", W), ("b", W)],
                [{"a": a, "b": b} for a, b in pairs])
    for k, (a, b) in enumerate(pairs):
        assert out["p"][k] == (a * b) & 0xFF


@given(st.lists(st.tuples(word8, st.integers(0, 15)), min_size=1,
                max_size=8))
@settings(max_examples=40, deadline=None)
def test_barrel_shifter_left_and_right(cases):
    def build(nl, words):
        return {
            "shl": bd.barrel_shifter(nl, words["a"], words["s"]),
            "shr": bd.barrel_shifter(nl, words["a"], words["s"], right=True),
        }
    out = _eval(build, [("a", W), ("s", 4)],
                [{"a": a, "s": s} for a, s in cases])
    for k, (a, s) in enumerate(cases):
        expected_l = (a << s) & 0xFF if s < 8 else 0
        expected_r = a >> s if s < 8 else 0
        assert out["shl"][k] == expected_l
        assert out["shr"][k] == expected_r


def test_barrel_shifter_arithmetic_right():
    def build(nl, words):
        return {"sar": bd.barrel_shifter(nl, words["a"], words["s"],
                                         right=True, arithmetic=True)}
    cases = [{"a": 0x80, "s": 3}, {"a": 0x40, "s": 3}, {"a": 0xFF, "s": 8}]
    out = _eval(build, [("a", W), ("s", 4)], cases)
    assert out["sar"][0] == 0xF0
    assert out["sar"][1] == 0x08
    assert out["sar"][2] == 0xFF  # overflow fills with sign


@given(word8, word8)
@settings(max_examples=40, deadline=None)
def test_comparators(a, b):
    def build(nl, words):
        def signed(v):
            return v - 256 if v >= 128 else v
        return {
            "eq": [bd.equal_words(nl, words["a"], words["b"])],
            "ltu": [bd.less_than_unsigned(nl, words["a"], words["b"])],
            "lts": [bd.less_than_signed(nl, words["a"], words["b"])],
        }
    out = _eval(build, [("a", W), ("b", W)], [{"a": a, "b": b}])
    signed = lambda v: v - 256 if v >= 128 else v
    assert out["eq"][0] == int(a == b)
    assert out["ltu"][0] == int(a < b)
    assert out["lts"][0] == int(signed(a) < signed(b))


@given(word8, st.integers(0, 255))
@settings(max_examples=30, deadline=None)
def test_equality_comparator_constant(a, const):
    def build(nl, words):
        return {"eq": [bd.equality_comparator(nl, words["a"], const)]}
    out = _eval(build, [("a", W)], [{"a": a}])
    assert out["eq"][0] == int(a == const)


def test_one_hot_decoder():
    def build(nl, words):
        return {"hot": bd.one_hot_decoder(nl, words["a"])}
    out = _eval(build, [("a", 3)], [{"a": v} for v in range(8)])
    for v in range(8):
        assert out["hot"][v] == 1 << v


def test_rom_contents():
    contents = [0xAB, 0x00, 0xFF, 0x5A]
    def build(nl, words):
        return {"data": bd.rom(nl, words["addr"], contents, 8)}
    out = _eval(build, [("addr", 2)], [{"addr": v} for v in range(4)])
    assert out["data"] == contents


def test_mux_tree_selects():
    def build(nl, words):
        values = [bd.constant_word(v, 8) for v in (11, 22, 33, 44, 55)]
        return {"out": bd.mux_tree(nl, values, words["sel"])}
    out = _eval(build, [("sel", 3)], [{"sel": v} for v in range(8)])
    assert out["out"][:5] == [11, 22, 33, 44, 55]
    # Out-of-range selections collapse to zero words padded by the tree.
    assert out["out"][5] == 0


def test_reduce_trees():
    def build(nl, words):
        bits = words["a"]
        return {
            "and": [bd.and_reduce(nl, bits)],
            "or": [bd.or_reduce(nl, bits)],
            "xor": [bd.xor_reduce(nl, bits)],
        }
    cases = [{"a": v} for v in (0x00, 0xFF, 0x01, 0xFE, 0xAA)]
    out = _eval(build, [("a", W)], cases)
    for k, case in enumerate(cases):
        v = case["a"]
        assert out["and"][k] == int(v == 0xFF)
        assert out["or"][k] == int(v != 0)
        assert out["xor"][k] == bin(v).count("1") % 2


def test_empty_reduce_defaults():
    nl = Netlist("t")
    assert bd.and_reduce(nl, []) == 1
    assert bd.or_reduce(nl, []) == 0
    assert bd.xor_reduce(nl, []) == 0
