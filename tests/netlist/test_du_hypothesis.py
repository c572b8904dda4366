"""Property test: the DU netlist equals its reference on arbitrary words.

Feeds fully random 64-bit words — including illegal opcodes and garbage
field combinations — through the synthesized Decoder Unit and the
pure-Python reference decoder.
"""

from hypothesis import given, settings, strategies as st

from repro.netlist.modules.decoder_unit import reference_decode


@given(st.lists(st.integers(0, (1 << 64) - 1), min_size=1, max_size=24))
@settings(max_examples=30, deadline=None)
def test_du_matches_reference_on_random_words(du_module, words):
    patterns = du_module.pattern_set([[("instr", word)] for word in words])
    out = du_module.simulate(patterns)
    for k, word in enumerate(words):
        ref = reference_decode(word)
        for port, expected in ref.items():
            assert out[port][k] == expected, (hex(word), port)
