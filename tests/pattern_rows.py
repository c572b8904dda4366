"""Test pattern sets from per-pattern rows, and a per-pattern reference
packer for the column-wise builders."""

from repro.errors import NetlistError
from repro.netlist.simulator import PatternSet


def pattern_set(netlist, rows):
    """:class:`PatternSet` with one pattern per row, in order; an input a
    row does not list is 0 in that pattern."""
    rows = list(rows)
    nets = dict.fromkeys(net for row in rows for net in row)
    return PatternSet.from_columns(
        netlist, [([net], [row.get(net, 0) for row in rows]) for net in nets],
        len(rows))


def add_words(packed, k, word_values):
    """Per-pattern reference packer: OR pattern *k*'s ``(word, value)``
    pairs into *packed* (``{input net: packed int}``), each value LSB
    first onto its word's nets.

    Raises:
        NetlistError: a value is negative or does not fit its word, a net
            is not a key of *packed*, or two words share a net.
    """
    assigned = set()
    for word, value in word_values:
        if value < 0 or value >> len(word):
            raise NetlistError("word value {} does not fit".format(value))
        for i, net in enumerate(word):
            if net not in packed or net in assigned:
                raise NetlistError("net {} cannot be assigned".format(net))
            assigned.add(net)
            packed[net] |= ((value >> i) & 1) << k
