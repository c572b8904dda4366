"""Bit-parallel logic simulation over gate-level netlists.

Patterns are packed into arbitrary-precision Python integers: the value of a
net is an int whose bit ``k`` is the net's logic level under pattern ``k``.
One bitwise operation per gate simulates the entire pattern set, which makes
whole-program gate-level simulation tractable in pure Python.

Packing goes through numpy bit rows: :meth:`PatternSet.from_columns`
packs each input's column of pattern bits with ``np.packbits`` and reads
it back with ``int.from_bytes``, and :meth:`PatternSet.subset` unpacks
every input into a bit row, gathers the kept columns and packs them again.
Both are linear in the number of patterns.  A :class:`PatternSet` never
changes after it is built, so its identity is a sound memo key for
anything derived from it (good-machine values).
"""

from __future__ import annotations

from types import MappingProxyType

import numpy as np

from ..errors import NetlistError
from .gates import evaluate
from .netlist import CONST0, CONST1


def iter_set_bits(word):
    """Yield the set-bit indices of *word*, ascending.

    The canonical ``word & -word`` lowest-set-bit walk — every consumer of
    packed pattern/detection words iterates through this one helper, so
    pattern indices are derived identically everywhere.

    Raises:
        ValueError: *word* is negative.  A Python int's two's-complement
        view of a negative number has infinitely many set bits, so the
        walk would never terminate — fail loudly instead.
    """
    if word < 0:
        raise ValueError(
            "iter_set_bits requires a non-negative word, got {}"
            .format(word))
    while word:
        low = word & -word
        yield low.bit_length() - 1
        word ^= low


_LIMB_MASK = (1 << 64) - 1


def _pack_row(bits):
    """Packed int of a row of 0/1 pattern bits (bit ``k`` = ``bits[k]``)."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(),
                          "little")


class PatternSet:
    """An immutable set of input assignments for a netlist.

    Stores, for each primary input net, a packed integer whose bit ``k`` is
    the input's value in pattern ``k``.  Sets are built whole, by
    :meth:`from_columns` or :meth:`subset`/:meth:`reversed`; assigning an
    attribute or an entry of :attr:`packed` raises.

    Args:
        netlist: the netlist the patterns drive.
        count: number of patterns.
        packed: ``{input net: packed int}`` for every primary input (the
            builders' result, taken as is); None gives *count* all-zero
            patterns.

    Attributes:
        packed: read-only ``{input net: packed int}`` view.
    """

    def __init__(self, netlist, count=0, packed=None):
        netlist.finalize()
        if packed is None:
            packed = dict.fromkeys(netlist.inputs, 0)
        object.__setattr__(self, "netlist", netlist)
        object.__setattr__(self, "count", count)
        object.__setattr__(self, "packed", MappingProxyType(packed))

    def __setattr__(self, name, value):
        raise AttributeError("a PatternSet is immutable")

    def __delattr__(self, name):
        raise AttributeError("a PatternSet is immutable")

    @classmethod
    def from_columns(cls, netlist, columns, count):
        """Build a set of *count* patterns column by column, in one pass.

        Pattern ``k`` applies ``values[k]`` to each word, LSB first.

        Args:
            netlist: the netlist the patterns drive.
            columns: iterable of ``(word, values)`` pairs: *word* is a list
                of input net indices (LSB first), *values* the *count*
                integers it takes, one per pattern.  Inputs no word names
                are 0 in every pattern.
            count: number of patterns.

        Raises:
            NetlistError: a word names a net that is not a primary input,
                two words share a net, a column does not hold *count*
                values, or a value is negative or has set bits at
                positions >= ``len(word)``.
        """
        netlist.finalize()
        packed = dict.fromkeys(netlist.inputs, 0)
        assigned = set()
        for word, values in columns:
            for net in word:
                if net not in packed:
                    raise NetlistError(
                        "net {} is not a primary input".format(net))
                if net in assigned:
                    raise NetlistError(
                        "net {} is assigned by more than one word in the "
                        "same pattern".format(net))
                assigned.add(net)
            if len(values) != count:
                raise NetlistError(
                    "column of {} value(s) for {} pattern(s)".format(
                        len(values), count))
            if not count:
                continue
            low, high = min(values), max(values)
            if low < 0:
                raise NetlistError("word value {} is negative".format(low))
            if high >> len(word):
                raise NetlistError(
                    "word value {:#x} does not fit the {}-net word (extra "
                    "high bits would be dropped)".format(high, len(word)))
            for base in range(0, len(word), 64):
                nets = word[base:base + 64]
                limb = values if len(word) <= 64 else [
                    (value >> base) & _LIMB_MASK for value in values]
                # Row k of `bits` holds value k's 64 bits, LSB first; its
                # transpose holds one row of pattern bits per net.
                bits = np.unpackbits(
                    np.array(limb, dtype="<u8").view(np.uint8).reshape(
                        count, 8), axis=1, bitorder="little")
                rows = np.packbits(bits[:, :len(nets)].T, axis=1,
                                   bitorder="little")
                for net, row in zip(nets, rows):
                    packed[net] = int.from_bytes(row.tobytes(), "little")
        return cls(netlist, count, packed)

    @property
    def mask(self):
        """Integer with one bit set per pattern."""
        return (1 << self.count) - 1

    def value_of(self, net, pattern_index):
        """Value of input *net* under pattern *pattern_index*.

        Raises:
            IndexError: *pattern_index* is negative or >= :attr:`count`
                (a silent 0 here would let stale indices from a reduced
                PTP masquerade as real all-zero patterns).
        """
        if not 0 <= pattern_index < self.count:
            raise IndexError(
                "pattern index {} out of range for {} pattern(s)".format(
                    pattern_index, self.count))
        return (self.packed[net] >> pattern_index) & 1

    def subset(self, indices):
        """New :class:`PatternSet` containing only *indices*, in order.

        Raises:
            IndexError: any index is negative or >= :attr:`count`.
        """
        indices = list(indices)
        if not indices:
            return PatternSet(self.netlist)
        low, high = min(indices), max(indices)
        if low < 0 or high >= self.count:
            bad = low if low < 0 else high
            raise IndexError(
                "pattern index {} out of range for {} pattern(s)".format(
                    bad, self.count))
        # One bit row per input (unpack), the kept columns in order with
        # duplicates (gather), one packed int per row again (pack).
        nets = list(self.packed)
        num_bytes = (self.count + 7) // 8
        mask = self.mask
        raw = b"".join((self.packed[net] & mask).to_bytes(num_bytes, "little")
                       for net in nets)
        rows = np.unpackbits(
            np.frombuffer(raw, dtype=np.uint8).reshape(len(nets), num_bytes),
            axis=1, count=self.count, bitorder="little")
        kept = rows[:, np.array(indices, dtype=np.intp)]
        return PatternSet(self.netlist, len(indices),
                          {net: _pack_row(row)
                           for net, row in zip(nets, kept)})

    def reversed(self):
        """New :class:`PatternSet` with the pattern order reversed."""
        return self.subset(list(range(self.count - 1, -1, -1)))


class LogicSimulator:
    """Levelized bit-parallel simulator for a finalized netlist."""

    def __init__(self, netlist):
        netlist.finalize()
        self.netlist = netlist

    def run(self, patterns):
        """Simulate the fault-free netlist over *patterns*.

        Returns:
            A dict net index -> packed value covering constants, inputs, and
            every gate output.
        """
        if patterns.netlist is not self.netlist:
            raise NetlistError("pattern set belongs to a different netlist")
        mask = patterns.mask
        values = {CONST0: 0, CONST1: mask}
        values.update(patterns.packed)
        for gate in self.netlist.levelized_gates:
            ins = tuple(values[n] for n in gate.inputs)
            values[gate.output] = evaluate(gate.gate_type, ins, mask)
        return values

    def run_words(self, patterns, output_words):
        """Simulate and return word-level outputs.

        Args:
            patterns: a :class:`PatternSet`.
            output_words: dict name -> list of net indices (LSB first).

        Returns:
            dict name -> list of integer values, one per pattern.
        """
        values = self.run(patterns)
        mask = patterns.mask
        results = {}
        for name, word in output_words.items():
            # Transpose packed net words into per-pattern values by walking
            # each net's set bits once — O(patterns + set bits) instead of
            # the per-(pattern, bit) probe loop.
            per_pattern = [0] * patterns.count
            for i, net in enumerate(word):
                bit = 1 << i
                for k in iter_set_bits(values[net] & mask):
                    per_pattern[k] |= bit
            results[name] = per_pattern
        return results
