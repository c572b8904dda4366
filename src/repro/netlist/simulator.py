"""Bit-parallel logic simulation over gate-level netlists.

Patterns are packed into arbitrary-precision Python integers: the value of a
net is an int whose bit ``k`` is the net's logic level under pattern ``k``.
One bitwise operation per gate simulates the entire pattern set, which makes
whole-program gate-level simulation tractable in pure Python.
"""

from __future__ import annotations

from ..errors import NetlistError
from .gates import evaluate
from .netlist import CONST0, CONST1


def iter_set_bits(word):
    """Yield the set-bit indices of *word*, ascending.

    The canonical ``word & -word`` lowest-set-bit walk — every consumer of
    packed pattern/detection words iterates through this one helper, so
    pattern indices are derived identically everywhere (the fault layer
    re-exports it as ``repro.faults.fault_sim.iter_set_bits``).

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


class PatternSet:
    """A set of input assignments for a netlist.

    Stores, for each primary input net, a packed integer whose bit ``k`` is
    the input's value in pattern ``k``.

    Attributes:
        version: mutation counter, bumped by every :meth:`add` (and hence
            :meth:`add_words`).  Consumers that memoize derived state on a
            pattern set's identity (good-machine values, pooled-worker
            priming) key on ``(id, version)`` so a
            set mutated after being cached is re-derived instead of
            silently served stale.
    """

    def __init__(self, netlist, count=0):
        netlist.finalize()
        self.netlist = netlist
        self.count = count
        self.version = 0
        self.packed = {net: 0 for net in netlist.inputs}

    @property
    def mask(self):
        """Integer with one bit set per pattern."""
        return (1 << self.count) - 1

    def add(self, assignment):
        """Append one pattern.

        Args:
            assignment: dict mapping input net index -> 0/1.  Missing inputs
                default to 0.

        Returns:
            The index of the added pattern.
        """
        index = self.count
        for net, value in assignment.items():
            if net not in self.packed:
                raise NetlistError("net {} is not a primary input".format(net))
            if value:
                self.packed[net] |= 1 << index
        self.count += 1
        self.version += 1
        return index

    def add_words(self, word_values):
        """Append one pattern given word-level values.

        Args:
            word_values: iterable of ``(word, value)`` pairs where *word* is a
                list of input net indices (LSB first) and *value* the integer
                to apply.

        Raises:
            NetlistError: *value* has set bits at positions >= ``len(word)``
                (those bits have no net to land on and were previously
                discarded silently), *value* is negative, or two words in
                the same call assign the same net (the later word silently
                overwrote the earlier one's bit).
        """
        assignment = {}
        for word, value in word_values:
            if value < 0:
                raise NetlistError(
                    "word value {} is negative".format(value))
            if value >> len(word):
                raise NetlistError(
                    "word value {:#x} does not fit the {}-net word (extra "
                    "high bits would be dropped)".format(value, len(word)))
            for i, net in enumerate(word):
                if net in assignment:
                    raise NetlistError(
                        "net {} is assigned by more than one word in the "
                        "same pattern".format(net))
                assignment[net] = (value >> i) & 1
        return self.add(assignment)

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
        for index in indices:
            if not 0 <= index < self.count:
                raise IndexError(
                    "pattern index {} out of range for {} pattern(s)".format(
                        index, self.count))
        # old index -> new bit positions (duplicates allowed), built once so
        # each net repacks in O(set bits) instead of O(len(indices)).
        positions = {}
        for new_index, old_index in enumerate(indices):
            positions.setdefault(old_index, []).append(new_index)
        out = PatternSet(self.netlist)
        mask = self.mask
        for net, packed in self.packed.items():
            repacked = 0
            for old_index in iter_set_bits(packed & mask):
                for new_index in positions.get(old_index, ()):
                    repacked |= 1 << new_index
            out.packed[net] = repacked
        out.count = len(indices)
        return out

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
