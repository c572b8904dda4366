"""Gate-level module generators for the fault-targeted GPU units.

Each generator plays the role of the synthesis step in the paper's flow
(FlexGripPlus units synthesized on the Nangate 15nm library): it produces a
:class:`HardwareModule` — a finalized combinational netlist with named input
and output words — for one of the three target modules:

* :func:`~repro.netlist.modules.decoder_unit.build_decoder_unit` — the
  Decoder Unit (DU), consuming 64-bit instruction words;
* :func:`~repro.netlist.modules.sp_core.build_sp_core` — one SP core's
  integer datapath;
* :func:`~repro.netlist.modules.sfu.build_sfu` — the Special Function Unit's
  segmented-polynomial datapath.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...errors import NetlistError
from ..netlist import Netlist
from ..simulator import LogicSimulator, PatternSet


@dataclass
class HardwareModule:
    """A synthesized target module: netlist + named port words.

    Attributes:
        name: module name ("decoder_unit", "sp_core", "sfu").
        netlist: the finalized :class:`~repro.netlist.netlist.Netlist`.
        input_words: port name -> list of input net indices (LSB first).
        output_words: port name -> list of output net indices (LSB first).
        params: generator parameters (e.g. datapath width).
    """

    name: str
    netlist: Netlist
    input_words: dict
    output_words: dict
    params: dict = field(default_factory=dict)

    def pattern_set(self, patterns):
        """Pack per-pattern port values into a
        :class:`~repro.netlist.simulator.PatternSet`.

        The patterns are transposed into one column of values per port and
        packed at once by
        :meth:`~repro.netlist.simulator.PatternSet.from_columns`.

        Args:
            patterns: one sequence of ``(port, value)`` pairs per pattern,
                in application order; a port a pattern does not list is 0
                in that pattern.

        Raises:
            NetlistError: a port is unknown or listed twice in one
                pattern, or a value is negative or does not fit its port.
        """
        count = len(patterns)
        columns = {}
        for k, pairs in enumerate(patterns):
            if len({port for port, __ in pairs}) != len(pairs):
                raise NetlistError(
                    "a port is assigned twice in pattern {}".format(k))
            for port, value in pairs:
                column = columns.get(port)
                if column is None:
                    if port not in self.input_words:
                        raise NetlistError("{!r} has no input port {!r}"
                                           .format(self.name, port))
                    column = columns[port] = [0] * count
                column[k] = value
        return PatternSet.from_columns(
            self.netlist,
            [(self.input_words[port], column)
             for port, column in columns.items()],
            count)

    def simulate(self, patterns):
        """Fault-free simulation; returns port name -> list of values."""
        return LogicSimulator(self.netlist).run_words(patterns,
                                                      self.output_words)

from .decoder_unit import build_decoder_unit  # noqa: E402
from .sfu import build_sfu  # noqa: E402
from .sp_core import SPOp, build_sp_core  # noqa: E402

__all__ = ["HardwareModule", "build_decoder_unit", "build_sp_core",
           "build_sfu", "SPOp"]
