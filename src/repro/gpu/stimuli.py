"""Per-module test-pattern (stimulus) extraction.

The paper's gate-level logic simulation observes the I/O switching activity
at the inputs of the target module and emits the per-clock-cycle sequence of
test patterns the PTP implicitly applies to it (Section III stage 2, VCDE
format).  The cycle-level simulator reproduces this through
:class:`StimulusCollector` subclasses — one per fault-targeted module — that
translate architectural events into netlist port assignments:

* Decoder Unit: the fetched 64-bit instruction word, at the decode cycle;
* SP core: (micro-op, cmp, a, b, c) per lane beat, at the execute cycles;
* SFU: (func, x) per lane beat for transcendental instructions.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa import encoding
from ..isa.opcodes import Op, Unit
from ..netlist.modules.sfu import FUNC_CODES
from ..netlist.modules.sp_core import ISA_TO_SPOP, SPOp


@dataclass(frozen=True)
class StimulusRecord:
    """One test pattern applied to a target module.

    Attributes:
        cc: clock cycle at which the pattern reaches the module inputs.
        block / warp / lane: originating block, warp, and hardware lane
            (lane is 0 for whole-warp modules like the DU).
        pc: program counter of the causing instruction (kept for report
            validation; the labeling stage joins on ``cc``, not on ``pc``).
        thread: originating thread id within the block (-1 for whole-warp
            modules like the DU); the signature-per-thread FC evaluation
            groups patterns by this field.
        values: port name -> integer value (matching the module's
            ``input_words``).
    """

    cc: int
    block: int
    warp: int
    lane: int
    pc: int
    values: tuple  # sorted tuple of (port, value) pairs; hashable
    thread: int = -1

    @property
    def value_dict(self):
        return dict(self.values)


def _record(cc, block, warp, lane, pc, values, thread=-1):
    return StimulusRecord(cc, block, warp, lane, pc,
                          tuple(sorted(values.items())), thread)


class StimulusCollector:
    """Base class: collects the pattern stream for one target module."""

    #: name matching the HardwareModule this collector feeds.
    module_name = None

    def __init__(self):
        self.records = []

    def on_decode(self, cc, block, warp, pc, instr):
        """Called once per instruction decode."""

    def on_execute_beat(self, cc, block, warp, lane, pc, instr, operands,
                        thread):
        """Called once per executing thread beat.

        *operands* is the (a, b, c) tuple of resolved 32-bit source values
        for the thread on *lane* (immediates already substituted); *thread*
        is the thread id within the block.
        """

    def sort_key(self, record):
        return (record.cc, record.warp, record.lane)

    def finish(self):
        """Stable-sort records into application (cc) order."""
        self.records.sort(key=self.sort_key)
        return self.records


class DecoderUnitCollector(StimulusCollector):
    """Captures the 64-bit instruction word at each decode cycle."""

    module_name = "decoder_unit"

    def on_decode(self, cc, block, warp, pc, instr):
        word = encoding.encode(instr)
        self.records.append(_record(cc, block, warp, 0, pc,
                                    {"instr": word}))


class SpCoreCollector(StimulusCollector):
    """Captures (op, cmp, a, b, c) patterns entering one SP core lane.

    The SP netlist is *width* bits wide; operands are truncated to the
    datapath width exactly as the synthesized module would see them.
    """

    module_name = "sp_core"

    def __init__(self, width):
        super().__init__()
        self.width = width
        self.mask = (1 << width) - 1

    def on_execute_beat(self, cc, block, warp, lane, pc, instr, operands,
                        thread):
        if instr.unit is not Unit.SP:
            return
        spop = ISA_TO_SPOP.get(instr.op, SPOp.PASS)
        a, b, c = operands
        if instr.op is Op.MOV32I:
            a = b  # PASS forwards port a; MOV32I's value arrives as b
        self.records.append(_record(cc, block, warp, lane, pc, {
            "op": spop.value,
            "cmp": instr.cmp.value,
            "a": a & self.mask,
            "b": b & self.mask,
            "c": c & self.mask,
        }, thread))


class SfuCollector(StimulusCollector):
    """Captures (func, x) patterns entering the SFUs."""

    module_name = "sfu"

    _FUNC_BY_OP = {
        Op.RCP: FUNC_CODES["RCP"], Op.RSQ: FUNC_CODES["RSQ"],
        Op.SIN: FUNC_CODES["SIN"], Op.COS: FUNC_CODES["COS"],
        Op.LG2: FUNC_CODES["LG2"], Op.EX2: FUNC_CODES["EX2"],
    }

    def __init__(self, width):
        super().__init__()
        self.width = width
        self.mask = (1 << width) - 1

    def on_execute_beat(self, cc, block, warp, lane, pc, instr, operands,
                        thread):
        func = self._FUNC_BY_OP.get(instr.op)
        if func is None:
            return
        a, __, __ = operands
        self.records.append(_record(cc, block, warp, lane, pc, {
            "func": func,
            "x": a & self.mask,
        }, thread))
