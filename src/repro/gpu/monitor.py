"""Hardware tracing monitor.

The paper incorporates one hardware monitor in one SM "without any effect on
the functional operation of the PTP"; it captures instruction opcodes from
the fetch stage and generates the tracing report (Section III stage 2).
:class:`Monitor` is that component: the SM calls it at decode and at every
execute beat, and it fans the events out to the trace-record list and to the
registered per-module stimulus collectors.
"""

from __future__ import annotations

from .trace import TraceRecord


class Monitor:
    """Collects trace records and per-module stimuli during a kernel run."""

    def __init__(self, collectors=()):
        self.trace = []
        self.collectors = list(collectors)

    def on_decode(self, cc, block, warp, pc, instr):
        for collector in self.collectors:
            collector.on_decode(cc, block, warp, pc, instr)

    def on_execute_beat(self, cc, block, warp, lane, pc, instr, operands,
                        thread):
        for collector in self.collectors:
            collector.on_execute_beat(cc, block, warp, lane, pc, instr,
                                      operands, thread)

    def on_instruction_done(self, block, warp, pc, instr, decode_cc,
                            exec_start_cc, exec_end_cc, active_mask,
                            exec_mask):
        self.trace.append(TraceRecord(
            block=block, warp=warp, pc=pc, mnemonic=instr.op.value,
            decode_cc=decode_cc, exec_start_cc=exec_start_cc,
            exec_end_cc=exec_end_cc, active_mask=active_mask,
            exec_mask=exec_mask))

    def finish(self):
        """Sort collector streams; returns {module_name: [StimulusRecord]}."""
        return {collector.module_name: collector.finish()
                for collector in self.collectors}
