"""Stage 2 — logic tracing.

"The logic tracing stage performs two logic simulations (one RTL and one
GL) with the PTPs in the microarchitectural description of the GPU":

* the RTL simulation, with the embedded hardware monitor, yields the
  *tracing report* (per-cc decoded instruction / PC / warp / cc);
* the GL simulation yields the *test pattern report* (per-cc module input
  patterns, VCDE).

Our cycle-level model produces both artifacts from one kernel execution —
the two paper simulations observe the same run at different abstraction
levels — exposed here as one :func:`run_logic_tracing` call returning both
reports plus the kernel duration.  :func:`trace_and_pack` adds the packed
pattern set; every fault simulation of a PTP reads its result.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import CompactionError
from ..exec.cache import cached_logic_tracing
from ..gpu.gpu import Gpu
from ..gpu.stimuli import DecoderUnitCollector, SfuCollector, SpCoreCollector
from .patterns import PatternReport


@dataclass
class TracingResult:
    """Artifacts of the logic-tracing stage for one PTP.

    Attributes:
        trace: list of :class:`~repro.gpu.trace.TraceRecord` (the tracing
            report).
        pattern_report: the per-module :class:`PatternReport` (the VCDE
            test-pattern report).
        cycles: kernel duration in clock cycles (Table I 'Duration').
        instructions: dynamically executed instruction count.
    """

    trace: list
    pattern_report: object
    cycles: int
    instructions: int


def collector_for(module):
    """StimulusCollector matching a target :class:`HardwareModule`."""
    if module.name == "decoder_unit":
        return DecoderUnitCollector()
    if module.name == "sp_core":
        return SpCoreCollector(module.params["width"])
    if module.name == "sfu":
        return SfuCollector(module.params["width"])
    raise CompactionError("no collector for module {!r}".format(module.name))


def run_logic_tracing(ptp, module, gpu=None):
    """Run stage 2 for *ptp* against target *module*.

    Returns a :class:`TracingResult`.
    """
    if module.name != ptp.target:
        raise CompactionError(
            "PTP {!r} targets {!r}, but module is {!r}".format(
                ptp.name, ptp.target, module.name))
    gpu = gpu or Gpu()
    collector = collector_for(module)
    result = gpu.run_kernel(ptp.program, ptp.kernel, collectors=[collector],
                            global_image=ptp.global_image)
    report = PatternReport(module, result.stimuli[module.name])
    return TracingResult(
        trace=result.trace,
        pattern_report=report,
        cycles=result.cycles,
        instructions=result.instructions,
    )


@dataclass(frozen=True)
class TracedPtp:
    """A PTP's stage-2 artifacts, as its fault simulations apply them.

    Attributes:
        ptp: the traced PTP.
        tracing: its :class:`TracingResult`.
        report: the applied :class:`PatternReport` (reversed under
            ``reverse_patterns``).
        patterns: *report* packed into a
            :class:`~repro.netlist.simulator.PatternSet`.
    """

    ptp: object
    tracing: TracingResult
    report: object
    patterns: object


def trace_and_pack(ptp, module, gpu=None, cache=None,
                   reverse_patterns=False):
    """Stage 2 for *ptp*: its logic tracing (through the artifact *cache*
    when one is given), the applied pattern report and its pattern set.

    Returns a :class:`TracedPtp`.
    """
    tracing = cached_logic_tracing(ptp, module, gpu, cache)
    report = tracing.pattern_report
    if reverse_patterns:
        report = report.reversed()
    return TracedPtp(ptp, tracing, report, report.to_pattern_set())
