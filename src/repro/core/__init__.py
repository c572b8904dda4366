"""The paper's contribution: the five-stage STL compaction method.

* Stage 1 — :func:`~repro.core.partition.partition_ptp` (BBs, CFG, ARCs);
* Stage 2 — :func:`~repro.core.tracing.run_logic_tracing` (tracing report +
  VCDE pattern report) and :func:`~repro.core.tracing.trace_and_pack`
  (plus the packed pattern set every fault simulation reads);
* Stage 3 — one :class:`~repro.faults.fault_sim.FaultSimulator` run +
  :func:`~repro.core.labeling.label_instructions` (Fig. 2);
* Stage 4 — :func:`~repro.core.reduction.reduce_ptp` (Fig. 3);
* Stage 5 — :func:`~repro.core.fc_eval.evaluate_fc` and STL reassembly.

:class:`~repro.core.pipeline.CompactionPipeline` drives all five stages with
cross-PTP fault dropping; :class:`~repro.core.campaign.CompactionCampaign`
wraps it into a resilient multi-PTP campaign (failure isolation, watchdog
budgets, FC-regression guard, checkpoint/resume).
"""

from .campaign import CampaignReport, CompactionCampaign, PtpRecord, Watchdog, run_stl_campaign
from .cfg import BasicBlock, ControlFlowGraph, build_cfg, find_loops
from .checkpoint import CampaignCheckpoint
from .fc_eval import FcEvaluation, combined_fc, evaluate_fc
from .labeling import ESSENTIAL, UNESSENTIAL, LabeledPtp, label_instructions
from .partition import PartitionResult, partition_ptp
from .patterns import PatternReport, parse_pattern_report, write_pattern_report
from .pipeline import CompactionOutcome, CompactionPipeline
from .reduction import ReductionResult, SmallBlock, reduce_ptp, segment_small_blocks
from .reports import (
    parse_fault_sim_report,
    parse_labeled_ptp,
    write_campaign_summary,
    write_compaction_summary,
    write_fault_sim_report,
    write_labeled_ptp,
)
from .tracing import TracedPtp, TracingResult, collector_for, run_logic_tracing, trace_and_pack

__all__ = [
    "partition_ptp", "PartitionResult", "build_cfg", "find_loops",
    "BasicBlock", "ControlFlowGraph",
    "run_logic_tracing", "TracingResult", "collector_for",
    "trace_and_pack", "TracedPtp",
    "PatternReport", "write_pattern_report", "parse_pattern_report",
    "label_instructions", "LabeledPtp", "ESSENTIAL", "UNESSENTIAL",
    "reduce_ptp", "segment_small_blocks", "ReductionResult", "SmallBlock",
    "evaluate_fc", "combined_fc", "FcEvaluation",
    "CompactionPipeline", "CompactionOutcome",
    "CompactionCampaign", "CampaignReport", "PtpRecord", "Watchdog",
    "run_stl_campaign", "CampaignCheckpoint",
    "write_fault_sim_report", "parse_fault_sim_report",
    "write_labeled_ptp", "parse_labeled_ptp",
    "write_compaction_summary", "write_campaign_summary",
]
