"""Shared experiment driver used by the benchmarks and ``repro tables``.

Builds the three target modules, generates the six-PTP STL of Table I, and
runs ONE :func:`~repro.core.campaign.run_stl_campaign` over it with the
paper's ordering (fault dropping IMM -> MEM -> CNTRL on the DU; TPGEN ->
RAND on the SP cores; SFU_IMM with reversed patterns on the SFU).  Tables
I-III and the whole-STL aggregate all read that campaign's outcomes: Table
I's durations and FCs are the stage-5 evaluations of the original PTPs and
the combined FCs are unions of the stage-5 detected sets, so no PTP is
fault-simulated twice.

Scale is controlled by an :class:`ExperimentScale`; ``SMOKE`` keeps unit
tests fast, ``DEFAULT`` is the benchmark configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.campaign import run_stl_campaign
from ..core.fc_eval import combined_fc
from ..gpu.gpu import Gpu
from ..netlist.modules import build_decoder_unit, build_sfu, build_sp_core
from ..stl.generators import (
    generate_cntrl,
    generate_imm,
    generate_mem,
    generate_rand,
    generate_sfu_imm,
    generate_tpgen,
)
from ..stl.ptp import SelfTestLibrary
from .tables import combined_outcome_row


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs for one experiment campaign."""

    datapath_width: int = 16
    imm_sbs: int = 125
    mem_sbs: int = 120
    cntrl_sbs: int = 18
    rand_sbs: int = 220
    tpgen_random_patterns: int = 512
    tpgen_max_backtracks: int = 20
    tpgen_podem_fault_limit: int = 150
    sfu_random_patterns: int = 192
    sfu_max_backtracks: int = 10
    sfu_podem_fault_limit: int = 100
    seed: int = 2022


#: Benchmark-scale configuration (minutes, not hours).
DEFAULT = ExperimentScale()

#: Unit/integration-test configuration (seconds).
SMOKE = ExperimentScale(datapath_width=8, imm_sbs=16, mem_sbs=14,
                        cntrl_sbs=6, rand_sbs=16, tpgen_random_patterns=48,
                        tpgen_max_backtracks=5, tpgen_podem_fault_limit=30,
                        sfu_random_patterns=32, sfu_max_backtracks=3,
                        sfu_podem_fault_limit=20)

#: Combined rows of Tables I-III and the PTPs each one unites.
COMBINED_ROWS = {"IMM+MEM+CNTRL": ("IMM", "MEM", "CNTRL"),
                 "TPGEN+RAND": ("TPGEN", "RAND")}


class Experiment:
    """Lazily-built modules, STL, and campaign results for one scale."""

    def __init__(self, scale=DEFAULT):
        self.scale = scale
        self.gpu = Gpu()
        self._modules = None
        self._stl = None
        self._atpg = {}
        self._campaign = None

    @property
    def modules(self):
        """{'decoder_unit': ..., 'sp_core': ..., 'sfu': ...}"""
        if self._modules is None:
            width = self.scale.datapath_width
            self._modules = {
                "decoder_unit": build_decoder_unit(),
                "sp_core": build_sp_core(width),
                "sfu": build_sfu(width),
            }
        return self._modules

    @property
    def stl(self):
        """The six-PTP STL (Table I order)."""
        if self._stl is None:
            scale = self.scale
            seed = scale.seed
            tpgen, tpgen_atpg = generate_tpgen(
                self.modules["sp_core"], seed=seed,
                atpg_random_patterns=scale.tpgen_random_patterns,
                atpg_max_backtracks=scale.tpgen_max_backtracks,
                atpg_podem_fault_limit=scale.tpgen_podem_fault_limit)
            sfu_imm, sfu_atpg = generate_sfu_imm(
                self.modules["sfu"], seed=seed,
                atpg_random_patterns=scale.sfu_random_patterns,
                atpg_max_backtracks=scale.sfu_max_backtracks,
                atpg_podem_fault_limit=scale.sfu_podem_fault_limit)
            self._atpg = {"TPGEN": tpgen_atpg, "SFU_IMM": sfu_atpg}
            self._stl = SelfTestLibrary([
                generate_imm(seed=seed, num_sbs=scale.imm_sbs),
                generate_mem(seed=seed, num_sbs=scale.mem_sbs),
                generate_cntrl(seed=seed, num_sbs=scale.cntrl_sbs),
                tpgen,
                generate_rand(seed=seed, num_sbs=scale.rand_sbs),
                sfu_imm,
            ])
        return self._stl

    @property
    def campaign(self):
        """Per-module :class:`~repro.core.campaign.CampaignReport` list of
        the one STL campaign, run on first access over a copy of
        :attr:`stl` (which keeps the original PTPs).  A failed PTP aborts
        it with :class:`~repro.errors.CampaignError`."""
        if self._campaign is None:
            self._campaign = run_stl_campaign(
                SelfTestLibrary(self.stl), self.modules, gpu=self.gpu,
                keep_going=False)
        return self._campaign

    @property
    def outcomes(self):
        """{PTP name: :class:`~repro.core.pipeline.CompactionOutcome`} of
        the campaign, in STL order."""
        return {record.name: record.outcome
                for report in self.campaign for record in report.records}

    def _combined_fcs(self, outcomes):
        """(original, compacted) union FC of *outcomes* (one module) from
        their stage-5 detected sets."""
        target = outcomes[0].ptp.target
        total = next(report.total_faults for report in self.campaign
                     if report.module_name == target)
        return (combined_fc([o.original_detected for o in outcomes], total),
                combined_fc([o.compacted_detected for o in outcomes], total))

    def table1_features(self):
        """Measured Table I rows: size, ARC%, duration, FC per PTP plus
        the two combined rows."""
        outcomes = self.outcomes
        features = {}
        for name, outcome in outcomes.items():
            features[name] = {
                "size": outcome.original_size,
                "arc": outcome.partition.arc_percent(),
                "duration": outcome.original_cycles,
                "fc": outcome.original_fc,
            }
        for combo, parts in COMBINED_ROWS.items():
            features[combo] = {
                "size": sum(features[p]["size"] for p in parts),
                "arc": (100.0 * sum(
                    features[p]["arc"] * features[p]["size"] / 100.0
                    for p in parts)
                    / sum(features[p]["size"] for p in parts)),
                "duration": sum(features[p]["duration"] for p in parts),
                "fc": self._combined_fcs([outcomes[p] for p in parts])[0],
            }
        return features

    def compaction_table(self, paper_table):
        """Measured Table II or III: one row per row of *paper_table*
        (:data:`~repro.analysis.paper_data.TABLE2` or ``TABLE3``), in its
        order — the PTP's outcome, or a
        :func:`~repro.analysis.tables.combined_outcome_row` dict for a
        combined row.  Render with
        :func:`~repro.analysis.tables.compaction_rows`."""
        outcomes = self.outcomes
        rows = {}
        for name in paper_table:
            if name in COMBINED_ROWS:
                parts = [outcomes[p] for p in COMBINED_ROWS[name]]
                rows[name] = combined_outcome_row(
                    parts, *self._combined_fcs(parts))
            else:
                rows[name] = outcomes[name]
        return rows
