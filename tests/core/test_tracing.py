"""Stage 2 — logic tracing orchestration."""

import pytest

from repro.core.tracing import collector_for, run_logic_tracing
from repro.errors import CompactionError
from repro.gpu.stimuli import DecoderUnitCollector, SfuCollector, SpCoreCollector
from repro.stl import generate_imm, generate_rand


def test_collector_for_each_module(du_module, sp_module, sfu_module):
    assert isinstance(collector_for(du_module), DecoderUnitCollector)
    sp_collector = collector_for(sp_module)
    assert isinstance(sp_collector, SpCoreCollector)
    assert sp_collector.width == sp_module.params["width"]
    assert isinstance(collector_for(sfu_module), SfuCollector)


def test_collector_for_unknown_module_rejected():
    import types

    fake = types.SimpleNamespace(name="mystery", params={})
    with pytest.raises(CompactionError):
        collector_for(fake)


def test_tracing_rejects_mismatched_target(sp_module, gpu):
    imm = generate_imm(seed=1, num_sbs=3)
    with pytest.raises(CompactionError):
        run_logic_tracing(imm, sp_module, gpu=gpu)


def test_tracing_artifacts_consistent(du_module, gpu):
    imm = generate_imm(seed=1, num_sbs=5)
    tracing = run_logic_tracing(imm, du_module, gpu=gpu)
    assert tracing.instructions == len(tracing.trace)
    assert tracing.pattern_report.module is du_module
    # DU patterns: one per decoded instruction per warp.
    assert tracing.pattern_report.count == len(tracing.trace)


def test_tracing_is_deterministic(du_module, gpu):
    imm = generate_imm(seed=1, num_sbs=5)
    first = run_logic_tracing(imm, du_module, gpu=gpu)
    second = run_logic_tracing(imm, du_module, gpu=gpu)
    assert first.trace == second.trace
    assert first.pattern_report.records == second.pattern_report.records


def test_tracing_pattern_report_multiwarp(sp_module, gpu):
    from repro.gpu.config import KernelConfig

    rand = generate_rand(seed=1, num_sbs=3,
                         kernel=KernelConfig(block_threads=64))
    tracing = run_logic_tracing(rand, sp_module, gpu=gpu)
    warps = {record.warp for record in tracing.pattern_report.records}
    assert warps == {0, 1}
