"""Pinned ATPG output: TPGEN and SFU_IMM must not change by one byte.

PODEM's speed-ups (the static skip of proven-untestable targets and the
event-driven implication) must leave every pattern, every detected fault
and every pattern's fault attribution as they were.  The SHA-256 digests
below were taken from the full-re-simulation PODEM without the static
skip, at the SMOKE scale for seeds 0-3; ``benchmarks/test_atpg_identity.py``
pins the DEFAULT scale the same way.  SMOKE exercises the skip path:
SFU_IMM has 8-9 PODEM-aborted targets per seed, and the static prover
settles all of them or all but one.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.analysis.experiments import SMOKE
from repro.netlist.modules import build_sfu, build_sp_core
from repro.stl import generate_sfu_imm, generate_tpgen
from repro.stl.io import ptp_to_dict


def _sha256(value):
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode()).hexdigest()


def _fault_tuples(faults):
    return [[f.net, f.gate, f.pin, f.stuck_at] for f in faults]


def atpg_digests(scale):
    """``{ptp name: (PTP, detected, pattern_faults) digests}`` for the
    TPGEN and SFU_IMM generation at *scale*."""
    runs = {
        "TPGEN": generate_tpgen(
            build_sp_core(scale.datapath_width), seed=scale.seed,
            atpg_random_patterns=scale.tpgen_random_patterns,
            atpg_max_backtracks=scale.tpgen_max_backtracks,
            atpg_podem_fault_limit=scale.tpgen_podem_fault_limit),
        "SFU_IMM": generate_sfu_imm(
            build_sfu(scale.datapath_width), seed=scale.seed,
            atpg_random_patterns=scale.sfu_random_patterns,
            atpg_max_backtracks=scale.sfu_max_backtracks,
            atpg_podem_fault_limit=scale.sfu_podem_fault_limit),
    }
    return {name: (_sha256(ptp_to_dict(ptp)),
                   _sha256(_fault_tuples(atpg.detected)),
                   _sha256([_fault_tuples(group)
                            for group in atpg.pattern_faults]))
            for name, (ptp, atpg) in runs.items()}


#: seed -> PTP name -> (PTP, detected, pattern_faults) SHA-256 digests.
PINNED = {
    0: {
        "TPGEN": (
            "c52dad82cee8e14cb0a14bcdb6f026dc445ad0df3ea1cb2fd3bcc5f878b0cbc0",
            "d9215c330e0533b642ad437d0a6747ba72d2d8d3fa7c917f2652375a09d950a7",
            "3892e8f28bc43e846ee68197fadc26c4de4081d4b646c4d69de581d5382761a6",
        ),
        "SFU_IMM": (
            "628a2b575974d4ffdc653e8e663b2ac47a2d6e4de2d1adbbf58b3caf1dbf84e2",
            "f6d3e32df02491abafc44b5cf0d34a27b6ed1b1eb905fc73b337f572d244f906",
            "e943b6df19c5bfb3571f54bd49bbaa405886875a8539dd8fd6e92c2c42723041",
        ),
    },
    1: {
        "TPGEN": (
            "847ac95f3bb7f05f43d497d8241831efa72a52790e26aae19a966dc80b700535",
            "566fe637c74055617d14904f3138f74f9ce3633fe5f31c489cb25b653e0cb65a",
            "1a0a941c8b8866b51d712ae31715ecdc7942df569ff753524cfe5d163b392a40",
        ),
        "SFU_IMM": (
            "73859250fe40808cff2bbf82684c2bd23f739e105221df8a58b7d45cfc1ec61c",
            "41e8257550d17262a5c812685b604069cdc9f6f6a1dff55370270bdad745408e",
            "b45c697b0530f48c65710919d58978ff1c6161b38d1505ca2f50cbac696b4f33",
        ),
    },
    2: {
        "TPGEN": (
            "8577a820e1e10ca2300db151a4f3f80abfd168bce7de6716ba4f1d4dbd75b0f7",
            "1afe9a4349ff008cb096dfed18af04088322deb24ca4937f87c0f87a577bccdd",
            "4d47a0efbc8241e6bebcc8386a4b9cae21db11580f1ff39742885092c0519a15",
        ),
        "SFU_IMM": (
            "8976f3a28b1c49d8b16b8c250cbf45d218b40e711a6217e2558b0e6ce1958fd0",
            "1dfa431f352fe984539f0174c62a2f1f4a42c5f57ee545eed7b995dd8b26074c",
            "52ff5760daf1fb8f4e7adafbaa3541cdd1e27a11b65e7193ebd3d96b8efbda7a",
        ),
    },
    3: {
        "TPGEN": (
            "9abf7b8ec39fad113990800aca449da8b8fbb034f6127314b7a00ddd308749ef",
            "58abff904e4d8dfc85057c5dcc668594a6497a003239252970644006e0ac44f7",
            "7839374e698b7b07af6a90d3f6e51f7116fb42814f21ae6caf1131b44eabf1e1",
        ),
        "SFU_IMM": (
            "c5f1eb3e6edc9a742ca688a6b431eaa8cbd924c7c5054299424b5ffd2cf5c1cd",
            "e653ce7a16c20d7183577b899ea811258b18a8178339872b8af735efd33c4e9f",
            "e358c69b06a462fa464f59ad91478b10426f45904913abd1d54dfcd879ae1067",
        ),
    },
}


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_atpg_output_is_pinned_at_smoke_scale(seed):
    assert atpg_digests(replace(SMOKE, seed=seed)) == PINNED[seed]
