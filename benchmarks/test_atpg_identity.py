"""ATPG identity at the DEFAULT scale: TPGEN and SFU_IMM are pinned.

The tier-1 suite pins the ATPG-built PTPs at the SMOKE scale only
(``tests/faults/test_atpg_identity.py``).  This benchmark pins them at
DEFAULT, seed 2022, which is where the static skip of proven-untestable
targets does most of its work (48 PODEM-aborted targets on sp_core).  The
SHA-256 digests of the PTP, the detected faults and the per-pattern fault
attribution were taken from the full-re-simulation PODEM without the
static skip.  About 10 s.
"""

import hashlib
import json

from repro.analysis import DEFAULT
from repro.netlist.modules import build_sfu, build_sp_core
from repro.stl import generate_sfu_imm, generate_tpgen
from repro.stl.io import ptp_to_dict

#: PTP name -> (PTP, detected, pattern_faults) SHA-256 digests at DEFAULT.
PINNED = {
    "TPGEN": (
        "e0f3bbe0ef15c11f5fa9e9f526fbc51be4eae18b5bc8f20fc5cf21e3a33f6e52",
        "9bb7219d56d770cea66fe0a032bc8a8f413066de5c308ca4a3c308f7da804d95",
        "e0caef994698b9e44f1b9a6ea0b51c78a864e63b4a9ccd9079767729ae9fe413",
    ),
    "SFU_IMM": (
        "28e2b42746d0e350c80f018f4ddfe4fbd0d431c3a52c895918fb5feeefac6d37",
        "5c73d2272f70b0e31c925bdb7191f685ae36b5b51ac5a58e1ce3e02ba0e6e232",
        "934f274fe19e57f9187939accf9bb2512834ceaaeddbdf1054dc43130c21f8b7",
    ),
}


def _sha256(value):
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode()).hexdigest()


def _fault_tuples(faults):
    return [[f.net, f.gate, f.pin, f.stuck_at] for f in faults]


def test_atpg_output_is_pinned_at_default_scale():
    scale = DEFAULT
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
    for name, (ptp, atpg) in runs.items():
        digests = (_sha256(ptp_to_dict(ptp)),
                   _sha256(_fault_tuples(atpg.detected)),
                   _sha256([_fault_tuples(group)
                            for group in atpg.pattern_faults]))
        assert digests == PINNED[name], name
