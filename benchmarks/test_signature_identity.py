"""SpT identity at the DEFAULT scale: TPGEN and RAND verdicts are pinned.

The tier-1 suite pins the signature-per-thread (SpT) detected-fault sets
at the SMOKE scale only (``tests/faults/test_signature_identity.py``).
This benchmark pins them at DEFAULT, seed 2022, over all 10,786
collapsed sp_core faults.  The SHA-256 digests of the detected faults, in
fault-list order, were taken from the fold that collected every fault's
diffs before folding.  About 20 s.
"""

import hashlib
import json

from repro.analysis import DEFAULT
from repro.core.fc_eval import evaluate_fc
from repro.core.tracing import trace_and_pack
from repro.faults import FaultList, FaultSimulator
from repro.netlist.modules import build_sp_core
from repro.stl import generate_rand, generate_tpgen

#: PTP name -> (SpT-detected count, SHA-256 of the detected list).
PINNED = {
    "TPGEN": (
        9357,
        "21b1ecc50887b3bef9b56c56ba3ab4f2ca6dddc8ad1115028e9c5c7e7d9970b7",
    ),
    "RAND": (
        9612,
        "5fbb710a96d94287048b43271eb6d2036223a3b9a997368ae70231acfcdb10ad",
    ),
}


def _sha256(value):
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode()).hexdigest()


def test_signature_verdicts_are_pinned_at_default_scale():
    scale = DEFAULT
    sp_core = build_sp_core(scale.datapath_width)
    tpgen, __ = generate_tpgen(
        sp_core, seed=scale.seed,
        atpg_random_patterns=scale.tpgen_random_patterns,
        atpg_max_backtracks=scale.tpgen_max_backtracks,
        atpg_podem_fault_limit=scale.tpgen_podem_fault_limit)
    rand = generate_rand(seed=scale.seed, num_sbs=scale.rand_sbs)
    fault_list = FaultList(sp_core.netlist)
    simulator = FaultSimulator(sp_core.netlist)
    for ptp in (tpgen, rand):
        evaluation = evaluate_fc(trace_and_pack(ptp, sp_core), simulator,
                                 fault_list)
        assert evaluation.observability == "signature"
        detected = [[f.net, f.gate, f.pin, f.stuck_at] for f in fault_list
                    if f in evaluation.detected]
        assert (len(detected), _sha256(detected)) == PINNED[ptp.name], \
            ptp.name
