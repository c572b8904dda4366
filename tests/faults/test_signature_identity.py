"""Pinned SpT verdicts: the signature-per-thread FC of TPGEN and RAND.

``FaultSimulator.run_signature`` folds each fault's result-bus differences
through the per-thread MISR model.  Any rewrite of that fold, or of the
propagation that feeds it, must leave the set of SpT-detected faults as it
was.  The SHA-256 digests below are of the detected-fault tuples of
``evaluate_fc`` on sp_core, in fault-list order.  They were taken from the
fold that collected every fault's diffs before folding, at the SMOKE scale
for seeds 0-3; ``benchmarks/test_signature_identity.py`` pins the DEFAULT
scale the same way.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.analysis.experiments import SMOKE
from repro.core.fc_eval import evaluate_fc
from repro.core.tracing import trace_and_pack
from repro.faults import FaultList, FaultSimulator
from repro.netlist.modules import build_sp_core
from repro.stl import generate_rand, generate_tpgen


def _sha256(value):
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode()).hexdigest()


def signature_digests(scale):
    """``{ptp name: (detected count, detected SHA-256)}`` of the SpT
    evaluation of TPGEN and RAND on sp_core at *scale*."""
    sp_core = build_sp_core(scale.datapath_width)
    tpgen, __ = generate_tpgen(
        sp_core, seed=scale.seed,
        atpg_random_patterns=scale.tpgen_random_patterns,
        atpg_max_backtracks=scale.tpgen_max_backtracks,
        atpg_podem_fault_limit=scale.tpgen_podem_fault_limit)
    rand = generate_rand(seed=scale.seed, num_sbs=scale.rand_sbs)
    fault_list = FaultList(sp_core.netlist)
    simulator = FaultSimulator(sp_core.netlist)
    digests = {}
    for ptp in (tpgen, rand):
        evaluation = evaluate_fc(trace_and_pack(ptp, sp_core), simulator,
                                 fault_list)
        assert evaluation.observability == "signature"
        detected = [[f.net, f.gate, f.pin, f.stuck_at] for f in fault_list
                    if f in evaluation.detected]
        digests[ptp.name] = (len(detected), _sha256(detected))
    return digests


#: seed -> PTP name -> (SpT-detected count, SHA-256 of the detected list).
PINNED = {
    0: {
        "TPGEN": (
            2946,
            "b7a3455917049fa5b75733f90e27c944732ce6c2fc5ee982e1c1a04fc8529e24",
        ),
        "RAND": (
            2986,
            "00bccb33b294dcf10bf601c69714228f9c82d8de8de75cfd664d1e91b73e8c21",
        ),
    },
    1: {
        "TPGEN": (
            2938,
            "447615d5d3b4e8de4e3c1ae6fa23d96c2e5930a8a3523cbb34bf354adae513a4",
        ),
        "RAND": (
            2499,
            "10ee655c2e44c38291d67d62ffbc71f7adda325f7cc07c25a5cb239ac866f931",
        ),
    },
    2: {
        "TPGEN": (
            2998,
            "6eabd68bdb82dde6f9153f26c28e790c90ee010a873e8975e81435a4c07020ae",
        ),
        "RAND": (
            2920,
            "17e486931f665fe0f894838aa31c778fd17a33b1b9f367b8fe24427c0e2a1416",
        ),
    },
    3: {
        "TPGEN": (
            2814,
            "b1de5fa50850521d00a2640ea8a17090f7a57f50abef86dd22c866b55d9c7315",
        ),
        "RAND": (
            3098,
            "061b6a99c82328e5aef828207705f2b69bd0b6219e8ff6be54a3a3ee16e9d797",
        ),
    },
}


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_signature_verdicts_are_pinned_at_smoke_scale(seed):
    assert signature_digests(replace(SMOKE, seed=seed)) == PINNED[seed]
