"""Campaign identity at the DEFAULT scale: every PTP's results are pinned.

The tier-1 suite pins the campaign at the SMOKE scale only
(``tests/core/test_campaign_identity.py``).  This benchmark pins the
session's DEFAULT, seed 2022 campaign the same way: per PTP, the SHA-256
digests of the tracing artifact, the stage-3 first detections, the
compacted PTP, and the detected faults of the two stage-5 evaluations.
It reads the session ``experiment`` fixture, so it runs no campaign of
its own when the table benchmarks run with it.
"""

import hashlib
import json
import os

import pytest

from repro.exec.cache import tracing_to_payload
from repro.faults.fault import fault_sort_key
from repro.stl.io import ptp_to_dict


def _sha256(value):
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode()).hexdigest()


def _fault_tuples(faults):
    return [[f.net, f.gate, f.pin, f.stuck_at]
            for f in sorted(faults, key=fault_sort_key)]


#: PTP name -> (tracing, first detections, compacted PTP, original
#: detected, compacted detected) SHA-256 digests at DEFAULT.
PINNED = {
    "CNTRL": (
        "1f3abcca11f9121394f95015042e777a0546cf47384d360fc23142ba334c6210",
        "2b178ba0cc4150f1e64ab7170bf5d997aa38f0d2e9b0cc71dd514914d479ad22",
        "9997c9449660012cf08ba47b895efa0cebb08c4f37c514d6f1b6c45ba973f0ad",
        "25c157ff2fae53b39f7aca0f9a0d831eb75f982a31c14789185957f647006e3e",
        "4dd1dd9c00a3784df09bbdb89719fc4288e6443ebc370df06f3cea79e4e5a75c",
    ),
    "IMM": (
        "8424de53a7e31c0cca4440ca078203be2cac7a76ee04b74f5e25471398db8abe",
        "3aba63e01b4049666cc4ee71c658577a69022d35d12ef039f29f0b1d0de26683",
        "bf0e5e251552e9b702cfed4db65f00779422e077beaa9800865ef0abbae6fd3a",
        "542176c2e780e23ee9a3b1310f66462b6e2d8f04b466a00a2d160250cdb94ff2",
        "542176c2e780e23ee9a3b1310f66462b6e2d8f04b466a00a2d160250cdb94ff2",
    ),
    "MEM": (
        "b58c4e991addf063623e76bc1810d1e9769a2dc33a7869e052bec3a506658d31",
        "905fbe0cb508d56f3ec4e4ac1662d9b6de2384eb271000c4732f5dfa04dc903b",
        "d571ac25d1a921a8b3306fedd4295dec619fda6585ed1e43b9b2017e49a0b460",
        "930a76f2fa3534c74550ded4fd313076966540bad2729c621b09b66bd396b0b7",
        "ca5fde8cd6395218626529acc02b26701e5b38d5eeb5f311dbbfe551781cfba0",
    ),
    "RAND": (
        "d2f3650572f84f5cfbd2edf0399735ccbb3ee904e89c3e3b67f21e318f19ed23",
        "2d646be8de356abb6fc74ca058c40e914bf7c5fc83943e3c6b80b2613a4bb433",
        "db2a27ca264abfeb46c9c65e6a0fddcc0df5b1cbacc8bff900500d6150788a62",
        "5fbb710a96d94287048b43271eb6d2036223a3b9a997368ae70231acfcdb10ad",
        "b37dacc19ee1fdeb71da972b31df270d8d92714d99a8ab477e1e1d2fd4912524",
    ),
    "SFU_IMM": (
        "0ee8945a8179d18458e3fb5d432395e223784d48caedc8332b5461bce96ab47b",
        "5222cd83dad2846f6bb6c649c423f483687e2f39a84fbd985b8a1b85f5dc01d4",
        "1c2c81b627c8b7830c1f255bc8bdde3f352d55421e8124c371d0e407adddeee6",
        "12fb27375bbab4ba97461e0cb23fb525c46eaef428c1b8e34731bcbd445e3660",
        "12fb27375bbab4ba97461e0cb23fb525c46eaef428c1b8e34731bcbd445e3660",
    ),
    "TPGEN": (
        "62c6e7b13aea1862edc4e0454e513b9f2ed6f8b1e494c800db85e28a489174da",
        "ee864254197d3ef721a3ce4f53bc381cdde555af370f57a4c9a7c7bd952cc0c2",
        "b9fb8cbab3d73fe733b2a1236fa33005cb3a818d04db92f4b2710e02b5d1e2e8",
        "21b1ecc50887b3bef9b56c56ba3ab4f2ca6dddc8ad1115028e9c5c7e7d9970b7",
        "522dfea20d8ba600e8d6fe57362cf4446e98c26695ea847fb09100d48beb1914",
    ),
}


@pytest.mark.skipif(bool(os.environ.get("REPRO_BENCH_SMOKE")),
                    reason="the digests are pinned at the DEFAULT scale")
def test_campaign_output_is_pinned_at_default_scale(experiment):
    for name, outcome in experiment.outcomes.items():
        digests = (_sha256(tracing_to_payload(outcome.tracing)),
                   _sha256(outcome.fault_result.first_detection),
                   _sha256(ptp_to_dict(outcome.compacted)),
                   _sha256(_fault_tuples(outcome.original_detected)),
                   _sha256(_fault_tuples(outcome.compacted_detected)))
        assert digests == PINNED[name], name
