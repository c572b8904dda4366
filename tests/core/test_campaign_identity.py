"""Pinned campaign output: every PTP's stage-2 to stage-5 results.

A refactor of the pipeline's data flow (where stage 5 gets its tracing
and patterns, which simulator it runs, how pattern sets are packed) must
leave the campaign's results as they were.  Per PTP of the six-PTP STL,
the SHA-256 digests below cover the tracing artifact, the stage-3 first
detections, the compacted PTP, and the detected faults of the two stage-5
evaluations.  They were taken at the SMOKE scale for seeds 0-3;
``benchmarks/test_campaign_identity.py`` pins the DEFAULT scale the same
way.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.analysis.experiments import SMOKE, Experiment
from repro.exec.cache import tracing_to_payload
from repro.faults.fault import fault_sort_key
from repro.stl.io import ptp_to_dict


def _sha256(value):
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode()).hexdigest()


def _fault_tuples(faults):
    return [[f.net, f.gate, f.pin, f.stuck_at]
            for f in sorted(faults, key=fault_sort_key)]


def campaign_digests(experiment):
    """``{ptp name: (tracing, first detections, compacted PTP, original
    detected, compacted detected) SHA-256 digests}`` of *experiment*'s
    campaign."""
    return {name: (_sha256(tracing_to_payload(outcome.tracing)),
                   _sha256(outcome.fault_result.first_detection),
                   _sha256(ptp_to_dict(outcome.compacted)),
                   _sha256(_fault_tuples(outcome.original_detected)),
                   _sha256(_fault_tuples(outcome.compacted_detected)))
            for name, outcome in experiment.outcomes.items()}


#: seed -> PTP name -> (tracing, first detections, compacted PTP,
#: original detected, compacted detected) SHA-256 digests.
PINNED = {
    0: {
        "CNTRL": (
            "f640bde219d739448c8de1d182c1c9c1197bf7701868703f9aad6cdece7d0c98",
            "53b88e36e9973aa2f14857845f7f44e92380807370d69e7decdc074705071909",
            "eebd8b7d300d72f293f07810cabe81b1658314a1ba6fc5885862b6c356458521",
            "20f7578f31a1a8d3351d75e598bf86e88c64f8c4d662ac70a352d8c66b52f285",
            "f2977fa37955254a815303c52d5b23f110feb32ec8d8deb6b416a27b79a1e6c8",
        ),
        "IMM": (
            "8ea9e33a20b9401c5dcedb5972acd7e7af275f8c712b2596999c19a9c65a543f",
            "7828b847801cd4ea4fe259eccedf020608e7606d1ea50d2fef80eddcc3989dcf",
            "5c4cbfab437a20d5ccf49baa817858bb7e61b61b66fe0aa11e7a49a585cf8076",
            "b54ba9673b5166a8033c743f1e402bdb7bd2b1a19b1b5f3edc859aee669de69c",
            "b54ba9673b5166a8033c743f1e402bdb7bd2b1a19b1b5f3edc859aee669de69c",
        ),
        "MEM": (
            "dc27dfb716c24dbb3ff69449343bc8e2e10fd33f55a770b97ad830272b8709a6",
            "905b47fdd243f0119abcd2523cbd7f4bf61806320ee5a8df6ced42436fce24bb",
            "266b0314b8470e4dd5d6a3199fae41278d05c9c6e4d953f342d6fade13d833bf",
            "cc38c3d43eaa960dbe390b8094b055e8a6c27684a844f4df1057eed9c8599df1",
            "9fe5d39b53bd8a2ac420f7d4161a45e67e04416bd93a46dd8c98f878b6631501",
        ),
        "RAND": (
            "f5801a0235e8d1fe3d790a731922fc2b9054eaee368a816fd0fddaf5a9a4220b",
            "fdc8c1fe6398f8cc46c4c3f0ac1873b4225bbd5a2de971a2f8495dc882911242",
            "3d564c72182d0a26c738a8b346cee13a72d9c1eb565a0974217ab08f052d9b4d",
            "00bccb33b294dcf10bf601c69714228f9c82d8de8de75cfd664d1e91b73e8c21",
            "48118314cc56f77de9d62b0b3cb00dd50f893e7f4941baef90b788e8dfe1ca62",
        ),
        "SFU_IMM": (
            "d2f291989fb93feffee7d8aff55f6945057cc58f305d1536a0815b739dc17aca",
            "38423a09e112bbcc11cc866b0ce9294573fc902a690234df1e8ba5db477e263c",
            "a59461fb9285e47103c13404e15c48c8bbf77f28bf57ead1333c11329ecc1936",
            "8baa4fb0c71df3d215070dd10679f44863164eac065216ae2761edd927cd3c6f",
            "8baa4fb0c71df3d215070dd10679f44863164eac065216ae2761edd927cd3c6f",
        ),
        "TPGEN": (
            "3523cf18912b1a18cf8f979652e0a9cf204063a5612de8adba8127fd3e574582",
            "d6fcf638145470258a84b1efa32b73428a811b8510bf520ab699f17a8356fa5e",
            "ffc8ab629fc927eba034f79056c682af011dd3d17eb6e5644b8287d0d239476a",
            "b7a3455917049fa5b75733f90e27c944732ce6c2fc5ee982e1c1a04fc8529e24",
            "d5a31f7be08b1eeaaa33102f99279757e8bc365f1e77995869a21ee84035cc1d",
        ),
    },
    1: {
        "CNTRL": (
            "9fd7d751f8e8f6c896e659506cca253d3da0288f23ddc2daff9a13bf7bea9385",
            "c1e19d8bef5bfaed3cdba58e945d2dbb56fad862f0f3fbc3b887353c1edb4abd",
            "ffb505014e8575326e5c1f631cd6fa95be90091b1932c20c8cce1af820d70859",
            "0f5b56f98563f4b69dc62d6106d59ffe1fd4ceb1d92b99c1d4dac459bdf75a85",
            "86dec31d0519ac6e1f22036553ea4d7ba235dbab49d41df353cd333c61d220ac",
        ),
        "IMM": (
            "80206c6692c33f66d0a362d2ca91aa53c708630c9f8bf63249835583fbaa99ae",
            "97f6785bc466222025e5e04837f20356571b73eaf1a6dd8523a2f5c729d228a1",
            "3bd41d396718485cf7ae04819f9f471fd7c343749f4a30557734225e9dff7bf9",
            "b5e21ca29d999a00a4756c24558fc3188c9d6a3402d7b7021f4cc391d9c308ca",
            "b5e21ca29d999a00a4756c24558fc3188c9d6a3402d7b7021f4cc391d9c308ca",
        ),
        "MEM": (
            "4b75ee459f5f1ae9dbe1759e69bfe7240b0e4836cbdf95f14efe17772bfa7ab2",
            "d7f54fc98e85df290b15001e43c11f81f8c4b98c1aaf9c8859b87ff2d551bac0",
            "0f8568f1a1697dd8e7a070bd22c34ce51d89ae9996468990d53afa51c21377e4",
            "f98cf5821f5c1186375892e55e1f7a890a9c43f5a271ca6dcbd17eb4a7e73e55",
            "7e54ed8b9f8c0814072f4394d686ddcd4b356804206929f67426e6b2ee4c1d19",
        ),
        "RAND": (
            "a59bedc4bec65ff28e71c244499be6f38ce981064894567ec489baed2bd61093",
            "68a7b1e65e79be660a11235aab4ebb4cf8157e0a370bc371ab2a9da025756822",
            "5c87421495cd32978ac806d22405110e73814851e773902627fe6ecf4eaff6b1",
            "10ee655c2e44c38291d67d62ffbc71f7adda325f7cc07c25a5cb239ac866f931",
            "2e3bb095e04b743a8a938650f85004cb3838297444d8ac2b0653fdef5f6858e9",
        ),
        "SFU_IMM": (
            "59b9f05fdb1dac2da438ed71354a3b58e62c6a6072099acccee4c904ec220c78",
            "b7ed983f579153abe481057d76a72e87f158c870e3eb42eda15fc3833953f951",
            "432b243829cd655a1758c85500211b482f8e1ebbdd321094cf699fcbee3e4a0a",
            "f657022b2a397af33020f59cc8737938618c21e846138ac7744cd4bbfac4b4cd",
            "f657022b2a397af33020f59cc8737938618c21e846138ac7744cd4bbfac4b4cd",
        ),
        "TPGEN": (
            "c49ce81160ab54e423d43b2865bee1fd9b5dd4054264a7b790764260433abf08",
            "e065018576c67392eaa3995804ef9e8827e8db24151d3438c2ab2303b34e7c38",
            "0279bd4037256761c79ca3fa68d846987ceba6b393be7d060d48f793310ef5d3",
            "447615d5d3b4e8de4e3c1ae6fa23d96c2e5930a8a3523cbb34bf354adae513a4",
            "a2f1d5909fcc4a92646b6d4703cc7fae83ce7c7ddff36fc20b06f9835335f738",
        ),
    },
    2: {
        "CNTRL": (
            "b69637a639235c7f3cf88f13f8a46c8ab47246bf86455b50ae3761665de618d1",
            "1d2a2c64db9b4bf1f9560d35d29a3c94c04f94a4c4791901b64dabe5e632c7a5",
            "175786776208d7fffb067cce954c7f6f54ced9b4f220e9e45ce042644174b3c4",
            "641820a9eaf3a3b9e59b6e746c938b5698194d03dc1d12bd9512caae6fc0153b",
            "5e65497e5ab7c4a52ec7e26a11c811b08d1f48e9e8495a7046048b81b62c717a",
        ),
        "IMM": (
            "e542fe0bcfb916c7d02fb64fb80eaa1ec46488a02bc1f6b2f8608cc6b5618401",
            "1287e24e5212c9c4d75c4a1f4dba91738dc627a30a5f1b543ace0e1ae9b22856",
            "79a5a93c346d571a6c0b7c000891b12e6b2cc84f2f72a7f100ecb5f4dece0f03",
            "4b86ebbb00e88d1001b880c9872182ab75edecbaa75fe76a058d0e3e9eb43ae9",
            "4b86ebbb00e88d1001b880c9872182ab75edecbaa75fe76a058d0e3e9eb43ae9",
        ),
        "MEM": (
            "31efe4cc49d88cfa619b838541bc2f6d7d3a87807bd1433757cb07729732375b",
            "af67ebbe65aa25291d8ed75cadfe35f2da9e0a712a607b3b6047dae6a0f043c0",
            "4118ba6e159c626d983e42d6bef732813098af07599da99f33fc8cc4036c2804",
            "f06454c9e301ff6bd85f9a83478b9a36e50dac7fe51f1f587c3892b1e87f34ac",
            "5a5c9e189de6511e2e9150fe1262fb22548939837b312b2fd556ecf79dc24cdf",
        ),
        "RAND": (
            "efdadef60ef5c6997b79c73bfefbdeee1ac97f685f7ac4a675ff49105948afc2",
            "18db321811a5eae299a88aa374938ec8771e94b4430c5840cd894a1c765731eb",
            "e3c535d124273dc19403b0e9fd66d2ba24c2ed18a67ef6a2ce9e425438ef2f68",
            "17e486931f665fe0f894838aa31c778fd17a33b1b9f367b8fe24427c0e2a1416",
            "d6516a56c05ec5da5a3ce8e69e541381bb6b95190b5a61417461f8b39617c90f",
        ),
        "SFU_IMM": (
            "2a35045aa8934d9be6f5d404379cc706b8a3e57520faf0ba310a6ab8cf3dfdb7",
            "44f0d35248f1b4b8a01c9c3ac225e422333d150526e5d4d81369dd9caf02cce6",
            "9852384d85f7537b9b0358d9f18f8bb22c34d60313dc9fa7425a6bb8706c61fd",
            "3fbe5157807fe1c14d20bb38fc46ca5fe8a9a6135675a817d51035561bb05abd",
            "3fbe5157807fe1c14d20bb38fc46ca5fe8a9a6135675a817d51035561bb05abd",
        ),
        "TPGEN": (
            "3df3195bb5537ff4a2989efd4404e38c351252bdf22818d5dc75082dc8853977",
            "949bced6649643b851b8be812d2a20665c6de6d92fc6d749e8bc0a5c0aa49655",
            "0f0618f248bb3147cca569b59787c27bbee1d09ea7e1767052e74b07659ca456",
            "6eabd68bdb82dde6f9153f26c28e790c90ee010a873e8975e81435a4c07020ae",
            "38cc2dd1d31a6c2651411fc1673bf575f502b12afaa783cae2f4ac780ffb0afb",
        ),
    },
    3: {
        "CNTRL": (
            "4b0b8b347e85a0804930b825f66445fae20a48bd32be99443c8a115976913c0a",
            "3f220816c9213b28515402555f1a7abe10530d473650f641f678e3db96066cd1",
            "9a474fb7e6f1e5028c99be84c28c867ab98100ffbd0701831ad330c9962faa79",
            "900331e3744cf3293032e7fbe4109c1ee8e230a7d52e8e909a122f73bff6cd75",
            "8d22d63c16b7544fc87e8645c64e25749c408ca484431e417747311800303ef3",
        ),
        "IMM": (
            "351bf84ef667ac639abfc9c25bfdc5ecac61db30f7feb2692f7aaf9854d871a9",
            "bc35226ab859faf04f63a2bc81366a35971ff1ba5a9e7507f10ffd925d2a568c",
            "97f3c942fefbd6088f4bd604610311fc81f92ebb53ab358151509fecf4dbc998",
            "47274d82a8106024ef4626484d264a5c59c681b73aba9f37bb12ee9fa94c035f",
            "47274d82a8106024ef4626484d264a5c59c681b73aba9f37bb12ee9fa94c035f",
        ),
        "MEM": (
            "1094acd20ee22dcff4a4ffc5b97a42ede476c458e028ad1b04be545d251abc86",
            "ddb97db2f4b74a262d46638b1ecf041b53f9186f1c059b9ed9168f691ddbd749",
            "37b583b8dd33dbd8899ee708c228935ef4113c1e349638f47a02b886cee5c39d",
            "eefd25cc67e07f6e628d0bdc9fcc7c40f1a6e464a3cd4530f4900f38941dc418",
            "2d37c28b5cc11a84c77e590974a2750b5ff4b6eb315481e952db8ccb572348e0",
        ),
        "RAND": (
            "07b85be9e1d9cb8bfccbae892c6164e11bcba22afcc3aa33d8bd058bcd93e2e5",
            "43ea1bb44e815338c410b1d12da9f4b355acff035318334c31f81f25a672d903",
            "65cd8002e38bac121314c56559c6dc9689d5c6268717c0f15a6f24fdfcc273cf",
            "061b6a99c82328e5aef828207705f2b69bd0b6219e8ff6be54a3a3ee16e9d797",
            "19e9fc95645925763d23f8acdbad6c79e2f724a98e24df874cb0ef55e82351d5",
        ),
        "SFU_IMM": (
            "d58467ea5fd0e18ce80b20a52b2e57e3d4eea9a593d1c33c9d5b957afe444247",
            "6c3878ed49eaf2e65338aa7965746e2f81d1f4cce021508e0ca6628826ed968d",
            "dc5ef8e5317af80a37fc101ca991a116333e866bcfbabf3349b0344d9aed33c5",
            "563c410353dcca079b8ea2231655d1d0ca68258d9c1b4e3e675827ea6ea01eba",
            "563c410353dcca079b8ea2231655d1d0ca68258d9c1b4e3e675827ea6ea01eba",
        ),
        "TPGEN": (
            "e4ff99ce1ed621a4618b6fd55670f982711e886183aa1562a0be47e699376dc7",
            "1073648ad45ee9c8c6f99c0196ae484b77258174bddb33391b4d453ebd48baf3",
            "15a0c332055756b7aba72b5c8061035cfa0d44c203fae90f01fab2fcb308e474",
            "b1de5fa50850521d00a2640ea8a17090f7a57f50abef86dd22c866b55d9c7315",
            "6dfab19688938608a8542444b7e012d4f5aa00b7d6947839bca4b65f71054069",
        ),
    },
}


@pytest.mark.parametrize("seed", range(4))
def test_campaign_output_is_pinned_at_smoke_scale(seed):
    experiment = Experiment(replace(SMOKE, seed=seed))
    assert campaign_digests(experiment) == PINNED[seed]
