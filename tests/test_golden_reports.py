"""Report bytes at a fixed seed are pinned by SHA-256 digests.

The digests were recorded with numpy 2.4.6 on x86-64 for 3 points of
every applicable suite at seed 42, re-recorded for report schema 2
(the same residuals without the config's "threads" field), and
re-recorded once more when three changes moved the samples: the exact
hyperbolic Hopf sampler, per-point seeds keyed on the suite name rather
than its registry position, and the eq18 offset scaled with s.  The
flat digest did not move: every flat residual is exactly 0 at any seed.
A change that alters any residual, verdict or serialized field changes a
digest; such a change must say why and record the new digests here.
Every Hopf digest was re-recorded once more when the Levi form became
i theta([V, Wbar]) / c from one stencil (levi-hopf-leaf moved by
rounding, at most 5e-15 relative) and the chart radius came to read w
as leaf_label writes it (lemma7-leaf-radius, whose oracle and nudge follow
the chart index a = arg(w) / 2 pi); no other suite's residual moved.

GOLDEN_6 pins reports at 6 points of every suite, at other seeds and
dimensions: the Hopf ones recorded before the per-draw Hopf suites were
stacked, the synthetic-null ones (n = 2 runs the n = 2 branch of
prop4-null-leaf and skips the two lemma6 suites) before the null suites
were stacked, and the ones at seeds 2**32 + 5 and 2**64 + 1 (two and
three seed words) before the point generators were seeded in one pass
per run, and the ones at seed 2**130 + 9 (five words, more than the
pool) before numpy's SeedSequence came to mix each run's seed and suite
key.  GOLDEN_6_LAMBDA, recorded before the closed-form Hopf and
the Tricerri suites were stacked, adds Tricerri at two more seeds and
dimensions and Hopf at lambda other than 0.5, on which the leaf, diffeo
and deck suites depend.

A report keeps only each suite's aggregate, so PER_POINT pins every
residual: per suite, the SHA-256 of its residuals at 6 points and seed
42 as float64 bytes in draw order, recorded before the Gamma oracle,
h, the isotropic pair, the Cayley image and the signatures were returned
as arrays and tuples.

Every digest names the suites it covers: a report digest runs its
model's pinned tuple (HOPF_SUITES, ...), the suites that "all" resolved
to when it was recorded, in registry order, and the per-point test runs
the suites of its table.  A new suite therefore moves no digest here; it
adds a per-point entry (test_every_applicable_suite_has_a_per_point_digest)
and, when it is added to a pinned tuple, new report digests.
"""

import hashlib

import numpy as np
import pytest

from lcklab.report import RunConfig, to_json
from lcklab.sampling import _Words
from lcklab.suites import SUITES, _BY_NAME, _point_states, run_config, suites_for

HOPF_SUITES = (
    "christoffel-oracle", "prop1-lee-field", "parallel-lee", "thm1-totally-geodesic",
    "eq1-leaf-signature", "thm4-integrability", "thm4-plane-gram", "thm4-hp",
    "eq18-mean-curvature", "eq20-nabla-j", "weyl-dj", "connection-identities",
    "thm2-deck-pullback", "hopf-diffeo-roundtrip", "torus-isometry",
    "submersion-fibre-invariance", "fibration-split", "retraction-monotonicity",
    "thm5-leaf-space", "lemma7-leaf-radius", "cayley-boundary", "levi-signature",
    "levi-hopf-leaf", "cr-tangential",
)
TRICERRI_SUITES = (
    "christoffel-oracle", "prop2-lee-field", "nonparallel-lee", "prop2-nabla-b",
    "thm4-integrability", "thm4-plane-gram", "eq20-nabla-j", "weyl-dj",
    "connection-identities", "gab-invariance",
)
FLAT_SUITES = ("christoffel-oracle", "parallel-lee", "eq20-nabla-j", "weyl-dj",
               "connection-identities")
# lemma6-pair and lemma6-invariance need n >= 3 and drop out at n = 2
NULL_SUITES = ("eq8-transversal", "eq5-nv-invariance", "screen-splits", "lemma6-pair",
               "lemma6-invariance", "prop4-null-leaf")
PINNED = {"hopf": HOPF_SUITES, "tricerri": TRICERRI_SUITES, "flat": FLAT_SUITES,
          "synthetic-null": NULL_SUITES}

GOLDEN = {
    ("hopf", 2, 1): "d5762b81f6b318c86305cce1560a09f34204a6271fe862167fff84f417fad09d",
    ("hopf", 4, 2): "9ba8daefd4c1c4a3bc52424377c57357ca5d63e81eeb4707b1a10cef745cf484",
    ("tricerri", 2, 1): "63968fb97515400894ccd38f1b7e5daa37299a46f626a6d24840b61b80305bc7",
    ("flat", 2, 1): "5b96faf26d5343601580de0e9e33a34ab0390c51cd8c941d7e8fec6a0bd31d1f",
    ("synthetic-null", 3, 1): "dcba28b58b0037e6f6be604851091b1b9e586ab948451622bab38c61860128af",
}

GOLDEN_6 = {
    ("hopf", 2, 1, 42): "ea11d6f000f5b9709173980c9ef5e94665437db4ba6f599e8e0aa9a1f8303051",
    ("hopf", 2, 1, 1001): "0684627bac6b4ac9d78c85f7ae9c61032d2f20086d06d7c3afa093bfda30d4d0",
    ("hopf", 3, 1, 7): "dd28de9e2397936cfa8f384882a1dc356473ec223c02a011958eedb343405c43",
    ("hopf", 8, 7, 42): "77736c6f39a4b387a7386a1ca29f114a321b868c16fd6a5e45325620c599a945",
    ("hopf", 2, 1, 2**32 + 5):
        "475da52a8bee24790f2acef818088aee102d4f717d2765970810da33db56d3e6",
    ("hopf", 2, 1, 2**64 + 1):
        "9fc3c3040e62fae40b8ed2c72002144ef465ec94afbd8b0fdaaea5ebec7bb616",
    ("hopf", 2, 1, 2**130 + 9):
        "bb21b53a9dc54551a0f33fc85922e12cfd0cf75a289ccd5cb45006953b6435ad",
    ("synthetic-null", 2, 1, 42):
        "721ff56d06f36798a5b7c495d00b81109417ccce1142bae21339c44ce055e3a2",
    ("synthetic-null", 3, 1, 1001):
        "e10fe37bf2c3bf477b10e9ca1f93a231054913f2ed70bb4c3e6bb2f6852a8d5e",
    ("synthetic-null", 3, 1, 2**32 + 5):
        "d38b4999f3bf1e469dff16c41da6ee233599698c1861a71be83d429ce2e9343c",
    ("synthetic-null", 3, 1, 2**64 + 1):
        "346aae7620e8fa6a9735a9794958ed78fce7af2eafcc86737dbe6471e30047db",
    ("synthetic-null", 3, 1, 2**130 + 9):
        "63b6fe224f976d83ec9875cececcf52b0dc0357bfc930a149f1038dd8ea61b04",
    ("synthetic-null", 4, 2, 7):
        "b460dd1f98d6d35df3b680261e4a2b4a82bec3b75be66ba075e06b11584f6987",
}


GOLDEN_6_LAMBDA = {
    ("tricerri", 2, 1, 0.5, 1001):
        "0f3c79f10185eeb7b18c5ab78467d0792809708425ca06d99ad3519ad8398b3d",
    ("tricerri", 3, 0, 0.5, 7):
        "dc9bc2fedd78aedc5f93013cd8140d4b15f39a63598c5f366c66486d34430e2f",
    ("hopf", 3, 1, 0.9, 42): "bd5893c97683a41b023f49c126afa203edbd6a73961aa8ea2a66677badf18e5d",
    ("hopf", 5, 2, 0.1, 1001): "251ded8dbd34c6ac06048c2bb910e688f01f8e97df5b7f0d38a88ac90cc55c9c",
}

PER_POINT = {
    ('hopf', 2, 1): {
        'christoffel-oracle': 'cc65c4f425b5c12933d923959e944e90f809185c9b21a1c35511a310a91328f2',
        'prop1-lee-field': 'aa5e56275dec09ef7a3db697486a504f174ff6210e9caf9d12b0e78d12732798',
        'parallel-lee': '677a0a906fae986c8c7dd92a4574d52ab45f6ca849eb06dd38ea780809772b82',
        'thm1-totally-geodesic': '4d8facfa2255c9c791f4c47a1b61e3900e1c37104b4c832211886c9f9c6b5974',
        'eq1-leaf-signature': '17b0761f87b081d5cf10757ccc89f12be355c70e2e29df288b65b30710dcbcd1',
        'thm4-integrability': 'fa515647f329eb694020623cbd735bd2e49325b49a3701323efae4c59a7f229a',
        'thm4-plane-gram': '04eb92a0af34101a7445171eae6c58fc2d4288ae1f7c94d25a614d00b1a28fc9',
        'thm4-hp': 'b16fbed92edc071171649f717213dc0255fa11e64d61117574c5ed0c657e3e47',
        'eq18-mean-curvature': 'cac244b0831aa8792145ae798528ebb667e8a710866f5a7a5fc0440a3e35bc37',
        'eq20-nabla-j': '6bed56a983a371634cd8441add035a3bd61681cafa82eaf06ab57044c3cc6453',
        'weyl-dj': '798b6d7fe8f1be4500ba7ad5929f7cf98dfdedac13616594090d785fe7980cba',
        'connection-identities': '05fb2d5000882c1d925f1b46e388a9a19dc0356f278dd70acb14e5ed7d6e5c4d',
        'thm2-deck-pullback': '17b0761f87b081d5cf10757ccc89f12be355c70e2e29df288b65b30710dcbcd1',
        'hopf-diffeo-roundtrip': '9b9328e0f12ccad09eb37120399039748dd84258c13700ee9a914e9c676a69fb',
        'torus-isometry': '730a10ca95267528fb6d0f621a1dbc43397ee8f91a4921929f6a38e5bc7a06f8',
        'submersion-fibre-invariance': '8f511857536f7c8b0b7c57f54006dbac5ff6e27a6f84c5e5c7ea70426cc5c8a6',
        'fibration-split': '83ed560c2d74c6024d2c3bbf4a3d67d1720b6c5ffa7026d1ca723b559f75bdc5',
        'retraction-monotonicity': '17b0761f87b081d5cf10757ccc89f12be355c70e2e29df288b65b30710dcbcd1',
        'thm5-leaf-space': '50332c12c655905e8b4bc4ad10b8c3dce278a56d4527dfb46fa93f70f9fb2513',
        'lemma7-leaf-radius': '53b80c368f697c0bc591dd8372b37c5fdd09374c0630a54e969fd0cc6881e003',
        'cayley-boundary': 'd1c04173741a6a3e99e6e57564b713387a0e4c7f3902c68369941fcd294dfe43',
        'levi-signature': '17b0761f87b081d5cf10757ccc89f12be355c70e2e29df288b65b30710dcbcd1',
        'levi-hopf-leaf': 'dc7b5dc7cf04dfe7c7c49310825d59f5a41b501b892e71fec924bc3abdd8c48d',
        'cr-tangential': 'e77abc20485e4129024e13a30ac5c447ab998da440bf24d9373265dbc45149df',
    },
    ('hopf', 4, 2): {
        'christoffel-oracle': '9ee50c0fd715a9b20175645353cc2e6c2c9185e98cfd532b58fec093ddda912f',
        'prop1-lee-field': 'd709f3e37d93efa0a299105721d56b39a89ab4ef9f22943963e7aee9f5c13fdc',
        'parallel-lee': '5261155318411f6d49cfe477b4f02c74833c2c6f76b3b8f76b9447c5f9fff930',
        'thm1-totally-geodesic': 'a7f8b9d3f809d190c30141793eefb9d78cd9bfa4919e66cd353a5921c86f95dc',
        'eq1-leaf-signature': '17b0761f87b081d5cf10757ccc89f12be355c70e2e29df288b65b30710dcbcd1',
        'thm4-integrability': '2ca507584f2c5560c8e4d19e662444d30829fac61864a9a0d2a778ae92c66f93',
        'thm4-plane-gram': '16cd0a8ac24b1cbc68271a3ce17b76d155fa6fbb41932e4a7bda6fecedab62fd',
        'thm4-hp': 'bd5ddc7d01a4c62ec9389966efb53cba5c1dd9fd2c82f39aec9e3a654445574a',
        'eq18-mean-curvature': 'a28db25b88fefb30a3632be9022cbf89b84f1534ea3109da266f672d7c11e8ed',
        'eq20-nabla-j': '25029b559baad038f55f0111d10967d7b5231ac6ae0dcaeca2ade6639b6d5a9c',
        'weyl-dj': '219e480096f87fef7733e250b32601b6201bddf0fe87aeea0387099dbda5c106',
        'connection-identities': '132f1fdb2d7d9a2f5213ce9a17754b4e296ff9e41736479a3aeed0fe8c17004d',
        'thm2-deck-pullback': '17b0761f87b081d5cf10757ccc89f12be355c70e2e29df288b65b30710dcbcd1',
        'hopf-diffeo-roundtrip': 'a24d4b9c46784c7b6dc138cc43d0302ab72a56665aff445155b933577b8b303a',
        'torus-isometry': '826bbf9b8d9ce635713a3415cb0fc76b03fe20b70477a7979d91cd10beb31555',
        'submersion-fibre-invariance': '0be6bea587939738f404a8ba8e819b381f2cd45dd56ebbecf1b9b9a86e0b9710',
        'fibration-split': '4cd89b26fa885215376e2779ca5ada9dab6ab47588cf63d25081f86118105388',
        'retraction-monotonicity': '17b0761f87b081d5cf10757ccc89f12be355c70e2e29df288b65b30710dcbcd1',
        'thm5-leaf-space': 'd4c0a1ebfd7a371f5d49852872135d60565fac9e372e6973f910154ecd3921b2',
        'lemma7-leaf-radius': '0d93d45315c7c804e97404d4e5a9768353266b658989d3c28b4c873ace1abef1',
        'cayley-boundary': '2baaaf3f215960540f522eabd9f780093a8f75e74ce11a55624a4c0ba635606f',
        'levi-signature': '17b0761f87b081d5cf10757ccc89f12be355c70e2e29df288b65b30710dcbcd1',
        'levi-hopf-leaf': 'b08ba8a16ab8d19648d5a6948e2ccaccac2102fe6d55544e49a76025c50b65f7',
        'cr-tangential': '525b2a6433bec9cd1e8124c0c03684e7d05c1431008b2d5045c9c8993e9e3c0e',
    },
    ('tricerri', 2, 1): {
        'christoffel-oracle': '5f235e2a6941f7f32e53b9a9e729e8a5b61f644e67950f9bb36fc027d451d983',
        'prop2-lee-field': '81c2bf87c15f3421548dbd9d307a07e9cd989c53a47c69b796c3450cb67f01bf',
        'nonparallel-lee': 'aa6a9dd0b72a482239c29162393259637265fc20b0a02855a00e7bc9c19cb4da',
        'prop2-nabla-b': 'fd01341229d5425fbe7da9823723669c90ed3f145aa7724ca24f7659bc19e438',
        'thm4-integrability': '17b0761f87b081d5cf10757ccc89f12be355c70e2e29df288b65b30710dcbcd1',
        'thm4-plane-gram': '81c2bf87c15f3421548dbd9d307a07e9cd989c53a47c69b796c3450cb67f01bf',
        'eq20-nabla-j': '7c59ddc2fe04ba5898bf585526edda3202608fe82e053556975cbbfd366859ed',
        'weyl-dj': '58569603baf93aca555600ff58515e955a97d6fd2d787db2b64dfdacb2f4ad58',
        'connection-identities': '58e6497a043d39bf1100eeb5583fbf8fc19f714c795d5c66d82a6bc901920d79',
        'gab-invariance': '90144cb6ab7206c0f6dd9921fd27081dc64592ea41e246d47bc6d20fe087e678',
    },
    ('flat', 2, 1): {
        'christoffel-oracle': '17b0761f87b081d5cf10757ccc89f12be355c70e2e29df288b65b30710dcbcd1',
        'parallel-lee': '17b0761f87b081d5cf10757ccc89f12be355c70e2e29df288b65b30710dcbcd1',
        'eq20-nabla-j': '17b0761f87b081d5cf10757ccc89f12be355c70e2e29df288b65b30710dcbcd1',
        'weyl-dj': '17b0761f87b081d5cf10757ccc89f12be355c70e2e29df288b65b30710dcbcd1',
        'connection-identities': '17b0761f87b081d5cf10757ccc89f12be355c70e2e29df288b65b30710dcbcd1',
    },
    ('synthetic-null', 3, 1): {
        'eq8-transversal': '5ae8feaf993f75a54b41c1cd46e69a14df571dd3b33957c7f642df95b5da4eb4',
        'eq5-nv-invariance': '20ed5c16a42957d38f1c885454930aa70cd771802092a55383f441c7bd8849ae',
        'screen-splits': '51c18261928350780d0e6aca79965269d206b879a62369ecb0a68752aa850628',
        'lemma6-pair': '2628393988a890122b79abfa73fa7e6514b2931e1630fc6f797e394c62929279',
        'lemma6-invariance': 'd779c6b84c1861b3749d8cf3740a47e10a92f1d258a04d73db4a8fe2119d5fd9',
        'prop4-null-leaf': '95332a75991f7331d277c702d2f00c61aeb9239ffd801d0515fba9bafb16d6bb',
    },
}


def _pinned(model: str, n: int) -> tuple[str, ...]:
    """The suites a report digest of model at dimension n covers: the
    model's pinned tuple less the suites that need a larger n."""
    return tuple(name for name in PINNED[model] if n >= _BY_NAME[name].min_n)


def _digest(cfg: RunConfig) -> str:
    return hashlib.sha256(to_json(run_config(cfg)).encode()).hexdigest()


@pytest.mark.parametrize("model, n, s", sorted(GOLDEN))
def test_report_digest(model, n, s):
    cfg = RunConfig(model=model, n=n, s=s, points=3, seed=42, suites=_pinned(model, n))
    assert _digest(cfg) == GOLDEN[(model, n, s)]


@pytest.mark.parametrize("model, n, s, seed", sorted(GOLDEN_6))
def test_six_point_report_digest(model, n, s, seed):
    cfg = RunConfig(model=model, n=n, s=s, points=6, seed=seed, suites=_pinned(model, n))
    assert _digest(cfg) == GOLDEN_6[(model, n, s, seed)]


@pytest.mark.parametrize("model, n, s, lam, seed", sorted(GOLDEN_6_LAMBDA))
def test_six_point_report_digest_at_lambda(model, n, s, lam, seed):
    cfg = RunConfig(model=model, n=n, s=s, lam=lam, points=6, seed=seed,
                    suites=_pinned(model, n))
    assert _digest(cfg) == GOLDEN_6_LAMBDA[(model, n, s, lam, seed)]


@pytest.mark.parametrize("model, n, s", sorted(
    {key[:3] for key in (*GOLDEN, *GOLDEN_6, *GOLDEN_6_LAMBDA)}))
def test_all_resolves_to_the_applicable_suites_in_registry_order(model, n, s):
    # the report digests name their suites, so they no longer pin what
    # "all" resolves to: the registry's applicable suites, in its order
    cfg = RunConfig(model=model, n=n, s=s, points=1, seed=1, suites=("all",))
    registry = [suite.name for suite in SUITES if suite.applicable(cfg)]
    assert [result.name for result in run_config(cfg).results] == registry
    # a pinned tuple keeps registry order, as the recorded reports listed it
    pinned = _pinned(model, n)
    assert list(pinned) == [name for name in registry if name in pinned]


@pytest.mark.parametrize("model, n, s", sorted(PER_POINT))
def test_every_applicable_suite_has_a_per_point_digest(model, n, s):
    applicable = {suite.name for suite in suites_for(RunConfig(model=model, n=n, s=s,
                                                               suites=("all",)))}
    assert applicable <= set(PER_POINT[(model, n, s)])


@pytest.mark.parametrize("model, n, s", sorted(PER_POINT))
def test_per_point_residual_digests(model, n, s):
    # each suite of the table, and only those: a new suite moves no entry
    cfg = RunConfig(model=model, n=n, s=s, points=6, seed=42,
                    suites=tuple(PER_POINT[(model, n, s)]))
    chosen = suites_for(cfg)
    got = {}
    for suite, states in zip(chosen, _point_states(cfg, chosen)):
        drawn = []
        for row in states:   # as _run_suite draws and checks, keeping every residual
            residuals = suite.point_fn(cfg, np.random.Generator(np.random.PCG64(_Words(row))), drawn)
        got[suite.name] = hashlib.sha256(np.asarray(residuals, dtype=np.float64).tobytes()).hexdigest()
    assert got == PER_POINT[(model, n, s)]
