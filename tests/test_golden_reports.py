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

GOLDEN_6 pins reports at 6 points of every suite, at other seeds and
dimensions: the Hopf ones recorded before the per-draw Hopf suites were
stacked, the synthetic-null ones (n = 2 runs the n = 2 branch of
prop4-null-leaf and skips the two lemma6 suites) before the null suites
were stacked, and the ones at seeds 2**32 + 5 and 2**64 + 1 (two and
three seed words) before the point generators were seeded in one pass
per run.  GOLDEN_6_LAMBDA, recorded before the closed-form Hopf and
the Tricerri suites were stacked, adds Tricerri at two more seeds and
dimensions and Hopf at lambda other than 0.5, on which the leaf, diffeo
and deck suites depend.
"""

import hashlib

import pytest

from lcklab.report import RunConfig, to_json
from lcklab.suites import run_config

GOLDEN = {
    ("hopf", 2, 1): "460bf3a62ca273823769fb9c0b1d9da703d91278e820e2980b334d9b2e35e9fc",
    ("hopf", 4, 2): "71d612a069d7c30a96fb14637e4181942bf84ae601588cdd2be3fc4b515b0689",
    ("tricerri", 2, 1): "63968fb97515400894ccd38f1b7e5daa37299a46f626a6d24840b61b80305bc7",
    ("flat", 2, 1): "5b96faf26d5343601580de0e9e33a34ab0390c51cd8c941d7e8fec6a0bd31d1f",
    ("synthetic-null", 3, 1): "dcba28b58b0037e6f6be604851091b1b9e586ab948451622bab38c61860128af",
}

GOLDEN_6 = {
    ("hopf", 2, 1, 42): "9f65c1843cd7d6e835e2f2050484e89935094089d07d636d25d8adad37bf0ba2",
    ("hopf", 2, 1, 1001): "d847f0c2b553f30007d0ad36aa9781a519e7966c7ccd1d698bace11b068d855b",
    ("hopf", 3, 1, 7): "ebc5eeae93f7e6d22aec1b4eebbafefb51460ead296c45540c73689bf1536acc",
    ("hopf", 8, 7, 42): "03dcb27fbf36e15a43e758f16f090c759794f80ded9b907637df593c0db51dd3",
    ("hopf", 2, 1, 2**32 + 5):
        "3968c05c2b2f64993a2734d0b77168cc695a18c181ed0c412d53e79bd1b3c079",
    ("hopf", 2, 1, 2**64 + 1):
        "f46eda9c6fd5a097194839404b189bba991586d88a829b4096ccddf6cb39e770",
    ("synthetic-null", 2, 1, 42):
        "721ff56d06f36798a5b7c495d00b81109417ccce1142bae21339c44ce055e3a2",
    ("synthetic-null", 3, 1, 1001):
        "e10fe37bf2c3bf477b10e9ca1f93a231054913f2ed70bb4c3e6bb2f6852a8d5e",
    ("synthetic-null", 3, 1, 2**32 + 5):
        "d38b4999f3bf1e469dff16c41da6ee233599698c1861a71be83d429ce2e9343c",
    ("synthetic-null", 3, 1, 2**64 + 1):
        "346aae7620e8fa6a9735a9794958ed78fce7af2eafcc86737dbe6471e30047db",
    ("synthetic-null", 4, 2, 7):
        "b460dd1f98d6d35df3b680261e4a2b4a82bec3b75be66ba075e06b11584f6987",
}


GOLDEN_6_LAMBDA = {
    ("tricerri", 2, 1, 0.5, 1001):
        "0f3c79f10185eeb7b18c5ab78467d0792809708425ca06d99ad3519ad8398b3d",
    ("tricerri", 3, 0, 0.5, 7):
        "dc9bc2fedd78aedc5f93013cd8140d4b15f39a63598c5f366c66486d34430e2f",
    ("hopf", 3, 1, 0.9, 42): "f9de44effdf6845cc816f7e44f3d7064a4711691ac2fa025039c41c3d21a0f62",
    ("hopf", 5, 2, 0.1, 1001): "9a2d2df43df4f19fce55b491bbee48ef9c24cd8ca2422cf6f9484f5cc69724eb",
}


def _digest(cfg: RunConfig) -> str:
    return hashlib.sha256(to_json(run_config(cfg)).encode()).hexdigest()


@pytest.mark.parametrize("model, n, s", sorted(GOLDEN))
def test_report_digest(model, n, s):
    cfg = RunConfig(model=model, n=n, s=s, points=3, seed=42, suites=("all",))
    assert _digest(cfg) == GOLDEN[(model, n, s)]


@pytest.mark.parametrize("model, n, s, seed", sorted(GOLDEN_6))
def test_six_point_report_digest(model, n, s, seed):
    cfg = RunConfig(model=model, n=n, s=s, points=6, seed=seed, suites=("all",))
    assert _digest(cfg) == GOLDEN_6[(model, n, s, seed)]


@pytest.mark.parametrize("model, n, s, lam, seed", sorted(GOLDEN_6_LAMBDA))
def test_six_point_report_digest_at_lambda(model, n, s, lam, seed):
    cfg = RunConfig(model=model, n=n, s=s, lam=lam, points=6, seed=seed, suites=("all",))
    assert _digest(cfg) == GOLDEN_6_LAMBDA[(model, n, s, lam, seed)]
