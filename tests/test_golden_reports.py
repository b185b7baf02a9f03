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


@pytest.mark.parametrize("model, n, s", sorted(GOLDEN))
def test_report_digest(model, n, s):
    cfg = RunConfig(model=model, n=n, s=s, points=3, seed=42, suites=("all",))
    text = to_json(run_config(cfg))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[(model, n, s)]
