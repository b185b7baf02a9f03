"""Report bytes at a fixed seed are pinned by SHA-256 digests.

The digests were recorded with numpy 2.4.6 on x86-64 for 3 points of
every applicable suite at seed 42, and re-recorded for report schema 2
(the same residuals without the config's "threads" field).  A change
that alters any residual, verdict or serialized field changes a digest;
such a change must say why and record the new digests here.
"""

import hashlib

import pytest

from lcklab.report import RunConfig, to_json
from lcklab.suites import run_config

GOLDEN = {
    ("hopf", 2, 1): "d847f6ff86172af65eced8596860f9146ea1b33e13b768707459f02276e34744",
    ("hopf", 4, 2): "c84334e953f1000aaa228cc399b3c26055a004c062bce45352ce68ae08b42a02",
    ("tricerri", 2, 1): "4e81cfe58b11c0c535cba576dc3971318e0d980789c50ba74eda398ed13607b0",
    ("flat", 2, 1): "5b96faf26d5343601580de0e9e33a34ab0390c51cd8c941d7e8fec6a0bd31d1f",
    ("synthetic-null", 3, 1): "6d037381425f9f210360b94731815be30b27410e26d2a61cd718cf2f7f34614c",
}


@pytest.mark.parametrize("model, n, s", sorted(GOLDEN))
def test_report_digest(model, n, s):
    cfg = RunConfig(model=model, n=n, s=s, points=3, seed=42, suites=("all",))
    text = to_json(run_config(cfg))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[(model, n, s)]
