"""Report bytes at a fixed seed are pinned by SHA-256 digests.

The digests were recorded with numpy 2.4.6 on x86-64 for 3 points of
every applicable suite at seed 42.  A change that alters any residual,
verdict or serialized field changes a digest; such a change must say
why and record the new digests here.
"""

import hashlib

import pytest

from lcklab.report import RunConfig, to_json
from lcklab.suites import run_config

GOLDEN = {
    ("hopf", 2, 1): "c09667dcfd42689e4dbf292897fed780043f6e3c4d355b6151605094d40c0465",
    ("hopf", 4, 2): "034d967c67c4698f79f3bafcb099db7a0564419f437ddae09b830b04d44cf519",
    ("tricerri", 2, 1): "06262771afc06520ea559b55869bd8f22b08be60875dcfc96981373f130d24a4",
    ("flat", 2, 1): "896a295690667ceaf9e4d6ef3b05bebc149f916a1f4615b08d81b471a0b2c9a3",
    ("synthetic-null", 3, 1): "a3b0e7bde76a306eb15cef7952f7c46a0d800b72115f65acaa5c61514292d960",
}


@pytest.mark.parametrize("model, n, s", sorted(GOLDEN))
def test_report_digest(model, n, s):
    cfg = RunConfig(model=model, n=n, s=s, points=3, seed=42, suites=("all",))
    text = to_json(run_config(cfg))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[(model, n, s)]
