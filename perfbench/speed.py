"""Machine-speed reference for a shared machine.

On a shared machine the speed available to one process drifts by tens
of percent over seconds, as neighbours come and go.  `SpeedMeter` times
a fixed kernel of the same character as lcklab's work (Python loops
around 4x4 complex solves, small symmetric eigenproblems and SVDs)
right before each measured unit.  A unit's time is rescaled by
`REFERENCE_S / (kernel time just before it)`, which expresses it in
seconds at the reference speed: the kernel
took `REFERENCE_S` on an idle 2-core Intel Xeon with Python 3.11.7 and
numpy 2.4.6.  The kernel uses no lcklab code, so a change to lcklab
cannot move it.

Only in-process units are rescaled.  Right after a child process exits
the kernel runs up to three times slower for a moment, and a child may
run on the other core, so the kernel does not track a child's speed.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.0257
_REPEATS = 18


def _inputs():
    rng = np.random.default_rng(20061)
    solves = [(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
               + 4.0 * np.eye(4), rng.standard_normal(4) + 0j) for _ in range(32)]
    syms = [m + m.T for m in rng.standard_normal((32, 4, 4))]
    rects = list(rng.standard_normal((32, 3, 6)))
    return solves, syms, rects


_SOLVES, _SYMS, _RECTS = _inputs()


def kernel() -> float:
    acc = 0.0
    for _ in range(_REPEATS):
        for (a, b), s, r in zip(_SOLVES, _SYMS, _RECTS):
            acc += float(np.abs(np.linalg.solve(a, b)).max())
            acc += float(np.linalg.eigvalsh(s)[0])
            acc += float(np.linalg.svd(r, compute_uv=False)[0])
    return acc


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def scale() -> float:
    """Factor that takes a time measured right after this call to
    seconds at the reference speed."""
    return REFERENCE_S / kernel_seconds()
