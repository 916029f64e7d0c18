"""A fixed unit of work that measures how fast this machine runs right now.

Shared hosts drift: on the 2-CPU machine this benchmark was tuned on,
every covkit op and the interpreter start-up slowed by up to 1.7x for
minutes at a time, and by 10-20% from one 5 s window to the next.  The
slowdown showed in thread CPU time as much as in wall time, so it is the
CPU itself running slower, not the process waiting.  The kernel below
mixes the kinds of work covkit's ops do (small-array numpy calls in an
interpreter loop, float formatting and parsing, bilinear reads over a
large image, small Hermitian eigenproblems); the runner samples it
between ops and scales each measured time by REFERENCE_S over the local
kernel time, so a time is given in seconds of a machine on which the
kernel takes REFERENCE_S.
"""
from __future__ import annotations

from time import perf_counter

import numpy as np

REFERENCE_S = 0.015
SAMPLE_EVERY_S = 0.5
NEAREST = 5  # samples whose median gives the scale at one moment

_XS = np.linspace(-1.0, 1.0, 2000)
_IMG = np.cos(np.add.outer(np.arange(241.0), np.arange(241.0)) * 0.01) + 0j
_AT = np.linspace(0.0, 239.0, 241 * 241).reshape(241, 241)
_HERM = np.add.outer(np.arange(8.0), np.arange(8.0)) + 1j * np.subtract.outer(
    np.arange(8.0), np.arange(8.0))


def kernel() -> float:
    acc = 0.0
    for i in range(150):  # the per-element engine: small numpy calls
        v = np.interp(_XS * (1.0 + i * 1e-3), _XS, _XS) * (1.0 + 1j)
        acc += float(np.abs(np.trapezoid(v / (_XS - 1j), dx=1e-3)))
    text = ",".join(format(x, ".17g") for x in _XS)  # CSV writing/reading
    acc += sum(float(t) for t in text.split(","))
    for _ in range(2):  # bilinear reads over a rotated image
        ix = _AT.astype(int)
        frac = _AT - ix
        acc += float(np.abs(((1 - frac) * _IMG[ix, ix.T]
                             + frac * _IMG[ix + 1, ix.T]).sum()))
    for k in range(60):  # small Hermitian eigenproblems
        acc += float(np.linalg.eigvalsh(_HERM * (1.0 + k))[-1])
    return acc


class Drift:
    """Kernel samples taken through a run, and the scale they imply."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self) -> None:
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.at.append(0.5 * (t0 + t1))
        self.took.append(t1 - t0)

    def tick(self) -> None:
        """Sample when SAMPLE_EVERY_S has passed since the last sample."""
        if not self.at or perf_counter() - self.at[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def scale(self, at: float) -> float:
        """REFERENCE_S over the median kernel time of the NEAREST samples
        taken nearest to `at`."""
        at_arr = np.asarray(self.at)
        idx = np.argsort(np.abs(at_arr - at))[:NEAREST]
        return REFERENCE_S / float(np.median(np.asarray(self.took)[idx]))
