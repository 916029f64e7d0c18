#!/usr/bin/env python3
"""Replay the three reference ops whose times ROADMAP item 1 quotes.

    python3 perfbench/reference_ops.py

Not a workload: a one-off cross-check of the harness against the
figures written down before it existed.  Each op calls the library the
way those figures were taken (in process, one call, no CLI or CSV):

* cauchy+ transform, 32 x 128 affine grid, 3001-sample Gaussian
* hardy_maximal, 200 x 161, on a box sampled at 0.01
* radon_values, 16 angles x 64 offsets, on a 241 x 241 disc

and prints each one's REPEATS wall times next to the quoted range as JSON,
with the drift kernel's time around each op (see calibrate.py) and the
wall time scaled by it, which tells a slow host from a slow op.
"""
from __future__ import annotations

import json
import math
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

QUOTED = {"cauchy+ 32x128": (0.67, 0.83), "maximal 200x161": (2.9, 5.9),
          "radon 16x64 on 241^2": (9.6, 11.0)}
REPEATS = 3


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import calibrate
    from covkit import (AffineRep, Fiducial, SampledSignal1D, SampledSignal2D,
                        covariant_transform, hardy_maximal, line_motion,
                        make_grid, radon_values)

    xs = -30.0 + 0.02 * np.arange(3001)
    gauss = SampledSignal1D(-30.0, 0.02, np.exp(-xs ** 2))
    grid = make_grid("affine:a=log:0.1:10:32,b=lin:-5:5:128")
    bx = -4.0 + 0.01 * np.arange(801)
    box = SampledSignal1D(-4.0, 0.01, np.where(np.abs(bx) <= 1.0, 1.0, 0.0))
    px = -1.2 + 0.01 * np.arange(241)
    X, Y = np.meshgrid(px, px)
    disc = SampledSignal2D((-1.2, -1.2), 0.01, 0.01,
                           np.where(X ** 2 + Y ** 2 <= 1.0, 1.0, 0.0))
    motions = [line_motion(t, d)
               for t in np.linspace(0.0, math.pi, 16, endpoint=False)
               for d in np.linspace(-0.85, 0.85, 64)]
    ops = {
        "cauchy+ 32x128": lambda: covariant_transform(
            AffineRep(2.0), Fiducial("cauchy+"), gauss, grid),
        "maximal 200x161": lambda: hardy_maximal(box, "lin:-4:4:161",
                                                 "log:0.05:20:200"),
        "radon 16x64 on 241^2": lambda: radon_values(disc, motions),
    }
    report = {}
    for name, fn in ops.items():
        times, kernel = [], []
        for _ in range(REPEATS):
            drift = calibrate.Drift()
            for _ in range(3):
                drift.sample()
            t0 = perf_counter()
            fn()
            times.append(perf_counter() - t0)
            for _ in range(3):
                drift.sample()
            kernel.append(statistics.median(drift.took))
        lo, hi = QUOTED[name]
        med = statistics.median(times)
        report[name] = {"seconds": times, "median_s": med,
                        "kernel_s": kernel,
                        "scaled_median_s": statistics.median(
                            t * calibrate.REFERENCE_S / k
                            for t, k in zip(times, kernel)),
                        "quoted_s": [lo, hi],
                        "versus_quoted": "within" if lo <= med <= hi
                        else ("faster" if med < lo else "slower")}
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
