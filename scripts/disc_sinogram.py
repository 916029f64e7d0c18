"""Sinogram of the unit disc and its chord-length reference.

Every line at signed distance d from the origin meets the unit disc in
a chord of length 2 * sqrt(1 - d^2) regardless of angle, so the disc is
the one phantom whose sinogram is known exactly and angle-independent.
The script rasterises the disc, sweeps a theta/offset grid through the
line-integral engine, writes the sinogram CSV, and prints the worst
deviation from the chord formula.
"""
from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from covkit import line_motion, radon_values, signal2_from_function


def disc(dx: float):
    return signal2_from_function(
        lambda x, y: np.where(x ** 2 + y ** 2 <= 1.0, 1.0, 0.0),
        -1.2, 1.2, -1.2, 1.2, dx)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dx", type=float, default=0.01)
    ap.add_argument("--n-theta", type=int, default=16)
    ap.add_argument("--n-offset", type=int, default=64)
    ap.add_argument("--offset-max", type=float, default=0.85)
    ap.add_argument("--out", default="disc_sinogram.csv")
    ns = ap.parse_args()

    f = disc(ns.dx)
    thetas = np.linspace(0.0, np.pi, ns.n_theta, endpoint=False)
    offsets = np.linspace(-ns.offset_max, ns.offset_max, ns.n_offset)

    motions = [line_motion(t, d) for t in thetas for d in offsets]
    vals = radon_values(f, motions).real.reshape(ns.n_theta, ns.n_offset)
    chord = 2.0 * np.sqrt(1.0 - offsets ** 2)

    worst = float(np.max(np.abs(vals - chord[None, :])))
    print(f"{ns.n_theta} angles x {ns.n_offset} offsets, pixel {ns.dx}")
    print(f"worst |line integral - chord length| = {worst:.4f} "
          f"({worst / ns.dx:.2f} pixels)")

    with open(ns.out, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["theta", "offset", "value", "chord"])
        # Python floats, which csv spells by their shortest round-trip
        # repr (numpy 2 scalars repr as "np.float64(...)")
        for t, row in zip(thetas.tolist(), vals.tolist()):
            for d, v, c in zip(offsets.tolist(), row, chord.tolist()):
                w.writerow([t, d, v, c])
    print(f"wrote {ns.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
