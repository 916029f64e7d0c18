"""Numerical-range sampling along a unitary orbit.

Takes the 2x2 nilpotent shift, whose numerical range is the closed disc
of radius 1/2, samples quadratic forms <A u(t) x, u(t) x> along the
orbit u(t) = exp(i t H) of a Hermitian generator, and compares the
supporting-line hull of the full range with the orbit samples.  All
orbit points must lie inside the hull, and for the shift the hull
boundary must sit at radius 1/2 to rounding accuracy.
"""
from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from covkit import UnitaryOrbit, numerical_range_hull, numrange_transform


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-t", type=int, default=240)
    ap.add_argument("--n-theta", type=int, default=720)
    ap.add_argument("--orbit-out", default="numrange_orbit.csv")
    ap.add_argument("--hull-out", default="numrange_hull.csv")
    ns = ap.parse_args()

    a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    h = np.array([[1.0, 0.5], [0.5, -1.0]], dtype=complex)
    x = np.array([1.0, 0.0], dtype=complex)

    t_vals = np.linspace(0.0, 2.0 * np.pi, ns.n_t)
    forms = numrange_transform(a, UnitaryOrbit(h, x, t_vals))
    hull = numerical_range_hull(a, n_theta=ns.n_theta)

    radii = np.abs(hull)
    print(f"hull boundary radius: min {radii.min():.12f} "
          f"max {radii.max():.12f} (exact 0.5)")
    print(f"orbit samples: {len(forms)}, max |z| = {np.abs(forms).max():.6f}")

    # containment of every orbit sample in the hull, via support functions
    angles = np.linspace(0.0, 2.0 * np.pi, ns.n_theta, endpoint=False)
    support = np.max(np.real(hull[None, :] *
                             np.exp(-1j * angles)[:, None]), axis=1)
    probe = np.real(forms[None, :] * np.exp(-1j * angles)[:, None])
    slack = float(np.max(probe - support[:, None]))
    print(f"worst containment slack: {slack:.3e} (should be <= ~1e-9)")

    with open(ns.orbit_out, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "re", "im"])
        # Python floats, which csv spells by their shortest round-trip
        # repr (numpy 2 scalars repr as "np.float64(...)")
        for t, z in zip(t_vals.tolist(), forms.tolist()):
            w.writerow([t, z.real, z.imag])
    with open(ns.hull_out, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["re", "im"])
        for z in hull.tolist():
            w.writerow([z.real, z.imag])
    print(f"wrote {ns.orbit_out} and {ns.hull_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
