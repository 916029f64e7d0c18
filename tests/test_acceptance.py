"""End-to-end acceptance gate.

One test per shipped guarantee, each printing a single summary line with
the measured numbers next to the tolerance it was held to.  Everything
runs at desk scale on the public API only.
"""
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from covkit import (AffineElement, AffineRep, EuclideanMotion, EuclideanRep,
                    Fiducial, InadmissibleVacuumError,
                    check_intertwining, covariant_transform,
                    hardy_grid, hardy_maximal, inverse_haar, inverse_hardy,
                    line_motion, make_grid, mobius_apply,
                    numerical_range_hull, numrange_transform,
                    parse_a_sequence, radon_values, signal_from_function,
                    signal2_from_function, spectral_radius, support_function,
                    Su11Element, UnitaryOrbit)
from covkit.checks import (line_integral_oracle, polygon_signal,
                           random_convex_polygon, smooth_zero_mean_signals)

from conftest import box, gaussian, mexican_hat


def report(line: str) -> None:
    print(line, flush=True)


# ---------------------------------------------------------------------------
# 1. The transform intertwines the group action with left shifts.


def test_criterion_1_intertwining():
    start = time.monotonic()
    rng = np.random.default_rng(11)
    smooth = signal_from_function(
        lambda x: np.exp(-x ** 2 / 2.0) * (1.0 + 0.3 * np.cos(2.0 * x)),
        -50.0, 50.0, 0.01)
    vacuum = gaussian(lo=-8.0, hi=8.0, dx=0.01)
    grid = make_grid("affine:a=log:0.5:2:3,b=lin:-1:1:5")
    pairs = [
        (AffineRep(2.0), Fiducial("cauchy+")),
        (AffineRep(2.0), Fiducial("cauchy-")),
        (AffineRep(2.0), Fiducial("inner", v0=vacuum)),
        (AffineRep(math.inf), Fiducial("avg")),
    ]
    # both sides read the signal's samples on composed frames: 2e-13 is
    # ~13x the worst over generator seeds 1-30 (1.5e-14; 9.3e-15 at 11)
    worst = 0.0
    for rep, fid in pairs:
        for _ in range(20):
            g = AffineElement(math.exp(rng.uniform(-0.7, 0.7)),
                              rng.uniform(-1.0, 1.0))
            res = check_intertwining(rep, fid, smooth, g, grid)
            worst = max(worst, res)
            assert res < 2e-13

    bump = signal2_from_function(
        lambda x, y: np.exp(-(x ** 2 + y ** 2) / 0.25),
        -2.5, 2.5, -2.5, 2.5, 0.01)
    e2_grid = make_grid("e2:theta=lin:-2.5:2.5:2,tx=lin:-0.3:0.3:2,"
                        "ty=lin:-0.3:0.3:2")
    # both sides read the bump at the same points up to the rounding of
    # the composed motions: 1e-14 is ~20x the worst measured, 4.4e-16
    worst_e2 = 0.0
    for _ in range(20):
        g = EuclideanMotion(rng.uniform(-math.pi, math.pi),
                            rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
        res = check_intertwining(EuclideanRep(), Fiducial("radonline"),
                                 bump, g, e2_grid)
        worst_e2 = max(worst_e2, res)
        assert res < 1e-14
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(f"criterion 1 PASS: 100 shifted transforms, worst residual "
           f"{worst:.2e} < 2e-13 (affine) and {worst_e2:.2e} < 1e-14 (E(2)), "
           f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Cauchy functional values against residue calculus.


def test_criterion_2_cauchy_values():
    lorentz = signal_from_function(lambda t: 1.0 / (1.0 + t ** 2),
                                   -300.0, 300.0, 0.01)
    upper = signal_from_function(lambda t: 1.0 / (t + 1j) ** 2,
                                 -300.0, 300.0, 0.01)
    f_plus = complex(Fiducial("cauchy+")(lorentz)[0])
    f_minus = complex(Fiducial("cauchy-")(lorentz)[0])
    annihilated = abs(complex(Fiducial("cauchy-")(upper)[0]))
    assert abs(f_plus - 0.25) < 1e-3
    assert abs(f_minus + 0.25) < 1e-3
    assert annihilated < 2e-3
    report(f"criterion 2 PASS: F+ = {f_plus.real:.6f} (0.25 +- 1e-3), "
           f"F- = {f_minus.real:.6f} (-0.25 +- 1e-3), "
           f"|F-(upper)| = {annihilated:.2e} < 2e-3")


# ---------------------------------------------------------------------------
# 3. Poisson kernel consistency and the sign convention.


def test_criterion_3_poisson_consistency():
    lorentz = signal_from_function(lambda t: 1.0 / (1.0 + t ** 2),
                                   -300.0, 300.0, 0.01)
    poisson = complex(Fiducial("poisson")(lorentz)[0])
    difference = complex(
        Fiducial("combo", c_plus=1.0, c_minus=-1.0)(lorentz)[0])
    summed = abs(complex(
        Fiducial("combo", c_plus=1.0, c_minus=1.0)(lorentz)[0]))
    assert abs(poisson - 0.5) < 2e-3
    assert abs(poisson - difference) < 2e-3
    assert summed < 2e-3
    report(f"criterion 3 PASS: poisson = {poisson.real:.6f} (0.5 +- 2e-3), "
           f"|poisson - combo(1,-1)| = {abs(poisson - difference):.2e}, "
           f"|combo(1,+1)| = {summed:.2e} < 2e-3")


# ---------------------------------------------------------------------------
# 4. Maximal function against the windowed-average closed form.


def test_criterion_4_maximal_closed_form():
    f = box(lo=-4.0, hi=4.0, dx=0.01)
    m = hardy_maximal(f, "lin:-4:4:161", "log:0.05:20:200")
    at0 = float(np.interp(0.0, m.xs, m.values.real))
    at2 = float(np.interp(2.0, m.xs, m.values.real))
    assert abs(at0 - 1.0) < 0.02
    assert abs(at2 - 1.0 / 3.0) < 0.02

    grid = make_grid("affine:a=log:0.05:20:200,b=lin:-4:4:161")
    engine = covariant_transform(AffineRep(math.inf), Fiducial("avg"), f,
                                 grid).values[:, 0].real

    # exact running integral of the piecewise-linear interpolant of |f|
    v = np.abs(f.values).real
    nodes = np.concatenate(([0.0],
                            np.cumsum(0.5 * (v[1:] + v[:-1]) * f.dx)))

    def running(x):
        t = np.clip((x - f.x0) / f.dx, 0.0, len(v) - 1.0)
        i = np.minimum(t.astype(int), len(v) - 2)
        frac = t - i
        fx = v[i] + frac * (v[i + 1] - v[i])
        return nodes[i] + 0.5 * (v[i] + fx) * frac * f.dx

    coords = grid.coords
    a, b = coords[:, 0], coords[:, 1]
    formula = (running(b + a) - running(b - a)) / (2.0 * a)
    gap = float(np.max(np.abs(engine - formula)))
    assert gap <= f.dx
    report(f"criterion 4 PASS: M(0) = {at0:.4f}, M(2) = {at2:.4f} "
           f"(1/3 +- 0.02), formula gap {gap:.2e} <= dx = {f.dx}")


# ---------------------------------------------------------------------------
# 5. Line integrals against chord lengths and brute-force quadrature.


def test_criterion_5_radon_oracles():
    disc = signal2_from_function(
        lambda x, y: np.where(x ** 2 + y ** 2 <= 1.0, 1.0, 0.0),
        -1.2, 1.2, -1.2, 1.2, 0.01)
    thetas = np.linspace(0.0, math.pi, 16, endpoint=False)
    offsets = np.linspace(-0.85, 0.85, 64)
    motions = [line_motion(t, d) for t in thetas for d in offsets]
    vals = radon_values(disc, motions).real
    chords = np.tile(2.0 * np.sqrt(1.0 - offsets ** 2), 16)
    disc_gap = float(np.max(np.abs(vals - chords)))
    assert disc_gap < 3.0 * disc.dx

    rng = np.random.default_rng(5)
    poly = polygon_signal(random_convex_polygon(rng))
    poly_motions = [line_motion(t, d)
                    for t in np.linspace(0.0, math.pi, 16, endpoint=False)
                    for d in np.linspace(-0.8, 0.8, 9)]
    poly_vals = radon_values(poly, poly_motions).real
    oracle = np.array([line_integral_oracle(poly, g) for g in poly_motions])
    poly_gap = float(np.max(np.abs(poly_vals - oracle)))
    assert poly_gap < 3.0 * poly.dx
    report(f"criterion 5 PASS: disc sinogram gap {disc_gap:.4f} and polygon "
           f"gap {poly_gap:.4f}, both < 3 dx = {3.0 * disc.dx}")


# ---------------------------------------------------------------------------
# 6. Wavelet-frame round trips and the admissibility gate.


def test_criterion_6_haar_reconstruction():
    rep = AffineRep(2.0)
    v0 = mexican_hat()
    fid = Fiducial("inner", v0=v0)
    grid = make_grid("affine:a=log:0.12:6:40,b=lin:-12:12:481")
    residuals = []
    for fn in smooth_zero_mean_signals():
        f = signal_from_function(fn, -12.0, 12.0, 0.02)
        w = covariant_transform(rep, fid, f, grid)
        residuals.append(inverse_haar(w, rep, v0, reference=f).residual)
        assert residuals[-1] < 0.05
    with pytest.raises(InadmissibleVacuumError):
        inverse_haar(covariant_transform(
            rep, fid, signal_from_function(smooth_zero_mean_signals()[0],
                                           -12.0, 12.0, 0.02), grid),
            rep, gaussian())
    report(f"criterion 6 PASS: 5 round trips, residuals "
           f"{', '.join(f'{r:.3f}' for r in residuals)} all < 0.05; "
           f"Gaussian vacuum rejected")


# ---------------------------------------------------------------------------
# 7. Hardy-route reconstruction on upper-half-plane rationals.


def test_criterion_7_hardy_reconstruction():
    rationals = (
        lambda t: 1.0 / (t + 1j) ** 2,
        lambda t: 1.0 / ((t + 1j) * (t - 2.0 + 1j)),
        lambda t: 1.0 / (t - 1.0 + 2j) ** 2,
    )
    seq = parse_a_sequence("geo:0.4:0.5:5")
    grid = hardy_grid(seq, "lin:-25:25:10001")
    v0 = signal_from_function(
        lambda x: 1.0 / (2j * math.pi * (x + 1j)), -1500.0, 1500.0, 0.02)
    gains, residuals = [], []
    for fn in rationals:
        f = signal_from_function(fn, -60.0, 60.0, 0.02)
        w = covariant_transform(AffineRep(math.inf), Fiducial("cauchy+"), f,
                            grid)
        ref = signal_from_function(fn, -30.0, 30.0, 0.02)
        rec = inverse_hardy(w, AffineRep(1.0), v0, a_sequence=seq,
                            reference=ref)
        gains.append(rec.scalar_gain)
        residuals.append(rec.residual)
        assert rec.residual < 0.05
    spread = max(abs(g1 - g2) for g1 in gains for g2 in gains)
    mean_mag = sum(abs(g) for g in gains) / len(gains)
    assert spread / mean_mag < 0.05
    report(f"criterion 7 PASS: gains "
           f"{', '.join(f'{g.real:+.4f}{g.imag:+.4f}j' for g in gains)} "
           f"(spread {spread / mean_mag:.2%} < 5%), residuals "
           f"{', '.join(f'{r:.4f}' for r in residuals)} all < 0.05")


# ---------------------------------------------------------------------------
# 8. Operator picture: disc automorphisms and numerical ranges.


def test_criterion_8_operator_suite():
    rng = np.random.default_rng(77)

    def contraction(n=2):
        raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        return raw * (rng.uniform(0.05, 0.95) / np.linalg.norm(raw, 2))

    def motion():
        beta = rng.uniform(-1.5, 1.5) + 1j * rng.uniform(-1.5, 1.5)
        phase = rng.uniform(-math.pi, math.pi)
        return Su11Element(np.exp(1j * phase) * math.sqrt(1 + abs(beta) ** 2),
                           beta)

    worst_radius, worst_comp = 0.0, 0.0
    for _ in range(100):
        a = contraction()
        g, h = motion(), motion()
        worst_radius = max(worst_radius, spectral_radius(mobius_apply(g, a)))
        comp = np.max(np.abs(mobius_apply(g, mobius_apply(h, a))
                             - mobius_apply(g * h, a)))
        worst_comp = max(worst_comp, float(comp))
    assert worst_radius < 1.0 + 1e-10
    assert worst_comp < 1e-10

    thetas = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
    worst_margin = -math.inf
    for _ in range(10):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        herm = rng.normal(size=(3, 3))
        herm = herm + herm.T
        x = rng.normal(size=3) + 1j * rng.normal(size=3)
        x /= np.linalg.norm(x)
        orbit = UnitaryOrbit(herm, x, np.linspace(0.0, 6.0, 64))
        supports = np.array([support_function(a, t) for t in thetas])
        for z in numrange_transform(a, orbit):
            margins = (np.cos(thetas) * z.real
                       + np.sin(thetas) * z.imag) - supports
            worst_margin = max(worst_margin, float(np.max(margins)))
    assert worst_margin <= 1e-9

    hull = numerical_range_hull(
        np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    hull_gap = float(np.max(np.abs(np.abs(hull) - 0.5)))
    assert hull_gap <= 1e-9
    report(f"criterion 8 PASS: 100 contractions (max radius "
           f"{worst_radius:.12f} < 1+1e-10, composition {worst_comp:.1e}), "
           f"640 orbit samples (margin {worst_margin:.1e} <= 1e-9), "
           f"shift hull radius off by {hull_gap:.1e}")


# ---------------------------------------------------------------------------
# 9. Byte-for-byte deterministic check reports.


def test_criterion_9_deterministic_check(tmp_path):
    blobs = []
    for name in ("first.json", "second.json"):
        path = str(tmp_path / name)
        proc = subprocess.run(
            [sys.executable, "-m", "covkit", "check", "--seed", "7",
             "--out", path],
            capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        blobs.append(open(path, "rb").read())
    assert blobs[0] == blobs[1]
    report(f"criterion 9 PASS: two seeded check runs, identical "
           f"{len(blobs[0])}-byte reports")
