"""Seeded property suites behind `covkit check` and the test suite.

Every suite bundles the invariants its module promises, one check per
promise, so a single run certifies the whole build.  All randomness
flows from the seed argument through numpy generators; detail strings
contain only numbers derived from the data, which makes reports
byte-reproducible.
"""
from __future__ import annotations

import cmath
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .fiducials import Fiducial, truncation_budget
from .groups import (AffineElement, EuclideanMotion, Su11Element,
                     element_distance, make_grid, rotation_matrix)
from .inversion import (InadmissibleVacuumError, admissibility_constant,
                        TransformResult, _richardson, _synthesize,
                        haar_pairing, hardy_pairing, inverse_haar,
                        inverse_hardy)
from .operators import (_rotated_tops, mobius_apply, numerical_range_hull,
                        numrange_transform, spectral_radius, support_function,
                        UnitaryOrbit)
from .representations import (AffineRep, EuclideanRep, apply, apply_affine,
                              apply_euclidean)
from .signals import (SampledSignal1D, SampledSignal2D, _common_lattice,
                      evaluate, evaluate2, integrate, lp_norm,
                      read_signal_csv, signal_from_function,
                      signal2_from_function, write_signal_csv)
from .transform import (_inner_rows, _rows, check_intertwining,
                        covariant_transform, hardy_maximal, radon_values,
                        read_transform_csv, write_transform_csv)

_trapz = np.trapezoid


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


def _result(name: str, worst: float, budget: float,
            note: str = "") -> CheckResult:
    tail = f"; {note}" if note else ""
    return CheckResult(name, worst <= budget,
                       f"worst {worst:.3e} vs budget {budget:.1e}{tail}")


# ---------------------------------------------------------------------------
# Shared builders


def gaussian_signal(lo=-30.0, hi=30.0, dx=0.02, width=1.0, center=0.0):
    return signal_from_function(
        lambda x: np.exp(-((x - center) ** 2) / (2.0 * width ** 2)), lo, hi, dx)


def mexican_hat_signal(lo=-12.0, hi=12.0, dx=0.02):
    return signal_from_function(
        lambda x: (1.0 - x ** 2) * np.exp(-x ** 2 / 2.0), lo, hi, dx)


def bump2_signal(lo=-2.0, hi=2.0, dx=0.02, width=0.5):
    return signal2_from_function(
        lambda x, y: np.exp(-(x ** 2 + y ** 2) / (2.0 * width ** 2)),
        lo, hi, lo, hi, dx)


def smooth_zero_mean_signals():
    """Five zero-mean smooth test functions for reconstruction checks.

    All have vanishing integral (odd symmetry or balanced Gaussians), so
    their spectra sit inside the band a bounded dilation window covers.
    """
    return (
        lambda x: (1.0 - x ** 2) * np.exp(-x ** 2 / 2.0),
        lambda x: np.exp(-x ** 2) * np.sin(2.0 * x),
        lambda x: np.exp(-x ** 2 / 2.0) * np.sin(3.0 * x),
        lambda x: np.exp(-x ** 2 / 2.0) - 0.5 * np.exp(-x ** 2 / 8.0),
        lambda x: np.exp(-(x - 1.0) ** 2) * np.sin(2.5 * (x - 1.0)),
    )


def random_convex_polygon(rng: np.random.Generator, n: int = 6) -> np.ndarray:
    """Vertices (counterclockwise) of a convex polygon inside the unit disc:
    points in order along one seeded ellipse about the origin, one in
    each of n equal sectors of its parameter angle (for n >= 5 the
    polygon holds the origin)."""
    semi = rng.uniform(0.45, 0.95, 2)
    t = 2.0 * math.pi * (np.arange(n) + rng.uniform(0.0, 1.0, n)) / n
    return np.stack([semi[0] * np.cos(t), semi[1] * np.sin(t)], axis=1)


def polygon_signal(vertices: np.ndarray, lo=-1.2, hi=1.2, dx=0.01):
    """Indicator of a convex polygon, sampled on a square grid."""
    verts = np.asarray(vertices, dtype=float)
    nxt = np.roll(verts, -1, axis=0)

    def indicator(x, y):
        inside = np.ones(np.broadcast(x, y).shape, dtype=bool)
        for (x0, y0), (x1, y1) in zip(verts, nxt):
            cross = (x1 - x0) * (y - y0) - (y1 - y0) * (x - x0)
            inside &= cross >= 0.0
        return inside.astype(float)

    return signal2_from_function(indicator, lo, hi, lo, hi, dx)


def line_integral_oracle(f: SampledSignal2D, g: EuclideanMotion,
                         half_len: float = 2.5, dt: float = 0.002) -> float:
    """Brute-force quadrature of f along the g-image of the x-axis."""
    t = np.arange(-half_len, half_len + 0.5 * dt, dt)
    rot = rotation_matrix(g.theta)
    px = rot[0, 0] * t + g.tx
    py = rot[1, 0] * t + g.ty
    return float(np.real(_trapz(evaluate2(f, px, py), dx=dt)))


def _random_affine(rng, spread=0.4, shift=1.5) -> AffineElement:
    return AffineElement(math.exp(rng.uniform(-spread, spread)),
                         rng.uniform(-shift, shift))


def _random_e2(rng, shift=0.4) -> EuclideanMotion:
    return EuclideanMotion(rng.uniform(-math.pi, math.pi),
                           rng.uniform(-shift, shift),
                           rng.uniform(-shift, shift))


def _random_su11(rng, spread=1.5) -> Su11Element:
    t = rng.uniform(0.0, spread)
    phi, psi = rng.uniform(-math.pi, math.pi, 2)
    return Su11Element(math.cosh(t) * complex(math.cos(phi), math.sin(phi)),
                       math.sinh(t) * complex(math.cos(psi), math.sin(psi)))


_RANDOM_MAKERS = (_random_affine, _random_e2, _random_su11)


def _random_contraction(rng, n=3) -> np.ndarray:
    raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = spectral_radius(raw)
    return raw * (rng.uniform(0.2, 0.9) / max(rho, 1e-6))


# ---------------------------------------------------------------------------
# groups


def _suite_groups(seed: int) -> list[CheckResult]:
    out = []

    rng = _rng(seed, 101)
    worst = 0.0
    for maker in _RANDOM_MAKERS:
        for _ in range(100):
            g, h, k = maker(rng), maker(rng), maker(rng)
            worst = max(worst, element_distance((g * h) * k, g * (h * k)))
    # 8e-14: ~11x the worst of seeds 1-20 (7.1e-15, seed 5)
    out.append(_result("groups.associativity", worst, 8e-14,
                       "100 random triples per group"))

    rng = _rng(seed, 102)
    worst = 0.0
    for maker in _RANDOM_MAKERS:
        for _ in range(100):
            g = maker(rng)
            worst = max(worst, element_distance(g * g.inverse(),
                                                type(g).identity()))
    # 4e-14: ~11x the worst of seeds 1-20 (3.6e-15, seed 9)
    out.append(_result("groups.inverse_law", worst, 4e-14,
                       "100 random elements per group"))

    rng = _rng(seed, 103)
    worst = 0.0
    for _ in range(100):
        g = _random_su11(rng) * _random_su11(rng)
        worst = max(worst, abs(abs(g.alpha) ** 2 - abs(g.beta) ** 2 - 1.0))
    # 3e-13: ~11x the worst of seeds 1-20 (2.8e-14, seeds 11 and 19)
    out.append(_result("groups.su11_constraint_composition", worst, 3e-13))

    grid = make_grid("affine:a=log:0.02:50:241,b=lin:-10:10:241")
    coords = grid.coords

    def bump(a, b):
        return np.exp(-np.log(a) ** 2 - 0.25 * b ** 2)

    # a seeded element: the read is the bump's mass that g moves across
    # the edges of the a window, 6.2e-8 to 8.5e-6 over seeds 1-20 (worst
    # seed 5); 1e-4 is ~12x that
    g = _random_affine(_rng(seed, 104))
    s_plain = float(np.sum(bump(coords[:, 0], coords[:, 1]) * grid.weights))
    a_t = coords[:, 0] / g.a
    b_t = (coords[:, 1] - g.b) / g.a
    s_moved = float(np.sum(bump(a_t, b_t) * grid.weights))
    rel = abs(s_plain - s_moved) / abs(s_plain)
    out.append(_result("groups.haar_left_invariance", rel, 1e-4,
                       f"sums {s_plain:.6f} vs {s_moved:.6f}"))

    specs = ["affine:a=log:0.1:10:3,b=lin:-1:1:3",
             "e2:theta=lin:-3:3:5,tx=lin:0:1:2,ty=lin:0:1:2"]
    ok = True
    notes = []
    for spec in specs:
        gr = make_grid(spec)
        again = make_grid(gr.spec)
        ok &= (again.spec == gr.spec and len(gr) >= 1
               and bool(np.all(gr.weights > 0))
               and np.array_equal(again.coords, gr.coords)
               and np.array_equal(again.weights, gr.weights))
        notes.append(str(len(gr)))
    out.append(CheckResult("groups.grid_spec_roundtrip", ok,
                           f"element counts {'/'.join(notes)}"))
    return out


# ---------------------------------------------------------------------------
# signals


def _suite_signals(seed: int) -> list[CheckResult]:
    out = []

    rng = _rng(seed, 201)
    f = signal_from_function(lambda x: 0.75 * x - 2.0, -3.0, 3.0, 0.1)
    pts = rng.uniform(-2.9, 2.9, 200)
    worst = float(np.max(np.abs(evaluate(f, pts) - (0.75 * pts - 2.0))))
    # 1e-14: 10x the worst of seeds 1-20 (1.0e-15, seeds 2, 8, 12, 16
    # and 19)
    out.append(_result("signals.affine_interpolation_exact", worst, 1e-14))

    rng = _rng(seed, 202)
    n = 301
    mk = lambda: SampledSignal1D(-1.5, 0.01, rng.normal(size=n)
                                 + 1j * rng.normal(size=n))
    worst = 0.0
    for _ in range(20):
        f1, f2 = mk(), mk()
        al = complex(rng.normal(), rng.normal())
        be = complex(rng.normal(), rng.normal())
        combo = SampledSignal1D(-1.5, 0.01, al * f1.values + be * f2.values)
        lhs = integrate(combo)
        rhs = al * integrate(f1) + be * integrate(f2)
        scale = max(abs(lhs), abs(rhs), 1.0)
        worst = max(worst, abs(lhs - rhs) / scale)
    # 5e-15: ~12x the worst of seeds 1-20 (4.3e-16, seed 2)
    out.append(_result("signals.integrate_linearity", worst, 5e-15))

    rng = _rng(seed, 203)
    f = gaussian_signal(-30.0, 30.0, 0.02)
    lip = float(np.max(np.abs(np.diff(f.values.real))) / f.dx)
    budget = 2.0 * lip * f.dx
    base = lp_norm(f, math.inf)
    worst = 0.0
    for _ in range(20):
        g = AffineElement(math.exp(rng.uniform(0.0, 0.7)), rng.uniform(-2, 2))
        worst = max(worst, abs(lp_norm(apply_affine(AffineRep(math.inf), g, f),
                                       math.inf) - base))
    out.append(_result("signals.sup_norm_rearrangement", worst, budget,
                       f"Lipschitz bound 2*L*dx with L={lip:.3f}"))
    return out


# ---------------------------------------------------------------------------
# representations


def _inner_mask_1d(f: SampledSignal1D, margin: float) -> np.ndarray:
    xs = f.xs
    return (xs >= f.x0 + margin) & (xs <= f.x_end - margin)


def _suite_representations(seed: int) -> list[CheckResult]:
    out = []

    rng = _rng(seed, 301)
    rep = AffineRep(2.0)
    f = gaussian_signal(-30.0, 30.0, 0.02)
    mask = _inner_mask_1d(f, 5.0)
    worst = 0.0
    for _ in range(50):
        g, h = _random_affine(rng), _random_affine(rng)
        two = apply_affine(rep, g, apply_affine(rep, h, f))
        one = apply_affine(rep, g * h, f)
        worst = max(worst, float(np.max(np.abs(two.values - one.values)[mask])))
    # 5e-15: ~11x the worst of seeds 1-30 (4.4e-16); both sides read f's
    # samples on frames moved by g h, composed in two orders
    out.append(_result("representations.affine_homomorphism", worst, 5e-15,
                       "50 random pairs, interior points"))

    rng = _rng(seed, 302)
    # Both sides carry f2's samples, on frames moved by g (h k) and by
    # (g h) k, so they differ by the rounding of the composed motions
    # only; the premove k keeps that rounding from vanishing (h times
    # the identity is h exactly).  Each side is read at the nodes of an
    # interior box.
    rep_e = EuclideanRep()
    f2 = apply_euclidean(rep_e, _random_e2(rng, 0.3),
                         bump2_signal(-2.5, 2.5, 0.02, width=0.5))
    X, Y = np.meshgrid(f2.xs[np.abs(f2.xs) <= 1.0],
                       f2.ys[np.abs(f2.ys) <= 1.0])
    worst = 0.0
    for _ in range(50):
        g, h = _random_e2(rng, 0.3), _random_e2(rng, 0.3)
        two = apply_euclidean(rep_e, g, apply_euclidean(rep_e, h, f2))
        one = apply_euclidean(rep_e, g * h, f2)
        worst = max(worst, float(np.max(np.abs(evaluate2(two, X, Y)
                                               - evaluate2(one, X, Y)))))
    # 1e-14: ~7x the worst of seeds 1-30 (1.3e-15)
    out.append(_result("representations.euclidean_homomorphism", worst, 1e-14,
                       "50 random pairs, interior box"))

    rng = _rng(seed, 304)
    f = gaussian_signal(-30.0, 30.0, 0.02)
    worst = 0.0
    for p in (1.0, 2.0, math.inf):
        rep = AffineRep(p)
        base = lp_norm(f, p)
        for _ in range(15):
            g = _random_affine(rng)
            worst = max(worst, abs(lp_norm(apply_affine(rep, g, f), p) - base))
    # 5e-15: ~11x the worst of seeds 1-30 (4.4e-16)
    out.append(_result("representations.affine_isometry", worst, 5e-15,
                       "p in {1, 2, inf}, 15 random g each"))

    f1 = gaussian_signal(-5.0, 5.0, 0.05)
    ok = apply(AffineRep(2.0), AffineElement.identity(), f1) is f1
    ok &= apply(EuclideanRep(), EuclideanMotion.identity(), f2) is f2
    out.append(CheckResult("representations.identity_fast_path", ok,
                           "identity returns the input object unchanged"))
    return out


# ---------------------------------------------------------------------------
# fiducials


def _suite_fiducials(seed: int) -> list[CheckResult]:
    out = []

    rng = _rng(seed, 401)
    v0 = gaussian_signal(-10.0, 10.0, 0.02)
    linear_1d = [Fiducial("cauchy+"), Fiducial("cauchy-"),
                 Fiducial("combo", c_plus=0.3, c_minus=-0.7j),
                 Fiducial("jump"), Fiducial("poisson"),
                 Fiducial("inner", v0=v0)]
    n = 1001
    mk = lambda: SampledSignal1D(-10.0, 0.02, rng.normal(size=n)
                                 + 1j * rng.normal(size=n))
    worst = 0.0
    for fid in linear_1d:
        f1, f2 = mk(), mk()
        al = complex(rng.normal(), rng.normal())
        be = complex(rng.normal(), rng.normal())
        combo = SampledSignal1D(-10.0, 0.02, al * f1.values + be * f2.values)
        lhs = fid(combo)
        rhs = al * fid(f1) + be * fid(f2)
        scale = max(float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))), 1.0)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))) / scale)
    f2a = bump2_signal(-2.0, 2.0, 0.02)
    f2b = bump2_signal(-2.0, 2.0, 0.02, width=0.3)
    fid = Fiducial("radonline")
    al, be = 1.3 - 0.2j, -0.4 + 1.1j
    comb2 = SampledSignal2D(f2a.origin, f2a.dx, f2a.dy,
                            al * f2a.values + be * f2b.values)
    lhs = fid(comb2)
    rhs = al * fid(f2a) + be * fid(f2b)
    worst = max(worst, float(np.max(np.abs(lhs - rhs)))
                / max(float(np.max(np.abs(lhs))), 1.0))
    # 3e-15: ~13x the worst of seeds 1-20 (2.4e-16, seed 6)
    out.append(_result("fiducials.linearity", worst, 3e-15,
                       "all linear kinds including radon line"))

    rng = _rng(seed, 402)
    avg = Fiducial("avg")
    f = SampledSignal1D(-2.0, 0.01, rng.normal(size=401)
                        + 1j * rng.normal(size=401))
    g = SampledSignal1D(-2.0, 0.01, rng.normal(size=401)
                        + 1j * rng.normal(size=401))
    v_f = float(avg(f)[0].real)
    v_2f = float(avg(SampledSignal1D(-2.0, 0.01, 2.0 * f.values))[0].real)
    homog = abs(v_2f - 2.0 * v_f) / max(v_f, 1.0)
    fg = SampledSignal1D(-2.0, 0.01, f.values + g.values)
    tri = float(avg(fg)[0].real) - (v_f + float(avg(g)[0].real))
    ok = homog < 1e-14 and v_f >= 0.0 and tri <= 1e-12
    out.append(CheckResult("fiducials.interval_average_properties", ok,
                           f"homogeneity defect {homog:.1e}, triangle slack "
                           f"{tri:.3e}"))

    rng = _rng(seed, 403)
    f = SampledSignal1D(-20.0, 0.02, rng.normal(size=2001)
                        + 1j * rng.normal(size=2001))
    jump = Fiducial("jump")(f)
    sum_exact = Fiducial("combo", c_plus=1.0, c_minus=1.0)(f)[0] \
        == jump[0] + jump[1]
    diff_exact = Fiducial("combo", c_plus=1.0, c_minus=-1.0)(f)[0] \
        == jump[0] - jump[1]
    out.append(CheckResult("fiducials.jump_combo_consistency",
                           bool(sum_exact and diff_exact),
                           "combo(1,1) and combo(1,-1) match jump sums exactly"))

    # an upper-Hardy rational amp / (t - pole)^2, its pole below the axis
    # drawn from the seed; the read is the window's truncation alone,
    # 0.70-0.76 of truncation_budget (2.2e-8 to 1.45e-7 over seeds 1-20),
    # so the budget is 10 truncation_budget, ~13x the worst ratio
    rng = _rng(seed, 404)
    pole = complex(rng.uniform(-2.0, 2.0), -rng.uniform(0.5, 2.0))
    amp = complex(rng.normal(), rng.normal())
    f = signal_from_function(lambda t: amp / (t - pole) ** 2, -200.0, 200.0,
                             0.01)
    fid = Fiducial("cauchy-")
    val = abs(complex(fid(f)[0]))
    budget = 10.0 * truncation_budget(fid, f)
    out.append(_result("fiducials.hardy_annihilation", val, budget,
                       "lower functional on an upper-Hardy rational"))
    return out


# ---------------------------------------------------------------------------
# transform


def _intertwining_pairs():
    """The representation/fiducial pairs exercised by the covariance check."""
    gauss = gaussian_signal(-30.0, 30.0, 0.02)
    v_smooth = signal_from_function(
        lambda x: np.exp(-x ** 2 / 2.0) * (1.0 + 0.3 * np.cos(2.0 * x)),
        -30.0, 30.0, 0.02)
    bump = bump2_signal(-2.0, 2.0, 0.02, width=0.5)
    grid_1d = make_grid("affine:a=log:0.6:1.7:3,b=lin:-1:1:4")
    grid_2d = make_grid("e2:theta=lin:-2.5:2.5:2,tx=lin:-0.3:0.3:2,"
                        "ty=lin:-0.3:0.3:2")
    # The affine budgets are ~10x the worst of seeds 1-30, rounded up:
    # 3.1e-15 (cauchy+), 3.0e-15 (cauchy-), 1.6e-14 (inner) and 1.2e-14
    # (avg); both sides read v's samples on composed frames
    return [
        ("affine_p2_cauchy+", AffineRep(2.0), Fiducial("cauchy+"), v_smooth,
         grid_1d, _random_affine, 4e-14),
        ("affine_p2_cauchy-", AffineRep(2.0), Fiducial("cauchy-"), v_smooth,
         grid_1d, _random_affine, 3e-14),
        ("affine_p2_inner", AffineRep(2.0), Fiducial("inner", v0=gauss),
         v_smooth, grid_1d, _random_affine, 2e-13),
        ("affine_pinf_avg", AffineRep(math.inf), Fiducial("avg"), v_smooth,
         grid_1d, _random_affine, 2e-13),
        # 1e-14: ~13x the worst of seeds 1-30 (7.8e-16); the reads on
        # both sides differ by the rounding of composed motions only
        ("e2_radonline", EuclideanRep(), Fiducial("radonline"), bump,
         grid_2d, lambda rng: _random_e2(rng, 0.3), 1e-14),
    ]


def _suite_intertwining(seed: int) -> list[CheckResult]:
    out = []
    for salt, (tag, rep, fid, v, grid, maker, budget) in enumerate(
            _intertwining_pairs()):
        rng = _rng(seed, 501 + salt)
        worst = 0.0
        for _ in range(20):
            g = maker(rng)
            worst = max(worst, check_intertwining(rep, fid, v, g, grid))
        out.append(_result(f"transform.intertwining_{tag}", worst, budget,
                           "20 seeded shifts, exact composed elements"))
    return out


def _suite_transform(seed: int) -> list[CheckResult]:
    out = list(_suite_intertwining(seed))

    f = gaussian_signal(-17.0, 17.0, 0.01)
    a_spec, n_a = "log:0.1:10:41", 41
    ratio = (10.0 / 0.1) ** (1.0 / (n_a - 1))
    k = 4
    a0 = ratio ** k
    b0 = 0.3
    g_inv = AffineElement(a0, b0).inverse()
    moved = apply_affine(AffineRep(math.inf), g_inv, f)
    m_moved = hardy_maximal(moved, "lin:-3:3:101", a_spec)
    m_plain = hardy_maximal(f, "lin:-6:6:201", a_spec)
    xs = m_moved.xs
    ref = evaluate(m_plain, a0 * xs + b0).real
    worst = float(np.max(np.abs(m_moved.values.real - ref)))
    out.append(_result("transform.maximal_intertwines_dilation", worst, 2e-2,
                       f"a-grid ratio {ratio:.4f}, dilation step {k}"))

    rng = _rng(seed, 511)
    poly = polygon_signal(random_convex_polygon(rng), dx=0.01)
    worst = 0.0
    for _ in range(10):
        g = EuclideanMotion(rng.uniform(-math.pi, math.pi),
                            rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
        engine = float(radon_values(poly, [g])[0].real)
        oracle = line_integral_oracle(poly, g)
        worst = max(worst, abs(engine - oracle))
    # 1.5 dx: ~13x the worst of seeds 1-20 (1.14e-3, seed 17)
    out.append(_result("transform.radon_polygon_oracle", worst, 1.5 * poly.dx,
                       "10 random motions vs brute-force line quadrature"))

    rng = _rng(seed, 512)
    a_lo, b_hi = rng.uniform(0.3, 0.8), rng.uniform(1.0, 3.0)
    pole = rng.uniform(-1.0, 1.0)
    grid = make_grid(f"affine:a=log:{a_lo!r}:{3.0 * a_lo!r}:4,"
                     f"b=lin:{-b_hi!r}:{b_hi!r}:5")
    f = signal_from_function(lambda x: 1.0 / (x - complex(pole, -1.1)),
                             -6.0, 6.0, 0.02)
    worst = _engine_vs_rows(("cauchy+", "cauchy-", "combo", "jump",
                             "poisson", "inner", "avg"), f, grid)
    # 5e-14: ~13x the worst of seeds 1-20 (3.9e-15, seed 12)
    out.append(_result("transform.affine_fast_path_reference", worst, 5e-14,
                       "7 fiducial kinds x 2 tail policies vs the "
                       "per-element engine, relative to max |ref|"))

    rng = _rng(seed, 514)
    f, grid, lattice = _lattice_grid(rng)
    pick = slice(None, None, 7)
    worst = _engine_vs_rows(("cauchy+", "cauchy-", "combo", "jump",
                             "poisson", "inner"), f, grid, pick)
    # the inner products again with every dilation that a table bounds
    # summed by strided products, whatever the prices
    rep, fid = AffineRep(2.0), Fiducial("inner",
                                        v0=mexican_hat_signal(-6.0, 6.0, 0.05))
    a, b = grid.coords.T
    _, b_axis, idx = grid.dilation_rows()
    pref = np.array([rep.prefactor(x) for x in (1.0 / a).tolist()])
    got = _inner_rows(fid.v0, f, a, b, pref, (b_axis, idx), strided=True)
    worst = max(worst, _relative_gap(got[pick, None],
                                     _rows(rep, fid, f, grid.elements[pick])))
    # 2e-13: ~21x the worst of seeds 1-20 (9.4e-15, seed 12); the strided
    # sums alone read at most 3.8e-15 (seed 17)
    out.append(_result("transform.lattice_reference",
                       worst if lattice else math.inf, 2e-13,
                       f"b step {_lattice_note(lattice)}; 6 kinds x 2 tail "
                       "policies, and inner by strided products, vs the "
                       "per-element engine at every 7th element, relative "
                       "to max |ref|"))

    rng = _rng(seed, 513)
    pole = complex(rng.uniform(-1.0, 1.0), -rng.uniform(0.9, 1.1))
    f = signal_from_function(lambda x: 1.0 / (x - pole) ** 2, -30.0, 30.0,
                             0.02)
    grid = make_grid(f"affine:a=log:0.1:2.5:8,b=lin:{pole.real - 5.0!r}:"
                     f"{pole.real + 5.0!r}:21")
    a, b = grid.coords.T
    want = 1.0 / (b + 1j * a - pole) ** 2
    rep = AffineRep(math.inf)
    plus = covariant_transform(rep, Fiducial("cauchy+"), f, grid).values[:, 0]
    minus = covariant_transform(rep, Fiducial("cauchy-"), f, grid).values[:, 0]
    scale = float(np.max(np.abs(want)))
    worst = max(float(np.max(np.abs(plus - want))),
                float(np.max(np.abs(minus)))) / scale
    # The budget is the kernel mass of |f| beyond +-30, at most
    # 2 / (2 pi 2 30^2) ~ 1.8e-4 of a value near 1.
    out.append(_result("transform.cauchy_residue_oracle", worst, 2e-4,
                       "cauchy+ of 1/(x - q)^2 on [-30, 30] vs f(b + ia), "
                       "cauchy- vs 0, relative to max |f(b + ia)|"))

    f_small = gaussian_signal(-12.0, 12.0, 0.02, width=0.8)
    extra = signal_from_function(
        lambda x: np.exp(-(x - 1.0) ** 2), -12.0, 12.0, 0.02)
    f_big = SampledSignal1D(-12.0, 0.02,
                            np.abs(f_small.values) + np.abs(extra.values))
    m_small = hardy_maximal(f_small, "lin:-3:3:61", "log:0.2:5:25")
    m_big = hardy_maximal(f_big, "lin:-3:3:61", "log:0.2:5:25")
    worst = float(np.max(m_small.values.real - m_big.values.real))
    out.append(_result("transform.maximal_monotone", worst, 1e-12,
                       "|f| <= |h| propagates to the maximal functions"))
    return out


def _relative_gap(got: np.ndarray, ref: np.ndarray) -> float:
    """max |got - ref| relative to max |ref|."""
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


def _engine_vs_rows(kinds, f: SampledSignal1D, grid,
                    pick=slice(None)) -> float:
    """Worst `_relative_gap` of covariant_transform against the
    per-element engine `_rows` over the fiducial kinds x both tail
    policies, at p = inf for avg and p = 2 for the rest, with a
    Mexican-hat v0 on [-6, 6] for inner.  The engine runs on the whole
    grid; the gap is taken over the elements pick selects."""
    v0 = mexican_hat_signal(-6.0, 6.0, 0.05)
    worst = 0.0
    for kind in kinds:
        rep = AffineRep(math.inf if kind == "avg" else 2.0)
        for tail in ("truncate", "rational-tail"):
            fid = Fiducial(kind, c_plus=1.0 + 0.5j, c_minus=0.3, v0=v0,
                           tail_policy=tail)
            ref = _rows(rep, fid, f, grid.elements[pick])
            got = covariant_transform(rep, fid, f, grid).values[pick]
            worst = max(worst, _relative_gap(got, ref))
    return worst


# ---------------------------------------------------------------------------
# inversion


def _suite_inversion(seed: int) -> list[CheckResult]:
    out = []

    rng = _rng(seed, 601)
    grid = make_grid("affine:a=log:0.5:2:4,b=lin:-2:2:9")
    mk = lambda: TransformResult(grid, rng.normal(size=(len(grid), 1))
                                 + 1j * rng.normal(size=(len(grid), 1)))
    w1, w2 = mk(), mk()
    lhs = haar_pairing(w1, w2)
    rhs = haar_pairing(w2, w1)
    ok = lhs == complex(rhs.real, -rhs.imag)
    out.append(CheckResult("inversion.haar_pairing_conjugate_symmetry", ok,
                           "bitwise equality of the conjugated reductions"))

    try:
        c = admissibility_constant(mexican_hat_signal())
        gate_note = f"mexican hat constant {c:.5f} (exact pi)"
        gate_ok = abs(c - math.pi) < 0.02 * math.pi
    except InadmissibleVacuumError:
        gate_ok, gate_note = False, "mexican hat wrongly rejected"
    try:
        admissibility_constant(gaussian_signal(-12.0, 12.0, 0.02))
        gate_ok, gate_note = False, gate_note + "; gaussian wrongly accepted"
    except InadmissibleVacuumError:
        pass
    out.append(CheckResult("inversion.admissibility_gate", gate_ok, gate_note))

    v0 = mexican_hat_signal()
    rep = AffineRep(2.0)
    grid = make_grid("affine:a=log:0.12:6:40,b=lin:-12:12:481")
    worst = 0.0
    # Zero-mean inputs: a bounded dilation window reproduces only the
    # frequency band it covers, and nonzero mean lives outside every
    # such band.
    for sig_fn in smooth_zero_mean_signals():
        f = signal_from_function(sig_fn, -12.0, 12.0, 0.02)
        w = covariant_transform(rep, Fiducial("inner", v0=v0), f, grid)
        rec = inverse_haar(w, rep, v0, reference=f)
        worst = max(worst, rec.residual)
    out.append(_result("inversion.haar_roundtrip", worst, 0.05,
                       "relative L2 residual, five zero-mean smooth signals"))

    grid = make_grid("affine:a=log:0.1:0.8:4,b=lin:-6:6:241")
    n_a, n_b = 4, 241
    b_vals = grid.axis("b").values()
    prof = np.exp(-b_vals ** 2) * (1.0 + 0.2j)
    surf1 = np.outer(1.0 + 0.1 * np.arange(n_a), prof)
    surf2 = np.outer(np.ones(n_a), np.exp(-(b_vals - 0.5) ** 2 / 2.0))
    shift = 7
    w1 = TransformResult(grid, surf1.reshape(-1, 1))
    w2 = TransformResult(grid, surf2.reshape(-1, 1))
    w1s = TransformResult(grid, np.roll(surf1, shift, axis=1).reshape(-1, 1))
    w2s = TransformResult(grid, np.roll(surf2, shift, axis=1).reshape(-1, 1))
    p_plain = hardy_pairing(w1, w2)
    p_shift = hardy_pairing(w1s, w2s)
    worst = abs(p_plain.limit - p_shift.limit)
    out.append(_result("inversion.hardy_pairing_shift_invariance", worst,
                       1e-10, "joint b-translation by 7 grid steps"))

    rng = _rng(seed, 605)
    grid = make_grid("affine:a=log:0.5:2:4,b=lin:-2:2:21")
    v0 = mexican_hat_signal(-10.0, 10.0, 0.02)
    mk = lambda: TransformResult(grid, rng.normal(size=(len(grid), 1))
                                 + 1j * rng.normal(size=(len(grid), 1)))
    w1, w2 = mk(), mk()
    al, be = 0.7 - 0.4j, -1.1 + 0.2j
    w3 = TransformResult(grid, al * w1.values + be * w2.values)
    rep2 = AffineRep(2.0)
    r1 = inverse_haar(w1, rep2, v0).result.values
    r2 = inverse_haar(w2, rep2, v0).result.values
    r3 = inverse_haar(w3, rep2, v0).result.values
    scale = max(float(np.max(np.abs(r3))), 1.0)
    worst = float(np.max(np.abs(al * r1 + be * r2 - r3))) / scale

    gauss = gaussian_signal(-8.0, 8.0, 0.02)
    grid_h = make_grid("affine:a=log:0.05:0.4:4,b=lin:-2:2:41")
    mkh = lambda: TransformResult(grid_h, rng.normal(size=(len(grid_h), 1))
                                  + 1j * rng.normal(size=(len(grid_h), 1)))
    h1, h2 = mkh(), mkh()
    h3 = TransformResult(grid_h, al * h1.values + be * h2.values)
    rep1 = AffineRep(1.0)
    s1 = inverse_hardy(h1, rep1, gauss).result.values
    s2 = inverse_hardy(h2, rep1, gauss).result.values
    s3 = inverse_hardy(h3, rep1, gauss).result.values
    scale = max(float(np.max(np.abs(s3))), 1.0)
    worst = max(worst, float(np.max(np.abs(al * s1 + be * s2 - s3))) / scale)
    # 5e-15: ~11x the worst of seeds 1-20 (4.4e-16, seed 10)
    out.append(_result("inversion.linearity", worst, 5e-15,
                       "both inverse maps, random transform data"))

    rng = _rng(seed, 607)
    grid = make_grid("affine:b=lin:-3:3:25,a=log:0.2:2:5")
    w = TransformResult(grid, rng.normal(size=(len(grid), 1))
                        + 1j * rng.normal(size=(len(grid), 1)))
    # Haar route at p = 2 onto v0's grid
    v0 = mexican_hat_signal(-8.0, 8.0, 0.02)
    got = inverse_haar(w, AffineRep(2.0), v0).result.values
    worst = _relative_gap(got, _haar_reference(w, 2.0, v0, v0))
    # Hardy route at p = 1 onto a finer grid
    v0 = gaussian_signal(-8.0, 8.0, 0.02)
    out_grid = gaussian_signal(-4.0, 4.0, 0.01)
    got = inverse_hardy(w, AffineRep(1.0), v0,
                        out_grid=out_grid).result.values
    worst = max(worst, _relative_gap(got, _hardy_reference(w, v0, out_grid)))
    # 3e-14: ~12x the worst of seeds 1-20 (2.4e-15, seed 13)
    out.append(_result("inversion.synthesis_reference", worst, 3e-14,
                       "both routes vs the per-element sum on a b,a grid, "
                       "relative to max |ref|"))

    rng = _rng(seed, 608)
    target, grid, lattice = _lattice_grid(rng)
    w = TransformResult(grid, rng.normal(size=(len(grid), 1))
                        + 1j * rng.normal(size=(len(grid), 1)))
    v0 = mexican_hat_signal(-8.0, 8.0, 0.02)
    got = inverse_haar(w, AffineRep(2.0), v0, out_grid=target).result.values
    worst = _relative_gap(got, _haar_reference(w, 2.0, v0, target))
    got = inverse_hardy(w, AffineRep(1.0), v0,
                        out_grid=target).result.values
    worst = max(worst, _relative_gap(got, _hardy_reference(w, v0, target)))
    # the synthesis again with every dilation that a table bounds summed
    # by strided products, whatever the prices
    a, b = grid.coords.T
    _, b_axis, idx = grid.dilation_rows()
    coef = w.values[:, 0]
    got = _synthesize(v0, target, a, b, coef, (b_axis, idx), strided=True)
    worst = max(worst, _relative_gap(
        got, _per_element_synthesis(v0, target, a, b, coef)))
    # 3e-13: ~12x the worst of seeds 1-20 (2.5e-14, seed 4); the strided
    # sums alone read at most 1.1e-14 (seed 15)
    out.append(_result("inversion.lattice_reference",
                       worst if lattice else math.inf, 3e-13,
                       f"b step {_lattice_note(lattice)}; both routes, and "
                       "a synthesis by strided products, vs the per-element "
                       "sum, relative to max |ref|"))
    return out


# b steps of the lattice check lines, in units of the node step: whole
# multiples, whole fractions and ratios p/q with both p and q above 1.
_LATTICE_RATIOS = (1, 3, 8, 1 / 2, 1 / 4, 5 / 2, 2 / 5, 30 / 7)


def _lattice_grid(rng: np.random.Generator):
    """A signal on [-12, 12] of step dx = 0.01, an affine grid whose b
    step is a seeded ratio of dx from _LATTICE_RATIOS, in a seeded axis
    order, and the lattice `_common_lattice` finds for them.

    The grid is 4 x 601 on the signal's 2401 nodes: long enough in b and
    in nodes that the path rule of `signals._plan` takes the FFT lattice
    at the largest dilation for every kind and ratio (the tests pin
    this).  The Cauchy and Poisson kernels at 30/7 are the closest call:
    their 34,801-point lattice costs 5.22 ms at 150 ns a point
    (_LATTICE_POINT_NS) against 5.77 ms for the 601 x 2401 direct reads
    at 4 ns (_KERNEL_READ_NS), a margin of about 10%; the lattice keeps
    paying down to 3.62 ns a read.  At 30/7 a kernel sum pays on a
    lattice only with more than 30 x 150 / 4 = 1125 nodes, whatever the
    b length: on 1201 nodes it would need more than 4130 translations,
    and could never clear a 10% margin."""
    dx = 0.01
    pole = complex(rng.uniform(-1.0, 1.0), -rng.uniform(0.9, 1.1))
    f = signal_from_function(lambda x: 1.0 / (x - pole), -12.0, 12.0, dx)
    ratio = _LATTICE_RATIOS[rng.integers(len(_LATTICE_RATIOS))]
    n_b = 601
    lo = rng.uniform(-2.0, -1.0) - 0.5 * (n_b - 1) * ratio * dx
    hi = lo + (n_b - 1) * ratio * dx
    axes = [f"a=log:{rng.uniform(0.1, 0.3)!r}:{rng.uniform(1.0, 3.0)!r}:4",
            f"b=lin:{lo!r}:{hi!r}:{n_b}"]
    grid = make_grid("affine:" + ",".join(axes[::rng.choice([1, -1])]))
    return f, grid, _common_lattice(grid.axis("b"), f.x0, f.dx, f.n)


def _lattice_note(lattice) -> str:
    if not lattice:
        return "off every lattice"
    _, kb, kx, _ = lattice
    return f"{kb}/{kx} of the node step"


def _per_element_synthesis(v0: SampledSignal1D, target: SampledSignal1D,
                           a, b, coef) -> np.ndarray:
    """sum_e coef_e * v0((x - b_e) / a_e) on target's nodes, one
    full-length read per element."""
    acc = np.zeros(target.n, dtype=complex)
    for ae, be, ce in zip(a, b, coef):
        acc += ce * evaluate(v0, (target.xs - be) / ae)
    return acc


def _haar_reference(w: TransformResult, p: float, v0: SampledSignal1D,
                    target: SampledSignal1D) -> np.ndarray:
    """`inverse_haar` at exponent p onto target's nodes, one element at
    a time: sum_e W_e weight_e a_e^(-1/p) v0((x - b_e) / a_e) / C, C
    the admissibility constant of v0."""
    a, b = w.grid.coords.T
    coef = w.values[:, 0] * w.grid.weights * a ** (-1.0 / p)
    return _per_element_synthesis(v0, target, a, b, coef) / \
        admissibility_constant(v0)


def _hardy_reference(w: TransformResult, v0: SampledSignal1D,
                     target: SampledSignal1D) -> np.ndarray:
    """`inverse_hardy` at p = 1 onto target's nodes, one element at a
    time: at each dilation a_k, the sum of W bw v0((x - b) / a_k) / a_k
    over its elements (bw the b cell widths), then `_richardson`."""
    a, b = w.grid.coords.T
    # in either axis order each dilation's elements come in b order
    a_desc = np.unique(a)[::-1]
    bw = w.grid.axis("b").cell_widths()
    levels = np.array([
        _per_element_synthesis(v0, target, a[a == ak], b[a == ak],
                               w.values[a == ak, 0] * bw) / ak
        for ak in a_desc])
    return _richardson(a_desc, levels)[0]


# ---------------------------------------------------------------------------
# operators


def _point_in_hull_slack(z: complex, hull: np.ndarray) -> float:
    """Worst signed distance of z outside the convex hull boundary."""
    pts = np.concatenate([hull, hull[:1]])
    worst = -math.inf
    for p0, p1 in zip(pts[:-1], pts[1:]):
        ex, ey = p1.real - p0.real, p1.imag - p0.imag
        norm = math.hypot(ex, ey)
        if norm < 1e-15:
            continue
        cross = ex * (z.imag - p0.imag) - ey * (z.real - p0.real)
        worst = max(worst, -cross / norm)
    return worst


def _per_direction_numrange(a: np.ndarray, thetas) -> tuple:
    """Supports and hull points one direction at a time: support_function
    and <A v, v> of the top eigenvector v of the rotated Hermitian part."""
    supports = np.array([support_function(a, th) for th in thetas])
    points = np.empty(len(thetas), dtype=complex)
    for k, th in enumerate(thetas):
        rot = cmath.exp(-1j * th) * a
        v = np.linalg.eigh(0.5 * (rot + rot.conj().T))[1][:, -1]
        points[k] = np.vdot(v, a @ v)
    return supports, points


def _suite_operators(seed: int) -> list[CheckResult]:
    out = []

    rng = _rng(seed, 701)
    worst = 0.0
    for _ in range(100):
        a = _random_contraction(rng)
        g = _random_su11(rng)
        worst = max(worst, spectral_radius(mobius_apply(g, a)) - 1.0)
    out.append(_result("operators.mobius_contraction", worst, 1e-10,
                       "100 random contractions stay strict"))

    rng = _rng(seed, 702)
    a = _random_contraction(rng)
    ident_ok = bool(np.array_equal(mobius_apply(Su11Element.identity(), a), a))
    worst = 0.0
    for _ in range(50):
        a = _random_contraction(rng)
        g1, g2 = _random_su11(rng, 1.0), _random_su11(rng, 1.0)
        lhs = mobius_apply(g1, mobius_apply(g2, a))
        rhs = mobius_apply(g1 * g2, a)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    out.append(CheckResult(
        "operators.mobius_group_action", ident_ok and worst <= 1e-10,
        f"identity exact: {ident_ok}; composition worst {worst:.3e}"))

    rng = _rng(seed, 703)
    raw = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h = 0.5 * (h + h.conj().T)
    x = rng.normal(size=3) + 1j * rng.normal(size=3)
    x = x / np.linalg.norm(x)
    orbit = UnitaryOrbit(h, x, np.linspace(0.0, 6.0, 64))
    forms = numrange_transform(raw, orbit)
    hull = numerical_range_hull(raw, 720)
    worst = max(_point_in_hull_slack(complex(z), hull) for z in forms)
    out.append(_result("operators.numrange_containment", worst, 1e-9,
                       "64 orbit samples inside the support-function hull"))

    dt = float(orbit.t_grid[1] - orbit.t_grid[0])
    bound = 2.0 * np.linalg.norm(raw, 2) * np.linalg.norm(h, 2) * dt + 1e-9
    worst = float(np.max(np.abs(np.diff(forms))))
    out.append(_result("operators.numrange_continuity", worst, float(bound),
                       "successive samples vs operator-norm Lipschitz bound"))

    rng = _rng(seed, 704)
    thetas = np.linspace(0.0, 2.0 * math.pi, 360, endpoint=False)
    worst = 0.0
    for n in (2, 7, 33):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        ref_supports, ref_points = _per_direction_numrange(a, thetas)
        scale = max(1.0, float(np.linalg.norm(a, 2)))
        for got in (_rotated_tops(a, 360, False)[1],
                    _rotated_tops(a, 360, True)[1]):
            worst = max(worst, float(np.max(np.abs(got - ref_supports))) / scale)
        got = numerical_range_hull(a, 360)
        worst = max(worst, float(np.max(np.abs(got - ref_points))) / scale)
    out.append(_result("operators.batched_reference", worst, 1e-13,
                       "supports and hull of random 2x2, 7x7 and 33x33 "
                       "matrices at 360 directions vs one direction at a "
                       "time, relative to max(1, |A|_2)"))
    return out


# ---------------------------------------------------------------------------
# cli


def _suite_cli(seed: int) -> list[CheckResult]:
    out = []
    rep = AffineRep(2.0)
    fid = Fiducial("cauchy+")
    f = gaussian_signal(-10.0, 10.0, 0.04)
    grid = make_grid("affine:a=log:0.5:2:4,b=lin:-2:2:8")
    res = covariant_transform(rep, fid, f, grid)

    with tempfile.TemporaryDirectory() as tmp:
        p1 = os.path.join(tmp, "w1.csv")
        p2 = os.path.join(tmp, "w2.csv")
        write_transform_csv(res, p1)
        write_transform_csv(covariant_transform(rep, fid, f, grid), p2)
        with open(p1, "rb") as fh:
            b1 = fh.read()
        with open(p2, "rb") as fh:
            b2 = fh.read()
        out.append(CheckResult("cli.byte_determinism", b1 == b2,
                               f"two identical runs, {len(b1)} bytes each"))

        back = read_transform_csv(p1)
        ok = bool(np.allclose(back.values, res.values, rtol=0, atol=0))
        ok &= back.grid.spec == grid.spec

        ps = os.path.join(tmp, "sig.csv")
        write_signal_csv(f, ps)
        f_back = read_signal_csv(ps)
        ok &= bool(np.array_equal(f_back.values, f.values))
        ok &= f_back.x0 == f.x0 and f_back.dx == f.dx
        out.append(CheckResult("cli.csv_roundtrip", ok,
                               "transform and signal CSVs re-read exactly"))

    missing = [name for name in ("groups", "signals", "representations",
                                 "fiducials", "transform", "inversion",
                                 "operators", "cli") if name not in SUITES]
    out.append(CheckResult("cli.suite_coverage", not missing,
                           "every module has a property suite"
                           + (f"; missing {missing}" if missing else "")))
    return out


# ---------------------------------------------------------------------------
# Registry and report assembly


SUITES = {
    "groups": _suite_groups,
    "signals": _suite_signals,
    "representations": _suite_representations,
    "fiducials": _suite_fiducials,
    "transform": _suite_transform,
    "inversion": _suite_inversion,
    "operators": _suite_operators,
    "cli": _suite_cli,
    "intertwining": _suite_intertwining,
}

_ALL = ("groups", "signals", "representations", "fiducials", "transform",
        "inversion", "operators", "cli")


def available_suites() -> tuple[str, ...]:
    return tuple(SUITES) + ("all",)


def _suite_names(names) -> list[str]:
    """The suites names asks for, "all" expanded, each once in order;
    ValueError on a name that is no suite."""
    wanted = []
    for name in names:
        if name == "all":
            wanted.extend(_ALL)
        elif name in SUITES:
            wanted.append(name)
        else:
            raise ValueError(f"unknown check suite {name!r}; "
                             f"pick from {', '.join(available_suites())}")
    seen = set()
    return [n for n in wanted if not (n in seen or seen.add(n))]


def run_suites(names, seed: int = 0) -> dict:
    """Run the named suites and assemble a JSON-ready report.

    The report carries one entry per check (name, passed, detail) so a
    reader can trace every module promise to its verdict.
    """
    ordered = _suite_names(names)
    suites = {}
    n_checks = n_failed = 0
    for name in ordered:
        results = SUITES[name](seed)
        n_checks += len(results)
        n_failed += sum(not r.passed for r in results)
        suites[name] = {
            "passed": bool(all(r.passed for r in results)),
            "checks": [{"name": r.name, "passed": bool(r.passed),
                        "detail": r.detail} for r in results],
        }
    traceability = {name: [c["name"] for c in suites[name]["checks"]]
                    for name in suites}
    return {
        "seed": seed,
        "suites": suites,
        "traceability": traceability,
        "n_checks": n_checks,
        "n_failed": n_failed,
        "passed": n_failed == 0,
    }
