"""The benchmark's four workloads: seeded inputs, CLI ops and their oracles.

A workload is a pool of CLI invocations ("ops") built from a seed.  The
runner writes the pool's input files, then calls `covkit.cli.main` on
every op in pool order, pass after pass.  Each op carries an oracle that
turns its first-pass output files into one relative error:

    residual = max |output - oracle| / scale

where scale is the largest oracle magnitude of that op (for a Cauchy
read that should vanish, the magnitude of its non-vanishing partner).

Seeds move the physical parameters (poles, phases, widths, centres,
polygons, matrices, group elements, angle offsets); the strata of each
pool (grid shapes and sizes, signal lengths, pixel pitches, line counts,
which op meets which) are fixed.  The work per pass, and so the timing
medians, and the geometry that sets residual_max then stay the same
from seed to seed while no two seeds run the same numbers.  Comments at
the strata say what each one pins down.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import files

WORKLOADS = ("affine-scan", "radon-sinogram", "roundtrip", "operator-orbits")


@dataclass
class Op:
    """One CLI invocation.  argv paths are absolute inside the work dir."""

    kind: str
    argv: list[str]
    outputs: tuple[Path, ...]
    units: int
    oracle: Callable[[list[Path]], float]
    tolerance: float


@dataclass
class Pool:
    """A workload instance: input files to write, then ops to run."""

    spec: dict
    inputs: list[tuple[Path, Callable[[Path], None]]] = field(default_factory=list)
    ops: list[Op] = field(default_factory=list)

    def write_inputs(self) -> None:
        for path, writer in self.inputs:
            writer(path)


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def relative_error(got, want, scale: float | None = None) -> float:
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    if got.shape != want.shape or not np.all(np.isfinite(got)):
        return math.inf
    if scale is None:
        scale = float(np.max(np.abs(want)))
    return float(np.max(np.abs(got - want))) / scale


def _num(v: float) -> str:
    """Short decimal for spec strings; the oracle re-reads what was run."""
    return f"{v:.6g}"


def build(workload: str, seed: int, size: str, workdir: Path) -> Pool:
    """The pool of `workload` (one of WORKLOADS) for a seed, at size
    "full" or "smoke", with its files under workdir."""
    (workdir / "in").mkdir(parents=True, exist_ok=True)
    (workdir / "out").mkdir(parents=True, exist_ok=True)
    builder = {"affine-scan": _affine_scan,
               "radon-sinogram": _radon_sinogram,
               "roundtrip": _roundtrip,
               "operator-orbits": _operator_orbits}[workload]
    return builder(_rng(seed, workload), size == "smoke", workdir)


def _affine_grid_oracle(paths, want_fn, scale_fn=None) -> float:
    header, data = files.read_table(paths[0])
    a = files.column(header, data, "a")
    b = files.column(header, data, "b")
    got = files.complex_columns(header, data)
    want = want_fn(a, b)
    if want.ndim == 1:
        want = want[:, None]
    scale = scale_fn(a, b) if scale_fn else None
    return relative_error(got, want, scale)


# ---------------------------------------------------------------------------
# Closed forms

def rational(amp, pole):
    """Upper-Hardy rational amp/(z - pole)^2, pole below the real axis,
    so its Cauchy integral at z in the upper half-plane is the function
    itself and its lower Cauchy integral vanishes."""
    return lambda z: amp / (z - pole) ** 2


def lorentz(y0, c):
    return lambda x: y0 / (math.pi * ((x - c) ** 2 + y0 ** 2))


def gaussian(s, c):
    return lambda x: np.exp(-(x - c) ** 2 / (2.0 * s * s))


def mexhat(x):
    return (1.0 - x ** 2) * np.exp(-x ** 2 / 2.0)


def gauss_mexhat(a, d, s):
    """integral of exp(-(a t + d)^2 / (2 s^2)) (1 - t^2) exp(-t^2/2) dt.

    Analytic in d, so a complex step in d differentiates it exactly.
    """
    A = a * a / (2.0 * s * s) + 0.5
    B = a * d / (s * s)
    C = d * d / (2.0 * s * s)
    mu = -B / (2.0 * A)
    return np.sqrt(math.pi / A) * np.exp(B * B / (4.0 * A) - C) * (
        1.0 - mu * mu - 1.0 / (2.0 * A))


def _pref(a, p: str):
    return np.sqrt(a) if p == "2" else np.ones_like(a)


# ---------------------------------------------------------------------------
# affine-scan

# (dilations, translations) strata of about _ELEMENTS elements, from
# few-a x many-b to many-a x few-b: each fiducial meets a few-a grid at
# p=2 and a many-a grid at p=inf, and two signal lengths of 1k..6k.
# Shapes and sizes are fixed, not seeded: the largest residual over a
# grid depends on which (a, b) the grid samples, and dealing shapes by
# seed moved residual_max by 13% from seed to seed.
_ELEMENTS = 1024
_SHAPES = ((4, 256), (6, 171), (8, 128), (11, 93), (16, 64), (22, 47),
           (32, 32), (45, 23), (64, 16), (90, 11), (128, 8), (181, 6))
_LENGTHS = (1000, 2000, 3000, 4000, 5000, 6000)
_FIDUCIALS = ("cauchy+", "cauchy-", "combo", "jump", "poisson", "inner")
# Four equal-cost maximal ops are the slowest ops of a pass.  With three
# to six passes in a run they hold the eleventh-slowest op, so op_tail_s
# reads the same kind of op whether drift fits one pass more or less.
_MAXIMAL_SHAPES = ((40, 101), (100, 41), (64, 63), (50, 81))
_CAUCHY = ("cauchy+", "cauchy-", "combo", "jump")
# The engine integrates the moved signal over the signal's own window
# (the t-form), so a Cauchy read loses the kernel's 1/t tails: up to 9%
# (13% for the Hardy grids of roundtrip) against the residue values at
# the seed commit.  The tolerance admits that known defect and still
# catches a wrong sign, prefactor or kernel; residual_max reports the
# error as measured.
CAUCHY_TOLERANCE = 0.25


def _affine_scan(rng, smoke: bool, d: Path) -> Pool:
    pool = Pool(spec={"signals": "rational/lorentz/gaussian on [-L, L]",
                      "fiducials": list(_FIDUCIALS), "p": ["2", "inf"],
                      "elements_per_transform": _ELEMENTS if not smoke else 32,
                      "lengths": list(_LENGTHS),
                      "maximal_on_box": list(_MAXIMAL_SHAPES)})
    mex = d / "in" / "mexhat.csv"
    pool.inputs.append((mex, lambda p: files.write_signal(
        p, -8.0, 0.02, mexhat(-8.0 + 0.02 * np.arange(801)))))
    fiducials = _FIDUCIALS if not smoke else ("cauchy+", "inner")
    for j, fid in enumerate(fiducials):
        for k, p in enumerate(("2", "inf")):
            i = 2 * j + k
            if smoke:
                n_a, n_b, n = 4, 8, 1000
            else:
                n_a, n_b = _SHAPES[j if k == 0 else len(_SHAPES) - 1 - j]
                n = _LENGTHS[(j + 3 * k) % 6]
            _affine_op(rng, pool, d, i, fid, p, n_a, n_b, n, mex)
    for k, (n_a, n_b) in enumerate(_MAXIMAL_SHAPES if not smoke else ((6, 9),)):
        _maximal_op(rng, pool, d, k, n_a, n_b)
    return pool


def _affine_op(rng, pool, d, i, fid, p, n_a, n_b, n, mex) -> None:
    sig = d / "in" / f"sig{i}.csv"
    out = d / "out" / f"w{i}.csv"
    if fid == "inner":
        s, c, half = rng.uniform(0.8, 1.4), rng.uniform(-1.0, 1.0), 15.0
        a_lo, a_hi = 0.1, 4.0
        f = gaussian(s, c)
        want = lambda a, b: _pref(a, p) * gauss_mexhat(a, b - c, s)
        spec = f"inner:{mex}"
    elif fid == "poisson":
        y0, c, half = rng.uniform(0.8, 1.4), rng.uniform(-1.0, 1.0), 30.0
        a_lo, a_hi = 0.1, 2.5
        f = lorentz(y0, c)
        want = lambda a, b: _pref(a, p) * lorentz(a + y0, c)(b)
        spec = fid
    else:
        # The b-grid is centred on the pole (as on every signal's centre),
        # so a seed moves pole, phase and coefficients but not the
        # truncation geometry that sets these ops' residuals.
        c = rng.uniform(-1.0, 1.0)
        half, a_lo, a_hi = 30.0, 0.1, 2.5
        f = rational(np.exp(1j * rng.uniform(-math.pi, math.pi)),
                     complex(c, -1.1))
        spec = fid
        cp, cm = 1.0, 0.0
        if fid == "combo":
            cp = round(float(rng.uniform(0.95, 1.05)), 3)
            cm = round(float(rng.uniform(0.475, 0.525)), 3)
            spec = f"combo:{cp!r}:{cm!r}"
        upper = lambda a, b: _pref(a, p) * f(b + 1j * a)
        if fid == "cauchy-":
            want = lambda a, b: np.zeros(len(a), dtype=complex)
        elif fid == "jump":
            want = lambda a, b: np.stack([upper(a, b), 0.0 * a], axis=1)
        else:
            want = lambda a, b: cp * upper(a, b)
    dx = 2.0 * half / (n - 1)
    xs = -half + dx * np.arange(n)
    values = f(xs)
    grid = (f"affine:a=log:{_num(a_lo)}:{_num(a_hi)}:{n_a},"
            f"b=lin:{_num(c - 5.0)}:{_num(c + 5.0)}:{n_b}")
    scale_fn = None
    if fid in ("cauchy-", "jump"):
        scale_fn = lambda a, b: float(np.max(np.abs(_pref(a, p) * f(b + 1j * a))))

    def oracle(paths):
        return _affine_grid_oracle(paths, want, scale_fn)

    pool.inputs.append((sig, lambda path: files.write_signal(path, -half, dx,
                                                             values)))
    pool.ops.append(Op(
        kind=f"transform:{fid}:p={p}",
        argv=["transform", "--group", "affine", "--p", p,
              "--fiducial", spec, "--signal", str(sig), "--grid", grid,
              "--out", str(out)],
        outputs=(out,), units=n_a * n_b, oracle=oracle,
        tolerance=CAUCHY_TOLERANCE if fid in _CAUCHY else 0.05))


def running_average_max(x0, dx, values, a_vals, b_vals):
    """max over a of (1/2a) * integral over [b-a, b+a] of the piecewise-
    linear interpolant of |f|, zero outside the window."""
    v = np.abs(values)
    nodes = np.concatenate(([0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * dx)))

    def running(x):
        t = np.clip((x - x0) / dx, 0.0, len(v) - 1.0)
        i = np.minimum(t.astype(int), len(v) - 2)
        frac = t - i
        fx = v[i] + frac * (v[i + 1] - v[i])
        return nodes[i] + 0.5 * (v[i] + fx) * frac * dx

    a = a_vals[:, None]
    b = b_vals[None, :]
    return ((running(b + a) - running(b - a)) / (2.0 * a)).max(axis=0)


def _maximal_op(rng, pool, d, k, n_a, n_b) -> None:
    sig = d / "in" / f"box{k}.csv"
    out = d / "out" / f"m{k}.csv"
    w, c = rng.uniform(0.8, 1.2), rng.uniform(-0.5, 0.5)
    x0, dx, n = -4.0, 0.01, 801
    values = np.where(np.abs(x0 + dx * np.arange(n) - c) <= w, 1.0, 0.0)
    a_lo, a_hi = 0.05 * rng.uniform(1.0, 1.2), 20.0 * rng.uniform(0.8, 1.0)
    a_spec = f"log:{_num(a_lo)}:{_num(a_hi)}:{n_a}"

    def oracle(paths):
        header, data = files.read_table(paths[0])
        b_vals = files.column(header, data, "x")
        got = files.complex_columns(header, data)[:, 0]
        a_vals = np.geomspace(float(_num(a_lo)), float(_num(a_hi)), n_a)
        return relative_error(got, running_average_max(x0, dx, values,
                                                       a_vals, b_vals))

    pool.inputs.append((sig, lambda path: files.write_signal(path, x0, dx,
                                                             values)))
    pool.ops.append(Op(
        kind="maximal",
        argv=["maximal", "--signal", str(sig), "--a-grid", a_spec,
              "--b-grid", f"lin:-4:4:{n_b}", "--out", str(out)],
        outputs=(out,), units=n_a * n_b, oracle=oracle, tolerance=0.02))


# ---------------------------------------------------------------------------
# radon-sinogram

# Pixel pitch -> (sinogram angles x offsets, e2 angles x 2 x ty), so
# every op interpolates about 3.2M pixels.
_PITCHES = ((0.01, (7, 8), (7, 4)),
            (0.015, (11, 12), (11, 6)),
            (0.02, (14, 16), (14, 8)))
_HALF = 1.2  # images cover [-1.2, 1.2]^2


def _radon_sinogram(rng, smoke: bool, d: Path) -> Pool:
    pool = Pool(spec={"images": ["disc", "convex polygon"],
                      "pitches": [p[0] for p in _PITCHES],
                      "modes": ["sinogram", "e2 grid"],
                      "pixel_lines_per_op": 3.2e6})
    # The disc is the same for every seed, centred on a pixel node, and
    # every line stays 0.2 inside its rim.  Its raster error against the
    # exact chords, which sets residual_max, then depends on where the
    # seeded lines fall, not on a seeded sub-pixel radius.
    disc = {"kind": "disc", "r": 0.6, "center": np.zeros(2)}
    ang = np.sort(rng.uniform(0.0, 2.0 * math.pi, 7))
    ax, ay, rot = rng.uniform(0.45, 0.6), rng.uniform(0.45, 0.6), rng.uniform(0, math.pi)
    ex = np.stack([ax * np.cos(ang), ay * np.sin(ang)], axis=1)
    verts = ex @ np.array([[math.cos(rot), math.sin(rot)],
                           [-math.sin(rot), math.cos(rot)]]) + rng.uniform(-0.05, 0.05, 2)
    poly = {"kind": "polygon", "verts": verts}
    pitches = _PITCHES if not smoke else ((0.02, (2, 3), (2, 2)),)
    for h, sino, e2 in pitches:
        n = int(round(2 * _HALF / h)) + 1
        for shape in (disc, poly):
            img = _raster(shape, h, n)
            sig = d / "in" / f"{shape['kind']}-{n}.csv"
            pool.inputs.append((sig, lambda p, img=img, h=h:
                                files.write_signal2(p, -_HALF, h, img)))
            pool.ops.append(_sinogram_op(rng, d, sig, shape, img, h, *sino))
            pool.ops.append(_e2_op(rng, d, sig, shape, img, h, *e2))
    return pool


def _raster(shape, h, n) -> np.ndarray:
    xs = -_HALF + h * np.arange(n)
    X, Y = np.meshgrid(xs, xs)
    if shape["kind"] == "disc":
        cx, cy = shape["center"]
        return ((X - cx) ** 2 + (Y - cy) ** 2 <= shape["r"] ** 2).astype(float)
    v = shape["verts"]
    inside = np.ones_like(X, dtype=bool)
    for (x0, y0), (x1, y1) in zip(v, np.roll(v, -1, axis=0)):
        inside &= (x1 - x0) * (Y - y0) - (y1 - y0) * (X - x0) >= 0.0
    return inside.astype(float)


def chords(shape, base, u) -> np.ndarray:
    """Exact length of each line base + s*u (|u| = 1) inside the shape."""
    if shape["kind"] == "disc":
        rel = shape["center"][None, :] - base
        along = np.sum(rel * u, axis=1)
        dist2 = np.sum(rel * rel, axis=1) - along ** 2
        return 2.0 * np.sqrt(np.maximum(shape["r"] ** 2 - dist2, 0.0))
    lo = np.full(len(base), -np.inf)
    hi = np.full(len(base), np.inf)
    v = shape["verts"]
    for p0, p1 in zip(v, np.roll(v, -1, axis=0)):
        e = p1 - p0
        c0 = e[0] * (base[:, 1] - p0[1]) - e[1] * (base[:, 0] - p0[0])
        c1 = e[0] * u[:, 1] - e[1] * u[:, 0]  # inside: c0 + s c1 >= 0
        with np.errstate(divide="ignore"):
            s = -c0 / c1
        lo = np.where(c1 > 0, np.maximum(lo, s), lo)
        hi = np.where(c1 < 0, np.minimum(hi, s), hi)
        parallel_out = (c1 == 0) & (c0 < 0)
        hi = np.where(parallel_out, -np.inf, hi)
    return np.maximum(hi - lo, 0.0)


def line_quadrature(img, h, base, u) -> np.ndarray:
    """Brute-force trapezoid of the bilinear interpolant along each line."""
    step = h / 4.0
    s = np.arange(-1.8, 1.8 + 0.5 * step, step)
    px = (base[:, 0:1] + s[None, :] * u[:, 0:1] + _HALF) / h
    py = (base[:, 1:2] + s[None, :] * u[:, 1:2] + _HALF) / h
    n = img.shape[0]
    inside = (px >= 0) & (px <= n - 1) & (py >= 0) & (py <= n - 1)
    ix = np.clip(np.floor(px).astype(int), 0, n - 2)
    iy = np.clip(np.floor(py).astype(int), 0, n - 2)
    tx, ty = np.clip(px - ix, 0, 1), np.clip(py - iy, 0, 1)
    val = ((1 - ty) * ((1 - tx) * img[iy, ix] + tx * img[iy, ix + 1])
           + ty * ((1 - tx) * img[iy + 1, ix] + tx * img[iy + 1, ix + 1]))
    return np.trapezoid(np.where(inside, val, 0.0), dx=step, axis=1)


def _radon_residual(got, shape, img, h, base, u) -> float:
    """Against brute-force quadrature of the sampled image and, for the
    disc, against exact chords too.  A polygon's exact chords are no
    oracle for its raster: a line grazing an edge sees the edge in full
    or not at all, where the pixels show half of it."""
    exact = chords(shape, base, u)
    scale = float(np.max(exact))
    err = relative_error(got, line_quadrature(img, h, base, u), scale)
    if shape["kind"] == "disc":
        err = max(err, relative_error(got, exact, scale))
    return err


def _sinogram_op(rng, d, sig, shape, img, h, n_theta, n_off) -> Op:
    out = d / "out" / f"sino-{sig.stem}.csv"
    t0 = rng.uniform(0.0, 0.2)
    off = 0.4
    thetas = f"lin:{_num(t0)}:{_num(t0 + 3.0)}:{n_theta}"
    offsets = f"lin:{_num(-off)}:{_num(off)}:{n_off}"

    def oracle(paths):
        header, data = files.read_table(paths[0])
        th = files.column(header, data, "theta")
        dist = files.column(header, data, "offset")
        u = np.stack([np.cos(th), np.sin(th)], axis=1)
        base = np.stack([-dist * np.sin(th), dist * np.cos(th)], axis=1)
        got = files.complex_columns(header, data)[:, 0]
        return _radon_residual(got, shape, img, h, base, u)

    return Op(kind=f"radon:sinogram:{shape['kind']}",
              argv=["radon", "--signal", str(sig), "--thetas", thetas,
                    "--offsets", offsets, "--out", str(out)],
              outputs=(out,), units=n_theta * n_off, oracle=oracle,
              tolerance=4.0 * h)


def _e2_op(rng, d, sig, shape, img, h, n_theta, n_ty) -> Op:
    out = d / "out" / f"e2-{sig.stem}.csv"
    t0 = rng.uniform(-1.6, -1.4)
    ty = 0.35
    grid = (f"e2:theta=lin:{_num(t0)}:{_num(t0 + 3.0)}:{n_theta},"
            f"tx=lin:-0.05:0.05:2,ty=lin:{_num(-ty)}:{_num(ty)}:{n_ty}")

    def oracle(paths):
        header, data = files.read_table(paths[0])
        th = files.column(header, data, "theta")
        base = np.stack([files.column(header, data, "tx"),
                         files.column(header, data, "ty")], axis=1)
        u = np.stack([np.cos(th), np.sin(th)], axis=1)
        got = files.complex_columns(header, data)[:, 0]
        return _radon_residual(got, shape, img, h, base, u)

    return Op(kind=f"radon:e2:{shape['kind']}",
              argv=["radon", "--signal", str(sig), "--grid", grid,
                    "--out", str(out)],
              outputs=(out,), units=2 * n_theta * n_ty, oracle=oracle,
              tolerance=4.0 * h)


# ---------------------------------------------------------------------------
# roundtrip

# One Hardy pair (the two slowest ops) and six Haar pairs of equal size:
# with two to four passes in a run both the median op and the eleventh-
# slowest op are Haar transforms, well inside that group of 12 to 24.
_HAAR_SHAPES = ((16, 281), (20, 225), (12, 375), (24, 187), (18, 251),
                (30, 151))
_HARDY_B = (2001,)


def _roundtrip(rng, smoke: bool, d: Path) -> Pool:
    pool = Pool(spec={"haar": "inner:<mexhat> p=2 on Gaussian wave packets",
                      "hardy": "cauchy+ p=inf on upper-Hardy rationals, "
                               "geo:0.5:0.5:5",
                      "haar_shapes": list(_HAAR_SHAPES),
                      "hardy_translations": list(_HARDY_B)})
    mex = d / "in" / "mexhat.csv"
    pool.inputs.append((mex, lambda p: files.write_signal(
        p, -8.0, 0.02, mexhat(-8.0 + 0.02 * np.arange(801)))))
    haar = _HAAR_SHAPES if not smoke else ((12, 121),)
    hardy = _HARDY_B if not smoke else (_HARDY_B[0],)
    for i, (n_a, n_b) in enumerate(haar):
        _haar_pair(rng, pool, d, i, n_a, n_b, mex)
    v0 = d / "in" / "cauchy-vacuum.csv"
    dx = 0.025
    nv = int(round(600.0 / dx)) + 1
    pool.inputs.append((v0, lambda p: files.write_signal(
        p, -300.0, dx, 1.0 / (2j * math.pi * (-300.0 + dx * np.arange(nv) + 1j)))))
    for i, n_b in enumerate(hardy):
        _hardy_pair(rng, pool, d, i, n_b, v0, dx)
    return pool


def _wave_packet(rng):
    """Gaussian wave packet Re[e^{i phi} exp(-(x-c)^2/2s^2 + i w (x-c))]
    with w s near 3, so almost none of its energy sits below the
    frequencies the grid's largest dilation still resolves."""
    s = rng.uniform(0.8, 1.1)
    return (s, 3.0 * rng.uniform(0.9, 1.1) / s, rng.uniform(-3.0, 3.0),
            rng.uniform(0.0, 2.0 * math.pi))


def _packet(params, x):
    s, w, c, phi = params
    return np.real(np.exp(1j * phi - (x - c) ** 2 / (2 * s * s)
                          + 1j * w * (x - c)))


def _packet_transform(params, a, b):
    """p = 2 mexhat transform of the packet: the Gaussian closed form at
    the complex centre c + i w s^2."""
    s, w, c, phi = params
    return np.sqrt(a) * np.real(np.exp(1j * phi - (w * s) ** 2 / 2) * (
        gauss_mexhat(a, b - c - 1j * w * s * s, s)))


def _haar_pair(rng, pool, d, i, n_a, n_b, mex) -> None:
    packet = _wave_packet(rng)
    x0, dx, n = -12.0, 0.02, 1201
    xs = x0 + dx * np.arange(n)
    values = _packet(packet, xs)
    sig = d / "in" / f"haar{i}.csv"
    w = d / "out" / f"haar-w{i}.csv"
    rec = d / "out" / f"haar-rec{i}.csv"
    report = d / "out" / f"haar-report{i}.json"
    pool.inputs.append((sig, lambda p: files.write_signal(p, x0, dx, values)))
    a_lo = 0.12 * rng.uniform(1.0, 1.05)
    grid = f"affine:a=log:{_num(a_lo)}:6:{n_a},b=lin:-12:12:{n_b}"

    pool.ops.append(Op(
        kind="transform:inner:p=2",
        argv=["transform", "--group", "affine", "--p", "2",
              "--fiducial", f"inner:{mex}", "--signal", str(sig),
              "--grid", grid, "--out", str(w)],
        outputs=(w,), units=n_a * n_b,
        oracle=lambda paths: _affine_grid_oracle(
            paths, lambda a, b: _packet_transform(packet, a, b)),
        tolerance=0.05))
    pool.ops.append(Op(
        kind="reconstruct:haar",
        argv=["reconstruct", "--route", "haar", "--transform", str(w),
              "--vacuum", str(mex), "--reference", str(sig),
              "--out", str(rec), "--report", str(report)],
        outputs=(rec, report), units=n_a * n_b,
        oracle=lambda paths: _reconstruct_residual(paths, values, fit=False),
        tolerance=0.05))


def _reconstruct_residual(paths, reference, fit: bool) -> float:
    """Relative L2 error of the reconstruction against the reference,
    after a least-squares gain when fit is set (the Hardy route is
    exact only up to a signal-independent constant)."""
    header, data = files.read_table(paths[0])
    got = files.complex_columns(header, data)[:, 0]
    ref = np.asarray(reference, dtype=complex)
    if got.shape != ref.shape or not np.all(np.isfinite(got)):
        return math.inf
    gain = np.vdot(ref, got) / np.vdot(ref, ref) if fit else 1.0
    return float(np.linalg.norm(got - gain * ref)
                 / (abs(gain) * np.linalg.norm(ref)))


def _hardy_pair(rng, pool, d, i, n_b, v0, dx) -> None:
    q = complex(rng.uniform(-0.5, 0.5), -rng.uniform(0.9, 1.1))
    fn = lambda z: 1.0 / (z - q) ** 2
    half, ref_half = 30.0, 15.0
    n = int(round(2 * half / dx)) + 1
    n_ref = int(round(2 * ref_half / dx)) + 1
    values = fn(-half + dx * np.arange(n))
    ref_values = fn(-ref_half + dx * np.arange(n_ref))
    sig = d / "in" / f"hardy{i}.csv"
    ref = d / "in" / f"hardy-ref{i}.csv"
    w = d / "out" / f"hardy-w{i}.csv"
    rec = d / "out" / f"hardy-rec{i}.csv"
    report = d / "out" / f"hardy-report{i}.json"
    pool.inputs.append((sig, lambda p: files.write_signal(p, -half, dx, values)))
    pool.inputs.append((ref, lambda p: files.write_signal(p, -ref_half, dx,
                                                          ref_values)))
    grid = f"affine:a=log:0.03125:0.5:5,b=lin:-25:25:{n_b}"
    pool.ops.append(Op(
        kind="transform:cauchy+:p=inf",
        argv=["transform", "--group", "affine", "--p", "inf",
              "--fiducial", "cauchy+", "--signal", str(sig), "--grid", grid,
              "--out", str(w)],
        outputs=(w,), units=5 * n_b,
        oracle=lambda paths: _affine_grid_oracle(
            paths, lambda a, b: fn(b + 1j * a)),
        tolerance=CAUCHY_TOLERANCE))
    pool.ops.append(Op(
        kind="reconstruct:hardy",
        argv=["reconstruct", "--route", "hardy", "--transform", str(w),
              "--vacuum", str(v0), "--a-sequence", "geo:0.5:0.5:5",
              "--reference", str(ref), "--out", str(rec),
              "--report", str(report)],
        outputs=(rec, report), units=5 * n_b,
        oracle=lambda paths: _reconstruct_residual(paths, ref_values, fit=True),
        # The CLI Hardy route reads ~0.35-0.40 at the seed commit: the
        # engine's truncated t-form loses the Cauchy tails that
        # inversion.hardy_analysis keeps.  The tolerance admits that
        # known defect; residual_max reports it as measured.
        tolerance=0.5))


# ---------------------------------------------------------------------------
# operator-orbits

_DIMS = (2, 3, 4, 6, 8, 12, 16, 24, 32)
_N_THETA = 360
_T_SAMPLES = 64


def _operator_orbits(rng, smoke: bool, d: Path) -> Pool:
    pool = Pool(spec={"dims": list(_DIMS), "t_grid": f"lin:0:6:{_T_SAMPLES}",
                      "n_theta": _N_THETA, "range": "ellipse, foci "
                      f"+-{_FOCUS}, minor axis {_MINOR}",
                      "ops": ["numrange --hull", "mobius g", "mobius h"]})
    for n in (_DIMS if not smoke else (2, 3)):
        _operator_ops(rng, pool, d, n)
    return pool


def _su11(rng):
    beta = rng.uniform(0.2, 0.8) * np.exp(1j * rng.uniform(-math.pi, math.pi))
    alpha = np.exp(1j * rng.uniform(-math.pi, math.pi)) * math.sqrt(1 + abs(beta) ** 2)
    return complex(alpha), complex(beta)


def mobius(g, a) -> np.ndarray:
    alpha, beta = g
    eye = np.eye(a.shape[0])
    num = alpha * a + beta * eye
    den = np.conj(beta) * a + np.conj(alpha) * eye
    return np.linalg.solve(den.T, num.T).T


# Every contraction's numerical range is the ellipse centred at 0 with
# foci +-_FOCUS e^{i psi} and minor axis _MINOR (elliptical range theorem
# for the 2 x 2 block, plus a block of norm _INNER < _MINOR / 2 whose
# range lies inside it), so its support function is known exactly.
_FOCUS, _MINOR, _INNER = 0.3, 0.05, 0.02
_SEMI_MAJOR = math.hypot(_MINOR, 2 * _FOCUS) / 2
_SEMI_MINOR = _MINOR / 2


def elliptic_contraction(rng, n) -> tuple[np.ndarray, float]:
    """Seeded n x n contraction and the angle psi of its range's major
    axis.  Fixing the ellipse's shape fixes the hull's sampling gap,
    which sets residual_max, while rotation, unitary frame and inner
    block change with the seed."""
    psi, phase = rng.uniform(0.0, 2.0 * math.pi, 2)
    t = np.zeros((n, n), dtype=complex)
    t[:2, :2] = [[_FOCUS * np.exp(1j * psi), _MINOR * np.exp(1j * phase)],
                 [0.0, -_FOCUS * np.exp(1j * psi)]]
    if n > 2:
        inner = rng.normal(size=(n - 2, n - 2)) + 1j * rng.normal(size=(n - 2, n - 2))
        t[2:, 2:] = _INNER * inner / np.linalg.norm(inner, 2)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q @ t @ q.conj().T, psi


def ellipse_support(psi, theta):
    c, s = np.cos(theta - psi), np.sin(theta - psi)
    return np.sqrt((_SEMI_MAJOR * c) ** 2 + (_SEMI_MINOR * s) ** 2)


def _numrange_residual(paths, a, psi, herm, x, t_vals) -> float:
    header, data = files.read_table(paths[0])
    got = files.complex_columns(header, data)[:, 0]
    hh, hd = files.read_table(paths[1])
    hull = files.complex_columns(hh, hd)[:, 0]
    if not (np.all(np.isfinite(got)) and np.all(np.isfinite(hull))):
        return math.inf
    vals, vecs = np.linalg.eigh(herm)
    coeff = vecs.conj().T @ x
    states = vecs @ (np.exp(1j * np.outer(vals, t_vals)) * coeff[:, None])
    want = np.einsum("it,it->t", states.conj(), a @ states)
    # Orbit samples match an independent evaluation, every one of them
    # lies inside the numerical range ...
    fine = np.linspace(0.0, 2 * math.pi, 4 * _N_THETA, endpoint=False)
    h_fine = ellipse_support(psi, fine)
    rot = np.exp(-1j * fine)
    margin = np.max(np.real(rot[:, None] * got[None, :]) - h_fine[:, None])
    # ... and the hull polygon's support function stays within the
    # sampling gap of the true one, also between the sampled directions.
    polygon = np.max(np.real(rot[:, None] * hull[None, :]), axis=1)
    gap = np.max(np.abs(polygon - h_fine))
    return max(relative_error(got, want, _SEMI_MAJOR),
               max(margin, 0.0) / _SEMI_MAJOR, gap / _SEMI_MAJOR)


def _operator_ops(rng, pool, d, n) -> None:
    a, psi = elliptic_contraction(rng, n)
    herm = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    herm = 0.5 * (herm + herm.conj().T)
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    x /= np.linalg.norm(x)
    g, h = _su11(rng), _su11(rng)
    names = {k: d / "in" / f"{k}{n}.json" for k in ("a", "h", "x")}
    pool.inputs += [(names["a"], lambda p: files.write_matrix(p, a)),
                    (names["h"], lambda p: files.write_matrix(p, herm)),
                    (names["x"], lambda p: files.write_vector(p, x))]
    orbit = d / "out" / f"orbit{n}.csv"
    hull = d / "out" / f"hull{n}.csv"
    t_vals = np.linspace(0.0, 6.0, _T_SAMPLES)
    pool.ops.append(Op(
        kind="numrange",
        argv=["numrange", "--matrix", str(names["a"]),
              "--hermitian", str(names["h"]), "--x", str(names["x"]),
              "--t-grid", f"lin:0:6:{_T_SAMPLES}", "--n-theta", str(_N_THETA),
              "--hull", str(hull), "--out", str(orbit)],
        outputs=(orbit, hull), units=_T_SAMPLES + _N_THETA,
        oracle=lambda paths: _numrange_residual(paths, a, psi, herm, x, t_vals),
        tolerance=5e-3))
    moved = d / "out" / f"moved{n}.json"
    twice = d / "out" / f"twice{n}.json"
    # h*g in SU(1,1): acting by it equals acting by g, then by h.
    hg = (h[0] * g[0] + h[1] * np.conj(g[1]), h[0] * g[1] + h[1] * np.conj(g[0]))
    for elem, src, dst, want in ((g, names["a"], moved, lambda: mobius(g, a)),
                                 (h, moved, twice, lambda: mobius(hg, a))):
        pool.ops.append(Op(
            kind="mobius",
            argv=["mobius", "--alpha", repr(elem[0]), "--beta", repr(elem[1]),
                  "--matrix", str(src), "--out", str(dst)],
            outputs=(dst,), units=1,
            oracle=lambda paths, want=want: relative_error(
                files.read_matrix(paths[0]), want()),
            tolerance=1e-9))
