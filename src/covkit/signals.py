"""Uniformly sampled signals on the line and the plane.

Signals are immutable: a start point, a positive step, and complex
samples.  Point evaluation interpolates linearly (bilinearly in 2D) and
returns 0 outside the sampled window; that convention is relied on by
every consumer, so truncation never raises, it only loses tail mass.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

_trapz = np.trapezoid


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """How to integrate sampled data: kind "trapezoid" or "midpoint".

    Tail handling beyond the sampled window is a fiducial setting
    (`Fiducial.tail_policy`), not a quadrature one.
    """

    kind: str = "trapezoid"

    def __post_init__(self):
        if self.kind not in ("trapezoid", "midpoint"):
            raise ValueError(f"unknown quadrature kind {self.kind!r}")


@dataclass(frozen=True, eq=False)
class SampledSignal1D:
    """Complex samples at x0 + k*dx, k = 0..n-1."""

    x0: float
    dx: float
    values: np.ndarray

    def __post_init__(self):
        if not self.dx > 0:
            raise ValueError(f"dx must be positive, got {self.dx!r}")
        vals = np.array(self.values, dtype=complex)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("values must be a non-empty 1D array")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def x_end(self) -> float:
        return self.x0 + (self.n - 1) * self.dx

    @cached_property
    def xs(self) -> np.ndarray:
        xs = self.x0 + self.dx * np.arange(self.n)
        xs.setflags(write=False)
        return xs


# Fractional grid positions this close to an integer read the node.
_SNAP_TOL = 1e-9


def _snap(t: np.ndarray) -> np.ndarray:
    """Pull fractional grid positions onto integers they nearly hit.

    (x - x0) / dx lands a hair off an integer whenever x0/dx is not
    float-exact, and that hair would mix a neighboring sample into a
    node read.  _SNAP_TOL is far above accumulated roundoff and far below
    any deliberate interpolation offset.
    """
    r = np.rint(t)
    return np.where(np.abs(t - r) < _SNAP_TOL, r, t)


def _cells(s: SampledSignal1D, x: np.ndarray):
    """Cell index i, fraction and inside mask of the points x on s's grid.

    Each point lies a fraction frac of the way from node i to node i + 1;
    where inside is false it reads 0.  The grid is uniform, so the cell
    index is computed directly instead of searched.  Needs s.n >= 2.
    """
    t = _snap((x - s.x0) / s.dx)
    n = s.n
    inside = (t >= 0.0) & (t <= n - 1)
    tc = np.clip(t, 0.0, float(n - 1))
    i0 = np.minimum(tc.astype(np.intp), n - 2)
    return i0, tc - i0, inside


def _lerp(v: np.ndarray, i, frac):
    """Values a fraction frac of the way from v[..., i] to v[..., i + 1]."""
    return v[..., i] * (1.0 - frac) + v[..., i + 1] * frac


def evaluate(s: SampledSignal1D, x) -> np.ndarray:
    """Linear interpolation of the samples; 0 outside [x0, x_end].

    Exact at the nodes, so resampling a signal onto its own grid is the
    identity.
    """
    x = np.asarray(x, dtype=float)
    if s.n < 2:
        return np.where(_snap((x - s.x0) / s.dx) == 0.0, s.values[0],
                        0.0 + 0.0j)
    i0, frac, inside = _cells(s, x)
    return np.where(inside, _lerp(s.values, i0, frac), 0.0 + 0.0j)


def integrate(s: SampledSignal1D, rule: QuadratureRule | None = None) -> complex:
    rule = rule or QuadratureRule()
    if rule.kind == "midpoint":
        return complex(s.dx * s.values.sum())
    if s.n < 2:
        raise ValueError("trapezoid rule needs at least two samples")
    return complex(_trapz(s.values, dx=s.dx))


def lp_norm(s: SampledSignal1D, p: float) -> float:
    if p == math.inf:
        return float(np.abs(s.values).max())
    if p < 1:
        raise ValueError(f"need p >= 1 or infinity, got {p!r}")
    if s.n < 2:
        raise ValueError("norm quadrature needs at least two samples")
    return float(_trapz(np.abs(s.values) ** p, dx=s.dx) ** (1.0 / p))


def resample(s: SampledSignal1D, x0: float, dx: float, n: int) -> SampledSignal1D:
    xs = x0 + dx * np.arange(n)
    return SampledSignal1D(x0, dx, evaluate(s, xs))


def signal_from_function(fn, lo: float, hi: float, dx: float) -> SampledSignal1D:
    n = int(round((hi - lo) / dx)) + 1
    xs = lo + dx * np.arange(n)
    return SampledSignal1D(lo, dx, np.asarray(fn(xs), dtype=complex))


@dataclass(frozen=True, eq=False)
class SampledSignal2D:
    """Complex samples on a rectangular lattice.

    values[iy, ix] sits at (x0 + ix*dx, y0 + iy*dy): rows sweep y,
    columns sweep x.
    """

    origin: tuple[float, float]
    dx: float
    dy: float
    values: np.ndarray

    def __post_init__(self):
        if not (self.dx > 0 and self.dy > 0):
            raise ValueError("dx and dy must be positive")
        vals = np.array(self.values, dtype=complex)
        if vals.ndim != 2 or vals.size == 0:
            raise ValueError("values must be a non-empty 2D array")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "origin",
                           (float(self.origin[0]), float(self.origin[1])))

    @property
    def nx(self) -> int:
        return self.values.shape[1]

    @property
    def ny(self) -> int:
        return self.values.shape[0]

    @property
    def x_end(self) -> float:
        return self.origin[0] + (self.nx - 1) * self.dx

    @property
    def y_end(self) -> float:
        return self.origin[1] + (self.ny - 1) * self.dy

    @cached_property
    def xs(self) -> np.ndarray:
        xs = self.origin[0] + self.dx * np.arange(self.nx)
        xs.setflags(write=False)
        return xs

    @cached_property
    def ys(self) -> np.ndarray:
        ys = self.origin[1] + self.dy * np.arange(self.ny)
        ys.setflags(write=False)
        return ys


def evaluate2(s: SampledSignal2D, x, y) -> np.ndarray:
    """Bilinear interpolation; 0 outside the sampled rectangle."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    fx = _snap((x - s.origin[0]) / s.dx)
    fy = _snap((y - s.origin[1]) / s.dy)
    inside = (fx >= 0) & (fx <= s.nx - 1) & (fy >= 0) & (fy <= s.ny - 1)

    ix = np.clip(np.floor(fx).astype(int), 0, s.nx - 2 if s.nx > 1 else 0)
    iy = np.clip(np.floor(fy).astype(int), 0, s.ny - 2 if s.ny > 1 else 0)
    tx = np.clip(fx - ix, 0.0, 1.0)
    ty = np.clip(fy - iy, 0.0, 1.0)

    ix1 = np.minimum(ix + 1, s.nx - 1)
    iy1 = np.minimum(iy + 1, s.ny - 1)
    v00 = s.values[iy, ix]
    v01 = s.values[iy, ix1]
    v10 = s.values[iy1, ix]
    v11 = s.values[iy1, ix1]
    out = ((1 - ty) * ((1 - tx) * v00 + tx * v01)
           + ty * ((1 - tx) * v10 + tx * v11))
    return np.where(inside, out, 0.0 + 0.0j)


def signal2_from_function(fn, x_lo, x_hi, y_lo, y_hi, dx, dy=None) -> SampledSignal2D:
    dy = dx if dy is None else dy
    nx = int(round((x_hi - x_lo) / dx)) + 1
    ny = int(round((y_hi - y_lo) / dy)) + 1
    xs = x_lo + dx * np.arange(nx)
    ys = y_lo + dy * np.arange(ny)
    X, Y = np.meshgrid(xs, ys)
    return SampledSignal2D((x_lo, y_lo), dx, dy, np.asarray(fn(X, Y), dtype=complex))


# ---------------------------------------------------------------------------
# CSV round-trip.  Floats are written with %.17g so a read back signal is
# bit-identical, and repeated writes of the same data are byte-identical.

_SPACING_RTOL = 1e-9


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def write_signal_csv(s: SampledSignal1D, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "re", "im"])
        for x, v in zip(s.xs, s.values):
            w.writerow([_fmt(x), _fmt(v.real), _fmt(v.imag)])


def _parse_body(path, fh, ncols: int) -> np.ndarray:
    """The rest of an open CSV file as a 2D float array of ncols columns,
    one row a line.

    Blank lines are skipped and nothing is a comment, so a '#' line is a
    non-numeric row.  A body without rows raises "no samples", and a row
    of another width "rows must have ncols columns".
    """
    body = fh.read()
    if not body.strip():
        raise ValueError(f"{path}: no samples")
    try:
        data = np.loadtxt(io.StringIO(body), delimiter=",", comments=None,
                          ndmin=2)
    except ValueError:
        ragged = any(line.count(",") != ncols - 1 and _numeric(line)
                     for line in body.splitlines())
        why = (f"rows must have {ncols} columns" if ragged
               else "non-numeric sample row")
        raise ValueError(f"{path}: {why}") from None
    if data.shape[1] != ncols:
        raise ValueError(f"{path}: rows must have {ncols} columns")
    return data


def _numeric(line: str) -> bool:
    """Whether every comma-separated cell of line reads as a float."""
    try:
        [float(cell) for cell in line.split(",")]
    except ValueError:
        return False
    return True


def _read_table(path, columns: list[str]) -> np.ndarray:
    """Rows of a signal CSV with header `columns`, all values finite."""
    with open(path) as fh:
        if [c.strip() for c in fh.readline().split(",")] != columns:
            raise ValueError(f"{path}: expected header '{','.join(columns)}'")
        data = _parse_body(path, fh, len(columns))
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path}: non-finite coordinate or sample")
    return data


def read_signal_csv(path) -> SampledSignal1D:
    data = _read_table(path, ["x", "re", "im"])
    x = data[:, 0]
    if len(x) > 1:
        steps = np.diff(x)
        if np.any(steps <= 0):
            raise ValueError(f"{path}: x must be strictly increasing")
        dx = (x[-1] - x[0]) / (len(x) - 1)
        if np.max(np.abs(steps - dx)) > _SPACING_RTOL * max(abs(dx), 1.0):
            raise ValueError(f"{path}: x is not uniformly spaced")
    else:
        dx = 1.0
    return SampledSignal1D(float(x[0]), float(dx), data[:, 1] + 1j * data[:, 2])


def write_signal2_csv(s: SampledSignal2D, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "y", "re", "im"])
        for iy, y in enumerate(s.ys):
            for ix, x in enumerate(s.xs):
                v = s.values[iy, ix]
                w.writerow([_fmt(x), _fmt(y), _fmt(v.real), _fmt(v.imag)])


def read_signal2_csv(path) -> SampledSignal2D:
    data = _read_table(path, ["x", "y", "re", "im"])
    xs = np.unique(data[:, 0])
    ys = np.unique(data[:, 1])
    nx, ny = len(xs), len(ys)
    if nx * ny != len(data):
        raise ValueError(f"{path}: samples do not fill a rectangular lattice")
    for axis_vals, label in ((xs, "x"), (ys, "y")):
        if len(axis_vals) > 1:
            steps = np.diff(axis_vals)
            step = (axis_vals[-1] - axis_vals[0]) / (len(axis_vals) - 1)
            if np.max(np.abs(steps - step)) > _SPACING_RTOL * max(abs(step), 1.0):
                raise ValueError(f"{path}: {label} is not uniformly spaced")
    dx = (xs[-1] - xs[0]) / (nx - 1) if nx > 1 else 1.0
    dy = (ys[-1] - ys[0]) / (ny - 1) if ny > 1 else 1.0
    vals = np.empty((ny, nx), dtype=complex)
    ix = np.searchsorted(xs, data[:, 0])
    iy = np.searchsorted(ys, data[:, 1])
    vals[iy, ix] = data[:, 2] + 1j * data[:, 3]
    return SampledSignal2D((float(xs[0]), float(ys[0])), float(dx), float(dy), vals)
