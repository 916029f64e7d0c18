"""The covariant transform engine and its named specializations.

For a representation pi, fiducial F, and signal v, the transform is the
function on the group

    (W v)(g) = F(pi(g^-1) v),

evaluated over a finite grid of elements.  Composing the transform with
the action gives left shifts: W(pi(g) v)(h) = (W v)(g^-1 h), whether or
not F is linear; `check_intertwining` measures exactly this residual,
evaluating the shifted side at the exact composed elements rather than
snapping to the grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fiducials import Fiducial, truncation_budget
from .groups import (AffineElement, EuclideanMotion, GroupGrid, compose,
                     inverse, make_grid)
from .representations import AffineRep, EuclideanRep, apply
from .signals import SampledSignal1D, SampledSignal2D, _fmt

_trapz = np.trapezoid


@dataclass(frozen=True, eq=False)
class TransformResult:
    """Transform values over a grid: values[i, k] is component k at the
    element with coordinates grid.coords[i]."""

    grid: GroupGrid
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.shape[0] != len(self.grid):
            raise ValueError(
                f"{vals.shape[0]} values for {len(self.grid)} grid elements")
        vals = np.array(vals)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def output_dim(self) -> int:
        return self.values.shape[1]


def _rows(rep, fid: Fiducial, v, elements) -> np.ndarray:
    """F(pi(g^-1) v) for each element g, one row per element, in order."""
    return np.array([fid(apply(rep, g.inverse(), v)) for g in elements])


def covariant_transform(rep, fid: Fiducial, v,
                        grid: GroupGrid) -> TransformResult:
    """Evaluate (W v)(g) = F(pi(g^-1) v) at every grid element.

    Elements are evaluated one after another in grid order on the
    calling thread, so identical inputs give identical values.
    """
    _check_compat(rep, fid, v)
    rows = _rows(rep, fid, v, grid.elements)
    meta = {
        "rep": rep.describe(),
        "fiducial": fid.describe(),
        "grid": grid.spec,
        "truncation_budget": truncation_budget(fid, v),
    }
    return TransformResult(grid, rows, meta)


def _check_compat(rep, fid: Fiducial, v) -> None:
    want2d = fid.signal_ndim == 2
    if want2d and not isinstance(v, SampledSignal2D):
        raise ValueError(f"fiducial {fid.kind!r} needs a 2D signal")
    if not want2d and not isinstance(v, SampledSignal1D):
        raise ValueError(f"fiducial {fid.kind!r} needs a 1D signal")
    if isinstance(rep, AffineRep) and want2d:
        raise ValueError("affine representation acts on 1D signals")
    if isinstance(rep, EuclideanRep) and not want2d:
        raise ValueError("Euclidean representation acts on 2D signals")


def check_intertwining(rep, fid: Fiducial, v, g, grid: GroupGrid) -> float:
    """max over grid elements h of |W(pi(g) v)(h) - (W v)(g^-1 h)|.

    The right side is evaluated at the exact group products g^-1 h, so
    the residual measures interpolation and quadrature error only, never
    grid snapping.  Exactly zero when g is the identity.
    """
    _check_compat(rep, fid, v)
    shifted = apply(rep, g, v)
    g_inv = g.inverse()
    worst = 0.0
    for h in grid.elements:
        lhs = fid(apply(rep, h.inverse(), shifted))
        rhs = fid(apply(rep, compose(g_inv, h).inverse(), v))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def hardy_maximal(f: SampledSignal1D, b_axis_spec: str,
                  a_axis_spec: str) -> SampledSignal1D:
    """Averaged-modulus maximal function of f.

    At each b this is the largest p = infinity transform value over the
    sampled dilations, i.e. max over a of (1/2a) * integral of |f| over
    [b - a, b + a].  Axis specs use the grid grammar without the name,
    e.g. "log:0.05:20:200" and "lin:-4:4:161".
    """
    grid = make_grid(f"affine:a={a_axis_spec},b={b_axis_spec}")
    res = covariant_transform(AffineRep(math.inf), Fiducial("avg"), f, grid)
    n_a, n_b = grid.shape
    surface = np.abs(res.values[:, 0].reshape(n_a, n_b))
    b_ax = grid.axis("b")
    vals = surface.max(axis=0)
    db = (b_ax.hi - b_ax.lo) / (b_ax.n - 1) if b_ax.n > 1 else 1.0
    return SampledSignal1D(b_ax.lo, db, vals)


def shift_invariant_norm(f: SampledSignal1D, b_axis_spec: str | None = None) -> float:
    """max over b of the p = infinity transform at a = 1/2.

    Equals the largest average of |f| over a unit-length window, so it
    is invariant under grid-aligned translations of f.
    """
    if b_axis_spec is None:
        lo, hi = f.x0 - 0.5, f.x_end + 0.5
        n = int(round((hi - lo) / f.dx)) + 1
        b_axis_spec = f"lin:{lo!r}:{hi!r}:{n}"
    grid = make_grid(f"affine:a=log:0.5:0.5:1,b={b_axis_spec}")
    res = covariant_transform(AffineRep(math.inf), Fiducial("avg"), f, grid)
    return float(np.abs(res.values[:, 0]).max())


def radon_transform(f: SampledSignal2D, motions: GroupGrid) -> TransformResult:
    """Line integrals of f along g-images of the x-axis, one per motion."""
    if motions.group != "e2":
        raise ValueError("the Radon transform needs a grid of Euclidean motions")
    return covariant_transform(EuclideanRep(), Fiducial("radonline"), f,
                               motions)


def line_motion(theta: float, offset: float) -> EuclideanMotion:
    """Motion mapping the x-axis to the line with direction angle theta
    at signed distance `offset` from the origin."""
    return EuclideanMotion(theta, -offset * math.sin(theta),
                           offset * math.cos(theta))


def radon_values(f: SampledSignal2D, motions) -> np.ndarray:
    """Same line integrals for an explicit list of motions.

    Product grids cannot express sinogram geometry (the translation that
    shifts a line to signed distance d depends on the angle), so
    sinogram code hands the motions in directly.
    """
    rows = _rows(EuclideanRep(), Fiducial("radonline"), f, motions)
    return rows.reshape(-1).astype(complex)


# ---------------------------------------------------------------------------
# CSV round-trip for transform results.

def write_transform_csv(res: TransformResult, path) -> None:
    """One row per grid element: group coordinates then re_k, im_k.

    The first line carries the rep/fiducial/grid spec strings so a file
    is reproducible from its own header.
    """
    meta = res.meta
    coord_names = [ax.name for ax in res.grid.axes]
    dim = res.output_dim
    with open(path, "w", newline="") as fh:
        fh.write("# covkit-transform"
                 f" rep={meta.get('rep', '?')}"
                 f" fiducial={meta.get('fiducial', '?')}"
                 f" grid={res.grid.spec}"
                 f" truncation_budget={_fmt(meta.get('truncation_budget', 0.0))}\n")
        header = coord_names + [f"{p}_{k}" for k in range(dim)
                                for p in ("re", "im")]
        fh.write(",".join(header) + "\n")
        for coords, row in zip(res.grid.coords, res.values):
            cells = [_fmt(c) for c in coords]
            for k in range(dim):
                cells += [_fmt(row[k].real), _fmt(row[k].imag)]
            fh.write(",".join(cells) + "\n")


def read_transform_csv(path) -> TransformResult:
    with open(path) as fh:
        first = fh.readline()
        if not first.startswith("# covkit-transform"):
            raise ValueError(f"{path}: missing transform header line")
        meta = {}
        for tok in first[len("# covkit-transform"):].split():
            key, sep, val = tok.partition("=")
            if sep:
                meta[key] = val
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    if "grid" not in meta:
        raise ValueError(f"{path}: header does not carry a grid spec")
    grid = make_grid(meta["grid"])
    n_coords = len(grid.axes)
    dim = (len(header) - n_coords) // 2
    data = np.array([[float(c) for c in r] for r in rows])
    if data.shape[0] != len(grid):
        raise ValueError(f"{path}: row count does not match the grid spec")
    if not np.allclose(grid.coords, data[:, :n_coords], rtol=1e-12, atol=1e-12):
        raise ValueError(f"{path}: row coordinates disagree with the grid spec")
    vals = np.empty((len(grid), dim), dtype=complex)
    for k in range(dim):
        vals[:, k] = data[:, n_coords + 2 * k] + 1j * data[:, n_coords + 2 * k + 1]
    if "truncation_budget" in meta:
        meta["truncation_budget"] = float(meta["truncation_budget"])
    return TransformResult(grid, vals, meta)
