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

from .fiducials import (Fiducial, _kernel_rows, _tail_rows, _unit_interval,
                        truncation_budget)
from .groups import EuclideanMotion, GroupGrid, compose, make_grid
from .representations import AffineRep, EuclideanRep, apply
from .signals import (_SNAP_TOL, SampledSignal1D, SampledSignal2D, _cells,
                      _fmt, _lerp, _parse_body, evaluate, evaluate2)

_trapz = np.trapezoid

# Most points one evaluate call of the avg path reads, which keeps each
# of its temporaries to 256 kB.
_AVG_BLOCK_POINTS = 2 ** 14


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


def _radon_lines(f: SampledSignal2D, theta: np.ndarray, tx: np.ndarray,
                 ty: np.ndarray) -> np.ndarray:
    """Integral of f along the image of the x-axis under each motion.

    Line k reads f at g_k.(x, 0) = (x cos theta_k + tx_k,
    x sin theta_k + ty_k) for x over f's x nodes and integrates by the
    trapezoid rule with step f.dx: the line that
    eval_radon_line(apply(rep, g_k^-1, f)) reads after resampling the
    whole image (which also interpolates between two resampled rows
    when y = 0 is not a lattice row).  All zeros when f's window misses
    y = 0.  Lines
    go in blocks of at most f.ny, so one evaluate2 call reads no more
    points than one resampled image; rows are independent, so the block
    size changes no value.
    """
    out = np.zeros(theta.size, dtype=complex)
    if f.origin[1] > 0.0 or f.y_end < 0.0:
        return out
    xs = f.xs
    for lo in range(0, theta.size, f.ny):
        blk = slice(lo, lo + f.ny)
        cos, sin = np.cos(theta[blk])[:, None], np.sin(theta[blk])[:, None]
        vals = evaluate2(f, cos * xs + tx[blk, None], sin * xs + ty[blk, None])
        out[blk] = _trapz(vals, dx=f.dx, axis=1)
    return out


def _affine_rows(rep: AffineRep, fid: Fiducial, f: SampledSignal1D,
                 coords: np.ndarray) -> np.ndarray:
    """F(pi(g^-1) f) at every affine element (a, b) of coords, read from
    f's samples without building elements or moved signals.

    The moved signal is pref * f(a x + b) on f's own nodes x (the
    t-form), with a x + b and pref written as apply_affine computes them
    from the inverse element.  A linear F is a fixed weight row per
    output (trapezoid weight times kernel), so each element costs one
    interpolation of f over the run of nodes that land in f's window
    (elsewhere f reads 0) and where some row is nonzero, and one dot
    product; a rational tail is added from the moved edge samples.  avg
    is not linear: it reads the nodes in [-1, 1] and the two cells
    around -1 and 1, with the same expressions as eval_interval_average,
    for blocks of elements.
    """
    a, b = coords[:, 0], coords[:, 1]
    ai, bi = 1.0 / a, -b / a
    pref = np.array([rep.prefactor(x) for x in ai.tolist()])
    if fid.kind == "avg":
        return _avg_rows(f, ai, bi, pref)[:, None]
    out = np.zeros((a.size, fid.output_dim), dtype=complex)
    n, xs, v = f.n, f.xs, f.values
    if n >= 2:   # one sample integrates to 0 under the trapezoid rule
        w = np.full(n, f.dx)
        w[[0, -1]] *= 0.5
        rows = _kernel_rows(fid, f) * w
        dv = np.diff(v)
        # Node j lands in cell a*j + (a*x0 + b - x0)/dx of f, up to
        # rounding (well under 1e-14 of (1 + a)*|x| + |b| in x), and
        # _snap reads cells within _SNAP_TOL of the window as inside.
        # Widening the run by both (1/a nodes per cell) leaves no inside
        # node out; run nodes outside the window read 0 through the
        # inside mask.
        span = max(abs(f.x0), abs(f.x_end))
        cells = _SNAP_TOL + 1e-14 * ((1.0 + a) * span + np.abs(b)) / f.dx
        lo = np.ceil(((f.x0 - b) / a - f.x0) / f.dx - cells / a)
        hi = np.floor(((f.x_end - b) / a - f.x0) / f.dx + cells / a) + 1.0
        # Columns where every row is 0 (v0's support, for inner) add
        # nothing; all-zero rows leave every run empty.
        nz = np.flatnonzero(np.any(rows != 0, axis=0))
        c0, c1 = (nz[0], nz[-1] + 1) if nz.size else (0, 0)
        runs = zip(np.clip(lo, c0, c1).astype(np.intp).tolist(),
                   np.clip(hi, c0, c1).astype(np.intp).tolist(),
                   ai.tolist(), bi.tolist(), pref.tolist())
        for e, (l, h, ia, ib, c) in enumerate(runs):
            if l < h:
                i, frac, inside = _cells(f, (xs[l:h] - ib) / ia)
                u = np.where(inside, v[i] + frac * dv[i], 0.0)
                out[e] = c * (rows[:, l:h] @ u)
    if fid.tail_policy == "rational-tail":
        first = pref * evaluate(f, (xs[0] - bi) / ai)
        last = pref * evaluate(f, (xs[-1] - bi) / ai)
        out += _tail_rows(fid, f.x0, f.x_end, first, last)
    return out


def _avg_rows(f: SampledSignal1D, ai: np.ndarray, bi: np.ndarray,
              pref: np.ndarray) -> np.ndarray:
    """eval_interval_average of pref * f((x - bi) / ai) over f's nodes x,
    per element, bit for bit."""
    inner, x_read = _unit_interval(f)
    (il, ir), (fl, fr), _ = _cells(f, np.array([-1.0, 1.0]))
    nodes = f.xs[np.r_[il, il + 1, np.arange(f.n)[inner], ir, ir + 1]]
    out = np.empty(ai.size)
    step = max(1, _AVG_BLOCK_POINTS // nodes.size)
    for s in range(0, ai.size, step):
        blk = slice(s, s + step)
        u = pref[blk, None] * evaluate(
            f, (nodes - bi[blk, None]) / ai[blk, None])
        ys = np.abs(np.column_stack((_lerp(u, 0, fl), u[:, 2:-2],
                                     _lerp(u, nodes.size - 2, fr))))
        out[blk] = 0.5 * _trapz(ys, x_read, axis=1)
    return out


def covariant_transform(rep, fid: Fiducial, v,
                        grid: GroupGrid) -> TransformResult:
    """Evaluate (W v)(g) = F(pi(g^-1) v) at every grid element.

    The representation must act by the grid's group: AffineRep on an
    affine grid, EuclideanRep on an e2 grid.  Affine reads follow the
    t-form (the moved signal read on v's own window, see `fiducials`)
    and come from `_affine_rows`, which reads v's samples without moving
    the signal once per element: within 1e-12 of the largest value of
    the per-element reference `_rows` for linear fiducials, bit for bit
    for avg.  Line integrals under the Euclidean action sample each line
    directly (`_radon_lines`).
    """
    _check_compat(rep, fid, v, grid)
    if isinstance(rep, AffineRep):
        rows = _affine_rows(rep, fid, v, grid.coords)
    else:
        rows = _radon_lines(v, *grid.coords.T)
    meta = {
        "rep": rep.describe(),
        "fiducial": fid.describe(),
        "grid": grid.spec,
        "truncation_budget": truncation_budget(fid, v),
    }
    return TransformResult(grid, rows, meta)


_REP_GROUPS = {AffineRep: "affine", EuclideanRep: "e2"}


def _check_compat(rep, fid: Fiducial, v, grid: GroupGrid) -> None:
    group = _REP_GROUPS.get(type(rep))
    if group is None:
        raise ValueError(f"no grid carries the elements of {rep!r}; grids "
                         f"are over {' or '.join(_REP_GROUPS.values())}")
    if grid.group != group:
        raise ValueError(f"{rep.describe()} acts by {group!r} elements, "
                         f"but the grid is over {grid.group!r}")
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
    _check_compat(rep, fid, v, grid)
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
    """Line integrals of f along g-images of the x-axis, one per motion.

    Each line is sampled at g.(x, 0) for x over f's x nodes and
    integrated by the trapezoid rule; every value is 0 when f's window
    does not contain y = 0.
    """
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
    sinogram code hands the motions in directly.  As in
    `radon_transform`, each line is sampled at f's x nodes and a window
    without y = 0 gives zeros.
    """
    coords = np.array([g.coords() for g in motions], dtype=float)
    return _radon_lines(f, *coords.reshape(-1, 3).T)


# ---------------------------------------------------------------------------
# CSV round-trip for transform results.

def write_transform_csv(res: TransformResult, path) -> None:
    """One row per grid element: group coordinates in the group's own
    order (a, b or theta, tx, ty, whatever the spec's axis order), then
    re_k, im_k.

    The first line carries the rep/fiducial/grid spec strings so a file
    is reproducible from its own header.
    """
    meta = res.meta
    dim = res.output_dim
    with open(path, "w", newline="") as fh:
        fh.write("# covkit-transform"
                 f" rep={meta.get('rep', '?')}"
                 f" fiducial={meta.get('fiducial', '?')}"
                 f" grid={res.grid.spec}"
                 f" truncation_budget={_fmt(meta.get('truncation_budget', 0.0))}\n")
        header = list(res.grid.coord_names) + [
            f"{p}_{k}" for k in range(dim) for p in ("re", "im")]
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
        data = _parse_body(path, fh, len(header))
    if "grid" not in meta:
        raise ValueError(f"{path}: header does not carry a grid spec")
    grid = make_grid(meta["grid"])
    n_coords = len(grid.axes)
    dim, odd = divmod(len(header) - n_coords, 2)
    if dim < 1 or odd:
        raise ValueError(f"{path}: header must have {n_coords} coordinate "
                         "columns and a re,im pair per component")
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path}: non-finite coordinate or value")
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
