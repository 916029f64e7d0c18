"""Uniformly sampled signals on the line and the plane.

Signals are immutable: a start point, a positive step, and complex
samples.  A 2D signal also carries a rigid motion of its lattice, so
moving it moves the frame and keeps the samples.  Point evaluation
interpolates linearly (bilinearly in 2D) and returns 0 outside the
sampled window; that convention is relied on by every consumer, so
truncation never raises, it only loses tail mass.  A NaN point is no
position at all and raises ValueError.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .groups import EuclideanMotion

_trapz = np.trapezoid


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

    @cached_property
    def parts(self) -> np.ndarray:
        """The samples as rows of reals, read-only (`_parts`)."""
        parts = _parts(self.values)
        parts.setflags(write=False)
        return parts


def _parts(vals: np.ndarray) -> np.ndarray:
    """vals as a new stack of rows of reals: its real part alone when its
    imaginary part is exactly 0 (or it has none), else the real and the
    imaginary part.  Every sum of the affine paths carries its operands
    by this rule, so real data never do work on an all-zero part."""
    if np.iscomplexobj(vals) and vals.imag.any():
        return np.array([vals.real, vals.imag])
    return np.array([vals.real])


def _product(p) -> list:
    """The parts of a product x y (`_parts`) from the real products of
    the parts of x and y: p[j][k] is part j of x times part k of y, each
    formed as its caller sums them (elementwise, or by a matrix product).

        (x0 + i x1)(y0 + i y1) = (x0 y0 - x1 y1) + i (x0 y1 + x1 y0),

    where a part that x or y does not carry is exactly 0, so the product
    carries the parts whose terms are carried: [x0 y0] for real x and y,
    [x0 y0, x0 y1] for real x, [x0 y0, x1 y0] for real y.
    """
    if len(p) == 1:
        return list(p[0])
    if len(p[0]) == 1:
        return [p[0][0], p[1][0]]
    return [p[0][0] - p[1][1], p[0][1] + p[1][0]]


# Fractional grid positions this close to an integer read the node.
_SNAP_TOL = 1e-9


def _snap(t: np.ndarray) -> np.ndarray:
    """Pull fractional grid positions onto integers they nearly hit, in
    place; returns t.

    (x - x0) / dx lands a hair off an integer whenever x0/dx is not
    float-exact, and that hair would mix a neighboring sample into a
    node read.  _SNAP_TOL is far above accumulated roundoff and far below
    any deliberate interpolation offset.
    """
    r = np.rint(t)
    # +-inf - rint(+-inf) is nan, which is never near an integer: the
    # point stays infinite and reads 0
    with np.errstate(invalid="ignore"):
        d = t - r
    np.abs(d, out=d)
    near = d < _SNAP_TOL
    if near.any():
        np.copyto(t, r, where=near)
    return t


def _cells(x: np.ndarray, x0: float, dx: float, n: int):
    """Cell index i, fraction and outside mask of the points x on the
    uniform axis x0 + k*dx, k = 0..n-1.

    Each point lies a fraction frac of the way from node i to node i + 1;
    where outside is true it reads 0.  The axis is uniform, so the cell
    index is computed directly instead of searched.  On an axis one
    sample wide every inside point reads node 0 with fraction 0.  x must
    be an array of at least one dimension; a nan point raises
    ValueError.
    """
    return _locate((x - x0) / dx, n)


def _locate(t: np.ndarray, n: int):
    """`_cells` of the grid positions t = (x - x0) / dx, computed in
    place: t ends as the fractions, and (i, t, outside) is returned."""
    _snap(t)
    outside = t < 0.0
    outside |= t > n - 1
    np.clip(t, 0.0, float(n - 1), out=t)
    # the cell's first node as a float, so that the fraction is a float
    # difference (the same bits as subtracting the cast index, in less
    # time)
    i0 = np.trunc(t)
    np.minimum(i0, max(n - 2, 0), out=i0)
    t -= i0
    # clip, trunc and minimum keep a nan, whose cast is no index at all
    # (-2**63 on x86); the cast flags it, which costs less than a pass
    # looking for it
    try:
        with np.errstate(invalid="raise"):
            return i0.astype(np.intp), t, outside
    except FloatingPointError:
        k = int(np.flatnonzero(np.isnan(t))[0])
        raise ValueError(f"cannot evaluate at nan (point {k} of {t.size})")


def _lerp(parts: np.ndarray, i, frac) -> np.ndarray:
    """Each row v of parts read a fraction frac of the way from v[i] to
    v[i + 1], v[i] (1 - frac) + v[i + 1] frac, in real multiplies: a
    stack of one row per row of parts, each shaped like i.

    parts holds real samples, the real and imaginary parts of complex
    ones as two rows (`SampledSignal1D.parts`).  Each read is the real
    or imaginary part of the complex read of the same cell, bit for bit
    but for the sign of a zero read beside a zero sample.  A one-sample
    row reads v[0] at v[i + 1] as well, where frac is always 0.
    """
    out = np.empty((len(parts),) + np.shape(i))
    rest = 1.0 - frac
    nxt = np.empty(np.shape(i))
    for row, o in zip(parts, out):
        # in-range indices: "clip" skips the buffered copy "raise" makes
        np.take(row, i, out=o, mode="clip")
        o *= rest
        np.take(row[1:] if row.size > 1 else row, i, out=nxt, mode="clip")
        nxt *= frac
        o += nxt
    return out


def _read(parts: np.ndarray, x0: float, dx: float, x: np.ndarray):
    """The read kernel of `evaluate` and `_moved_reads`: the linear
    interpolation of each row of parts (real samples at x0 + k*dx) at the
    points x, 0 outside [x0, x0 + (n - 1) dx], as a stack of one array
    shaped like x per row.

    x must be a C-contiguous float array and is overwritten: the points
    become their grid positions (x - x0) / dx, then their fractions, so
    a block of points costs no temporaries beyond the cell indices, the
    outside mask and the reads.  A nan point raises ValueError; +-inf
    read 0.
    """
    t = x.reshape(-1)
    t -= x0
    t /= dx
    i0, frac, outside = _locate(t, parts.shape[-1])
    out = _lerp(parts, i0, frac)
    for row in out:
        # one row at a time: a 2D boolean index takes several times longer
        np.putmask(row, outside, 0.0)
    return out.reshape((len(parts),) + x.shape)


def _complex(parts: np.ndarray) -> np.ndarray:
    """The complex array whose real part is parts[0] and whose imaginary
    part is parts[1], or +0.0 where parts has one row."""
    out = np.empty(parts.shape[1:], dtype=complex)
    out.real = parts[0]
    out.imag = parts[1] if len(parts) > 1 else 0.0
    return out


def evaluate(s: SampledSignal1D, x) -> np.ndarray:
    """Linear interpolation of the samples; 0 outside [x0, x_end].

    Exact at the nodes, so resampling a signal onto its own grid is the
    identity.  A nan point raises ValueError; +-inf read 0.  The real
    and imaginary parts are read apart through `_read`, so a fraction
    multiplies a real sample, never a complex one; a one-sample signal
    reads its sample only at its node.
    """
    return _complex(_read(s.parts, s.x0, s.dx, np.array(x, dtype=float)))


# Most points one block of `_moved_reads` reads, which keeps each of its
# temporaries to 128 kB a row of reals, so a block's working set stays
# inside a core's L2 cache.  On 2 MB of L2, interleaved runs of the Haar
# and Hardy syntheses and the inner transforms took 5-20% less time with
# 2^14 points than with 2^15, and up to 10% less than with 2^13, whose
# blocks cost more in per-call overhead than they save in cache misses.
_RUN_BLOCK_POINTS = 2 ** 14


def _window(v0: SampledSignal1D, scale, shift, x0: float, dx: float,
            n: int):
    """(lo, hi): the run lo <= j < hi of the positions x = x0 + j dx, j <
    n, at which v0((x - shift) / scale) can read inside v0's window
    (elsewhere it reads 0), one run per entry of the arrays scale (either
    sign, never 0) and shift, or one for scalars.

    The run is widened by _SNAP_TOL cells of v0, which _snap reads as
    inside, and by a rounding bound (well under 1e-14 of |x| + |shift| +
    |scale t| in x), so no inside position is left out; run positions
    that still fall outside read 0 through the inside test.  A bound
    that is nan (a window overflowing to inf - inf) takes every position.
    """
    span = max(abs(x0), abs(x0 + (n - 1) * dx))
    vspan = max(abs(v0.x0), abs(v0.x_end))
    with np.errstate(over="ignore", invalid="ignore"):
        slack = (np.abs(scale) * (_SNAP_TOL * v0.dx + 1e-14 * vspan)
                 + 1e-14 * (span + np.abs(shift))) / dx
        ends = [(scale * t + shift - x0) / dx for t in (v0.x0, v0.x_end)]
        lo = np.ceil(np.minimum(*ends) - slack)
        hi = np.floor(np.maximum(*ends) + slack) + 1.0
    lo = np.fmin(np.fmax(lo, 0.0), n)
    hi = np.fmax(np.fmin(hi, n), 0.0)
    return lo.astype(np.intp), hi.astype(np.intp)


def _moved_reads(v0: SampledSignal1D, target: SampledSignal1D,
                 a: np.ndarray, b: np.ndarray, plan: _Plan):
    """v0((x - b[e]) / a[e]) at target's nodes x for the elements e that
    plan (`_plan` of v0 on target's nodes) reads directly, in blocks:
    yields (elems, cols, u), where u[k, i, j] is row k of v0.parts (the
    real part, then the imaginary part unless it is exactly 0) read by
    element elems[i] at node cols[j] (cols a slice: a dense block) or at
    node cols[i, j] (cols an index array: a ragged block, whose indices
    run to target.n).

    Element e reads only its run of nodes (plan.lo, plan.length),
    outside which v0 reads 0.  Runs are sorted by length, then by first
    node, and read in blocks of at most _RUN_BLOCK_POINTS points
    (`_runs`).  A block whose runs all start at one node is dense (nodes
    past a shorter run read 0); any other block is padded to its longest
    run, and a node past the last one is node target.n, which reads 0.
    A run longer than a block (one element then) comes in pieces.  Each
    block is one `_read`, in place on the positions x = (node - b) / a:
    a real vacuum's reads are real, bit for bit the real part of
    evaluate's, and a complex one's are its two parts.
    """
    direct = plan.direct
    xs = np.append(target.xs, math.inf)
    parts, x0, step = v0.parts, v0.x0, v0.dx
    for pos, cols in _runs(plan.lo[direct], plan.length[direct], target.n):
        elems = direct[pos]
        x = xs[cols] - b[elems, None]
        x /= a[elems, None]
        yield elems, cols, _read(parts, x0, step, x)


def _runs(lo: np.ndarray, length: np.ndarray, n: int):
    """The blocks of `_moved_reads` over the runs lo[i] <= node < lo[i] +
    length[i] (every length positive) on n nodes: yields (pos, cols),
    pos the indices of the block's runs and cols the slice of nodes of a
    dense block or the node indices of a ragged one (a node past the
    last one is node n)."""
    order = np.lexsort((lo, -length))
    block = _RUN_BLOCK_POINTS
    s = 0
    while s < order.size:
        width = int(length[order[s]])
        pos = order[s:s + max(1, block // width)]
        s += pos.size
        l0 = lo[pos[0]]
        if width <= block and np.all(lo[pos] == l0):
            yield pos, slice(l0, l0 + width)
            continue
        for off in range(0, width, block):
            node = lo[pos, None] + np.arange(off, min(off + block, width))
            np.minimum(node, n, out=node)
            yield pos, node


# How far the b values and the nodes may sit from their lattice points,
# in units of eps times the largest coordinate of either: a few
# roundings, as many as the direct path's own x - b carries, so a
# lattice sum reads every kernel position within rounding of the one the
# direct path reads.
_LATTICE_DRIFT_EPS = 4.0

# Longest lattice one FFT product covers, which keeps each of its
# buffers to 16-32 MB.  A longer one is left to the direct path, whose
# blocks bound the memory whatever the grid.
_LATTICE_MAX_POINTS = 2 ** 20

# Cost of one lattice point in ns: the kernel sampled there plus the
# point's share of one dilation's FFTs and products on its `_Lattice`.
# On a 2-core Xeon (Python 3.11, numpy 2.4), one dilation of a lattice of
# 1.2k-34k points cost 50-165 ns a point for the Cauchy/Poisson pair, and
# 115-330 ns below 500 points.  Part of that is a fixed cost of 40-100 us
# a dilation (kernel call, FFT calls, buffers; 51-point lattices), which
# the rule has no term for.  150 ns sits in that spread.
_LATTICE_POINT_NS = 150.0

# The same for a moved vacuum, which is sampled only in its window and
# makes one spectrum row for a real vacuum: on the host above, one
# dilation of the roundtrip benchmark's Haar shapes (1201 nodes, an
# 801-sample Mexican hat) cost 42-65 ns a point on lattices of 12k-17k
# points, 95-117 ns on 2401 points and 80-120 ns on 74k points, in
# analysis and in synthesis (25th percentiles of 15 runs).  At 60 ns the
# rule sends the 30 x 151 shape's 2401-point lattice the FFT, which
# summed that shape's inner transform plus synthesis in 12.2 ms against
# 15.4 ms by strided products (medians of 9 interleaved rounds), and no
# dilation of the other five shapes, whose strided sums cost less.
_MOVED_LATTICE_POINT_NS = 60.0

# Cost of one direct (element, sample) pair of the closed-form Cauchy and
# Poisson blocks (`transform._kernel_blocks`) in ns.  On the host above,
# `transform._kernel_sums` with every dilation read directly (best of 7,
# 4-8 dilations on 601-2401 samples, two rounds) cost 3.5-4.4 ns a pair
# for P and Q at 600-4800 elements, 4.4-6.3 ns at 100, and 2.3-3.3 ns for
# P alone.  4 ns is the pair at the sizes where a lattice competes; with
# _LATTICE_POINT_NS the rule takes a lattice once a dilation reads 37.5
# pairs a point (a lattice point measured 75-130 ns for the pair and
# 54-83 ns for P alone on 1.3k-26k points).
_KERNEL_READ_NS = 4.0

# Cost of one direct read of a moved vacuum in ns: a linear
# interpolation in the blocks of `_moved_reads`, then its share of the
# product or scatter that sums it.  On the host above, the inner
# transform plus the Haar synthesis of the roundtrip benchmark's six
# shapes (1201 nodes, an 801-sample Mexican hat), every dilation read
# directly, cost 24-28 ns a read as the rule counts them, 30-33 ns
# before the reads went real and in place; every dilation on the lattice,
# 69-94 ns a lattice point at 12k-34k points and 120-132 ns at 2.4k.
# The direct reads got cheaper, but a lower constant cost time: at 20 ns
# the four shapes with a lattice took 6-13% longer than at 30 ns (the
# rule sends 1-2 more of their dilations to the direct path; medians of
# 25 interleaved runs), and at 40 ns 0-7% less, near the 4% spread of
# the shapes whose path it does not change.  A lattice dilation also
# costs 110-130 us a sum whatever its length (one more dilation on a
# 51- or 101-point lattice), but a fixed term of 70 or 120 us added to
# the points' cost, which sends one dilation of the 20 x 225 and of the
# 18 x 251 shape (at 120 us also of the 30 x 151 shape) direct, bought
# nothing: those shapes took 0-6% longer, so the rule has no such term.
# Of a read, the interpolation itself is 12.5-12.7 ns.  `_plan` counts
# a dilation's reads as the nodes of its elements' runs.
_MOVED_READ_NS = 30.0


def _common_lattice(b_axis, x0: float, dx: float, n: int):
    """(h, kb, kx, length) when the values of the grid axis b_axis and
    the nodes x0 + k dx (k < n) lie on one lattice of step h: the b step
    is kb h and dx is kx h, so every difference is x0 - b0 + (k kx -
    j kb) h, one of the length = (nb - 1) kb + (n - 1) kx + 1 points of
    the lattice.

    The candidates kb / kx are the convergents of the continued fraction
    of db / dx (a whole multiple is one k / 1, a whole fraction 1 / k),
    tried in order until one passes the drift test.  h divides the step
    of the axis that spans more lattice points, so that span is exact;
    the other axis drifts from its lattice points by at most (its
    length) x |its step - k h|, which must stay within
    _LATTICE_DRIFT_EPS.  The search gives up at the first convergent
    whose lattice exceeds _LATTICE_MAX_POINTS, since later ones are
    longer still.  None then, and unless b_axis is lin, increasing and
    at least two points long, n is at least 2 and db / dx and dx / db
    are finite (the test reads the axis spec only, never the
    coordinates).
    """
    nb = b_axis.n
    if b_axis.kind != "lin" or nb < 2 or n < 2 or not b_axis.hi > b_axis.lo:
        return None
    db = (b_axis.hi - b_axis.lo) / (nb - 1)
    if not (0.0 < db / dx < math.inf and dx / db < math.inf):
        return None
    scale = max(abs(b_axis.lo), abs(b_axis.hi), abs(x0),
                abs(x0 + (n - 1) * dx))
    tol = _LATTICE_DRIFT_EPS * np.finfo(float).eps * scale
    # convergents p / q of num / den: p = c p1 + p2, q = c q1 + q2
    num, den = (db / dx).as_integer_ratio()
    p1, q1, p2, q2 = 1, 0, 0, 1
    while den:
        c, rem = divmod(num, den)
        num, den = den, rem
        p1, q1, p2, q2 = c * p1 + p2, c * q1 + q2, p1, q1
        if not p1:
            continue
        kb, kx = p1, q1
        length = (nb - 1) * kb + (n - 1) * kx + 1
        if length > _LATTICE_MAX_POINTS:
            return None
        h = db / kb if (nb - 1) * kb >= (n - 1) * kx else dx / kx
        drift = (nb - 1) * abs(db - kb * h) + (n - 1) * abs(dx - kx * h)
        if drift <= tol:
            return h, kb, kx, length
    return None


# Costs of the strided path in ns (`_Lattice.strided`), which `_plan`
# weighs against the FFT and the direct reads: a fixed cost per dilation
# (its window, bands and table set up), one point of its table (a
# `_read` on the lattice window), one product over a block of rows (the
# view, the call and the copy of its sums) and one multiply-add of the
# products' bands.
_STRIDED_FIXED_NS = 100_000.0
_TABLE_POINT_NS = 14.0
_STRIDED_BLOCK_NS = 5000.0
_STRIDED_MAC_NS = 0.7

# Most points one table holds: 1 MB a part, half a core's L2 cache.  On
# the 12 x 375 Haar shape (a 448,801-point lattice), whose widest
# windows would stride 4.8 and 1.5 kB between reads, those dilations
# read directly in less time.
_TABLE_MAX_POINTS = 2 ** 17


@dataclass(frozen=True, eq=False)
class _Plan:
    """The paths of one sum's dilations (`_plan`).

    fft lists (row, ae) for each dilation ae summed by FFT on lattice,
    row its elements in b order, and strided lists (row, scale) for each
    dilation summed from its table (`_Lattice.strided`), scale the
    dilation as the lattice reads it; rest marks the elements read that
    neither sums, and direct lists those read directly.  For a moved
    vacuum, lo and length give each element's run of nodes (`_window`,
    empty off direct).
    """

    lattice: _Lattice | None
    fft: list
    rest: np.ndarray
    direct: np.ndarray
    strided: list = ()
    lo: np.ndarray | None = None
    length: np.ndarray | None = None


def _plan(a: np.ndarray, b: np.ndarray, rows, nodes: SampledSignal1D,
          v0: SampledSignal1D | None = None, read: np.ndarray | None = None,
          onto_nodes: bool = False, strided: bool = False) -> _Plan:
    """The path rule of every sum of a moved kernel over an affine
    product grid: each dilation is summed by FFT on the grid's lattice,
    by strided products from a table of its moved vacuum on that lattice,
    or by direct reads, whichever the prices below make cheapest.

    The sums are those of v0 on the nodes, or with v0 None those of the
    closed-form Cauchy and Poisson kernels, whose window is unbounded:
    the transforms sum over the nodes onto the b axis, on the lattice of
    b - x, the syntheses over b onto the nodes (onto_nodes), on that of
    x - b.  rows = (b axis, idx) describes the grid, idx[i] listing the
    elements of one dilation in b order; read masks the elements summed
    (all by default).  The lattice is searched once (`_common_lattice`:
    a lin b axis whose step is a rational p/q of the node step); without
    one, or without rows, every element is read directly.

    A dilation costs its lattice's points on the FFT, at
    _LATTICE_POINT_NS each for the kernels and _MOVED_LATTICE_POINT_NS
    for v0; `_Lattice.strided_ns` on the strided path, for v0 only and
    only when its window holds at most _TABLE_MAX_POINTS lattice points;
    and its reads directly, at _KERNEL_READ_NS each for the kernels
    (n_b x n) and _MOVED_READ_NS for v0 (the nodes of its elements'
    runs).  strided sends every dilation of v0 that the bound admits down
    the strided path whatever the prices (the check suites compare it
    with the per-element sums so).  Analysis reads v0(d / -ae) at the
    negated positions d of synthesis's v0(d / ae), so the same bits.
    Every path agrees with the per-element references within 1e-12 of
    the largest value.
    """
    x0, dx, n = nodes.x0, nodes.dx, nodes.n
    rest = np.ones(a.size, dtype=bool) if read is None else read.copy()
    if v0 is not None:
        lo, hi = _window(v0, a, b, x0, dx, n)
        length = hi - lo
        length[~rest] = 0
    common = _common_lattice(rows[0], x0, dx, n) if rows else None
    lattice, fft, tables = None, [], []
    if common:
        b_axis, idx = rows
        h, kb, kx, _ = common
        if onto_nodes:
            lattice = _Lattice(x0 - b_axis.lo, h, n, kx, b_axis.n, kb)
        else:
            lattice = _Lattice(b_axis.lo - x0, h, b_axis.n, kb, n, kx)
        fft_ns = lattice.length * (_LATTICE_POINT_NS if v0 is None
                                   else _MOVED_LATTICE_POINT_NS)
        scales = a[idx[:, 0]] if onto_nodes else -a[idx[:, 0]]
        if v0 is not None:
            windows = zip(*(w.tolist() for w in lattice.window(v0, scales)))
        for row, scale in zip(idx, scales.tolist()):
            table_ns = math.inf
            if v0 is None:
                direct_ns = b_axis.n * n * _KERNEL_READ_NS
            else:
                direct_ns = int(length[row].sum()) * _MOVED_READ_NS
                start, stop = next(windows)
                if direct_ns and stop - start <= _TABLE_MAX_POINTS:
                    table_ns = 0.0 if strided else lattice.strided_ns(start,
                                                                      stop)
            if fft_ns < direct_ns and fft_ns <= table_ns:
                fft.append((row, a[row[0]]))
            elif table_ns < direct_ns:
                tables.append((row, scale))
            else:
                continue
            rest[row] = False
    if v0 is None:
        return _Plan(lattice, fft, rest, np.flatnonzero(rest))
    length[~rest] = 0
    return _Plan(lattice, fft, rest, np.flatnonzero(length > 0), tables,
                 lo, length)


def _fft_size(n: int) -> int:
    """The least 2^i 3^j 5^k at or above n."""
    best = 1 << max(n - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


class _Lattice:
    """One grid's lattice of differences, as the correlation

        out[..., i] = sum over k < m of s[k] kernel(d0 + (i step_out -
                      k step_in) h),  i < n.

    The kernel is sampled once per dilation on the length = (n - 1)
    step_out + (m - 1) step_in + 1 lattice positions, and the sums come
    from FFT products: circular, at least as long as the lattice, so no
    read wraps around.  The FFT work comes in three parts, which the
    callers share out: `weights` (the spectrum of s: once per transform
    in analysis, where s is f's weighted samples for every dilation),
    `kernel` (the spectrum of one dilation's kernel) and `inverse` (the
    sums from a spectrum `product`, or from the sum of several: once per
    synthesis).  Every operand and every result is a stack of parts
    (`_parts`: the real part, and the imaginary part unless it is exactly
    0), each part transformed by real FFTs on its own and multiplied by
    `_product`: a real s against a real kernel makes one spectrum row
    each and one inverse row, and sums to real values, as the direct
    path's do.
    """

    def __init__(self, d0: float, h: float, n: int, step_out: int, m: int,
                 step_in: int):
        self.d0, self.h, self.step_out, self.step_in = d0, h, step_out, step_in
        self.n, self.m = n, m
        self.lead = (m - 1) * step_in
        self.length = (n - 1) * step_out + self.lead + 1
        self.size = _fft_size(self.length)
        self.pick = np.s_[..., self.lead:self.length:step_out]

    def positions(self, start: int = 0, stop: int | None = None):
        """The lattice positions d0 + (j - lead) h for start <= j < stop,
        all of them by default."""
        stop = self.length if stop is None else stop
        return self.d0 + self.h * np.arange(start - self.lead,
                                            stop - self.lead, dtype=float)

    def weights(self, parts: np.ndarray) -> np.ndarray:
        """The spectra of the parts of s spread on the lattice, one row
        each."""
        spread = np.zeros((len(parts), self.size))
        spread[:, :self.lead + 1:self.step_in] = parts
        return np.fft.rfft(spread)

    def window(self, v0: SampledSignal1D, scale: float):
        """(start, stop): the run of positions d at which v0(d / scale)
        can read inside v0's window (`_window`)."""
        return _window(v0, scale, 0.0, self.d0 - self.lead * self.h, self.h,
                       self.length)

    def moved_vacuum(self, v0: SampledSignal1D, scale: float) -> np.ndarray:
        """The parts of v0(d / scale) at every lattice position d, one row
        per row of `SampledSignal1D.parts`, read by `_read` only in the
        run of positions `window` gives (`moved_table`).

        The others read exactly 0, as evaluate reads them, so each row is
        bit-identical to the real or imaginary part of evaluating every
        position.
        """
        first, table = self.moved_table(v0, scale, 0)
        k = np.zeros((len(table), self.length))
        k[:, first:first + table.shape[1]] = table
        return k

    def moved_table(self, v0: SampledSignal1D, scale: float, pad: int):
        """(first, k): the samples of `moved_vacuum` in the run of
        positions `window` gives, with pad zeros on either side, k[:, i]
        at position first + i, so the table reads every position of the
        run and of its padding as moved_vacuum does, in the memory of the
        run."""
        start, stop = self.window(v0, scale)
        k = np.zeros((len(v0.parts), max(stop - start, 0) + 2 * pad))
        # in blocks, whose temporaries stay in cache
        for lo in range(start, stop, _RUN_BLOCK_POINTS):
            hi = min(lo + _RUN_BLOCK_POINTS, stop)
            x = self.positions(lo, hi)
            x /= scale
            k[:, lo - start + pad:hi - start + pad] = _read(v0.parts, v0.x0,
                                                            v0.dx, x)
        return start - pad, k

    def block_rows(self) -> int:
        """Rows of the sums one product of `strided` forms.  A block of r
        rows reads (r - 1) step_out / step_in more terms a row than one
        row reads, so r = sqrt(_STRIDED_BLOCK_NS step_in /
        (_STRIDED_MAC_NS step_out)) balances those multiply-adds against
        the product's fixed cost."""
        return max(1, int(math.sqrt(_STRIDED_BLOCK_NS * self.step_in
                                    / (_STRIDED_MAC_NS * self.step_out))))

    def reading_rows(self, start: int, stop: int):
        """(first, last): the sums out[i], first <= i <= last, that read
        a position in [start, stop) (none when last < first).  Sum i
        reads terms ceil((lead + i step_out - stop + 1) / step_in) to
        floor((lead + i step_out - start) / step_in), both rising with
        i, of the terms k < m."""
        so, si, lead = self.step_out, self.step_in, self.lead
        first = max(0, -((lead - start) // so))
        last = min(self.n - 1, ((self.m - 1) * si + stop - 1 - lead) // so)
        return first, (last if stop > start else first - 1)

    def bands(self, start: int, stop: int):
        """(i0, i1, m0, m1): the blocks i0 <= i < i1 of at most
        `block_rows` sums that read a position in [start, stop)
        (`reading_rows`), each with its band m0 <= k < m1, the terms
        whose position lead + i step_out - k step_in lies in
        [start, stop) for some i of the block (int arrays, one entry a
        block, m1 <= m0 where none does)."""
        so, si, lead = self.step_out, self.step_in, self.lead
        rows = self.block_rows()
        first, last = self.reading_rows(start, stop)
        i0 = np.arange(first, last + 1, rows)
        i1 = np.minimum(i0 + rows, last + 1)
        m0 = np.maximum(-((stop - 1 - lead - i0 * so) // si), 0)
        m1 = np.minimum((lead + (i1 - 1) * so - start) // si + 1, self.m)
        return i0, i1, m0, m1

    def strided_ns(self, start: int, stop: int) -> float:
        """The price of `strided` over the window [start, stop): a fixed
        cost, its table's points, and its products and their
        multiply-adds, a block of r rows taken to span (stop - start +
        (r - 1) step_out) / step_in terms (at most m), its band without
        the clipping at the first and last term."""
        rows = self.block_rows()
        first, last = self.reading_rows(start, stop)
        count = max(last - first + 1, 0)
        width = min(self.m, (stop - start + (rows - 1) * self.step_out)
                    / self.step_in)
        return (_STRIDED_FIXED_NS + (stop - start) * _TABLE_POINT_NS
                + -(-count // rows) * _STRIDED_BLOCK_NS
                + count * width * _STRIDED_MAC_NS)

    def strided(self, v0: SampledSignal1D, scale: float,
                cols: np.ndarray) -> list:
        """The parts of the sums out[i] = sum over k < m of v0(d / scale)
        cols[k], d the lattice position of (i, k), for i < n: what
        `inverse` gives for an FFT dilation, from the columns cols (one
        row a term, one column a part of the operand, `_parts`).

        The moved vacuum is sampled once on its window (`moved_table`),
        padded with (`block_rows` - 1) step_out zeros on either side.  Its
        reads are the matrix [i, k] -> position lead + i step_out -
        k step_in, strided views of that table (no copy; numpy checks
        each against the table's bounds), and each block of sums
        (`bands`) is one real matrix product of the view over the block's
        band against those columns, one per part of v0.  Entries of a
        band outside the window read the padding's zeros, so every sum
        reads exactly the values moved_vacuum holds.  The parts are
        multiplied by `_product`, so real columns against a real vacuum
        sum to one real row.
        """
        pad = (self.block_rows() - 1) * self.step_out
        first, table = self.moved_table(v0, scale, pad)
        start, stop = first + pad, first + table.shape[1] - pad
        sums = np.zeros((len(table), self.n, cols.shape[1]))
        item = table.itemsize
        strides = (table.strides[0], self.step_out * item,
                   -self.step_in * item)
        for i0, i1, m0, m1 in zip(*(x.tolist()
                                    for x in self.bands(start, stop))):
            if m1 <= m0:
                continue
            at = self.lead + i0 * self.step_out - m0 * self.step_in - first
            view = np.ndarray((len(table), i1 - i0, m1 - m0), float, table,
                              at * item, strides)
            np.matmul(view, cols[m0:m1], out=sums[:, i0:i1])
        # sums[k, i, j]: vacuum part k against column part j
        return _product(sums.transpose(0, 2, 1))

    def kernel(self, k) -> list:
        """The spectra of the parts k of the kernel samples (one per
        lattice position, or a stack of rows of them), as given: one real
        FFT per part."""
        return [np.fft.rfft(part, self.size) for part in k]

    def product(self, sw: np.ndarray, kw: list) -> list:
        """The spectra of the parts of the sums of s against the kernel,
        from sw = weights(s) and kw = kernel(k) (`_product`)."""
        return _product([[k * w for w in sw] for k in kw])

    def inverse(self, spectra: list) -> list:
        """The parts of the sums out[..., i], i < n, from their spectra."""
        return [np.fft.irfft(s, self.size)[self.pick] for s in spectra]


def integrate(s: SampledSignal1D) -> complex:
    """The trapezoid-rule integral of s over its sampled window."""
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
    """Complex samples on a rectangular lattice moved by a rigid motion.

    values[iy, ix] sits at motion.(x0 + ix*dx, y0 + iy*dy): rows sweep
    y, columns sweep x, and origin, xs and ys give the lattice before
    the motion.  The motion is the identity unless a group action moved
    the signal (`representations.apply_euclidean`).
    """

    origin: tuple[float, float]
    dx: float
    dy: float
    values: np.ndarray
    motion: EuclideanMotion = EuclideanMotion.identity()

    def __post_init__(self):
        if not (self.dx > 0 and self.dy > 0):
            raise ValueError("dx and dy must be positive")
        vals = self.values
        # a frozen complex array, such as another signal's samples that a
        # motion moved, is shared rather than copied
        if not (isinstance(vals, np.ndarray) and vals.dtype == complex
                and not vals.flags.writeable):
            vals = np.array(vals, dtype=complex)
            vals.setflags(write=False)
        if vals.ndim != 2 or vals.size == 0:
            raise ValueError("values must be a non-empty 2D array")
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
    """Bilinear interpolation; 0 outside the sampled rectangle.  A nan
    coordinate raises ValueError; +-inf read 0.

    On a moved signal the points are first pulled back through the
    inverse of its motion onto the lattice.
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float),
                               np.asarray(y, dtype=float))
    shape = x.shape
    if not s.motion.is_identity():
        x, y = _pull_back(s.motion, x, y)
    ix, tx, out_x = _cells(x.reshape(-1), s.origin[0], s.dx, s.nx)
    iy, ty, out_y = _cells(y.reshape(-1), s.origin[1], s.dy, s.ny)
    # The four neighbours by flat index into the row-major values: k,
    # k + 1, k + nx and k + nx + 1.  An axis one sample wide reads node 0
    # on both sides of its cell.
    k = iy * s.nx
    k += ix
    step_x = 1 if s.nx > 1 else 0
    step_y = s.nx if s.ny > 1 else 0
    # (1 - ty) ((1 - tx) v00 + tx v01) + ty ((1 - tx) v10 + tx v11), in
    # place
    v, sx = s.values.reshape(-1), 1.0 - tx
    out, right = v.take(k), v.take(k + step_x)
    out *= sx
    right *= tx
    out += right
    out *= 1.0 - ty
    k += step_y
    top, right = v.take(k), v.take(k + step_x)
    top *= sx
    right *= tx
    top += right
    top *= ty
    out += top
    out[out_x | out_y] = 0.0
    return out.reshape(shape)


def _pull_back(motion: EuclideanMotion, x: np.ndarray, y: np.ndarray):
    """The points (x, y) moved by the inverse of motion, as two arrays.

    Rotating a point with an infinite coordinate can make inf - inf or
    0 * inf, so such a point is sent to (inf, inf), which reads 0, and a
    point with a nan coordinate to (nan, nan), which raises.  A finite
    point that overflows lands at infinity and reads 0 as well.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        xy = motion.inverse().transform_points(np.stack((x, y), axis=-1))
    px, py = xy[..., 0], xy[..., 1]
    # inf where a coordinate is infinite, nan where one is nan
    far = np.maximum(np.abs(x), np.abs(y))
    off = ~np.isfinite(far)
    if off.any():
        px[off] = py[off] = far[off]
    return px, py


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


# Most rows one % of `_write_table` formats: a block's text and its
# argument list stay near 1 MB however large the table.
_CSV_BLOCK_ROWS = 4096


def _write_table(path, columns: list[str], parts, prefix=None,
                 comment=None, end: str = "\n") -> None:
    """Every CSV table covkit writes: the line `# covkit-<comment>` when
    comment is given (`<kind> key=value ...`), the header columns, then
    a row per index of the float arrays parts, all lines ending in end.

    Each cell is spelled %.17g, as `_fmt` spells it, one % per block of
    _CSV_BLOCK_ROWS rows.  prefix(lo, hi), when given, returns the texts
    that open rows lo to hi - 1, each ending in a comma.
    """
    line = ("%s" if prefix else "") + ",".join(["%.17g"] * len(parts)) + end
    width = len(parts) + bool(prefix)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if comment is not None:
            fh.write(f"# covkit-{comment}{end}")
        fh.write(",".join(columns) + end)
        for lo in range(0, len(parts[0]), _CSV_BLOCK_ROWS):
            hi = min(lo + _CSV_BLOCK_ROWS, len(parts[0]))
            args = [None] * ((hi - lo) * width)
            if prefix:
                args[::width] = prefix(lo, hi)
            for k, part in enumerate(parts, width - len(parts)):
                args[k::width] = part[lo:hi].tolist()
            fh.write(line * (hi - lo) % tuple(args))


def write_signal_csv(s: SampledSignal1D, path) -> None:
    """Header x,re,im, then one row per sample, lines ending in CRLF."""
    _write_table(path, ["x", "re", "im"],
                 (s.xs, s.values.real, s.values.imag), end="\r\n")


def _parse_body(path, skiprows: int, ncols: int) -> np.ndarray:
    """The lines of the CSV file at path after its first skiprows as a
    2D float array of ncols columns, one row a line.

    Blank lines are skipped and nothing is a comment, so a '#' line is a
    non-numeric row.  A body without rows raises "no samples", and a row
    of another width "rows must have ncols columns".  numpy reads the
    path with its chunked C reader; only a body it rejects is read again
    as text, to name what is wrong with it.  numpy opens a path ending in
    .gz, .bz2, .xz or .lzma as compressed, so a plain CSV so named fails
    with its OSError.
    """
    try:
        with warnings.catch_warnings():
            # a body of blank lines is reported as "no samples" below
            warnings.filterwarnings("ignore", "loadtxt: input contained no "
                                    "data", UserWarning)
            data = np.loadtxt(path, delimiter=",", comments=None, ndmin=2,
                              skiprows=skiprows)
    except ValueError:
        try:
            with open(path) as fh:
                body = "".join(fh.readlines()[skiprows:])
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
        if not body.strip():
            raise ValueError(f"{path}: no samples") from None
        ragged = any(line.count(",") != ncols - 1 and _numeric(line)
                     for line in body.splitlines())
        why = (f"rows must have {ncols} columns" if ragged
               else "non-numeric sample row")
        raise ValueError(f"{path}: {why}") from None
    if data.size == 0:
        raise ValueError(f"{path}: no samples")
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


def _read_head(path, kind=None) -> tuple[dict, list[str]]:
    """(meta, header) of the CSV table at path: with kind, the key=value
    tokens of its `# covkit-<kind>` line and the cells of the line after;
    without, {} and the cells of the first line, stripped."""
    try:
        with open(path) as fh:
            first = fh.readline()
            header = first if kind is None else fh.readline()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    meta = {}
    if kind is not None:
        mark = f"# covkit-{kind}"
        if not first.startswith(mark):
            raise ValueError(f"{path}: missing {kind} header line")
        meta = dict(tok.split("=", 1) for tok in first[len(mark):].split()
                    if "=" in tok)
    return meta, [c.strip() for c in header.split(",")]


def _check_header(path, columns: list[str]) -> None:
    """Raise ValueError unless the CSV at path starts with the header
    `columns`."""
    if _read_head(path)[1] != columns:
        raise ValueError(f"{path}: expected header '{','.join(columns)}'")


def _read_table(path, columns: list[str]) -> np.ndarray:
    """Rows of a signal CSV with header `columns`, all values finite."""
    _check_header(path, columns)
    data = _parse_body(path, 1, len(columns))
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path}: non-finite coordinate or sample")
    return data


def _uniform_step(path, label: str, coords: np.ndarray) -> float:
    """The step of the increasing coordinates coords of one axis (1.0
    for a single one); raises ValueError naming label when they are not
    uniformly spaced."""
    if coords.size < 2:
        return 1.0
    step = (coords[-1] - coords[0]) / (coords.size - 1)
    drift = np.max(np.abs(np.diff(coords) - step))
    if drift > _SPACING_RTOL * max(abs(step), 1.0):
        raise ValueError(f"{path}: {label} is not uniformly spaced")
    return float(step)


def read_signal_csv(path) -> SampledSignal1D:
    data = _read_table(path, ["x", "re", "im"])
    x = data[:, 0]
    if np.any(np.diff(x) <= 0):
        raise ValueError(f"{path}: x must be strictly increasing")
    dx = _uniform_step(path, "x", x)
    return SampledSignal1D(float(x[0]), dx, data[:, 1] + 1j * data[:, 2])


def write_signal2_csv(s: SampledSignal2D, path) -> None:
    """Header x,y,re,im, then one row per sample, x fastest, lines ending
    in CRLF.

    A moved signal is written on its lattice's own nodes, read there
    through its motion.
    """
    X, Y = np.meshgrid(s.xs, s.ys)
    vals = s.values if s.motion.is_identity() else evaluate2(s, X, Y)
    _write_table(path, _SIGNAL2_COLUMNS,
                 (X.ravel(), Y.ravel(), vals.real.ravel(), vals.imag.ravel()),
                 end="\r\n")


_SIGNAL2_COLUMNS = ["x", "y", "re", "im"]

# Bytes of a coordinate text in the one-pass read of a 2D signal CSV.
# %.17g spells a float in at most 24 characters.  loadtxt cuts a longer
# text to its field silently, so a text that fills the field sends its
# file to the float parse.
_COORD_BYTES = 32
# one row of that read: 80 bytes, or 10 uint64 words, the first 4 of
# which hold the x text and the next 4 the y text
_SIGNAL2_ROW = np.dtype([("x", f"S{_COORD_BYTES}"), ("y", f"S{_COORD_BYTES}"),
                         ("re", float), ("im", float)])
_COORD_WORDS = _COORD_BYTES // 8


def read_signal2_csv(path) -> SampledSignal2D:
    """The 2D signal of a CSV with header x,y,re,im and one row per node
    of a uniformly spaced lattice, all cells finite; the rows may come
    in any order.

    Rows that run x fastest over increasing x and y, as
    `write_signal2_csv` writes them, or y fastest, take one pass that
    converts each distinct coordinate text once (`_one_pass`).  Every
    other body is parsed as floats, sorted and placed
    (`_sort_and_place`).  Both give the same signal bit for bit, and
    both reject a file with the same message.
    """
    _check_header(path, _SIGNAL2_COLUMNS)
    lattice = _one_pass(path)
    if lattice is None:
        return _sort_and_place(path)
    xs, ys, vals = lattice
    return SampledSignal2D((float(xs[0]), float(ys[0])),
                           _uniform_step(path, "x", xs),
                           _uniform_step(path, "y", ys), vals)


def _one_pass(path):
    """(xs, ys, values) of the 2D signal CSV at path when its rows run
    x or y fastest (whichever changes between the first two rows) over
    a lattice, each coordinate spelled one way, else None.

    One loadtxt pass reads the coordinates as bytes and the values as
    floats.  The first run's fast texts and each run's slow text are
    then converted by loadtxt's parser, and every row's coordinate bytes
    are compared with them as uint64 words.  None leaves the file to the
    float parse.  That happens for a body this pass rejects, any other
    row order, a coordinate spelled two ways (`1` and `1.0`), distinct
    coordinates that are not strictly increasing, and a non-finite cell.
    It also happens for a text that fills its field, since loadtxt may
    have cut it, and for a file holding a NUL byte, which a field cannot
    tell from its padding.
    """
    try:
        with warnings.catch_warnings():
            # an empty body is reported by the float parse
            warnings.filterwarnings("ignore", "loadtxt: input contained no "
                                    "data", UserWarning)
            rows = np.loadtxt(path, dtype=_SIGNAL2_ROW, delimiter=",",
                              comments=None, skiprows=1, ndmin=1)
    except ValueError:
        return None
    n = rows.size
    if n == 0:
        return None
    words = rows.view(np.uint64).reshape(n, -1)
    coord = {"x": words[:, :_COORD_WORDS],
             "y": words[:, _COORD_WORDS:2 * _COORD_WORDS]}
    y_fast = n > 1 and bool((coord["x"][1] == coord["x"][0]).all())
    fast, slow = ("y", "x") if y_fast else ("x", "y")
    # a run is the rows before the slow text first changes (a word at a
    # time: numpy reduces a short strided axis slowly)
    changed = coord[slow][:, 0] != coord[slow][0, 0]
    for w in range(1, _COORD_WORDS):
        changed |= coord[slow][:, w] != coord[slow][0, w]
    run = int(changed.argmax()) if changed.any() else n
    runs, rest = divmod(n, run)
    if rest:
        return None
    f, s = (coord[k].reshape(runs, run, -1) for k in (fast, slow))
    if not ((f == f[0]).all() and (s == s[:, :1]).all()):
        return None
    texts = np.concatenate((rows[fast][:run], rows[slow][::run]))
    if (texts.view(np.uint8).reshape(-1, _COORD_BYTES)[:, -1].any()
            or _holds_nul(path)):
        return None
    try:
        coords = np.loadtxt([b",".join(texts.tolist())], delimiter=",",
                            comments=None, ndmin=1)
    except ValueError:
        return None
    xs, ys = coords[:run], coords[run:]  # swapped below when y is fast
    re, im = rows["re"], rows["im"]
    if not (np.all(np.diff(xs) > 0) and np.all(np.diff(ys) > 0)
            and np.isfinite(coords).all() and np.isfinite(re).all()
            and np.isfinite(im).all()):
        return None
    vals = (re + 1j * im).reshape(runs, run)
    if y_fast:
        xs, ys, vals = ys, xs, np.ascontiguousarray(vals.T)
    # frozen, so that the signal takes it without a copy
    vals.setflags(write=False)
    return xs, ys, vals


def _holds_nul(path) -> bool:
    """Whether the file at path holds a NUL byte, read 1 MiB at a time."""
    with open(path, "rb") as fh:
        return any(b"\0" in chunk
                   for chunk in iter(lambda: fh.read(2 ** 20), b""))


def _sort_and_place(path) -> SampledSignal2D:
    """The 2D signal of a CSV whose rows may come in any order: every
    cell parsed as a float, the coordinates sorted and each row placed
    at its node."""
    data = _read_table(path, _SIGNAL2_COLUMNS)
    xs = np.unique(data[:, 0])
    ys = np.unique(data[:, 1])
    nx, ny = len(xs), len(ys)
    if nx * ny != len(data):
        raise ValueError(f"{path}: samples do not fill a rectangular lattice")
    dx = _uniform_step(path, "x", xs)
    dy = _uniform_step(path, "y", ys)
    vals = np.empty((ny, nx), dtype=complex)
    ix = np.searchsorted(xs, data[:, 0])
    iy = np.searchsorted(ys, data[:, 1])
    cell = iy * nx + ix
    # with nx * ny rows, a repeated point is what leaves a cell unfilled
    counts = np.bincount(cell, minlength=nx * ny)
    if counts.max() > 1:
        k = int(np.flatnonzero(counts[cell] > 1)[0])
        raise ValueError(f"{path}: samples do not fill a rectangular lattice: "
                         f"point ({float(data[k, 0])!r}, "
                         f"{float(data[k, 1])!r}) repeats")
    vals[iy, ix] = data[:, 2] + 1j * data[:, 3]
    return SampledSignal2D((float(xs[0]), float(ys[0])), dx, dy, vals)
