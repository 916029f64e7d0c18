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
    plan (`_plan` of v0 on target's nodes) leaves to reads, in blocks:
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
    A run longer than a block (one element then) comes in pieces.

    The plan's table dilations come first, one table at a time: each
    gathers its reads from its moved vacuum sampled once on its window of
    the plan's lattice (`_Lattice.moved_table`), bit for bit those
    samples; positions outside the window, node target.n among them,
    read one of the table's zeros.  The direct elements then read theirs
    by one `_read` a block, in place on the positions x = (node - b) / a:
    a real vacuum's reads are real, bit for bit the real part of
    evaluate's, and a complex one's are its two parts.  The two kinds of
    read agree within rounding of the positions.
    """
    n = target.n
    lo, length, lattice = plan.lo, plan.length, plan.lattice
    for elems, scale, base in plan.tables:
        first, table = lattice.moved_table(v0, scale)
        # each node's step along the lattice; node n steps off its end
        offset = plan.node_step * np.arange(n + 1)
        offset[n] = plan.node_step * lattice.length
        base = base - first
        for pos, cols in _runs(lo[elems], length[elems], n):
            at = base[pos, None] + offset[cols]
            u = np.empty((len(table),) + at.shape)
            for part, out in zip(table, u):
                # "clip" reads a zero past either end of the table, and
                # skips the buffered copy "raise" makes
                np.take(part, at, out=out, mode="clip")
            yield elems[pos], cols, u
        del table  # one dilation's table at a time
    direct = plan.direct
    xs = np.append(target.xs, math.inf)
    parts, x0, step = v0.parts, v0.x0, v0.dx
    for pos, cols in _runs(lo[direct], length[direct], n):
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
# 1.2k-34k points cost 50-165 ns a point for the Cauchy/Poisson pair and
# for a moved Mexican hat whose window covers the whole lattice, in
# analysis and in synthesis, and 115-330 ns below 500 points.  Part of
# that is a fixed cost of 40-100 us a dilation (kernel call, FFT calls,
# buffers; 51-point lattices), which the rule has no term for.  A moved
# vacuum is sampled only in its window, so a narrow dilation costs less.
# 150 ns sits in that spread, and a lower constant bought nothing: the
# inner transform and synthesis over the roundtrip benchmark's six Haar
# shapes took 455, 488 and 445 ms at 150, 100 and 75 ns (best of 7).
_LATTICE_POINT_NS = 150.0

# Cost of one direct (element, sample) pair of the closed-form Cauchy and
# Poisson blocks (`transform._kernel_blocks`) in ns.  On the host above a
# pair costs 2.6-4.1 ns for P and Q and 1.8-3.0 ns for P alone at
# 100-5000 elements (6-16 ns at 16), and a lattice point 75-130 ns for
# the pair and 54-83 ns for P alone on 1.3k-26k points, so a lattice pays
# once a dilation reads 28-45 pairs a point; 6 ns asks for 25.  6 ns
# stays: no benchmark dilation sits near that line, and at 4-5 ns the
# lattice lines of `covkit check` (a 4 x 601 grid at a b step of 30/7
# samples) and the tests built on the rule would lose the Cauchy kernels'
# lattice.
_KERNEL_READ_NS = 6.0

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
# Of a read, the interpolation itself is 12.5-12.7 ns (measured beside
# the table reads of `_moved_reads`, below).  The FFT rule of `_plan`
# prices plain reads even where a dilation left direct reads from a table.
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


# Costs of the table reads of `_moved_reads` in ns, which the table rule
# of `_plan` weighs against _MOVED_READ_NS a direct read: one table point
# (its `_read` on the dilation's lattice window) and one read gathered
# from the table with its share of the product or scatter that sums it.
# On the host above,
# single dilations of the roundtrip benchmark's five Haar shapes with a
# lattice (1201 nodes, an 801-sample Mexican hat; 45 dilations, analysis
# and synthesis each timed alone, best of 7 interleaved runs) cost
# 12.5-12.7 ns a direct read and 3.2-3.4 ns a gathered one, each plus
# the same share of the sums, and 13.3-14.0 ns a table point.  A fit of
# the difference between the two paths puts a gathered read 9.6-9.8 ns
# below a direct one and a table point at 13.9-14.7 ns, so a table pays
# once a dilation reads 1.4 times as many points as its table holds.
_TABLE_POINT_NS = 14.0
_TABLE_READ_NS = 20.0

# Most points one table holds: 1 MB a part, half a core's L2 cache, and
# eight blocks of _RUN_BLOCK_POINTS.  Gathers from a larger table miss
# the cache more often than the price counts.  On the 12 x 375 Haar
# shape (a 448,801-point lattice), where the price alone sends 8 of 12
# dilations to tables of up to 218k points, its inner transform plus
# synthesis took a median 1.002 of its time without tables (faster in
# 14 of 30 interleaved rounds); with this bound, 6 dilations and 0.976
# (17 of 30).
_TABLE_MAX_POINTS = 2 ** 17


@dataclass(frozen=True, eq=False)
class _Plan:
    """The paths of one sum's dilations (`_plan`).

    fft lists (row, ae) for each dilation ae summed by FFT on lattice, row
    its elements in b order; rest marks the elements the FFT leaves, of
    those read; direct lists the elements read directly.  For a moved
    vacuum, lo and length give each element's run of nodes (`_window`,
    empty off rest), and tables lists (elems, scale, base) for each
    dilation read from a table: elems its elements with a nonempty run,
    scale the dilation as the lattice reads it, and node k of elems[i] at
    lattice position base[i] + k node_step.
    """

    lattice: _Lattice | None
    fft: list
    rest: np.ndarray
    direct: np.ndarray
    tables: list = ()
    node_step: int = 0
    lo: np.ndarray | None = None
    length: np.ndarray | None = None


def _plan(a: np.ndarray, b: np.ndarray, rows, nodes: SampledSignal1D,
          v0: SampledSignal1D | None = None, read: np.ndarray | None = None,
          onto_nodes: bool = False) -> _Plan:
    """The path rule of every sum of a moved kernel over an affine
    product grid: each dilation is summed by FFT on the grid's lattice,
    read from a table of its moved vacuum on that lattice, or read
    directly.

    The sums are those of v0 on the nodes, or with v0 None those of the
    closed-form Cauchy and Poisson kernels, whose window is unbounded:
    the transforms sum over the nodes onto the b axis, on the lattice of
    b - x, the syntheses over b onto the nodes (onto_nodes), on that of
    x - b.  rows = (b axis, idx) describes the grid, idx[i] listing the
    elements of one dilation in b order; read masks the elements summed
    (all by default).  The lattice is searched once (`_common_lattice`:
    a lin b axis whose step is a rational p/q of the node step); without
    one, or without rows, every element is read directly.

    A dilation ae takes the FFT when the lattice's points at
    _LATTICE_POINT_NS each cost less than the n_b x min(n, ae span / dx
    + 1) reads of the direct path (span the width of v0's window) at
    _KERNEL_READ_NS each for the kernels, _MOVED_READ_NS for v0.  Another
    dilation of v0 reads a table when its window on the lattice holds at
    most _TABLE_MAX_POINTS points, and those at _TABLE_POINT_NS each plus
    its elements' runs at _TABLE_READ_NS a node cost less than the runs
    at _MOVED_READ_NS a node.  Analysis reads v0(d / -ae) at the negated
    positions d of synthesis's v0(d / ae), so the same bits.  Every path
    agrees with the per-element references within 1e-12 of the largest
    value.
    """
    x0, dx, n = nodes.x0, nodes.dx, nodes.n
    rest = np.ones(a.size, dtype=bool) if read is None else read.copy()
    common = _common_lattice(rows[0], x0, dx, n) if rows else None
    lattice, idx, fft, node_step = None, (), [], 0
    if common:
        b_axis, idx = rows
        h, kb, kx, _ = common
        sign = 1 if onto_nodes else -1
        node_step = sign * kx
        if onto_nodes:
            lattice = _Lattice(x0 - b_axis.lo, h, n, kx, b_axis.n, kb)
        else:
            lattice = _Lattice(b_axis.lo - x0, h, b_axis.n, kb, n, kx)
        span = math.inf if v0 is None else v0.x_end - v0.x0
        read_ns = _KERNEL_READ_NS if v0 is None else _MOVED_READ_NS
        for row in idx:
            ae = a[row[0]]
            reads = b_axis.n * min(n, ae * span / dx + 1.0)
            if lattice.length * _LATTICE_POINT_NS < reads * read_ns:
                fft.append((row, ae))
                rest[row] = False
    if v0 is None:
        return _Plan(lattice, fft, rest, np.flatnonzero(rest))
    lo, hi = _window(v0, a, b, x0, dx, n)
    length = hi - lo
    length[~rest] = 0
    direct = length > 0
    tables = []
    for row in idx:
        j = np.flatnonzero(direct[row])
        if not j.size:
            continue
        pairs = int(length[row].sum())
        scale = sign * a[row[0]]
        start, stop = lattice.window(v0, scale)
        points = stop - start
        if (points <= _TABLE_MAX_POINTS and points * _TABLE_POINT_NS
                + pairs * _TABLE_READ_NS < pairs * _MOVED_READ_NS):
            tables.append((row[j], scale, lattice.lead - sign * kb * j))
            direct[row] = False
    return _Plan(lattice, fft, rest, np.flatnonzero(direct), tables,
                 node_step, lo, length)


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
        first, table = self.moved_table(v0, scale)
        k = np.zeros((len(table), self.length))
        k[:, first + 1:first + table.shape[1] - 1] = table[:, 1:-1]
        return k

    def moved_table(self, v0: SampledSignal1D, scale: float):
        """(first, k): the samples of `moved_vacuum` in the run of
        positions `window` gives, with one 0 on either side, k[:, i] at
        position first + i.  An index past either end read in "clip" mode
        reads one of the zeros, as moved_vacuum reads 0 outside the run,
        so the table reads every position bit for bit as moved_vacuum
        does, in the memory of the run."""
        start, stop = self.window(v0, scale)
        k = np.zeros((len(v0.parts), max(stop - start, 0) + 2))
        # in blocks, whose temporaries stay in cache
        for lo in range(start, stop, _RUN_BLOCK_POINTS):
            hi = min(lo + _RUN_BLOCK_POINTS, stop)
            x = self.positions(lo, hi)
            x /= scale
            k[:, lo - start + 1:hi - start + 1] = _read(v0.parts, v0.x0,
                                                        v0.dx, x)
        return start - 1, k

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


def _write_rows(fh, table: np.ndarray, end: str = "\n") -> None:
    """Each row of a 2D float table as one line of %.17g cells.

    '%.17g' % x spells every float as _fmt(x) does, and one format
    string per row costs a fraction of a format call per cell.
    """
    line = ",".join(["%.17g"] * table.shape[1]) + end
    fh.writelines([line % row for row in map(tuple, table.tolist())])


def write_signal_csv(s: SampledSignal1D, path) -> None:
    """Header x,re,im, then one row per sample, lines ending in CRLF."""
    with open(path, "w", newline="") as fh:
        fh.write("x,re,im\r\n")
        _write_rows(fh, np.column_stack((s.xs, s.values.real,
                                         s.values.imag)), "\r\n")


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
        with open(path) as fh:
            body = "".join(fh.readlines()[skiprows:])
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


def _read_table(path, columns: list[str]) -> np.ndarray:
    """Rows of a signal CSV with header `columns`, all values finite."""
    with open(path) as fh:
        if [c.strip() for c in fh.readline().split(",")] != columns:
            raise ValueError(f"{path}: expected header '{','.join(columns)}'")
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
    with open(path, "w", newline="") as fh:
        fh.write("x,y,re,im\r\n")
        _write_rows(fh, np.column_stack((X.ravel(), Y.ravel(),
                                         vals.real.ravel(),
                                         vals.imag.ravel())), "\r\n")


def read_signal2_csv(path) -> SampledSignal2D:
    data = _read_table(path, ["x", "y", "re", "im"])
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
