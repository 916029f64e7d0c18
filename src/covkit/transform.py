"""The covariant transform engine and its named specializations.

For a representation pi, fiducial F, and signal v, the transform is the
function on the group

    (W v)(g) = F(pi(g^-1) v),

evaluated over a finite grid of elements.  Composing the transform with
the action gives left shifts: W(pi(g) v)(h) = (W v)(g^-1 h), whether or
not F is linear; `check_intertwining` measures exactly this residual,
evaluating the shifted side at the exact composed elements rather than
snapping to the grid.

Affine transforms read the s-form: after s = a t + b every fiducial is a
sum over the signal's own samples, so the signal is never resampled and
every sample sits under the kernel at every dilation (only the signal's
mass beyond its sampled window is left out).  The engine
(`_affine_rows`) reads avg from one running integral of |f|, and the
Cauchy and Poisson kinds and inner products by paths chosen at measured
prices after one lattice search a sum (`signals._grid_lattice`: a lin b
axis whose step is a rational p/q of f's puts every difference b - x of
the grid on one `signals._Lattice`): `_kernel_sums` chooses one path for
the whole grid, and `signals._plan` one per dilation of a moved vacuum:

* the FFT, one correlation in b on the lattice: f's weighted samples
  are transformed once per transform, each dilation's kernel is sampled
  on the lattice and transformed once, and one FFT product and inverse
  give the dilation's sums.  This is the FFT wavelet transform of
  Torrence & Compo (BAMS 1998); a b step above f's is the "a trous"
  layout of Holschneider et al. (1989).
* for the inner products, strided products: the dilation's moved
  vacuum sampled once on the lattice points of its window, whose
  element x node reads are a strided view of that table, summed against
  f's weighted samples by one real matrix product per block of elements
  (`signals._Lattice.strided`).
* direct reads: closed-form kernels in blocks of element-source pairs
  (`_kernel_blocks`), whose passes work in place in one buffer of at
  most half a core's L2 and whose sums are one real matrix product a
  block (the Poisson kind reads its one kernel alone).  The sources of
  a run of translations are f's nodes near it and, for the dyadic panels
  of nodes far from it, Chebyshev proxies whose weights one pass per
  transform computes (`_FarField`, the far field of the black-box FMM
  of Fong & Darve, J. Comput. Phys. 2009).  Inner products read the
  runs synthesis reads (`signals._moved_reads`), in reals.

On every path each operand carries only its nonzero parts
(`signals._parts`), from f's weighted samples (`_trapezoid_weighted`,
whose conjugate negates the imaginary row) to the sums, and parts are
multiplied by one rule (`signals._product`): a real signal is one weight
row or column, a real kernel one row, and an imaginary part of the sums
that would be exactly 0 is neither transformed nor summed.  The sums'
parts are written into the complex results once.

Every path agrees with the per-element reference `_rows` within 1e-12 of
a kind's scale for both tail policies (the tests and `check --suite
transform` hold them to that).  The scale is the largest |value| of the
kind, and for the Cauchy kinds that of their pair, max(|cauchy+|,
|cauchy-|): a lower read of an upper-Hardy f nearly cancels, and both
paths read it within ~2e-11 of its own largest value and within 1e-15
of the pair's.  The far field's proxies agree with the reads of every
node within 1e-12 of the largest |P| and of the largest |Q|.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fiducials import (Fiducial, _cauchy_tail_model, _poisson_tail_model,
                        truncation_budget)
from .groups import EuclideanMotion, GridSpecError, GroupGrid, make_grid
from .representations import AffineRep, EuclideanRep, apply
from .signals import (SampledSignal1D, SampledSignal2D, _complex, _fmt,
                      _grid_lattice, _lerp, _locate, _moved_reads,
                      _parse_body, _parts, _plan, _product, _read_head,
                      _window, _write_table, evaluate2)

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


def _radon_lines(f: SampledSignal2D, theta: np.ndarray, tx: np.ndarray,
                 ty: np.ndarray) -> np.ndarray:
    """Integral of f along the image of the x-axis under each motion.

    Line k reads f at g_k.(x, 0) = (x cos theta_k + tx_k,
    x sin theta_k + ty_k) for x over f's x nodes and integrates by the
    trapezoid rule with step f.dx: the points, up to the rounding of
    g_k^-1 inverted back, that eval_radon_line reads on
    apply(rep, g_k^-1, f), whose frame is moved rather than resampled.
    Raises ValueError when f's y window misses y = 0, where the x-axis
    its lines are moved from does not cross f.  Lines go in blocks of
    at most f.ny, so one evaluate2 call reads no more points than the
    image holds; rows are independent, so the block size changes no
    value.
    """
    if f.origin[1] > 0.0 or f.y_end < 0.0:
        raise ValueError(f"the image's y window [{f.origin[1]!r}, "
                         f"{f.y_end!r}] does not contain y = 0, the line "
                         "each motion moves")
    out = np.empty(theta.size, dtype=complex)
    xs = f.xs
    for lo in range(0, theta.size, f.ny):
        blk = slice(lo, lo + f.ny)
        cos, sin = np.cos(theta[blk])[:, None], np.sin(theta[blk])[:, None]
        vals = evaluate2(f, cos * xs + tx[blk, None], sin * xs + ty[blk, None])
        out[blk] = _trapz(vals, dx=f.dx, axis=1)
    return out


# Most (element, source) pairs one block of the Cauchy and Poisson reads
# holds.  Its rows take one buffer of 512 kB for P alone and 1 MB for P
# and Q, half of a core's 2 MB of L2 on a 2-core Xeon (Python 3.11, numpy
# 2.4).  There the kernel sums of the ten Cauchy and Poisson transforms of
# the affine-scan benchmark (1024 elements on 1000-6000 samples, read at
# 528-779 sources an element through the far field of `_FarField`; medians
# of 21 interleaved rounds in one process) took 43.5, 33.5, 28.9, 27.2
# and 31.8 ms in blocks of 2^13, 2^14, 2^15, 2^16 and 2^17 pairs at seed
# 7, and 41.0, 33.1, 29.1, 27.0 and 31.8 ms at seed 41.
_KERNEL_BLOCK = 2 ** 16


def _affine_rows(rep: AffineRep, fid: Fiducial, f: SampledSignal1D,
                 grid: GroupGrid) -> np.ndarray:
    """F(pi(g^-1) f) at every element (a, b) of the affine grid, read
    from f's own samples without building elements or moved signals.

    The moved signal is pref * f on the nodes (x - b) / a, pref =
    a**(1/p) written as apply_affine computes it from the inverse
    element (the s-form), once per dilation of the grid.  With fw = f
    times its trapezoid weights: the Cauchy and Poisson kinds take the
    two sums P and Q of `_kernel_sums`; inner is pref/a * sum of fw *
    conj v0((x - b) / a) (`_inner_rows`); avg is pref/2a times the
    integral of |f| over [b - a, b + a] (`_interval_averages`, which
    measures it in t).  A rational tail is the tail model of the moved
    signal's window and edge samples.  Raises ValueError when no element
    can read inside f's window (`_check_reach`).
    """
    a, b = grid.coords.T
    _check_reach(fid, f, a, b)
    a_vals, b_axis, idx = grid.dilation_rows()
    pref = np.empty(len(grid))
    pref[idx] = np.array([rep.prefactor(x)
                          for x in (1.0 / a_vals).tolist()])[:, None]
    rows = (b_axis, idx)
    if fid.kind == "avg":
        return _interval_averages(f, a, b, pref)[:, None]
    if fid.kind == "inner":
        return _inner_rows(fid.v0, f, a, b, pref, rows)[:, None]
    P, Q = _kernel_sums(f, a, b, rows, conjugate=fid.kind != "poisson")
    tail = fid.tail_policy == "rational-tail"
    if tail:
        tl, tr = (f.x0 - b) / a, (f.x_end - b) / a
        first, last = pref * f.values[0], pref * f.values[-1]
    if fid.kind == "poisson":
        out = pref * P / math.pi
        if tail:
            out += _poisson_tail_model(tl, tr, first, last)
        return out[:, None]
    plus = pref * (P - 1j * Q) / (2.0 * math.pi)
    minus = pref * (-P - 1j * Q) / (2.0 * math.pi)
    if tail:
        plus += _cauchy_tail_model(tl, tr, first, last, 1j)
        minus += _cauchy_tail_model(tl, tr, first, last, -1j)
    cols = {"cauchy+": [plus], "cauchy-": [minus], "jump": [plus, minus],
            "combo": [fid.c_plus * plus + fid.c_minus * minus]}[fid.kind]
    return np.stack(cols, axis=1)


def _check_reach(fid: Fiducial, f: SampledSignal1D, a: np.ndarray,
                 b: np.ndarray) -> None:
    """Raise ValueError when no element (a, b) reads inside f's window,
    whose table would be all zeros: for avg when no interval
    [b - a, b + a] overlaps it (lo < hi of `_t_window` nowhere), for
    every other kind when f has one sample, which the trapezoid rule
    weighs 0, and for inner when no moved vacuum v0((x - b) / a) can
    read inside v0's window at a node x of f (every run of
    `signals._window` empty).  Where some element reads inside, the
    others stay exact zeros.  The Cauchy and Poisson kernels are nonzero
    at every node."""
    if fid.kind == "avg":
        lo, hi = _t_window(f, a, b)[2:]
        why = "every interval [b - a, b + a] misses it"
    elif f.n < 2:
        lo = hi = 0.0
        why = "one sample spans no interval"
    elif fid.kind == "inner":
        lo, hi = _window(fid.v0, a, b, f.x0, f.dx, f.n)
        why = "every moved vacuum misses it"
    else:
        return
    if not np.any(lo < hi):
        raise ValueError(f"no element of the grid reads inside the signal's "
                         f"window [{f.x0!r}, {f.x_end!r}]: {why}")


def _trapezoid_weighted(f: SampledSignal1D) -> np.ndarray:
    """The parts (`signals._parts`) of f's samples times their trapezoid
    weights (0 for one sample, which the trapezoid rule integrates to
    0)."""
    if f.n < 2:
        return np.zeros((1, 1))
    w = np.full(f.n, f.dx)
    w[[0, -1]] *= 0.5
    return _parts(f.values * w)


def _kernel_sums(f: SampledSignal1D, a: np.ndarray, b: np.ndarray, rows,
                 conjugate: bool = True):
    """(P, Q): P = sum fw a / den and Q = sum fw D / den over f's nodes x
    for every element, with D = x - b, den = D^2 + a^2 and fw as in
    `_trapezoid_weighted`; Q is None unless conjugate.

    cauchy+- = pref (+-P - i Q) / 2 pi and poisson = pref P / pi, which
    asks for P alone.  The kernels cost alike at every dilation, so the
    grid of rows = (b axis, idx) takes one path: the FFT on its lattice
    (`signals._grid_lattice`) when its points at _LATTICE_POINT_NS cost
    less than a dilation's n_b x n reads at _KERNEL_READ_NS.  There the
    dilations share one spectrum of fw's parts, and each samples its one
    or two real kernels on the whole lattice and transforms them in one
    call, as the one part of a stack of kernels; a real f has one
    spectrum row, and its sums invert one row a kernel.  Otherwise the b
    axis is cut into runs (`_FarField`), and the elements of each run
    read the kernels directly (`_kernel_blocks`) at f's nodes near the
    run and at the proxies of the panels of far nodes.  Both paths write
    the parts of their sums into the complex results' float views.
    """
    fw = _trapezoid_weighted(f)
    sums = np.zeros((1 + conjugate, a.size), dtype=complex)
    parts = sums.view(float).reshape(sums.shape + (2,))
    lattice = _grid_lattice(rows, f)
    if lattice and (lattice.length * _LATTICE_POINT_NS
                    < rows[0].n * f.n * _KERNEL_READ_NS):
        spectrum = lattice.weights(fw)
        u = lattice.positions()  # u = b - x
        for row in rows[1]:
            ae = a[row[0]]
            with np.errstate(over="ignore"):  # as in `_kernel_blocks`
                den = u * u + ae * ae
            kernels = lattice.kernel([np.stack(
                [ae / den, -u / den] if conjugate else [ae / den])])
            got = lattice.inverse(lattice.product(spectrum, kernels))
            for k, part in enumerate(got):
                parts[:, row, k] = part
    else:
        far = _FarField(f, b[rows[1][0]])
        for elems, xs, w in far.sources(fw, rows[1]):
            _kernel_blocks(w, xs, a, b, parts, elems)
    return sums[0], (sums[1] if conjugate else None)


# The direct kernel sums read f's far nodes through proxies: the far
# field of the black-box FMM (Fong & Darve, J. Comput. Phys. 228, 2009)
# in the particle-cluster form of the barycentric Lagrange treecode
# (Wang, Krasny & Tlupova, Commun. Comput. Phys. 28, 2020).  Leaf panels
# hold 2 _PROXY_POINTS nodes, and their aligned dyadic unions make a
# tree.  A panel whose centre lies at least _SEPARATION half-widths from
# every b of a run is read at its _PROXY_POINTS Chebyshev points with its
# anterpolated weights.  The kernels 1/(x - b -+ ia) are analytic inside
# every Bernstein ellipse of the panel that leaves out their poles, so
# the proxies err by O(rho^-Q) of the panel's sum of |fw| times the
# kernel's size, Q = _PROXY_POINTS and rho = theta + sqrt(theta^2 - 1)
# for theta = _SEPARATION: rho = 5.83 at theta = 3, and 5.83^-24 = 4e-19.
# a > 0 moves the poles off the axis, which only widens the separation.
_SEPARATION = 3.0
_PROXY_POINTS = 24
# A run of b spans this many leaf panels of f's nodes.
_RUN_LEAVES = 8

_CHEBYSHEV = np.cos(np.pi * (np.arange(_PROXY_POINTS) + 0.5) / _PROXY_POINTS)


def _lagrange(t: np.ndarray) -> np.ndarray:
    """L[j, k]: the k-th Lagrange polynomial of the points _CHEBYSHEV
    at t[j] (exact 1 and 0 at the points themselves)."""
    others = ~np.eye(_CHEBYSHEV.size, dtype=bool)
    num = np.where(others, t[:, None, None] - _CHEBYSHEV, 1.0).prod(axis=2)
    den = np.where(others, _CHEBYSHEV[:, None] - _CHEBYSHEV, 1.0).prod(axis=1)
    return num / den


# A leaf's node j owns the cell [j - 1/2, j + 1/2] in node units, so a
# panel of m nodes spans m node steps and a parent's children are its
# halves: node j of a leaf sits at t = (2j + 1 - 2Q) / 2Q of it, and
# its children's Chebyshev points at (c - 1) / 2 and (c + 1) / 2 of the
# parent.  _LEAF_BASIS is 2Q x Q, each transfer matrix Q x Q.
_LEAF_BASIS = _lagrange((2.0 * np.arange(2 * _PROXY_POINTS) + 1.0)
                        / (2 * _PROXY_POINTS) - 1.0)
_TRANSFER = (_lagrange(0.5 * (_CHEBYSHEV - 1.0)),
             _lagrange(0.5 * (_CHEBYSHEV + 1.0)))


class _FarField:
    """The runs of a b axis over f's nodes and the sources each reads.

    The b axis b_row, one b per column of the grid's idx (as in
    `_kernel_sums`), is sorted in node units u = (b - x0) / dx and cut
    into runs of equal u // (_RUN_LEAVES leaves).  A run reads a panel
    of the tree by proxy when the panel's centre lies at least
    _SEPARATION half-widths from every b of the run and its parent's
    does not; it reads f's own nodes in the leaves that no separated
    panel covers, one contiguous span.  Since _SEPARATION >= 1 the
    children of a separated panel are separated too, so the two cover
    every node once.  b far off f's window is clipped to where the root
    panel separates, which keeps u finite and changes no source list.
    pairs counts the (b, source) pairs of all runs, the reads of one
    dilation.
    """

    def __init__(self, f: SampledSignal1D, b_row: np.ndarray):
        q, n = _PROXY_POINTS, f.n
        self.f = f
        counts = [max(1, -(-n // (2 * q)))]
        while counts[-1] > 1:
            counts.append(-(-counts[-1] // 2))
        # every panel, leaves first: its centre and half-width in node
        # units, and its parent (the root's is the sentinel after them)
        self.counts = counts
        self.half = half = np.concatenate([np.full(c, q << l, dtype=float)
                                           for l, c in enumerate(counts)])
        self.centre = np.concatenate([(2 * np.arange(c) + 1) * (q << l) - 0.5
                                      for l, c in enumerate(counts)])
        starts = np.cumsum([0] + counts)
        parent = np.concatenate([starts[l + 1] + np.arange(c) // 2
                                 for l, c in enumerate(counts)])
        parent[-1] = starts[-1]
        width = 2 * half[-1]
        with np.errstate(over="ignore"):
            u = np.clip((b_row - f.x0) / f.dx, -_SEPARATION * width,
                        (1 + _SEPARATION) * width)
        self.order = np.argsort(u, kind="stable")
        u = u[self.order]
        cuts = np.flatnonzero(np.diff(u // (2 * q * _RUN_LEAVES))) + 1
        self.runs = []
        self.pairs = 0
        for j0, j1 in zip(np.r_[0, cuts], np.r_[cuts, u.size]):
            sep = np.append(np.maximum(u[j0] - self.centre,
                                       self.centre - u[j1 - 1])
                            >= _SEPARATION * half, False)
            panels = np.flatnonzero(sep[:-1] & ~sep[parent])
            near = np.flatnonzero(~sep[:counts[0]])
            lo, hi = ((2 * q * near[0], min(2 * q * (near[-1] + 1), n))
                      if near.size else (0, 0))
            self.runs.append((j0, j1, lo, hi, panels))
            self.pairs += (j1 - j0) * (hi - lo + q * panels.size)

    def weights(self, fw: np.ndarray) -> np.ndarray:
        """W[panel, k, j]: part j of the weight at the panel's k-th proxy,
        the sum over its nodes of fw's part j times the k-th Lagrange
        polynomial there; leaves by one product with _LEAF_BASIS, their
        parents from pairs of children through _TRANSFER."""
        q, leaves = _PROXY_POINTS, self.counts[0]
        level = np.zeros((leaves * 2 * q, len(fw)))
        level[:fw.shape[1]] = fw.T
        level = _LEAF_BASIS.T @ level.reshape(leaves, 2 * q, -1)
        levels = [level]
        for _ in self.counts[1:]:
            if level.shape[0] % 2:
                level = np.concatenate([level, np.zeros_like(level[:1])])
            level = (_TRANSFER[0].T @ level[0::2]
                     + _TRANSFER[1].T @ level[1::2])
            levels.append(level)
        return np.concatenate(levels)

    def sources(self, fw: np.ndarray, idx):
        """For each run: its elements (idx's columns of the run's b), and
        the positions and the parts (as rows) of the sources they read,
        f's near nodes and then the panels' proxies."""
        f, weights = self.f, self.weights(fw)
        for j0, j1, lo, hi, panels in self.runs:
            proxies = f.x0 + f.dx * (self.centre[panels, None]
                                     + self.half[panels, None] * _CHEBYSHEV)
            xs = np.concatenate([f.xs[lo:hi], proxies.ravel()])
            w = np.concatenate([fw.T[lo:hi],
                                weights[panels].reshape(-1, len(fw))])
            yield idx[:, self.order[j0:j1]].ravel(), xs, w.T


# Cost of one lattice point of the kernel sums in ns: the kernels sampled
# there plus the point's share of one dilation's FFTs and products on its
# `signals._Lattice`.  On the Xeon of _KERNEL_BLOCK, one dilation of a
# lattice of 1.2k-34k points cost 50-165 ns a point for the Cauchy/Poisson
# pair, and 115-330 ns below 500 points.  Part of that is a fixed cost of
# 40-100 us a dilation (kernel call, FFT calls, buffers; 51-point
# lattices), which the rule has no term for.  150 ns sits in that spread.
_LATTICE_POINT_NS = 150.0

# Cost of one direct (element, source) pair of `_kernel_blocks` in ns.  On
# the host above, `_kernel_sums` off every lattice (best of 7, 4-8
# dilations of 150-1200 translations on 601-6001 samples, which read
# 207-782 sources a translation) cost 3.0-4.7 ns a pair for P and Q and
# 2.2-3.5 ns for P alone, the far field's weights and source lists
# included.  The rule prices every node, n_b x n reads a dilation, not
# the 1.3-9x fewer pairs the far field reads (0.4-3.7 ns a node read in the
# same runs).  Priced at the pairs, the 4 x 601 grids on 2401 nodes of
# `checks._lattice_grid` would read directly at b steps of 8, 1/4 and 2/5
# node steps, where their FFT took 2.2-3.9 ms against 4.5-6.8 ms
# directly, since their lattice points cost 63-96 ns rather than
# _LATTICE_POINT_NS; at 30/7 the direct reads took 5.5 ms against 12.9 ms.
_KERNEL_READ_NS = 4.0


# D^2 + a^2 overflows to inf once |x - b| passes ~1.3e154, and inf is the
# right value there: its reciprocal is the kernels' exact 0
@np.errstate(over="ignore")
def _kernel_blocks(fw: np.ndarray, xs: np.ndarray, a: np.ndarray,
                   b: np.ndarray, sums: np.ndarray, elems=None):
    """The kernel sums of the elements elems (all when None) over the
    sources at xs with weights fw, read directly and added into sums,
    the parts of P or of P and Q (sums[k, e, j] is part j of the sum of
    kernel k at element e).  With f's nodes and fw's parts this is
    `_kernel_sums` without proxies.

    The kernels are real, so each block of at most _KERNEL_BLOCK
    (element, source) pairs, a run of elements against a run of
    sources, makes one real matrix product: the block's rows of D/den
    (for Q) and 1/den against the columns of fw's parts.
    The rows live in one buffer allocated per call, and every pass over
    the pairs works in it in place; P's factor a multiplies each
    element's sum, not each pair.
    """
    w = np.ascontiguousarray(fw.T)
    views = sums[..., :w.shape[1]]
    n, k = xs.size, len(sums)
    count = a.size if elems is None else elems.size
    step_x = min(n, _KERNEL_BLOCK)
    step_e = max(1, min(count, _KERNEL_BLOCK // step_x))
    buf = np.empty(k * step_e * step_x)
    # numpy 2.4 copies a broadcast operand (D's b, den's a^2) into its ufunc
    # buffer when several rows fit there, which took 0.7-1.6 ns a pair
    # instead of 0.25-0.45 on rows of 1000-4000 nodes; a buffer one row
    # long reads them in place (rows under 128 nodes did better with the
    # default).  On rows of 528-779 sources the kernel sums of the ten
    # Cauchy and Poisson transforms of the affine-scan benchmark took 27.2
    # and 27.0 ms with it against 36.1 and 39.8 ms without (seeds 7 and
    # 41, as measured for _KERNEL_BLOCK).
    bufsize = np.getbufsize()
    if 128 <= step_x < bufsize:
        np.setbufsize(-(-step_x // 16) * 16)
    try:
        for c in range(0, n, step_x):
            x, wc = xs[c:c + step_x], w[c:c + step_x]
            for e in range(0, count, step_e):
                blk = slice(e, e + step_e)
                if elems is not None:
                    blk = elems[blk]
                ae = a[blk, None]
                m = ae.size
                # Q's rows D (then D/den) over P's rows den (then 1/den);
                # P alone reads both in one set of rows
                kern = buf[:k * m * x.size].reshape(k * m, x.size)
                D, inv = kern[:m], kern[-m:]
                np.subtract(x, b[blk, None], out=D)
                np.multiply(D, D, out=inv)
                inv += ae * ae
                np.reciprocal(inv, out=inv)
                if k == 2:
                    D *= inv
                s = kern @ wc
                s[-m:] *= ae
                for view, part in zip(views, (s[-m:], s[:m])):
                    view[blk] += part
    finally:
        np.setbufsize(bufsize)


def _inner_rows(v0: SampledSignal1D, f: SampledSignal1D, a: np.ndarray,
                b: np.ndarray, pref: np.ndarray, rows=None,
                strided: bool = False) -> np.ndarray:
    """pref/a * sum over f's nodes x of fw * conj v0((x - b) / a).

    The sums run over v0's parts against those of conj fw (fw's parts
    with the imaginary one negated), put together by `signals._product`,
    on the paths `signals._plan` gives the dilations of rows = (b axis,
    idx).  FFT dilations share one spectrum of the weighted
    samples, and each transforms its moved vacuum, sampled only where it
    can be nonzero, once.  Strided dilations sum their table's strided
    views against the columns of conj fw's parts
    (`signals._Lattice.strided`).  The other elements read the runs
    synthesis reads (analysis is its transpose) through
    `signals._moved_reads` and sum them against those columns: a dense
    block by one real matrix product, a ragged one by one small product
    per element.  A real f has one weight row on the lattice (and its
    sums one inverse row a dilation when v0 is real too) and one weight
    column on the strided and direct paths, and a real f read by a real
    v0 sums to an imaginary part of exactly +-0 on all three.  strided
    sends every dilation a table bounds down the strided path (`_plan`).
    """
    cfw = _trapezoid_weighted(f)
    np.negative(cfw[1:], out=cfw[1:])
    acc = np.zeros(a.size, dtype=complex)
    sums = acc.view(float).reshape(-1, 2)
    plan = _plan(a, b, rows, f, v0, strided=strided)
    lattice = plan.lattice
    if plan.fft:
        spectrum = lattice.weights(cfw)
    for row, scale, window in plan.fft:
        kernel = lattice.kernel(lattice.moved_vacuum(v0, scale, window))
        got = lattice.inverse(lattice.product(spectrum, kernel))
        for k, part in enumerate(got):
            sums[row, k] = part
    # cfw's parts as columns, with a row of zeros at the node n that a
    # ragged block pads with; a ragged block gathers each row whole, two
    # columns through the complex view
    w = np.zeros((f.n + 1, len(cfw)))
    w[:-1] = cfw.T
    for row, scale, window in plan.strided:
        for k, part in enumerate(lattice.strided(v0, scale, window,
                                                 w[:-1])):
            sums[row, k] = part
    rows_of_w = w.view(complex if len(cfw) > 1 else float)[:, 0]
    for blk, cols, u in _moved_reads(v0, f, a, b, plan):
        if isinstance(cols, slice):
            s = u @ w[cols]
        else:
            wc = rows_of_w[cols].view(float).reshape(cols.shape + (-1,))
            s = (u[:, :, None] @ wc)[:, :, 0]
        # s[k, i, j]: vacuum part k against weight part j at element i
        for k, part in enumerate(_product(s.transpose(0, 2, 1))):
            sums[blk, k] += part
    return pref / a * np.conj(acc)


def _t_window(f: SampledSignal1D, a: np.ndarray, b: np.ndarray):
    """(t0, t1, lo, hi): f's window [t0, t1] in t = (x - b) / a at each
    element, and [lo, hi], its part in [-1, 1] that avg integrates over
    (empty where lo >= hi)."""
    t0, t1 = (f.x0 - b) / a, (f.x_end - b) / a
    return t0, t1, np.maximum(t0, -1.0), np.minimum(t1, 1.0)


def _interval_averages(f: SampledSignal1D, a: np.ndarray, b: np.ndarray,
                       pref: np.ndarray) -> np.ndarray:
    """pref/2 times the integral over t in [-1, 1] of |f(a t + b)|, f
    reading 0 outside its window: eval_interval_average of the moved
    signal.

    As there, the trapezoid runs on |f| at the nodes strictly inside the
    interval (clipped to the moved window) with |f| interpolated at its
    two ends, and the abscissae are the nodes' t = (x - b) / a, which
    keeps the widths exact however small a is next to |b|.  The nodes
    between the ends' cells come from one running integral of |f|, so
    each element costs two reads of it; ends in one cell make a single
    trapezoid.
    """
    if f.n < 2:
        return np.zeros(a.size)
    x0, dx, n, xs = f.x0, f.dx, f.n, f.xs
    v = np.abs(f.values)
    run = np.concatenate(([0.0], np.cumsum(0.5 * (v[:-1] + v[1:]) * dx)))
    t0, t1, lo, hi = _t_window(f, a, b)
    # cell positions of the interval's ends on f's nodes
    il, fl, _ = _locate(np.where(t0 > -1.0, 0.0, (b - a - x0) / dx), n)
    ir, fr, _ = _locate(np.where(t1 < 1.0, n - 1.0, (b + a - x0) / dx), n)
    el = np.abs(_complex(_lerp(f.parts, il, fl)))
    er = np.abs(_complex(_lerp(f.parts, ir, fr)))
    one_cell = 0.5 * (el + er) * (hi - lo)
    cells = (0.5 * (el + v[il + 1]) * ((xs[il + 1] - b) / a - lo)
             + (run[ir] - run[il + 1]) / a
             + 0.5 * (v[ir] + er) * (hi - (xs[ir] - b) / a))
    total = np.where(il == ir, one_cell, cells)
    return np.where(lo < hi, 0.5 * pref * total, 0.0)


def covariant_transform(rep, fid: Fiducial, v,
                        grid: GroupGrid) -> TransformResult:
    """Evaluate (W v)(g) = F(pi(g^-1) v) at every grid element.

    The representation must act by the grid's group: AffineRep on an
    affine grid, EuclideanRep on an e2 grid.  Affine reads follow the
    s-form (the fiducial reads v's own samples through the moved
    kernel, see `fiducials`) and come from `_affine_rows`, which builds
    no moved signal per element: within 1e-12 of the per-element
    reference `_rows` at a kind's scale (the module docstring), avg
    included; a grid on which no element reads inside f's window for
    inner or avg, or a one-sample f for any kind, raises ValueError
    rather than give a table of zeros (`_check_reach`).
    Line integrals under the Euclidean action sample each line directly
    (`_radon_lines`), within rounding of `_rows`; f's y window must
    contain y = 0.
    """
    _check_compat(rep, fid, v, grid)
    if isinstance(rep, AffineRep):
        rows = _affine_rows(rep, fid, v, grid)
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
    the residual never measures grid snapping; both actions move frames
    instead of resampling, so it measures the rounding of the composed
    elements.  Exactly zero when g is the identity.
    """
    _check_compat(rep, fid, v, grid)
    g_inv, elements = g.inverse(), grid.elements
    lhs = _rows(rep, fid, apply(rep, g, v), elements)
    rhs = _rows(rep, fid, v, [g_inv * h for h in elements])
    return float(np.max(np.abs(lhs - rhs)))


def _maximal_grid(b_axis_spec: str, a_axis_spec: str) -> GroupGrid:
    """The (a, b) grid of `hardy_maximal`, whose b axis must be lin and
    increasing (else GridSpecError): the result has a uniform b step."""
    grid = make_grid(f"affine:a={a_axis_spec},b={b_axis_spec}")
    b_ax = grid.axis("b")
    if b_ax.kind != "lin":
        raise GridSpecError(f"the b axis {b_ax.spec()} is not lin: the maximal "
                            "function is written on a uniform b step")
    if b_ax.n > 1 and b_ax.hi < b_ax.lo:
        raise GridSpecError(f"the b axis {b_ax.spec()} decreases: the maximal "
                            "function is written on a positive b step")
    return grid


def hardy_maximal(f: SampledSignal1D, b_axis_spec: str,
                  a_axis_spec: str) -> SampledSignal1D:
    """Averaged-modulus maximal function of f.

    At each b this is the largest p = infinity transform value over the
    sampled dilations, i.e. max over a of (1/2a) * integral of |f| over
    [b - a, b + a].  Axis specs use the grid grammar without the name,
    e.g. "log:0.05:20:200" and "lin:-4:4:161" (b lin, `_maximal_grid`).
    """
    return _maximal(f, _maximal_grid(b_axis_spec, a_axis_spec))


def _maximal(f: SampledSignal1D, grid: GroupGrid) -> SampledSignal1D:
    """`hardy_maximal` of f on the grid `_maximal_grid` built."""
    res = covariant_transform(AffineRep(math.inf), Fiducial("avg"), f, grid)
    vals = np.abs(res.values[:, 0].reshape(grid.shape)).max(axis=0)
    b_ax = grid.axis("b")
    db = (b_ax.hi - b_ax.lo) / (b_ax.n - 1) if b_ax.n > 1 else 1.0
    return SampledSignal1D(b_ax.lo, db, vals)


def radon_transform(f: SampledSignal2D, motions: GroupGrid) -> TransformResult:
    """Line integrals of f along g-images of the x-axis, one per motion.

    Each line is sampled at g.(x, 0) for x over f's x nodes and
    integrated by the trapezoid rule; raises ValueError when f's y
    window does not contain y = 0.
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
    without y = 0 raises ValueError.
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
    is reproducible from its own header.  Every cell is spelled %.17g,
    as `signals._fmt` spells it.  The coordinates are the product of the
    axes' values (as `make_grid` builds them), so each axis value is
    formatted once and its text repeated as a row prefix of
    `signals._write_table`.
    """
    meta = res.meta
    grid = res.grid
    dim = res.output_dim
    comment = ("transform"
               f" rep={meta.get('rep', '?')}"
               f" fiducial={meta.get('fiducial', '?')}"
               f" grid={grid.spec}"
               f" truncation_budget={_fmt(meta.get('truncation_budget', 0.0))}")
    shape = grid.shape
    names = [ax.name for ax in grid.axes]
    # (axis position, "text," of each of its values) per coordinate
    coord_text = []
    for j, name in enumerate(grid.coord_names):
        p = names.index(name)
        first = [0] * len(shape)
        first[p] = slice(None)
        vals = grid.coords[:, j].reshape(shape)[tuple(first)]
        coord_text.append((p, np.array([_fmt(v) + "," for v in
                                        vals.tolist()], dtype=object)))

    def prefix(lo, hi):
        at = np.unravel_index(np.arange(lo, hi), shape)
        p, text = coord_text[0]
        texts = text[at[p]]
        for p, text in coord_text[1:]:
            texts = texts + text[at[p]]
        return texts.tolist()
    parts = [res.values[:, k // 2].imag if k % 2 else
             res.values[:, k // 2].real for k in range(2 * dim)]
    _write_table(path, _transform_columns(grid, dim), parts, prefix, comment)


def _transform_columns(grid: GroupGrid, dim: int) -> list[str]:
    """The header of a transform table over grid with dim components."""
    return list(grid.coord_names) + [
        f"{p}_{k}" for k in range(dim) for p in ("re", "im")]


def read_transform_csv(path) -> TransformResult:
    meta, header = _read_head(path, "transform")
    data = _parse_body(path, 2, len(header))
    if "grid" not in meta:
        raise ValueError(f"{path}: header does not carry a grid spec")
    try:
        grid = make_grid(meta["grid"])
    except GridSpecError as exc:
        raise ValueError(f"{path}: {exc}") from None
    n_coords = len(grid.axes)
    # the fewest components whose columns hold every header cell
    dim = max(1, (len(header) - n_coords + 1) // 2)
    columns = _transform_columns(grid, dim)
    if header != columns:
        raise ValueError(f"{path}: header must have {n_coords} coordinate "
                         "columns and a re,im pair per component: expected "
                         f"'{','.join(columns)}'")
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
