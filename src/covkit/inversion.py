"""Pairings on transform space and the two inverse transforms.

Two routes back from transform values to signals:

* the Haar route integrates W(a,b) pi(a,b) v0 against the invariant
  measure and divides by the admissibility constant of v0 (the vacuum
  must be admissible: the frequency integral |v0^(w)|^2 / |w| has to
  converge);

* the Hardy route avoids admissibility altogether.  It integrates in b
  at a sequence of dilations shrinking toward zero and extrapolates the
  limit, so even vacua with nonzero mean are usable.

For the Hardy synthesis the natural normalization of the vacuum family
is p = 1 (an approximate identity); the analysis side uses p = infinity.
With any fixed choice the output is proportional to the input on
boundary-class signals with a signal-independent constant, which is
reported as `scalar_gain` after a least-squares fit.

Both routes synthesize through one kernel, `_synthesize`, which forms
sum_e c_e v0((x - b_e) / a_e) on the output nodes x: the Haar route once
over all elements, the Hardy route once per dilation.  One planner,
`signals._plan`, gives each dilation of a synthesis its path, as it does
for inner products: one lattice search and one lattice of differences
x - b (`signals._Lattice`, when the b step is a rational p/q of the
output step) per synthesis.  A dilation takes whichever of three paths
costs least: one FFT correlation in b over that lattice; strided
products from a table of its moved vacuum sampled once on the lattice
points of its window (`signals._Lattice.strided`: one real matrix
product per block of output nodes against the coefficients); or direct
reads of only the output nodes each moved vacuum covers, in the blocks
of `signals._moved_reads` (at most 2**14 points per block).  On every
path every operand and every sum is carried as rows
of real parts (`signals._parts`), multiplied by one complex-product rule
(`signals._product`), so real coefficients and a real vacuum are one row
of reals with no work on an all-zero imaginary part; the result is made
complex once, and it agrees with the per-element sum within 1e-12 of
its largest value.  The analysis side is the s-form transform of
`transform`: the Hardy route's Cauchy transform is
`covariant_transform(AffineRep(inf), Fiducial("cauchy+"), ...)`, which
integrates over the signal's own samples at every dilation, and the
inner-product transform reads the same runs as synthesis (analysis is
its transpose).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .groups import GridAxis, GroupGrid, check_size, make_grid
from .representations import AffineRep
from .signals import (SampledSignal1D, _complex, _moved_reads, _parts,
                      _plan, _product, evaluate)
from .transform import TransformResult

_trapz = np.trapezoid


class InadmissibleVacuumError(ValueError):
    """The vacuum fails the admissibility test (divergent frequency integral)."""


def parse_a_sequence(spec: str) -> tuple[float, ...]:
    """Parse `geo:<a0>:<ratio>:<n>` into a decreasing dilation sequence
    of at most MAX_GRID_ELEMENTS terms, the last a normal float."""
    parts = spec.split(":")
    if len(parts) != 4 or parts[0] != "geo":
        raise ValueError(f"a-sequence spec must be geo:<a0>:<ratio>:<n>, got {spec!r}")
    try:
        a0, ratio = float(parts[1]), float(parts[2])
        n = int(parts[3])
    except ValueError:
        raise ValueError(f"bad number in a-sequence spec {spec!r}") from None
    if not math.isfinite(a0):
        raise ValueError(f"a-sequence a0 must be finite, got {parts[1]!r}")
    if a0 <= 0 or not (0 < ratio < 1) or n < 2:
        raise ValueError("a-sequence needs a0 > 0, 0 < ratio < 1, n >= 2")
    check_size(f"a-sequence {spec!r}", n)
    last = a0 * ratio ** (n - 1)
    if last < sys.float_info.min:
        raise ValueError(f"a-sequence {spec!r} ends at {last!r}, below the "
                         "least normal float")
    return tuple(a0 * ratio ** k for k in range(n))


def hardy_grid(a_sequence, b_axis_spec: str) -> GroupGrid:
    """Product grid (a-major) holding every (a, b) slice of a Hardy run.

    The a axis is log from the least to the largest dilation, so the
    sequence must be its points (in either order, within a relative
    1e-9, the tolerance of `inverse_hardy`); any other sequence raises
    ValueError.
    """
    a = tuple(float(v) for v in a_sequence)
    axis = GridAxis("a", "log", min(a), max(a), len(a))
    if not np.allclose(sorted(a), axis.values(), rtol=1e-9, atol=0.0):
        raise ValueError(f"hardy_grid: dilations {a!r} are not the points "
                         f"of the geometric axis {axis.spec()}")
    return make_grid(f"affine:{axis.spec()},b={b_axis_spec}")


# ---------------------------------------------------------------------------
# Admissibility


def admissibility_levels(v0: SampledSignal1D, refinements: int = 3):
    """Frequency integral of |v0^|^2 / |w| at successively finer bins.

    Each refinement zero-pads the samples (halving the bin width and the
    excluded zone around w = 0).  Returns (c_plus, c_minus) at the
    finest level and the per-level totals; a divergent integral shows up
    as totals that keep growing by a fixed amount per refinement.
    """
    if v0.n < 8:
        raise ValueError("vacuum has too few samples for a frequency test")
    totals = []
    finest = None
    for level in range(refinements + 1):
        n = v0.n * 2 ** level
        spec = np.fft.fft(v0.values, n=n) * v0.dx
        omega = 2.0 * math.pi * np.fft.fftfreq(n, v0.dx)
        dw = 2.0 * math.pi / (n * v0.dx)
        dens = np.abs(spec) ** 2
        pos = omega > 0.5 * dw
        neg = omega < -0.5 * dw
        c_plus = float(np.sum(dens[pos] / omega[pos]) * dw)
        c_minus = float(np.sum(dens[neg] / np.abs(omega[neg])) * dw)
        totals.append(c_plus + c_minus)
        finest = (c_plus, c_minus)
    return finest, totals


def admissibility_constant(v0: SampledSignal1D) -> float:
    """One-sided admissibility constant of the vacuum, or raise.

    Divergence is detected by bin refinement: a convergent integral
    settles (increments shrink), a logarithmically divergent one grows
    by a constant amount each time the excluded zone halves.

    The reconstruction normalizer is the average of the two half-line
    integrals; for a real vacuum the halves agree.
    """
    (c_plus, c_minus), totals = admissibility_levels(v0)
    increments = np.diff(totals)
    rel = np.abs(increments[-1]) / max(abs(totals[-1]), 1e-300)
    if rel > 1e-3 and abs(increments[-1]) > 0.5 * abs(increments[-2]):
        raise InadmissibleVacuumError(
            "inadmissible vacuum: frequency integral |v0^|^2/|w| keeps growing "
            f"under bin refinement (levels {[f'{t:.4g}' for t in totals]})")
    return 0.5 * (c_plus + c_minus)


# ---------------------------------------------------------------------------
# Synthesis kernel shared by both routes


def _synthesize(v0: SampledSignal1D, target: SampledSignal1D, a: np.ndarray,
                b: np.ndarray, coef: np.ndarray, rows=None,
                strided: bool = False) -> np.ndarray:
    """sum over e of coef[e] * v0((x - b[e]) / a[e]) on target's nodes x.

    Coefficients and vacuum carry only their nonzero parts
    (`signals._parts`): a real one is one row of reals, a complex one
    two.  `signals._plan` gives the dilations of rows = (b axis, idx)
    their paths.  FFT dilations each transform their coefficients and
    moved vacuum (sampled only where it can be nonzero) on the plan's
    `signals._Lattice`, the spectrum products of all of them are added,
    and one inverse turns the total into sums on the nodes (one row for
    real coefficients on a real vacuum, two otherwise).  Strided
    dilations sum their table's strided views against the columns of
    their coefficients' parts (`signals._Lattice.strided`).  Every other
    element with a nonzero coefficient is read through the runs and
    blocks of `signals._moved_reads`, one row of reads per row of the
    vacuum.  A dense block is summed by one real matrix product with the
    rows of coef; a ragged one is scattered onto the nodes by one real
    np.bincount per part of the sums (one for real coefficients on a
    real vacuum).  Every path multiplies parts by `signals._product`,
    and the sums stay parts up to the result: the FFT's are added first,
    then the strided and the direct ones, and the total is made complex
    once.  Each point reads the value the per-element sum reads; only the
    order of the additions differs.  strided sends every dilation a
    table bounds down the strided path (`signals._plan`).
    """
    n = target.n
    out = np.zeros((2, n))
    plan = _plan(a, b, rows, target, v0, coef != 0, onto_nodes=True,
                 strided=strided)
    lattice = plan.lattice
    spectra = []
    for row, scale, window in plan.fft:
        got = lattice.product(
            lattice.weights(_parts(coef[row])),
            lattice.kernel(lattice.moved_vacuum(v0, scale, window)))
        for total, part in zip(spectra, got):
            total += part
        spectra += got[len(spectra):]
    if spectra:
        out[:len(spectra)] += lattice.inverse(spectra)
    for row, scale, window in plan.strided:
        for total, part in zip(out, lattice.strided(v0, scale, window,
                                                    _parts(coef[row]).T)):
            total += part
    # the coefficients' parts, of which the direct reads take plan.direct's
    cw = _parts(coef)
    # the direct sums' parts, with a spare node n for the reads a ragged
    # block pads with
    sums = np.zeros((2, n + 1))
    for blk, cols, u in _moved_reads(v0, target, a, b, plan):
        if isinstance(cols, slice):
            # [k, j]: vacuum part k against coefficient part j
            for total, part in zip(sums, _product(cw[:, blk] @ u)):
                total[cols] += part
            continue
        node = cols.ravel()
        for total, part in zip(sums, _product(u[:, None] * cw[:, blk, None])):
            total += np.bincount(node, part.ravel(), n + 1)
    out += sums[:, :n]
    return _complex(out)


# ---------------------------------------------------------------------------
# Haar route


def _require_affine_scalar(res: TransformResult, who: str) -> None:
    if res.grid.group != "affine":
        raise ValueError(f"{who} expects transforms over the affine group")
    if res.output_dim != 1:
        raise ValueError(f"{who} expects scalar-valued transforms; "
                         "pair vector components separately")


def _same_grid(r1: TransformResult, r2: TransformResult) -> None:
    if r1.grid.spec != r2.grid.spec or len(r1.grid) != len(r2.grid):
        raise ValueError("transform results live on different grids")


def haar_pairing(f1: TransformResult, f2: TransformResult) -> complex:
    """Sum of f1 * conj(f2) against the Haar cell weights.

    Real and imaginary parts are reduced separately in grid order, so
    swapping the arguments conjugates the result bit-for-bit (every
    product commutes and the summation order is fixed).
    """
    _same_grid(f1, f2)
    _require_affine_scalar(f1, "haar_pairing")
    _require_affine_scalar(f2, "haar_pairing")
    u, v = f1.values[:, 0], f2.values[:, 0]
    w = f1.grid.weights
    re = np.sum((u.real * v.real + u.imag * v.imag) * w)
    im = np.sum((u.imag * v.real - u.real * v.imag) * w)
    return complex(float(re), float(im))


@dataclass(frozen=True, eq=False)
class ReconstructionReport:
    """Outcome of an inverse transform.

    residual is the relative L2 error against the reference (for the
    Hardy route, after removing the fitted gain); scalar_gain is the
    least-squares proportionality constant, 1 when no reference is
    given.
    """

    result: SampledSignal1D
    residual: float
    scalar_gain: complex
    a_sequence: tuple = ()
    converged: bool | None = None
    extra: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "residual": self.residual,
            "scalar_gain_re": self.scalar_gain.real,
            "scalar_gain_im": self.scalar_gain.imag,
            "a_sequence": list(self.a_sequence),
            "converged": self.converged,
        }


def _l2(values: np.ndarray, dx: float) -> float:
    return float(math.sqrt(_trapz(np.abs(values) ** 2, dx=dx).real))


def _fit_gain(result: np.ndarray, reference: np.ndarray, dx: float) -> complex:
    denom = _trapz(np.abs(reference) ** 2, dx=dx)
    if denom == 0:
        return 1.0 + 0j
    return complex(_trapz(result * np.conj(reference), dx=dx) / denom)


def inverse_haar(w: TransformResult, rep: AffineRep, v0: SampledSignal1D,
                 reference: SampledSignal1D | None = None,
                 out_grid: SampledSignal1D | None = None) -> ReconstructionReport:
    """Resynthesize sum_i W_i pi(g_i) v0 * weight_i / C, C the
    admissibility constant of v0.

    Raises InadmissibleVacuumError before touching the data when the
    vacuum's frequency integral diverges.  The output lives on the
    reference grid when one is supplied (else on v0's grid); residual is
    the plain relative L2 error of the round trip.
    """
    _require_affine_scalar(w, "inverse_haar")
    c_psi = admissibility_constant(v0)
    target = out_grid or reference or v0
    a, b = w.grid.coords.T
    a_vals, b_axis, idx = w.grid.dilation_rows()
    pref = np.empty(len(w.grid))
    pref[idx] = np.array([rep.prefactor(x) for x in a_vals.tolist()])[:, None]
    acc = _synthesize(v0, target, a, b, w.values[:, 0] * w.grid.weights * pref,
                      (b_axis, idx))
    acc /= c_psi
    result = SampledSignal1D(target.x0, target.dx, acc)
    gain, residual = 1.0 + 0j, 0.0
    if reference is not None:
        ref = (reference.values if reference is target
               else evaluate(reference, target.xs))
        norm = _l2(ref, target.dx)
        gain = _fit_gain(acc, ref, target.dx)
        residual = _l2(acc - ref, target.dx) / norm if norm > 0 else _l2(acc, target.dx)
    return ReconstructionReport(result, residual, gain,
                                extra={"c_psi": c_psi})


# ---------------------------------------------------------------------------
# Hardy route


def _grid_as_product(res: TransformResult):
    """Split an affine product grid into (a descending, b axis, values[a, b])."""
    a_vals, b_axis, idx = res.grid.dilation_rows()
    order = np.argsort(a_vals)[::-1]
    return a_vals[order], b_axis, res.values[:, 0][idx[order]]


def _richardson(a_desc: np.ndarray, stack: np.ndarray):
    """Quadratic-in-a extrapolation to a = 0 from the last three levels.

    stack[k] belongs to a_desc[k]; entries may be scalars or arrays.
    Also reports whether successive differences were shrinking.
    """
    m = len(a_desc)
    if m < 3:
        return stack[-1], True
    a = np.asarray(a_desc[-3:], dtype=float) / a_desc[-3]
    coeffs = []
    for k in range(3):
        others = [j for j in range(3) if j != k]
        c = 1.0
        for j in others:
            c *= (0.0 - a[j]) / (a[k] - a[j])
        coeffs.append(c)
    tail = stack[-3:]
    limit = sum(c * t for c, t in zip(coeffs, tail))
    diffs = [float(np.max(np.abs(np.atleast_1d(stack[k + 1] - stack[k]))))
             for k in range(m - 1)]
    converged = all(diffs[i + 1] <= diffs[i] * (1 + 1e-9) or diffs[i + 1] < 1e-14
                    for i in range(max(0, m - 4), m - 2))
    return limit, converged


@dataclass(frozen=True, eq=False)
class HardyPairingResult:
    a_values: np.ndarray
    per_a: np.ndarray
    limit: complex
    converged: bool


def hardy_pairing(f1: TransformResult, f2: TransformResult) -> HardyPairingResult:
    """b-integrals of f1 * conj(f2) along each dilation slice, plus the
    extrapolated a -> 0 limit.

    No Haar density enters here; each slice is a plain db integral.  A
    sequence whose successive differences grow is flagged as
    non-converged but the extrapolated value is still reported.
    """
    _same_grid(f1, f2)
    _require_affine_scalar(f1, "hardy_pairing")
    _require_affine_scalar(f2, "hardy_pairing")
    a_desc, b_ax, s1 = _grid_as_product(f1)
    _, _, s2 = _grid_as_product(f2)
    bw = b_ax.cell_widths()
    per_a = (s1 * np.conj(s2)) @ bw
    limit, converged = _richardson(a_desc, per_a)
    return HardyPairingResult(a_desc, per_a, complex(limit), converged)


def inverse_hardy(w: TransformResult, rep: AffineRep, v0: SampledSignal1D,
                  a_sequence=None,
                  reference: SampledSignal1D | None = None,
                  out_grid: SampledSignal1D | None = None,
                  ) -> ReconstructionReport:
    """Resynthesize along shrinking dilations and extrapolate to a = 0.

    At each a of the sequence the candidate is the b-integral of
    W(a, b) [pi(a, b) v0](x); the reported signal is the quadratic
    extrapolation of the last three candidates.  No admissibility enters
    anywhere, so vacua with nonzero mean (a plain Gaussian, say) are
    legitimate here.

    rep fixes the synthesis normalization of the vacuum family; p = 1
    makes the family an approximate identity and is what the bundled
    tools use.  Against a reference, scalar_gain is fitted by least
    squares and residual is measured after removing it.  An a_sequence
    other than the grid's dilations (largest first, each within a
    relative 1e-9) raises ValueError.
    """
    _require_affine_scalar(w, "inverse_hardy")
    a_desc, b_ax, surface = _grid_as_product(w)
    if a_sequence is not None and (
            len(a_sequence) != len(a_desc)
            or not np.allclose(a_sequence, a_desc, rtol=1e-9, atol=0.0)):
        raise ValueError("a_sequence disagrees with the grid")
    target = out_grid or reference or v0
    a_min = float(a_desc[-1])
    if a_min < max(v0.dx, target.dx):
        raise ValueError(
            f"smallest dilation {a_min:g} is below the grid resolution "
            f"(v0.dx={v0.dx:g}, out.dx={target.dx:g})")
    xs = target.xs
    b_vals = b_ax.values()
    bw = b_ax.cell_widths()
    rows = (b_ax, np.arange(b_ax.n)[None])
    levels = np.empty((len(a_desc), len(xs)), dtype=complex)
    for i, a in enumerate(a_desc):
        levels[i] = rep.prefactor(a) * _synthesize(
            v0, target, np.full(b_vals.size, a), b_vals, surface[i] * bw, rows)
    limit, converged = _richardson(a_desc, levels)
    result = SampledSignal1D(target.x0, target.dx, limit)
    gain, residual = 1.0 + 0j, 0.0
    if reference is not None:
        ref = reference.values if reference is target else evaluate(reference, xs)
        gain = _fit_gain(limit, ref, target.dx)
        scale = abs(gain) * _l2(ref, target.dx)
        if scale > 0:
            residual = _l2(limit - gain * ref, target.dx) / scale
        else:
            residual = _l2(limit, target.dx)
    return ReconstructionReport(result, residual, gain,
                                a_sequence=tuple(float(a) for a in a_desc),
                                converged=converged)
