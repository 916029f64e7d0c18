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
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .groups import GroupGrid, make_grid
from .representations import AffineRep, apply_affine
from .signals import SampledSignal1D, evaluate
from .transform import TransformResult

_trapz = np.trapezoid


class InadmissibleVacuumError(ValueError):
    """The vacuum fails the admissibility test (divergent frequency integral)."""


@dataclass(frozen=True)
class Pairing:
    """Which pairing closes the loop: 'haar' or 'hardy'.

    The Hardy variant carries the dilation sequence (decreasing toward
    zero) along which b-integrals are extrapolated.
    """

    kind: str
    a_sequence: tuple = ()

    def __post_init__(self):
        if self.kind not in ("haar", "hardy"):
            raise ValueError(f"unknown pairing kind {self.kind!r}")
        if self.kind == "hardy":
            a = tuple(float(v) for v in self.a_sequence)
            if len(a) < 2 or any(x <= 0 for x in a):
                raise ValueError("hardy pairing needs >= 2 positive dilations")
            if any(a[i + 1] >= a[i] for i in range(len(a) - 1)):
                raise ValueError("hardy dilation sequence must decrease")
            object.__setattr__(self, "a_sequence", a)


def parse_a_sequence(spec: str) -> tuple[float, ...]:
    """Parse `geo:<a0>:<ratio>:<n>` into a decreasing dilation sequence."""
    parts = spec.split(":")
    if len(parts) != 4 or parts[0] != "geo":
        raise ValueError(f"a-sequence spec must be geo:<a0>:<ratio>:<n>, got {spec!r}")
    try:
        a0, ratio = float(parts[1]), float(parts[2])
        n = int(parts[3])
    except ValueError:
        raise ValueError(f"bad number in a-sequence spec {spec!r}") from None
    if a0 <= 0 or not (0 < ratio < 1) or n < 2:
        raise ValueError("a-sequence needs a0 > 0, 0 < ratio < 1, n >= 2")
    return tuple(a0 * ratio ** k for k in range(n))


def hardy_grid(a_sequence, b_axis_spec: str) -> GroupGrid:
    """Product grid (a-major) holding every (a, b) slice of a Hardy run."""
    a = tuple(float(v) for v in a_sequence)
    lo, hi = min(a), max(a)
    n = len(a)
    return make_grid(f"affine:a=log:{lo!r}:{hi!r}:{n},b={b_axis_spec}")


def hardy_analysis(f: SampledSignal1D, grid: GroupGrid,
                   sign: int = +1) -> TransformResult:
    """Cauchy transform of f at every grid point, integrated over f's
    own samples.

    This is the p = infinity covariant transform with the cauchy+ (or
    cauchy-) fiducial after the exact substitution s = a t + b: the
    value at (a, b) is (1/2pi i) integral of f(s)/(s - b -+ i a) ds.
    Quadrature in s keeps the whole sampled signal under the kernel at
    every dilation, where the t-form would only see the slice
    [b - aT, b + aT] of a window [-T, T] and lose the rest to the tail
    model.  For an upper-Hardy f and sign +1 this evaluates f(b + i a).
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    if grid.group != "affine":
        raise ValueError("hardy_analysis needs an affine (a, b) grid")
    s = f.xs
    fw = f.values * _trapz_weights(len(s), f.dx)
    z = grid.coords[:, 1] + 1j * sign * grid.coords[:, 0]
    out = np.empty(len(z), dtype=complex)
    # Row blocks keep the kernel matrix a few hundred MB at most.
    block = max(1, int(4e6) // max(1, len(s)))
    for lo in range(0, len(z), block):
        hi = min(lo + block, len(z))
        kern = 1.0 / (s[None, :] - z[lo:hi, None])
        out[lo:hi] = kern @ fw
    out /= 2j * math.pi
    # For an O(1/s^2) tail beyond the window the missing mass on either
    # side is at most |f(edge)| / (2 pi); doubled for safety.
    edge = max(abs(complex(f.values[0])), abs(complex(f.values[-1])))
    meta = {
        "rep": "affine:p=inf",
        "fiducial": "cauchy+" if sign > 0 else "cauchy-",
        "grid": grid.spec,
        "truncation_budget": edge / math.pi,
    }
    return TransformResult(grid, out, meta)


def _trapz_weights(n: int, dx: float) -> np.ndarray:
    w = np.full(n, dx)
    w[0] = w[-1] = 0.5 * dx
    return w


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
    xs = target.xs
    acc = np.zeros(len(xs), dtype=complex)
    vals = w.values[:, 0]
    for (a, b), wval, cell in zip(w.grid.coords, vals, w.grid.weights):
        if wval == 0:
            continue
        pref = 1.0 if rep.p == math.inf else a ** (-1.0 / rep.p)
        acc += (wval * cell * pref) * evaluate(v0, (xs - b) / a)
    acc /= c_psi
    result = SampledSignal1D(target.x0, target.dx, acc)
    gain, residual = 1.0 + 0j, 0.0
    if reference is not None:
        ref = reference.values if reference is target else evaluate(reference, xs)
        norm = _l2(ref, target.dx)
        gain = _fit_gain(acc, ref, target.dx)
        residual = _l2(acc - ref, target.dx) / norm if norm > 0 else _l2(acc, target.dx)
    return ReconstructionReport(result, residual, gain,
                                extra={"c_psi": c_psi})


# ---------------------------------------------------------------------------
# Hardy route


def _grid_as_product(res: TransformResult):
    """Split an affine product grid into (a descending, b axis, values[a, b])."""
    axes = {ax.name: ax for ax in res.grid.axes}
    if res.grid.group != "affine" or set(axes) != {"a", "b"}:
        raise ValueError("hardy machinery needs an affine (a, b) product grid")
    names = [ax.name for ax in res.grid.axes]
    n_a, n_b = axes["a"].n, axes["b"].n
    vals = res.values[:, 0]
    if names == ["a", "b"]:
        surface = vals.reshape(n_a, n_b)
    else:
        surface = vals.reshape(n_b, n_a).T
    a_vals = axes["a"].values()
    order = np.argsort(a_vals)[::-1]
    return a_vals[order], axes["b"], surface[order]


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
                  pairing: Pairing | None = None,
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
    squares and residual is measured after removing it.
    """
    _require_affine_scalar(w, "inverse_hardy")
    a_desc, b_ax, surface = _grid_as_product(w)
    if pairing is not None:
        if pairing.kind != "hardy":
            raise ValueError("inverse_hardy needs a hardy pairing")
        if len(pairing.a_sequence) != len(a_desc) or not np.allclose(
                pairing.a_sequence, a_desc, rtol=1e-9):
            raise ValueError("pairing a_sequence disagrees with the grid")
    target = out_grid or reference or v0
    a_min = float(a_desc[-1])
    if a_min < max(v0.dx, target.dx):
        raise ValueError(
            f"smallest dilation {a_min:g} is below the grid resolution "
            f"(v0.dx={v0.dx:g}, out.dx={target.dx:g})")
    xs = target.xs
    b_vals = b_ax.values()
    bw = b_ax.cell_widths()
    levels = np.empty((len(a_desc), len(xs)), dtype=complex)
    chunk = max(1, int(2e6) // max(len(xs), 1))
    for i, a in enumerate(a_desc):
        pref = 1.0 if rep.p == math.inf else a ** (-1.0 / rep.p)
        acc = np.zeros(len(xs), dtype=complex)
        for lo in range(0, len(b_vals), chunk):
            hi = min(lo + chunk, len(b_vals))
            block = evaluate(v0, (xs[None, :] - b_vals[lo:hi, None]) / a)
            acc += (surface[i, lo:hi] * bw[lo:hi]) @ block
        levels[i] = pref * acc
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
