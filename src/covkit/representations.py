"""Group actions on sampled signals.

Every action here is a genuine homomorphism: applying g then h equals
applying g*h, up to interpolation error.  The affine action moves the
sampling grid instead of the samples (a uniformly sampled signal moved
by (a, b) is exactly another one), so it interpolates nothing and its
homomorphism and isometry laws hold up to rounding.  The covariant
transform feeds inverted elements into these maps, so at (a, b) a
fiducial reads a**(1/p) f on the nodes (x - b) / a: the s-form of
`fiducials`.

Identity elements short-circuit to the untouched input signal, which
keeps identity checks bit-exact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .groups import AffineElement, EuclideanMotion, Sl2Element
from .signals import SampledSignal1D, SampledSignal2D, evaluate2


@dataclass(frozen=True)
class AffineRep:
    """Dilation-translation action on signals over the line.

    [pi_p(a, b) f](x) = a**(-1/p) f((x - b) / a); the prefactor is 1 for
    p = infinity.  Isometric on the p-norm for every admissible p.
    """

    p: float = 2.0

    def __post_init__(self):
        if not (self.p >= 1):
            raise ValueError(f"need p >= 1 or infinity, got {self.p!r}")

    def describe(self) -> str:
        return "affine:p=" + ("inf" if self.p == math.inf else f"{self.p:g}")

    def prefactor(self, a: float) -> float:
        """a**(-1/p), the factor in front of f((x - b) / a)."""
        return 1.0 if self.p == math.inf else a ** (-1.0 / self.p)


@dataclass(frozen=True)
class EuclideanRep:
    """Rigid-motion action on signals over the plane: f -> f(g^-1 x)."""

    def describe(self) -> str:
        return "e2"


@dataclass(frozen=True)
class Sl2Rep:
    """Weight-2 fractional-linear action on the upper half-plane."""

    def describe(self) -> str:
        return "sl2:k=2"


def apply_affine(rep: AffineRep, g: AffineElement,
                 f: SampledSignal1D) -> SampledSignal1D:
    """pi_p(g) f sampled on the moved grid: node x0 + k dx goes to
    a (x0 + k dx) + b and its sample is scaled by a**(-1/p)."""
    if g.is_identity():
        return f
    return SampledSignal1D(g.a * f.x0 + g.b, g.a * f.dx,
                           rep.prefactor(g.a) * f.values)


def apply_euclidean(rep: EuclideanRep, g: EuclideanMotion,
                    f: SampledSignal2D) -> SampledSignal2D:
    if g.is_identity():
        return f
    X, Y = np.meshgrid(f.xs, f.ys)
    pts = g.inverse().transform_points(np.stack([X, Y], axis=-1))
    return SampledSignal2D(f.origin, f.dx, f.dy,
                           evaluate2(f, pts[..., 0], pts[..., 1]))


def apply_sl2(rep: Sl2Rep, g: Sl2Element,
              f: SampledSignal2D) -> SampledSignal2D:
    """Pull back through the Moebius map of g^-1 with the weight-2 factor.

    With (a b; c d) the entries of g^-1, the output at z = x + iy is
    (cz + d)**-2 f((az + b)/(cz + d)).  The sampled rectangle must lie
    strictly inside the upper half-plane, which the Moebius action
    preserves.
    """
    if f.origin[1] <= 0:
        raise ValueError("signal grid must lie in the open upper half-plane")
    if g.is_identity():
        return f
    gi = g.inverse()
    X, Y = np.meshgrid(f.xs, f.ys)
    z = X + 1j * Y
    den = gi.m21 * z + gi.m22
    w = (gi.m11 * z + gi.m12) / den
    vals = den ** -2 * evaluate2(f, w.real, w.imag)
    return SampledSignal2D(f.origin, f.dx, f.dy, vals)


def apply(rep, g, f):
    """Dispatch on the representation type; rejects mismatched signals."""
    if isinstance(rep, AffineRep):
        if not isinstance(f, SampledSignal1D):
            raise TypeError("affine action needs a 1D signal")
        return apply_affine(rep, g, f)
    if isinstance(rep, EuclideanRep):
        if not isinstance(f, SampledSignal2D):
            raise TypeError("Euclidean action needs a 2D signal")
        return apply_euclidean(rep, g, f)
    if isinstance(rep, Sl2Rep):
        if not isinstance(f, SampledSignal2D):
            raise TypeError("SL(2) action needs a 2D signal")
        return apply_sl2(rep, g, f)
    raise TypeError(f"unknown representation {rep!r}")
