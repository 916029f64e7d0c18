"""Group actions on sampled signals.

Every action here is a genuine homomorphism: applying g then h equals
applying g*h up to the rounding of the composed element.  No action
resamples: the affine action moves the sampling grid (a uniformly
sampled signal moved by (a, b) is exactly another one), and a rigid
motion moves the frame of a 2D lattice, which `signals.evaluate2` pulls
its reads back through.  The covariant transform feeds inverted
elements into these maps, so at (a, b) a fiducial reads a**(1/p) f on
the nodes (x - b) / a: the s-form of `fiducials`; along a line it reads
f at the moved line's points, as the direct Radon lines do.

Identity elements short-circuit to the untouched input signal, which
keeps identity checks bit-exact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .groups import AffineElement, EuclideanMotion
from .signals import SampledSignal1D, SampledSignal2D


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
    """f(g^-1 x): the same samples on the lattice moved by g after f's
    own motion."""
    if g.is_identity():
        return f
    return SampledSignal2D(f.origin, f.dx, f.dy, f.values, g * f.motion)


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
    raise TypeError(f"unknown representation {rep!r}")
