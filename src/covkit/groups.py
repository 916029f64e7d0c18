"""Group elements, group laws, Haar weights, and finite sampling grids.

Four concrete groups are covered: the affine ("ax+b") group of the line,
the Euclidean motions of the plane, SU(1,1), and SL(2,R).  Elements are
immutable value objects; composition and inversion are pure functions.
Grids come from a small textual grammar so that every run is reproducible
from a single spec string.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

# Numerical tolerance for algebraic constraints checked at construction
# time (SU(1,1) relation, SL(2,R) determinant).
ALGEBRA_TOL = 1e-12

_TWO_PI = 2.0 * math.pi


class GridSpecError(ValueError):
    """A grid spec string failed to parse or described an unusable grid."""


@dataclass(frozen=True)
class AffineElement:
    """Point (a, b) of the affine group, a > 0.

    Group law (a, b) * (a', b') = (aa', ab' + b), identity (1, 0),
    inverse (1/a, -b/a).  The left-invariant measure has density a**-2
    in the (a, b) coordinates.
    """

    a: float
    b: float

    def __post_init__(self):
        if not self.a > 0:
            raise ValueError(f"dilation must be positive, got a={self.a!r}")

    @classmethod
    def identity(cls) -> "AffineElement":
        return cls(1.0, 0.0)

    def is_identity(self) -> bool:
        return self.a == 1.0 and self.b == 0.0

    def __mul__(self, other):
        if not isinstance(other, AffineElement):
            return NotImplemented
        return AffineElement(self.a * other.a, self.a * other.b + self.b)

    def inverse(self) -> "AffineElement":
        return AffineElement(1.0 / self.a, -self.b / self.a)

    def haar_density(self) -> float:
        return self.a ** -2

    def coords(self) -> tuple[float, ...]:
        return (self.a, self.b)


def _wrap_angle(theta: float) -> float:
    """Reduce an angle to (-pi, pi]."""
    t = math.remainder(theta, _TWO_PI)
    return math.pi if t == -math.pi else t


def rotation_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


@dataclass(frozen=True)
class EuclideanMotion:
    """Rigid motion of the plane: x -> R(theta) x + t, rotate then translate.

    Angles are kept in (-pi, pi].  Composition follows function
    composition of the actions, so (g * h)(x) = g(h(x)).
    """

    theta: float
    tx: float
    ty: float

    def __post_init__(self):
        object.__setattr__(self, "theta", _wrap_angle(self.theta))

    @classmethod
    def identity(cls) -> "EuclideanMotion":
        return cls(0.0, 0.0, 0.0)

    def is_identity(self) -> bool:
        return self.theta == 0.0 and self.tx == 0.0 and self.ty == 0.0

    def __mul__(self, other):
        if not isinstance(other, EuclideanMotion):
            return NotImplemented
        c, s = math.cos(self.theta), math.sin(self.theta)
        return EuclideanMotion(
            self.theta + other.theta,
            self.tx + c * other.tx - s * other.ty,
            self.ty + s * other.tx + c * other.ty,
        )

    def inverse(self) -> "EuclideanMotion":
        c, s = math.cos(self.theta), math.sin(self.theta)
        # R(-theta) applied to -t
        return EuclideanMotion(-self.theta, -(c * self.tx + s * self.ty),
                               -(-s * self.tx + c * self.ty))

    def transform_points(self, xy: np.ndarray) -> np.ndarray:
        """Apply the motion to points of shape (..., 2)."""
        xy = np.asarray(xy, dtype=float)
        c, s = math.cos(self.theta), math.sin(self.theta)
        x, y = xy[..., 0], xy[..., 1]
        return np.stack([c * x - s * y + self.tx, s * x + c * y + self.ty],
                        axis=-1)

    def haar_density(self) -> float:
        # E(2) is unimodular; dtheta dtx dty is bi-invariant.
        return 1.0

    def coords(self) -> tuple[float, ...]:
        return (self.theta, self.tx, self.ty)


@dataclass(frozen=True)
class Su11Element:
    """Element of SU(1,1) stored through the matrix [[alpha, beta],
    [conj(beta), conj(alpha)]] with |alpha|^2 - |beta|^2 = 1."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "beta", complex(self.beta))
        defect = abs(abs(self.alpha) ** 2 - abs(self.beta) ** 2 - 1.0)
        if defect > 1e3 * ALGEBRA_TOL:
            raise ValueError(
                f"|alpha|^2 - |beta|^2 must be 1, defect {defect:.3e}")

    @classmethod
    def identity(cls) -> "Su11Element":
        return cls(1.0 + 0j, 0j)

    def is_identity(self) -> bool:
        return self.alpha == 1.0 + 0j and self.beta == 0j

    def __mul__(self, other):
        if not isinstance(other, Su11Element):
            return NotImplemented
        return Su11Element(
            self.alpha * other.alpha + self.beta * other.beta.conjugate(),
            self.alpha * other.beta + self.beta * other.alpha.conjugate(),
        )

    def inverse(self) -> "Su11Element":
        return Su11Element(self.alpha.conjugate(), -self.beta)

    def matrix(self) -> np.ndarray:
        return np.array([
            [self.alpha, self.beta],
            [self.beta.conjugate(), self.alpha.conjugate()],
        ])

    def coords(self) -> tuple[float, ...]:
        return (self.alpha.real, self.alpha.imag, self.beta.real,
                self.beta.imag)


@dataclass(frozen=True)
class Sl2Element:
    """Real 2x2 matrix (m11 m12; m21 m22) with unit determinant."""

    m11: float
    m12: float
    m21: float
    m22: float

    def __post_init__(self):
        det = self.m11 * self.m22 - self.m12 * self.m21
        if abs(det - 1.0) > 1e3 * ALGEBRA_TOL:
            raise ValueError(f"determinant must be 1, got {det!r}")

    @classmethod
    def identity(cls) -> "Sl2Element":
        return cls(1.0, 0.0, 0.0, 1.0)

    def is_identity(self) -> bool:
        return (self.m11 == 1.0 and self.m12 == 0.0 and self.m21 == 0.0
                and self.m22 == 1.0)

    def __mul__(self, other):
        if not isinstance(other, Sl2Element):
            return NotImplemented
        return Sl2Element(
            self.m11 * other.m11 + self.m12 * other.m21,
            self.m11 * other.m12 + self.m12 * other.m22,
            self.m21 * other.m11 + self.m22 * other.m21,
            self.m21 * other.m12 + self.m22 * other.m22,
        )

    def inverse(self) -> "Sl2Element":
        return Sl2Element(self.m22, -self.m12, -self.m21, self.m11)

    def mobius_point(self, z):
        """Fractional-linear action (m11 z + m12) / (m21 z + m22)."""
        z = np.asarray(z, dtype=complex)
        return (self.m11 * z + self.m12) / (self.m21 * z + self.m22)

    def matrix(self) -> np.ndarray:
        return np.array([[self.m11, self.m12], [self.m21, self.m22]])

    def coords(self) -> tuple[float, ...]:
        return (self.m11, self.m12, self.m21, self.m22)


GroupElement = AffineElement | EuclideanMotion | Su11Element | Sl2Element


def compose(g, h):
    """Group product g * h; both operands must belong to the same group."""
    if type(g) is not type(h):
        raise TypeError(
            f"cannot compose {type(g).__name__} with {type(h).__name__}")
    out = g * h
    if out is NotImplemented:  # pragma: no cover - guarded by type check
        raise TypeError(f"composition undefined for {type(g).__name__}")
    return out


def inverse(g):
    return g.inverse()


def element_distance(g, h) -> float:
    """Max componentwise distance, angle coordinates compared modulo 2*pi."""
    if type(g) is not type(h):
        raise TypeError("cannot compare elements of different groups")
    if isinstance(g, EuclideanMotion):
        dth = abs(math.remainder(g.theta - h.theta, _TWO_PI))
        return max(dth, abs(g.tx - h.tx), abs(g.ty - h.ty))
    return max(abs(x - y) for x, y in zip(g.coords(), h.coords()))


# ---------------------------------------------------------------------------
# Grids


@dataclass(frozen=True)
class GridAxis:
    """One coordinate axis of a grid: `name=kind:lo:hi:n`, kind lin or log."""

    name: str
    kind: str
    lo: float
    hi: float
    n: int

    def __post_init__(self):
        if self.kind not in ("lin", "log"):
            raise GridSpecError(
                f"axis {self.name!r}: kind must be lin or log, got {self.kind!r}")
        if self.n < 1:
            raise GridSpecError(f"axis {self.name!r}: need n >= 1, got {self.n}")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise GridSpecError(f"axis {self.name!r}: endpoints must be finite")
        if self.kind == "log" and (self.lo <= 0 or self.hi <= 0):
            raise GridSpecError(
                f"axis {self.name!r}: log axis needs positive endpoints")
        if self.n > 1 and self.lo == self.hi:
            raise GridSpecError(
                f"axis {self.name!r}: degenerate range with n={self.n}")

    def values(self) -> np.ndarray:
        if self.n == 1:
            return np.array([self.lo])
        if self.kind == "lin":
            return np.linspace(self.lo, self.hi, self.n)
        return np.geomspace(self.lo, self.hi, self.n)

    def cell_widths(self) -> np.ndarray:
        """Trapezoidal cell widths; a single-point axis has unit width.

        For a log axis the width is value * (step in log), the measure of
        the cell under da = a d(log a)."""
        if self.n == 1:
            return np.array([1.0])
        if self.kind == "lin":
            step = (self.hi - self.lo) / (self.n - 1)
            w = np.full(self.n, step)
        else:
            step = (math.log(self.hi) - math.log(self.lo)) / (self.n - 1)
            w = self.values() * step
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    def spec(self) -> str:
        return f"{self.name}={self.kind}:{self.lo!r}:{self.hi!r}:{self.n}"


# Largest grid make_grid builds, checked before anything is allocated:
# five times the largest grid the tests, scripts and benchmark use, and
# far below where coords and weights would strain memory.
MAX_GRID_ELEMENTS = 1_000_000

_GROUP_AXES = {
    "affine": ("a", "b"),
    "e2": ("theta", "tx", "ty"),
}


def _parse_axis(token: str) -> GridAxis:
    name, sep, rhs = token.partition("=")
    if not sep:
        raise GridSpecError(f"axis token {token!r} is missing '='")
    parts = rhs.split(":")
    if len(parts) != 4:
        raise GridSpecError(
            f"axis token {token!r} must look like name=kind:lo:hi:n")
    kind, lo_s, hi_s, n_s = parts
    try:
        lo, hi = float(lo_s), float(hi_s)
    except ValueError:
        raise GridSpecError(f"bad number in axis token {token!r}") from None
    try:
        n = int(n_s)
    except ValueError:
        raise GridSpecError(f"bad point count {n_s!r} in axis token {token!r}") from None
    return GridAxis(name.strip(), kind, lo, hi, n)


@dataclass(frozen=True, eq=False)
class GroupGrid:
    """Finite list of group elements with Haar-weighted cell measures.

    coords[i] holds the coordinates of element i in the group's own
    order ((a, b) for affine, (theta, tx, ty) for e2, theta in
    (-pi, pi]) and weights[i] its cell measure; both are read-only.
    Elements are enumerated row-major over the axes in their listed
    order (last axis fastest), so a grid built from the same spec string
    always lists the same elements in the same order.  Element objects
    are built from coords only when `elements` is read.
    """

    group: str
    axes: tuple[GridAxis, ...]
    coords: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        for name in ("coords", "weights"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def spec(self) -> str:
        return self.group + ":" + ",".join(ax.spec() for ax in self.axes)

    @property
    def coord_names(self) -> tuple[str, ...]:
        """Names of the coords columns, in the group's own order."""
        return _GROUP_AXES[self.group]

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(ax.n for ax in self.axes)

    @property
    def elements(self) -> tuple:
        cls = AffineElement if self.group == "affine" else EuclideanMotion
        return tuple(cls(*row) for row in self.coords.tolist())

    def __len__(self) -> int:
        return len(self.weights)

    def axis(self, name: str) -> GridAxis:
        for ax in self.axes:
            if ax.name == name:
                return ax
        raise KeyError(name)


def make_grid(spec: str) -> GroupGrid:
    """Build a GroupGrid from `<group>:<axis>=<kind>:<lo>:<hi>:<n>[,...]`.

    Affine grids need axes a and b, with every dilation positive;
    Euclidean grids need theta, tx, ty.  The weight of each cell is the
    group's Haar density at the element times the product of per-axis
    cell widths.  A grid of more than MAX_GRID_ELEMENTS elements is
    rejected before anything is built.
    """
    head, sep, rest = spec.partition(":")
    group = head.strip()
    if group not in _GROUP_AXES:
        raise GridSpecError(f"unknown group {group!r} in grid spec {spec!r}")
    if not sep or not rest.strip():
        raise GridSpecError(f"grid spec {spec!r} lists no axes")
    axes = tuple(_parse_axis(tok.strip()) for tok in rest.split(","))
    names = [ax.name for ax in axes]
    expected = _GROUP_AXES[group]
    if sorted(names) != sorted(expected):
        raise GridSpecError(
            f"group {group!r} needs axes {sorted(expected)}, got {sorted(names)}")
    size = math.prod(ax.n for ax in axes)
    if size > MAX_GRID_ELEMENTS:
        raise GridSpecError(f"grid spec {spec!r} has {size} elements, more "
                            f"than the limit of {MAX_GRID_ELEMENTS}")

    values = {ax.name: ax.values() for ax in axes}
    # Scalar math per axis value keeps coordinates and densities bit-equal
    # to what the element classes compute one element at a time.
    density = 1.0
    if group == "affine":
        if not np.all(values["a"] > 0):
            raise GridSpecError(f"dilations must be positive in {spec!r}")
        shape = [1] * len(axes)
        shape[names.index("a")] = -1
        density = np.array([float(a) ** -2 for a in values["a"]]).reshape(shape)
    else:
        values["theta"] = np.array([_wrap_angle(t) for t in values["theta"]])
    mesh = dict(zip(names, np.meshgrid(*(values[n] for n in names),
                                       indexing="ij")))
    coords = np.stack([mesh[n].ravel() for n in expected], axis=1)
    cell = reduce(np.multiply.outer, [ax.cell_widths() for ax in axes])
    return GroupGrid(group, axes, coords, (density * cell).ravel())
