"""Mobius action on strict contractions and numerical-range sampling.

A unit-determinant pair (alpha, beta) with |alpha|^2 - |beta|^2 = 1 acts
on a strict contraction A by

    A  |->  (alpha A + beta I)(conj(beta) A + conj(alpha) I)^{-1},

the matrix analogue of a disc automorphism.  Numerator and denominator
are polynomials in the same A, so they commute and the order of the
product does not matter.

The numerical-range side evaluates |<A U(t) x, U(t) x>| along the
unitary orbit U(t) = exp(i t B) of a Hermitian generator; every sampled
point must lie inside the numerical range, which is certified against
the support function of A (the largest eigenvalue of the rotated
Hermitian part).  Support function and hull come from one batched
eigensolve per block of directions (`_rotated_tops`), which the
certificate and the hull share when both are asked for (`_numrange`).
"""
from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass

import numpy as np

from .groups import Su11Element

_HERMITIAN_TOL = 1e-12
_UNIT_TOL = 1e-12
_CONTRACTION_SLACK = 1e-10
_SUPPORT_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class UnitaryOrbit:
    """Orbit data: Hermitian generator, unit vector, and sample times."""

    generator: np.ndarray
    x: np.ndarray
    t_grid: np.ndarray

    def __post_init__(self):
        gen = np.array(self.generator, dtype=complex)
        if gen.ndim != 2 or gen.shape[0] != gen.shape[1]:
            raise ValueError("generator must be square")
        if np.max(np.abs(gen - gen.conj().T)) > _HERMITIAN_TOL * max(
                1.0, float(np.max(np.abs(gen)))):
            raise ValueError("generator must be Hermitian")
        x = np.array(self.x, dtype=complex).reshape(-1)
        if x.shape[0] != gen.shape[0]:
            raise ValueError("vector length must match the generator")
        nrm = float(np.linalg.norm(x))
        if abs(nrm - 1.0) > _UNIT_TOL:
            raise ValueError(f"orbit vector must be unit length, got {nrm!r}")
        t = np.array(self.t_grid, dtype=float).reshape(-1)
        if t.size == 0:
            raise ValueError("t_grid must be nonempty")
        for name, val in (("generator", gen), ("x", x), ("t_grid", t)):
            val.setflags(write=False)
            object.__setattr__(self, name, val)


def spectral_radius(a: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(np.asarray(a, dtype=complex)))))


def mobius_apply(g: Su11Element, a: np.ndarray) -> np.ndarray:
    """Act on a strict contraction by the matrix disc automorphism of g.

    Composition is covariant on the left: acting by g1 * g2 equals
    acting by g2 first and g1 second.  The result of acting on a strict
    contraction is again a strict contraction; both ends are checked.
    """
    return _mobius(g, a)[0]


def _mobius(g: Su11Element, a: np.ndarray) -> tuple[np.ndarray, float]:
    """mobius_apply's matrix and its spectral radius, which the output
    check computes anyway."""
    mat = np.asarray(a, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("mobius_apply needs a square matrix")
    rho = spectral_radius(mat)
    if rho >= 1.0:
        raise ValueError(
            f"mobius_apply needs a strict contraction, spectral radius {rho:.6g}")
    eye = np.eye(mat.shape[0], dtype=complex)
    num = g.alpha * mat + g.beta * eye
    den = np.conj(g.beta) * mat + np.conj(g.alpha) * eye
    if np.linalg.cond(den) > 1e12:
        raise ValueError("mobius_apply denominator is numerically singular")
    out = num @ np.linalg.inv(den)
    rho_out = spectral_radius(out)
    if rho_out >= 1.0 + _CONTRACTION_SLACK:
        raise ValueError(
            f"mobius_apply produced spectral radius {rho_out:.6g}; "
            "input was too close to the unit circle for this element")
    return out, rho_out


def support_function(a: np.ndarray, theta: float) -> float:
    """Largest eigenvalue of the Hermitian part of e^{-i theta} A.

    The numerical range sits in every half plane
    { z : Re(e^{-i theta} z) <= support_function(a, theta) }.
    """
    mat = np.asarray(a, dtype=complex)
    rot = cmath.exp(-1j * theta) * mat
    herm = 0.5 * (rot + rot.conj().T)
    return float(np.max(np.linalg.eigvalsh(herm)))


# Most matrix entries one block of rotated Hermitian parts holds (1 MB
# of complex entries, so n = 32 takes 64 directions per block), and most
# (direction, t) margins one block of the certificate holds, so the
# scratch memory stays near a megabyte whatever n_theta and the t grid.
_BLOCK_ENTRIES = 2 ** 16


def _rotated_tops(mat: np.ndarray, n_theta: int, vectors: bool):
    """Directions theta_k = 2 pi k / n_theta, the top eigenvalue of the
    Hermitian part of e^{-i theta_k} A for each, which is
    support_function, and with vectors the top eigenvectors as rows
    (None without).

    One eigensolve per block of directions: `eigh` when the vectors are
    wanted, `eigvalsh` otherwise.  For even n_theta only the first half
    of the circle is decomposed: direction theta + pi has minus the
    Hermitian part of direction theta, so its top eigenpair is theta's
    bottom one with the eigenvalue negated (Johnson reads both ends of
    each spectrum over [0, pi) in the same way).
    """
    n = mat.shape[0]
    thetas = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    solved = n_theta // 2 if n_theta % 2 == 0 else n_theta
    step = max(1, _BLOCK_ENTRIES // (n * n))
    tops = np.empty(n_theta)
    top_vecs = np.empty((n_theta, n), dtype=complex) if vectors else None
    for lo in range(0, solved, step):
        hi = min(lo + step, solved)
        rot = np.exp(-1j * thetas[lo:hi])[:, None, None] * mat
        herm = 0.5 * (rot + rot.conj().transpose(0, 2, 1))
        if vectors:
            vals, vecs = np.linalg.eigh(herm)
            top_vecs[lo:hi] = vecs[:, :, -1]
        else:
            vals = np.linalg.eigvalsh(herm)
        tops[lo:hi] = vals[:, -1]
        if solved < n_theta:
            tops[solved + lo:solved + hi] = -vals[:, 0]
            if vectors:
                top_vecs[solved + lo:solved + hi] = vecs[:, :, 0]
    return thetas, tops, top_vecs


def _hull_points(mat: np.ndarray, top_vecs: np.ndarray) -> np.ndarray:
    """<A v, v> for each row v of top_vecs."""
    return np.einsum("kj,kj->k", top_vecs.conj(), top_vecs @ mat.T)


def numerical_range_hull(a: np.ndarray, n_theta: int = 360) -> np.ndarray:
    """Boundary points of the numerical range, counterclockwise.

    For each direction the top eigenvector of the rotated Hermitian part
    gives the supporting point <A v, v>.
    """
    mat = np.asarray(a, dtype=complex)
    return _hull_points(mat, _rotated_tops(mat, n_theta, True)[2])


def _numrange(a: np.ndarray, orbit: UnitaryOrbit, n_theta: int, hull: bool):
    """Certified orbit values and, when hull is true, the hull points
    (None otherwise), both read from one eigensolve per block of
    directions.

    The orbit values are checked against the supports a block of t
    values at a time; the error names the first t that escapes.
    """
    mat = np.asarray(a, dtype=complex)
    if mat.shape != (orbit.x.shape[0], orbit.x.shape[0]):
        raise ValueError("operator and orbit dimensions disagree")
    thetas, supports, top_vecs = _rotated_tops(mat, n_theta, hull)
    vals, vecs = np.linalg.eigh(orbit.generator)
    coeff = vecs.conj().T @ orbit.x
    cos, sin = np.cos(thetas)[:, None], np.sin(thetas)[:, None]
    ts = orbit.t_grid
    step = max(1, _BLOCK_ENTRIES // max(mat.shape[0], n_theta))
    forms = np.empty(ts.shape[0], dtype=complex)
    for lo in range(0, ts.shape[0], step):
        t = ts[lo:lo + step]
        states = vecs @ (np.exp(1j * np.outer(vals, t)) * coeff[:, None])
        z = np.einsum("it,it->t", states.conj(), mat @ states)
        worst = np.max((cos * z.real + sin * z.imag) - supports[:, None],
                       axis=0)
        bad = np.flatnonzero(worst > _SUPPORT_SLACK)
        if bad.size:
            k = bad[0]
            raise ValueError(
                f"orbit value {complex(z[k]):.6g} at t={float(t[k]):g} "
                f"escapes the numerical range by {float(worst[k]):.3g}")
        forms[lo:lo + step] = z
    return forms, (_hull_points(mat, top_vecs) if hull else None)


def numrange_transform(a: np.ndarray, orbit: UnitaryOrbit,
                       n_theta: int = 360) -> np.ndarray:
    """<A U(t) x, U(t) x> along the orbit, certified in-range.

    U(t) = exp(i t B) is evaluated through the eigendecomposition of the
    Hermitian generator B, so each state is exactly unit length up to
    roundoff.  Every quadratic form value is checked against the support
    function on an angular grid before it is reported; a failure means
    the arithmetic broke the numerical-range containment and is raised
    rather than returned.
    """
    return _numrange(a, orbit, n_theta, False)[0]


# ---------------------------------------------------------------------------
# Matrix JSON files: {"matrix": [[[re, im], ...], ...]}


def write_matrix_json(path: str, a: np.ndarray) -> None:
    mat = np.asarray(a, dtype=complex)
    payload = {"matrix": np.stack((mat.real, mat.imag), axis=-1).tolist()}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True) + "\n")


def read_matrix_json(path: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or "matrix" not in payload:
        raise ValueError(f"{path}: expected an object with a 'matrix' key")
    rows = payload["matrix"]
    try:
        mat = np.array([[complex(c[0], c[1]) for c in row] for row in rows],
                       dtype=complex)
    except (TypeError, IndexError):
        raise ValueError(f"{path}: matrix entries must be [re, im] pairs") from None
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{path}: matrix must be square")
    return mat


def write_vector_json(path: str, x: np.ndarray) -> None:
    vec = np.asarray(x, dtype=complex).reshape(-1)
    payload = {"vector": np.stack((vec.real, vec.imag), axis=-1).tolist()}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True) + "\n")


def read_vector_json(path: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or "vector" not in payload:
        raise ValueError(f"{path}: expected an object with a 'vector' key")
    try:
        vec = np.array([complex(c[0], c[1]) for c in payload["vector"]],
                       dtype=complex)
    except (TypeError, IndexError):
        raise ValueError(f"{path}: vector entries must be [re, im] pairs") from None
    if vec.size == 0:
        raise ValueError(f"{path}: vector is empty")
    return vec
