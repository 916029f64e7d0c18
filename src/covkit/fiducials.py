"""Fiducial operators: the scalar (or small-vector) reads taken after a
group action.  Linearity is not assumed anywhere; the interval average
is genuinely nonlinear and only positively homogeneous.

Cauchy-type functionals integrate against kernels decaying like 1/t, so
truncating the window costs real tail mass.  The "rational-tail" policy
models the signal beyond the window by f(edge) * (edge/t)^2 and adds the
closed-form kernel integral of that model; `truncation_budget` reports
the same quantity as a bound regardless of policy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .signals import (SampledSignal1D, SampledSignal2D, evaluate, evaluate2,
                      resample)

_trapz = np.trapezoid

_KINDS = ("cauchy+", "cauchy-", "combo", "jump", "poisson", "inner", "avg",
          "radonline")

# Only edges at least this far from the origin get a modeled tail; the
# 1/t^2 decay model is meaningless across t = 0.
_TAIL_MIN_EDGE = 1.0


def _normalize_sign(sign) -> int:
    if sign in (+1, "+", "plus"):
        return +1
    if sign in (-1, "-", "minus"):
        return -1
    raise ValueError(f"sign must be '+' or '-', got {sign!r}")


def _cauchy_tail_model(f: SampledSignal1D, z: complex) -> complex:
    """Closed-form integral of f(edge)*(edge/t)^2 / (2*pi*i*(t - z)) over
    both missing tails.  Uses the antiderivative
    (1/z^2) log((t - z)/t) + 1/(z t)."""
    total = 0.0 + 0.0j
    tr = f.x_end
    if tr > _TAIL_MIN_EDGE:
        ir = -(1.0 / z ** 2) * np.log(1.0 - z / tr) - 1.0 / (z * tr)
        total += f.values[-1] * tr ** 2 * ir / (2j * math.pi)
    tl = f.x0
    if tl < -_TAIL_MIN_EDGE:
        il = (1.0 / z ** 2) * np.log((tl - z) / tl) + 1.0 / (z * tl)
        total += f.values[0] * tl ** 2 * il / (2j * math.pi)
    return complex(total)


def _poisson_tail_model(f: SampledSignal1D) -> complex:
    total = 0.0 + 0.0j
    tr = f.x_end
    if tr > _TAIL_MIN_EDGE:
        total += f.values[-1] * tr ** 2 / math.pi * (1.0 / tr - math.atan(1.0 / tr))
    tl = f.x0
    if tl < -_TAIL_MIN_EDGE:
        s = abs(tl)
        total += f.values[0] * tl ** 2 / math.pi * (1.0 / s - math.atan(1.0 / s))
    return complex(total)


def eval_cauchy(sign, f: SampledSignal1D, tail_policy: str = "truncate") -> complex:
    """(1/2*pi*i) integral of f(t) / (t -+ i) dt; '+' uses t - i."""
    z = 1j * _normalize_sign(sign)
    kern = 1.0 / (2j * math.pi * (f.xs - z))
    val = complex(_trapz(f.values * kern, dx=f.dx))
    if tail_policy == "rational-tail":
        val += _cauchy_tail_model(f, z)
    return val


def eval_combo(c_plus, c_minus, f: SampledSignal1D,
               tail_policy: str = "truncate") -> complex:
    return (c_plus * eval_cauchy(+1, f, tail_policy)
            + c_minus * eval_cauchy(-1, f, tail_policy))


def eval_jump(f: SampledSignal1D, tail_policy: str = "truncate") -> np.ndarray:
    """Both boundary functionals side by side: (F+ f, F- f)."""
    return np.array([eval_cauchy(+1, f, tail_policy),
                     eval_cauchy(-1, f, tail_policy)])


def eval_poisson_kernel(f: SampledSignal1D, tail_policy: str = "truncate") -> complex:
    """(1/pi) integral of f(t) / (1 + t^2) dt, the harmonic read at i."""
    val = complex(_trapz(f.values / (1.0 + f.xs ** 2), dx=f.dx) / math.pi)
    if tail_policy == "rational-tail":
        val += _poisson_tail_model(f)
    return val


def eval_inner_product(v0: SampledSignal1D, f: SampledSignal1D) -> complex:
    """<f, v0> with v0 resampled onto f's grid when the grids differ."""
    if not (v0.x0 == f.x0 and v0.dx == f.dx and v0.n == f.n):
        v0 = resample(v0, f.x0, f.dx, f.n)
    return complex(_trapz(f.values * np.conj(v0.values), dx=f.dx))


def eval_interval_average(f: SampledSignal1D) -> complex:
    """(1/2) integral over [-1, 1] of |f|.

    Trapezoid on the modulus of the samples, with the interval endpoints
    interpolated in, so the quadrature is exact for nonnegative
    piecewise-linear data.  Positively homogeneous, not linear.
    """
    if f.x0 > -1.0 or f.x_end < 1.0:
        raise ValueError("signal grid does not cover [-1, 1]")
    lo = np.searchsorted(f.xs, -1.0, side="right")
    hi = np.searchsorted(f.xs, 1.0, side="left")
    xs = np.concatenate(([-1.0], f.xs[lo:hi], [1.0]))
    ys = np.concatenate((np.abs(evaluate(f, [-1.0])),
                         np.abs(f.values[lo:hi]),
                         np.abs(evaluate(f, [1.0]))))
    return complex(0.5 * _trapz(ys, xs))


def eval_radon_line(f: SampledSignal2D) -> complex:
    """Integral of the signal along the line y = 0.

    Returns 0 when the line misses the sampled rectangle.
    """
    if f.origin[1] > 0.0 or f.y_end < 0.0:
        return 0.0 + 0.0j
    vals = evaluate2(f, f.xs, np.zeros_like(f.xs))
    return complex(_trapz(vals, dx=f.dx))


@dataclass(frozen=True, eq=False)
class Fiducial:
    """A named fiducial with its parameters; call it on a signal.

    kind is one of cauchy+, cauchy-, combo, jump, poisson, inner, avg,
    radonline.  Output is a vector of output_dim complex values (all
    kinds are scalar except jump, which returns both boundary reads).
    tail_policy ("truncate" or "rational-tail") is the only tail setting.
    """

    kind: str
    c_plus: complex = 1.0 + 0j
    c_minus: complex = 1.0 + 0j
    v0: SampledSignal1D | None = None
    tail_policy: str = "truncate"

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fiducial kind {self.kind!r}")
        if self.kind == "inner" and self.v0 is None:
            raise ValueError("inner-product fiducial needs a mother signal v0")
        if self.tail_policy not in ("truncate", "rational-tail"):
            raise ValueError(f"unknown tail policy {self.tail_policy!r}")

    @property
    def output_dim(self) -> int:
        return 2 if self.kind == "jump" else 1

    @property
    def signal_ndim(self) -> int:
        return 2 if self.kind == "radonline" else 1

    def __call__(self, f) -> np.ndarray:
        if self.kind == "cauchy+":
            out = eval_cauchy(+1, f, self.tail_policy)
        elif self.kind == "cauchy-":
            out = eval_cauchy(-1, f, self.tail_policy)
        elif self.kind == "combo":
            out = eval_combo(self.c_plus, self.c_minus, f, self.tail_policy)
        elif self.kind == "jump":
            return eval_jump(f, self.tail_policy)
        elif self.kind == "poisson":
            out = eval_poisson_kernel(f, self.tail_policy)
        elif self.kind == "inner":
            out = eval_inner_product(self.v0, f)
        elif self.kind == "avg":
            out = eval_interval_average(f)
        else:
            out = eval_radon_line(f)
        return np.array([out])

    def describe(self) -> str:
        if self.kind == "combo":
            return f"combo:{_fmt_c(self.c_plus)}:{_fmt_c(self.c_minus)}"
        if self.kind == "inner":
            return "inner:<v0>"
        return self.kind


def _fmt_c(c) -> str:
    c = complex(c)
    if c.imag == 0:
        return f"{c.real:g}"
    return f"{c.real:g}{c.imag:+g}j"


def truncation_budget(fid: Fiducial, f) -> float:
    """Bound on the mass lost to window truncation under the 1/t^2 model.

    Zero for the compact-window fiducials (avg, inner, radonline).
    """
    if fid.kind in ("avg", "inner", "radonline"):
        return 0.0
    if fid.kind == "poisson":
        return abs(_poisson_tail_model(f))
    budgets = {
        "+": abs(_cauchy_tail_model(f, 1j)),
        "-": abs(_cauchy_tail_model(f, -1j)),
    }
    if fid.kind == "cauchy+":
        return budgets["+"]
    if fid.kind == "cauchy-":
        return budgets["-"]
    if fid.kind == "combo":
        return abs(fid.c_plus) * budgets["+"] + abs(fid.c_minus) * budgets["-"]
    return budgets["+"] + budgets["-"]  # jump


def parse_fiducial(spec: str, read_signal=None,
                   tail_policy: str = "truncate") -> Fiducial:
    """Parse a fiducial spec string: cauchy+, cauchy-, combo:<c+>:<c->,
    jump, poisson, inner:<path>, avg, radonline."""
    if spec in ("cauchy+", "cauchy-", "jump", "poisson", "avg", "radonline"):
        return Fiducial(spec, tail_policy=tail_policy)
    if spec.startswith("combo:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"combo spec must be combo:<c+>:<c->, got {spec!r}")
        try:
            cp, cm = complex(parts[1]), complex(parts[2])
        except ValueError:
            raise ValueError(f"bad coefficient in {spec!r}") from None
        return Fiducial("combo", c_plus=cp, c_minus=cm, tail_policy=tail_policy)
    if spec.startswith("inner:"):
        path = spec[len("inner:"):]
        if read_signal is None:
            raise ValueError("inner:<path> needs a signal reader")
        return Fiducial("inner", v0=read_signal(path), tail_policy=tail_policy)
    raise ValueError(f"unknown fiducial spec {spec!r}")
