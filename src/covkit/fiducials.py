"""Fiducial operators: the scalar (or small-vector) reads taken after a
group action.  Linearity is not assumed anywhere; the interval average
is genuinely nonlinear and only positively homogeneous.

Each fiducial reads a signal on its own nodes.  Under the affine action
the moved signal is f itself on a moved grid (see `representations`),
so for g = (a, b) a fiducial reads the samples of f at s = a t + b (the
s-form): the Cauchy kernels become 1/(2 pi i (s - b -+ i a)) on f's own
nodes, the Poisson kernel a / (pi ((s - b)^2 + a^2)), the inner product
reads v0((s - b) / a), and avg integrates |f| over [b - a, b + a].  The
whole sampled signal sits under the kernel at every dilation, and f
reads 0 outside its window.  The transform engine reads these kinds in
closed form over every element at once (`transform._affine_rows`) and
agrees with the per-element reference (`transform._rows`) within 1e-12
of its largest value.

Cauchy-type functionals integrate against kernels decaying like 1/t, so
the window's edges still cost tail mass.  The "rational-tail" policy
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


def _cauchy_kernel(xs: np.ndarray, z: complex) -> np.ndarray:
    return 1.0 / (2j * math.pi * (xs - z))


def _poisson_kernel(xs: np.ndarray) -> np.ndarray:
    return 1.0 / (math.pi * (1.0 + xs ** 2))


def _log_tail(w):
    """(-log(1 - w) - w) / w^2 for complex w, |w| < 1: the tail model's
    Cauchy integral beyond an edge t, with w = z/t.

    The closed form cancels to about eps / |w| of relative error, so
    small |w| (edges far out, as tiny dilations make them) sum the
    series sum_k w^k / (k + 2), which 20 terms settle below 1e-20.
    """
    w = np.asarray(w, dtype=complex)
    small = np.abs(w) < 0.1
    ws = np.where(small, w, 0.0)
    series = np.zeros_like(ws)
    for k in range(19, -1, -1):
        series = series * ws + 1.0 / (k + 2)
    wd = np.where(small, 0.5, w)
    return np.where(small, series, (-np.log(1.0 - wd) - wd) / wd ** 2)


def _atan_tail(s):
    """(s - atan(s)) / s^2 for 0 < s < 1: the tail model's Poisson
    integral beyond an edge at distance 1/s.  The closed form cancels to
    about 3 eps / s^2 of relative error, so s below 0.3 sums the series
    sum_k (-1)^k s^(2k+1) / (2k + 3) instead (20 terms: below 1e-20).
    """
    s = np.asarray(s, dtype=float)
    small = s < 0.3
    ss = np.where(small, s, 0.0)
    series = np.zeros_like(ss)
    for k in range(19, -1, -1):
        series = series * -(ss * ss) + 1.0 / (2 * k + 3)
    sd = np.where(small, 0.5, s)
    return np.where(small, series * ss, (sd - np.arctan(sd)) / sd ** 2)


def _cauchy_tail_model(tl, tr, first, last, z: complex):
    """Closed-form integral of the tail model over both missing tails of
    a window [tl, tr] whose edge samples are first and last.

    The model is edge * (edge/t)^2 beyond each edge, integrated against
    1/(2*pi*i*(t - z)); with the antiderivative
    (1/z^2) log((t - z)/t) + 1/(z t) the right tail is last * h(z/tr)
    and the left one -first * h(z/tl), h = _log_tail.  Every argument
    may be an array (one window per entry), which gives one value per
    entry.
    """
    tl, tr = np.asarray(tl, dtype=float), np.asarray(tr, dtype=float)
    right, left = tr > _TAIL_MIN_EDGE, tl < -_TAIL_MIN_EDGE
    total = (np.where(right, last * _log_tail(z / np.where(right, tr, 2.0)),
                      0.0)
             - np.where(left, first * _log_tail(z / np.where(left, tl, -2.0)),
                        0.0))
    return total / (2j * math.pi)


def _poisson_tail_model(tl, tr, first, last):
    """The same tail model integrated against the Poisson kernel."""
    tl, tr = np.asarray(tl, dtype=float), np.asarray(tr, dtype=float)
    right, left = tr > _TAIL_MIN_EDGE, tl < -_TAIL_MIN_EDGE
    total = (np.where(right, last * _atan_tail(1.0 / np.where(right, tr, 2.0)),
                      0.0)
             + np.where(left, first * _atan_tail(-1.0 / np.where(left, tl,
                                                                  -2.0)),
                        0.0))
    return total / math.pi + 0j


def _edges(f: SampledSignal1D) -> tuple:
    return f.x0, f.x_end, f.values[0], f.values[-1]


def eval_cauchy(sign, f: SampledSignal1D, tail_policy: str = "truncate") -> complex:
    """(1/2*pi*i) integral of f(t) / (t -+ i) dt; sign +1 uses t - i,
    -1 uses t + i, and any other sign raises ValueError."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    z = 1j * sign
    val = complex(_trapz(f.values * _cauchy_kernel(f.xs, z), dx=f.dx))
    if tail_policy == "rational-tail":
        val += complex(_cauchy_tail_model(*_edges(f), z))
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
    val = complex(_trapz(f.values * _poisson_kernel(f.xs), dx=f.dx))
    if tail_policy == "rational-tail":
        val += complex(_poisson_tail_model(*_edges(f)))
    return val


def _on_grid(v0: SampledSignal1D, f: SampledSignal1D) -> SampledSignal1D:
    """v0 resampled onto f's grid, or v0 itself when the grids agree."""
    if v0.x0 == f.x0 and v0.dx == f.dx and v0.n == f.n:
        return v0
    return resample(v0, f.x0, f.dx, f.n)


def eval_inner_product(v0: SampledSignal1D, f: SampledSignal1D) -> complex:
    """<f, v0> with v0 resampled onto f's grid when the grids differ."""
    return complex(_trapz(f.values * np.conj(_on_grid(v0, f).values),
                          dx=f.dx))


def eval_interval_average(f: SampledSignal1D) -> complex:
    """(1/2) integral over [-1, 1] of |f|, where f reads 0 outside its
    window.

    Trapezoid on the modulus of the samples over [-1, 1] clipped to f's
    window, with the ends of that interval interpolated in, so the
    quadrature is exact for nonnegative piecewise-linear data; 0 when
    the window misses [-1, 1].  Positively homogeneous, not linear.
    """
    inner, xs = _unit_interval(f)
    if xs.size == 0:
        return 0.0 + 0.0j
    ys = np.concatenate((np.abs(evaluate(f, xs[:1])),
                         np.abs(f.values[inner]),
                         np.abs(evaluate(f, xs[-1:]))))
    return complex(0.5 * _trapz(ys, xs))


def _unit_interval(f: SampledSignal1D) -> tuple[slice, np.ndarray]:
    """The slice of f's nodes strictly inside [-1, 1] clipped to f's
    window, and the abscissae eval_interval_average integrates over: the
    clipped ends and those nodes.  No abscissae when the clipped
    interval is empty or a point."""
    lo, hi = max(-1.0, f.x0), min(1.0, f.x_end)
    if not lo < hi:
        return slice(0, 0), np.empty(0)
    inner = slice(np.searchsorted(f.xs, lo, side="right"),
                  np.searchsorted(f.xs, hi, side="left"))
    return inner, np.concatenate(([lo], f.xs[inner], [hi]))


def eval_radon_line(f: SampledSignal2D) -> complex:
    """Integral of the signal along the line y = 0, read at f's x nodes
    (through f's motion on a moved signal).

    Points off the sampled rectangle read 0, so a line that misses it
    integrates to 0.
    """
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
        if (self.kind == "combo"
                and not np.isfinite([self.c_plus, self.c_minus]).all()):
            raise ValueError(f"combo coefficients must be finite, got "
                             f"{self.describe()!r}")

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
        return abs(complex(_poisson_tail_model(*_edges(f))))
    budgets = {
        "+": abs(complex(_cauchy_tail_model(*_edges(f), 1j))),
        "-": abs(complex(_cauchy_tail_model(*_edges(f), -1j))),
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
