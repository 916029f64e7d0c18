import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from covkit import (SampledSignal1D, inversion, signal_from_function,
                    signals, transform)
from covkit.signals import _fmt

settings.register_profile(
    "covkit",
    max_examples=30,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("covkit")


def gaussian(lo=-12.0, hi=12.0, dx=0.02, width=1.0):
    return signal_from_function(
        lambda x: np.exp(-(x / width) ** 2), lo, hi, dx)


def box(lo=-2.0, hi=2.0, dx=0.01, edge=1.0):
    return signal_from_function(
        lambda x: np.where(np.abs(x) <= edge, 1.0, 0.0), lo, hi, dx)


def mexican_hat(lo=-12.0, hi=12.0, dx=0.02):
    return signal_from_function(
        lambda x: (1.0 - x ** 2) * np.exp(-x ** 2 / 2.0), lo, hi, dx)


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)


def random_signal(rng, n=64, dx=0.1, x0=-3.2) -> SampledSignal1D:
    vals = rng.normal(size=n) + 1j * rng.normal(size=n)
    return SampledSignal1D(x0, dx, vals)


class Paths:
    """The paths the planner (`signals._plan`) gives the dilations of the
    sums it plans: `fft(module)` counts the dilations summed by FFT in the
    sums of module ("transform" or "inversion", both by default), and
    `strided(module)` those summed by strided products from a table;
    every other dilation is read directly.  The sums plan through
    `planner`, signals._plan as it stands at the call unless a test sets
    another (`every_other_fft`).  A test that needs a path forces it
    (`force_fft`, `force_strided`) rather than picking a grid on which
    the rule's prices happen to choose it."""

    def __init__(self):
        self.plans = []  # (module name, plan), in call order
        self.planner = None

    def fft(self, module=None) -> int:
        return sum(len(plan.fft) for name, plan in self.plans
                   if module in (None, name))

    def strided(self, module=None) -> int:
        return sum(len(plan.strided) for name, plan in self.plans
                   if module in (None, name))

    def clear(self):
        self.plans.clear()


@pytest.fixture
def paths(monkeypatch):
    """A `Paths` of every sum `transform` and `inversion` plan."""
    log = Paths()
    for module in (transform, inversion):
        name = module.__name__.rsplit(".", 1)[-1]

        def recorded(*args, name=name, **kwargs):
            plan = (log.planner or signals._plan)(*args, **kwargs)
            log.plans.append((name, plan))
            return plan
        monkeypatch.setattr(module, "_plan", recorded)
    return log


def force_fft(monkeypatch, every: bool = True):
    """Sends every dilation of a grid with a lattice to the FFT (every)
    or none of them (then to the strided and direct rules), by pricing a
    lattice point at 0 or at inf ns: `signals._plan` still searches the
    lattice and plans each sum, but its choice no longer depends on the
    measured prices of the paths."""
    for price in ("_LATTICE_POINT_NS", "_MOVED_LATTICE_POINT_NS"):
        monkeypatch.setattr(signals, price, 0.0 if every else math.inf)


_UNFORCED_PLAN = signals._plan


def force_strided(monkeypatch, every: bool = True):
    """Sends every dilation of a moved vacuum that the FFT leaves down
    the strided path (every: `signals._plan` with strided=True), or none
    of them (then to the direct path) by pricing a table point at inf.
    `signals._plan` still bounds each table by _TABLE_MAX_POINTS, and the
    strided products run as they would unforced.  The sums see it
    through the `paths` fixture, which plans through signals._plan as it
    stands at the call."""
    if every:
        def forced(*args, strided=False, **kwargs):
            return _UNFORCED_PLAN(*args, strided=True, **kwargs)
        monkeypatch.setattr(signals, "_plan", forced)
    else:
        monkeypatch.setattr(signals, "_plan", _UNFORCED_PLAN)
        monkeypatch.setattr(signals, "_TABLE_POINT_NS", math.inf)


def small_blocks(monkeypatch, points: int):
    """Reads and samples moved vacua in blocks of at most points points
    (`signals._RUN_BLOCK_POINTS`) and sums strided products over blocks
    of points rows (`signals._Lattice.block_rows`)."""
    monkeypatch.setattr(signals, "_RUN_BLOCK_POINTS", points)
    monkeypatch.setattr(signals._Lattice, "block_rows", lambda self: points)


def fmt_rows(table, end: str = "\n") -> str:
    """The reference spelling of the rows of a float table: one _fmt
    per cell."""
    return "".join(",".join(_fmt(c) for c in row) + end for row in table)


def every_other_fft(a, b, rows, nodes, v0=None, read=None, onto_nodes=False,
                    strided=False):
    """signals._plan with every other dilation of a grid with a lattice
    summed by FFT and the rest left to the strided and direct rules."""
    with pytest.MonkeyPatch.context() as m:
        force_fft(m)
        kept = signals._plan(a, b, rows, nodes, v0, read, onto_nodes).fft[::2]
        read = np.ones(a.size, dtype=bool) if read is None else read.copy()
        for row, _ in kept:
            read[row] = False
        force_fft(m, every=False)
        rest = signals._plan(a, b, rows, nodes, v0, read, onto_nodes,
                             strided=strided)
    return dataclasses.replace(rest, fft=kept)


def count_ffts(monkeypatch):
    """Counts of the rows of real FFTs np.fft makes: "weights" per row
    of an rfft of a stack (a weight vector's real part, and its imaginary
    part unless that is exactly 0), "kernel" per rfft of one row (a moved
    vacuum's real or imaginary part) and "inverse" per row that irfft
    returns.  Reset it with counts.update(dict.fromkeys(counts, 0));
    patching twice would count each call twice."""
    counts = {"weights": 0, "kernel": 0, "inverse": 0}
    rfft, irfft = np.fft.rfft, np.fft.irfft

    def rows(x):
        return int(np.prod(np.shape(x)[:-1]))

    def counted_rfft(x, *args, **kwargs):
        counts["weights" if np.ndim(x) == 2 else "kernel"] += rows(x)
        return rfft(x, *args, **kwargs)

    def counted_irfft(x, *args, **kwargs):
        out = irfft(x, *args, **kwargs)
        counts["inverse"] += rows(out)
        return out
    monkeypatch.setattr(np.fft, "rfft", counted_rfft)
    monkeypatch.setattr(np.fft, "irfft", counted_irfft)
    return counts
