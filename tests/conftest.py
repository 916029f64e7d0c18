import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from covkit import (SampledSignal1D, inversion, signal_from_function,
                    signals, transform)

settings.register_profile(
    "covkit",
    max_examples=30,
    deadline=None,
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
    `tables(module)` those read from a table; every other dilation is read
    directly.  The sums plan through `planner`, signals._plan unless a
    test sets another (`every_other_fft`)."""

    def __init__(self):
        self.plans = []  # (module name, plan), in call order
        self.planner = signals._plan

    def fft(self, module=None) -> int:
        return sum(len(plan.fft) for name, plan in self.plans
                   if module in (None, name))

    def tables(self, module=None) -> int:
        return sum(len(plan.tables) for name, plan in self.plans
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
            plan = log.planner(*args, **kwargs)
            log.plans.append((name, plan))
            return plan
        monkeypatch.setattr(module, "_plan", recorded)
    return log


def every_other_fft(a, b, rows, nodes, v0=None, read=None, onto_nodes=False):
    """signals._plan with every other dilation it sums by FFT left to the
    table and direct rules, as if the FFT had declined it."""
    plan = signals._plan(a, b, rows, nodes, v0, read, onto_nodes)
    kept = plan.fft[::2]
    read = np.ones(a.size, dtype=bool) if read is None else read.copy()
    for row, _ in kept:
        read[row] = False
    with pytest.MonkeyPatch.context() as m:
        m.setattr(signals, "_LATTICE_POINT_NS", math.inf)
        rest = signals._plan(a, b, rows, nodes, v0, read, onto_nodes)
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
