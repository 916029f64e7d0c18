import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from covkit import SampledSignal1D, signal_from_function
from covkit import signals

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


def count_lattice_sums(monkeypatch, module):
    """The list that gets one entry per call module makes to
    signals._lattice_sum."""
    calls = []

    def counted(*args):
        calls.append(1)
        return signals._lattice_sum(*args)
    monkeypatch.setattr(module, "_lattice_sum", counted)
    return calls
