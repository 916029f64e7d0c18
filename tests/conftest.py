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


def count_lattice_dilations(monkeypatch, module):
    """The list that gets one entry per dilation that module's sums take
    the lattice path for (one per item signals._lattice_rows yields)."""
    calls = []

    def counted(*args, **kwargs):
        for item in signals._lattice_rows(*args, **kwargs):
            calls.append(1)
            yield item
    monkeypatch.setattr(module, "_lattice_rows", counted)
    return calls


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
