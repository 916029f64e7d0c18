import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from covkit import (Fiducial, SampledSignal1D, eval_cauchy, eval_combo,
                    eval_interval_average, eval_jump, eval_poisson_kernel,
                    eval_inner_product, eval_radon_line, parse_fiducial,
                    read_signal_csv, signal_from_function,
                    signal2_from_function, truncation_budget,
                    write_signal_csv)

from conftest import box, gaussian, random_signal


def lorentzian(lo=-200.0, hi=200.0, dx=0.01):
    return signal_from_function(lambda t: 1.0 / (1.0 + t ** 2), lo, hi, dx)


def zero_like(s):
    return SampledSignal1D(s.x0, s.dx, np.zeros(s.n, dtype=complex))


# ---------------------------------------------------------------------------
# Cauchy boundary functionals.  On 1/(1+t^2) the residue at the enclosed
# pole makes both one-sided reads exactly 1/4 in magnitude.


def test_cauchy_plus_on_lorentzian():
    assert eval_cauchy(+1, lorentzian()).real == pytest.approx(0.25, abs=1e-3)


def test_cauchy_minus_on_lorentzian():
    assert eval_cauchy(-1, lorentzian()).real == pytest.approx(-0.25, abs=1e-3)


def test_cauchy_on_zero_signal():
    assert eval_cauchy(+1, zero_like(lorentzian(dx=0.5))) == 0.0


def test_lower_read_annihilates_upper_hardy_class():
    f = signal_from_function(lambda t: 1.0 / (t + 1j) ** 2,
                             -200.0, 200.0, 0.01)
    budget = truncation_budget(Fiducial("cauchy-"), f)
    assert abs(eval_cauchy(-1, f)) < max(budget, 2e-3)


def test_cauchy_sign_validation():
    # the sign is +1 or -1; spellings such as "+" or "minus" are rejected
    f = lorentzian(dx=0.5)
    for sign in ("+", "plus", "-", "minus", 2, 0):
        with pytest.raises(ValueError, match="sign must be"):
            eval_cauchy(sign, f)


def test_rational_tail_policy_tightens_narrow_windows():
    narrow = lorentzian(lo=-20.0, hi=20.0)
    plain = abs(eval_cauchy(+1, narrow) - 0.25)
    patched = abs(eval_cauchy(+1, narrow, tail_policy="rational-tail") - 0.25)
    assert patched < plain


def test_combo_difference_matches_poisson():
    f = lorentzian()
    diff = eval_combo(1.0, -1.0, f)
    pois = eval_poisson_kernel(f)
    assert diff.real == pytest.approx(0.5, abs=2e-3)
    assert abs(diff - pois) < 2e-3


def test_combo_degenerate_is_one_sided():
    f = lorentzian(dx=0.1)
    assert eval_combo(1.0, 0.0, f) == eval_cauchy(+1, f)
    assert eval_combo(0.0, 1.0, f) == eval_cauchy(-1, f)
    assert eval_combo(2.0, 3.0, zero_like(f)) == 0.0


def test_jump_pairs_both_reads():
    f = lorentzian()
    j = eval_jump(f)
    assert j[0].real == pytest.approx(0.25, abs=1e-3)
    assert j[1].real == pytest.approx(-0.25, abs=1e-3)
    assert np.all(eval_jump(zero_like(f)) == 0.0)
    # sum/difference agree with the combo evaluator by construction
    assert eval_combo(1.0, 1.0, f) == pytest.approx(j[0] + j[1])
    assert eval_combo(1.0, -1.0, f) == pytest.approx(j[0] - j[1])


def test_jump_linearity():
    rng = np.random.default_rng(2)
    f, g = random_signal(rng), random_signal(rng)
    both = SampledSignal1D(f.x0, f.dx, f.values + g.values)
    lhs = eval_jump(both)
    rhs = eval_jump(f) + eval_jump(g)
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_poisson_of_unit_function():
    # exact truncated-tail deficit for f = 1 is (2/pi) atan(1/edge); the
    # generic budget models a decaying tail, so it only recovers part of
    # a constant signal's mass
    ones = signal_from_function(np.ones_like, -300.0, 300.0, 0.05)
    tail = 2.0 / math.pi * math.atan(1.0 / 300.0)
    plain = eval_poisson_kernel(ones)
    assert abs(plain - 1.0) <= tail + 1e-6
    patched = eval_poisson_kernel(ones, tail_policy="rational-tail")
    assert abs(patched - 1.0) < abs(plain - 1.0)


def test_poisson_kills_odd_signals():
    odd = signal_from_function(lambda t: t * np.exp(-t ** 2), -20.0, 20.0, 0.01)
    assert abs(eval_poisson_kernel(odd)) < 1e-10


def test_poisson_on_lorentzian():
    assert eval_poisson_kernel(lorentzian()).real == pytest.approx(0.5, abs=1e-3)


def test_inner_product_gaussian():
    g = gaussian(dx=0.01)
    assert complex(eval_inner_product(g, g)).real == pytest.approx(
        math.sqrt(math.pi / 2.0), abs=1e-3)


def test_inner_product_orthogonal_parities():
    even = gaussian(dx=0.01)
    odd = signal_from_function(lambda x: x * np.exp(-x ** 2), -12.0, 12.0, 0.01)
    assert abs(eval_inner_product(even, odd)) < 1e-10
    assert eval_inner_product(zero_like(even), even) == 0.0


def test_inner_product_resamples_mismatched_grids():
    g_fine = gaussian(dx=0.01)
    g_coarse = gaussian(dx=0.04)
    val = eval_inner_product(g_coarse, g_fine)
    assert val.real == pytest.approx(math.sqrt(math.pi / 2.0), abs=1e-3)


def test_interval_average_box():
    f = box(dx=0.01)
    assert complex(eval_interval_average(f)).real == pytest.approx(1.0, abs=0.01)
    assert eval_interval_average(zero_like(f)) == 0.0


def test_interval_average_homogeneity_and_positivity():
    rng = np.random.default_rng(4)
    f = SampledSignal1D(-1.6, 0.1, rng.normal(size=33) + 1j * rng.normal(size=33))
    one = complex(eval_interval_average(f)).real
    two = complex(eval_interval_average(
        SampledSignal1D(f.x0, f.dx, 2.0 * f.values))).real
    assert two == 2.0 * one
    assert one >= 0.0


@given(st.integers(0, 2 ** 31 - 1))
def test_interval_average_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    f = SampledSignal1D(-1.6, 0.1, rng.normal(size=33) + 1j * rng.normal(size=33))
    g = SampledSignal1D(-1.6, 0.1, rng.normal(size=33) + 1j * rng.normal(size=33))
    s = SampledSignal1D(-1.6, 0.1, f.values + g.values)
    lhs = complex(eval_interval_average(s)).real
    rhs = (complex(eval_interval_average(f)).real
           + complex(eval_interval_average(g)).real)
    assert lhs <= rhs + 1e-12


def test_interval_average_reads_zero_outside_the_window():
    # a window inside [-1, 1] integrates over the window alone: the
    # interpolated box is 1 on [-0.4, 0.4] and ramps to 0 over one step
    # on either side
    f = box(lo=-0.5, hi=0.5, dx=0.1, edge=0.4)
    assert complex(eval_interval_average(f)).real == pytest.approx(
        0.5 * (0.8 + 0.1), abs=1e-12)
    # a window that straddles 1 reads [x0, 1]
    half = box(lo=0.0, hi=3.0, dx=0.1, edge=5.0)
    assert complex(eval_interval_average(half)).real == pytest.approx(
        0.5, abs=1e-12)
    # windows that miss [-1, 1], touch it at one point or hold one sample
    for g in (box(lo=1.5, hi=2.5, dx=0.1, edge=5.0),
              box(lo=1.0, hi=2.0, dx=0.1, edge=5.0),
              SampledSignal1D(0.3, 1.0, np.array([2.0 - 1j]))):
        assert eval_interval_average(g) == 0.0


def test_radon_line_through_disc():
    f = signal2_from_function(
        lambda x, y: np.where(x ** 2 + y ** 2 <= 1.0, 1.0, 0.0),
        -1.5, 1.5, -1.5, 1.5, 0.01)
    assert complex(eval_radon_line(f)).real == pytest.approx(2.0, abs=0.02)


def test_radon_line_of_zero_plane():
    f = signal2_from_function(lambda x, y: 0.0 * x, -1.0, 1.0, -1.0, 1.0, 0.25)
    assert eval_radon_line(f) == 0.0


def test_radon_line_misses_offset_rectangle():
    f = signal2_from_function(lambda x, y: 0.0 * x + 1.0,
                              -1.0, 1.0, 0.5, 1.5, 0.25)
    assert eval_radon_line(f) == 0.0


@given(alpha=st.complex_numbers(max_magnitude=2.0),
       beta=st.complex_numbers(max_magnitude=2.0))
def test_linear_fiducials_are_linear(alpha, beta):
    rng = np.random.default_rng(9)
    f, g = random_signal(rng), random_signal(rng)
    combo = SampledSignal1D(f.x0, f.dx, alpha * f.values + beta * g.values)
    for kind in ("cauchy+", "cauchy-", "poisson",):
        fid = Fiducial(kind)
        lhs = fid(combo)[0]
        rhs = alpha * fid(f)[0] + beta * fid(g)[0]
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


# ---------------------------------------------------------------------------
# The Fiducial wrapper and its spec strings


def test_fiducial_validation():
    with pytest.raises(ValueError):
        Fiducial("fourier")
    with pytest.raises(ValueError):
        Fiducial("inner")
    with pytest.raises(ValueError):
        Fiducial("avg", tail_policy="pad")


def test_fiducial_shapes():
    assert Fiducial("jump").output_dim == 2
    assert Fiducial("cauchy+").output_dim == 1
    assert Fiducial("radonline").signal_ndim == 2
    assert Fiducial("avg").signal_ndim == 1


def test_fiducial_call_wraps_vector():
    f = lorentzian(dx=0.1)
    out = Fiducial("cauchy+")(f)
    assert out.shape == (1,)
    assert Fiducial("jump")(f).shape == (2,)


def test_truncation_budget_zero_for_compact_kinds():
    f = lorentzian(dx=0.1)
    assert truncation_budget(Fiducial("avg"), f) == 0.0
    assert truncation_budget(Fiducial("inner", v0=f), f) == 0.0
    budget = truncation_budget(Fiducial("cauchy+"), f)
    assert budget > 0.0
    assert truncation_budget(Fiducial("jump"), f) >= budget


def test_parse_fiducial_specs(tmp_path):
    assert parse_fiducial("cauchy+").kind == "cauchy+"
    assert parse_fiducial("poisson", tail_policy="rational-tail").tail_policy \
        == "rational-tail"
    combo = parse_fiducial("combo:2:1j")
    assert combo.c_plus == 2.0 and combo.c_minus == 1j
    path = tmp_path / "v0.csv"
    write_signal_csv(gaussian(dx=0.1), path)
    inner = parse_fiducial(f"inner:{path}", read_signal=read_signal_csv)
    assert inner.kind == "inner" and inner.v0.n > 0
    with pytest.raises(ValueError, match="reader"):
        parse_fiducial(f"inner:{path}")
    with pytest.raises(ValueError):
        parse_fiducial("combo:1")
    with pytest.raises(ValueError):
        parse_fiducial("combo:x:y")
    for spec in ("combo:nan:1", "combo:1:nan", "combo:inf:1"):
        with pytest.raises(ValueError, match=f"must be finite, got '{spec}'"):
            parse_fiducial(spec)
    with pytest.raises(ValueError):
        parse_fiducial("wavelet")


def test_describe_strings():
    assert Fiducial("cauchy+").describe() == "cauchy+"
    assert Fiducial("combo", c_plus=1.0, c_minus=-1.0).describe() == "combo:1:-1"
    assert Fiducial("inner", v0=lorentzian(dx=0.5)).describe() == "inner:<v0>"
