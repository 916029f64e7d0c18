import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from covkit import (QuadratureRule, SampledSignal1D, SampledSignal2D,
                    evaluate, evaluate2, integrate, lp_norm, read_signal_csv,
                    read_signal2_csv, resample, signal_from_function,
                    signal2_from_function, write_signal_csv,
                    write_signal2_csv)

from conftest import box, gaussian, random_signal


def test_linear_function_reproduced_between_nodes():
    s = signal_from_function(lambda x: x, 0.0, 1.0, 0.1)
    assert complex(evaluate(s, 0.5)) == pytest.approx(0.5)
    assert complex(evaluate(s, 0.537)) == pytest.approx(0.537)


def test_zero_outside_window():
    s = signal_from_function(lambda x: x + 1.0, 0.0, 1.0, 0.1)
    assert evaluate(s, [-0.01, 1.01, 99.0]).tolist() == [0.0, 0.0, 0.0]


def test_nodes_are_exact():
    s = random_signal(np.random.default_rng(3))
    assert np.array_equal(evaluate(s, s.xs), s.values)


@given(slope=st.floats(-3, 3), icept=st.floats(-3, 3),
       t=st.floats(0.0, 1.0))
def test_affine_functions_interpolate_exactly(slope, icept, t):
    s = signal_from_function(lambda x: slope * x + icept, -2.0, 2.0, 0.25)
    x = -2.0 + 4.0 * t
    expected = slope * x + icept
    assert complex(evaluate(s, x)) == pytest.approx(expected, abs=1e-12)


def test_single_sample_signal():
    s = SampledSignal1D(0.5, 1.0, np.array([2.0 + 0j]))
    assert complex(evaluate(s, 0.5)) == 2.0 + 0j
    assert complex(evaluate(s, 0.6)) == 0.0


def test_signal_validation():
    with pytest.raises(ValueError):
        SampledSignal1D(0.0, 0.0, np.array([1.0]))
    with pytest.raises(ValueError):
        SampledSignal1D(0.0, 1.0, np.array([]))
    with pytest.raises(ValueError):
        SampledSignal1D(0.0, 1.0, np.zeros((2, 2)))


def test_values_are_frozen():
    s = random_signal(np.random.default_rng(0))
    with pytest.raises(ValueError):
        s.values[0] = 0.0


def test_resample_onto_own_grid_is_identity():
    s = random_signal(np.random.default_rng(1))
    r = resample(s, s.x0, s.dx, s.n)
    assert np.array_equal(r.values, s.values)


# ---------------------------------------------------------------------------
# Quadrature


def test_integrate_box():
    s = box(dx=0.01)
    assert abs(complex(integrate(s)).real - 2.0) <= 0.01


def test_integrate_odd_function_vanishes():
    s = signal_from_function(lambda x: x, -1.0, 1.0, 0.01)
    assert abs(complex(integrate(s))) < 1e-12


def test_integrate_lorentzian_near_pi():
    # the window [-50, 50] owns 2*atan(50) of the full pi; quadrature
    # itself is far tighter than the truncated tails
    s = signal_from_function(lambda x: 1.0 / (1.0 + x ** 2),
                             -50.0, 50.0, 0.01)
    got = complex(integrate(s)).real
    assert got == pytest.approx(2.0 * math.atan(50.0), abs=1e-6)
    assert got == pytest.approx(math.pi, abs=2.0 * math.atan(1.0 / 50.0) + 1e-6)


def test_integrate_midpoint_rule():
    s = signal_from_function(np.ones_like, 0.0, 1.0, 0.25)
    mid = integrate(s, QuadratureRule(kind="midpoint"))
    assert complex(mid).real == pytest.approx(1.25)  # 5 samples times dx


@given(alpha=st.complex_numbers(max_magnitude=3.0),
       beta=st.complex_numbers(max_magnitude=3.0))
def test_integrate_linear(alpha, beta):
    rng = np.random.default_rng(7)
    f, g = random_signal(rng), random_signal(rng)
    combo = SampledSignal1D(f.x0, f.dx, alpha * f.values + beta * g.values)
    lhs = complex(integrate(combo))
    rhs = alpha * complex(integrate(f)) + beta * complex(integrate(g))
    scale = max(1.0, abs(lhs), abs(rhs))
    assert abs(lhs - rhs) < 1e-12 * scale


def test_quadrature_rule_validation():
    with pytest.raises(ValueError):
        QuadratureRule(kind="simpson")


def test_norms():
    s = signal_from_function(
        lambda x: np.where((x >= 0) & (x <= 1), 1.0, 0.0), -2.0, 2.0, 0.01)
    assert abs(lp_norm(s, 2.0) - 1.0) <= 0.01
    zero = SampledSignal1D(0.0, 0.1, np.zeros(8, dtype=complex))
    assert lp_norm(zero, 2.0) == 0.0
    g = gaussian(dx=0.01)
    assert lp_norm(g, 2.0) == pytest.approx((math.pi / 2.0) ** 0.25, abs=1e-3)
    assert lp_norm(g, math.inf) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        lp_norm(g, 0.5)


def test_sup_norm_unchanged_by_smooth_resampling():
    g = gaussian(dx=0.005)
    shifted = resample(g, g.x0, g.dx, g.n)
    assert lp_norm(shifted, math.inf) == lp_norm(g, math.inf)


# ---------------------------------------------------------------------------
# Two dimensions


def test_plane_signal_evaluation():
    f = signal2_from_function(lambda x, y: x + 2.0 * y,
                              0.0, 1.0, 0.0, 1.0, 0.25)
    assert complex(evaluate2(f, 0.3, 0.4)) == pytest.approx(1.1)
    assert complex(evaluate2(f, -0.1, 0.5)) == 0.0
    assert complex(evaluate2(f, 0.5, 1.2)) == 0.0


def test_plane_nodes_exact():
    rng = np.random.default_rng(5)
    vals = rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))
    f = SampledSignal2D((0.0, 0.0), 0.5, 0.25, vals)
    X, Y = np.meshgrid(f.xs, f.ys)
    assert np.array_equal(evaluate2(f, X, Y), vals)


def test_plane_validation():
    with pytest.raises(ValueError):
        SampledSignal2D((0, 0), -1.0, 1.0, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        SampledSignal2D((0, 0), 1.0, 1.0, np.zeros(4))


# ---------------------------------------------------------------------------
# CSV round trips


def test_signal_csv_round_trip(tmp_path):
    s = random_signal(np.random.default_rng(11))
    path = tmp_path / "sig.csv"
    write_signal_csv(s, path)
    back = read_signal_csv(path)
    assert back.x0 == s.x0
    assert back.dx == pytest.approx(s.dx, rel=1e-15)
    assert np.array_equal(back.values, s.values)


def test_signal_csv_write_is_deterministic(tmp_path):
    s = random_signal(np.random.default_rng(12))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_signal_csv(s, p1)
    write_signal_csv(s, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_signal2_csv_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    vals = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
    s = SampledSignal2D((-1.0, 2.0), 0.5, 0.25, vals)
    path = tmp_path / "sig2.csv"
    write_signal2_csv(s, path)
    back = read_signal2_csv(path)
    assert back.origin == s.origin
    assert np.array_equal(back.values, s.values)


@pytest.mark.parametrize("text,message", [
    ("a,b,c\n1,2,3\n", "header"),
    ("x,re,im\n", "no samples"),
    ("x,re,im\n0,1,nope\n", "non-numeric"),
    ("x,re,im\n0,1,0\n1,1,0\n1.5,1,0\n", "uniformly spaced"),
    ("x,re,im\n1,1,0\n0,1,0\n", "increasing"),
    ("x,re,im\n0,1\n", "3 columns"),
    ("x,re,im\n0,1,0\n1,nan,0\n", "non-finite"),
    ("x,re,im\n0,1,0\n1,1,inf\n", "non-finite"),
    ("x,re,im\n0,1,0\nnan,1,0\n", "non-finite"),
    ("x,re,im\n0,1,0\n# trailer\n", "non-numeric"),
    ("x,re,im\n\n\n", "no samples"),
])
def test_signal_csv_rejects_malformed(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            read_signal_csv(path)


def test_signal2_csv_rejects_ragged(tmp_path):
    path = tmp_path / "bad2.csv"
    path.write_text("x,y,re,im\n0,0,1,0\n1,0,1,0\n0,1,1,0\n")
    with pytest.raises(ValueError, match="rectangular"):
        read_signal2_csv(path)


@pytest.mark.parametrize("column,cell", [(2, "nan"), (3, "inf"), (0, "nan")])
def test_signal2_csv_rejects_non_finite(tmp_path, column, cell):
    rows = [["0", "0", "1", "0"], ["1", "0", "1", "0"],
            ["0", "1", "1", "0"], ["1", "1", "1", "0"]]
    rows[3][column] = cell
    path = tmp_path / "bad2.csv"
    path.write_text("x,y,re,im\n" + "".join(",".join(r) + "\n" for r in rows))
    with pytest.raises(ValueError, match="non-finite"):
        read_signal2_csv(path)


@pytest.mark.parametrize("text,message", [
    ("x,y,re\n0,0,1,0\n", "header"),
    ("x,y,re,im\n0,0,1,0\n1,0,zero,0\n", "non-numeric"),
    ("x,y,re,im\n0,0,1\n1,0,1\n", "4 columns"),
    ("x,y,re,im\n# a comment\n0,0,1,0\n", "non-numeric"),
    ("x,y,re,im\n", "no samples"),
    ("x,y,re,im\n\n\n", "no samples"),
])
def test_signal2_csv_rejects_malformed(tmp_path, text, message):
    path = tmp_path / "bad2.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            read_signal2_csv(path)


def test_csv_readers_skip_blank_lines(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("x,re,im\n0,1,0\n\n1,2,0\n\n2,3,-1\n")
    s = read_signal_csv(path)
    assert np.array_equal(s.values, [1, 2, 3 - 1j])
    path2 = tmp_path / "gaps2.csv"
    path2.write_text("x,y,re,im\n0,0,1,0\n1,0,2,0\n\n"
                     "0,1,3,0\n\n1,1,4,0\n")
    s2 = read_signal2_csv(path2)
    assert np.array_equal(s2.values, [[1, 2], [3, 4]])
