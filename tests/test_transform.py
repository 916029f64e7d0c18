import csv
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from covkit import (AffineElement, AffineRep, EuclideanMotion, EuclideanRep,
                    Fiducial, SampledSignal1D, check_intertwining,
                    covariant_transform, evaluate, hardy_maximal, line_motion,
                    make_grid, radon_transform, radon_values,
                    read_transform_csv, shift_invariant_norm,
                    signal_from_function, signal2_from_function,
                    write_transform_csv)
from covkit.transform import _rows

from conftest import box, gaussian


def smooth(dx=0.01, lo=-30.0, hi=30.0):
    return signal_from_function(
        lambda x: np.exp(-x ** 2 / 2.0) * (1.0 + 0.3 * np.cos(2.0 * x)),
        lo, hi, dx)


def disc2(dx=0.01, span=1.2):
    return signal2_from_function(
        lambda x, y: np.where(x ** 2 + y ** 2 <= 1.0, 1.0, 0.0),
        -span, span, -span, span, dx)


GRID_1D = "affine:a=log:0.5:2:3,b=lin:-1:1:5"


def test_zero_signal_transforms_to_zero():
    zero = SampledSignal1D(-5.0, 0.1, np.zeros(101, dtype=complex))
    res = covariant_transform(AffineRep(2.0), Fiducial("cauchy+"), zero,
                              make_grid(GRID_1D))
    assert np.all(res.values == 0.0)
    assert res.output_dim == 1


def test_interval_average_matches_windowed_integral():
    f = box(lo=-4.0, hi=4.0, dx=0.01)
    grid = make_grid("affine:a=log:0.2:5:7,b=lin:-3:3:13")
    res = covariant_transform(AffineRep(math.inf), Fiducial("avg"), f, grid)
    xs_fine = np.linspace(-4.0, 4.0, 16001)
    dense = np.abs(evaluate(f, xs_fine))
    cum = np.concatenate(([0.0], np.cumsum(
        0.5 * (dense[1:] + dense[:-1]) * np.diff(xs_fine))))

    def windowed(a, b):
        lo, hi = np.interp([b - a, b + a], xs_fine, cum)
        return (hi - lo) / (2.0 * a)

    for el, val in zip(grid.elements, res.values[:, 0]):
        # each box edge is smeared over one sample step by interpolation,
        # once in the engine's resampled coordinate (worth dx/2 on the
        # value) and once in the oracle's window (worth dx/(2a))
        tol = f.dx / 2.0 + f.dx / (2.0 * el.a) + 1e-3
        assert val.real == pytest.approx(windowed(el.a, el.b), abs=tol)


def test_interval_average_value_at_two_zero():
    f = box(lo=-4.0, hi=4.0, dx=0.01)
    grid = make_grid("affine:a=log:2:2:1,b=lin:0:0:1")
    res = covariant_transform(AffineRep(math.inf), Fiducial("avg"), f, grid)
    assert res.values[0, 0].real == pytest.approx(0.5, abs=0.01)


def test_jump_fiducial_gives_two_columns():
    res = covariant_transform(AffineRep(2.0), Fiducial("jump"),
                              smooth(dx=0.05, lo=-10, hi=10),
                              make_grid(GRID_1D))
    assert res.values.shape == (15, 2)


def test_meta_records_the_setup():
    grid = make_grid(GRID_1D)
    res = covariant_transform(AffineRep(2.0), Fiducial("cauchy+"),
                              smooth(dx=0.05, lo=-10, hi=10), grid)
    assert res.meta["rep"] == "affine:p=2"
    assert res.meta["fiducial"] == "cauchy+"
    assert res.meta["grid"] == grid.spec
    assert res.meta["truncation_budget"] >= 0.0


def test_engine_rejects_mismatched_pairs():
    f1 = smooth(dx=0.1, lo=-5, hi=5)
    f2 = disc2(dx=0.1)
    grid = make_grid(GRID_1D)
    with pytest.raises(ValueError):
        covariant_transform(AffineRep(2.0), Fiducial("radonline"), f1, grid)
    with pytest.raises(ValueError):
        covariant_transform(AffineRep(2.0), Fiducial("cauchy+"), f2, grid)
    with pytest.raises(ValueError):
        covariant_transform(EuclideanRep(), Fiducial("cauchy+"), f1, grid)


def test_identity_shift_has_zero_residual():
    res = check_intertwining(AffineRep(2.0), Fiducial("cauchy+"),
                             smooth(dx=0.02, lo=-15, hi=15),
                             AffineElement.identity(), make_grid(GRID_1D))
    assert res == 0.0


@given(a=st.floats(0.6, 1.6), b=st.floats(-0.8, 0.8))
def test_left_shift_covariance_linear_fiducial(a, b):
    res = check_intertwining(AffineRep(2.0), Fiducial("cauchy+"), smooth(),
                             AffineElement(a, b), make_grid(GRID_1D))
    assert res < 1e-3


@given(a=st.floats(0.6, 1.6), b=st.floats(-0.8, 0.8))
def test_left_shift_covariance_nonlinear_fiducial(a, b):
    # the interval average is not linear; the covariance contract is the
    # same because the engine never assumes linearity
    res = check_intertwining(AffineRep(math.inf), Fiducial("avg"), smooth(),
                             AffineElement(a, b), make_grid(GRID_1D))
    assert res < 1e-3


def test_left_shift_covariance_euclidean():
    f = signal2_from_function(
        lambda x, y: np.exp(-(x ** 2 + y ** 2) / 0.25), -2.5, 2.5, -2.5, 2.5,
        0.02)
    grid = make_grid("e2:theta=lin:-2:2:2,tx=lin:-0.2:0.2:2,"
                     "ty=lin:-0.2:0.2:2")
    g = EuclideanMotion(0.7, 0.15, -0.1)
    res = check_intertwining(EuclideanRep(), Fiducial("radonline"), f, g, grid)
    assert res < 1e-3


# ---------------------------------------------------------------------------
# Maximal function


def test_maximal_of_box():
    m = hardy_maximal(box(lo=-4.0, hi=4.0, dx=0.01),
                      "lin:-4:4:161", "log:0.05:20:200")
    at0 = float(np.interp(0.0, m.xs, m.values.real))
    at2 = float(np.interp(2.0, m.xs, m.values.real))
    assert at0 == pytest.approx(1.0, abs=0.01)
    assert at2 == pytest.approx(1.0 / 3.0, abs=0.02)


def test_maximal_of_zero():
    zero = SampledSignal1D(-2.0, 0.05, np.zeros(81, dtype=complex))
    m = hardy_maximal(zero, "lin:-1:1:21", "log:0.2:2:9")
    assert np.all(m.values == 0.0)


def test_maximal_monotone_in_the_signal():
    f = gaussian(dx=0.05)
    bigger = SampledSignal1D(f.x0, f.dx, np.abs(f.values) + 0.25)
    m_f = hardy_maximal(f, "lin:-2:2:41", "log:0.2:4:17")
    m_b = hardy_maximal(bigger, "lin:-2:2:41", "log:0.2:4:17")
    assert np.all(m_f.values.real <= m_b.values.real + 1e-12)


def test_maximal_dilation_covariance():
    f = gaussian(lo=-17.0, hi=17.0, dx=0.02)
    n_a = 21
    ratio = (8.0 / 0.125) ** (1.0 / (n_a - 1))
    a0 = ratio ** 2
    moved = SampledSignal1D(f.x0, f.dx,
                            evaluate(f, a0 * f.xs + 0.25))
    m_moved = hardy_maximal(moved, "lin:-2:2:41", f"log:0.125:8:{n_a}")
    m_plain = hardy_maximal(f, "lin:-5:5:201", f"log:0.125:8:{n_a}")
    ref = evaluate(m_plain, a0 * m_moved.xs + 0.25).real
    assert np.max(np.abs(m_moved.values.real - ref)) < 2e-2


def test_shift_invariant_norm_box():
    f = box(lo=-3.0, hi=3.0, dx=0.01)
    assert shift_invariant_norm(f) == pytest.approx(1.0, abs=0.01)
    zero = SampledSignal1D(-2.0, 0.1, np.zeros(41, dtype=complex))
    assert shift_invariant_norm(zero) == 0.0


def test_shift_invariant_norm_ignores_grid_shifts():
    f = smooth(dx=0.02, lo=-12.0, hi=12.0)
    moved = SampledSignal1D(f.x0 + 1.5, f.dx, f.values)
    assert shift_invariant_norm(moved) == pytest.approx(
        shift_invariant_norm(f), abs=1e-9)


# ---------------------------------------------------------------------------
# Radon


def test_radon_center_chords():
    f = disc2()
    for theta in (0.0, 0.4, 1.2, math.pi / 2.0):
        val = radon_values(f, [line_motion(theta, 0.0)])[0]
        assert val.real == pytest.approx(2.0, abs=0.03)


def test_radon_offset_chord():
    f = disc2()
    val = radon_values(f, [line_motion(0.3, 0.6)])[0]
    assert val.real == pytest.approx(1.6, abs=0.03)


def test_radon_zero_plane():
    f = signal2_from_function(lambda x, y: 0.0 * x, -1.0, 1.0, -1.0, 1.0, 0.1)
    grid = make_grid("e2:theta=lin:0:1:3,tx=lin:-0.2:0.2:2,ty=lin:0:0:1")
    res = radon_transform(f, grid)
    assert np.all(res.values == 0.0)


def test_radon_requires_motion_grid():
    with pytest.raises(ValueError, match="Euclidean"):
        radon_transform(disc2(dx=0.1), make_grid(GRID_1D))


def lumpy2(dx=0.05, y_lo=-1.5, y_hi=1.5):
    """Off-centre complex bump; y = 0 is a lattice row when y_lo is."""
    return signal2_from_function(
        lambda x, y: np.exp(-((x - 0.3) ** 2 + 2.0 * y ** 2))
        * (1.0 + 0.5j * y) + np.where(x ** 2 + y ** 2 <= 0.5, 0.4, 0.0),
        -1.5, 1.5, y_lo, y_hi, dx)


def reference_lines(f, motions):
    """Per-element engine: move the whole image, then read row y = 0."""
    return _rows(EuclideanRep(), Fiducial("radonline"), f, motions)[:, 0]


def assert_close(direct, ref):
    assert direct.shape == ref.shape
    scale = max(float(np.max(np.abs(ref))), 1e-300)
    assert float(np.max(np.abs(direct - ref))) <= 1e-12 * scale


@pytest.mark.parametrize("motion", [
    EuclideanMotion.identity(),
    EuclideanMotion(math.pi, 0.0, 0.0),
    EuclideanMotion(math.pi, 0.2, -0.35),
    line_motion(-2.1, 0.45),
])
def test_direct_line_path_matches_reference_engine(motion):
    f = lumpy2()
    assert_close(radon_values(f, [motion]), reference_lines(f, [motion]))


def test_direct_line_path_on_an_e2_grid():
    f = lumpy2()
    grid = make_grid("e2:ty=lin:-0.5:0.5:3,theta=lin:0:7:4,tx=lin:-0.3:0.3:2")
    res = covariant_transform(EuclideanRep(), Fiducial("radonline"), f, grid)
    assert res.values.shape == (len(grid), 1)
    assert_close(res.values[:, 0], reference_lines(f, grid.elements))
    assert np.array_equal(radon_transform(f, grid).values, res.values)


def test_direct_line_path_in_blocks_of_ny_lines():
    f = lumpy2(dx=0.1)
    motions = [line_motion(t, d) for t in np.linspace(0.0, math.pi, 9)
               for d in np.linspace(-1.0, 1.0, 7)]
    assert len(motions) > 2 * f.ny
    direct = radon_values(f, motions)
    assert_close(direct, reference_lines(f, motions))
    one_block = np.concatenate([radon_values(f, [g]) for g in motions])
    assert np.array_equal(direct, one_block)


def test_direct_line_path_is_zero_when_the_window_misses_the_axis():
    f = lumpy2(y_lo=0.5, y_hi=1.5)
    motions = [line_motion(0.3, 0.0), line_motion(1.1, 0.8),
               EuclideanMotion.identity()]
    assert np.all(reference_lines(f, motions) == 0.0)
    assert np.all(radon_values(f, motions) == 0.0)


# ---------------------------------------------------------------------------
# Determinism and serialization


def test_transform_csv_round_trip(tmp_path):
    f = smooth(dx=0.05, lo=-10, hi=10)
    grid = make_grid(GRID_1D)
    res = covariant_transform(AffineRep(2.0), Fiducial("jump"), f, grid)
    path = tmp_path / "w.csv"
    write_transform_csv(res, path)
    back = read_transform_csv(path)
    assert back.grid.spec == grid.spec
    assert np.array_equal(back.values, res.values)
    assert back.meta["rep"] == res.meta["rep"]
    assert back.meta["fiducial"] == res.meta["fiducial"]


@pytest.mark.parametrize("spec,signal", [
    ("affine:b=lin:-5:5:3,a=lin:0.1:10:2", "1d"),
    ("e2:ty=lin:-0.5:0.5:3,theta=lin:0:7:4,tx=lin:-0.3:0.3:2", "2d"),
])
def test_transform_csv_columns_match_their_header(tmp_path, spec, signal):
    grid = make_grid(spec)
    if signal == "1d":
        res = covariant_transform(AffineRep(2.0), Fiducial("cauchy+"),
                                  smooth(dx=0.05, lo=-10, hi=10), grid)
    else:
        res = radon_transform(disc2(dx=0.05), grid)
    path = tmp_path / "w.csv"
    write_transform_csv(res, path)
    with open(path, newline="") as fh:
        fh.readline()
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(grid)
    for j, name in enumerate(grid.coord_names):
        assert [float(r[name]) for r in rows] == grid.coords[:, j].tolist()
    assert [float(r["re_0"]) for r in rows] == res.values[:, 0].real.tolist()


def test_transform_csv_without_rows_has_no_samples(tmp_path):
    res = covariant_transform(AffineRep(2.0), Fiducial("cauchy+"),
                              smooth(dx=0.05, lo=-10, hi=10),
                              make_grid(GRID_1D))
    path = tmp_path / "w.csv"
    write_transform_csv(res, path)
    path.write_text("".join(path.read_text().splitlines(True)[:2]) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="no samples"):
            read_transform_csv(path)


def test_transform_csv_write_is_deterministic(tmp_path):
    f = smooth(dx=0.05, lo=-10, hi=10)
    res = covariant_transform(AffineRep(2.0), Fiducial("cauchy+"), f,
                              make_grid(GRID_1D))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_transform_csv(res, p1)
    write_transform_csv(res, p2)
    assert p1.read_bytes() == p2.read_bytes()
