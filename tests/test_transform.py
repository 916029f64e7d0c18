import csv
import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from covkit import (AffineElement, AffineRep, EuclideanMotion, EuclideanRep,
                    Fiducial, GridSpecError, SampledSignal1D, TransformResult,
                    check_intertwining, covariant_transform, evaluate,
                    hardy_maximal, inverse_haar, inverse_hardy, line_motion,
                    make_grid, radon_transform, radon_values,
                    read_transform_csv, signal_from_function,
                    signal2_from_function, write_transform_csv)
from covkit import checks, signals, transform
from covkit.signals import _common_lattice, _fmt
from covkit.inversion import _synthesize
from covkit.transform import _rows

from conftest import (box, count_ffts, every_other_fft, force_fft,
                      force_strided, gaussian, mexican_hat, small_blocks)


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
    e2_grid = make_grid("e2:theta=lin:-1:1:3,tx=lin:-0.1:0.1:2,"
                        "ty=lin:-0.1:0.1:2")
    with pytest.raises(ValueError, match="no grid carries"):
        covariant_transform(object(), Fiducial("radonline"), f2, e2_grid)
    with pytest.raises(ValueError, match="grid is over 'e2'"):
        covariant_transform(AffineRep(2.0), Fiducial("cauchy+"), f1, e2_grid)
    with pytest.raises(ValueError, match="grid is over 'affine'"):
        covariant_transform(EuclideanRep(), Fiducial("radonline"), f2, grid)
    with pytest.raises(ValueError, match="grid is over 'e2'"):
        check_intertwining(AffineRep(2.0), Fiducial("cauchy+"), f1,
                           AffineElement.identity(), e2_grid)


def fast_path_cases():
    many = signal_from_function(lambda x: 1.0 / (x - (0.3 - 1.1j)),
                                -4.0, 4.0, 0.02)
    two = SampledSignal1D(-4.0, 8.0, np.array([0.5 + 1j, -0.25]))
    one = SampledSignal1D(0.5, 1.0, np.array([2.0 - 1j]))
    grids = (
        # a lin a axis through the identity element (1, 0)
        "affine:a=lin:0.5:1.5:3,b=lin:-1:1:3",
        # b,a order; dilations above 1 with translations that push part
        # of the moved window outside f
        "affine:b=lin:-6:6:5,a=log:0.7:3:3",
        # a tiny dilation at f's window edges, where _snap widens the run
        "affine:a=log:1e-10:1e-10:1,b=lin:-4:4:3",
    )
    cases = list(itertools.product(grids, (many, two, one)))
    # node 50 of a window far from 0 lands on its left edge, where the
    # run must also be widened for rounding
    far = SampledSignal1D(1000.0, 0.001, np.linspace(1.0, 2.0, 101) + 0.5j)
    cases.append(("affine:a=lin:33.2:33.2:1,b=lin:-32201.66:-32201.66:1",
                  far))
    # inner's v0 lives on [-3, 3]: narrower than this window, whose runs
    # are cut to v0's support, and apart from the next one, whose rows
    # are all zero
    wide = signal_from_function(lambda x: 1.0 / (x - (0.3 - 1.1j)),
                                -10.0, 10.0, 0.05)
    apart = signal_from_function(lambda x: 1.0 / (x - (0.3 - 1.1j)),
                                 5.0, 9.0, 0.05)
    cases += [("affine:b=lin:-6:6:5,a=log:0.7:3:3", wide),
              ("affine:a=log:0.5:2:3,b=lin:-8:8:5", apart)]
    # windows [b - a, b + a] far off f's window, where the Cauchy and
    # Poisson kinds read only the kernels' tails and avg and inner read
    # exactly 0, and a grid with one element off the window and one on it
    cases += [("affine:a=log:0.5:2:3,b=lin:40:60:3", many),
              ("affine:a=log:0.5:2:2,b=lin:-60:1:2", wide)]
    return cases


@pytest.mark.parametrize("kind", ["cauchy+", "cauchy-", "combo", "jump",
                                  "poisson", "inner", "avg"])
def test_affine_fast_path_matches_reference_engine(kind):
    v0 = gaussian(lo=-3.0, hi=3.0, dx=0.05)
    cases = fast_path_cases()
    for tail, p in itertools.product(("truncate", "rational-tail"),
                                     (1.0, 2.0, math.inf)):
        fid = Fiducial(kind, c_plus=1.0 + 0.5j, c_minus=0.3, v0=v0,
                       tail_policy=tail)
        rep = AffineRep(p)
        for spec, f in cases:
            grid = make_grid(spec)
            ref = _rows(rep, fid, f, grid.elements)
            got = covariant_transform(rep, fid, f, grid).values
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("kind", ["cauchy+", "jump", "poisson", "inner",
                                  "avg"])
def test_blocked_reads_match_the_reference_in_small_blocks(kind, monkeypatch):
    # 7-pair kernel blocks split f's samples into chunks; 7-point runs
    # split the inner reads into ragged blocks and pieces
    monkeypatch.setattr(transform, "_KERNEL_BLOCK", 7)
    monkeypatch.setattr(signals, "_RUN_BLOCK_POINTS", 7)
    v0 = gaussian(lo=-3.0, hi=3.0, dx=0.05)
    f = signal_from_function(lambda x: 1.0 / (x - (0.3 - 1.1j)), -4.0, 4.0,
                             0.02)
    # a b step of 150.375125 = 1203001/8000 samples of f, whose lattice
    # would hold 8 million points: the lattice path declines it
    grid = make_grid("affine:b=lin:-6:6.03001:5,a=log:0.05:3:4")
    assert _common_lattice(grid.axis("b"), f.x0, f.dx, f.n) is None
    for tail in ("truncate", "rational-tail"):
        fid = Fiducial(kind, v0=v0, tail_policy=tail)
        ref = _rows(AffineRep(2.0), fid, f, grid.elements)
        got = covariant_transform(AffineRep(2.0), fid, f, grid).values
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("budget", [None, 7], ids=["default-blocks",
                                                   "7-point-blocks"])
def test_inner_rows_of_a_real_vacuum_match_its_complex_twin(budget,
                                                            monkeypatch):
    # a real vacuum reads one real row; i v0 reads two, and its inner
    # rows are those of v0 times conj(i) = -i
    if budget is not None:
        monkeypatch.setattr(signals, "_RUN_BLOCK_POINTS", budget)
    v0 = gaussian(lo=-3.0, hi=3.0, dx=0.05)
    twin = SampledSignal1D(v0.x0, v0.dx, 1j * v0.values)
    assert len(v0.parts) == 1 and len(twin.parts) == 2
    rep = AffineRep(2.0)
    for spec, f in fast_path_cases():
        grid = make_grid(spec)
        ref = _rows(rep, Fiducial("inner", v0=v0), f, grid.elements)
        got = covariant_transform(rep, Fiducial("inner", v0=v0), f,
                                  grid).values
        got_twin = covariant_transform(rep, Fiducial("inner", v0=twin), f,
                                       grid).values
        scale = np.max(np.abs(ref))
        if scale == 0:
            assert not got.any() and not got_twin.any()
            continue
        assert np.max(np.abs(got - ref)) <= 1e-12 * scale
        assert np.max(np.abs(1j * got_twin - got)) <= 1e-13 * scale


@pytest.mark.parametrize("budget", [None, 7], ids=["default-blocks",
                                                   "7-pair-blocks"])
@pytest.mark.parametrize("kind", ["cauchy+", "jump", "poisson"])
def test_kernel_sums_of_i_f_are_i_times_those_of_f(kind, budget,
                                                   monkeypatch):
    # a real f reads one weight column, i f two (its real part exactly 0);
    # the Poisson kind reads P alone, the Cauchy kinds P and Q.  The blocks
    # shrink numpy's ufunc buffer for their own passes only.
    if budget is not None:
        monkeypatch.setattr(transform, "_KERNEL_BLOCK", budget)
    bufsize = np.getbufsize()
    f = smooth(dx=0.02, lo=-4.0, hi=4.0)
    twin = SampledSignal1D(f.x0, f.dx, 1j * f.values)
    assert len(f.parts) == 1 and len(twin.parts) == 2
    grid = make_grid("affine:b=lin:-6:6.03001:5,a=log:0.05:3:4")
    assert _common_lattice(grid.axis("b"), f.x0, f.dx, f.n) is None
    for tail in ("truncate", "rational-tail"):
        fid = Fiducial(kind, tail_policy=tail)
        got = covariant_transform(AffineRep(2.0), fid, f, grid).values
        got_twin = covariant_transform(AffineRep(2.0), fid, twin,
                                       grid).values
        assert np.max(np.abs(got_twin - 1j * got)) <= (
            1e-13 * np.max(np.abs(got)))
    assert np.getbufsize() == bufsize


@pytest.mark.parametrize("kind", ["cauchy+", "poisson"])
def test_kernel_sums_mix_lattice_and_direct_dilations(kind, paths):
    # the cost rule weighs every dilation of the kernels alike (their
    # window is unbounded), so it takes all of them or none; a rule that
    # took every other one leaves the direct rows between the lattice's
    paths.planner = every_other_fft
    f = signal_from_function(lambda x: 1.0 / (x - (0.3 - 1.1j)), -4.0, 4.0,
                             0.02)
    grid = make_grid("affine:a=log:0.05:3:4,b=lin:-6.4:6.4:81")
    fid = Fiducial(kind)
    got = covariant_transform(AffineRep(2.0), fid, f, grid).values
    assert paths.fft() == 2
    ref = _rows(AffineRep(2.0), fid, f, grid.elements)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


# Peak traced memory of the kernel sums' transform below, measured at
# 1.62 MB (jump: P and Q) and 0.97 MB (poisson: P alone)
@pytest.mark.parametrize("kind, bound_mb", [("jump", 1.75), ("poisson", 1.0)],
                         ids=["jump", "poisson"])
def test_kernel_blocks_bound_the_memory(kind, bound_mb):
    # the benchmark's Hardy analysis with one translation fewer, so that
    # the b step is no whole number of samples and the kernels are read
    # directly: 5 x 2000 elements on 2401 samples, where one kernel
    # matrix would take 192 MB
    f = signal_from_function(lambda x: 1.0 / (x - (0.2 - 1j)) ** 2, -30.0,
                             30.0, 0.025)
    grid = make_grid("affine:a=log:0.03125:0.5:5,b=lin:-25:25:2000")
    assert f.n == 2401 and len(grid) == 10000
    assert _common_lattice(grid.axis("b"), f.x0, f.dx, f.n) is None
    tracemalloc.start()
    try:
        covariant_transform(AffineRep(math.inf), Fiducial(kind), f, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * 2 ** 20


def test_kernel_sums_read_zero_where_the_distance_overflows():
    # |x - b| past ~1.3e154 squares to inf, whose reciprocal is the
    # kernels' exact 0; pytest turns an escaping overflow warning into an
    # error
    f = smooth(dx=0.05, lo=-10.0, hi=10.0)
    grid = make_grid("affine:a=log:1:2:3,b=lin:0:1e308:3")
    rep, fid = AffineRep(2.0), Fiducial("cauchy+")
    got = covariant_transform(rep, fid, f, grid).values[:, 0]
    far = grid.coords[:, 1] > 0.0
    assert grid.coords[far, 1].tolist() == [5e307, 1e308] * 3
    assert np.all(got[far] == 0.0)
    near = [g for g, x in zip(grid.elements, far) if not x]
    ref = _rows(rep, fid, f, near)[:, 0]
    assert np.max(np.abs(got[~far] - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("kind", ["poisson", "jump"])
def test_lattice_kernels_read_zero_where_the_distance_overflows(
        kind, paths, monkeypatch):
    # samples 1e153 apart and a b axis of the same step: a 401-point
    # lattice whose differences reach 2e155, where u * u overflows
    rng = np.random.default_rng(8)
    f = SampledSignal1D(0.0, 1e153, rng.normal(size=201)
                        + 1j * rng.normal(size=201))
    grid = make_grid("affine:a=log:1:4:2,b=lin:0:2e155:201")
    rep, fid = AffineRep(2.0), Fiducial(kind)
    force_fft(monkeypatch)
    with monkeypatch.context() as m:
        m.setattr(signals, "_common_lattice", lambda *args: None)
        direct = covariant_transform(rep, fid, f, grid).values
    paths.clear()
    got = covariant_transform(rep, fid, f, grid).values
    assert paths.fft() == 2
    assert np.max(np.abs(got - direct)) <= 1e-12 * np.max(np.abs(direct))


# ---------------------------------------------------------------------------
# The lattice path: b steps a rational p/q of f's samples


# b steps of 1, 8, 1/4, 5/2 and 2/5 samples of f (dx = 0.02), on 4
# dilations, each of which the tests send to the lattice (`force_fft`)
LATTICE_GRIDS = {"1:1": ("a=log:0.05:3:4", "b=lin:-0.5:0.5:51"),
                 "8:1": ("a=log:0.05:3:4", "b=lin:-6.4:6.4:81"),
                 "1:4": ("a=lin:0.05:3:4", "b=lin:-0.5:0.5:201"),
                 "5:2": ("a=log:0.05:3:4", "b=lin:-5:5:201"),
                 "2:5": ("a=lin:0.05:3:4", "b=lin:-0.8:0.8:201")}


@pytest.mark.parametrize("order", ["a,b", "b,a"])
@pytest.mark.parametrize("ratio", list(LATTICE_GRIDS))
@pytest.mark.parametrize("kind", ["cauchy+", "cauchy-", "combo", "jump",
                                  "poisson", "inner"])
def test_lattice_path_matches_the_references(kind, ratio, order, paths,
                                             monkeypatch):
    # a complex v0 without symmetry, so that a mirrored or conjugated
    # kernel shows
    v0 = signal_from_function(
        lambda x: np.exp(-(x - 0.4) ** 2 + 2j * x), -3.0, 3.0, 0.05)
    f = signal_from_function(lambda x: 1.0 / (x - (0.3 - 1.1j)), -4.0, 4.0,
                             0.02)
    axes = LATTICE_GRIDS[ratio]
    grid = make_grid("affine:" + ",".join(axes if order == "a,b"
                                          else axes[::-1]))
    rep = AffineRep(2.0)
    force_fft(monkeypatch)
    for tail in ("truncate", "rational-tail"):
        fid = Fiducial(kind, c_plus=1.0 + 0.5j, c_minus=0.3, v0=v0,
                       tail_policy=tail)
        ref = _rows(rep, fid, f, grid.elements)
        with monkeypatch.context() as m:
            m.setattr(signals, "_common_lattice", lambda *args: None)
            direct = covariant_transform(rep, fid, f, grid).values
        paths.clear()
        got = covariant_transform(rep, fid, f, grid).values
        assert paths.fft() == 4
        for want in (ref, direct):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("kind", ["poisson", "inner"])
def test_lattice_path_keeps_real_sums_real(kind, paths, monkeypatch):
    # a real signal against a real kernel: the direct path's values are
    # exactly real, and so must the lattice's be
    f = gaussian(lo=-4.0, hi=4.0, dx=0.02)
    grid = make_grid("affine:a=log:0.05:3:4,b=lin:-6.4:6.4:81")
    fid = Fiducial(kind, v0=gaussian(lo=-3.0, hi=3.0, dx=0.05))
    force_fft(monkeypatch)
    got = covariant_transform(AffineRep(2.0), fid, f, grid).values
    assert paths.fft() == 4
    assert np.all(got.imag == 0.0) and np.any(got.real != 0.0)


@pytest.mark.parametrize("spec,signal", [
    ("affine:a=log:0.1:2:3,b=log:0.5:4:33", "many"),
    # b step 24.345/280 against dx = 0.02: 4869/1120 samples, whose
    # lattice would hold 2.7 million points
    ("affine:a=log:0.12:6:4,b=lin:-12:12.345:281", "many"),
    ("affine:b=lin:0.7:0.7:1,a=log:0.1:2:5", "many"),
    # a decreasing b axis
    ("affine:a=log:0.1:2:3,b=lin:1:-1:101", "many"),
    ("affine:a=log:0.1:2:3,b=lin:-1:1:101", "one"),
])
@pytest.mark.parametrize("kind", ["cauchy+", "jump", "inner"])
def test_lattice_path_declines_other_grids(spec, signal, kind, paths):
    f = {"many": signal_from_function(lambda x: 1.0 / (x - (0.3 - 1.1j)),
                                      -12.0, 12.0, 0.02),
         "one": SampledSignal1D(0.5, 0.02, np.array([2.0 - 1j]))}[signal]
    grid = make_grid(spec)
    assert _common_lattice(grid.axis("b"), f.x0, f.dx, f.n) is None
    fid = Fiducial(kind, v0=gaussian(lo=-3.0, hi=3.0, dx=0.05))
    got = covariant_transform(AffineRep(2.0), fid, f, grid).values
    ref = _rows(AffineRep(2.0), fid, f, grid.elements)
    assert not paths.fft() and not paths.strided()
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_inner_takes_the_lattice_only_where_it_is_shorter(paths):
    # as for synthesis: b step 8 samples of f, a lattice of 1201 points
    # (180 us at 150 ns a point); a dilation of 0.2 reads 161 nodes for
    # each of 101 elements (16261 reads, 488 us at 30 ns a read), one of
    # 0.01 only 9 (909 reads, 27 us)
    grid = make_grid("affine:a=log:0.01:0.2:2,b=lin:-8:8:101")
    f = signal_from_function(lambda x: 1.0 / (x - (0.3 - 1.1j)), -4.0, 4.0,
                             0.02)
    v0 = signal_from_function(
        lambda x: np.exp(-(x - 0.4) ** 2 + 2j * x), -8.0, 8.0, 0.02)
    fid = Fiducial("inner", v0=v0)
    got = covariant_transform(AffineRep(2.0), fid, f, grid).values
    assert paths.fft() == 1
    ref = _rows(AffineRep(2.0), fid, f, grid.elements)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_one_patch_sends_every_moved_kernel_sum_down_the_direct_path(
        paths, monkeypatch):
    # the kernel sums, the inner products and both syntheses all ask
    # signals._common_lattice, so patching it alone turns every lattice
    # sum off, even where every dilation is sent to the lattice
    force_fft(monkeypatch)
    f = gaussian(lo=-4.0, hi=4.0, dx=0.02)
    grid = make_grid("affine:a=log:0.2:3:4,b=lin:-6.4:6.4:81")
    w = TransformResult(grid, np.linspace(1.0, 2.0, len(grid)) + 0.5j)
    v0 = mexican_hat(-8.0, 8.0, 0.02)

    def run_all():
        for fid in (Fiducial("jump"), Fiducial("inner", v0=v0)):
            covariant_transform(AffineRep(2.0), fid, f, grid)
        inverse_haar(w, AffineRep(2.0), v0, out_grid=f)
        inverse_hardy(w, AffineRep(1.0), v0, out_grid=f)

    run_all()
    assert paths.fft("transform") == 8 and paths.fft("inversion") == 8
    paths.clear()
    monkeypatch.setattr(signals, "_common_lattice", lambda *args: None)
    run_all()
    assert not paths.fft() and not paths.strided()


def test_each_sum_searches_its_lattice_once(paths, monkeypatch):
    # the kernel sums, the inner products and a synthesis each plan their
    # dilations once: one lattice search and one `_Lattice`, which serves
    # the FFT and the strided path alike.  On roundtrip's (16, 281) Haar
    # grid the inner products and the synthesis sum all 16 dilations by
    # strided products; the kernel sums read all 16 directly.
    f, v0 = packet(), mexican_hat(-8.0, 8.0, 0.02)
    grid = make_grid("affine:a=log:0.12:6:16,b=lin:-12:12:281")
    a, b = grid.coords.T
    _, b_axis, idx = grid.dilation_rows()
    rows, ones = (b_axis, idx), np.ones(len(grid))
    searches, lattices = [], []
    search = signals._common_lattice

    def counted(*args):
        searches.append(1)
        return search(*args)

    class Counted(signals._Lattice):
        def __init__(self, *args):
            lattices.append(1)
            super().__init__(*args)

    monkeypatch.setattr(signals, "_common_lattice", counted)
    monkeypatch.setattr(signals, "_Lattice", Counted)
    for run, fft, strided in (
            (lambda: transform._kernel_sums(f, a, b, rows), 0, 0),
            (lambda: transform._inner_rows(v0, f, a, b, ones, rows), 0, 16),
            (lambda: _synthesize(v0, f, a, b, ones, rows), 0, 16)):
        paths.clear()
        searches.clear()
        lattices.clear()
        run()
        assert len(searches) == 1 and len(lattices) == 1
        assert (paths.fft(), paths.strided()) == (fft, strided)


def test_lattice_steps_allow_only_rounding_drift_and_bounded_length():
    axis = make_grid("affine:a=log:1:1:1,b=lin:-25:25:10001").axis("b")
    assert _common_lattice(axis, -60.0, 0.02, 6001) == (0.005, 1, 4, 34001)
    assert _common_lattice(axis, -60.0, 0.005, 24001) == (0.005, 1, 1,
                                                          34001)
    # a step off by one part in 1e12 drifts 1.2e-10 over f's 6001 nodes,
    # far beyond a few roundings of 60
    assert _common_lattice(axis, -60.0, 0.02 * (1 + 1e-12), 6001) is None
    # a b step 2/5 of dx: the lattice steps by dx / 5
    assert _common_lattice(axis, -60.0, 0.0125, 9601) == (0.0025, 2, 5,
                                                          68001)
    # 50/123 of dx: 10000 x 50 + 9600 x 123 + 1 = 1,680,801 points
    assert _common_lattice(axis, -60.0, 0.0123, 9601) is None
    # 0.1 / 20 rounds off 0.02 / 4: the lattice steps by dx / 4, which
    # keeps f's 1600 lattice steps exact; the 20 b steps drift a rounding
    short = make_grid("affine:a=log:1:1:1,b=lin:-1.3:-1.2:21").axis("b")
    assert _common_lattice(short, -4.0, 0.02, 401) == (0.005, 1, 4, 1621)
    # 2,000,401 lattice points: longer than one FFT product may be
    wide = make_grid("affine:a=log:1:1:1,b=lin:-2e4:2e4:10001").axis("b")
    assert _common_lattice(wide, -4.0, 0.02, 401) is None
    assert _common_lattice(wide, -4.0, 0.04, 201) == (0.04, 100, 1, 1000201)


def test_lattice_steps_with_a_non_finite_ratio_to_dx_are_declined():
    # db / dx overflows: 5e307 against 0.02
    axis = make_grid("affine:a=log:1:2:3,b=lin:0:1e308:3").axis("b")
    assert _common_lattice(axis, -4.0, 0.02, 401) is None
    # dx / db overflows: 1e10 against 5e-301
    axis = make_grid("affine:a=log:1:2:3,b=lin:0:1e-300:3").axis("b")
    assert _common_lattice(axis, -4.0, 1e10, 401) is None


# A complex v0 without symmetry: a mirrored or conjugated kernel shows.
def asymmetric_vacuum():
    return signal_from_function(
        lambda x: np.exp(-(x - 0.4) ** 2 + 2j * x), -8.0, 8.0, 0.02)


def packet():
    return signal_from_function(
        lambda x: np.exp(-(x - 0.7) ** 2 / 2.0 + 3j * x), -12.0, 12.0, 0.02)


@pytest.mark.parametrize("budget", [None, 7], ids=["default-blocks",
                                                   "7-point-blocks"])
@pytest.mark.parametrize("vacuum", ["real", "complex"])
def test_table_inner_rows_match_the_reference(vacuum, budget, paths,
                                              monkeypatch):
    # a b step of 30/7 samples of f, the FFT lattice declined and the
    # strided path forced: every dilation sums strided products of its
    # table, sampled in blocks of 2^14 or 7 points, over blocks of rows
    # of the block_rows the prices give or of 7
    if budget is not None:
        small_blocks(monkeypatch, budget)
    f = signal_from_function(lambda x: np.exp(-(x - 0.7) ** 2 + 3j * x),
                             -3.0, 3.0, 0.01)
    grid = make_grid("affine:a=log:0.3:4:3,b=lin:-3:3:141")
    v0 = {"real": gaussian(lo=-1.0, hi=1.0, dx=0.05),
          "complex": signal_from_function(
              lambda x: (1.0 - x ** 2) * (1.0 + 0.5j * x), -1.0, 1.0,
              0.05)}[vacuum]
    fid = Fiducial("inner", v0=v0)
    force_fft(monkeypatch, every=False)
    force_strided(monkeypatch)
    got = covariant_transform(AffineRep(2.0), fid, f, grid).values
    assert paths.strided() == 3
    ref = _rows(AffineRep(2.0), fid, f, grid.elements)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_roundtrip_haar_grid_takes_a_30_7_lattice(paths):
    # b step 24/280 = 30/7 samples of f: a lattice of 16801 points, on
    # which every dilation's strided products cost less than its FFT
    f = packet()
    grid = make_grid("affine:a=log:0.12:6:16,b=lin:-12:12:281")
    lattice = _common_lattice(grid.axis("b"), f.x0, f.dx, f.n)
    assert lattice[1:] == (30, 7, 16801)
    fid = Fiducial("inner", v0=asymmetric_vacuum())
    got = covariant_transform(AffineRep(2.0), fid, f, grid).values
    assert (paths.fft(), paths.strided()) == (0, 16)
    ref = _rows(AffineRep(2.0), fid, f, grid.elements)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("vacuum", ["real", "complex"])
def test_lattice_sums_share_their_spectra(vacuum, paths, monkeypatch):
    # on roundtrip's (16, 281) Haar grid, every dilation sent to the
    # lattice, analysis transforms f's weighted samples (two rows) once
    # and each kernel once, and inverts a real and an imaginary row per
    # dilation; synthesis transforms each dilation's coefficients (two
    # rows) and kernel and inverts their summed products once.  Only a
    # complex vacuum's kernels have an imaginary part to transform.
    f = packet()
    v0 = {"real": mexican_hat(-8.0, 8.0, 0.02),
          "complex": asymmetric_vacuum()}[vacuum]
    grid = make_grid("affine:a=log:0.12:6:16,b=lin:-12:12:281")
    imag = 16 if vacuum == "complex" else 0
    force_fft(monkeypatch)
    ffts = count_ffts(monkeypatch)
    covariant_transform(AffineRep(2.0), Fiducial("inner", v0=v0), f, grid)
    assert paths.fft("transform") == 16
    assert ffts == {"weights": 2, "kernel": 16 + imag, "inverse": 32}
    ffts.update(dict.fromkeys(ffts, 0))
    a, b = grid.coords.T
    _, b_axis, idx = grid.dilation_rows()
    coef = np.linspace(1.0, 2.0, len(grid)) + 0.5j
    _synthesize(v0, f, a, b, coef, (b_axis, idx))
    assert paths.fft("inversion") == 16
    assert ffts == {"weights": 32, "kernel": 16 + imag, "inverse": 2}


def real_packet():
    return signal_from_function(
        lambda x: np.exp(-(x - 0.7) ** 2 / 2.0) * np.cos(3.0 * x), -12.0,
        12.0, 0.02)


def test_real_lattice_sums_transform_no_zero_part(paths, monkeypatch):
    # roundtrip's Haar route on real data, every dilation sent to the
    # lattice: a real f against a real Mexican hat.  Analysis transforms
    # one weights row and one kernel row per lattice dilation, and
    # inverts one row per dilation; the synthesis of real coefficients
    # transforms two rows per dilation (coefficients and kernel) and
    # inverts one row in all.
    f, v0 = real_packet(), mexican_hat(-8.0, 8.0, 0.02)
    assert len(f.parts) == 1 and len(v0.parts) == 1
    grid = make_grid("affine:a=log:0.12:6:16,b=lin:-12:12:281")
    force_fft(monkeypatch)
    ffts = count_ffts(monkeypatch)
    covariant_transform(AffineRep(2.0), Fiducial("inner", v0=v0), f, grid)
    assert paths.fft("transform") == 16
    assert ffts == {"weights": 1, "kernel": 16, "inverse": 16}
    ffts.update(dict.fromkeys(ffts, 0))
    a, b = grid.coords.T
    _, b_axis, idx = grid.dilation_rows()
    coef = np.linspace(1.0, 2.0, len(grid))
    _synthesize(v0, f, a, b, coef, (b_axis, idx))
    assert paths.fft("inversion") == 16
    assert ffts == {"weights": 16, "kernel": 16, "inverse": 1}


def test_real_inner_transform_has_a_zero_imaginary_column(paths,
                                                           monkeypatch):
    # 8 lattice dilations, and 8 summed by strided products, then read
    # directly: on every path a real signal read by a real vacuum sums to
    # an imaginary part of exactly +-0, and each product sums against one
    # weight column
    f, v0 = real_packet(), mexican_hat(-8.0, 8.0, 0.02)
    grid = make_grid("affine:a=log:0.12:6:16,b=lin:-12:12:281")
    fid = Fiducial("inner", v0=v0)
    ref = _rows(AffineRep(2.0), fid, f, grid.elements)
    columns = []
    product = signals._product

    def counted(p):
        # p[k][j]: vacuum part k against weight column j
        columns.append(len(p[0]))
        return product(p)
    monkeypatch.setattr(transform, "_product", counted)
    monkeypatch.setattr(signals, "_product", counted)
    paths.planner = every_other_fft
    for strided in (8, 0):
        columns.clear()
        paths.clear()
        force_strided(monkeypatch, every=strided > 0)
        got = covariant_transform(AffineRep(2.0), fid, f, grid).values
        assert paths.fft() == 8 and paths.strided() == strided
        assert columns and set(columns) == {1}
        assert np.all(got.imag == 0.0)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("kind", ["jump", "inner"])
def test_jump_grid_of_64_by_16_keeps_the_direct_path(kind, paths):
    # affine-scan's p = inf jump grid: a b step of 111/10 samples of f,
    # whose 11656-point lattice costs more than the 16 x 1000 direct
    # reads of any of its dilations
    f = signal_from_function(lambda x: 1.0 / (x - (0.3 - 1.1j)), -30.0,
                             30.0, 60.0 / 999)
    grid = make_grid("affine:a=log:0.1:2.5:64,b=lin:-4.7:5.3:16")
    lattice = _common_lattice(grid.axis("b"), f.x0, f.dx, f.n)
    assert lattice[1:] == (111, 10, 11656)
    fid = Fiducial(kind, v0=asymmetric_vacuum())
    got = covariant_transform(AffineRep(math.inf), fid, f, grid).values
    assert not paths.fft()
    ref = _rows(AffineRep(math.inf), fid, f, grid.elements)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_criterion_6_grid_takes_the_lattice_at_every_dilation(paths):
    # b step 5/2 samples of f: a lattice of 4801 points, on which all 40
    # dilations are summed, by FFT or by strided products; the reference
    # reads every 13th element
    f = packet()
    grid = make_grid("affine:a=log:0.12:6:40,b=lin:-12:12:481")
    assert _common_lattice(grid.axis("b"), f.x0, f.dx, f.n)[1:] == (5, 2,
                                                                    4801)
    fid = Fiducial("inner", v0=asymmetric_vacuum())
    got = covariant_transform(AffineRep(2.0), fid, f, grid).values[::13]
    assert paths.fft() + paths.strided() == 40
    ref = _rows(AffineRep(2.0), fid, f, grid.elements[::13])
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("ratio", checks._LATTICE_RATIOS)
def test_lattice_check_grids_take_the_lattice(ratio, paths, monkeypatch):
    # the lattice lines of `covkit check` measure the lattice paths only
    # where the cost rule takes them: the FFT for the kernel sums, the FFT
    # or strided products for the inner products and both syntheses, at
    # every ratio the lines draw (the lines force the strided path as
    # well).  The kernel sums at 30/7 are the closest call: on the
    # 4 x 601 grid and 2401 nodes their lattice costs about 10% less than
    # the direct reads at the rule's prices (150 ns a lattice point, 4 ns
    # a read)
    monkeypatch.setattr(checks, "_LATTICE_RATIOS", (ratio,))
    f, grid, lattice = checks._lattice_grid(np.random.default_rng(0))
    assert lattice
    for kind in ("cauchy+", "inner"):
        fid = Fiducial(kind, v0=checks.mexican_hat_signal(-6.0, 6.0, 0.05))
        covariant_transform(AffineRep(2.0), fid, f, grid)
        assert paths.fft() if kind == "cauchy+" else (paths.fft()
                                                      + paths.strided())
        paths.clear()
    w = TransformResult(grid, np.ones(len(grid), dtype=complex))
    v0 = checks.mexican_hat_signal(-8.0, 8.0, 0.02)
    inverse_haar(w, AffineRep(2.0), v0, out_grid=f)
    assert paths.fft() + paths.strided()
    paths.clear()
    inverse_hardy(w, AffineRep(1.0), v0, out_grid=f)
    assert paths.fft() + paths.strided()


def test_lattice_path_bounds_the_memory(paths):
    # criterion 7's analysis: 5 x 10001 elements on 6001 samples, a b step
    # of a quarter sample, where one kernel matrix would take 2.4 GB.  The
    # outputs and one dilation's lattice buffers peak at ~7 MB; the
    # buffers of all five dilations at once would add ~19 MB.
    f = signal_from_function(lambda t: 1.0 / (t + 1j) ** 2, -60.0, 60.0,
                             0.02)
    grid = make_grid("affine:a=log:0.025:0.4:5,b=lin:-25:25:10001")
    assert f.n == 6001 and len(grid) == 50005
    tracemalloc.start()
    try:
        covariant_transform(AffineRep(math.inf), Fiducial("jump"), f, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert paths.fft() == 5
    assert peak < 12 * 2 ** 20


# ---------------------------------------------------------------------------
# Closed-form oracles of the s-form


# Element grids of the oracles: dilations from under three samples of f
# to wider than the b range, translations across the signal's centre.
ORACLE_GRID = "affine:a=log:0.05:4:9,b=lin:-5:5:41"


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_cauchy_plus_of_a_rational_reads_its_upper_half_plane_values(p):
    # 1/(x - q)^2 with q below the axis is upper-Hardy: its Cauchy
    # integral at b + ia is f(b + ia) and the lower one vanishes.  All
    # that the s-form leaves out is the kernel mass of |f| beyond +-L,
    # under 2 * 1/(4 pi (L - 5)^2) ~ 1.3e-4 for |b| <= 5.
    q, L = 0.3 - 1.1j, 40.0
    f = signal_from_function(lambda x: 1.0 / (x - q) ** 2, -L, L, 0.02)
    grid = make_grid(ORACLE_GRID)
    a, b = grid.coords.T
    pref = a ** (1.0 / p)
    res = covariant_transform(AffineRep(p), Fiducial("jump"), f, grid)
    tol = 2.0 / (4.0 * math.pi * (L - 5.0) ** 2)
    assert np.max(np.abs(res.values[:, 0] / pref
                         - 1.0 / (b + 1j * a - q) ** 2)) < tol
    assert np.max(np.abs(res.values[:, 1] / pref)) < tol


def test_poisson_of_a_lorentzian_follows_the_semigroup():
    # P_a applied to the Lorentzian of width y0 is the Lorentzian of
    # width a + y0.  Left out: the Lorentzian's mass beyond +-L under the
    # kernel, below a / (pi (L - 5)^2) * 2 y0 / (pi L) ~ 7e-6 at a = 4.
    y0, c, L = 0.9, 0.4, 50.0
    f = signal_from_function(
        lambda x: y0 / (math.pi * ((x - c) ** 2 + y0 ** 2)), -L, L, 0.02)
    grid = make_grid(ORACLE_GRID)
    a, b = grid.coords.T
    want = (a + y0) / (math.pi * ((b - c) ** 2 + (a + y0) ** 2))
    got = covariant_transform(AffineRep(math.inf), Fiducial("poisson"), f,
                              grid).values[:, 0]
    assert np.max(np.abs(got - want)) < 1e-5


def running_average(f, a, b):
    """(1/2a) times the integral over [b - a, b + a] of the piecewise-
    linear interpolant of |f|, zero outside f's window."""
    v = np.abs(f.values)
    nodes = np.concatenate(([0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * f.dx)))

    def running(x):
        t = np.clip((x - f.x0) / f.dx, 0.0, f.n - 1.0)
        i = np.minimum(t.astype(int), f.n - 2)
        frac = t - i
        fx = v[i] + frac * (v[i + 1] - v[i])
        return nodes[i] + 0.5 * (v[i] + fx) * frac * f.dx

    return (running(b + a) - running(b - a)) / (2.0 * a)


def test_maximal_is_the_largest_running_average():
    # windows that leave the box's window read 0 there; the two running
    # integrals differ from the engine's sum only in rounding
    f = box(lo=-4.0, hi=4.0, dx=0.01, edge=1.3)
    grid = make_grid("affine:a=log:0.05:20:23,b=lin:-6:6:121")
    a, b = grid.coords.T
    want = running_average(f, a, b)
    got = covariant_transform(AffineRep(math.inf), Fiducial("avg"), f,
                              grid).values[:, 0]
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)
    m = hardy_maximal(f, "lin:-6:6:121", "log:0.05:20:23")
    assert np.max(np.abs(m.values - want.reshape(23, 121).max(axis=0))) \
        <= 1e-12 * np.max(want)


def test_identity_shift_has_zero_residual():
    res = check_intertwining(AffineRep(2.0), Fiducial("cauchy+"),
                             smooth(dx=0.02, lo=-15, hi=15),
                             AffineElement.identity(), make_grid(GRID_1D))
    assert res == 0.0


@given(a=st.floats(0.6, 1.6), b=st.floats(-0.8, 0.8))
def test_left_shift_covariance_linear_fiducial(a, b):
    # ~10x the worst of 609 (a, b), a 3 x 3 lattice of the box with its
    # corners and 600 uniform draws: 1.45e-15
    res = check_intertwining(AffineRep(2.0), Fiducial("cauchy+"), smooth(),
                             AffineElement(a, b), make_grid(GRID_1D))
    assert res < 1.5e-14


@given(a=st.floats(0.6, 1.6), b=st.floats(-0.8, 0.8))
def test_left_shift_covariance_nonlinear_fiducial(a, b):
    # the interval average is not linear; the covariance contract is the
    # same because the engine never assumes linearity.  ~10x the worst of
    # the same 609 (a, b): 5.8e-15
    res = check_intertwining(AffineRep(math.inf), Fiducial("avg"), smooth(),
                             AffineElement(a, b), make_grid(GRID_1D))
    assert res < 6e-14


def test_left_shift_covariance_euclidean():
    f = signal2_from_function(
        lambda x, y: np.exp(-(x ** 2 + y ** 2) / 0.25), -2.5, 2.5, -2.5, 2.5,
        0.02)
    grid = make_grid("e2:theta=lin:-2:2:2,tx=lin:-0.2:0.2:2,"
                     "ty=lin:-0.2:0.2:2")
    g = EuclideanMotion(0.7, 0.15, -0.1)
    res = check_intertwining(EuclideanRep(), Fiducial("radonline"), f, g, grid)
    # the rounding of composed motions: 1.1e-16 measured
    assert res < 1e-14


# ---------------------------------------------------------------------------
# Maximal function


def test_maximal_of_box():
    m = hardy_maximal(box(lo=-4.0, hi=4.0, dx=0.01),
                      "lin:-4:4:161", "log:0.05:20:200")
    at0 = float(np.interp(0.0, m.xs, m.values.real))
    at2 = float(np.interp(2.0, m.xs, m.values.real))
    assert at0 == pytest.approx(1.0, abs=0.01)
    assert at2 == pytest.approx(1.0 / 3.0, abs=0.02)


def test_maximal_needs_a_lin_b_axis():
    # the result is written on the b values with one step, so a log b
    # axis (0.5, 0.673, ..., 4) would come out at 0.5, 1.0, ..., 4.0
    with pytest.raises(GridSpecError, match="b=log:0.5:4.0:8"):
        hardy_maximal(box(), "log:0.5:4:8", "log:0.2:2:9")
    m = hardy_maximal(box(), "lin:0.5:4:8", "log:0.2:2:9")
    assert np.allclose(m.xs, np.linspace(0.5, 4.0, 8), rtol=0, atol=1e-15)


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


def test_check_polygons_are_convex_and_fill_their_pixels():
    # the polygon of `transform.radon_polygon_oracle` turns left at every
    # vertex, so the image (the intersection of its edges' half-planes) is
    # the polygon: its pixels cover the shoelace area within a pixel row
    # along the perimeter, on seeds 1-20
    for seed in range(1, 21):
        verts = checks.random_convex_polygon(checks._rng(seed, 511))
        edge = np.roll(verts, -1, axis=0) - verts
        nxt = np.roll(edge, -1, axis=0)
        assert np.all(edge[:, 0] * nxt[:, 1] - edge[:, 1] * nxt[:, 0] > 0.0)
        assert np.all(np.hypot(*verts.T) < 1.0)
        image = checks.polygon_signal(verts)
        x, y = verts.T
        area = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
        pixels = image.values.real.sum() * image.dx * image.dy
        assert area > 0.1
        assert abs(pixels - area) < np.sum(np.hypot(*edge.T)) * image.dx


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
    """Per-element engine: move the image's frame, then read along
    y = 0."""
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


def test_reference_lines_match_the_direct_path_off_the_lattice_rows():
    # y = 0 falls between two lattice rows: both paths read the same
    # points of the one image, so they agree to rounding
    f = lumpy2(dx=0.01, y_lo=-2.505, y_hi=1.495)
    assert not np.any(f.ys == 0.0) and f.origin[1] == -2.505
    grid = make_grid("e2:theta=lin:-3:3:7,tx=lin:-0.5:0.5:3,"
                     "ty=lin:-0.7:0.4:4")
    ref = _rows(EuclideanRep(), Fiducial("radonline"), f, grid.elements)
    direct = transform._radon_lines(f, *grid.coords.T)
    assert np.max(np.abs(ref[:, 0] - direct)) <= 1e-13 * np.max(
        np.abs(direct))


def test_direct_line_path_rejects_a_window_that_misses_the_axis():
    # the line y = 1 crosses this image, but the x-axis that every
    # motion moves does not, so no line is read and nothing reads 0
    f = lumpy2(y_lo=0.5, y_hi=1.5)
    motions = [line_motion(0.3, 0.0), line_motion(1.1, 0.8),
               EuclideanMotion(0.0, 0.0, 1.0)]
    grid = make_grid("e2:theta=lin:0:1:3,tx=lin:-0.2:0.2:2,ty=lin:1:1:1")
    for call in (lambda: radon_values(f, motions),
                 lambda: radon_transform(f, grid),
                 lambda: covariant_transform(EuclideanRep(),
                                             Fiducial("radonline"), f, grid)):
        with pytest.raises(ValueError, match=r"y window \[0\.5, 1\.5\] "
                                             "does not contain y = 0"):
            call()
    # one element's line that misses a moved image reads 0
    assert np.all(reference_lines(f, motions[:1]) == 0.0)


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


@pytest.mark.parametrize("header,edit,message", [
    (None, lambda row: row.rsplit(",", 1)[0], "rows must have 6 columns"),
    (None, lambda row: row + ",0", "rows must have 6 columns"),
    # only the row of (a, b) = (1, 0) loses a cell
    (None, lambda row: row.rsplit(",", 1)[0] if row.startswith("1,0,")
     else row, "rows must have 6 columns"),
    ("a,b,re_0,im_0,re_1", lambda row: row.rsplit(",", 1)[0],
     "header must have"),
    ("a,b", lambda row: ",".join(row.split(",")[:2]), "header must have"),
    # the right count of cells, under names the writer does not write
    ("x,y,re_0,im_0,re_1,im_1", lambda row: row,
     "header must have .* expected 'a,b,re_0,im_0,re_1,im_1'"),
    ("b,a,re_0,im_0,re_1,im_1", lambda row: row,
     "header must have .* expected 'a,b,re_0,im_0,re_1,im_1'"),
    # a comment line whose grid spec passes the element limit
    ("# covkit-transform rep=affine fiducial=jump "
     "grid=affine:a=log:1:2:2000,b=lin:0:1:2000", lambda row: row,
     "grid spec .* has 4000000 elements"),
], ids=["short-rows", "long-rows", "one-short-row", "odd-header",
        "no-values", "other-names", "swapped-coordinates", "oversized-grid"])
def test_transform_csv_rejects_a_wrong_column_count(tmp_path, header, edit,
                                                    message):
    res = covariant_transform(AffineRep(2.0), Fiducial("jump"),
                              smooth(dx=0.05, lo=-10, hi=10),
                              make_grid(GRID_1D))
    path = tmp_path / "w.csv"
    write_transform_csv(res, path)
    lines = path.read_text().splitlines()
    head = lines[:2]
    if header:
        # a comment line takes the table's first line, a header its second
        head[0 if header.startswith("#") else 1] = header
    body = [edit(row) for row in lines[2:]]
    path.write_text("\n".join(head + body) + "\n")
    # every rejection names the file
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "
                                          f".*{message}"):
        read_transform_csv(path)


@pytest.mark.parametrize("block", [None, 5], ids=["4096-rows", "5-rows"])
@pytest.mark.parametrize("spec", [
    "affine:a=log:0.1:10:7,b=lin:-5:5:13",
    "affine:b=lin:-5:5:13,a=log:0.1:10:7",
    "affine:a=log:1e-150:1e150:3,b=lin:-1e150:1e150:5",
    "e2:ty=lin:-0.5:0.5:3,theta=lin:-7:7:4,tx=lin:-0.3:0.3:2",
])
def test_transform_csv_spells_every_cell_as_fmt(tmp_path, spec, block,
                                                monkeypatch):
    # coordinates formatted once per axis value and values once per
    # block give the bytes of one %.17g per cell, signed zeros,
    # subnormals and huge values included
    if block is not None:
        monkeypatch.setattr(signals, "_CSV_BLOCK_ROWS", block)
    grid = make_grid(spec)
    rng = np.random.default_rng(8)
    vals = (rng.normal(size=(len(grid), 2))
            * 10.0 ** rng.integers(-300, 300, (len(grid), 2))
            + 1j * rng.normal(size=(len(grid), 2)))
    vals.flat[:6] = [-0.0, 5e-324, 1e308, -1e308, complex(-0.0, -0.0),
                     complex(0.0, -5e-324)]
    res = TransformResult(grid, vals, {"rep": "r", "fiducial": "f",
                                       "truncation_budget": 0.25})
    path = tmp_path / "w.csv"
    write_transform_csv(res, path)
    lines = path.read_text().splitlines(True)
    assert len(lines) == 2 + len(grid)
    table = np.column_stack((grid.coords, vals[:, 0].real, vals[:, 0].imag,
                             vals[:, 1].real, vals[:, 1].imag))
    assert lines[2:] == [",".join(_fmt(c) for c in row) + "\n"
                         for row in table]


def test_transform_csv_write_is_deterministic(tmp_path):
    f = smooth(dx=0.05, lo=-10, hi=10)
    res = covariant_transform(AffineRep(2.0), Fiducial("cauchy+"), f,
                              make_grid(GRID_1D))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_transform_csv(res, p1)
    write_transform_csv(res, p2)
    assert p1.read_bytes() == p2.read_bytes()
