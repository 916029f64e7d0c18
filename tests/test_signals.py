import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from covkit import (EuclideanMotion, SampledSignal1D,
                    SampledSignal2D, evaluate, evaluate2, integrate, lp_norm,
                    make_grid, read_signal_csv, read_signal2_csv,
                    read_transform_csv, resample, signal_from_function,
                    signal2_from_function, write_signal_csv,
                    write_signal2_csv)

from covkit import checks, inversion, signals, transform
from covkit.signals import (_SNAP_TOL, _common_lattice, _Lattice,
                            _moved_reads, _parse_body, _plan, _product, _read,
                            _snap, _window, _write_table)

from conftest import (box, fmt_rows, force_fft, force_strided, gaussian,
                      random_signal)


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
@example(slope=1.0, icept=0.0, t=1e-12)
def test_affine_functions_interpolate_exactly(slope, icept, t):
    s = signal_from_function(lambda x: slope * x + icept, -2.0, 2.0, 0.25)
    x = -2.0 + 4.0 * t
    # a point within _SNAP_TOL cells of a node reads the node (`_snap`)
    cell = (x + 2.0) / 0.25
    if abs(cell - round(cell)) < _SNAP_TOL:
        x = -2.0 + 0.25 * round(cell)
    expected = slope * x + icept
    assert complex(evaluate(s, x)) == pytest.approx(expected, abs=1e-12)


def test_single_sample_signal():
    s = SampledSignal1D(0.5, 1.0, np.array([2.0 + 0j]))
    assert complex(evaluate(s, 0.5)) == 2.0 + 0j
    assert complex(evaluate(s, 0.6)) == 0.0


@pytest.mark.parametrize("x,k", [([math.nan], 0), ([0.3, 2.0, math.nan], 2),
                                 ([[0.1, math.nan], [0.2, 0.3]], 1)])
@pytest.mark.parametrize("n", [11, 1])
def test_evaluation_at_nan_names_the_point(x, k, n):
    s = signal_from_function(lambda x: x, 0.0, 0.1 * (n - 1), 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"nan \\(point {k} of"):
            evaluate(s, x)


def test_infinite_points_read_zero():
    s = signal_from_function(lambda x: x + 1.0, 0.0, 1.0, 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = evaluate(s, [-math.inf, 0.5, math.inf])
    assert got.tolist() == [0.0, 1.5, 0.0]


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


@pytest.mark.parametrize("x,y,k", [(math.nan, 0.5, 0), (0.5, math.nan, 0),
                                   ([0.1, 0.2, math.nan], 0.5, 2),
                                   (0.5, [[0.1, 0.2], [math.nan, 0.3]], 2)])
def test_plane_evaluation_at_nan_names_the_point(x, y, k):
    f = signal2_from_function(lambda x, y: x + 2.0 * y,
                              0.0, 1.0, 0.0, 1.0, 0.25)
    # moved frames pull the points back first: a shift makes 0 * inf and
    # a rotation inf - inf, and neither may turn into a nan
    for s in (f, SampledSignal2D(f.origin, f.dx, f.dy, f.values,
                                 EuclideanMotion(0.0, 0.3, -0.2)),
              SampledSignal2D(f.origin, f.dx, f.dy, f.values,
                              EuclideanMotion(0.8, 0.1, 0.2))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"nan \\(point {k} of"):
                evaluate2(s, x, y)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = evaluate2(s, [math.inf, 0.5, -math.inf, math.inf],
                            [0.5, math.inf, 0.5, -math.inf])
        assert got.tolist() == [0.0, 0.0, 0.0, 0.0]


def test_plane_validation():
    with pytest.raises(ValueError):
        SampledSignal2D((0, 0), -1.0, 1.0, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        SampledSignal2D((0, 0), 1.0, 1.0, np.zeros(4))


def evaluate2_reference(s, x, y):
    """evaluate2 as it was before it read through _cells: its own snap,
    clip and index arithmetic per axis."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    fx = _snap((x - s.origin[0]) / s.dx)
    fy = _snap((y - s.origin[1]) / s.dy)
    inside = (fx >= 0) & (fx <= s.nx - 1) & (fy >= 0) & (fy <= s.ny - 1)
    ix = np.clip(np.floor(fx).astype(int), 0, s.nx - 2 if s.nx > 1 else 0)
    iy = np.clip(np.floor(fy).astype(int), 0, s.ny - 2 if s.ny > 1 else 0)
    tx = np.clip(fx - ix, 0.0, 1.0)
    ty = np.clip(fy - iy, 0.0, 1.0)
    ix1 = np.minimum(ix + 1, s.nx - 1)
    iy1 = np.minimum(iy + 1, s.ny - 1)
    out = ((1 - ty) * ((1 - tx) * s.values[iy, ix] + tx * s.values[iy, ix1])
           + ty * ((1 - tx) * s.values[iy1, ix] + tx * s.values[iy1, ix1]))
    return np.where(inside, out, 0.0 + 0.0j)


@pytest.mark.parametrize("ny,nx", [(1, 1), (1, 6), (5, 1), (2, 2), (23, 31)])
def test_plane_evaluation_is_bit_identical_to_the_reference(ny, nx):
    # random points in and around the rectangle plus every lattice node,
    # on complex samples with signed zeros; axes one sample wide included
    rng = np.random.default_rng(ny * 100 + nx)
    vals = rng.normal(size=(ny, nx)) + 1j * rng.normal(size=(ny, nx))
    vals[0, 0] = complex(-0.0, -0.0)
    vals[-1, -1] = complex(0.0, -0.0)
    s = SampledSignal2D((-1.0, 0.5), 0.1, 0.2, vals)
    xs = np.concatenate((rng.uniform(-1.4, 1.4, 60), s.xs))
    ys = np.concatenate((rng.uniform(0.0, 6.0, 60), s.ys))
    X, Y = np.meshgrid(xs, ys)
    assert (evaluate2(s, X, Y).tobytes()
            == evaluate2_reference(s, X, Y).tobytes())


def test_moved_image_reads_bit_identical_to_the_reference():
    # a 501^2 image read at its own nodes turned by 0.3 rad and shifted,
    # as a Euclidean motion reads it; the corners fall outside
    s = signal2_from_function(
        lambda x, y: np.exp(-(x * x + 2.0 * y * y)) * (1.0 + 0.5j * x),
        -2.5, 2.5, -2.5, 2.5, 0.01)
    assert s.values.shape == (501, 501)
    X, Y = np.meshgrid(s.xs, s.ys)
    c, sn = math.cos(0.3), math.sin(0.3)
    x, y = c * X - sn * Y + 0.013, sn * X + c * Y - 0.021
    assert (evaluate2(s, x, y).tobytes()
            == evaluate2_reference(s, x, y).tobytes())


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


def test_a_moved_image_is_written_on_its_own_nodes(tmp_path):
    # the lattice nodes, read through the motion: what resampling the
    # image onto its own nodes wrote, bit for bit
    rng = np.random.default_rng(14)
    vals = rng.normal(size=(21, 17)) + 1j * rng.normal(size=(21, 17))
    s = SampledSignal2D((-1.0, -1.25), 0.125, 0.125, vals)
    g = EuclideanMotion(0.6, 0.2, -0.15)
    moved = SampledSignal2D(s.origin, s.dx, s.dy, s.values, g)
    X, Y = np.meshgrid(s.xs, s.ys)
    pts = g.inverse().transform_points(np.stack([X, Y], axis=-1))
    path = tmp_path / "moved.csv"
    write_signal2_csv(moved, path)
    back = read_signal2_csv(path)
    assert back.origin == s.origin and back.motion.is_identity()
    assert (back.values.tobytes()
            == evaluate2(s, pts[..., 0], pts[..., 1]).tobytes())


@pytest.mark.parametrize("text,message", [
    ("a,b,c\n1,2,3\n", "header"),
    ("x,re,im\n", "no samples"),
    ("x,re,im\n0,1,nope\n", "non-numeric"),
    ("x,re,im\n0,1,0\n1,1,0\n1.5,1,0\n", "uniformly spaced"),
    ("x,re,im\n1,1,0\n0,1,0\n", "increasing"),
    ("x,re,im\n0,1\n", "3 columns"),
    ("x,re,im\n0,1,0\n1,2\n2,3,0\n", "rows must have 3 columns"),
    ("x,re,im\n0,1,0\n1,2,0,0\n", "rows must have 3 columns"),
    ("x,re,im\n0,1,0\n1,nan,0\n", "non-finite"),
    ("x,re,im\n0,1,0\n1,1,inf\n", "non-finite"),
    ("x,re,im\n0,1,0\nnan,1,0\n", "non-finite"),
    ("x,re,im\n0,1,0\n# trailer\n", "non-numeric"),
    ("x,re,im\n\n\n", "no samples"),
    ("x,re,im\n   \n\t\n", "no samples"),
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
    ("x,y,re,im\n0,0,1,0\n1,0,1\n0,1,1,0\n", "rows must have 4 columns"),
    ("x,y,re,im\n# a comment\n0,0,1,0\n", "non-numeric"),
    ("x,y,re,im\n", "no samples"),
    ("x,y,re,im\n\n\n", "no samples"),
    ("x,y,re,im\n   \n\t\n", "no samples"),
    # rows x fastest that the one-pass read leaves to the float parse: a
    # text its parser rejects (float() takes 1_0), a NUL its text field
    # drops, and a text whose junk lies past the field
    ("x,y,re,im\n1_0,0,1,0\n2_0,0,1,0\n", "non-numeric"),
    ("x,y,re,im\n0\0,0,1,0\n1\0,0,1,0\n", "non-numeric"),
    ("x,y,re,im\n0,0,1,0\n1." + "0" * 30 + "zz,0,1,0\n", "non-numeric"),
    # and rows x fastest that it reads, with uneven steps
    ("x,y,re,im\n0,0,1,0\n1,0,1,0\n3,0,1,0\n", "x is not uniformly"),
    ("x,y,re,im\n0,0,1,0\n0,1,1,0\n0,3,1,0\n", "y is not uniformly"),
])
def test_signal2_csv_rejects_malformed(tmp_path, text, message):
    path = tmp_path / "bad2.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            read_signal2_csv(path)


def _parity_values(n: int) -> np.ndarray:
    """n * 2 float cells: signed zeros, subnormals, the least normal,
    +-1e308 and 17-digit values."""
    rng = np.random.default_rng(17)
    special = [0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308,
               1e308, -1e308, 0.1, 1.0 / 3.0, -2.0 / 3.0,
               123456789012345678.0, 9.8765432109876543e-17]
    cells = rng.normal(size=2 * n) * 10.0 ** rng.integers(-300, 300, 2 * n)
    cells[:len(special)] = special
    return cells.reshape(n, 2)


@pytest.mark.parametrize("end", ["\n", "\r\n"])
@pytest.mark.parametrize("tail", ["", "newline", "blank-lines"])
def test_csv_readers_return_written_cells_bit_for_bit(tmp_path, end, tail):
    def same_bits(got, want):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def save(name, text):
        if tail == "":
            text = text[:-len(end)]
        elif tail == "blank-lines":
            text += end * 3
        path = tmp_path / name
        path.write_bytes(text.encode())
        return path

    def write(name, head, table):
        path = save(name, "".join(line + end for line in head)
                    + fmt_rows(table, end))
        # what numpy reads from the path is what was written
        same_bits(_parse_body(path, len(head), table.shape[1]), table)
        return path

    cells = _parity_values(24)
    want = cells[:, 0] + 1j * cells[:, 1]
    xs = -1.5 + 0.25 * np.arange(24)
    s = read_signal_csv(write("s.csv", ["x,re,im"],
                              np.column_stack((xs, cells))))
    assert (s.x0, s.dx) == (-1.5, 0.25)
    same_bits(s.values, want)

    X, Y = np.meshgrid(xs[:6], xs[:4])
    s2 = read_signal2_csv(write("s2.csv", ["x,y,re,im"], np.column_stack(
        (X.ravel(), Y.ravel(), cells))))
    assert (s2.origin, s2.dx, s2.dy) == ((-1.5, -1.5), 0.25, 0.25)
    same_bits(s2.values.ravel(), want)

    # The same cells on a lattice through 0 and 1, in each layout the 2D
    # reader takes.  Rows x fastest as written or y fastest, padded or
    # not, take the one-pass read; other row orders, a coordinate spelled
    # two ways and texts wider than that read's text field take the
    # float parse.
    X, Y = np.meshgrid(xs[5:11], xs[6:10])
    rows = [line.split(",") for line in fmt_rows(np.column_stack(
        (X.ravel(), Y.ravel(), cells))).splitlines()]
    order = np.arange(24).reshape(4, 6)

    def spell(text, like, first):
        # the x text `like` spelled `text` from row `first` on
        return [[text] + r[1:] if k >= first and r[0] == like else r
                for k, r in enumerate(rows)]

    layouts = {
        "x fastest": (rows, True),
        "padded": ([[f" {c} " for c in r] for r in rows], True),
        "y fastest": ([rows[k] for k in order.T.ravel()], True),
        "y fastest, padded": ([[f" {c} " for c in rows[k]]
                               for k in order.T.ravel()], True),
        "y fastest, x descending": ([rows[k] for k in
                                     order[:, ::-1].T.ravel()], False),
        "x descending": ([rows[k] for k in order[:, ::-1].ravel()], False),
        "shuffled": ([rows[k] for k in
                      np.random.default_rng(18).permutation(24)], False),
        "1 beside 1.0": (spell("1.0", "1", 6), False),
        "-0 beside 0": (spell("-0", "0", 6), False),
        # 37-40 digits; cut to the field they would read -250, 0, ...
        "wider than a field": ([["%.36fe-3" % (1e3 * float(c)) for c in r[:2]]
                                + r[2:] for r in rows], False),
        # a text field takes only Latin-1, the float parse any whitespace
        "em space": ([["\u2003" + r[0]] + r[1:] for r in rows], False),
    }
    for name, (layout, one_pass) in layouts.items():
        path = save("layout.csv", "".join(",".join(r) + end for r in
                                          [["x", "y", "re", "im"]] + layout))
        assert (signals._one_pass(path) is not None) == one_pass, name
        s3 = read_signal2_csv(path)
        assert (s3.origin, s3.dx, s3.dy) == ((-0.25, 0.0), 0.25, 0.25), name
        same_bits(s3.values.ravel(), want)

    grid = make_grid("affine:a=log:0.5:4:4,b=lin:-1:1:6")
    w = read_transform_csv(write(
        "w.csv", [f"# covkit-transform rep=affine fiducial=jump "
                  f"grid={grid.spec}", "a,b,re_0,im_0"],
        np.column_stack((grid.coords, cells))))
    same_bits(w.values[:, 0], want)


# Peak traced memory of reading the benchmark's largest image, 241 x 241
# pixels: 5.45 MiB when every cell was parsed as a float, 6.5 MiB with
# the coordinates read as 32-byte texts
def test_signal2_csv_read_is_one_pass_with_bounded_memory(tmp_path,
                                                          monkeypatch):
    s = signal2_from_function(lambda x, y: (x ** 2 + y ** 2 <= 0.36) * 1.0,
                              -1.2, 1.2, -1.2, 1.2, 0.01)
    assert (s.nx, s.ny) == (241, 241)
    path = tmp_path / "disc.csv"
    write_signal2_csv(s, path)
    read, sources = np.loadtxt, []

    def loadtxt(fname, *args, **kwargs):
        sources.append(fname)
        return read(fname, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", loadtxt)
    tracemalloc.start()
    try:
        back = read_signal2_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 7.5 * 2 ** 20
    # the file once, then one line of its 241 + 241 distinct coordinates
    assert len(sources) == 2 and sources[0] == path
    assert len(sources[1]) == 1 and sources[1][0].count(b",") == 481
    assert (back.origin, back.values.tobytes()) == (s.origin,
                                                    s.values.tobytes())


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


def test_row_formatter_spells_cells_as_fmt(tmp_path, monkeypatch):
    # '%.17g' per block must give the bytes of _fmt per cell, signed
    # zeros, subnormals, huge values and non-finite cells included, at
    # the default block size and in blocks of 3 rows that split the table
    rng = np.random.default_rng(5)
    special = [0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300, 1.0 / 3.0,
               math.inf, -math.inf, math.nan, 123456789012345678.0]
    table = np.concatenate((
        rng.normal(size=(200, 4)) * 10.0 ** rng.integers(-300, 300, (200, 4)),
        np.array(special[:8]).reshape(2, 4),
        np.array(special[8:] + [-0.0]).reshape(1, 4)))
    path = tmp_path / "t.csv"
    for block in (signals._CSV_BLOCK_ROWS, 3):
        monkeypatch.setattr(signals, "_CSV_BLOCK_ROWS", block)
        _write_table(path, list("abcd"), table.T, end="\r\n")
        assert path.read_bytes() == ("a,b,c,d\r\n" + fmt_rows(
            table, "\r\n")).encode()
        # with a comment line and row prefixes
        _write_table(path, list("pabcd"), table.T,
                     prefix=lambda lo, hi: [f"<{k}>," for k in range(lo, hi)],
                     comment="kind key=value n=3")
        assert path.read_text() == "# covkit-kind key=value n=3\np,a,b,c,d\n" \
            + "".join(f"<{k}>," + line for k, line in enumerate(
                fmt_rows(table).splitlines(True)))


# ---------------------------------------------------------------------------
# The complex product in parts


@pytest.mark.parametrize("nx,ny", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_product_of_parts_is_the_products_formed_by_hand(nx, ny):
    # a part an operand does not carry is exactly 0, so
    # (x0 + i x1)(y0 + i y1) keeps only the terms of the parts carried
    rng = np.random.default_rng(21)
    x, y = rng.normal(size=(nx, 50)), rng.normal(size=(ny, 50))
    x1 = x[1] if nx > 1 else 0.0
    y1 = y[1] if ny > 1 else 0.0
    want = {(1, 1): [x[0] * y[0]],
            (1, 2): [x[0] * y[0], x[0] * y1],
            (2, 1): [x[0] * y[0], x1 * y[0]],
            (2, 2): [x[0] * y[0] - x1 * y1, x[0] * y1 + x1 * y[0]]}[nx, ny]
    # the table of real products as a nested list and as one array
    table = [[xj * yk for yk in y] for xj in x]
    for p in (table, np.array(table)):
        got = _product(p)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            same_bits(g, w)
    # the parts of the complex product, within its rounding
    z = (x[0] + 1j * x1) * (y[0] + 1j * y1)
    im = got[1] if len(got) > 1 else 0.0
    assert np.max(np.abs(got[0] + 1j * im - z)) <= 1e-14


# ---------------------------------------------------------------------------
# Moved vacua on a lattice of differences


@pytest.mark.parametrize("scale", [0.8, -0.8])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_moved_vacuum_reads_only_its_window_bit_for_bit(kind, scale):
    # synthesis reads v0(w / ae) at increasing positions w, analysis
    # v0(-u / ae), a scale of -ae.  The vacuum's window ends 0.4
    # _SNAP_TOL cells inside the images of lattice positions 100 and
    # 260, which _snap reads as its end samples.
    lattice = _Lattice(-2.0, 0.01, 101, 3, 41, 2)
    assert lattice.length == 381
    x = lattice.positions() / scale
    lo, hi = sorted((x[100], x[260]))
    n = 41
    tiny = 0.4 * _SNAP_TOL * (hi - lo) / (n - 1)
    rng = np.random.default_rng(4)
    vals = rng.normal(size=n)
    if kind == "complex":
        vals = vals + 1j * rng.normal(size=n)
    v0 = SampledSignal1D(lo + tiny, (hi - lo - 2 * tiny) / (n - 1), vals)
    got = lattice.moved_vacuum(v0, scale)
    want = evaluate(v0, x)
    # one row of parts per row of v0.parts: a real vacuum samples
    # evaluate's real part alone, beside an imaginary part of exact zeros
    assert got.dtype == float and got.shape == (len(v0.parts), 381)
    same_bits(got[0], want.real)
    if kind == "real":
        assert not want.imag.any()
    else:
        same_bits(got[1], want.imag)
    first, last = (0, -1) if scale > 0 else (-1, 0)
    assert got[0, 100] == v0.values[first].real
    assert got[0, 260] == v0.values[last].real
    assert not got[:, 99].any() and not got[:, 261].any()


def test_a_nan_window_bound_takes_every_position():
    # under a scale of 1e305 both ends of v0's window and the slack
    # overflow to inf, so the first bound is inf - inf; under a scale of
    # 1 the window lies past every position
    v0 = SampledSignal1D(1e19, 1e18, np.ones(91))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _window(v0, 1e305, 0.0, -1.0, 0.01, 201) == (0, 201)
        lo, hi = _window(v0, np.array([1e305, 1.0]), np.zeros(2), -1.0,
                         0.01, 201)
    assert lo.tolist() == [0, 201] and hi.tolist() == [201, 201]


# ---------------------------------------------------------------------------
# The read kernel against the complex read


def complex_read(s, x):
    """The read `_read` replaced: complex samples times the fraction cast
    to complex, v[i] (1 - frac) + v[i + 1] frac, and 0 outside; the
    one-sample rule of `evaluate` on a one-sample signal."""
    x = np.asarray(x, dtype=float)
    if s.n < 2:
        return evaluate(s, x)
    t = _snap((x - s.x0) / s.dx)
    inside = (t >= 0.0) & (t <= s.n - 1)
    t = np.clip(t, 0.0, s.n - 1.0)
    i = np.minimum(t.astype(np.intp), s.n - 2)
    frac = t - i
    out = s.values[i] * (1.0 - frac) + s.values[i + 1] * frac
    out[~inside] = 0.0
    return out


def same_bits(got, want):
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def read_kernel_cases():
    """A target of 601 nodes on [-3, 3] and nine elements moving a vacuum
    window [-2 - tiny, 1 + tiny] onto it.  Sorted by run length: three
    runs from node 0 (401, 381 and 361 nodes), then the run of (1, 0),
    whose nodes 100 and 400 map 0.4 _SNAP_TOL cells outside the window
    and read its end samples, two runs cut off at the last node, and
    three short runs inside."""
    target = SampledSignal1D(-3.0, 0.01, np.ones(601))
    a = np.array([4.0, 4.0, 4.0, 1.0, 0.5, 0.4, 0.2, 0.25, 0.3])
    b = np.array([-3.0, -3.2, -3.4, 0.0, 2.9, 2.8, 0.3, -1.0, 1.4])
    lo, hi = target.xs[100], target.xs[400]
    n = 31
    tiny = 0.4 * _SNAP_TOL * (hi - lo) / (n - 1)
    return target, a, b, (lo - tiny, (hi - lo + 2 * tiny) / (n - 1)), n


# Blocks of at most 16384 points read all nine runs as one ragged block
# padded past node 600; 1203 points (three runs of 401) read the runs
# from node 0 as a dense block, then the next three as a ragged block
# padded past node 600; 7 points read every run in pieces.
@pytest.mark.parametrize("budget,blocks", [
    (None, {"ragged", "pad"}), (1203, {"dense", "ragged", "pad"}),
    (7, {"ragged", "pieces"})], ids=["16384", "1203", "7"])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_moved_reads_are_the_complex_read_bit_for_bit(kind, budget, blocks,
                                                      monkeypatch):
    # a real vacuum reads one real row, the real part of the complex
    # read; a complex one reads its two parts
    if budget is not None:
        monkeypatch.setattr(signals, "_RUN_BLOCK_POINTS", budget)
    target, a, b, (x0, dx), n = read_kernel_cases()
    rng = np.random.default_rng(11)
    vals = rng.normal(size=n)
    if kind == "complex":
        vals = vals + 1j * rng.normal(size=n)
    v0 = SampledSignal1D(x0, dx, vals)
    xs = np.append(target.xs, math.inf)
    seen, hits, reads = set(), np.zeros(a.size), np.zeros(a.size)
    edge = {}  # node -> read of the element (1, 0)
    plan = _plan(a, b, None, target, v0)
    for rows, cols, u in _moved_reads(v0, target, a, b, plan):
        assert u.shape[0] == (1 if kind == "real" else 2)
        x = (xs[cols] - b[rows, None]) / a[rows, None]
        want = complex_read(v0, x)
        same_bits(u[0], want.real)
        if kind == "real":
            assert not want.imag.any()
        else:
            same_bits(u[1], want.imag)
        seen.add("dense" if isinstance(cols, slice) else "ragged")
        if not isinstance(cols, slice) and np.any(cols == target.n):
            seen.add("pad")
        hits[rows] += 1
        reads[rows] += np.count_nonzero(u[0], axis=1)
        if 3 in rows:
            i = list(rows).index(3)
            nodes = (np.arange(xs.size)[cols] if isinstance(cols, slice)
                     else cols[i])
            edge.update(zip(nodes.tolist(), u[0, i].tolist()))
    if np.any(hits > 1):
        seen.add("pieces")
    assert seen == blocks
    # every element reads its whole run, in one block or in pieces
    assert reads.tolist() == [np.count_nonzero(
        complex_read(v0, (target.xs - be) / ae).real)
        for ae, be in zip(a, b)]
    # the run of (1, 0) reads v0's end samples at nodes 100 and 400
    assert reads[3] == 301
    assert (edge[100], edge[400]) == (vals.real[0], vals.real[-1])


def strided_views(monkeypatch) -> list:
    """Copies of the views `_Lattice.strided` multiplies, in call order
    (it calls np.matmul; the @ of other sums does not)."""
    views = []
    matmul = np.matmul

    def spy(x, y, *args, **kwargs):
        views.append(np.array(x))
        return matmul(x, y, *args, **kwargs)
    monkeypatch.setattr(np, "matmul", spy)
    return views


def strided_blocks(lattice, v0, scale):
    """(i0, i1, k0, k1) of each product `_Lattice.strided` forms, and
    the lattice positions each reads, [i, k] -> lead + i step_out -
    k step_in."""
    blocks = [blk for blk in zip(*(x.tolist() for x in lattice.bands(
        *lattice.window(v0, scale)))) if blk[3] > blk[2]]
    at = [lattice.lead + np.arange(i0, i1)[:, None] * lattice.step_out
          - np.arange(k0, k1) * lattice.step_in for i0, i1, k0, k1 in blocks]
    return blocks, at


# On 601 nodes of step 0.01, a b axis of step 30/7 nodes shares a
# lattice of step 0.01/7 with them (30, 7), so each of the three
# dilations sums strided products of a table of at most 5601 points when
# the FFT declines them and the strided path is forced.  Synthesis reads
# its tables on the lattice of x - b at scale a (rows: nodes, terms: b);
# analysis ("-analysis") on that of b - x at scale -a (rows: b, terms:
# nodes), whose positions are the negated ones, so both read the same
# bits.  The tables are sampled in blocks of 2^14 or 100 points.
@pytest.mark.parametrize("budget", [None, 100], ids=["16384", "100"])
@pytest.mark.parametrize("kind,onto_nodes", [
    pytest.param(kind, onto, id=kind + ("" if onto else "-analysis"))
    for kind in ("real", "complex") for onto in (True, False)])
def test_table_reads_are_the_lattice_samples_bit_for_bit(kind, onto_nodes,
                                                         budget,
                                                         monkeypatch):
    if budget is not None:
        monkeypatch.setattr(signals, "_RUN_BLOCK_POINTS", budget)
    force_fft(monkeypatch, every=False)
    target = SampledSignal1D(-3.0, 0.01, np.ones(601))
    grid = make_grid("affine:a=log:0.3:4:3,b=lin:-3:3:141")
    a, b = grid.coords.T
    _, b_axis, idx = grid.dilation_rows()
    h, kb, kx, length = _common_lattice(b_axis, target.x0, target.dx,
                                        target.n)
    assert (kb, kx, length) == (30, 7, 8401)
    rng = np.random.default_rng(6)
    vals = rng.normal(size=41)
    if kind == "complex":
        vals = vals + 1j * rng.normal(size=41)
    v0 = SampledSignal1D(-1.0, 0.05, vals)
    plan = _plan(a, b, (b_axis, idx), target, v0, None, onto_nodes,
                 strided=True)
    assert not plan.fft and len(plan.strided) == 3 and not plan.direct.size
    lattice = plan.lattice
    views = strided_views(monkeypatch)
    for row, scale in plan.strided:
        assert scale == (a[row[0]] if onto_nodes else -a[row[0]])
        # every position of the lattice, and zeros past either end
        want = np.pad(lattice.moved_vacuum(v0, scale), ((0, 0), (1, 1)))
        views.clear()
        lattice.strided(v0, scale, np.ones((lattice.m, 1)))
        blocks, at = strided_blocks(lattice, v0, scale)
        assert len(views) == len(blocks) > 1
        covered = np.zeros((lattice.n, lattice.m), dtype=bool)
        for view, pos, (i0, i1, k0, k1) in zip(views, at, blocks):
            assert view.shape == (len(v0.parts),) + pos.shape
            same_bits(view, want[:, np.clip(pos, -1, length) + 1])
            covered[i0:i1, k0:k1] = True
        # every nonzero sample a row reads lies in its block's band
        rows, terms = np.nonzero(covered == 0)
        pos = lattice.lead + rows * lattice.step_out - terms * lattice.step_in
        assert not want[:, pos + 1].any()


@pytest.mark.parametrize("side", ["analysis", "synthesis"])
def test_strided_blocks_read_zeros_past_both_window_edges(side, paths,
                                                          monkeypatch):
    # blocks of 3 rows: a block's band holds the terms of all its rows,
    # so its first row reads past the low end of the table's window and
    # its last row past the high end, both into the table's zero padding
    monkeypatch.setattr(signals._Lattice, "block_rows", lambda self: 3)
    force_fft(monkeypatch, every=False)
    force_strided(monkeypatch)
    f = signal_from_function(lambda x: np.exp(-(x - 0.7) ** 2 + 3j * x),
                             -3.0, 3.0, 0.01)
    grid = make_grid("affine:a=log:0.3:4:3,b=lin:-3:3:141")
    a, b = grid.coords.T
    _, b_axis, idx = grid.dilation_rows()
    v0 = signal_from_function(lambda x: (1.0 - x ** 2) * (1.0 + 0.5j * x),
                              -1.0, 1.0, 0.05)
    views = strided_views(monkeypatch)
    if side == "analysis":
        got = transform._inner_rows(v0, f, a, b, np.ones(a.size),
                                    (b_axis, idx))
        want = transform._inner_rows(v0, f, a, b, np.ones(a.size))
    else:
        coef = np.random.default_rng(5).normal(size=a.size) + 0.5j
        got = inversion._synthesize(v0, f, a, b, coef, (b_axis, idx))
        want = checks._per_element_synthesis(v0, f, a, b, coef)
    plan = paths.plans[0][1]
    assert len(plan.strided) == 3
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    both = 0
    for row, scale in plan.strided:
        start, stop = plan.lattice.window(v0, scale)
        for pos in strided_blocks(plan.lattice, v0, scale)[1]:
            both += pos.min() < start and pos.max() >= stop
    assert both and len(views) == sum(
        len(strided_blocks(plan.lattice, v0, scale)[0])
        for row, scale in plan.strided)


def test_a_one_sample_vacuum_reads_its_node_in_blocks():
    # the node at 0.5 is read only where an image lands on it exactly
    target = SampledSignal1D(-2.0, 0.25, np.ones(17))
    a = np.array([0.5, 0.25, 1.0, 3.0, 1.0])
    b = np.array([0.25, -1.0, 0.0, 0.1, 0.3])
    for vals in ([2.0], [2.0 - 1j]):
        v0 = SampledSignal1D(0.5, 1.0, np.array(vals, dtype=complex))
        xs = np.append(target.xs, math.inf)
        total = 0
        plan = _plan(a, b, None, target, v0)
        for rows, cols, u in _moved_reads(v0, target, a, b, plan):
            want = evaluate(v0, (xs[cols] - b[rows, None]) / a[rows, None])
            same_bits(u[0], want.real)
            if u.shape[0] == 2:
                same_bits(u[1], want.imag)
            total += np.count_nonzero(u[0])
        assert total == 2 == sum(
            np.count_nonzero(evaluate(v0, (target.xs - be) / ae))
            for ae, be in zip(a, b))


def test_the_read_kernel_reads_infinities_as_positive_zero():
    parts = np.array([[1.0, -2.0, 3.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _read(parts, 0.0, 0.5, np.array([-math.inf, 0.25, math.inf]))
    assert got.tolist() == [[0.0, -0.5, 0.0]]
    assert np.signbit(got).tolist() == [[False, True, False]]
    with pytest.raises(ValueError, match=r"nan \(point 1 of 3\)"):
        _read(parts, 0.0, 0.5, np.array([0.0, math.nan, 1.0]))


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_evaluate_is_the_complex_read_bit_for_bit(kind):
    rng = np.random.default_rng(12)
    vals = rng.normal(size=200)
    if kind == "complex":
        vals = vals + 1j * rng.normal(size=200)
    s = SampledSignal1D(-1.0, 0.01, vals)
    # nodes, points between them, window edges and points outside
    x = np.concatenate((s.xs, rng.uniform(-1.2, 1.2, 500),
                        [s.x0 - 1e-12, s.x_end + 1e-12, -math.inf]))
    same_bits(evaluate(s, x), complex_read(s, x))
    assert np.all(evaluate(s, x)[-3:] == [vals[0], vals[-1], 0.0])
