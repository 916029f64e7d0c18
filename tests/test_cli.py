import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import covkit

from covkit import (AffineRep, Fiducial, UnitaryOrbit, covariant_transform,
                    hardy_grid, line_motion, make_grid, numerical_range_hull,
                    numrange_transform, parse_a_sequence, radon_values,
                    read_matrix_json, read_signal_csv, read_signal2_csv,
                    read_transform_csv, read_vector_json, signal_from_function,
                    signal2_from_function, write_matrix_json,
                    write_signal_csv, write_signal2_csv, write_transform_csv,
                    write_vector_json)
from covkit import cli, signals
from covkit.cli import main
from covkit.operators import _numrange
from covkit.signals import _fmt

from conftest import box, fmt_rows, gaussian, mexican_hat


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Shared input files plus one precomputed wavelet transform."""
    root = tmp_path_factory.mktemp("cli")
    paths = {}

    def put(name, writer, *args):
        paths[name] = str(root / name)
        writer(*args, paths[name]) if name.endswith(".csv") else writer(
            paths[name], *args)
        return paths[name]

    put("smooth.csv", write_signal_csv,
        signal_from_function(lambda x: np.exp(-x ** 2 / 2.0), -15.0, 15.0,
                             0.02))
    put("box.csv", write_signal_csv, box(lo=-4.0, hi=4.0, dx=0.01))
    put("disc.csv", write_signal2_csv, signal2_from_function(
        lambda x, y: np.where(x ** 2 + y ** 2 <= 1.0, 1.0, 0.0),
        -1.2, 1.2, -1.2, 1.2, 0.02))
    dog = signal_from_function(
        lambda x: np.exp(-x ** 2 / 2.0) - 0.5 * np.exp(-x ** 2 / 8.0),
        -12.0, 12.0, 0.02)
    put("dog.csv", write_signal_csv, dog)
    put("mexhat.csv", write_signal_csv, mexican_hat())
    put("gauss.csv", write_signal_csv, gaussian())
    w = covariant_transform(
        AffineRep(2.0), Fiducial("inner", v0=mexican_hat()), dog,
        make_grid("affine:a=log:0.12:6:40,b=lin:-12:12:481"))
    put("wdog.csv", write_transform_csv, w)

    put("a.json", write_matrix_json,
        np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex))
    put("zero.json", write_matrix_json, np.zeros((2, 2), dtype=complex))
    put("big.json", write_matrix_json, np.diag([1.2, 0.3]).astype(complex))
    put("h.json", write_matrix_json,
        np.array([[1.0, 0.5], [0.5, -1.0]], dtype=complex))
    put("e1.json", write_vector_json, np.array([1.0, 0.0], dtype=complex))
    put("long.json", write_vector_json, np.array([2.0, 0.0], dtype=complex))
    paths["root"] = str(root)
    return paths


def test_help_exits_cleanly():
    with pytest.raises(SystemExit) as err:
        main(["--help"])
    assert err.value.code == 0


def test_subcommand_is_required(capsys):
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2
    capsys.readouterr()


def test_main_builds_its_parser_once(tmp_path, capsys):
    a = 0.3 * np.random.default_rng(9).normal(size=(4, 4)).astype(complex)
    matrix = str(tmp_path / "a.json")
    write_matrix_json(matrix, a)
    ops = [["mobius", "--alpha", repr(5.0 / 3.0), "--beta", repr(4.0 / 3.0),
            "--matrix", matrix, "--out", str(tmp_path / "m1.json")],
           ["mobius", "--alpha", "1.25", "--beta", "0.75j",
            "--matrix", matrix, "--out", str(tmp_path / "m2.json")]]
    cli._build_parser.cache_clear()
    outputs = []
    for k, argv in enumerate(ops):
        if k:
            with pytest.raises(SystemExit) as err:
                main(["mobius", "--alpha", "1"])
            assert err.value.code == 2
            capsys.readouterr()
        assert main(argv) == 0
        outputs.append((capsys.readouterr().out, open(argv[-1], "rb").read()))
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    # each op again in a process of its own
    src = os.path.dirname(os.path.dirname(covkit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for argv, (out, data) in zip(ops, outputs):
        os.remove(argv[-1])
        fresh = subprocess.run([sys.executable, "-m", "covkit"] + argv,
                               capture_output=True, text=True, env=env,
                               check=True)
        assert fresh.stdout == out
        assert open(argv[-1], "rb").read() == data


def test_a_reused_parser_starts_each_parse_from_the_defaults(monkeypatch,
                                                             capsys):
    seen = []

    def run_suites(suites, seed):
        seen.append(suites)
        return {"passed": True, "seed": seed}

    monkeypatch.setattr(cli, "run_suites", run_suites)
    assert main(["check", "--suite", "groups"]) == 0
    assert main(["check"]) == 0
    assert seen == [("groups",), ("all",)]
    parser = cli._build_parser()
    assert parser.parse_args(["check", "--suite", "groups"]).suite == \
        ["groups"]
    assert parser.parse_args(["check"]).suite is None
    capsys.readouterr()


# ---------------------------------------------------------------------------
# transform


def test_transform_writes_a_readable_table(files, tmp_path, capsys):
    out = str(tmp_path / "w.csv")
    rc = main(["transform", "--group", "affine", "--fiducial", "cauchy+",
               "--signal", files["smooth.csv"],
               "--grid", "affine:a=log:0.1:10:32,b=lin:-5:5:128",
               "--out", out])
    assert rc == 0
    assert "4096 rows" in capsys.readouterr().out
    back = read_transform_csv(out)
    assert back.values.shape == (4096, 1)
    assert back.meta["fiducial"] == "cauchy+"


@pytest.mark.parametrize("patch,code", [
    ({"--grid": "affine:a=log:0.1"}, 2),
    ({"--grid": "e2:theta=lin:0:1:2,tx=lin:0:1:2,ty=lin:0:1:2"}, 2),
    ({"--grid": "affine:a=log:0.5:2:2,b=lin:nan:1:2"}, 2),
    ({"--grid": "affine:a=log:0.5:inf:2,b=lin:-1:1:5"}, 2),
    ({"--grid": "affine:a=lin:-1:1:3,b=lin:-1:1:5"}, 2),
    # a Haar density a**-2 beyond the largest float
    ({"--grid": "affine:a=log:1e-320:1:3,b=lin:0:1:3"}, 2),
    ({"--signal": "no-such-file.csv"}, 2),
    ({"--fiducial": "blur"}, 2),
    ({"--fiducial": "combo:x:1"}, 2),
    ({"--fiducial": "inner:no-such-file.csv"}, 2),
    ({"--p": "0.5"}, 2),
])
def test_transform_usage_errors(files, tmp_path, capsys, patch, code):
    args = {"--group": "affine", "--fiducial": "cauchy+",
            "--signal": files["smooth.csv"],
            "--grid": "affine:a=log:0.5:2:3,b=lin:-1:1:5",
            "--out": str(tmp_path / "w.csv")}
    args.update(patch)
    rc = main(["transform"] + [s for kv in args.items() for s in kv])
    assert rc == code
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("sample", ["nan", "inf"])
def test_transform_rejects_non_finite_samples(tmp_path, capsys, sample):
    sig = tmp_path / "bad.csv"
    sig.write_text(f"x,re,im\n-2,0,0\n-1,1,0\n0,{sample},0\n1,1,0\n2,0,0\n")
    out = tmp_path / "w.csv"
    rc = main(["transform", "--group", "affine", "--fiducial", "cauchy+",
               "--signal", str(sig),
               "--grid", "affine:a=log:0.5:2:3,b=lin:-1:1:5", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "signals.read_signal_csv:" in err and "non-finite" in err
    assert not out.exists()
    # an image names the 2D reader
    image = tmp_path / "bad2.csv"
    image.write_text(f"x,y,re,im\n0,0,1,0\n1,0,{sample},0\n")
    rc = main(["transform", "--group", "e2", "--fiducial", "radonline",
               "--signal", str(image),
               "--grid", "e2:theta=lin:0:1:2,tx=lin:0:0:1,ty=lin:0:0:1",
               "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "signals.read_signal2_csv:" in err and "non-finite" in err
    assert not out.exists()
    # so does the vacuum of an inner fiducial
    ok = tmp_path / "ok.csv"
    ok.write_text("x,re,im\n-2,0,0\n-1,1,0\n0,1,0\n1,1,0\n2,0,0\n")
    rc = main(["transform", "--group", "affine", "--fiducial",
               f"inner:{sig}", "--signal", str(ok),
               "--grid", "affine:a=log:0.5:2:3,b=lin:-1:1:5", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "signals.read_signal_csv:" in err and "non-finite" in err
    assert not out.exists()


@pytest.mark.parametrize("argv,option", [
    (["transform", "--group", "e2", "--fiducial", "radonline",
      "--signal", "{image}", "--grid", "garbage"], "grid spec"),
    (["radon", "--signal", "{image}", "--grid", "garbage"], "grid spec"),
    (["radon", "--signal", "{image}", "--thetas", "garbage",
      "--offsets", "lin:-0.9:0.9:7"], "thetas"),
    (["radon", "--signal", "{image}", "--thetas", "lin:0:3:4",
      "--offsets", "lin:-0.9:0.9"], "offsets"),
    (["reconstruct", "--route", "haar", "--transform", "{table}",
      "--vacuum", "{signal}", "--p", "garbage"], "p must be"),
    (["reconstruct", "--route", "hardy", "--transform", "{table}",
      "--vacuum", "{signal}", "--a-sequence", "garbage"], "a-sequence"),
    # the Haar route takes no dilation sequence
    (["reconstruct", "--route", "haar", "--transform", "{table}",
      "--vacuum", "{signal}", "--a-sequence", "geo:0.5:0.5:4"], "a-sequence"),
    (["numrange", "--matrix", "{signal}", "--hermitian", "{signal}",
      "--x", "{signal}", "--t-grid", "garbage"], "t-grid"),
    (["maximal", "--signal", "{signal}", "--a-grid", "garbage",
      "--b-grid", "lin:-1:1:5"], "'a=garbage'"),
    (["maximal", "--signal", "{signal}", "--a-grid", "log:0.5:2:3",
      "--b-grid", "log:0.5:4:8"], "is not lin"),
    (["maximal", "--signal", "{signal}", "--a-grid", "lin:-1:1:3",
      "--b-grid", "lin:-1:1:5"], "dilations must be positive"),
])
def test_a_malformed_spec_is_named_before_any_input_is_read(tmp_path, capsys,
                                                            argv, option):
    # every input is non-numeric, so reading one first would exit 1
    names = {}
    for name, text in (("image", "x,y,re,im\nzero,0,1,0\n"),
                       ("signal", "x,re,im\nzero,1,0\n"),
                       ("table", "# covkit-transform rep=affine fiducial=jump "
                                 "grid=affine:a=log:1:2:2,b=lin:0:1:2\n"
                                 "a,b,re_0,im_0\nzero,0,1,0\n")):
        names[name] = str(tmp_path / f"{name}.csv")
        with open(names[name], "w") as fh:
            fh.write(text)
    out = tmp_path / "out.csv"
    rc = main([a.format(**names) for a in argv] + ["--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "usage error" in err[0] and option in err[0]
    assert not out.exists()


@pytest.mark.parametrize("at", ["header", "row 1000"])
@pytest.mark.parametrize("kind", ["signal", "signal2", "transform"])
def test_an_undecodable_csv_exits_1_naming_the_file(files, tmp_path, capsys,
                                                    kind, at):
    # a Latin-1 byte in the header, or in a row far past the block the
    # header is read from
    src, head, argv = {
        "signal": ("smooth.csv", 0, ["maximal", "--a-grid", "log:0.5:2:3",
                                     "--b-grid", "lin:-1:1:5", "--signal"]),
        "signal2": ("disc.csv", 0, ["radon", "--thetas", "lin:0:3:4",
                                    "--offsets", "lin:-0.9:0.9:7",
                                    "--signal"]),
        "transform": ("wdog.csv", 1, ["reconstruct", "--route", "haar",
                                      "--vacuum", files["mexhat.csv"],
                                      "--out", str(tmp_path / "rec.csv"),
                                      "--transform"]),
    }[kind]
    lines = open(files[src], "rb").read().splitlines(True)
    k = head if at == "header" else 1000
    lines[k] = b"\xe9" + lines[k]
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"".join(lines))
    out = tmp_path / "out.csv"
    argv = argv + [str(bad)] + (["--out", str(out)] if kind != "transform"
                                else [])
    assert main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert f"{bad}: " in err[0] and "can't decode" in err[0]
    assert not out.exists() and not (tmp_path / "rec.csv").exists()


# ---------------------------------------------------------------------------
# maximal


def test_maximal_box_profile(files, tmp_path):
    out = str(tmp_path / "m.csv")
    rc = main(["maximal", "--signal", files["box.csv"],
               "--a-grid", "log:0.05:20:200", "--b-grid", "lin:-4:4:161",
               "--out", out])
    assert rc == 0
    m = read_signal_csv(out)
    at0 = float(np.interp(0.0, m.xs, m.values.real))
    at2 = float(np.interp(2.0, m.xs, m.values.real))
    assert at0 == pytest.approx(1.0, abs=0.02)
    assert at2 == pytest.approx(1.0 / 3.0, abs=0.02)


@pytest.mark.parametrize("flag,spec", [
    ("--a-grid", "lin:-1:1:3"),
    ("--a-grid", "log:0.5:inf:3"),
    ("--a-grid", "log:1e-300:1:4"),
    ("--a-grid", "log:0.5:2"),
    ("--b-grid", "lin:-4:4"),
    ("--b-grid", "lin:-4:4:100000000"),
    ("--b-grid", "log:0.5:4:8"),
])
def test_maximal_usage_errors(files, tmp_path, capsys, flag, spec):
    args = {"--signal": files["box.csv"], "--a-grid": "log:0.5:2:3",
            "--b-grid": "lin:-1:1:5", "--out": str(tmp_path / "m.csv")}
    args[flag] = spec
    rc = main(["maximal"] + [s for kv in args.items() for s in kv])
    assert rc == 2
    assert "usage error" in capsys.readouterr().err
    assert not (tmp_path / "m.csv").exists()


# ---------------------------------------------------------------------------
# radon


def test_radon_sinogram(files, tmp_path):
    out = str(tmp_path / "sino.csv")
    rc = main(["radon", "--signal", files["disc.csv"],
               "--thetas", "lin:0:3:4", "--offsets", "lin:-0.9:0.9:7",
               "--out", out])
    assert rc == 0
    lines = open(out).read().splitlines()
    assert lines[0].startswith("# covkit-sinogram")
    assert lines[1] == "theta,offset,re,im"
    assert len(lines) == 2 + 4 * 7
    rows = [line.split(",") for line in lines[2:]]
    center = [float(r[2]) for r in rows if abs(float(r[1])) < 1e-12]
    assert len(center) == 4
    for v in center:
        assert v == pytest.approx(2.0, abs=0.05)


def test_radon_grid_mode(files, tmp_path):
    out = str(tmp_path / "r.csv")
    rc = main(["radon", "--signal", files["disc.csv"],
               "--grid", "e2:theta=lin:0:1:2,tx=lin:0:0:1,ty=lin:-0.5:0.5:3",
               "--out", out])
    assert rc == 0
    assert read_transform_csv(out).values.shape == (6, 1)


def test_radon_mode_exclusivity(files, tmp_path, capsys):
    base = ["radon", "--signal", files["disc.csv"],
            "--out", str(tmp_path / "r.csv")]
    both = base + ["--grid", "e2:theta=lin:0:1:2,tx=lin:0:0:1,ty=lin:0:0:1",
                   "--thetas", "lin:0:1:2"]
    assert main(both) == 2
    assert main(base) == 2
    assert main(base + ["--thetas", "lin:0:1:2"]) == 2
    capsys.readouterr()


def test_radon_rejects_a_dilation_grid(files, tmp_path, capsys):
    rc = main(["radon", "--signal", files["disc.csv"],
               "--grid", "affine:a=log:0.5:2:3,b=lin:-1:1:5",
               "--out", str(tmp_path / "r.csv")])
    assert rc == 1
    assert "radon_transform" in capsys.readouterr().err


def test_radon_rejects_a_repeated_point(tmp_path, capsys):
    # a 3 x 2 lattice whose (2, 1) row repeats (0, 1): the row count still
    # matches nx * ny, and the (2, 1) cell would be left unfilled
    path = tmp_path / "dup.csv"
    path.write_text("x,y,re,im\n0,0,1,0\n1,0,2,0\n2,0,3,0\n"
                    "0,1,4,0\n1,1,5,0\n0,1,4,0\n")
    out = tmp_path / "sino.csv"
    rc = main(["radon", "--signal", str(path), "--thetas", "lin:0:3:4",
               "--offsets", "lin:-0.9:0.9:7", "--out", str(out)])
    assert rc == 1
    assert "(0.0, 1.0) repeats" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode", [
    ["radon", "--thetas", "lin:0:3:4", "--offsets", "lin:-0.9:0.9:7"],
    ["radon", "--grid", "e2:theta=lin:0:1:2,tx=lin:0:0:1,ty=lin:1:1:1"],
    ["transform", "--group", "e2", "--fiducial", "radonline",
     "--grid", "e2:theta=lin:0:1:2,tx=lin:0:0:1,ty=lin:1:1:1"],
])
def test_radon_rejects_a_window_that_misses_y_0(tmp_path, capsys, mode):
    # a disc centred at (0, 1) on y in [0.5, 1.5]: the line y = 1 crosses
    # it, but the lines are read along the moved x-axis, which the window
    # misses, so no all-zero table may come out
    path = str(tmp_path / "high.csv")
    write_signal2_csv(signal2_from_function(
        lambda x, y: np.where(x ** 2 + (y - 1.0) ** 2 <= 0.25, 1.0, 0.0),
        -1.0, 1.0, 0.5, 1.5, 0.05), path)
    out = tmp_path / "r.csv"
    rc = main(mode + ["--signal", path, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "y window [0.5, 1.5] does not contain y = 0" in err
    assert not out.exists()


@pytest.mark.parametrize("thetas,offsets,label", [
    ("lin:0:3:1000000000000", "lin:-0.9:0.9:7", "thetas"),
    ("lin:0:3:4", "lin:-0.9:0.9:1000001", "offsets"),
    # each axis within the limit, their 2,000,000 lines beyond it
    ("lin:0:3:2000", "lin:-0.9:0.9:1000", "the sinogram"),
])
def test_radon_rejects_an_oversized_sinogram(files, tmp_path, capsys,
                                             thetas, offsets, label):
    out = tmp_path / "sino.csv"
    rc = main(["radon", "--signal", files["disc.csv"], "--thetas", thetas,
               "--offsets", offsets, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert f"{label} has" in err[0] and "limit of 1000000" in err[0]
    assert not out.exists()


# ---------------------------------------------------------------------------
# numrange and mobius


def test_numrange_writes_orbit_and_hull(files, tmp_path):
    out, hull = str(tmp_path / "n.csv"), str(tmp_path / "h.csv")
    rc = main(["numrange", "--matrix", files["a.json"],
               "--hermitian", files["h.json"], "--x", files["e1.json"],
               "--t-grid", "lin:0:2:9", "--hull", hull, "--out", out])
    assert rc == 0
    lines = open(out).read().splitlines()
    assert lines[0].startswith("# covkit-numrange")
    assert lines[1] == "t,re,im"
    assert len(lines) == 2 + 9
    t0 = lines[2].split(",")
    assert float(t0[1]) == pytest.approx(0.0, abs=1e-12)
    hull_lines = open(hull).read().splitlines()
    assert hull_lines[1] == "re,im"
    reals = [float(l.split(",")[0]) for l in hull_lines[2:]]
    assert max(reals) == pytest.approx(1.0, abs=1e-9)


def test_numrange_hull_matches_the_library(tmp_path):
    rng = np.random.default_rng(5)
    n = 7
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = h + h.conj().T
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    x /= np.linalg.norm(x)
    names = {}
    for name, writer, val in (("a", write_matrix_json, a),
                              ("h", write_matrix_json, h),
                              ("x", write_vector_json, x)):
        names[name] = str(tmp_path / f"{name}.json")
        writer(names[name], val)
    out, hull = str(tmp_path / "n.csv"), str(tmp_path / "h.csv")
    rc = main(["numrange", "--matrix", names["a"], "--hermitian", names["h"],
               "--x", names["x"], "--t-grid", "lin:0:6:64", "--n-theta", "97",
               "--hull", hull, "--out", out])
    assert rc == 0
    orbit = UnitaryOrbit(h, x, np.linspace(0.0, 6.0, 64))
    got = np.loadtxt(out, delimiter=",", skiprows=2)
    got_hull = np.loadtxt(hull, delimiter=",", skiprows=2)
    tol = 1e-13 * max(1.0, np.linalg.norm(a, 2))
    forms = numrange_transform(a, orbit, n_theta=97)
    assert np.max(np.abs(got[:, 1] + 1j * got[:, 2] - forms)) <= tol
    points = numerical_range_hull(a, n_theta=97)
    assert np.max(np.abs(got_hull[:, 0] + 1j * got_hull[:, 1] - points)) <= tol


def test_numrange_rejects_a_stretched_vector(files, tmp_path, capsys):
    rc = main(["numrange", "--matrix", files["a.json"],
               "--hermitian", files["h.json"], "--x", files["long.json"],
               "--t-grid", "lin:0:1:3", "--out", str(tmp_path / "n.csv")])
    assert rc == 1
    assert "unit" in capsys.readouterr().err


def test_mobius_moves_zero_to_a_scalar(files, tmp_path, capsys):
    out = str(tmp_path / "moved.json")
    rc = main(["mobius", "--alpha", repr(5.0 / 3.0), "--beta", repr(4.0 / 3.0),
               "--matrix", files["zero.json"], "--out", out])
    assert rc == 0
    assert "0.8" in capsys.readouterr().out
    moved = json.load(open(out))["matrix"]
    assert moved[0][0][0] == pytest.approx(0.8, abs=1e-12)
    assert moved[0][1][0] == pytest.approx(0.0, abs=1e-12)


def test_mobius_error_paths(files, tmp_path, capsys):
    out = str(tmp_path / "moved.json")
    base = ["mobius", "--matrix", files["zero.json"], "--out", out]
    assert main(base + ["--alpha", "zzz", "--beta", "0"]) == 2
    assert main(base + ["--alpha", "1", "--beta", "1"]) == 1
    rc = main(["mobius", "--alpha", "1", "--beta", "0",
               "--matrix", files["big.json"], "--out", out])
    assert rc == 1
    capsys.readouterr()


# JSON operand entries that are not two finite numbers; NaN in --x or
# --hermitian used to give an all-NaN orbit table
MALFORMED_ENTRIES = ["[0.1, 0, 7]", "[true, 0]", "[0, NaN]", "[Infinity, 0]",
                     "[0, -Infinity]"]


@pytest.mark.parametrize("entry", MALFORMED_ENTRIES)
@pytest.mark.parametrize("option", ["mobius --matrix", "numrange --matrix",
                                    "numrange --hermitian", "numrange --x"])
def test_malformed_operand_json_exits_1_naming_the_file(files, tmp_path,
                                                        capsys, option,
                                                        entry):
    command, flag = option.split()
    bad = tmp_path / "bad.json"
    if flag == "--x":
        bad.write_text(f'{{"vector": [{entry}, [0, 0]]}}')
    else:
        bad.write_text(f'{{"matrix": [[[0, 0], {entry}], [[0, 0], [0, 0]]]}}')
    out = str(tmp_path / "out")
    if command == "mobius":
        argv = ["mobius", "--alpha", "1", "--beta", "0", "--matrix", str(bad),
                "--out", out]
    else:
        inputs = {"--matrix": files["a.json"], "--hermitian": files["h.json"],
                  "--x": files["e1.json"], flag: str(bad)}
        argv = ["numrange", *[w for kv in inputs.items() for w in kv],
                "--t-grid", "lin:0:1:3", "--out", out]
    assert main(argv) == 1
    assert str(bad) in capsys.readouterr().err
    assert not os.path.exists(out)


# ---------------------------------------------------------------------------
# Every CSV table covkit writes spells each cell as _fmt does


@pytest.mark.parametrize("block", [None, 3], ids=["4096-rows", "3-rows"])
@pytest.mark.parametrize("kind", ["signal", "signal2", "transform",
                                  "sinogram", "numrange", "numrange-hull"])
def test_every_csv_table_spells_its_cells_as_fmt(files, tmp_path,
                                                 monkeypatch, kind, block):
    if block is not None:
        monkeypatch.setattr(signals, "_CSV_BLOCK_ROWS", block)
    out = tmp_path / "out.csv"
    if kind == "signal":
        s = read_signal_csv(files["smooth.csv"])
        write_signal_csv(s, out)
        head, end = ["x,re,im"], "\r\n"
        table = (s.xs, s.values.real, s.values.imag)
    elif kind == "signal2":
        s = read_signal2_csv(files["disc.csv"])
        write_signal2_csv(s, out)
        X, Y = np.meshgrid(s.xs, s.ys)
        head, end = ["x,y,re,im"], "\r\n"
        table = (X.ravel(), Y.ravel(), s.values.real.ravel(),
                 s.values.imag.ravel())
    elif kind == "transform":
        w = read_transform_csv(files["wdog.csv"])
        write_transform_csv(w, out)
        head, end = [
            f"# covkit-transform rep={w.meta['rep']} "
            f"fiducial={w.meta['fiducial']} grid={w.grid.spec} "
            f"truncation_budget={_fmt(w.meta['truncation_budget'])}",
            "a,b,re_0,im_0"], "\n"
        table = (*w.grid.coords.T, w.values[:, 0].real, w.values[:, 0].imag)
    elif kind == "sinogram":
        thetas, offsets = "lin:0:3:4", "lin:-0.9:0.9:7"
        assert main(["radon", "--signal", files["disc.csv"], "--thetas",
                     thetas, "--offsets", offsets, "--out", str(out)]) == 0
        t = cli._axis("thetas", thetas).values()
        d = cli._axis("offsets", offsets).values()
        vals = radon_values(read_signal2_csv(files["disc.csv"]),
                            [line_motion(ti, di) for ti in t for di in d])
        T, D = np.meshgrid(t, d, indexing="ij")
        head, end = [f"# covkit-sinogram thetas={thetas} offsets={offsets}",
                     "theta,offset,re,im"], "\n"
        table = (T.ravel(), D.ravel(), vals.real, vals.imag)
    else:
        hull = tmp_path / "hull.csv"
        t_grid = "lin:0:2:11"
        assert main(["numrange", "--matrix", files["a.json"], "--hermitian",
                     files["h.json"], "--x", files["e1.json"], "--t-grid",
                     t_grid, "--n-theta", "37", "--hull", str(hull),
                     "--out", str(out)]) == 0
        t = cli._axis("t-grid", t_grid).values()
        orbit = UnitaryOrbit(read_matrix_json(files["h.json"]),
                             read_vector_json(files["e1.json"]), t)
        forms, points = _numrange(read_matrix_json(files["a.json"]), orbit,
                                  37, hull=True)
        end = "\n"
        if kind == "numrange":
            head = [f"# covkit-numrange t_grid={t_grid}", "t,re,im"]
            table = (t, forms.real, forms.imag)
        else:
            out = hull
            head = ["# covkit-numrange-hull n_theta=37", "re,im"]
            table = (points.real, points.imag)
    assert len(table[0]) > 3 and len(table[0]) % 3
    want = "".join(line + end for line in head) + fmt_rows(
        np.column_stack(table), end)
    assert out.read_bytes() == want.encode()


# ---------------------------------------------------------------------------
# reconstruct


def test_reconstruct_haar_route(files, tmp_path, capsys):
    out = str(tmp_path / "rec.csv")
    report_path = str(tmp_path / "rep.json")
    rc = main(["reconstruct", "--route", "haar",
               "--transform", files["wdog.csv"],
               "--vacuum", files["mexhat.csv"],
               "--reference", files["dog.csv"],
               "--out", out, "--report", report_path])
    assert rc == 0
    report = json.load(open(report_path))
    assert report["residual"] < 0.05
    rec = read_signal_csv(out)
    ref = read_signal_csv(files["dog.csv"])
    assert np.max(np.abs(rec.values - ref.values)) < 0.05
    capsys.readouterr()


def test_reconstruct_report_on_stdout(files, capsys):
    rc = main(["reconstruct", "--route", "haar",
               "--transform", files["wdog.csv"],
               "--vacuum", files["mexhat.csv"]])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["scalar_gain_re"] == 1.0


def test_reconstruct_rejects_a_gaussian_vacuum(files, capsys):
    rc = main(["reconstruct", "--route", "haar",
               "--transform", files["wdog.csv"],
               "--vacuum", files["gauss.csv"]])
    assert rc == 1
    assert "admissib" in capsys.readouterr().err


def test_reconstruct_missing_transform(files, capsys):
    rc = main(["reconstruct", "--route", "haar",
               "--transform", "nope.csv", "--vacuum", files["mexhat.csv"]])
    assert rc == 2
    capsys.readouterr()


@pytest.mark.parametrize("slot", ["signal", "vacuum"])
def test_a_directory_input_is_named_as_a_directory(slot, files, capsys):
    args = {"signal": files["smooth.csv"], "vacuum": files["mexhat.csv"]}
    args[slot] = files["root"]
    rc = main(["transform", "--group", "affine", "--fiducial",
               f"inner:{args['vacuum']}", "--signal", args["signal"],
               "--grid", "affine:a=log:0.5:1:2,b=lin:-1:1:3",
               "--out", "never.csv"])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"covkit: usage error: input is a directory, not a file: "
        f"{files['root']}\n")


# Each writer on a path whose directory is missing, or that is a
# directory: one line naming the path and the system's reason, exit 1.
# `check` opens its --out before any suite runs.
@pytest.mark.parametrize("fault", ["missing-dir", "directory"])
@pytest.mark.parametrize("command", ["transform", "maximal",
                                     "reconstruct-report", "check"])
def test_an_unwritable_output_names_its_path(command, fault, files,
                                             tmp_path, capsys, monkeypatch):
    out = str(tmp_path / "nodir" / "out") if fault == "missing-dir" \
        else str(tmp_path)
    argv = {
        "transform": ["transform", "--group", "affine", "--fiducial",
                      "cauchy+", "--signal", files["smooth.csv"], "--grid",
                      "affine:a=log:0.5:1:2,b=lin:-1:1:3", "--out", out],
        "maximal": ["maximal", "--signal", files["box.csv"], "--a-grid",
                    "log:0.05:1:4", "--b-grid", "lin:-1:1:5", "--out", out],
        "reconstruct-report": ["reconstruct", "--route", "haar",
                               "--transform", files["wdog.csv"], "--vacuum",
                               files["mexhat.csv"], "--report", out],
        "check": ["check", "--suite", "groups", "--out", out],
    }[command]
    ran = []
    run_suites = cli.run_suites
    monkeypatch.setattr(cli, "run_suites",
                        lambda *a, **k: ran.append(1) or run_suites(*a, **k))
    assert main(argv) == 1
    err = capsys.readouterr().err
    reason = ("No such file or directory" if fault == "missing-dir"
              else "Is a directory")
    assert err == f"covkit: {out}: {reason}\n"
    assert not ran


def test_reconstruct_rejects_short_transform_rows(files, tmp_path, capsys):
    lines = open(files["wdog.csv"]).read().splitlines()
    cut = tmp_path / "cut.csv"
    cut.write_text("\n".join(lines[:2] + [",".join(line.split(",")[:3])
                                          for line in lines[2:]]) + "\n")
    rc = main(["reconstruct", "--route", "haar", "--transform", str(cut),
               "--vacuum", files["mexhat.csv"]])
    err = capsys.readouterr().err
    assert rc == 1
    assert "rows must have 4 columns" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_reconstruct_rejects_non_finite_transform_values(files, tmp_path,
                                                        capsys, cell):
    lines = open(files["wdog.csv"]).read().splitlines()
    row = lines[100].split(",")
    row[2] = cell
    lines[100] = ",".join(row)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "rec.csv"
    rc = main(["reconstruct", "--route", "haar", "--transform", str(bad),
               "--vacuum", files["mexhat.csv"], "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "non-finite" in err
    assert not out.exists()


def test_reconstruct_hardy_route(files, tmp_path, capsys):
    f = signal_from_function(lambda x: 1.0 / (x + 1j) ** 2, -60.0, 60.0, 0.02)
    seq = parse_a_sequence("geo:0.4:0.5:5")
    w = covariant_transform(AffineRep(math.inf), Fiducial("cauchy+"), f,
                            hardy_grid(seq, "lin:-25:25:2001"))
    w_path = str(tmp_path / "wh.csv")
    write_transform_csv(w, w_path)
    v0 = signal_from_function(
        lambda x: 1.0 / (2j * math.pi * (x + 1j)), -1500.0, 1500.0, 0.02)
    v0_path = str(tmp_path / "v0.csv")
    write_signal_csv(v0, v0_path)
    ref = signal_from_function(lambda x: 1.0 / (x + 1j) ** 2, -30.0, 30.0,
                               0.02)
    ref_path = str(tmp_path / "ref.csv")
    write_signal_csv(ref, ref_path)
    report_path = str(tmp_path / "rep.json")
    rc = main(["reconstruct", "--route", "hardy", "--transform", w_path,
               "--vacuum", v0_path, "--reference", ref_path,
               "--a-sequence", "geo:0.4:0.5:5", "--report", report_path])
    assert rc == 0
    report = json.load(open(report_path))
    assert abs(complex(report["scalar_gain_re"],
                       report["scalar_gain_im"]) + 1.0) < 0.02
    assert report["residual"] < 0.05
    assert report["converged"] is True
    assert report["a_sequence"] == pytest.approx(list(seq))
    capsys.readouterr()


def test_reconstruct_hardy_sequence_mismatch(files, tmp_path, capsys):
    f = signal_from_function(lambda x: 1.0 / (x + 1j) ** 2, -20.0, 20.0, 0.05)
    w = covariant_transform(AffineRep(math.inf), Fiducial("cauchy+"), f,
                            hardy_grid((0.4, 0.2, 0.1), "lin:-5:5:101"))
    w_path = str(tmp_path / "wh.csv")
    write_transform_csv(w, w_path)
    rc = main(["reconstruct", "--route", "hardy", "--transform", w_path,
               "--vacuum", files["gauss.csv"],
               "--a-sequence", "geo:0.8:0.5:3"])
    assert rc == 1
    assert "disagrees" in capsys.readouterr().err


@pytest.mark.parametrize("a0", ["nan", "inf", "-inf"])
def test_reconstruct_rejects_a_non_finite_sequence(files, tmp_path, capsys,
                                                   a0):
    rc = main(["reconstruct", "--route", "hardy", "--transform",
               files["wdog.csv"], "--vacuum", files["gauss.csv"],
               "--a-sequence", f"geo:{a0}:0.5:5"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "a0 must be finite" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("spec", ["geo:0.5:0.5:1000000000000",
                                  "geo:0.5:0.5:1100"])
def test_reconstruct_rejects_an_oversized_or_underflowing_sequence(
        files, capsys, spec):
    rc = main(["reconstruct", "--route", "hardy", "--transform",
               files["wdog.csv"], "--vacuum", files["gauss.csv"],
               "--a-sequence", spec])
    assert rc == 2
    err = capsys.readouterr().err
    assert spec in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("n_theta", ["0", "-3"])
def test_numrange_rejects_too_few_directions(files, tmp_path, capsys,
                                             n_theta):
    rc = main(["numrange", "--matrix", files["a.json"],
               "--hermitian", files["h.json"], "--x", files["e1.json"],
               "--t-grid", "lin:0:2:9", "--n-theta", n_theta,
               "--hull", str(tmp_path / "h.csv"),
               "--out", str(tmp_path / "n.csv")])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert "--n-theta" in err[0]


@pytest.mark.parametrize("option,value", [
    ("--t-grid", "lin:0:6:1000000000000"),
    ("--n-theta", "1000000000000"),
])
def test_numrange_rejects_oversized_axes(files, tmp_path, capsys, option,
                                         value):
    args = {"--t-grid": "lin:0:2:9", "--n-theta": "36", option: value}
    out = tmp_path / "n.csv"
    rc = main(["numrange", "--matrix", files["a.json"],
               "--hermitian", files["h.json"], "--x", files["e1.json"],
               "--t-grid", args["--t-grid"], "--n-theta", args["--n-theta"],
               "--hull", str(tmp_path / "h.csv"), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert option.lstrip("-") in err[0] and "limit of 1000000" in err[0]
    assert not out.exists()


# ---------------------------------------------------------------------------
# check


def test_check_suite_runs_deterministically(tmp_path, capsys):
    outs = []
    for name in ("r1.json", "r2.json"):
        path = str(tmp_path / name)
        rc = main(["check", "--suite", "intertwining", "--seed", "7",
                   "--out", path])
        assert rc == 0
        outs.append(open(path, "rb").read())
    assert outs[0] == outs[1]
    report = json.loads(outs[0])
    assert report["seed"] == 7
    assert report["passed"] is True
    assert "checks passed (seed 7)" in capsys.readouterr().out


def test_check_report_on_stdout(capsys):
    rc = main(["check", "--suite", "groups"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n_failed"] == 0
    assert [s for s in report["suites"]] == ["groups"]


def test_check_unknown_suite(tmp_path, capsys):
    assert main(["check", "--suite", "nope"]) == 2
    assert "usage error" in capsys.readouterr().err
    # the suites are named before --out is opened
    out = tmp_path / "r.json"
    assert main(["check", "--suite", "nope", "--out", str(out)]) == 2
    assert not out.exists()
    assert "usage error" in capsys.readouterr().err
