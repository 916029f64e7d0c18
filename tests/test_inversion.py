import json
import math
import sys
import tracemalloc

import numpy as np
import pytest

from covkit import (AffineElement, AffineRep, Fiducial,
                    InadmissibleVacuumError, SampledSignal1D,
                    TransformResult, admissibility_constant, apply_affine,
                    covariant_transform, haar_pairing,
                    hardy_grid, hardy_pairing, inverse_haar, inverse_hardy,
                    lp_norm, make_grid, parse_a_sequence,
                    signal_from_function)
from covkit import signals
from covkit.checks import (_haar_reference, _hardy_reference,
                           _per_element_synthesis)
from covkit.inversion import _synthesize

from conftest import (count_ffts, every_other_fft, force_fft, force_tables,
                      gaussian, mexican_hat)


def dog_signal():
    return signal_from_function(
        lambda x: np.exp(-x ** 2 / 2.0) - 0.5 * np.exp(-x ** 2 / 8.0),
        -12.0, 12.0, 0.02)


def packet_signal():
    # off center so nothing below is zero by parity
    return signal_from_function(
        lambda x: np.exp(-(x - 1.0) ** 2) * np.sin(2.5 * (x - 1.0)),
        -12.0, 12.0, 0.02)


def rational(x):
    return 1.0 / (x + 1j) ** 2


@pytest.fixture(scope="module")
def wavelet():
    """One shared analysis pass: Mexican hat matched against two test
    signals on a dilation window wide enough to reconstruct from."""
    rep = AffineRep(2.0)
    v0 = mexican_hat()
    grid = make_grid("affine:a=log:0.12:6:40,b=lin:-12:12:481")
    fid = Fiducial("inner", v0=v0)
    dog = dog_signal()
    packet = packet_signal()
    return {
        "rep": rep, "v0": v0, "grid": grid, "fid": fid,
        "dog": dog, "packet": packet,
        "w_dog": covariant_transform(rep, fid, dog, grid),
        "w_packet": covariant_transform(rep, fid, packet, grid),
    }


# ---------------------------------------------------------------------------
# Haar pairing


def test_pairing_against_zero_vanishes(wavelet):
    zero = TransformResult(wavelet["grid"],
                           np.zeros(len(wavelet["grid"]), dtype=complex))
    assert haar_pairing(wavelet["w_dog"], zero) == 0.0


def test_self_pairing_is_real_and_nonnegative(wavelet):
    p = haar_pairing(wavelet["w_packet"], wavelet["w_packet"])
    assert p.imag == 0.0
    assert p.real > 0.0


def test_swapping_arguments_conjugates_bitwise(wavelet):
    p = haar_pairing(wavelet["w_dog"], wavelet["w_packet"])
    q = haar_pairing(wavelet["w_packet"], wavelet["w_dog"])
    assert p == q.conjugate()


def test_self_pairing_matches_energy_times_constant(wavelet):
    # pairing the coefficients against themselves recovers the signal
    # energy scaled by the vacuum constant, up to what the finite
    # dilation window loses
    c = admissibility_constant(wavelet["v0"])
    p = haar_pairing(wavelet["w_dog"], wavelet["w_dog"])
    energy = lp_norm(wavelet["dog"], 2) ** 2
    assert p.real / c == pytest.approx(energy, rel=0.05)


def test_pairing_survives_a_group_shift(wavelet):
    rep, fid, grid = wavelet["rep"], wavelet["fid"], wavelet["grid"]
    g = AffineElement(1.25, 0.75)
    moved = [covariant_transform(rep, fid, apply_affine(rep, g, f), grid)
             for f in (wavelet["dog"], wavelet["packet"])]
    p = haar_pairing(wavelet["w_dog"], wavelet["w_packet"])
    q = haar_pairing(*moved)
    assert abs(q - p) < 2e-3 * abs(p)


def test_pairing_demands_matching_grids(wavelet):
    other = make_grid("affine:a=log:0.5:2:3,b=lin:-1:1:5")
    small = TransformResult(other, np.zeros(len(other), dtype=complex))
    with pytest.raises(ValueError):
        haar_pairing(wavelet["w_dog"], small)


# ---------------------------------------------------------------------------
# Admissibility


def test_mexican_hat_constant_is_pi():
    assert admissibility_constant(mexican_hat()) == pytest.approx(
        math.pi, rel=1e-3)


def test_nonzero_mean_vacuum_is_rejected():
    with pytest.raises(InadmissibleVacuumError):
        admissibility_constant(gaussian())


# ---------------------------------------------------------------------------
# Haar-route synthesis


def test_round_trip_through_the_wavelet_frame(wavelet):
    report = inverse_haar(wavelet["w_dog"], wavelet["rep"], wavelet["v0"],
                          reference=wavelet["dog"])
    assert report.residual < 0.05
    assert report.extra["c_psi"] == pytest.approx(math.pi, rel=1e-3)


def test_zero_coefficients_give_zero_signal(wavelet):
    zero = TransformResult(wavelet["grid"],
                           np.zeros(len(wavelet["grid"]), dtype=complex))
    report = inverse_haar(zero, wavelet["rep"], wavelet["v0"],
                          reference=wavelet["dog"])
    assert np.all(report.result.values == 0.0)
    assert report.residual == 1.0


def test_synthesis_is_linear_in_the_coefficients(wavelet):
    c = 2.5 - 1.5j
    scaled = TransformResult(wavelet["grid"],
                             c * wavelet["w_dog"].values[:, 0])
    inv_c = inverse_haar(scaled, wavelet["rep"], wavelet["v0"])
    inv_1 = inverse_haar(wavelet["w_dog"], wavelet["rep"], wavelet["v0"])
    want = c * inv_1.result.values
    scale = np.max(np.abs(want))
    assert np.max(np.abs(inv_c.result.values - want)) < 1e-12 * scale


def test_synthesis_refuses_an_inadmissible_vacuum(wavelet):
    with pytest.raises(InadmissibleVacuumError):
        inverse_haar(wavelet["w_dog"], wavelet["rep"], gaussian())


def test_report_serializes(wavelet):
    report = inverse_haar(wavelet["w_dog"], wavelet["rep"], wavelet["v0"],
                          reference=wavelet["dog"])
    blob = json.dumps(report.to_json_dict(), sort_keys=True)
    back = json.loads(blob)
    assert back["residual"] == report.residual
    assert back["scalar_gain_re"] == report.scalar_gain.real
    assert back["converged"] is None


# ---------------------------------------------------------------------------
# The synthesis kernel against the per-element sum


def synthesis_cases():
    rng = np.random.default_rng(5)
    ramp = lambda n: np.linspace(1.0, 2.0, n) + 0.5j
    cases = {}
    # a 1-sample vacuum reads only where the image hits its one node
    one = SampledSignal1D(0.5, 1.0, np.array([2.0 - 1j]))
    cases["one-sample"] = (one, SampledSignal1D(-2.0, 0.25, np.ones(17)),
                           [0.5, 0.25, 1.0, 3.0], [0.25, -1.0, 0.0, 0.1],
                           [1.0, 2.0j, -0.5, 1.0])
    # vacuum edges land exactly on output nodes, or 1e-11 cells outside,
    # where _snap reads them as inside
    v0 = SampledSignal1D(-1.0, 0.1, ramp(21))
    out = SampledSignal1D(-3.0, 0.05, np.ones(121))
    cases["edge-on-node"] = (v0, out, [1.0, 0.5, 2.0, 1.0, 1.0],
                             [0.5, -1.0, 0.0, 0.5 + 1e-12, 0.5 - 1e-12],
                             [1.0, -1.0j, 0.5, 2.0, -3.0])
    # node 6 lands on the left edge of a window far from 0 only after
    # rounding (found by a randomized search; without the rounding slack
    # its run misses it)
    far_v0 = SampledSignal1D(-7.858353562667074, 0.0047078510062740974,
                             ramp(39))
    far_out = SampledSignal1D(7522.170753163533, 0.013310403182270994,
                              np.ones(200))
    cases["far-window"] = (far_v0, far_out, [0.021199505416516436],
                           [7522.417208791543], [1.0])
    # moved vacua that miss the output window entirely, and zero
    # coefficients on elements that would cover it
    mex = mexican_hat(-4.0, 4.0, 0.02)
    out = SampledSignal1D(-5.0, 0.02, np.ones(501))
    cases["misses-and-zeros"] = (mex, out, [0.5, 1.0, 2.0, 1.0, 0.7],
                                 [40.0, -30.0, 2.0, 0.0, 0.3],
                                 [1.0, 1.0, 0.0, 1.0 - 1.0j, 0.0])
    # elements that cover the same nodes away from the window's start,
    # which the kernel reads as one dense block
    cases["shared-runs"] = (mex, out, [0.5, 0.5, 0.5, 0.25],
                            [1.0, 1.0, 1.0, -2.0], [1.0, -2.0j, 0.5, 1.0])
    # output grids finer and coarser than the vacuum's
    a = rng.uniform(0.2, 3.0, 60)
    b = rng.uniform(-6.0, 6.0, 60)
    coef = rng.normal(size=60) + 1j * rng.normal(size=60)
    cases["finer-out"] = (mex, SampledSignal1D(-6.0, 0.005, np.ones(2401)),
                          a, b, coef)
    cases["coarser-out"] = (mex, SampledSignal1D(-6.1, 0.13, np.ones(95)),
                            a, b, coef)
    # one run longer than the block budget
    wide = gaussian(-40.0, 40.0, 0.01)
    long_out = SampledSignal1D(-400.0, 0.01, np.ones(80001))
    cases["long-run"] = (wide, long_out, [10.0, 0.5, 3.0], [0.0, 1.0, -7.0],
                         [1.0, 2.0, -1.0j])
    return cases


@pytest.mark.parametrize("budget", [None, 7], ids=["default-blocks",
                                                   "7-point-blocks"])
@pytest.mark.parametrize("case", list(synthesis_cases()))
def test_synthesis_matches_per_element_sum(case, budget, monkeypatch):
    if budget is not None:
        monkeypatch.setattr(signals, "_RUN_BLOCK_POINTS", budget)
    v0, out, a, b, coef = synthesis_cases()[case]
    a, b, coef = (np.asarray(x, dtype=t) for x, t in
                  ((a, float), (b, float), (coef, complex)))
    ref = _per_element_synthesis(v0, out, a, b, coef)
    got = _synthesize(v0, out, a, b, coef)
    assert np.max(np.abs(ref)) > 0
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


REAL_VACUUM_CASES = [name for name, case in synthesis_cases().items()
                     if not case[0].values.imag.any()]


@pytest.mark.parametrize("budget", [None, 200], ids=["default-blocks",
                                                     "200-point-blocks"])
@pytest.mark.parametrize("case", REAL_VACUUM_CASES)
def test_real_vacuum_synthesis_matches_its_complex_twin(case, budget,
                                                        monkeypatch):
    # a real vacuum reads one real row; i v0 reads two (a zero real part
    # and v0), and with coefficients -i coef sums to the same signal
    if budget is not None:
        monkeypatch.setattr(signals, "_RUN_BLOCK_POINTS", budget)
    v0, out, a, b, coef = synthesis_cases()[case]
    a, b, coef = (np.asarray(x, dtype=t) for x, t in
                  ((a, float), (b, float), (coef, complex)))
    twin = SampledSignal1D(v0.x0, v0.dx, 1j * v0.values)
    assert len(v0.parts) == 1 and len(twin.parts) == 2
    ref = _per_element_synthesis(v0, out, a, b, coef)
    got = _synthesize(v0, out, a, b, coef)
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(got - ref)) <= 1e-12 * scale
    got_twin = _synthesize(twin, out, a, b, -1j * coef)
    assert np.max(np.abs(got_twin - got)) <= 1e-13 * scale


@pytest.mark.parametrize("spec", ["affine:a=log:0.3:3:5,b=lin:-4:4:33",
                                  "affine:b=lin:-4:4:33,a=log:0.3:3:5"])
def test_both_routes_match_the_per_element_sum(spec):
    rng = np.random.default_rng(11)
    grid = make_grid(spec)
    w = TransformResult(grid, rng.normal(size=len(grid))
                        + 1j * rng.normal(size=len(grid)))
    for rep, out in ((AffineRep(2.0), None),
                     (AffineRep(1.0), mexican_hat(-3.0, 3.0, 0.05))):
        v0 = mexican_hat(-8.0, 8.0, 0.02)
        got = inverse_haar(w, rep, v0, out_grid=out).result.values
        ref = _haar_reference(w, rep.p, v0, out or v0)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    v0, out = gaussian(-6.0, 6.0, 0.02), gaussian(-5.0, 5.0, 0.05)
    got = inverse_hardy(w, AffineRep(1.0), v0, out_grid=out).result.values
    ref = _hardy_reference(w, v0, out)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


# b steps of 1, 8, 1/4, 5/2 and 2/5 output steps (0.02), on 4
# dilations, each of which takes the lattice
LATTICE_GRIDS = {"1:1": ("a=log:0.1:2:4", "b=lin:-1:1:101"),
                 "8:1": ("a=log:0.1:2:4", "b=lin:-6.4:6.4:81"),
                 "1:4": ("a=lin:0.1:2:4", "b=lin:-1:1:401"),
                 "5:2": ("a=log:0.1:2:4", "b=lin:-5:5:201"),
                 "2:5": ("a=lin:0.1:2:4", "b=lin:-0.8:0.8:201")}


@pytest.mark.parametrize("order", ["a,b", "b,a"])
@pytest.mark.parametrize("ratio", list(LATTICE_GRIDS))
def test_lattice_synthesis_matches_the_references(ratio, order, paths,
                                                  monkeypatch):
    rng = np.random.default_rng(5)
    axes = LATTICE_GRIDS[ratio]
    grid = make_grid("affine:" + ",".join(axes if order == "a,b"
                                          else axes[::-1]))
    w = TransformResult(grid, rng.normal(size=len(grid))
                        + 1j * rng.normal(size=len(grid)))
    # complex, without symmetry and of zero mean (admissible)
    v0 = signal_from_function(
        lambda x: (1.0 - (x - 0.3) ** 2) * np.exp(-(x - 0.3) ** 2 / 2.0)
        * (1.0 + 0.5j * x), -8.0, 8.0, 0.02)
    out = SampledSignal1D(-5.0, 0.02, np.ones(501))

    def both_routes():
        haar = inverse_haar(w, AffineRep(2.0), v0, out_grid=out)
        hardy = inverse_hardy(w, AffineRep(1.0), v0, out_grid=out)
        return haar.result.values, hardy.result.values

    with monkeypatch.context() as m:
        m.setattr(signals, "_common_lattice", lambda *args: None)
        direct = both_routes()
    paths.clear()
    force_fft(monkeypatch)
    haar, hardy = both_routes()
    assert paths.fft() == 8
    ref = _haar_reference(w, 2.0, v0, out)
    for got, want in ((haar, ref), (haar, direct[0])):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    ref = _hardy_reference(w, v0, out)
    for got, want in ((hardy, ref), (hardy, direct[1])):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("spec,n_lattice", [
    # roundtrip's (16, 281) Haar grid: b step 30/7 output steps, a
    # lattice of 16801 points that pays for the 11 largest dilations
    ("affine:a=log:0.12:6:16,b=lin:-12:12:281", 11),
    # criterion 6's grid: b step 5/2, a lattice of 4801 points that pays
    # for all 40 dilations
    ("affine:a=log:0.12:6:40,b=lin:-12:12:481", 40),
])
def test_rational_lattice_synthesis_matches_the_reference(spec, n_lattice,
                                                          paths):
    rng = np.random.default_rng(11)
    grid = make_grid(spec)
    w = TransformResult(grid, rng.normal(size=len(grid))
                        + 1j * rng.normal(size=len(grid)))
    # complex, without symmetry and of zero mean (admissible)
    v0 = signal_from_function(
        lambda x: (1.0 - (x - 0.3) ** 2) * np.exp(-(x - 0.3) ** 2 / 2.0)
        * (1.0 + 0.5j * x), -8.0, 8.0, 0.02)
    out = SampledSignal1D(-12.0, 0.02, np.ones(1201))
    got = inverse_haar(w, AffineRep(2.0), v0, out_grid=out).result.values
    assert paths.fft() == n_lattice
    ref = _haar_reference(w, 2.0, v0, out)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_summed_lattice_synthesis_matches_the_per_dilation_sums(
        paths, monkeypatch):
    # roundtrip's (16, 281) Haar grid, every dilation sent to the
    # lattice: the spectrum products of its 16 dilations are summed and
    # inverted once.  Each dilation synthesized on its own (one inverse
    # pair per lattice dilation) adds up to the same sums within a few
    # roundings.
    rng = np.random.default_rng(12)
    grid = make_grid("affine:a=log:0.12:6:16,b=lin:-12:12:281")
    a, b = grid.coords.T
    _, b_axis, idx = grid.dilation_rows()
    coef = rng.normal(size=len(grid)) + 1j * rng.normal(size=len(grid))
    # complex, without symmetry and of zero mean (admissible)
    v0 = signal_from_function(
        lambda x: (1.0 - (x - 0.3) ** 2) * np.exp(-(x - 0.3) ** 2 / 2.0)
        * (1.0 + 0.5j * x), -8.0, 8.0, 0.02)
    out = SampledSignal1D(-12.0, 0.02, np.ones(1201))
    force_fft(monkeypatch)
    ffts = count_ffts(monkeypatch)
    got = _synthesize(v0, out, a, b, coef, (b_axis, idx))
    assert paths.fft() == 16 and ffts["inverse"] == 2
    ffts.update(dict.fromkeys(ffts, 0))
    apart = np.zeros(out.n, dtype=complex)
    for k in range(len(idx)):
        alone = np.zeros_like(coef)
        alone[idx[k]] = coef[idx[k]]
        apart += _synthesize(v0, out, a, b, alone, (b_axis, idx[k:k + 1]))
    assert paths.fft() == 32 and ffts["inverse"] == 32
    assert np.max(np.abs(got - apart)) <= 1e-13 * np.max(np.abs(apart))
    ref = _per_element_synthesis(v0, out, a, b, coef)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_lattice_synthesis_keeps_real_sums_real():
    # real coefficients on a real vacuum: exactly real, as the direct
    # path's sums are
    rng = np.random.default_rng(9)
    grid = make_grid("affine:a=log:0.1:2:4,b=lin:-4:4:26")
    w = TransformResult(grid, rng.normal(size=len(grid)))
    out = SampledSignal1D(-5.0, 0.02, np.ones(501))
    for rec in (inverse_haar(w, AffineRep(2.0), mexican_hat(), out_grid=out),
                inverse_hardy(w, AffineRep(1.0), gaussian(), out_grid=out)):
        assert np.all(rec.result.values.imag == 0.0)


def zero_mean_complex_vacuum():
    # complex, without symmetry and of zero mean (admissible)
    return signal_from_function(
        lambda x: (1.0 - (x - 0.3) ** 2) * np.exp(-(x - 0.3) ** 2 / 2.0)
        * (1.0 + 0.5j * x), -8.0, 8.0, 0.02)


@pytest.mark.parametrize("vacuum", ["real", "complex"])
@pytest.mark.parametrize("path", ["lattice", "direct", "mixed"])
def test_synthesis_of_i_coef_is_i_times_that_of_coef(path, vacuum, paths,
                                                     monkeypatch):
    # real coefficients multiply as one row (one bincount per vacuum row
    # in a ragged block, one spectrum row per lattice dilation); i coef
    # has two rows, its real part exactly 0.  On a b step of 5/2 output
    # steps every dilation is sent to the lattice, none with the lattice
    # search off, and every other one under a rule that skips the rest.
    grid = make_grid("affine:a=log:0.1:2:4,b=lin:-5:5:201")
    a, b = grid.coords.T
    _, b_axis, idx = grid.dilation_rows()
    coef = np.random.default_rng(13).normal(size=len(grid))
    v0 = {"real": mexican_hat(-8.0, 8.0, 0.02),
          "complex": zero_mean_complex_vacuum()}[vacuum]
    out = SampledSignal1D(-5.0, 0.02, np.ones(501))
    if path == "lattice":
        force_fft(monkeypatch)
    if path == "direct":
        monkeypatch.setattr(signals, "_common_lattice", lambda *args: None)
    if path == "mixed":
        paths.planner = every_other_fft
    got = _synthesize(v0, out, a, b, coef, (b_axis, idx))
    assert paths.fft() == {"lattice": 4, "direct": 0, "mixed": 2}[path]
    paths.clear()
    scale = np.max(np.abs(got))
    ref = _per_element_synthesis(v0, out, a, b, coef.astype(complex))
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    if vacuum == "real":
        assert np.all(got.imag == 0.0)
    twin = _synthesize(v0, out, a, b, 1j * coef, (b_axis, idx))
    assert paths.fft() == {"lattice": 4, "direct": 0, "mixed": 2}[path]
    assert np.max(np.abs(twin - 1j * got)) <= 1e-13 * scale


def test_synthesis_takes_the_lattice_only_where_it_is_shorter(paths):
    # b step 8 output steps: the lattice holds 1201 points (180 us at
    # 150 ns a point); a dilation of 0.2 reads 161 nodes for each of 101
    # elements (16261 reads, 488 us at 30 ns a read), one of 0.01 only 9
    # (909 reads, 27 us)
    grid = make_grid("affine:a=log:0.01:0.2:2,b=lin:-8:8:101")
    v0 = mexican_hat(-8.0, 8.0, 0.02)
    out = SampledSignal1D(-4.0, 0.02, np.ones(401))
    rng = np.random.default_rng(8)
    coef = rng.normal(size=len(grid)) + 1j * rng.normal(size=len(grid))
    a, b = grid.coords.T
    a_vals, b_axis, idx = grid.dilation_rows()
    got = _synthesize(v0, out, a, b, coef, (b_axis, idx))
    assert paths.fft() == 1
    ref = _per_element_synthesis(v0, out, a, b, coef)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


# The six Haar shapes of the roundtrip benchmark on its 1201 nodes and
# an 801-sample Mexican hat: the dilations whose sums take the FFT
# lattice, those that read a table and those read directly, the same
# in analysis and in synthesis.  Every dilation of the 24 x 187 shape
# reads a table on its 74,401-point lattice; on the 12 x 375 shape's
# 448,801-point lattice only the 6 narrowest do, whose windows hold at
# most 2^17 points.
HAAR_SHAPE_PATHS = {(16, 281): (11, 5, 0), (20, 225): (10, 10, 0),
                    (12, 375): (0, 6, 6), (24, 187): (0, 24, 0),
                    (18, 251): (14, 4, 0), (30, 151): (30, 0, 0)}


@pytest.mark.parametrize("shape", list(HAAR_SHAPE_PATHS),
                         ids=lambda s: "%dx%d" % s)
def test_roundtrip_haar_shapes_take_their_paths(shape, paths):
    n_a, n_b = shape
    grid = make_grid(f"affine:a=log:0.12:6:{n_a},b=lin:-12:12:{n_b}")
    v0 = mexican_hat(-8.0, 8.0, 0.02)
    f = packet_signal()
    rep = AffineRep(2.0)
    w = covariant_transform(rep, Fiducial("inner", v0=v0), f, grid)
    inverse_haar(w, rep, v0, reference=f)
    fft, table, direct = HAAR_SHAPE_PATHS[shape]
    assert [(paths.fft(side), paths.tables(side)) for side in
            ("transform", "inversion")] == [(fft, table)] * 2
    assert fft + table + direct == n_a


@pytest.mark.parametrize("budget", [None, 7], ids=["default-blocks",
                                                   "7-point-blocks"])
@pytest.mark.parametrize("coef_kind", ["real", "complex"])
@pytest.mark.parametrize("vacuum", ["real", "complex"])
def test_table_synthesis_matches_the_per_element_sum(vacuum, coef_kind,
                                                     budget, paths,
                                                     monkeypatch):
    # a b step of 30/7 output steps, the FFT lattice declined and tables
    # forced: every dilation reads a table, in dense and ragged blocks
    # (padded past the last node) or in pieces; every third coefficient
    # is 0 and is not read
    if budget is not None:
        monkeypatch.setattr(signals, "_RUN_BLOCK_POINTS", budget)
    grid = make_grid("affine:a=log:0.3:4:3,b=lin:-3:3:141")
    a, b = grid.coords.T
    _, b_axis, idx = grid.dilation_rows()
    rng = np.random.default_rng(14)
    coef = rng.normal(size=len(grid))
    if coef_kind == "complex":
        coef = coef + 1j * rng.normal(size=len(grid))
    coef[::3] = 0.0
    v0 = {"real": mexican_hat(-1.0, 1.0, 0.05),
          "complex": signal_from_function(
              lambda x: (1.0 - x ** 2) * (1.0 + 0.5j * x), -1.0, 1.0,
              0.05)}[vacuum]
    out = SampledSignal1D(-3.0, 0.01, np.ones(601))
    force_fft(monkeypatch, every=False)
    force_tables(monkeypatch)
    got = _synthesize(v0, out, a, b, coef, (b_axis, idx))
    assert paths.tables() == 3
    ref = _per_element_synthesis(v0, out, a, b, coef.astype(complex))
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    if vacuum == "real" and coef_kind == "real":
        assert np.all(got.imag == 0.0)


def test_table_synthesis_memory_is_bounded(paths, monkeypatch):
    # the benchmark's 24 x 187 Haar shape, tables forced: every dilation
    # reads a table
    # of its window of the 74,401-point lattice, one at a time.  This
    # peaks at 3.8 MiB (2.1 MiB read directly); a complex vacuum's
    # widest table is 1.2 MB, so two tables held at once would exceed the
    # bound and the 24 held together would take 28 MB.
    rng = np.random.default_rng(4)
    grid = make_grid("affine:a=log:0.12:6:24,b=lin:-12:12:187")
    w = TransformResult(grid, rng.normal(size=len(grid))
                        + 1j * rng.normal(size=len(grid)))
    v0 = signal_from_function(
        lambda x: (1.0 - (x - 0.3) ** 2) * np.exp(-(x - 0.3) ** 2 / 2.0)
        * (1.0 + 0.5j * x), -8.0, 8.0, 0.02)
    out = SampledSignal1D(-12.0, 0.02, np.ones(1201))
    force_fft(monkeypatch, every=False)
    force_tables(monkeypatch)
    tracemalloc.start()
    try:
        inverse_haar(w, AffineRep(2.0), v0, out_grid=out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert paths.tables() == 24
    assert peak < 4.5 * 2 ** 20


def test_hardy_synthesis_memory_is_bounded():
    # the benchmark's Hardy shape: 5 x 2001 elements, a 24001-sample
    # vacuum, 1201 output nodes
    rng = np.random.default_rng(3)
    grid = hardy_grid(parse_a_sequence("geo:0.5:0.5:5"), "lin:-25:25:2001")
    w = TransformResult(grid, rng.normal(size=len(grid))
                        + 1j * rng.normal(size=len(grid)))
    dx = 0.025
    v0 = signal_from_function(lambda x: 1.0 / (2j * math.pi * (x + 1j)),
                              -300.0, 300.0, dx)
    out = SampledSignal1D(-15.0, dx, np.ones(1201))
    tracemalloc.start()
    try:
        inverse_hardy(w, AffineRep(1.0), v0, out_grid=out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2 ** 20


# ---------------------------------------------------------------------------
# Dilation sequences and pairing configs


def test_geometric_sequence_parses():
    assert parse_a_sequence("geo:0.8:0.5:4") == (0.8, 0.4, 0.2, 0.1)
    assert parse_a_sequence("geo:1:0.5:1023")[-1] == sys.float_info.min


@pytest.mark.parametrize("spec", [
    "geo:0.8:0.5",
    "lin:0.8:0.5:4",
    "geo:0:0.5:4",
    "geo:0.8:1.5:4",
    "geo:0.8:x:4",
    "geo:0.8:0.5:1",
    "geo:0.5:0.5:1000000000000",
    "geo:0.5:0.5:1000001",
    "geo:0.5:0.5:1100",
])
def test_bad_sequence_specs_are_rejected(spec):
    with pytest.raises(ValueError):
        parse_a_sequence(spec)


def test_pairing_validation():
    # the Hardy pairing's dilation sequence is checked by inverse_hardy:
    # none (the grid's own) and the grid's two dilations pass; too short,
    # increasing and negative sequences are rejected
    grid = hardy_grid((0.4, 0.2), "lin:-5:5:101")
    zero = TransformResult(grid, np.zeros(len(grid), dtype=complex))
    v0 = gaussian(dx=0.02)
    assert inverse_hardy(zero, AffineRep(1.0), v0).a_sequence == \
        pytest.approx((0.4, 0.2))
    assert inverse_hardy(zero, AffineRep(1.0), v0,
                         a_sequence=(0.4, 0.2)).a_sequence == \
        pytest.approx((0.4, 0.2))
    for bad in [(0.4,), (0.2, 0.4), (0.4, -0.2)]:
        with pytest.raises(ValueError):
            inverse_hardy(zero, AffineRep(1.0), v0, a_sequence=bad)


@pytest.mark.parametrize("a0", ["nan", "inf", "-inf"])
def test_non_finite_dilations_are_rejected(a0):
    with pytest.raises(ValueError, match="a0 must be finite"):
        parse_a_sequence(f"geo:{a0}:0.5:5")
    grid = hardy_grid((0.4, 0.2, 0.1), "lin:-5:5:101")
    zero = TransformResult(grid, np.zeros(len(grid), dtype=complex))
    with pytest.raises(ValueError, match="disagrees"):
        inverse_hardy(zero, AffineRep(1.0), gaussian(dx=0.02),
                      a_sequence=(0.4, float(a0), 0.1))


def test_hardy_grid_carries_the_sequence():
    seq = parse_a_sequence("geo:0.8:0.5:4")
    grid = hardy_grid(seq, "lin:-1:1:11")
    assert grid.axis("a").n == 4
    assert sorted(grid.axis("a").values()) == pytest.approx(
        sorted(seq), rel=1e-12)


@pytest.mark.parametrize("seq", [(1.0, 0.7, 0.2), (0.4, 0.2, 0.05),
                                 (0.8, 0.4, 0.2 * (1 + 1e-6), 0.1)])
def test_hardy_grid_rejects_a_sequence_off_its_log_axis(seq):
    # a log axis from min to max through len(seq) points would drop
    # the odd dilation and hand back another one; rtol is 1e-9
    with pytest.raises(ValueError, match="not the points") as err:
        hardy_grid(seq, "lin:-1:1:11")
    assert repr(tuple(seq)) in str(err.value)


# ---------------------------------------------------------------------------
# Hardy pairing


def test_hardy_pairing_of_zero_vanishes():
    grid = hardy_grid((0.4, 0.2, 0.1), "lin:-5:5:101")
    f = signal_from_function(rational, -20.0, 20.0, 0.05)
    w = covariant_transform(AffineRep(math.inf), Fiducial("cauchy+"), f,
                            grid)
    zero = TransformResult(grid, np.zeros(len(grid), dtype=complex))
    res = hardy_pairing(w, zero)
    assert np.all(res.per_a == 0.0)
    assert res.limit == 0.0
    assert res.converged


def test_dilation_independent_slices_pair_to_the_same_value():
    grid = hardy_grid((0.8, 0.4, 0.2, 0.1), "lin:-6:6:601")
    b = grid.axis("b").values()
    phi = np.exp(-b ** 2)
    w = TransformResult(grid, np.tile(phi, 4).astype(complex))
    res = hardy_pairing(w, w)
    want = math.sqrt(math.pi / 2.0)
    assert np.ptp(res.per_a.real) < 1e-14
    assert res.per_a[0].real == pytest.approx(want, rel=1e-3)
    assert res.limit.real == pytest.approx(res.per_a[0].real, rel=1e-12)
    assert res.converged


def test_hardy_pairing_tracks_the_analytic_profile():
    # boundary values of 1/(z + i)^2 regularized to height a pair to
    # pi / (2 (1 + a)^3) slice by slice, so the extrapolation lands on
    # the boundary energy pi/2
    f = signal_from_function(rational, -60.0, 60.0, 0.02)
    seq = parse_a_sequence("geo:0.4:0.5:5")
    grid = hardy_grid(seq, "lin:-25:25:2001")
    w = covariant_transform(AffineRep(math.inf), Fiducial("cauchy+"), f,
                            grid)
    res = hardy_pairing(w, w)
    for a, val in zip(res.a_values, res.per_a):
        assert val.real == pytest.approx(
            math.pi / (2.0 * (1.0 + a) ** 3), rel=1e-2)
    assert res.limit.real == pytest.approx(math.pi / 2.0, rel=1e-2)
    assert res.converged


def test_hardy_pairing_ignores_a_common_shift():
    grid = hardy_grid((0.8, 0.4, 0.2), "lin:-8:8:801")
    b = grid.axis("b").values()
    a_col = grid.axis("a").values()[:, None]
    s1 = np.exp(-(b[None, :] - 0.3) ** 2) * (1.0 + a_col)
    s2 = (np.exp(-b[None, :] ** 2) * (1.0 - 0.2j * b[None, :])
          * (1.0 + 0.5 * a_col))
    k = 40

    def rolled(s):
        r = np.roll(s, k, axis=1)
        r[:, :k] = 0.0
        return r

    w1 = TransformResult(grid, s1.ravel())
    w2 = TransformResult(grid, s2.ravel())
    r1 = TransformResult(grid, rolled(s1).ravel())
    r2 = TransformResult(grid, rolled(s2).ravel())
    p = hardy_pairing(w1, w2)
    q = hardy_pairing(r1, r2)
    assert np.max(np.abs(p.per_a - q.per_a)) < 1e-10


# ---------------------------------------------------------------------------
# Hardy-route synthesis


def test_hardy_synthesis_of_zero_is_zero():
    grid = hardy_grid((0.4, 0.2, 0.1), "lin:-5:5:101")
    zero = TransformResult(grid, np.zeros(len(grid), dtype=complex))
    v0 = gaussian(dx=0.02)
    report = inverse_hardy(zero, AffineRep(1.0), v0)
    assert np.all(report.result.values == 0.0)


def test_hardy_synthesis_takes_any_integrable_vacuum():
    # no admissibility gate on this route; a plain Gaussian is fine
    f = signal_from_function(rational, -40.0, 40.0, 0.02)
    grid = hardy_grid((0.4, 0.2, 0.1), "lin:-15:15:601")
    w = covariant_transform(AffineRep(math.inf), Fiducial("cauchy+"), f,
                            grid)
    report = inverse_hardy(w, AffineRep(1.0), gaussian(dx=0.02))
    assert np.all(np.isfinite(report.result.values))


def test_hardy_synthesis_checks_the_pairing():
    # a_sequence must be the grid's dilations, largest first, each within
    # a relative 1e-9
    grid = hardy_grid((0.4, 0.2, 0.1), "lin:-5:5:101")
    zero = TransformResult(grid, np.zeros(len(grid), dtype=complex))
    v0 = gaussian(dx=0.02)
    for seq in [(0.5, 0.25), (0.4,), (0.4, 0.2, 0.1, 0.05), (0.1, 0.2, 0.4),
                (0.4, -0.2, 0.1), (0.4, 0.2, 0.1 * (1 + 1e-8)),
                (0.4, math.nan, 0.1)]:
        with pytest.raises(ValueError, match="disagrees"):
            inverse_hardy(zero, AffineRep(1.0), v0, a_sequence=seq)
    for seq in [(0.4, 0.2, 0.1), (0.4, 0.2, 0.1 * (1 + 1e-10))]:
        report = inverse_hardy(zero, AffineRep(1.0), v0, a_sequence=seq)
        assert report.a_sequence == pytest.approx((0.4, 0.2, 0.1))


def test_hardy_synthesis_guards_the_resolution():
    grid = hardy_grid((0.2, 0.1, 0.05), "lin:-5:5:101")
    zero = TransformResult(grid, np.zeros(len(grid), dtype=complex))
    coarse = SampledSignal1D(-5.0, 0.1, np.exp(-np.linspace(-5, 5, 101) ** 2))
    with pytest.raises(ValueError, match="resolution"):
        inverse_hardy(zero, AffineRep(1.0), coarse)


def test_hardy_round_trip_on_a_rational():
    f = signal_from_function(rational, -60.0, 60.0, 0.02)
    seq = parse_a_sequence("geo:0.4:0.5:5")
    grid = hardy_grid(seq, "lin:-25:25:4001")
    w = covariant_transform(AffineRep(math.inf), Fiducial("cauchy+"), f,
                            grid)
    v0 = signal_from_function(
        lambda x: 1.0 / (2j * math.pi * (x + 1j)), -1500.0, 1500.0, 0.02)
    ref = signal_from_function(rational, -30.0, 30.0, 0.02)
    report = inverse_hardy(w, AffineRep(1.0), v0,
                           a_sequence=seq, reference=ref)
    assert abs(report.scalar_gain + 1.0) < 0.02
    assert report.residual < 0.05
    assert report.converged
