import cmath
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from covkit import (Su11Element, UnitaryOrbit, compose, mobius_apply,
                    numerical_range_hull, numrange_transform,
                    read_matrix_json, read_vector_json, spectral_radius,
                    support_function, write_matrix_json, write_vector_json)
from covkit import operators
from covkit.checks import _per_direction_numrange
from covkit.operators import _rotated_tops

NILPOTENT = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def su11(beta: complex, phase: float) -> Su11Element:
    alpha = cmath.exp(1j * phase) * math.sqrt(1.0 + abs(beta) ** 2)
    return Su11Element(alpha, beta)


su11_els = st.builds(
    su11,
    st.complex_numbers(max_magnitude=2.0, allow_infinity=False,
                       allow_nan=False),
    st.floats(-math.pi, math.pi))


@st.composite
def contractions(draw, n=2):
    entries = st.floats(-1.0, 1.0)
    raw = np.array([[draw(entries) + 1j * draw(entries) for _ in range(n)]
                    for _ in range(n)])
    norm = np.linalg.norm(raw, 2)
    scale = draw(st.floats(0.05, 0.9))
    return raw * (scale / norm) if norm > 0 else raw


def test_spectral_radius_examples():
    assert spectral_radius(np.zeros((3, 3))) == 0.0
    assert spectral_radius(np.diag([0.5, -0.25])) == pytest.approx(0.5)
    assert spectral_radius(NILPOTENT) == pytest.approx(0.0, abs=1e-12)


def test_identity_motion_fixes_the_operator():
    a = np.array([[0.1, 0.3j], [-0.2, 0.4]], dtype=complex)
    out = mobius_apply(Su11Element.identity(), a)
    assert np.allclose(out, a, atol=1e-14)


def test_zero_operator_moves_to_a_scalar():
    g = su11(4.0 / 3.0, 0.0)
    out = mobius_apply(g, np.zeros((2, 2), dtype=complex))
    assert np.allclose(out, 0.8 * np.eye(2), atol=1e-12)
    assert spectral_radius(out) == pytest.approx(0.8)


@given(g1=su11_els, g2=su11_els, a=contractions())
def test_mobius_action_composes(g1, g2, a):
    two_steps = mobius_apply(g1, mobius_apply(g2, a))
    one_step = mobius_apply(compose(g1, g2), a)
    assert np.max(np.abs(two_steps - one_step)) < 1e-10


@given(g=su11_els, a=contractions())
def test_mobius_action_preserves_contractivity(g, a):
    assert spectral_radius(mobius_apply(g, a)) < 1.0 + 1e-10


def test_mobius_rejects_bad_inputs():
    g = su11(0.5, 0.0)
    with pytest.raises(ValueError, match="contraction"):
        mobius_apply(g, np.diag([1.2, 0.3]))
    with pytest.raises(ValueError, match="square"):
        mobius_apply(g, np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# Numerical range


def test_orbit_validation():
    herm = np.array([[1.0, 0.5], [0.5, -1.0]], dtype=complex)
    e1 = np.array([1.0, 0.0], dtype=complex)
    ts = np.linspace(0.0, 1.0, 5)
    UnitaryOrbit(herm, e1, ts)
    with pytest.raises(ValueError, match="Hermitian"):
        UnitaryOrbit(NILPOTENT, e1, ts)
    with pytest.raises(ValueError, match="length"):
        UnitaryOrbit(herm, np.array([1.0, 0.0, 0.0]), ts)
    with pytest.raises(ValueError, match="unit"):
        UnitaryOrbit(herm, 2.0 * e1, ts)
    with pytest.raises(ValueError, match="nonempty"):
        UnitaryOrbit(herm, e1, np.array([]))


def test_orbit_starts_at_the_plain_quadratic_form():
    herm = np.array([[1.0, 0.5], [0.5, -1.0]], dtype=complex)
    orbit = UnitaryOrbit(herm, np.array([1.0, 0.0]), np.array([0.0]))
    vals = numrange_transform(np.diag([0.0, 1.0]).astype(complex), orbit)
    assert vals[0] == pytest.approx(0.0, abs=1e-12)


def test_identity_operator_reads_one_everywhere():
    herm = np.array([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, -0.5]])
    orbit = UnitaryOrbit(herm, np.array([0.6, 0.8]), np.linspace(0, 4, 21))
    vals = numrange_transform(np.eye(2, dtype=complex), orbit)
    assert np.max(np.abs(vals - 1.0)) < 1e-12


def test_orbit_values_stay_inside_the_range():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    herm = rng.normal(size=(3, 3))
    herm = herm + herm.T
    x = rng.normal(size=3) + 1j * rng.normal(size=3)
    x /= np.linalg.norm(x)
    ts = np.linspace(0.0, 6.0, 64)
    vals = numrange_transform(a, UnitaryOrbit(herm, x, ts))
    thetas = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
    for z in vals:
        margins = [z.real * math.cos(t) + z.imag * math.sin(t)
                   - support_function(a, t) for t in thetas]
        assert max(margins) <= 1e-9


def test_orbit_values_move_at_bounded_speed():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    herm = rng.normal(size=(3, 3))
    herm = herm + herm.T
    x = rng.normal(size=3) + 1j * rng.normal(size=3)
    x /= np.linalg.norm(x)
    ts = np.linspace(0.0, 2.0, 81)
    vals = numrange_transform(a, UnitaryOrbit(herm, x, ts))
    lip = 2.0 * np.linalg.norm(a, 2) * np.linalg.norm(herm, 2)
    steps = np.abs(np.diff(vals)) / np.diff(ts)
    assert np.max(steps) <= lip + 1e-9


def test_orbit_dimension_mismatch():
    herm = np.eye(2)
    orbit = UnitaryOrbit(herm, np.array([1.0, 0.0]), np.array([0.0]))
    with pytest.raises(ValueError, match="dimensions"):
        numrange_transform(np.zeros((3, 3)), orbit)


def test_hull_of_a_diagonal_matrix_is_its_segment():
    pts = numerical_range_hull(np.diag([0.0, 1.0]).astype(complex))
    assert np.max(np.abs(pts.imag)) < 1e-9
    assert np.min(pts.real) == pytest.approx(0.0, abs=1e-9)
    assert np.max(pts.real) == pytest.approx(1.0, abs=1e-9)


def test_hull_of_the_identity_is_a_point():
    pts = numerical_range_hull(np.eye(3, dtype=complex))
    assert np.max(np.abs(pts - 1.0)) < 1e-9


def test_hull_of_the_shift_block_is_a_half_disc_boundary():
    pts = numerical_range_hull(NILPOTENT)
    assert np.max(np.abs(np.abs(pts) - 0.5)) < 1e-9
    # counterclockwise orientation shows up as positive shoelace area
    area = 0.5 * float(np.sum(
        pts.real * np.roll(pts.imag, -1) - np.roll(pts.real, -1) * pts.imag))
    assert area == pytest.approx(math.pi / 4.0, rel=1e-3)


@pytest.mark.parametrize("n_theta", [1, 7, 360])
@pytest.mark.parametrize("n", [1, 2, 7, 33, 64])
def test_batched_supports_and_hull_match_one_direction_at_a_time(n, n_theta):
    # 33 and 64 split 360 directions into blocks of 60 and 16; random
    # matrices keep each top eigenvector unique, so hull points compare
    rng = np.random.default_rng([n, n_theta])
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    thetas = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    ref_supports, ref_points = _per_direction_numrange(a, thetas)
    tol = 1e-13 * max(1.0, np.linalg.norm(a, 2))
    for vectors in (False, True):
        supports = _rotated_tops(a, n_theta, vectors)[1]
        assert np.max(np.abs(supports - ref_supports)) <= tol
    assert np.max(np.abs(numerical_range_hull(a, n_theta) - ref_points)) <= tol


def _escape_orbit(ts=np.linspace(0.7, 40.0, 20_000)):
    rng = np.random.default_rng(11)
    herm = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    x = rng.normal(size=2) + 1j * rng.normal(size=2)
    return UnitaryOrbit(herm + herm.conj().T, x / np.linalg.norm(x), ts)


def test_certificate_names_the_first_escaping_t(monkeypatch):
    # 7 directions at n = 2 take 9362 t values per block, so 20,000 t
    # values make three blocks.  The t grid is put in order of each
    # value's worst margin, so a slack in a gap between two margins past
    # the first block lets that block through and stops a later one.
    block = operators._BLOCK_ENTRIES // 7
    thetas = np.linspace(0.0, 2.0 * math.pi, 7, endpoint=False)
    ref_supports, _ = _per_direction_numrange(NILPOTENT, thetas)

    def worst_margins(orbit):
        forms = numrange_transform(NILPOTENT, orbit, n_theta=7)
        return np.max(np.cos(thetas)[:, None] * forms.real
                      + np.sin(thetas)[:, None] * forms.imag
                      - ref_supports[:, None], axis=0)

    base = _escape_orbit()
    orbit = _escape_orbit(base.t_grid[np.argsort(worst_margins(base))])
    worst = worst_margins(orbit)
    gaps = np.diff(worst)
    m = block + int(np.argmax(gaps[block:]))
    assert gaps[m] > 1e-12
    monkeypatch.setattr(operators, "_SUPPORT_SLACK",
                        0.5 * (worst[m] + worst[m + 1]))
    with pytest.raises(ValueError, match=f"at t={orbit.t_grid[m + 1]:g} "):
        numrange_transform(NILPOTENT, orbit, n_theta=7)
    monkeypatch.setattr(operators, "_SUPPORT_SLACK", -math.inf)
    with pytest.raises(ValueError, match=f"at t={orbit.t_grid[0]:g} "):
        numrange_transform(NILPOTENT, orbit, n_theta=7)


def test_certificate_scratch_memory_is_bounded():
    orbit = _escape_orbit()
    tracemalloc.start()
    try:
        numrange_transform(NILPOTENT, orbit, n_theta=360)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


# ---------------------------------------------------------------------------
# JSON files


def test_matrix_json_round_trip(tmp_path):
    a = np.array([[0.5, 1.0 - 2.0j], [0.25j, -1.5]], dtype=complex)
    path = tmp_path / "m.json"
    write_matrix_json(path, a)
    assert np.array_equal(read_matrix_json(path), a)


def test_vector_json_round_trip(tmp_path):
    x = np.array([1.0, -0.5j, 0.25 + 0.125j], dtype=complex)
    path = tmp_path / "v.json"
    write_vector_json(path, x)
    assert np.array_equal(read_vector_json(path), x)


def _json_dump_bytes(tmp_path, payload) -> bytes:
    path = tmp_path / "ref.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")
    return path.read_bytes()


@pytest.mark.parametrize("n", [1, 2, 7, 32])
def test_json_writers_match_json_dump(tmp_path, n):
    rng = np.random.default_rng(n)
    for _ in range(50):
        a = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-300, 300, (n, n)) \
            + 1j * rng.normal(size=(n, n))
        a.flat[:4] = [-0.0, 5e-324, 1e308, -1e308 - 0.0j][:a.size]
        write_matrix_json(tmp_path / "m.json", a)
        want = _json_dump_bytes(tmp_path, {"matrix": [
            [[float(v.real), float(v.imag)] for v in row] for row in a]})
        assert (tmp_path / "m.json").read_bytes() == want
        write_vector_json(tmp_path / "v.json", a[0])
        want = _json_dump_bytes(tmp_path, {"vector": [
            [float(v.real), float(v.imag)] for v in a[0]]})
        assert (tmp_path / "v.json").read_bytes() == want


@pytest.mark.parametrize("blob,reader", [
    ('{"other": 1}', read_matrix_json),
    ('{"matrix": [[[0, 0], [1]], [[0, 0], [0, 0]]]}', read_matrix_json),
    ('{"matrix": [[[0, 0]], [[0, 0], [0, 0]]]}', read_matrix_json),
    ('{"other": 1}', read_vector_json),
    ('{"vector": [[0]]}', read_vector_json),
    ('{"vector": []}', read_vector_json),
])
def test_malformed_json_is_rejected(tmp_path, blob, reader):
    path = tmp_path / "bad.json"
    path.write_text(blob)
    with pytest.raises(ValueError):
        reader(path)
