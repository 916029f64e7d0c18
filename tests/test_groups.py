import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from covkit import (AffineElement, EuclideanMotion, GridSpecError,
                    Su11Element, element_distance, make_grid, rotation_matrix)
from covkit.groups import MAX_GRID_ELEMENTS, haar_density

ALG_TOL = 1e-10

finite = st.floats(min_value=-5.0, max_value=5.0,
                   allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.1, max_value=10.0,
                     allow_nan=False, allow_infinity=False)

affine_el = st.builds(AffineElement, a=positive, b=finite)
euclid_el = st.builds(EuclideanMotion, theta=finite, tx=finite, ty=finite)


@st.composite
def su11_el(draw):
    # parametrize by beta and a phase; alpha's modulus follows from the
    # unit-determinant relation |alpha|^2 - |beta|^2 = 1
    br = draw(st.floats(min_value=-2.0, max_value=2.0))
    bi = draw(st.floats(min_value=-2.0, max_value=2.0))
    phase = draw(st.floats(min_value=-math.pi, max_value=math.pi))
    beta = complex(br, bi)
    alpha = math.sqrt(1.0 + abs(beta) ** 2) * complex(math.cos(phase),
                                                      math.sin(phase))
    return Su11Element(alpha, beta)


ELEMENT_STRATEGIES = [affine_el, euclid_el, su11_el()]


def test_affine_product():
    g = AffineElement(2.0, 1.0) * AffineElement(3.0, 4.0)
    assert (g.a, g.b) == (6.0, 9.0)


def test_affine_identity_absorbs():
    g = AffineElement(1.7, -0.3)
    assert g * AffineElement.identity() == g
    assert AffineElement.identity() * g == g


def test_affine_inverse_values():
    gi = AffineElement(2.0, 1.0).inverse()
    assert (gi.a, gi.b) == (0.5, -0.5)


def test_su11_inverse_pair_is_identity():
    g = Su11Element(5.0 / 3.0, 4.0 / 3.0) * Su11Element(5.0 / 3.0, -4.0 / 3.0)
    assert abs(g.alpha - 1.0) < ALG_TOL
    assert abs(g.beta) < ALG_TOL


def test_euclidean_translation_inverse():
    gi = EuclideanMotion(0.0, 1.0, 0.0).inverse()
    assert (gi.theta, gi.tx, gi.ty) == (0.0, -1.0, 0.0)


@pytest.mark.parametrize("identity", [
    AffineElement.identity(), EuclideanMotion.identity(),
    Su11Element.identity(),
])
def test_identity_inverse_is_identity(identity):
    assert identity.inverse().is_identity()


def test_affine_requires_positive_dilation():
    with pytest.raises(ValueError):
        AffineElement(-1.0, 0.0)
    with pytest.raises(ValueError):
        AffineElement(0.0, 0.0)


def test_su11_rejects_broken_relation():
    # non-finite parts, and |alpha|^2 past the largest float, too
    for alpha, beta in ((1.0, 1.0), (math.nan, 0.0), (1.0, math.nan),
                        (math.inf, math.inf), (1e200, 1e200),
                        (complex(1.7e308, 1.7e308), 0.0)):
        with pytest.raises(ValueError, match="must be 1"):
            Su11Element(alpha, beta)


def test_compose_rejects_mixed_groups():
    with pytest.raises(TypeError):
        AffineElement.identity() * EuclideanMotion.identity()
    with pytest.raises(TypeError):
        element_distance(Su11Element.identity(), AffineElement.identity())


def test_angle_normalization():
    g = EuclideanMotion(3.0 * math.pi, 0.0, 0.0)
    assert g.theta == pytest.approx(math.pi)
    assert -math.pi < EuclideanMotion(-math.pi, 0, 0).theta <= math.pi


def test_element_distance_wraps_angles():
    g = EuclideanMotion(math.pi - 0.01, 0.0, 0.0)
    h = EuclideanMotion(-math.pi + 0.01, 0.0, 0.0)
    assert element_distance(g, h) == pytest.approx(0.02, abs=1e-12)


def test_rotation_matrix_orthogonal():
    r = rotation_matrix(0.7)
    assert np.allclose(r @ r.T, np.eye(2), atol=1e-15)
    assert np.linalg.det(r) == pytest.approx(1.0)


def test_euclidean_action_matches_coordinates():
    g = EuclideanMotion(math.pi / 2.0, 1.0, 0.0)
    moved = g.transform_points(np.array([1.0, 0.0]))
    assert np.allclose(moved, [1.0, 1.0], atol=1e-15)


@pytest.mark.parametrize("strategy", ELEMENT_STRATEGIES)
def test_associativity(strategy):
    @given(g=strategy, h=strategy, k=strategy)
    def run(g, h, k):
        left = (g * h) * k
        right = g * (h * k)
        assert element_distance(left, right) < ALG_TOL
    run()


@pytest.mark.parametrize("strategy", ELEMENT_STRATEGIES)
def test_inverse_law(strategy):
    @given(g=strategy)
    def run(g):
        e = g * g.inverse()
        assert element_distance(e, type(g).identity()) < ALG_TOL
    run()


@given(g=su11_el(), h=su11_el())
def test_su11_relation_survives_composition(g, h):
    gh = g * h
    assert abs(abs(gh.alpha) ** 2 - abs(gh.beta) ** 2 - 1.0) < ALG_TOL


# ---------------------------------------------------------------------------
# Grids


def test_log_axis_endpoints():
    grid = make_grid("affine:a=log:0.1:10:3,b=lin:-1:1:3")
    assert len(grid) == 9
    a_vals = sorted({g.a for g in grid.elements})
    assert a_vals == pytest.approx([0.1, 1.0, 10.0])


def test_single_point_grid_is_identity():
    grid = make_grid("affine:a=log:1:1:1,b=lin:0:0:1")
    assert len(grid) == 1
    assert grid.elements[0].is_identity()


def test_weight_at_unit_dilation():
    # Haar density a^-2 is 1 at a = 1, so the cell weight there is the
    # plain product of the axis cell widths.
    grid = make_grid("affine:a=lin:0.5:1.5:3,b=lin:0:1:3")
    da, db = 0.5, 0.5
    idx = [i for i, g in enumerate(grid.elements)
           if g.a == 1.0 and g.b == 0.5][0]
    assert grid.weights[idx] == pytest.approx(da * db)


def test_haar_weights_scale_like_inverse_square():
    grid = make_grid("affine:a=lin:1:2:2,b=lin:0:0:1")
    w1 = grid.weights[0]
    w2 = grid.weights[1]
    assert w2 / w1 == pytest.approx(1.0 / 4.0)


def test_grid_left_invariance_on_interior_mass():
    """Summing h(g) * weight(g) is stable under relabeling by a fixed
    left factor, because weight carries the left-invariant density."""
    g0 = AffineElement(1.3, 0.2)
    grid = make_grid("affine:a=log:0.2:5:41,b=lin:-6:6:121")

    def h(el):
        # smooth bump, supported well inside both grids in (log a, b)
        return math.exp(-(math.log(el.a)) ** 2 / 0.1 - el.b ** 2 / 0.5)

    total = sum(h(el) * w for el, w in zip(grid.elements, grid.weights))
    shifted = sum(h(g0.inverse() * el) * w
                  for el, w in zip(grid.elements, grid.weights))
    assert shifted == pytest.approx(total, rel=2e-2)


def test_grid_spec_round_trip():
    spec = "affine:a=log:0.1:10:5,b=lin:-2:2:7"
    grid = make_grid(spec)
    again = make_grid(grid.spec)
    assert again.spec == grid.spec
    assert np.array_equal(again.weights, grid.weights)
    assert again.elements == grid.elements


def test_e2_grid_round_trip():
    grid = make_grid("e2:theta=lin:-3:3:4,tx=lin:-1:1:3,ty=lin:-1:1:3")
    assert len(grid) == 36
    assert make_grid(grid.spec).elements == grid.elements


@pytest.mark.parametrize("bad", [
    "nosuch:a=lin:0:1:2",
    "affine",
    "affine:",
    "affine:a=log:0.1:10:3",
    "affine:a=log:0.1:10:3,b=lin:-1:1:3,c=lin:0:1:2",
    "affine:a=log:-1:10:3,b=lin:-1:1:3",
    "affine:a=log:0.1:10:0,b=lin:-1:1:3",
    "affine:a=quad:0.1:10:3,b=lin:-1:1:3",
    "affine:a=log:0.1:x:3,b=lin:-1:1:3",
    "affine:a=log:0.1:10:3.5,b=lin:-1:1:3",
    "affine:a=log:1:1:4,b=lin:-1:1:3",
    "affine:alog:0.1:10:3,b=lin:-1:1:3",
    "affine:a=log:0.5:2:2,b=lin:nan:1:2",
    "affine:a=log:0.5:inf:2,b=lin:-1:1:3",
    "affine:a=lin:-1:1:3,b=lin:-1:1:3",
    "affine:a=lin:0:1:3,b=lin:-1:1:3",
    "e2:theta=lin:-inf:1:2,tx=lin:0:1:2,ty=lin:0:1:2",
])
def test_grid_spec_errors(bad):
    with pytest.raises(GridSpecError):
        make_grid(bad)


def test_oversized_grid_is_rejected_before_allocating():
    spec = "affine:a=log:1:2:100000,b=lin:0:1:100000"
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(GridSpecError, match="10000000000 elements"):
            make_grid(spec)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert elapsed < 0.05
    with pytest.raises(GridSpecError, match="more than the limit"):
        make_grid(f"e2:theta=lin:0:1:{MAX_GRID_ELEMENTS + 1},"
                  "tx=lin:0:0:1,ty=lin:0:0:1")


def test_grid_axis_lookup():
    grid = make_grid("affine:a=log:0.1:10:3,b=lin:-1:1:3")
    assert grid.axis("a").kind == "log"
    with pytest.raises(KeyError):
        grid.axis("theta")
    assert grid.shape == (3, 3)
    assert grid.coords.shape == (9, 2)


@pytest.mark.parametrize("spec", [
    "affine:a=log:0.1:10:32,b=lin:-5:5:9",
    "affine:b=lin:-2:2:7,a=log:0.2:5:41",
    "affine:a=lin:0.3:2.9:6,b=lin:-1:1:3",
    "e2:theta=lin:0:7:4,tx=lin:-1:1:3,ty=lin:0:1:2",
])
def test_grid_arrays_match_elements_built_one_at_a_time(spec):
    """coords and weights are bit-equal to the per-element construction:
    row-major over the listed axes, coords in the group's own order."""
    grid = make_grid(spec)
    names = [ax.name for ax in grid.axes]
    elements, weights = [], []
    for point, widths in zip(
            itertools.product(*(ax.values() for ax in grid.axes)),
            itertools.product(*(ax.cell_widths() for ax in grid.axes))):
        named = dict(zip(names, point))
        if grid.group == "affine":
            el = AffineElement(named["a"], named["b"])
            density = haar_density(grid.group, el.a)
        else:
            el = EuclideanMotion(named["theta"], named["tx"], named["ty"])
            density = haar_density(grid.group)
        elements.append(el)
        weights.append(density * math.prod(widths))
    assert np.array_equal(grid.coords, [el.coords() for el in elements])
    assert np.array_equal(grid.weights, weights)
    assert grid.elements == tuple(elements)
    assert not grid.coords.flags.writeable
