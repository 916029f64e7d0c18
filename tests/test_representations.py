import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from covkit import (AffineElement, AffineRep, EuclideanMotion, EuclideanRep,
                    SampledSignal2D, apply, apply_affine, apply_euclidean,
                    compose, evaluate, evaluate2, lp_norm,
                    signal_from_function, signal2_from_function)

from conftest import gaussian


def smooth_bump(dx=0.01, lo=-6.0, hi=6.0):
    return signal_from_function(
        lambda x: np.exp(-x ** 2) * (1.0 + 0.5 * np.sin(3.0 * x)), lo, hi, dx)


def disc2(dx=0.02, r=1.0, span=2.0):
    return signal2_from_function(
        lambda x, y: np.where(x ** 2 + y ** 2 <= r ** 2, 1.0, 0.0),
        -span, span, -span, span, dx)


def bump2(dx=0.05, span=2.0, width=0.5):
    return signal2_from_function(
        lambda x, y: np.exp(-(x ** 2 + y ** 2) / width ** 2),
        -span, span, -span, span, dx)


def test_identity_is_bit_exact():
    f = smooth_bump()
    out = apply_affine(AffineRep(2.0), AffineElement.identity(), f)
    assert out is f
    f2 = bump2()
    assert apply_euclidean(EuclideanRep(), EuclideanMotion.identity(), f2) is f2


def test_affine_dilation_of_box():
    # acting by (4, 0) inverted squeezes indicator[0,1] to [0, 1/4] and
    # scales it by 4^{1/2}; this is the direction the transform engine
    # feeds to the action
    f = signal_from_function(
        lambda x: np.where((x >= 0) & (x <= 1), 1.0, 0.0), -2.0, 2.0, 0.01)
    out = apply_affine(AffineRep(2.0), AffineElement(4.0, 0.0).inverse(), f)
    assert complex(evaluate(out, 0.1)) == pytest.approx(2.0)
    assert complex(evaluate(out, 0.3)) == pytest.approx(0.0)
    assert abs(lp_norm(out, 2.0) - lp_norm(f, 2.0)) <= 2 * f.dx


def test_sup_norm_survives_p_infinity_action():
    f = smooth_bump()
    out = apply_affine(AffineRep(math.inf), AffineElement(1.7, 0.4), f)
    assert abs(lp_norm(out, math.inf) - lp_norm(f, math.inf)) < 5e-4


@given(a=st.floats(0.5, 2.0), b=st.floats(-1.0, 1.0),
       a2=st.floats(0.5, 2.0), b2=st.floats(-1.0, 1.0))
def test_affine_homomorphism(a, b, a2, b2):
    f = gaussian(lo=-16.0, hi=16.0, dx=0.02)
    g, h = AffineElement(a, b), AffineElement(a2, b2)
    two_step = apply_affine(AffineRep(2.0), g,
                            apply_affine(AffineRep(2.0), h, f))
    one_step = apply_affine(AffineRep(2.0), compose(g, h), f)
    mid = np.abs(f.xs) <= 4.0
    worst = np.max(np.abs(two_step.values[mid] - one_step.values[mid]))
    # ~11x the worst of 3016 draws (4.4e-16): the same samples on frames
    # composed in two orders
    assert worst < 5e-15


@given(a=st.floats(0.25, 4.0), b=st.floats(-2.0, 2.0),
       p=st.sampled_from([1.0, 2.0, 4.0]))
def test_affine_isometry(a, b, p):
    f = gaussian(lo=-40.0, hi=40.0, dx=0.02)
    out = apply_affine(AffineRep(p), AffineElement(a, b), f)
    # ~11x the worst of 3012 draws (4.4e-16)
    assert abs(lp_norm(out, p) - lp_norm(f, p)) < 5e-15


def test_affine_rep_validation():
    with pytest.raises(ValueError):
        AffineRep(0.5)
    assert AffineRep(math.inf).describe() == "affine:p=inf"
    assert AffineRep(2.0).describe() == "affine:p=2"


def test_rotation_by_pi_fixes_the_disc():
    # compare away from the rim: nodes that land exactly on the circle
    # rasterise asymmetrically (float rounding differs across zero), and
    # no interpolation-error bound holds on a jump anyway
    f = disc2()
    out = apply_euclidean(EuclideanRep(), EuclideanMotion(math.pi, 0, 0), f)
    X, Y = np.meshgrid(f.xs, f.ys)
    off_rim = np.abs(np.hypot(X, Y) - 1.0) > 2 * f.dx
    assert np.max(np.abs(evaluate2(out, X, Y) - f.values)[off_rim]) < 1e-9


def test_translated_disc_moves_its_center():
    f = disc2(span=3.0)
    g = EuclideanMotion(0.0, 1.0, 0.0)
    out = apply_euclidean(EuclideanRep(), g, f)
    assert complex(evaluate2(out, 1.0, 0.0)).real == pytest.approx(1.0)
    assert complex(evaluate2(out, 0.5, 0.0)).real == pytest.approx(1.0)
    assert complex(evaluate2(out, -2 * f.dx, 0.0)).real == 0.0
    assert complex(evaluate2(out, 1.9, 0.1)).real == pytest.approx(1.0)


@given(th=st.floats(-2.5, 2.5), tx=st.floats(-0.4, 0.4),
       ty=st.floats(-0.4, 0.4), th2=st.floats(-2.5, 2.5))
def test_euclidean_homomorphism(th, tx, ty, th2):
    # premoved, so that both sides compose motions with rounding (h
    # times the identity would be h exactly); they carry the same
    # samples, so only that rounding separates them: 2e-14 is ~10x the
    # worst of 3000 random draws (1.9e-15)
    rep = EuclideanRep()
    f = apply_euclidean(rep, EuclideanMotion(0.7, 0.2, -0.1),
                        bump2(dx=0.05, span=3.0))
    g = EuclideanMotion(th, tx, ty)
    h = EuclideanMotion(th2, -tx / 2.0, ty / 2.0)
    two = apply_euclidean(rep, g, apply_euclidean(rep, h, f))
    one = apply_euclidean(rep, compose(g, h), f)
    X, Y = np.meshgrid(np.linspace(-1.0, 1.0, 41), np.linspace(-1.0, 1.0, 41))
    assert np.max(np.abs(evaluate2(two, X, Y) - evaluate2(one, X, Y))) < 2e-14


def test_moved_frame_reads_the_samples_through_its_motion():
    # a quarter turn, then a shift: lattice node (x, y) sits at
    # (1 - y, x - 0.5) and reads its own sample there; the moved signal
    # keeps the array
    rng = np.random.default_rng(3)
    vals = rng.normal(size=(7, 9)) + 1j * rng.normal(size=(7, 9))
    f = SampledSignal2D((-1.0, -0.75), 0.25, 0.25, vals)
    rep = EuclideanRep()
    moved = apply_euclidean(rep, EuclideanMotion(0.0, 1.0, -0.5),
                            apply_euclidean(rep, EuclideanMotion(math.pi / 2,
                                                                 0.0, 0.0), f))
    assert moved.values is f.values
    X, Y = np.meshgrid(f.xs, f.ys)
    assert np.max(np.abs(evaluate2(moved, 1.0 - Y, X - 0.5) - vals)) < 1e-12
    assert complex(evaluate2(moved, 3.0, 3.0)) == 0.0


def test_apply_dispatch_checks_signal_shape():
    f1 = smooth_bump(dx=0.1)
    f2 = bump2(dx=0.25)
    with pytest.raises(TypeError):
        apply(AffineRep(2.0), AffineElement(2.0, 0.0), f2)
    with pytest.raises(TypeError):
        apply(EuclideanRep(), EuclideanMotion(0.1, 0, 0), f1)
    with pytest.raises(TypeError):
        apply("not a rep", AffineElement(2.0, 0.0), f1)
