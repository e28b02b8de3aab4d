"""Derived-oracle identities: sections, slabs, translates."""

import math
from dataclasses import replace

import numpy as np
import pytest

from convexlab.bodies import BodyError, ball_oracle, oracle_of
from convexlab.grassmann import RngStream, Subspace, embed, sample_haar_subspace
from convexlab.intrinsic import circle_grid, fibonacci_sphere
from convexlab.polykernel import HPolytope
from convexlab.transforms import (SlabSpec, max_slab_halfwidth, section_oracle,
                                  slab_oracle, translate_oracle)


def test_slab_spec_validation():
    with pytest.raises(BodyError, match="unit vector"):
        SlabSpec(np.array([1.0, 1.0, 0.0]), 0.5)
    with pytest.raises(BodyError, match="positive"):
        SlabSpec(np.array([0.0, 0.0, 1.0]), 0.0)
    s = SlabSpec(np.array([0.0, 0.0, 1.0]), 0.5)
    assert not s.xi.flags.writeable


def test_section_radial_is_exact_restriction(smooth_pair):
    body = smooth_pair.oracle_K
    rng = RngStream(21, 0)
    for j in range(5):
        sub = sample_haar_subspace(3, 2, rng.substream(j))
        sec = section_oracle(body, sub)
        us = circle_grid(64)
        assert np.array_equal(np.asarray(sec.radial(us)),
                              np.asarray(body.radial(embed(sub, us))))
        # membership restricts the same way
        pts = us * np.asarray(sec.radial(us))[:, None]
        assert np.all(sec.member(0.99 * pts))
        assert not np.any(sec.member(1.01 * pts + 1e-9 * us))


def test_equatorial_section_of_smooth_body_is_unit_disc(smooth_pair):
    # both bumps are supported away from t = 0, so the z = 0 slice is the
    # unit disc regardless of variant
    sub = Subspace(np.eye(3)[:, :2])
    for body in (smooth_pair.oracle_K, smooth_pair.oracle_L):
        sec = section_oracle(body, sub)
        rho = np.asarray(sec.radial(circle_grid(128)))
        assert np.allclose(rho, 1.0, atol=1e-11)


def test_section_support_recovery():
    ball = ball_oracle(3)
    sub2 = sample_haar_subspace(3, 2, RngStream(21, 1))
    sec2 = section_oracle(ball, sub2)
    assert np.allclose(sec2.support(circle_grid(32)), 1.0, atol=1e-6)
    assert sec2.eval_tol >= 1e-6

    sec3 = section_oracle(ball, Subspace(np.eye(3)))
    dirs = fibonacci_sphere(25)
    assert np.allclose(sec3.support(dirs), 1.0, atol=1e-8)

    with pytest.raises(BodyError, match="ambient dimension"):
        section_oracle(ball, Subspace(np.eye(4)[:, :2]))


def test_polytope_section_oracle_is_exact():
    box = oracle_of(HPolytope.box([0.05, 1.0, 20.0]))
    sec = section_oracle(box, Subspace(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])))
    assert sec.kind == "polytope" and sec.eval_tol == box.eval_tol
    dirs = np.array([[1.0, 0.0], [0.0, 1.0], [-0.6, -0.8]])
    assert np.allclose(sec.support(dirs), [0.05, 20.0, 16.03], rtol=0.0, atol=1e-15)
    assert np.allclose(sec.radial(dirs[:2]), [0.05, 20.0], rtol=0.0, atol=1e-15)


def test_section_inside_projection(smooth_pair):
    body = smooth_pair.oracle_K
    for j in range(4):
        sub = sample_haar_subspace(3, 2, RngStream(21, 3).substream(j))
        sec = section_oracle(body, sub)
        us = circle_grid(64)
        rho = np.asarray(sec.radial(us))
        h = np.asarray(body.support(embed(sub, us)))  # support of the shadow
        assert np.all(rho <= h + 1e-9)


def test_slab_polytope_route_matches_min_formula(polytope_pair):
    body = polytope_pair.oracle_K
    spec = SlabSpec(np.array([0.0, 0.0, 1.0]), 0.5)
    exact = slab_oracle(body, spec)
    assert exact.kind == "polytope-slab"
    assert exact.polytope is not None

    generic = replace(body, polytope=None, vrep=None)
    formula = slab_oracle(generic, spec)
    assert formula.kind == "slab"

    dirs = RngStream(21, 4).generator().standard_normal((1000, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    d = np.abs(np.asarray(exact.radial(dirs)) - np.asarray(formula.radial(dirs)))
    assert d.max() < 1e-11


def test_slab_radial_pairing_survives_clipping(smooth_pair):
    # the clip bound t/|<theta, xi>| is even in theta, so the radial pairing
    # of the parent pair carries over to the slabs exactly
    spec = SlabSpec(np.array([0.0, 1.0, 0.0]), 0.4)
    slab_K = slab_oracle(smooth_pair.oracle_K, spec)
    slab_L = slab_oracle(smooth_pair.oracle_L, spec)
    dirs = RngStream(21, 5).generator().standard_normal((500, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    rk_p, rk_m = np.asarray(slab_K.radial(dirs)), np.asarray(slab_K.radial(-dirs))
    rl_p, rl_m = np.asarray(slab_L.radial(dirs)), np.asarray(slab_L.radial(-dirs))
    straight = np.maximum(np.abs(rk_p - rl_p), np.abs(rk_m - rl_m))
    swapped = np.maximum(np.abs(rk_p - rl_m), np.abs(rk_m - rl_p))
    assert np.minimum(straight, swapped).max() <= 2.0 * smooth_pair.oracle_K.eval_tol


def test_slab_of_ball_support_values():
    slab = slab_oracle(ball_oracle(3), SlabSpec(np.array([0.0, 0.0, 1.0]), 0.5))
    e1, e3 = np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])
    assert slab.support(e3) == pytest.approx(0.5, abs=1e-5)
    assert slab.support(e1) == pytest.approx(1.0, abs=1e-5)
    diag = np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0)
    # maximizer sits on the rim circle (a kink), so accuracy degrades there
    rim = (math.sqrt(3.0) + 1.0) / (2.0 * math.sqrt(2.0))
    assert slab.support(diag) == pytest.approx(rim, abs=2e-4)
    assert slab.radial(e3) == pytest.approx(0.5, abs=1e-12)
    assert slab.member(np.array([0.9, 0.0, 0.1]))
    assert not slab.member(np.array([0.0, 0.0, 0.6]))
    with pytest.raises(BodyError, match="dimension"):
        slab_oracle(ball_oracle(2), SlabSpec(np.array([0.0, 0.0, 1.0]), 0.5))


def test_translate_oracle_values():
    shifted = translate_oracle(ball_oracle(3), np.array([0.5, 0.0, 0.0]))
    e1 = np.array([1.0, 0.0, 0.0])
    assert shifted.radial(e1) == pytest.approx(0.5, abs=1e-9)
    assert shifted.radial(-e1) == pytest.approx(1.5, abs=1e-9)
    assert shifted.support(e1) == pytest.approx(0.5, abs=1e-12)
    assert shifted.support(-e1) == pytest.approx(1.5, abs=1e-12)
    assert shifted.member(np.array([0.49, 0.0, 0.0]))
    assert not shifted.member(np.array([0.51, 0.0, 0.0]))

    unshifted = translate_oracle(ball_oracle(3), np.zeros(3))
    assert unshifted.radial(e1) == pytest.approx(1.0, abs=1e-9)

    with pytest.raises(BodyError, match="interior"):
        translate_oracle(ball_oracle(3), np.array([1.5, 0.0, 0.0]))
    with pytest.raises(BodyError, match="dimension"):
        translate_oracle(ball_oracle(3), np.array([0.1, 0.0]))


def test_translate_radial_reaches_far_boundary_of_elongated_body():
    # 256 probe radials of this box reach only about 5.8, far short of the
    # long half-axis of 20, so the first bisection bracket ends inside
    box = oracle_of(HPolytope.box([0.05, 1.0, 20.0]))
    shifted = translate_oracle(box, np.array([0.0, 0.0, 0.5]))
    e3 = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    assert np.allclose(shifted.radial(e3), [19.5, 20.5], rtol=0.0, atol=1e-10)


def test_max_slab_halfwidth(polytope_pair):
    assert 0.999 <= max_slab_halfwidth(ball_oracle(3)) < 1.0
    assert 0.999 <= max_slab_halfwidth(ball_oracle(2)) < 1.0
    # the corner-cut box keeps the +-e1 facets at distance 1
    assert 0.999 <= max_slab_halfwidth(polytope_pair.oracle_K) < 1.0
