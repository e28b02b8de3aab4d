"""Derived-oracle identities: sections, slabs, translates."""

import gc
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

from convexlab.bodies import BodyError, ball_oracle, make_revolution_spec, oracle_of
from convexlab.grassmann import RngStream, Subspace, embed, sample_haar_subspace, sample_sphere
from convexlab.experiments import make_pair
from convexlab.intrinsic import (EstimateError, _slab_support_points, circle_grid,
                                 fibonacci_sphere, sphere_grid)
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


@pytest.mark.parametrize("make, message", [
    (lambda: HPolytope([[np.nan, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], np.ones(4)),
     "unit vectors"),
    (lambda: HPolytope(np.vstack([np.eye(2), -np.eye(2)]), [1.0, 1.0, 1.0, np.nan]),
     "offsets must be positive"),
    (lambda: SlabSpec(np.array([np.nan, 0.0, 1.0]), 0.5), "unit vector"),
    (lambda: translate_oracle(ball_oracle(3), [np.nan, 0.0, 0.0]), "margin 1e-9"),
    (lambda: ball_oracle(3, np.nan), "positive dimension and radius"),
], ids=["polytope-normal", "polytope-offset", "slab-normal", "translate-shift", "ball-radius"])
def test_constructors_reject_nan(make, message):
    with pytest.raises(ValueError, match=message):
        make()


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
    assert sec2.eval_tol == ball.eval_tol

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
    assert exact.kind == "polytope"
    assert exact.polytope is not None

    generic = replace(body, polytope=None)
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
    assert slab.eval_tol == ball_oracle(3).eval_tol
    e1, e3 = np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])
    assert slab.support(e3) == pytest.approx(0.5, abs=slab.eval_tol)
    assert slab.support(e1) == pytest.approx(1.0, abs=slab.eval_tol)
    diag = np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0)
    # the maximizer sits on the rim circle (a kink)
    rim = (math.sqrt(3.0) + 1.0) / (2.0 * math.sqrt(2.0))
    assert slab.support(diag) == pytest.approx(rim, abs=slab.eval_tol)
    assert slab.radial(e3) == pytest.approx(0.5, abs=1e-12)
    assert slab.member(np.array([0.9, 0.0, 0.1]))
    assert not slab.member(np.array([0.0, 0.0, 0.6]))
    with pytest.raises(BodyError, match="dimension"):
        slab_oracle(ball_oracle(2), SlabSpec(np.array([0.0, 0.0, 1.0]), 0.5))


SLAB_NORMALS = [np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]),
                np.array([0.48, -0.6, 0.64])]


def _clipped_support(support, xi, t, u):
    """The support of a body with support function `support` clipped to
    {|<x, xi>| <= t}, at the rows of u, as the infimal convolution min over
    mu of h(u - mu xi) + t |mu| (Rockafellar, Convex Analysis,
    Cor. 16.4.1), by golden-section search on mu: a reference independent
    of the closed forms and of the rim solve."""
    def cost(mu):
        return np.asarray(support(u - mu[:, None] * xi)) + t * np.abs(mu)

    g = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = np.full(len(u), -1e3), np.full(len(u), 1e3)
    a, b = hi - g * (hi - lo), lo + g * (hi - lo)
    fa, fb = cost(a), cost(b)
    for _ in range(120):
        # keep the side of the smaller value; its inner point is reused
        left = fa <= fb
        lo, hi = np.where(left, lo, a), np.where(left, b, hi)
        new = np.where(left, hi - g * (hi - lo), lo + g * (hi - lo))
        f = cost(new)
        a, b, fa, fb = (np.where(left, new, b), np.where(left, a, new),
                        np.where(left, f, fb), np.where(left, fa, f))
    return cost(0.5 * (lo + hi))


@pytest.mark.parametrize("radius, shift", [
    (1.0, [0.0, 0.0, 0.0]), (1.0, [0.3, 0.0, 0.0]), (2.5, [0.5, -0.4, 0.6]),
    (0.4, [-0.1, 0.2, 0.1])])
@pytest.mark.parametrize("t", [0.05, 0.3, 0.9])
@pytest.mark.parametrize("xi", SLAB_NORMALS, ids=["axis", "equator", "oblique"])
def test_slab_of_a_translated_ball_meets_its_infimal_convolution(radius, shift, t, xi):
    """The closed-form supports of a slab of a ball or a translated ball
    meet an independent reference at the eval_tol the slab declares, which
    is its parent's, on random directions and at and next to +-xi; t = 0.9
    leaves some of these balls unclipped on one side."""
    body = ball_oracle(3, radius)
    if any(shift):
        body = translate_oracle(body, shift)
    slab = slab_oracle(body, SlabSpec(xi, t))
    assert slab.eval_tol == body.eval_tol
    u = _slab_directions(xi)
    center = -np.array(shift)
    exact = _clipped_support(lambda w: w @ center + radius * np.linalg.norm(w, axis=1), xi, t, u)
    assert np.abs(np.asarray(slab.support(u)) - exact).max() <= slab.eval_tol


@pytest.mark.parametrize("n, variant", [(2, "K"), (3, "K"), (3, "L"), (4, "L")])
@pytest.mark.parametrize("fraction", [0.3, 0.6])
@pytest.mark.parametrize("t", [0.1, 0.3, 0.5])
def test_slab_of_a_translated_body_of_revolution_meets_its_infimal_convolution(
        n, variant, fraction, t):
    """A slab of K - s takes the rim solve of K at the levels <s, xi> -+ t;
    against the infimal convolution of the translate's own support, with
    shifts up to 0.6 of the unit inner radius, it meets the eval_tol it
    declares, which is its parent's."""
    draw = RngStream(22, n).generator()
    shift, xi = draw.standard_normal((2, n))
    shift *= fraction / np.linalg.norm(shift)
    xi /= np.linalg.norm(xi)
    body = translate_oracle(oracle_of(make_revolution_spec(n, variant=variant)), shift)
    slab = slab_oracle(body, SlabSpec(xi, t))
    assert slab.eval_tol == body.eval_tol
    u = _slab_directions(xi, 100)
    exact = _clipped_support(body.support, xi, t, u)
    assert np.abs(np.asarray(slab.support(u)) - exact).max() <= slab.eval_tol


GRAMMAR = {
    "revolution": lambda: oracle_of(make_revolution_spec(3)),
    "polytope": lambda: make_pair("polytope").oracle_K,
    "ball": lambda: ball_oracle(3, 0.8),
    "translated-ball": lambda: translate_oracle(ball_oracle(3), [0.3, -0.2, 0.1]),
    "translated-revolution": lambda: translate_oracle(
        oracle_of(make_revolution_spec(3, variant="L")), [0.1, -0.05, 0.2]),
    "translated-polytope": lambda: translate_oracle(make_pair("polytope").oracle_L,
                                                    [0.1, -0.05, 0.2]),
}


@pytest.mark.parametrize("kind", GRAMMAR)
def test_slabs_of_every_grammar_body_meet_their_parents_eval_tol(kind):
    """Every body the spec grammar builds has exact slab supports, at the
    eval_tol of its parent."""
    body = GRAMMAR[kind]()
    xi = SLAB_NORMALS[2]
    slab = slab_oracle(body, SlabSpec(xi, 0.4))
    assert slab.eval_tol == body.eval_tol
    u = _slab_directions(xi, 100)
    exact = _clipped_support(body.support, xi, 0.4, u)
    assert np.abs(np.asarray(slab.support(u)) - exact).max() <= slab.eval_tol


def test_a_slab_of_a_body_outside_the_grammar_has_no_support(ellipsoid):
    """No exact route reaches a test-side ellipsoid, and no search stands in
    for one: its slab's radial and membership work, its support raises."""
    slab = slab_oracle(ellipsoid([1.2, 1.0, 0.8]), SlabSpec(SLAB_NORMALS[2], 0.4))
    assert slab.radial(SLAB_NORMALS[2]) == pytest.approx(0.4, abs=1e-15)
    assert slab.member(np.zeros(3))
    with pytest.raises(EstimateError, match="no exact slab support for a body of kind 'ellipsoid'"):
        slab.support(SLAB_NORMALS[0])


def test_symmetric_levels_take_one_level_per_row(smooth_pair):
    """With levels (-t, t) each row is solved on the one rim it crosses, as
    the symmetric solve did: it gets the bits of a call whose other level is
    infinite, and a slab normal of the other sign gives the same bits."""
    spec = smooth_pair.oracle_K.revolution
    draw = RngStream(22, 9).generator()
    xis, u = draw.standard_normal((2, 3000, 3))
    xis /= np.linalg.norm(xis, axis=1, keepdims=True)
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    t = draw.uniform(0.05, 0.95, 3000)
    inf = np.full(3000, np.inf)
    h, p, rim = _slab_support_points(spec, xis, -t, t, u)
    above = rim & ((p * xis).sum(axis=1) > 0.0)
    assert above.any() and (rim & ~above).any() and not rim.all()
    assert np.array_equal(h, np.where(above, _slab_support_points(spec, xis, -inf, t, u)[0],
                                      _slab_support_points(spec, xis, -t, inf, u)[0]))
    assert np.array_equal(h, _slab_support_points(spec, -xis, -t, t, u)[0])


def _slab_directions(xi, m=400):
    """m seeded unit directions, then xi, -xi and a direction 1e-9 from xi."""
    g = RngStream(21, 6).generator().standard_normal((m, len(xi)))
    near = xi + 1e-9 * np.roll(xi, 1)
    dirs = np.vstack([g, xi, -xi, near])
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


@pytest.mark.parametrize("xi", SLAB_NORMALS, ids=["axis", "equator", "oblique"])
@pytest.mark.parametrize("t", [0.2, 0.5, 0.9])
def test_slab_of_the_profile_ball_meets_its_closed_form(xi, t):
    """The epsilon = 0 body is the unit ball: h(u) = 1 where |<u, xi>| <= t,
    else t |<u, xi>| + sqrt(1 - t^2) |u - <u, xi> xi|."""
    ball = oracle_of(make_revolution_spec(3, epsilon=0.0))
    slab = slab_oracle(ball, SlabSpec(xi, t))
    assert slab.eval_tol == ball.eval_tol
    u = _slab_directions(xi)
    beta = u @ xi
    normal = np.linalg.norm(u - beta[:, None] * xi, axis=1)
    exact = np.where(np.abs(beta) <= t, 1.0, t * np.abs(beta) + math.sqrt(1.0 - t * t) * normal)
    assert np.abs(np.asarray(slab.support(u)) - exact).max() <= slab.eval_tol
    assert slab.support(xi) == pytest.approx(t, abs=slab.eval_tol)
    assert slab.support(-xi) == pytest.approx(t, abs=slab.eval_tol)


@pytest.mark.parametrize("xi", SLAB_NORMALS, ids=["axis", "equator", "oblique"])
@pytest.mark.parametrize("t", [0.3, 0.5])
def test_smooth_slab_supports_carry_their_rim_points(smooth_pair, xi, t):
    """Each far row's point p lies in K on the rim, s <p, xi> = t, and
    attains the support value; each near row is the parent's support."""
    K = smooth_pair.oracle_K
    u = _slab_directions(xi)
    rows = len(u)
    h, p, rim = _slab_support_points(K.revolution, np.tile(xi, (rows, 1)), np.full(rows, -t),
                                     np.full(rows, t), u)
    assert rim.any() and not rim.all()
    level = p[rim] @ xi
    assert np.abs(np.abs(level) - t).max() <= 1e-14
    assert np.all(K.member(p[rim]))
    assert np.abs(h[rim] - np.sum(p[rim] * u[rim], axis=1)).max() <= 1e-14
    assert np.array_equal(h[~rim], K.support(u[~rim]))
    assert np.all(np.abs(p[~rim] @ xi) <= t)


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
    # the long half-axis of 20 is 400 times the short one: rays that start
    # from the short radius must double their bracket until it leaves the
    # box; without its polytope record the box's translate takes the secant
    box = replace(oracle_of(HPolytope.box([0.05, 1.0, 20.0])), polytope=None)
    shifted = translate_oracle(box, np.array([0.0, 0.0, 0.5]))
    e3 = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    assert np.allclose(shifted.radial(e3), [19.5, 20.5], rtol=0.0, atol=1e-10)


def _unit_rows(seed: int, m: int, dim: int = 3) -> np.ndarray:
    g = RngStream(seed, dim).generator().standard_normal((m, dim))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


@pytest.mark.parametrize("radius, shift", [
    (1.0, [0.3, 0.0, 0.0]), (1.0, [0.5, -0.4, 0.6]), (2.5, [0.0, 1e-9, 0.0]),
    (0.4, [-0.1, 0.2, 0.3]), (1.0, [1e-17, -2e-17, 0.0]),
])
def test_translate_ball_radial_matches_closed_form(radius, shift):
    s = np.array(shift)
    dirs = _unit_rows(61, 20_000)
    norm = np.linalg.norm(s)
    if norm:
        dirs = np.vstack([dirs, s / norm, -s / norm])
    rho = translate_oracle(ball_oracle(3, radius), s).radial(dirs)
    # |r theta + s| = R along unit theta; the closed form is taken for the
    # computed rows, whose norms differ from 1 in the last ulps
    a = np.sum(dirs * dirs, axis=1)
    b = dirs @ s
    exact = (-b + np.sqrt(b * b - a * (s @ s - radius * radius))) / a
    assert np.max(np.abs(rho - exact)) <= 1e-15
    # the bracketed secant, which translates of other bodies take, meets it too
    secant = translate_oracle(replace(ball_oracle(3, radius), ball=None), s).radial(dirs)
    assert np.max(np.abs(secant - exact)) <= 1e-13


def test_a_translated_ball_is_a_ball():
    """translate_oracle carries the ball over with its center moved by
    -shift, through the translate-of-translate fold, and keeps its kind and
    (base, shift) record."""
    a, b = np.array([0.3, -0.1, 0.2]), np.array([-0.25, 0.05, 0.1])
    base = ball_oracle(3, 2.0)
    twice = translate_oracle(translate_oracle(base, a), b)
    assert twice.kind == "translate" and twice.translate[0] is base
    radius, center = twice.ball
    assert radius == 2.0
    assert np.array_equal(center, -(a + b))
    assert not center.flags.writeable
    assert translate_oracle(oracle_of(make_revolution_spec(3)), a).ball is None


def test_translated_polytope_matches_the_shifted_facets(polytope_pair):
    """A translated polytope is the polytope oracle of its shifted facets;
    the secant, which it took before, meets that to 1e-12."""
    s = np.array([0.02, -0.03, 0.01])
    for oracle in (polytope_pair.oracle_K, oracle_of(HPolytope.box([0.05, 1.0, 20.0]))):
        poly = oracle.polytope
        moved = HPolytope(poly.normals, poly.offsets - poly.normals @ s)
        translated = translate_oracle(oracle, s)
        assert translated.kind == "polytope" and translated.translate is None
        assert np.array_equal(translated.polytope.offsets, moved.offsets)
        assert np.array_equal(translated.polytope.normals, poly.normals)
        shifted = translate_oracle(replace(oracle, polytope=None), s)
        dirs = np.vstack([_unit_rows(62, 5000), np.eye(3), -np.eye(3)])
        exact = oracle_of(moved).radial(dirs)
        assert np.max(np.abs(shifted.radial(dirs) - exact)) <= 1e-12 * np.max(exact)


def test_translate_of_translate_is_one_translate():
    ball = ball_oracle(3)
    a, b = np.array([0.3, -0.1, 0.2]), np.array([-0.25, 0.05, 0.1])
    twice = translate_oracle(translate_oracle(ball, a), b)
    once = translate_oracle(ball, a + b)
    assert twice.translate[0] is ball
    assert np.array_equal(twice.translate[1], a + b)
    dirs = _unit_rows(63, 2000)
    assert np.array_equal(twice.radial(dirs), once.radial(dirs))
    assert np.array_equal(twice.support(dirs), once.support(dirs))
    points = 0.9 * dirs
    assert np.array_equal(twice.member(points), once.member(points))
    # the caller's shift is copied, not frozen or aliased
    assert a.flags.writeable and not once.translate[1].flags.writeable


def test_translate_radial_of_a_nan_direction_is_nan():
    smooth = oracle_of(make_revolution_spec(3))
    for body in (ball_oracle(3), smooth):
        shifted = translate_oracle(body, [0.2, 0.1, -0.1])
        dirs = np.vstack([[np.nan, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, np.nan, np.nan]])
        rho = shifted.radial(dirs)
        assert np.isnan(rho[0]) and np.isnan(rho[2])
        assert rho[1] == shifted.radial(dirs[1]) and math.isfinite(rho[1])
        assert math.isnan(shifted.radial(dirs[0]))


def test_translate_radial_through_the_parent_origin():
    # theta = -s/|s| passes through the parent's origin, where the gauge is 0
    shifted = translate_oracle(ball_oracle(3), [0.3, 0.0, 0.0])
    assert shifted.radial(np.array([-1.0, 0.0, 0.0])) == pytest.approx(1.3, abs=1e-15)
    # here the first guess r = rho(theta) lands on the parent's origin
    # exactly, where the revolution radial of p / |p| is NaN; -theta meets
    # the boundary on K's variant bump, so the shift is interior
    smooth = oracle_of(make_revolution_spec(3))
    theta = np.array([math.sqrt(5.0) / 3.0, 0.0, -2.0 / 3.0])
    rho = smooth.radial(theta)
    shift = -(rho * theta)
    assert smooth.radial(-theta) - rho > 1e-4
    shifted = translate_oracle(smooth, shift)
    assert shifted.radial(theta) == pytest.approx(2.0 * rho, abs=1e-10)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("epsilon, delta", [(1e-3, 0.1), (0.0, 0.1), (4e-3, 0.16),
                                            (2e-3, 0.05), (1e-3, 0.155)])
@pytest.mark.parametrize("variant", ["K", "L"])
def test_max_slab_halfwidth_of_a_body_of_revolution_is_one(n, epsilon, delta, variant):
    """f >= sqrt(1 - t^2) and both bumps vanish on the equator, so every
    body of the family has inner radius 1."""
    body = oracle_of(make_revolution_spec(n, epsilon, delta, variant))
    assert max_slab_halfwidth(body) == 1.0 - 1e-9


@pytest.mark.parametrize("n, variant", [(2, "K"), (3, "K"), (3, "L"), (4, "L")])
@pytest.mark.parametrize("fraction", [0.0, 0.3, 0.6])
def test_max_slab_halfwidth_of_a_translate_is_one_less_its_shift(n, variant, fraction):
    """K - s contains the unit ball about -s: 1 - |s| never reads above the
    minimum radial over a dense lattice."""
    shift = RngStream(23, n).generator().standard_normal(n)
    shift *= fraction / np.linalg.norm(shift)
    body = translate_oracle(oracle_of(make_revolution_spec(n, variant=variant)), shift)
    inner = max_slab_halfwidth(body)
    assert inner == pytest.approx(1.0 - np.linalg.norm(shift) - 1e-9, abs=1e-15)
    lattice = circle_grid(20_000) if n == 2 else sphere_grid(n, 20_000)
    assert inner <= np.asarray(body.radial(lattice)).min()


def test_max_slab_halfwidth_of_a_body_outside_the_grammar_raises(ellipsoid):
    ellipse = ellipsoid([2.0, 0.7])
    with pytest.raises(EstimateError, match="no inner radius for a body of kind 'ellipsoid'"):
        max_slab_halfwidth(ellipse)
    with pytest.raises(EstimateError, match="kind 'translate'"):
        max_slab_halfwidth(translate_oracle(ellipse, [0.1, 0.0]))


def test_max_slab_halfwidth_of_a_ball_is_its_inner_radius():
    """The radius less the distance of the center, for a ball and a
    translated ball."""
    for oracle in (ball_oracle(3, 0.7), translate_oracle(ball_oracle(3), [0.3, 0.0, 0.0]),
                   translate_oracle(ball_oracle(2, 2.0), [0.5, -1.2])):
        radius, center = oracle.ball
        assert max_slab_halfwidth(oracle) == radius - float(np.linalg.norm(center)) - 1e-9


def test_max_slab_halfwidth_of_a_polytope_is_its_smallest_offset(polytope_pair):
    box = oracle_of(HPolytope.box([1.3, 0.7, 2.0]))
    for oracle in (polytope_pair.oracle_K, polytope_pair.oracle_L, box):
        assert max_slab_halfwidth(oracle) == float(oracle.polytope.offsets.min()) - 1e-9


def _section_cases():
    """(id, parent, basis): bodies of revolution at n = 3 to 5 and every
    2 <= k <= n - 1, and a basis that contains e_n; balls and translated
    balls with the center off span(B) and in it; hyperplane sections of
    translated bodies of revolution."""
    cases = []
    for n in (3, 4, 5):
        for variant, (epsilon, delta) in zip("KL", [(1e-3, 0.1), (4e-3, 0.16)]):
            body = oracle_of(make_revolution_spec(n, epsilon, delta, variant))
            for k in range(2, n):
                basis = sample_haar_subspace(n, k, RngStream(24, 10 * n + k)).basis
                cases.append((f"revolution-{variant}-n{n}-k{k}", body, basis))
            # a basis that contains e_n, and one turned 1e-6 off it
            draw = RngStream(25, n).generator().standard_normal((n, n - 1))
            q = np.linalg.qr(np.column_stack([np.eye(n)[:, -1], draw]))[0]
            cases.append((f"revolution-{variant}-n{n}-axis", body, q[:, :n - 1]))
            k = max(2, n - 2)
            tilted = q[:, :k].copy()
            tilted[:, 0] = math.cos(1e-6) * q[:, 0] + math.sin(1e-6) * q[:, k]
            cases.append((f"revolution-{variant}-n{n}-near-axis", body, tilted))
            shift = 0.5 * sample_sphere(n, RngStream(26, n))
            basis = sample_haar_subspace(n, n - 1, RngStream(27, n)).basis
            cases.append((f"translate-{variant}-n{n}", translate_oracle(body, shift), basis))
        for radius in (0.5, 2.0):
            shift = 0.4 * radius * sample_sphere(n, RngStream(28, n))
            moved = translate_oracle(ball_oracle(n, radius), shift)
            for k in range(2, n):
                basis = sample_haar_subspace(n, k, RngStream(29, 10 * n + k)).basis
                cases.append((f"ball-r{radius}-n{n}-k{k}", ball_oracle(n, radius), basis))
                cases.append((f"translated-ball-r{radius}-n{n}-k{k}", moved, basis))
            draw = RngStream(30, n).generator().standard_normal((n, n - 2))
            basis = np.linalg.qr(np.column_stack([shift, draw]))[0]
            cases.append((f"translated-ball-r{radius}-n{n}-center", moved, basis))
    return cases


SECTION_CASES = _section_cases()


@pytest.mark.parametrize("parent, basis", [case[1:] for case in SECTION_CASES],
                         ids=[case[0] for case in SECTION_CASES])
def test_section_supports_meet_their_infimal_convolution(parent, basis):
    """A section is a cut of width 0: K cap span(B) at d in span(B) has the
    support min over mu of h_K(d - mu nu), with nu the unit part off span(B)
    of the axis (e_n or the center) where that is not 0, and any normal of
    span(B) where it is (and for a hyperplane section of a translate).
    Every section meets that at its parent's eval_tol, on random directions
    and on the images of the basis vectors."""
    n, k = basis.shape
    section = section_oracle(parent, Subspace(basis))
    assert section.eval_tol == parent.eval_tol
    nu = np.linalg.svd(basis)[0][:, -1]
    if parent.ball is not None or parent.revolution is not None:
        axis = np.eye(n)[-1] if parent.ball is None else parent.ball[1]
        rest = axis - basis @ (basis.T @ axis)
        if np.linalg.norm(rest) > 1e-12:
            nu = rest / np.linalg.norm(rest)
    d = np.vstack([_unit_rows(31, 200, k), np.eye(k), -np.eye(k)])
    u = d @ basis.T
    exact = _clipped_support(parent.support, nu, 0.0, u)
    assert np.abs(np.asarray(section.support(d)) - exact).max() <= parent.eval_tol


def test_sections_without_a_rim_have_no_support(ellipsoid):
    """A translate of a body of revolution has a rim only on hyperplane
    sections, and a body outside the grammar has none: their sections'
    radial and membership work, their supports raise."""
    moved = translate_oracle(oracle_of(make_revolution_spec(5)), [0.1, -0.05, 0.2, 0.0, 0.1])
    section = section_oracle(moved, sample_haar_subspace(5, 3, RngStream(32)))
    assert section.member(np.zeros(3)) and section.radial(np.eye(3)[0]) > 0.5
    with pytest.raises(EstimateError, match="no exact codimension-2 section support for a "
                                            "body of kind 'translate'"):
        section.support(np.eye(3)[0])
    section = section_oracle(ellipsoid([1.2, 1.0, 0.8]), sample_haar_subspace(3, 2, RngStream(33)))
    with pytest.raises(EstimateError, match="no exact section support for a body of kind "
                                            "'ellipsoid'"):
        section.support(np.eye(2)[0])
    # the whole space is no cut: the translate's own support serves
    whole = section_oracle(moved, Subspace(np.eye(5)))
    assert whole.support(np.eye(5)[0]) == moved.support(np.eye(5)[0])


def test_derived_oracles_are_freed_without_the_cycle_collector():
    """The support closures of section and slab oracles hold the radial, not
    the oracle, so dropping the last reference frees the oracle at once."""
    body = oracle_of(make_revolution_spec())
    made = (lambda: section_oracle(body, Subspace(np.eye(3)[:, :2])),
            lambda: slab_oracle(body, SlabSpec(np.array([0.0, 0.0, 1.0]), 0.5)))
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for make in made:
            oracle = make()
            assert oracle.support(np.array([1.0, 0.0, 0.0][:oracle.dim])) > 0.0
            ref = weakref.ref(oracle)
            del oracle
            assert ref() is None
    finally:
        if was_enabled:
            gc.enable()
