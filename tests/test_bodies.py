import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from convexlab.bodies import (
    BUMP_PEAK,
    SMOOTH_EVAL_TOL,
    BodyError,
    RevolutionBodySpec,
    ball_oracle,
    build_polytope_pair,
    bump,
    make_revolution_spec,
    oracle_of,
    profile,
    revolution_radial,
    revolution_support,
    validate_revolution_spec,
)
from convexlab import bodies
from convexlab.bodies import _profile_terms
from convexlab.grassmann import RngStream


# ---------------------------------------------------------------------------
# bump


def test_bump_peak_and_support():
    assert bump(0.0) == pytest.approx(math.exp(-1.0), abs=1e-16)
    assert BUMP_PEAK == pytest.approx(math.exp(-1.0), abs=1e-16)
    assert bump(1.0) == 0.0
    assert bump(-1.0) == 0.0
    assert bump(1.5) == 0.0
    assert bump(-2.0) == 0.0
    u = np.linspace(-0.99, 0.99, 101)
    assert np.all(bump(u) > 0.0)


def test_bump_derivatives_match_finite_differences():
    h = 1e-6
    for u in (-0.7, -0.2, 0.0, 0.3, 0.8):
        d1 = (bump(u + h) - bump(u - h)) / (2 * h)
        d2 = (bump(u + h) - 2 * bump(u) + bump(u - h)) / h ** 2
        assert bump(u, order=1) == pytest.approx(d1, abs=5e-7)
        assert bump(u, order=2) == pytest.approx(d2, abs=5e-4)
    # smooth to all orders at the support boundary
    assert bump(1.0, order=1) == 0.0
    assert bump(1.0, order=2) == 0.0
    with pytest.raises(BodyError):
        bump(0.0, order=3)


# ---------------------------------------------------------------------------
# profiles


def test_profile_point_values():
    spec = make_revolution_spec()
    g = spec.partner()
    eps = spec.epsilon
    e1 = math.exp(-1.0)
    assert profile(spec, 1 / 3) == pytest.approx(math.sqrt(8) / 3 + eps * e1, abs=1e-15)
    assert profile(spec, 2 / 3) == pytest.approx(math.sqrt(5) / 3 + eps * e1, abs=1e-15)
    assert profile(g, 1 / 3) == pytest.approx(math.sqrt(8) / 3 + eps * e1, abs=1e-15)
    assert profile(g, 2 / 3) == pytest.approx(math.sqrt(5) / 3, abs=1e-15)
    assert profile(g, -2 / 3) == pytest.approx(math.sqrt(5) / 3 + eps * e1, abs=1e-15)
    assert profile(spec, -2 / 3) == pytest.approx(math.sqrt(5) / 3, abs=1e-15)
    assert profile(spec, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert profile(spec, 1.0) == 0.0
    assert profile(spec, -1.0) == 0.0


def test_profile_pairing_identity():
    # {f(t), f(-t)} == {g(t), g(-t)} pointwise, the geometric heart of the pair
    spec = make_revolution_spec()
    g = spec.partner()
    ts = np.linspace(-1.0, 1.0, 20_001)
    f_pos, f_neg = profile(spec, ts), profile(spec, -ts)
    g_pos, g_neg = profile(g, ts), profile(g, -ts)
    straight = np.maximum(np.abs(f_pos - g_pos), np.abs(f_neg - g_neg))
    swapped = np.maximum(np.abs(f_pos - g_neg), np.abs(f_neg - g_pos))
    assert float(np.max(np.minimum(straight, swapped))) == 0.0


def test_profiles_differ_on_variant_bump():
    spec = make_revolution_spec()
    g = spec.partner()
    ts = np.linspace(-1.0, 1.0, 20_001)
    assert float(np.max(np.abs(profile(spec, ts) - profile(g, ts)))) == pytest.approx(
        spec.epsilon * math.exp(-1.0), rel=1e-6)


def test_profile_domain_errors():
    spec = make_revolution_spec()
    with pytest.raises(BodyError):
        profile(spec, 1.5)
    with pytest.raises(BodyError):
        profile(spec, 1.0, order=1)
    assert profile(spec, 0.5, order=1) == pytest.approx(
        (profile(spec, 0.5 + 1e-7) - profile(spec, 0.5 - 1e-7)) / 2e-7, abs=1e-6)


def test_spec_validation_constraints():
    with pytest.raises(BodyError, match=r"\(0, 1/6\)"):
        RevolutionBodySpec(n=3, epsilon=1e-3, delta=0.2, variant="K")
    with pytest.raises(BodyError):
        RevolutionBodySpec(n=3, epsilon=1e-3, delta=0.0, variant="K")
    with pytest.raises(BodyError):
        RevolutionBodySpec(n=3, epsilon=-1e-3, delta=0.1, variant="K")
    with pytest.raises(BodyError):
        RevolutionBodySpec(n=1, epsilon=1e-3, delta=0.1, variant="K")
    with pytest.raises(BodyError):
        RevolutionBodySpec(n=3, epsilon=1e-3, delta=0.1, variant="M")
    # zero perturbation (the round ball) is a valid spec
    v = validate_revolution_spec(RevolutionBodySpec(n=3, epsilon=0.0, delta=0.1))
    assert v.ok and v.max_second_derivative < 0.0


def test_default_spec_is_concave_with_positive_profile():
    v = validate_revolution_spec(make_revolution_spec())
    assert v.ok
    assert v.max_second_derivative < 0.0
    assert v.min_profile > 0.0


def test_validation_rejects_a_nan_curvature():
    # eps / delta**2 overflows, so f'' is inf * 0 = nan wherever the bumps vanish
    with np.errstate(over="ignore", invalid="ignore"):
        v = validate_revolution_spec(RevolutionBodySpec(3, 1e307, 0.03))
    assert math.isnan(v.max_second_derivative)
    assert not v.ok


def test_make_revolution_spec_shrinks_large_epsilon():
    spec = make_revolution_spec(epsilon=0.5)
    assert spec.epsilon < 0.5
    assert validate_revolution_spec(spec).ok


def test_partner_involution():
    spec = make_revolution_spec()
    assert spec.partner().variant == "L"
    assert spec.partner().partner() == spec


# ---------------------------------------------------------------------------
# revolution oracles


def _ray_march_radial(spec, d, lo=0.0, hi=2.0, iters=200):
    # independent check: last r with the point inside the body
    d = np.asarray(d, dtype=float)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        x = mid * d
        tn = x[-1]
        tp = float(np.linalg.norm(x[:-1]))
        inside = abs(tn) <= 1.0 and tp <= profile_ext(spec, tn)
        lo, hi = (mid, hi) if inside else (lo, mid)
    return 0.5 * (lo + hi)


def profile_ext(spec, t):
    if abs(t) > 1.0:
        return -1.0
    return float(profile(spec, t))


def test_revolution_radial_matches_ray_march():
    spec = make_revolution_spec()
    rng = RngStream(21, 0).generator()
    dirs = rng.standard_normal((40, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    rho = revolution_radial(spec, dirs)
    for d, r in zip(dirs, rho):
        assert r == pytest.approx(_ray_march_radial(spec, d), abs=1e-7)


def test_revolution_radial_on_axis():
    spec = make_revolution_spec()
    rho = revolution_radial(spec, np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]))
    assert np.allclose(rho, 1.0, atol=1e-12)


def test_revolution_support_dominates_boundary_samples():
    spec = make_revolution_spec()
    # the maximizer for direction d lies in the half-plane spanned by the
    # axis and d's planar part, so a 1-D t-grid per direction is exact up
    # to grid resolution
    ts = np.linspace(-1.0, 1.0, 200_001)
    radii = profile(spec, ts)
    rng = RngStream(22, 0).generator()
    dirs = rng.standard_normal((25, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    h = revolution_support(spec, dirs)
    planar = np.linalg.norm(dirs[:, :2], axis=1)
    best = (radii[None, :] * planar[:, None]
            + ts[None, :] * dirs[:, 2:3]).max(axis=1)
    assert np.all(h >= best - 1e-12)
    assert np.all(h <= best + 1e-9)


def test_revolution_support_axis_value():
    spec = make_revolution_spec()
    h = revolution_support(spec, np.array([[0.0, 0.0, 1.0]]))
    assert h[0] == pytest.approx(1.0, abs=1e-10)


def test_oracle_member_consistency():
    spec = make_revolution_spec()
    oracle = oracle_of(spec)
    rng = RngStream(23, 0).generator()
    dirs = rng.standard_normal((200, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    rho = oracle.radial(dirs)
    inside = oracle.member(0.99 * rho[:, None] * dirs)
    outside = oracle.member(1.01 * rho[:, None] * dirs)
    assert np.all(inside)
    assert not np.any(outside)


# Reference solvers: the fixed-length bisection and golden-section search
# that the safeguarded Newton iterations replaced, kept to check them.


def _bisection_radial(spec, dirs):
    tn = dirs[:, -1]
    tp = np.linalg.norm(dirs[:, :-1], axis=1)
    r = np.ones(dirs.shape[0])
    off_axis = tp > 1e-15
    tni, tpi = tn[off_axis], tp[off_axis]
    with np.errstate(divide="ignore"):
        hi = np.minimum(np.where(np.abs(tni) > 0, 1.0 / np.abs(tni), np.inf),
                        1.0 + max(spec.epsilon, 1e-8))
    lo = np.zeros_like(hi)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = mid * tpi - _profile_terms(spec, mid * tni, 0)[0] < 0.0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    r[off_axis] = 0.5 * (lo + hi)
    return r


def _golden_support(spec, dirs):
    xn = dirs[:, -1]
    xp = np.linalg.norm(dirs[:, :-1], axis=1)

    def objective(t):
        return xp * _profile_terms(spec, t, 0)[0] + xn * t

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    lo = np.full(dirs.shape[0], -1.0)
    hi = np.full(dirs.shape[0], 1.0)
    a = hi - inv_phi * (hi - lo)
    b = lo + inv_phi * (hi - lo)
    fa, fb = objective(a), objective(b)
    for _ in range(75):
        move_lo = fa < fb
        lo = np.where(move_lo, a, lo)
        hi = np.where(move_lo, hi, b)
        a_next = np.where(move_lo, b, hi - inv_phi * (hi - lo))
        b_next = np.where(move_lo, lo + inv_phi * (hi - lo), a)
        f_fresh = objective(np.where(move_lo, b_next, a_next))
        fa, fb = np.where(move_lo, fb, f_fresh), np.where(move_lo, f_fresh, fa)
        a, b = a_next, b_next
    ends = np.maximum(objective(np.full_like(xn, -1.0)), objective(np.ones_like(xn)))
    return np.maximum(objective(0.5 * (a + b)), ends)


def _sweep_directions(n, seed):
    """Random unit directions plus the axis, near-pole rays, the equator and
    a dense meridian through both bumps."""
    rand = RngStream(seed, n).generator().standard_normal((3000, n))
    special = [np.eye(n)[0]]
    for s in (1.0, -1.0):
        special.append(s * np.eye(n)[-1])
        for p in 10.0 ** -np.arange(1.0, 9.5, 0.5):  # |theta'| from 0.1 to 1e-9
            v = np.zeros(n)
            v[0], v[-1] = p, s * math.sqrt(1.0 - p * p)
            special.append(v)
    ts = np.linspace(-1.0, 1.0, 601)
    meridian = np.zeros((ts.size, n))
    meridian[:, 0], meridian[:, -1] = np.sqrt(1.0 - ts * ts), ts
    dirs = np.vstack([rand, np.array(special), meridian])
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("variant", ["K", "L"])
@pytest.mark.parametrize("epsilon,delta", [(1e-3, 0.1), (1e-2, 0.05),
                                           (5e-3, 0.15), (0.0, 0.1)])
def test_newton_oracles_match_bracketing_references(n, variant, epsilon, delta):
    spec = make_revolution_spec(n, epsilon, delta, variant)
    dirs = _sweep_directions(n, seed=25)
    rho = revolution_radial(spec, dirs)
    h = revolution_support(spec, dirs)
    assert np.max(np.abs(rho - _bisection_radial(spec, dirs))) <= SMOOTH_EVAL_TOL
    assert np.max(np.abs(h - _golden_support(spec, dirs))) <= SMOOTH_EVAL_TOL
    # a row's value must not depend on the batch it arrives in
    for j in list(range(10)) + list(range(3000, 3038)):
        assert revolution_radial(spec, dirs[j]) == rho[j]
        assert revolution_support(spec, dirs[j]) == h[j]


def _fixed_step_newton(fun, x, lo, hi, *args, steps=bodies._NEWTON_STEPS):
    # the solver without rows stopping at their fixed point: every row, every
    # step, with rtsafe's guard on steps longer than NEWTON_NOISE
    dx = dx_old = hi - lo
    for _ in range(steps):
        g, dg = fun(x, *args)
        below = g < 0.0
        lo = np.where(below, x, lo)
        hi = np.where(below, hi, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = x - g / dg
        ok = np.isfinite(step) & (step >= lo) & (step <= hi) & (
            (np.abs(2.0 * g) <= np.abs(dx_old * dg))
            | (np.abs(g) <= bodies.NEWTON_NOISE * np.abs(dg)))
        new = np.where(ok, step, 0.5 * (lo + hi))
        dx_old, dx = dx, new - x
        x = new
    return x


@settings(max_examples=20, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(2, 5), st.floats(0.0, 1e-2),
       st.floats(0.02, 1.0 / 6.0, exclude_min=True, exclude_max=True),
       st.sampled_from("KL"))
def test_profile_and_newton_oracles_over_the_parameter_space(n, epsilon, delta, variant):
    spec = make_revolution_spec(n, epsilon, delta, variant)
    dirs = _sweep_directions(n, seed=26)
    dirs = np.vstack([dirs[:3000:15], dirs[3000:]])  # every special row
    rho = revolution_radial(spec, dirs)
    h = revolution_support(spec, dirs)
    assert np.max(np.abs(rho - _bisection_radial(spec, dirs))) <= SMOOTH_EVAL_TOL
    assert np.max(np.abs(h - _golden_support(spec, dirs))) <= SMOOTH_EVAL_TOL
    # rows that stop at their Newton fixed point give the fixed 8-step values
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bodies, "_safeguarded_newton", _fixed_step_newton)
        assert np.array_equal(rho, revolution_radial(spec, dirs))
        assert np.array_equal(h, revolution_support(spec, dirs))
    # a lower order of one call is the value of its own call, bit for bit
    ts = np.concatenate([np.linspace(-1.0, 1.0, 801)[1:-1], [-1.0 + 1e-12, 1.0 - 1e-12]])
    terms = _profile_terms(spec, ts, 2)
    for order in (0, 1, 2):
        assert np.array_equal(terms[order], profile(spec, ts, order))
    # the profile vanishes at the poles and is extended by zero beyond them
    outside = np.array([-3.0, -1.5, -1.0 - 1e-15, -1.0, 1.0, 1.0 + 1e-15, 1.5, 3.0])
    assert np.all(_profile_terms(spec, outside, 2)[0] == 0.0)


@pytest.mark.parametrize("oracle,bound", [(revolution_radial, 4), (revolution_support, 5)])
def test_profile_rows_per_direction(monkeypatch, oracle, bound):
    # rows stop at their Newton fixed point; the fixed 8-step rule gave 8 and 9
    spec = make_revolution_spec(3)
    dirs = RngStream(28, 0).generator().standard_normal((20_000, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    rows = []

    def counting(spec, t, order):
        rows.append(t.size)
        return _profile_terms(spec, t, order)

    monkeypatch.setattr(bodies, "_profile_terms", counting)
    oracle(spec, dirs)
    assert sum(rows) <= bound * dirs.shape[0]


def test_support_does_not_stop_short_after_a_step_near_a_pole():
    """From t0 = 0.2257 the slope -xp f'' is tiny (a bump edge), and the
    first Newton step lands at t = 0.9999, near the pole.  Without rtsafe's
    guard the next steps crawl back and 8 of them stop at t = 0.8496, where
    the support reads 0.70560 against 1.0000633504."""
    spec = make_revolution_spec(4, 2e-3, 0.12, "K")
    w = np.array([0.95027416, 0.07307093, -0.20178354, 0.22572106])
    h = revolution_support(spec, w)
    assert abs(h - _golden_support(spec, w[None])[0]) <= SMOOTH_EVAL_TOL
    assert h == pytest.approx(1.0000633504, abs=1e-10)
    t = bodies.revolution_maximiser(spec, np.array([np.linalg.norm(w[:-1])]), w[-1:])
    assert t[0] == pytest.approx(0.237539, abs=1e-6)


@pytest.mark.parametrize("d", [[np.nan, 0.0, 1.0], [0.0, 0.0, np.nan],
                               [1.0, 0.0, np.nan], [np.nan, np.nan, np.nan]])
def test_revolution_oracles_give_nan_for_a_nan_direction(d):
    spec = make_revolution_spec()
    assert math.isnan(revolution_radial(spec, d))
    assert math.isnan(revolution_support(spec, d))
    rows = np.array([d, [0.0, 0.6, 0.8]])
    assert np.isnan(revolution_radial(spec, rows)[0])
    assert revolution_radial(spec, rows)[1] == revolution_radial(spec, rows[1])


# ---------------------------------------------------------------------------
# polytope construction


def test_build_polytope_pair_counts():
    cons = build_polytope_pair([1.0, 1.2, 1.5], [1, 1, 1], [1, 1, -1])
    assert cons.body_K.vrep.num_vertices == 2 ** 3 - 2 + 2 * 3
    assert cons.body_L.vrep.num_vertices == 12
    assert cons.body_K.normals.shape == (8, 3)
    # K loses the u and v corners, L loses u and -v
    kept_k = {tuple(np.round(w, 9)) for w in cons.body_K.vrep.vertices}
    assert (1.0, 1.2, 1.5) not in kept_k          # u corner cut
    assert (1.0, 1.2, -1.5) not in kept_k         # v corner cut
    assert (-1.0, -1.2, -1.5) in kept_k
    kept_l = {tuple(np.round(w, 9)) for w in cons.body_L.vrep.vertices}
    assert (1.0, 1.2, 1.5) not in kept_l          # u corner cut
    assert (-1.0, -1.2, 1.5) not in kept_l        # -v corner cut
    assert (1.0, 1.2, -1.5) in kept_l


def test_build_polytope_pair_dimension_4():
    cons = build_polytope_pair([1.0, 1.2, 1.5, 1.8], [1, 1, 1, 1], [1, 1, 1, -1])
    assert cons.body_K.vrep.num_vertices == 2 ** 4 - 2 + 2 * 4


def test_build_polytope_pair_rejects_duplicate_half_widths():
    with pytest.raises(BodyError, match="pairwise distinct"):
        build_polytope_pair([1.0, 1.0, 1.5], [1, 1, 1], [1, 1, -1])


def test_build_polytope_pair_rejects_nonadjacent_vertices():
    with pytest.raises(BodyError, match="adjacent"):
        build_polytope_pair([1.0, 1.2, 1.5], [1, 1, 1], [1, -1, -1])


def test_build_polytope_pair_rejects_deep_cut_naming_bound():
    with pytest.raises(BodyError, match="largest admissible cut depth"):
        build_polytope_pair([1.0, 1.2, 1.5], [1, 1, 1], [1, 1, -1], lam=2.0)
    with pytest.raises(BodyError):
        build_polytope_pair([1.0, 1.2, 1.5], [1, 1, 1], [1, 1, -1], lam=0.0)


def test_default_cut_depth_is_half_gap():
    cons = build_polytope_pair([1.0, 1.2, 1.5], [1, 1, 1], [1, 1, -1])
    assert cons.lam == pytest.approx(1.0 / math.sqrt(3), abs=1e-15)


def test_polytope_oracle_round_trip():
    cons = build_polytope_pair([1.0, 1.2, 1.5], [1, 1, 1], [1, 1, -1])
    oracle = oracle_of(cons.body_K)
    assert oracle.kind == "polytope"
    rng = RngStream(24, 0).generator()
    dirs = rng.standard_normal((100, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    rho = oracle.radial(dirs)
    pts = rho[:, None] * dirs
    # boundary points satisfy max facet functional == offset
    slack = (cons.body_K.offsets[None, :] - pts @ cons.body_K.normals.T).min(axis=1)
    assert np.allclose(slack, 0.0, atol=1e-9)


# ---------------------------------------------------------------------------
# ball oracle


def test_ball_oracle_values():
    ball = ball_oracle(3, radius=2.0)
    dirs = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert np.allclose(ball.radial(dirs), 2.0)
    assert np.allclose(ball.support(dirs), 2.0)
    assert ball.support(np.array([[3.0, 0.0, 0.0]]))[0] == pytest.approx(6.0)
    assert ball.member(np.array([[1.9, 0.0, 0.0]]))[0]
    assert not ball.member(np.array([[2.1, 0.0, 0.0]]))[0]
    with pytest.raises(BodyError):
        ball_oracle(0)
