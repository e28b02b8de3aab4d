"""Slabs of a 3-d body of revolution as axial integrals (revolution_slab_volumes):
the ball's closed forms, the pair's equal slabs, stacking and translates; and
the closed forms of ball_slab_volumes, which balls and translated balls take,
against those integrals."""

import math
from fractions import Fraction

import numpy as np
import pytest

from convexlab.bodies import RevolutionBodySpec, ball_oracle, make_revolution_spec, oracle_of
from convexlab.experiments import _slab_values, body_from_record, make_pair, slab_experiment
from convexlab.grassmann import RngStream, sample_haar_bases
from convexlab.intrinsic import (PROFILE_CHUNK, EstimateError, ball_slab_volumes,
                                 revolution_slab_volumes, volume_radial)
from convexlab.transforms import SlabSpec, max_slab_halfwidth, slab_oracle, translate_oracle

BALL = RevolutionBodySpec(3, 0.0, 0.1, "K")  # epsilon = 0: the unit ball


def _unit(v) -> np.ndarray:
    v = np.array(v, dtype=float)
    return v / np.linalg.norm(v)


def _ball_slab(a: float, b: float) -> tuple[float, float, float]:
    """(V_1, V_2, V_3) of the unit ball clipped to a <= <x, xi> <= b: the
    zone, the two caps and the rims, with the polynomials in exact
    arithmetic (near a pole they cancel)."""
    fa, fb = Fraction(a), Fraction(b)
    v3 = math.pi * float((fb - fa) - (fb ** 3 - fa ** 3) / 3)
    v2 = math.pi * float((fb - fa) + (2 - fa * fa - fb * fb) / 2)
    v1 = (2.0 * float(fb - fa) + math.sqrt((1.0 - b) * (1.0 + b)) * math.acos(b)
          + math.sqrt((1.0 - a) * (1.0 + a)) * math.acos(-a))
    return v1, v2, v3


def _values(spec, xis, lows, highs, i) -> np.ndarray:
    return revolution_slab_volumes(spec, xis, lows, highs, i)[0]


NORMALS = {
    "e_n": [0.0, 0.0, 1.0], "-e_n": [0.0, 0.0, -1.0],
    "tilt-1e-9": [1e-9, 0.0, 1.0], "tilt-1e-9-down": [0.0, -1e-9, -1.0],
    "tilt-1e-5": [1e-5, 0.0, 1.0], "equator": [0.6, 0.8, 0.0],
    "xn-1e-12": [1.0, 0.0, 1e-12], "oblique": [0.3, -0.5, 0.81],
}
T_MAX = max_slab_halfwidth(oracle_of(BALL))
LEVELS = [(-0.5, 0.5), (-T_MAX, T_MAX), (-1e-3, 1e-3), (-0.2, 0.7), (0.3, 0.9),
          (-0.999, -0.998), (0.9, T_MAX)]


@pytest.mark.parametrize("i", [1, 2, 3])
@pytest.mark.parametrize("name", NORMALS)
def test_ball_slabs_meet_their_closed_forms(name, i):
    """Symmetric and asymmetric slabs, thin and near a pole, along the axis,
    within 1e-9 of it, on the equator and oblique, to 1e-13 relative."""
    xi = _unit(NORMALS[name])
    lows, highs = (np.array(c) for c in zip(*LEVELS))
    values = _values(BALL, np.tile(xi, (len(LEVELS), 1)), lows, highs, i)
    exact = np.array([_ball_slab(a, b)[i - 1] for a, b in LEVELS])
    assert np.abs(values / exact - 1.0).max() <= 1e-13


def test_ball_slabs_over_random_normals_and_levels():
    g = RngStream(34, 0).generator()
    xis = g.standard_normal((60, 3))
    xis /= np.linalg.norm(xis, axis=1, keepdims=True)
    a, b = np.sort(g.uniform(-0.95, 0.95, (2, 60)), axis=0)
    for i in (1, 2, 3):
        values, errs, method = revolution_slab_volumes(BALL, xis, a, b, i)
        exact = np.array([_ball_slab(lo, hi)[i - 1] for lo, hi in zip(a, b)])
        assert np.abs(values / exact - 1.0).max() <= 1e-13
        assert errs.max() <= 1e-12 * exact.max()
        assert method == "axial-gl"


@pytest.mark.parametrize("gap", [1e-3, 4.7e-5, 1e-8, 1e-14, 0.0])
def test_ball_slabs_whose_plane_grazes_a_pole(gap):
    """A level plane that passes within gap of a pole puts a rim root that
    close to the pole's square-root end; the pieces before it are cut
    geometrically toward the pole (without the cuts, a gap of 4.7e-5 read
    7e-13 off on V_1 and V_2 with a stderr of 1e-9)."""
    xi = _unit([0.6, 0.0, 0.8])
    lows, highs = np.array([-0.5, gap - 0.8]), np.array([0.8 - gap, 0.3])
    for i in (1, 2, 3):
        values, errs, _ = revolution_slab_volumes(BALL, np.tile(xi, (2, 1)), lows, highs, i)
        exact = np.array([_ball_slab(lo, hi)[i - 1] for lo, hi in zip(lows, highs)])
        assert np.abs(values / exact - 1.0).max() <= 1e-13
        assert errs.max() <= 1e-12 * exact.max()


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("i", [1, 2, 3])
def test_pair_slabs_agree_at_every_seed(seed, i):
    pair = make_pair("smooth")
    rep = slab_experiment(pair.oracle_K, pair.oracle_L, 0.5, i, 8, RngStream(seed, 33), 1e-4)
    assert rep.summary["methods"] == ["axial-gl"]
    assert rep.summary["pass"]
    assert max(rep.samples.rel_diff) <= 1e-13


@pytest.mark.parametrize("epsilon, delta", [(1e-4, 0.05), (5e-4, 0.08), (1e-3, 0.1),
                                            (2e-3, 0.12), (2e-3, 0.16)])
def test_pair_slabs_agree_over_the_family(epsilon, delta):
    """K and L from their records agree on every V_i to 1e-13 relative,
    while K and the ball B (epsilon = 0) differ by far more."""
    K, L, B = (body_from_record({"type": "revolution", "epsilon": e, "delta": delta,
                                 "variant": v})[0].revolution
               for e, v in ((epsilon, "K"), (epsilon, "L"), (0.0, "K")))
    xis = sample_haar_bases(3, 1, 12, RngStream(34, 1))[:, :, 0]
    t = np.full(len(xis), 0.5)
    for i in (1, 2, 3):
        vk, vl, vb = (_values(spec, xis, -t, t, i) for spec in (K, L, B))
        assert np.abs(vk / vl - 1.0).max() <= 1e-13
        assert np.abs(vk / vb - 1.0).max() >= 1e-9


@pytest.mark.parametrize("i", [1, 2, 3])
def test_a_stacked_slab_is_the_slab_alone(i, same_rows):
    """Over normals (random, +-e_n, 1e-9 off it, on the equator), symmetric
    and asymmetric levels and across chunks, bit for bit."""
    spec = make_revolution_spec()
    g = RngStream(34, 2).generator()
    xis = np.vstack([g.standard_normal((PROFILE_CHUNK + 3, 3)),
                     [NORMALS[n] for n in ("e_n", "-e_n", "tilt-1e-9", "equator")]])
    xis /= np.linalg.norm(xis, axis=1, keepdims=True)
    lows = np.concatenate([np.full(10, -0.5), g.uniform(-0.9, -0.1, len(xis) - 10)])
    highs = np.concatenate([np.full(10, 0.5), g.uniform(0.0, 0.9, len(xis) - 10)])
    same_rows(revolution_slab_volumes(spec, xis, lows, highs, i),
              *(revolution_slab_volumes(spec, xis[j:j + 1], lows[j:j + 1], highs[j:j + 1], i)
                for j in range(len(xis))))


@pytest.mark.parametrize("i", [1, 2, 3])
def test_slabs_of_a_translate_are_the_base_at_shifted_levels(i, same_rows):
    """(K - s) cap S_t(xi) is K cap {|<x, xi> - <s, xi>| <= t} moved by -s:
    its row is the base's at those levels, and the translated ball's meets
    the closed form there."""
    shift = np.array([0.1, -0.05, 0.2])
    xis = sample_haar_bases(3, 1, 6, RngStream(34, 3))[:, :, 0]
    ts = np.full(len(xis), 0.4)
    mid = (xis * shift).sum(axis=1)
    for epsilon in (1e-3, 0.0):
        body = body_from_record({"type": "derived", "transform": "translate", "shift": list(shift),
                                 "base": {"type": "revolution", "epsilon": epsilon}})[0]
        rows = _slab_values(body, xis, ts, i)
        spec = body.translate[0].revolution
        same_rows(rows, revolution_slab_volumes(spec, xis, mid - ts, mid + ts, i))
        if epsilon == 0.0:
            exact = [_ball_slab(m - 0.4, m + 0.4)[i - 1] for m in mid]
            assert np.abs(rows[0] / exact - 1.0).max() <= 1e-13


def test_the_polar_estimator_converges_to_the_axial_value():
    """The polar volume of the slab oracle (volume_radial) errs by up to
    1.4e-5 at 50,000 nodes on the suite's slabs and by
    less than 1e-6 at 200,000; its halving stderr does not bound that error
    (21 times below it at 50,000 nodes), so only the trend is checked."""
    K = make_pair("smooth").oracle_K
    xis = sample_haar_bases(3, 1, 8, RngStream(7, 33))[:, :, 0]
    t = np.full(len(xis), 0.5)
    axial = _values(K.revolution, xis, -t, t, 3)
    errors = [np.abs([volume_radial(slab_oracle(K, SlabSpec(xi, 0.5)), 3, nodes=nodes).value
                      for xi in xis] - axial).max() for nodes in (50_000, 200_000)]
    assert errors[1] < errors[0] / 4
    assert errors[1] < 1e-6


def test_axial_slabs_are_3d_only():
    with pytest.raises(EstimateError, match="R\\^3"):
        revolution_slab_volumes(make_revolution_spec(4), np.eye(4)[:1], np.array([-0.5]),
                                np.array([0.5]), 4)
    with pytest.raises(EstimateError, match="V_1 to V_3"):
        revolution_slab_volumes(BALL, np.eye(3)[:1], np.array([-0.5]), np.array([0.5]), 0)


@pytest.mark.parametrize("i", [1, 2, 3])
def test_ball_slab_closed_forms_meet_the_axial_integrals(i):
    """A ball of radius R about c clipped to low <= <x, xi> <= high is R
    times the unit ball clipped to the levels (level - <c, xi>) / R, moved
    by c: ball_slab_volumes against revolution_slab_volumes of the
    epsilon = 0 spec times R^i, to 1e-13 relative.  Over the NORMALS and
    LEVELS above scaled by R, and over random balls with symmetric slabs,
    whose levels in the ball's units are asymmetric."""
    g = RngStream(34, 4).generator()
    for radius in (1.0, 0.7, 1.9):
        center = g.standard_normal(3) * 0.1 * radius
        for name in NORMALS:
            xi = np.tile(_unit(NORMALS[name]), (len(LEVELS), 1))
            mid = (xi * center).sum(axis=1)  # as ball_slab_volumes takes it
            lows, highs = (radius * np.array(c) + mid for c in zip(*LEVELS))
            got = ball_slab_volumes((radius, center), xi, lows, highs, i)[0]
            axial = _values(BALL, xi, (lows - mid) / radius, (highs - mid) / radius, i)
            assert np.abs(got / (axial * radius ** i) - 1.0).max() <= 1e-13, name
    for trial in range(5):
        radius = g.uniform(0.5, 2.0)
        shift = g.standard_normal(3)
        shift *= 0.6 * radius * g.uniform() / np.linalg.norm(shift)
        ball = translate_oracle(ball_oracle(3, radius), shift).ball
        xis = sample_haar_bases(3, 1, 20, RngStream(34, 5 + trial))[:, :, 0]
        ts = g.uniform(0.01, 1.0, 20) * max_slab_halfwidth(translate_oracle(ball_oracle(3, radius),
                                                                              shift))
        mid = (xis * ball[1]).sum(axis=1)
        values, errs, method = ball_slab_volumes(ball, xis, -ts, ts, i)
        axial = _values(BALL, xis, (-ts - mid) / radius, (ts - mid) / radius, i) * radius ** i
        assert method == "exact-ball" and np.array_equal(errs, np.zeros(len(xis)))
        assert np.abs(values / axial - 1.0).max() <= 1e-13


def test_ball_slabs_are_3d_only():
    ball = (1.0, np.zeros(4))
    with pytest.raises(EstimateError, match="R\\^3"):
        ball_slab_volumes(ball, np.eye(4)[:1], np.array([-0.5]), np.array([0.5]), 1)
    with pytest.raises(EstimateError, match="V_1 to V_3"):
        ball_slab_volumes((1.0, np.zeros(3)), np.eye(3)[:1], np.array([-0.5]), np.array([0.5]),
                          4)
