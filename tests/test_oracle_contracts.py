"""Property-based contracts of every oracle kind, swept over the body
parameter space rather than the two default fixtures.

For random valid bodies and random directions u:
- membership brackets the radial function: 0.999 rho(u) u is inside and
  1.001 rho(u) u is outside;
- the support function bounds every boundary point: h(u) >= <rho(v) v, u>
  - eval_tol over a fixed lattice of directions v;
- h is positively homogeneous of degree 1;
- the constructed pairs pair antipodally: {rho_K(u), rho_K(-u)} equals
  {rho_L(u), rho_L(-u)}, and likewise for h;
- a polytope cut just past the largest admissible depth is rejected with
  that depth in the message.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from convexlab.bodies import (BodyError, ball_oracle, build_polytope_pair,
                              make_revolution_spec, oracle_of)
from convexlab.grassmann import RngStream, sample_haar_subspace, sample_sphere
from convexlab.intrinsic import sphere_grid
from convexlab.transforms import (SlabSpec, section_oracle, slab_oracle,
                                  translate_oracle)

CONTRACT = settings(max_examples=8, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])

epsilons = st.floats(0.0, 2e-3)
deltas = st.floats(0.04, 0.16)
fractions = st.floats(0.05, 0.95)
seeds = st.integers(0, 2**32 - 1)


def _directions(dim: int, seed: int, m: int = 16) -> np.ndarray:
    g = RngStream(seed, dim).generator().standard_normal((m, dim))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def _lam_max(a, us, vs) -> float:
    """The largest admissible cut depth of build_polytope_pair."""
    a = np.asarray(a, dtype=float)
    root_n = math.sqrt(a.size)
    p = int(np.flatnonzero(np.asarray(us) != np.asarray(vs))[0])
    return min(2.0 * a.min() / root_n, a[p] / root_n, (a.sum() - a[p]) / root_n)


@st.composite
def polytope_cuts(draw, dims=(3, 4)):
    """(half-widths, u signs, v signs, depth) with depth below lam_max."""
    n = draw(st.sampled_from(dims))
    a = draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n,
                      unique_by=lambda w: round(w, 3)))
    us = draw(st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n))
    p = draw(st.integers(0, n - 1))
    vs = list(us)
    vs[p] = -vs[p]
    return a, us, vs, draw(fractions) * _lam_max(a, us, vs)


KINDS = ("revolution", "polytope", "ball", "translate", "section-smooth",
         "section-polytope-k2", "section-polytope-k3")


@st.composite
def oracles(draw, kind):
    """(oracle of the given kind, seed), with its parameters drawn at random.

    Sections are hyperplane sections of a drawn revolution or polytope body
    in dimension 3 or 4; translates move a ball or a revolution body.
    """
    seed = draw(seeds)
    base = draw(st.sampled_from(("revolution", "ball"))) if kind == "translate" else kind
    if base in ("revolution", "section-smooth"):
        spec = make_revolution_spec(draw(st.sampled_from((3, 4))), draw(epsilons),
                                    draw(deltas), draw(st.sampled_from("KL")))
        body = oracle_of(spec)
    elif base.startswith(("polytope", "section-polytope")):
        dims = {"section-polytope-k2": (3,), "section-polytope-k3": (4,)}.get(base, (3, 4))
        cons = build_polytope_pair(*draw(polytope_cuts(dims)))
        body = oracle_of(draw(st.sampled_from((cons.body_K, cons.body_L))))
    else:
        body = ball_oracle(draw(st.sampled_from((2, 3, 4))), draw(st.floats(0.2, 5.0)))
    if kind == "translate":
        # revolution bodies contain the unit ball; shifts up to 0.6 of the
        # inner radius keep the new origin interior
        inner = 1.0 if base == "revolution" else float(body.radial(np.eye(body.dim)[0]))
        shift = 0.6 * inner * draw(st.floats(0.0, 1.0)) * sample_sphere(body.dim, RngStream(seed))
        body = translate_oracle(body, shift)
    if kind.startswith("section"):
        body = section_oracle(body, sample_haar_subspace(body.dim, body.dim - 1,
                                                         RngStream(seed, 1)))
    return body, seed


@pytest.mark.parametrize("kind", KINDS)
@CONTRACT
@given(data=st.data())
def test_membership_brackets_the_radial_function(kind, data):
    oracle, seed = data.draw(oracles(kind))
    u = _directions(oracle.dim, seed)
    boundary = np.asarray(oracle.radial(u))[:, None] * u
    assert np.all(oracle.member(0.999 * boundary))
    assert not np.any(oracle.member(1.001 * boundary))


@pytest.mark.parametrize("kind", KINDS)
@CONTRACT
@given(data=st.data())
def test_support_bounds_every_boundary_point(kind, data):
    oracle, seed = data.draw(oracles(kind))
    lattice = sphere_grid(oracle.dim, 2000)
    boundary = np.asarray(oracle.radial(lattice))[:, None] * lattice
    u = _directions(oracle.dim, seed)
    lower = (u @ boundary.T).max(axis=1)
    assert np.all(np.asarray(oracle.support(u)) >= lower - oracle.eval_tol)


@pytest.mark.parametrize("kind", KINDS)
@CONTRACT
@given(data=st.data(), scale=st.floats(0.01, 100.0))
def test_support_is_positively_homogeneous(kind, data, scale):
    oracle, seed = data.draw(oracles(kind))
    u = _directions(oracle.dim, seed, m=8)
    h = np.asarray(oracle.support(u))
    assert np.allclose(np.asarray(oracle.support(scale * u)), scale * h,
                       rtol=1e-12, atol=scale * oracle.eval_tol)


def _pairing_gap(f_K, f_L, u):
    kp, km = np.asarray(f_K(u)), np.asarray(f_K(-u))
    lp, lm = np.asarray(f_L(u)), np.asarray(f_L(-u))
    straight = np.maximum(np.abs(kp - lp), np.abs(km - lm))
    swapped = np.maximum(np.abs(kp - lm), np.abs(km - lp))
    return float(np.minimum(straight, swapped).max())


@CONTRACT
@given(st.sampled_from((3, 4)), epsilons, deltas, seeds)
def test_smooth_pairs_pair_antipodally(n, epsilon, delta, seed):
    spec = make_revolution_spec(n, epsilon, delta)
    K, L = oracle_of(spec), oracle_of(spec.partner())
    u = _directions(n, seed, m=64)
    tol = 2.0 * K.eval_tol
    assert _pairing_gap(K.radial, L.radial, u) <= tol
    assert _pairing_gap(K.support, L.support, u) <= tol


@CONTRACT
@given(polytope_cuts(dims=(2, 3, 4)), seeds)
def test_polytope_pairs_pair_antipodally(cut, seed):
    cons = build_polytope_pair(*cut)
    K, L = oracle_of(cons.body_K), oracle_of(cons.body_L)
    u = _directions(K.dim, seed, m=64)
    tol = 2.0 * K.eval_tol
    assert _pairing_gap(K.radial, L.radial, u) <= tol
    assert _pairing_gap(K.support, L.support, u) <= tol


@CONTRACT
@given(polytope_cuts(dims=(2, 3, 4)))
def test_cut_past_lam_max_is_rejected_naming_it(cut):
    a, us, vs, _ = cut
    lam_max = _lam_max(a, us, vs)
    with pytest.raises(BodyError, match=f"largest admissible cut depth is {lam_max:.12g}"):
        build_polytope_pair(a, us, vs, lam_max * (1.0 + 1e-6))


@pytest.mark.xfail(strict=True, reason=(
    "slab supports miss the maximizer by up to ~1e-2, far beyond the declared "
    "SLAB_SUPPORT_TOL of 1e-6; ROADMAP direction 4"))
def test_slab_support_meets_a_dense_boundary_lower_bound(smooth_pair):
    xi = sample_sphere(3, RngStream(17))
    slab = slab_oracle(smooth_pair.oracle_K, SlabSpec(xi, 0.5))
    lattice = sphere_grid(3, 100_000)
    boundary = np.asarray(slab.radial(lattice))[:, None] * lattice
    u = _directions(3, 17, m=200)
    lower = (u @ boundary.T).max(axis=1)
    assert np.all(np.asarray(slab.support(u)) >= lower - slab.eval_tol)
