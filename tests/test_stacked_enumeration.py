"""Stacked vertex enumeration: every polytope of a stack gets, bit for bit,
the facets, vertices and incidence matrix the one-polytope path gives it,
and a failing member raises the message it raises alone."""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from convexlab.bodies import build_polytope_pair, oracle_of
from convexlab.grassmann import RngStream, Subspace, sample_haar_bases
from convexlab.polykernel import (CHUNK, HPolytope, PolytopeError, _hpolytopes,
                                  enumerate_stack, enumerate_vertices, section_hpolytope,
                                  section_hpolytopes, slab_hpolytopes)
from convexlab.transforms import SlabSpec, slab_oracle

SWEEP = settings(max_examples=12, deadline=None, derandomize=True,
                 suppress_health_check=[HealthCheck.too_slow])


def _same(stacked: HPolytope, alone: HPolytope) -> None:
    """Equal facets, vertices and incidence, bit for bit, against the
    polytope rebuilt from alone's facets and enumerated by itself."""
    fresh = HPolytope(alone.normals, alone.offsets)
    for a, b in ((stacked.normals, alone.normals), (stacked.offsets, alone.offsets),
                 (stacked.vrep.vertices, alone.vrep.vertices),
                 (stacked.vrep.active, alone.vrep.active),
                 (stacked.vrep.vertices, enumerate_vertices(fresh).vertices),
                 (stacked.vrep.active, enumerate_vertices(fresh).active)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def corner_cut(draw):
    """One body of a corner-cut box pair in dimension 3 or 4, at a random
    admissible cut depth, and a seed."""
    n = draw(st.sampled_from((3, 4)))
    a = [1.0, 1.2, 1.5, 1.8][:n]
    us, vs = [1] * n, [1] * (n - 1) + [-1]
    lam = draw(st.floats(0.05, 0.95)) * min(2.0 * min(a), a[-1], sum(a) - a[-1]) / math.sqrt(n)
    cons = build_polytope_pair(a, us, vs, lam)
    body = cons.body_K if draw(st.booleans()) else cons.body_L
    return body, draw(st.integers(0, 2**32 - 1))


@SWEEP
@given(corner_cut(), st.sampled_from((2, 3)), st.integers(1, CHUNK + 8))
def test_stacked_sections_equal_one_section_each(body_seed, k, count):
    body, seed = body_seed
    n = body.ambient_dim
    k = min(k, n - 1)
    bases = sample_haar_bases(n, k, count, RngStream(seed, k))
    stacked = list(section_hpolytopes(body, bases))
    assert len(stacked) == count
    for sec, basis in zip(stacked, bases, strict=True):
        _same(sec, section_hpolytope(body, Subspace(basis)))


@SWEEP
@given(corner_cut(), st.floats(0.05, 1.0), st.integers(1, CHUNK + 8))
def test_stacked_slabs_equal_one_slab_each(body_seed, fraction, count):
    body, seed = body_seed
    n = body.ambient_dim
    t = fraction * (float(body.offsets.min()) - 1e-9)
    xis = sample_haar_bases(n, 1, count, RngStream(seed, 1))[:, :, 0]
    stacked = list(slab_hpolytopes(body, xis, t))
    assert len(stacked) == count
    for slab, xi in zip(stacked, xis, strict=True):
        _same(slab, slab_oracle(oracle_of(body), SlabSpec(xi, t)).polytope)
        _same(slab, body.with_facets(np.vstack([xi, -xi]), [t, t]))


def test_sections_with_mixed_facet_counts():
    # the facet tilted by 1e-3 merges with +e3 in the (e2, e3) plane; the
    # e1 facets drop out there, the e3 facets in the (e1, e2) plane
    tilt = 1e-3
    c = math.sqrt(1.0 - tilt * tilt)
    poly = HPolytope.box([1.0, 1.0, 1.0]).with_facets([[tilt, 0.0, c]], [c * (1.0 + 5e-10)])
    eye = np.eye(3)
    rand = sample_haar_bases(3, 2, 3, RngStream(5, 0))
    bases = np.stack([rand[0], eye[:, 1:], rand[1], eye[:, :2], rand[2], eye[:, 1:]])
    stacked = list(section_hpolytopes(poly, bases))
    assert [p.num_facets for p in stacked] == [7, 4, 7, 5, 7, 4]
    for sec, basis in zip(stacked, bases, strict=True):
        _same(sec, section_hpolytope(poly, Subspace(basis)))


def _polygon(angles, offsets):
    return (np.column_stack([np.cos(angles), np.sin(angles)]), np.asarray(offsets, dtype=float))


TRIANGLE = _polygon(np.radians([90.0, 210.0, 330.0]), [1.0, 1.0, 1.0])
BAD = {  # a member of the stacks below and its message
    "not unit": ((TRIANGLE[0] * [[1.0], [1.0], [2.0]], TRIANGLE[1]),
                 "facet normals must be unit vectors"),
    "offset": ((TRIANGLE[0], np.array([1.0, 0.0, 1.0])),
               "all offsets must be positive (origin interior)"),
    "duplicate": (_polygon([0.0, 1e-7, math.pi], [1.0, 1.0, 1.0]), "duplicate facets 0 and 1"),
    "unbounded": (_polygon([0.0, 0.5 * math.pi, math.pi], [1.0, 1.0, 1.0]),
                  "polytope is unbounded"),
    # every pair of normals has |det| below 1e-10: no candidate vertex
    "empty": (_polygon([0.0, math.pi - 1e-11, math.pi + 1e-11], [1.0, 1.0, 2.0]),
              "polytope is empty"),
    # all three vertices within DEDUP_TOL: one is kept
    "degenerate": ((TRIANGLE[0], np.full(3, 1e-10)), "degenerate polytope: only 1 vertices"),
}


@pytest.mark.parametrize("kind", sorted(BAD))
def test_a_failing_member_raises_its_own_message(kind):
    (nrm, off), message = BAD[kind]
    with pytest.raises(PolytopeError) as alone:
        enumerate_vertices(HPolytope(nrm, off))
    assert str(alone.value) == message
    for where in range(4):
        normals = np.stack([TRIANGLE[0]] * 4)
        offsets = np.stack([TRIANGLE[1]] * 4)
        normals[where], offsets[where] = nrm, off
        with pytest.raises(PolytopeError) as stacked:
            enumerate_stack(normals, offsets)
        assert str(stacked.value) == message


def test_the_first_failing_member_raises_whatever_its_check():
    # member 1 fails enumeration and member 3 the facet checks: member 1
    # raises, as it does when the members are built one by one
    members = [(TRIANGLE, None), BAD["degenerate"], (TRIANGLE, None), BAD["duplicate"]]
    normals = np.stack([m[0][0] for m in members])
    offsets = np.stack([m[0][1] for m in members])
    keep = np.ones((4, 3), dtype=bool)
    with pytest.raises(PolytopeError) as err:
        list(_hpolytopes(normals, offsets, keep))
    assert str(err.value) == BAD["degenerate"][1]
    assert len(list(_hpolytopes(normals[[0, 2]], offsets[[0, 2]], keep[[0, 2]]))) == 2


def test_groups_of_facet_counts_raise_the_first_failing_member():
    # member 1 (four facets) is unbounded, member 2 (three) degenerate; the
    # three-facet group is enumerated first, yet member 1 raises
    square = _polygon(np.radians([0.0, 90.0, 180.0, 270.0]), np.ones(4))
    open_fan = _polygon(np.radians([0.0, 45.0, 90.0, 180.0]), np.ones(4))
    tiny = (np.vstack([TRIANGLE[0], [1.0, 0.0]]), np.r_[np.full(3, 1e-10), 1.0])
    nrm = np.stack([square[0], open_fan[0], tiny[0]])
    off = np.stack([square[1], open_fan[1], tiny[1]])
    keep = np.ones((3, 4), dtype=bool)
    keep[2, 3] = False
    with pytest.raises(PolytopeError, match="^polytope is unbounded$"):
        list(_hpolytopes(nrm, off, keep))
    with pytest.raises(PolytopeError, match="^degenerate polytope: only 1 vertices$"):
        list(_hpolytopes(nrm[[0, 2]], off[[0, 2]], keep[[0, 2]]))


def test_a_stacked_polytope_is_built_like_a_checked_one():
    body = build_polytope_pair([1.0, 1.2, 1.5], [1, 1, 1], [1, 1, -1], 0.4).body_K
    bases = sample_haar_bases(3, 2, 2, RngStream(3, 2))
    for sec in section_hpolytopes(body, bases):
        fresh = HPolytope(sec.normals, sec.offsets)
        for f in fields(HPolytope):
            ours, theirs = getattr(sec, f.name), getattr(fresh, f.name)
            assert type(ours) is type(theirs) and ours.dtype == theirs.dtype
            assert ours.tobytes() == theirs.tobytes() and not ours.flags.writeable
        assert fresh.vrep.num_vertices == sec.vrep.num_vertices  # fills the cached property
        assert vars(sec).keys() == vars(fresh).keys()
