import itertools
import math

import numpy as np
import pytest

from convexlab.bodies import build_polytope_pair, oracle_of
from convexlab.grassmann import RngStream, Subspace, sample_haar_subspace
from convexlab.intrinsic import mean_width_v1
from convexlab.polykernel import (
    ACTIVE_TOL,
    RECESSION_TOL,
    _is_bounded,
    _null_directions,
    _subsets,
    HPolytope,
    Polygon,
    PolytopeError,
    convex_hull_2d,
    enumerate_vertices,
    poly3_intrinsic_volumes,
    polygon_metrics,
    polytope_radial,
    projection_polygon,
    section_hpolytope,
    section_polygon,
)


@pytest.fixture(scope="module")
def pair():
    return build_polytope_pair([1.0, 1.2, 1.5], [1, 1, 1], [1, 1, -1])


# ---------------------------------------------------------------------------
# H-representation


def test_hpolytope_validation():
    with pytest.raises(PolytopeError):
        HPolytope(np.array([[2.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
                  np.ones(4))
    with pytest.raises(PolytopeError):
        HPolytope(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
                  np.array([1.0, 1.0, 1.0, -1.0]))
    with pytest.raises(PolytopeError, match="duplicate"):
        HPolytope(np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0],
                            [0.0, -1.0]]),
                  np.array([1.0, 1.0, 1.0, 1.0, 1.0]))


@pytest.mark.parametrize("d", [1e-11, 1e-10, 5e-10])
def test_near_coincident_facets_are_duplicates(d):
    # parallel facets closer than the vertex-activity window would make one
    # vertex lie on both; the constructor rejects them by name instead
    with pytest.raises(PolytopeError, match="duplicate facets 2 and 6"):
        HPolytope.box([1.0, 1.0, 1.0]).with_facets([[0.0, 0.0, 1.0]], [1.0 + d])


def _first_duplicate_by_loop(nrm, off):
    """The pairwise loop the constructor used to run, kept as the reference."""
    dots = nrm @ nrm.T
    for i in range(len(off)):
        for j in range(i + 1, len(off)):
            if dots[i, j] > 1.0 - 1e-12 and abs(off[i] - off[j]) <= ACTIVE_TOL:
                return f"duplicate facets {i} and {j}"
    return None


def test_duplicate_facet_rule_matches_the_pairwise_loop():
    g = RngStream(41, 0).generator()
    base = g.standard_normal((6, 3))
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    seen = set()
    for _ in range(200):
        idx = g.integers(0, 6, 9)
        nrm = base[idx]
        off = 1.0 + idx + g.choice([0.0, 5e-10, 2e-9], 9)
        expected = _first_duplicate_by_loop(nrm, off)
        seen.add(expected is None)
        if expected is None:
            HPolytope(nrm, off)
        else:
            with pytest.raises(PolytopeError, match=f"^{expected}$"):
                HPolytope(nrm, off)
    assert seen == {True, False}


def test_parallel_facet_outside_the_window_is_kept():
    poly = HPolytope.box([1.0, 1.0, 1.0]).with_facets([[0.0, 0.0, 1.0]], [1.0 + 1e-8])
    assert poly3_intrinsic_volumes(poly) == pytest.approx((6.0, 12.0, 8.0), rel=1e-12)


def test_section_merges_facets_that_coincide_within_the_window():
    tilt = 1e-3
    c = math.sqrt(1.0 - tilt * tilt)
    poly = HPolytope.box([1.0, 1.0, 1.0]).with_facets(
        [[tilt, 0.0, c]], [c * (1.0 + 5e-10)])
    sec = section_hpolytope(poly, Subspace(np.eye(3)[:, 1:]))
    assert sec.num_facets == 4
    assert enumerate_vertices(sec).num_vertices == 4


def test_box_helper_and_rotation():
    box = HPolytope.box([1.0, 2.0])
    assert box.normals.shape == (4, 2)
    q = np.array([[0.0, -1.0], [1.0, 0.0]])
    rot = box.rotated(q)
    v = enumerate_vertices(rot).vertices
    assert {tuple(np.round(w, 9)) for w in v} == {
        (-2.0, -1.0), (-2.0, 1.0), (2.0, -1.0), (2.0, 1.0)}


def test_enumerate_vertices_box():
    v = enumerate_vertices(HPolytope.box([1.0, 1.2, 1.5]))
    assert v.num_vertices == 8
    assert np.all(v.active.sum(axis=1) == 3)


def test_enumerate_vertices_rejects_unbounded():
    half = HPolytope(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 1.0]))
    with pytest.raises(PolytopeError, match="unbounded"):
        enumerate_vertices(half)


def _bounded_by_lp(poly: HPolytope) -> bool:
    """Reference: bounded iff every LP max of +-x_j is finite.

    HiGHS presolve can report an unbounded LP with a feasible origin as
    infeasible, so presolve is off.
    """
    from scipy.optimize import linprog

    n = poly.ambient_dim
    status = [linprog(c, A_ub=poly.normals, b_ub=poly.offsets,
                      bounds=[(None, None)] * n, method="highs",
                      options={"presolve": False}).status
              for c in np.vstack([np.eye(n), -np.eye(n)])]
    if 3 in status:
        return False
    assert status == [0] * (2 * n), status
    return True


def _random_hpolytopes(n: int, count: int, seed: int):
    """Random normals with positive offsets, plus rotated boxes with one
    facet dropped, whose recession direction is parallel to facets."""
    g = RngStream(seed, n).generator()
    for _ in range(count):
        m = int(g.integers(1, n + 6))
        nrm = g.standard_normal((m, n))
        yield HPolytope(nrm / np.linalg.norm(nrm, axis=1, keepdims=True),
                        g.uniform(0.2, 2.0, m))
    q = np.linalg.qr(g.standard_normal((n, n)))[0]
    box = HPolytope.box(g.uniform(0.5, 2.0, n)).rotated(q)
    for drop in range(2 * n):
        keep = np.arange(2 * n) != drop
        yield HPolytope(box.normals[keep], box.offsets[keep])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_is_bounded_agrees_with_linear_programming(n):
    verdicts = []
    for poly in _random_hpolytopes(n, 60, seed=40):
        verdicts.append(bool(_is_bounded(poly.normals[None])[0]))
        assert verdicts[-1] == _bounded_by_lp(poly), (poly.normals, poly.offsets)
    assert any(verdicts) and not all(verdicts)


def _bounded_by_svd(nrm: np.ndarray) -> np.ndarray:
    """Reference: _is_bounded with each null direction from an SVD."""
    count, m, n = nrm.shape
    if m < n:
        return np.zeros(count, dtype=bool)
    rays = np.linalg.svd(nrm[:, _subsets(m, n - 1)])[2][..., -1, :]
    slopes = rays @ nrm.transpose(0, 2, 1)
    recedes = (slopes.max(axis=2) <= RECESSION_TOL) | (slopes.min(axis=2) >= -RECESSION_TOL)
    return (np.linalg.matrix_rank(nrm) == n) & ~recedes.any(axis=1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_closed_form_null_directions_match_the_svd(n):
    """The cofactor directions are null, nonzero for independent rows and
    zero up to rounding for dependent ones, and give the SVD's verdicts on
    every sweep polytope and on stacks of random normals."""
    g = RngStream(41, n).generator()
    rows = g.standard_normal((200, n - 1, n))
    d = _null_directions(rows)
    assert np.all(np.abs(np.sum(rows * d[:, None, :], axis=2)) <= 1e-12)
    assert np.all(np.linalg.norm(d, axis=1) > 0.0)
    if n > 2:
        same = np.concatenate([rows[:, :1], -rows[:, :1], rows[:, 2:]], axis=1)
        assert np.all(np.linalg.norm(_null_directions(same), axis=1) <= 1e-14)
    for poly in _random_hpolytopes(n, 60, seed=40):
        assert _is_bounded(poly.normals[None]) == _bounded_by_svd(poly.normals[None])
    for m in range(n, n + 6):
        nrm = g.standard_normal((50, m, n))
        nrm /= np.linalg.norm(nrm, axis=2, keepdims=True)
        assert np.array_equal(_is_bounded(nrm), _bounded_by_svd(nrm))


def test_polytope_radial_box():
    box = HPolytope.box([1.0, 1.2, 1.5])
    dirs = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.allclose(polytope_radial(box, dirs), [1.0, 1.2, 1.5])
    d = np.array([1.0, 1.0, 1.0]) / math.sqrt(3)
    assert polytope_radial(box, d[None, :])[0] == pytest.approx(math.sqrt(3.0))


def test_radial_boundary_points_on_facets(pair):
    rng = RngStream(31, 0).generator()
    dirs = rng.standard_normal((500, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    for body in (pair.body_K, pair.body_L):
        rho = polytope_radial(body, dirs)
        pts = rho[:, None] * dirs
        slack = (body.offsets[None, :] - pts @ body.normals.T).min(axis=1)
        assert np.allclose(slack, 0.0, atol=1e-10)


# ---------------------------------------------------------------------------
# sections and projections


def test_section_polygon_matches_radial(pair):
    rng = RngStream(32, 0)
    for j in range(10):
        sub = sample_haar_subspace(3, 2, rng.substream(j))
        q = section_polygon(pair.body_K, sub)
        angles = np.linspace(0.0, 2 * np.pi, 1001)[:-1]
        u2 = np.column_stack([np.cos(angles), np.sin(angles)])
        dirs = u2 @ sub.basis.T
        rho = polytope_radial(pair.body_K, dirs)
        # radial of the polygon from its vertex loop
        verts = q.vertices
        rho_poly = _polygon_radial(verts, u2)
        assert np.max(np.abs(rho - rho_poly)) < 1e-9


def _polygon_radial(verts, dirs):
    m = len(verts)
    nrm = []
    off = []
    for a in range(m):
        p, q = verts[a], verts[(a + 1) % m]
        e = q - p
        n = np.array([e[1], -e[0]])
        n /= np.linalg.norm(n)
        nrm.append(n)
        off.append(float(n @ p))
    nrm, off = np.array(nrm), np.array(off)
    dots = dirs @ nrm.T
    with np.errstate(divide="ignore"):
        ratios = np.where(dots > 1e-14, off[None, :] / dots, np.inf)
    return ratios.min(axis=1)


def test_section_polygon_of_elongated_box_is_exact():
    # a square sized from a few radial probes truncated this section to an
    # area of 0.0523 and a perimeter of 1.245
    box = HPolytope.box([0.05, 1.0, 20.0])
    sub = Subspace(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))
    area, perim = polygon_metrics(section_polygon(box, sub))
    assert abs(area - 4.0) <= 1e-12
    assert abs(perim - 80.2) <= 1e-12


def test_section_keeps_coinciding_facets_once(pair):
    # both corner cuts of body K meet the e1-e2 plane in the same line,
    sub = Subspace(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    assert section_hpolytope(pair.body_K, sub).num_facets == 5
    # and there miss the 2 x 2.4 rectangle
    area, perim = polygon_metrics(section_polygon(pair.body_K, sub))
    assert abs(area - 4.8) <= 1e-12 and abs(perim - 8.8) <= 1e-12


def test_section_polygon_through_far_plane_raises(pair):
    # a plane that misses the body entirely is rejected by construction;
    # here: central planes always hit, so shift has to be emulated with a
    # tiny polytope instead
    tiny = HPolytope.box([1e-6, 1e-6, 1e-6])
    sub = Subspace(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    q = section_polygon(tiny, sub)
    assert polygon_metrics(q)[0] == pytest.approx(4e-12, rel=1e-6)


def test_polygon_metrics_cases():
    assert polygon_metrics(Polygon(np.zeros((0, 2)))) == (0.0, 0.0)
    assert polygon_metrics(Polygon(np.array([[0.0, 0.0]]))) == (0.0, 0.0)
    seg = Polygon(np.array([[0.0, 0.0], [3.0, 4.0]]))
    assert polygon_metrics(seg) == (0.0, 10.0)
    tri = Polygon(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    area, per = polygon_metrics(tri)
    assert area == pytest.approx(0.5)
    assert per == pytest.approx(2.0 + math.sqrt(2.0))


def test_polygon_rejects_clockwise_and_nonconvex():
    with pytest.raises(PolytopeError):
        Polygon(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))  # clockwise
    with pytest.raises(PolytopeError):
        Polygon(np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0],
                          [1.0, 0.5], [0.0, 2.0]]))  # reflex corner


def test_convex_hull_2d():
    rng = RngStream(33, 0).generator()
    pts = rng.standard_normal((200, 2))
    hull = convex_hull_2d(pts)
    # every input point is inside the hull
    m = len(hull.vertices)
    for a in range(m):
        p, q = hull.vertices[a], hull.vertices[(a + 1) % m]
        e = q - p
        cross = e[0] * (pts[:, 1] - p[1]) - e[1] * (pts[:, 0] - p[0])
        assert np.all(cross >= -1e-9)


def test_convex_hull_collinear_input():
    pts = np.column_stack([np.linspace(0, 1, 7), np.linspace(0, 2, 7)])
    hull = convex_hull_2d(pts)
    assert polygon_metrics(hull)[0] == pytest.approx(0.0, abs=1e-12)


def test_projection_polygon_box():
    v = enumerate_vertices(HPolytope.box([1.0, 1.2, 1.5]))
    sub = Subspace(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    q = projection_polygon(v, sub)
    area, per = polygon_metrics(q)
    assert area == pytest.approx(4.8)
    assert per == pytest.approx(8.8)


# ---------------------------------------------------------------------------
# intrinsic volumes of 3-polytopes


def test_box_fixture_5_8_4():
    got = poly3_intrinsic_volumes(HPolytope.box([0.5, 1.0, 1.0]))
    assert np.allclose(got, (5.0, 8.0, 4.0), atol=1e-12)


def test_box_fixture_6_12_8():
    got = poly3_intrinsic_volumes(HPolytope.box([1.0, 1.0, 1.0]))
    assert np.allclose(got, (6.0, 12.0, 8.0), atol=1e-12)


def test_box_general_closed_form():
    a, b, c = 2.0, 2.4, 3.0  # side lengths of box([1.0, 1.2, 1.5])
    got = poly3_intrinsic_volumes(HPolytope.box([1.0, 1.2, 1.5]))
    assert got[0] == pytest.approx(a + b + c, abs=1e-12)
    assert got[1] == pytest.approx(a * b + b * c + c * a, abs=1e-12)
    assert got[2] == pytest.approx(a * b * c, abs=1e-12)


def test_euler_formula_on_cut_bodies(pair):
    for body in (pair.body_K, pair.body_L):
        vrep = enumerate_vertices(body)
        nv = vrep.num_vertices
        # count facets with at least 3 vertices and edges shared by facet pairs
        members = {}
        for idx, act in enumerate(vrep.active):
            for f in np.flatnonzero(act):
                members.setdefault(f, set()).add(idx)
        faces = [s for s in members.values() if len(s) >= 3]
        edges = set()
        fl = list(members.values())
        for a in range(len(fl)):
            for b in range(a + 1, len(fl)):
                shared = fl[a] & fl[b]
                if len(shared) == 2:
                    edges.add(frozenset(shared))
        assert nv - len(edges) + len(faces) == 2


def test_pair_intrinsic_volumes_match_exactly(pair):
    vk = poly3_intrinsic_volumes(pair.body_K, pair.body_K.vrep)
    vl = poly3_intrinsic_volumes(pair.body_L, pair.body_L.vrep)
    assert np.allclose(vk, vl, atol=1e-12)
    # and the cut removed volume relative to the box
    box = poly3_intrinsic_volumes(HPolytope.box([1.0, 1.2, 1.5]))
    assert vk[2] < box[2]


@pytest.mark.parametrize("normal, offset", [
    ([0.0, 0.0, 1.0], 5.0),                             # misses the cube
    (np.array([1.0, 1.0, 0.0]) / math.sqrt(2), math.sqrt(2)),  # along the edge x = y = 1
    (np.ones(3) / math.sqrt(3), math.sqrt(3)),          # at the vertex (1, 1, 1) only
], ids=["far", "edge", "vertex"])
def test_redundant_facet_is_harmless(normal, offset):
    box = HPolytope.box([1.0, 1.0, 1.0])
    padded = box.with_facets(np.array([normal]), [offset])
    got = poly3_intrinsic_volumes(padded)
    assert np.allclose(got, (6.0, 12.0, 8.0), atol=1e-12)


def test_octahedron_vertices_where_four_facets_meet():
    # |x| + |y| + |z| <= 1: four facets meet at each vertex, so the four
    # facet triples there give twin candidates
    signs = np.array(list(itertools.product([1.0, -1.0], repeat=3)))
    octa = HPolytope(signs / math.sqrt(3), np.full(8, 1.0 / math.sqrt(3)))
    vrep = enumerate_vertices(octa)
    assert vrep.num_vertices == 6
    assert np.all(vrep.active.sum(axis=1) == 4)
    expected = (6.0 * math.sqrt(2) * math.acos(1.0 / 3.0) / math.pi, 2.0 * math.sqrt(3), 4.0 / 3.0)
    assert np.allclose(poly3_intrinsic_volumes(octa, vrep), expected, rtol=0.0, atol=1e-12)


def _sweep_polytopes():
    """Seeded random 3-polytopes (6 to 13 random facets cutting the unit
    cube) and 3-d sections of both bodies of the n = 4 pair."""
    g = RngStream(51, 0).generator()
    for _ in range(40):
        k = int(g.integers(6, 14))
        nrm = g.standard_normal((k, 3))
        yield HPolytope.box([1.0, 1.0, 1.0]).with_facets(
            nrm / np.linalg.norm(nrm, axis=1, keepdims=True), g.uniform(0.5, 1.5, k))
    cons = build_polytope_pair([1.0, 1.2, 1.5, 1.8], [1, 1, 1, 1], [1, 1, 1, -1])
    for j in range(3):
        sub = sample_haar_subspace(4, 3, RngStream(52, j))
        yield section_hpolytope(cons.body_K, sub)
        yield section_hpolytope(cons.body_L, sub)


def test_intrinsic_volumes_match_hull_and_mean_width():
    from scipy.spatial import ConvexHull

    for poly in _sweep_polytopes():
        v1, v2, v3 = poly3_intrinsic_volumes(poly)
        hull = ConvexHull(poly.vrep.vertices)
        assert v3 == pytest.approx(hull.volume, rel=1e-12, abs=0.0)
        assert v2 == pytest.approx(hull.area / 2.0, rel=1e-12, abs=0.0)
        width = mean_width_v1(oracle_of(poly), nodes=65536).value
        assert v1 == pytest.approx(width, rel=1e-5, abs=0.0)


def test_near_coplanar_facets_raise_collinear_degeneracy():
    # a facet tilted 2e-6 off the top of a 2e-4-wide box is active at all
    # four top corners within ACTIVE_TOL, yet is no duplicate; the error
    # names facets by their index in the polytope, past the far plane 0
    box = HPolytope.box([1e-4, 1e-4, 1.0])
    tilted = np.array([2e-6, 0.0, 1.0]) / math.hypot(2e-6, 1.0)
    poly = HPolytope(np.vstack([[0.0, 0.0, 1.0], box.normals, tilted]),
                     np.concatenate([[5.0], box.offsets, [tilted[2]]]))
    with pytest.raises(PolytopeError, match=r"facets 2,3 share 3 vertices \(collinear degeneracy\)"):
        poly3_intrinsic_volumes(poly)
