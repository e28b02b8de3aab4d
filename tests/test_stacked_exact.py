"""Stacked exact values of polytopes: the polygon and 3-polytope kernels
and Cauchy's formula for hyperplane projections.  Every kernel gives a
polytope or a basis the bits it gets alone, in any stack and any order, and
the values match closed forms and a test-side scipy hull."""

import math

import numpy as np
import pytest

from convexlab.bodies import build_polytope_pair, oracle_of
from convexlab.experiments import _projection_values
from convexlab.grassmann import RngStream, sample_haar_bases
from convexlab.polykernel import (HPolytope, PolytopeError, cauchy_projection_volumes,
                                  facet_volumes, poly3_intrinsic_volumes, poly3_stack_volumes,
                                  polygon_by_angle, polygon_metrics, polygon_stack_metrics,
                                  section_hpolytopes, slab_hpolytopes)

BOX = {3: [1.0, 1.2, 1.5], 4: [1.0, 1.2, 1.5, 1.8]}


def _pair_bodies(n):
    cons = build_polytope_pair(BOX[n], [1] * n, [1] * (n - 1) + [-1])
    return cons.body_K, cons.body_L


def _box_shadow(a, u):
    """vol_{n-1} of the box with half-widths a projected along the unit u:
    sum_i |u_i| prod_{j != i} 2 a_j."""
    side = 2.0 * np.asarray(a)
    return sum(abs(u[i]) * np.prod(np.delete(side, i)) for i in range(len(a)))


# ---------------------------------------------------------------------------
# polygons


def test_polygon_stack_equals_one_polygon_each():
    body = _pair_bodies(3)[0]
    bases = sample_haar_bases(3, 2, 40, RngStream(61, 0))
    verts = [p.vrep.vertices for p in section_hpolytopes(body, bases)]
    assert len({len(v) for v in verts}) > 1  # more than one vertex-count group
    area, perim = polygon_stack_metrics(verts)
    for a, p, v in zip(area.tolist(), perim.tolist(), verts, strict=True):
        assert (a, p) == polygon_metrics(polygon_by_angle(v))
    order = RngStream(61, 1).generator().permutation(len(verts))
    area_s, perim_s = polygon_stack_metrics([verts[j] for j in order])
    assert area_s.tobytes() == area[order].tobytes()
    assert perim_s.tobytes() == perim[order].tobytes()


def test_polygon_stack_raises_the_first_failing_polygon_in_order():
    square = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
    twin = np.vstack([square, square[:1]])                  # five vertices, a twin
    dent = np.vstack([square, [[0.1, 0.0]]])                # five vertices, a reflex one
    tri_dent = np.array([[1.0, 0.0], [-1.0, 1.0], [-0.2, 0.0], [-1.0, -1.0]])  # four
    for sets, message in (
        ([square, tri_dent, twin], "not convex"),   # the four-vertex group fails first
        ([square, twin, tri_dent], "duplicate"),     # the five-vertex one comes first
        ([dent, twin], "not convex"),
    ):
        alone = next(v for v in sets if _fails(v))
        with pytest.raises(PolytopeError) as stacked:
            polygon_stack_metrics(sets)
        with pytest.raises(PolytopeError) as single:
            polygon_by_angle(alone)
        assert message in str(stacked.value)
        assert str(stacked.value) == str(single.value)


def _fails(vertices) -> bool:
    try:
        polygon_by_angle(vertices)
    except PolytopeError:
        return True
    return False


# ---------------------------------------------------------------------------
# 3-polytopes


def _slabs_and_sections():
    body3, body4 = _pair_bodies(3)[0], _pair_bodies(4)[1]
    xis = sample_haar_bases(3, 1, 20, RngStream(62, 0))[:, :, 0]
    bases = sample_haar_bases(4, 3, 20, RngStream(62, 1))
    return list(slab_hpolytopes(body3, xis, 0.5)) + list(section_hpolytopes(body4, bases))


def test_poly3_stack_equals_one_polytope_each_in_any_order():
    polys = _slabs_and_sections()
    stacked = poly3_stack_volumes(polys)
    for row, poly in zip(stacked, polys, strict=True):
        assert row.tobytes() == np.array(poly3_intrinsic_volumes(poly)).tobytes()
    order = RngStream(62, 2).generator().permutation(len(polys))
    assert poly3_stack_volumes([polys[j] for j in order]).tobytes() == stacked[order].tobytes()


def test_poly3_stack_raises_the_first_failing_polytope():
    box = HPolytope.box([1e-4, 1e-4, 1.0])
    tilted = np.array([2e-6, 0.0, 1.0]) / math.hypot(2e-6, 1.0)
    bad = HPolytope(np.vstack([[0.0, 0.0, 1.0], box.normals, tilted]),
                    np.concatenate([[5.0], box.offsets, [tilted[2]]]))
    with pytest.raises(PolytopeError, match=r"facets 2,3 share 3 vertices"):
        poly3_stack_volumes([HPolytope.box([1.0, 1.0, 1.0]), bad, bad])


def test_poly3_stack_names_itself_for_a_polytope_of_another_dimension():
    square = HPolytope.box([1.0, 1.0])
    with pytest.raises(PolytopeError, match="^poly3_stack_volumes needs 3-dimensional polytopes$"):
        poly3_stack_volumes([HPolytope.box([1.0, 1.0, 1.0]), square])


@pytest.mark.parametrize("a", [[1.0, 1.2, 1.5], [0.3, 2.0, 0.7]])
def test_facet_areas_of_boxes(a):
    x, y, z = 2.0 * np.asarray(a)
    normals, areas = facet_volumes(HPolytope.box(a))
    expected = [y * z, x * z, x * y] * 2
    np.testing.assert_array_equal(normals, np.vstack([np.eye(3), -np.eye(3)]))
    np.testing.assert_allclose(areas, expected, rtol=1e-14)


def test_facet_volumes_of_a_4_box():
    a = BOX[4]
    side = 2.0 * np.asarray(a)
    normals, vols = facet_volumes(HPolytope.box(a))
    np.testing.assert_array_equal(normals, np.vstack([np.eye(4), -np.eye(4)]))
    expected = [np.prod(np.delete(side, i)) for i in range(4)] * 2
    np.testing.assert_allclose(vols, expected, rtol=1e-14)


@pytest.mark.parametrize("normal", [[1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 1.0, 0.0],
                                    [1.0, 1.0, 1.0, 1.0]], ids=["2-face", "edge", "vertex"])
def test_hyperplanes_touching_a_lower_face_are_no_facets(normal):
    a = np.array(BOX[4])
    u = np.asarray(normal) / np.linalg.norm(normal)
    padded = HPolytope.box(a).with_facets([u], [float(u @ a)])
    normals, vols = facet_volumes(padded)
    assert len(normals) == 8
    np.testing.assert_allclose(vols, facet_volumes(HPolytope.box(a))[1], rtol=1e-14)


# ---------------------------------------------------------------------------
# Cauchy's formula


@pytest.mark.parametrize("n", [3, 4])
def test_cauchy_matches_box_closed_form(n):
    bases = sample_haar_bases(n, n - 1, 50, RngStream(63, n))
    got = cauchy_projection_volumes(HPolytope.box(BOX[n]), bases)
    for value, basis in zip(got, bases, strict=True):
        u = np.linalg.svd(basis.T)[2][-1]   # the normal of span(basis)
        assert value == pytest.approx(_box_shadow(BOX[n], u), rel=1e-13)


@pytest.mark.parametrize("n", [3, 4])
def test_cauchy_matches_the_hull_of_projected_vertices(n):
    from scipy.spatial import ConvexHull

    bases = sample_haar_bases(n, n - 1, 200, RngStream(64, n))
    for body in _pair_bodies(n):
        got = cauchy_projection_volumes(body, bases)
        hull = [ConvexHull(body.vrep.vertices @ b).volume for b in bases]
        np.testing.assert_allclose(got, hull, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("n", [3, 4])
def test_cauchy_rows_equal_one_basis_each_in_any_order(n, same_rows):
    body = _pair_bodies(n)[0]
    oracle = oracle_of(body)
    bases = sample_haar_bases(n, n - 1, 30, RngStream(65, n))
    rows = _projection_values(oracle, bases)
    assert rows[2] == "exact-cauchy"
    same_rows(rows, *(_projection_values(oracle, basis[None]) for basis in bases))
    order = RngStream(65, 0).generator().permutation(len(bases))
    values = cauchy_projection_volumes(body, bases)
    assert cauchy_projection_volumes(body, bases[order]).tobytes() == values[order].tobytes()


def test_cauchy_ignores_redundant_facets():
    bases = sample_haar_bases(3, 2, 20, RngStream(66, 0))
    box = HPolytope.box([1.0, 1.0, 1.0])
    for normal, offset in (([0.0, 0.0, 1.0], 5.0),
                           ([1 / math.sqrt(2), 1 / math.sqrt(2), 0.0], math.sqrt(2)),
                           (np.ones(3) / math.sqrt(3), math.sqrt(3))):
        padded = box.with_facets([normal], [offset])
        np.testing.assert_allclose(cauchy_projection_volumes(padded, bases),
                                   cauchy_projection_volumes(box, bases), rtol=1e-14)


def test_cauchy_needs_dimension_3_or_4():
    square = HPolytope.box([1.0, 1.0])
    with pytest.raises(PolytopeError, match="3- or 4-dimensional"):
        cauchy_projection_volumes(square, np.eye(2)[None, :, :1])
