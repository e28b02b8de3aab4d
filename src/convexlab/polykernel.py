"""Exact geometry for H-polytopes in dimension <= 4.

Vertex enumeration is brute force over facet n-subsets: with at most ~16
facets and n <= 4 that is at most C(16,4) = 1820 small linear systems,
which beats any asymptotically clever method at this scale and keeps the
results exact up to float rounding.

Boundedness is decided exactly on the recession cone, by one batched SVD
over (n-1)-subsets of facet normals.  A central section of a polytope is a
polytope: section_hpolytope restricts the facets to the subspace, and its
vertices come from the same enumeration, so sections of any dimension get
the exact machinery.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .grassmann import rowwise

FEAS_TOL = 1e-9       # feasibility slack when accepting candidate vertices
DEDUP_TOL = 1e-8      # vertices closer than this are numerical twins
ACTIVE_TOL = 1e-9     # facet counts as active at a vertex within this; parallel
                      # facets whose offsets agree this closely are duplicates
RECESSION_TOL = 1e-12  # <ray, normal> up to this counts as <= 0 (unit vectors)


class PolytopeError(ValueError):
    """Raised for empty, unbounded, or structurally invalid polytopes."""


@dataclass(frozen=True)
class HPolytope:
    """Intersection of half-spaces {x : <normal_i, x> <= offset_i}.

    Normals are unit rows; offsets are strictly positive, so the origin is
    interior.  Bounded-ness is not checked here; enumerate_vertices does.
    """

    normals: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        nrm = np.ascontiguousarray(np.asarray(self.normals, dtype=float))
        off = np.ascontiguousarray(np.asarray(self.offsets, dtype=float))
        if nrm.ndim != 2 or off.ndim != 1 or nrm.shape[0] != off.shape[0]:
            raise PolytopeError("normals must be (m, n) and offsets (m,)")
        lens = np.linalg.norm(nrm, axis=1)
        if np.any(np.abs(lens - 1.0) > 1e-12):
            raise PolytopeError("facet normals must be unit vectors")
        if np.any(off <= 0.0):
            raise PolytopeError("all offsets must be positive (origin interior)")
        dots = nrm @ nrm.T
        for i in range(len(off)):
            for j in range(i + 1, len(off)):
                if dots[i, j] > 1.0 - 1e-12 and abs(off[i] - off[j]) <= ACTIVE_TOL:
                    raise PolytopeError(f"duplicate facets {i} and {j}")
        nrm.setflags(write=False)
        off.setflags(write=False)
        object.__setattr__(self, "normals", nrm)
        object.__setattr__(self, "offsets", off)

    @property
    def ambient_dim(self) -> int:
        return self.normals.shape[1]

    @property
    def num_facets(self) -> int:
        return self.normals.shape[0]

    def with_facets(self, extra_normals, extra_offsets) -> "HPolytope":
        return HPolytope(
            np.vstack([self.normals, np.atleast_2d(np.asarray(extra_normals, dtype=float))]),
            np.concatenate([self.offsets, np.atleast_1d(np.asarray(extra_offsets, dtype=float))]),
        )

    def rotated(self, q: np.ndarray) -> "HPolytope":
        """Image under the rotation x -> Q x (facet normals rotate the same way)."""
        return HPolytope(self.normals @ np.asarray(q, dtype=float).T, self.offsets)

    @staticmethod
    def box(half_widths) -> "HPolytope":
        a = np.asarray(half_widths, dtype=float)
        n = len(a)
        eye = np.eye(n)
        return HPolytope(np.vstack([eye, -eye]), np.concatenate([a, a]))


@dataclass(frozen=True)
class VRep:
    """Vertex representation plus, per vertex, the indices of active facets."""

    vertices: np.ndarray
    active: tuple[frozenset, ...]

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.vertices, dtype=float))
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]


@dataclass(frozen=True)
class Polygon:
    """Convex polygon given by counterclockwise-ordered vertices.

    Fewer than 3 vertices marks a degenerate (empty / point / segment)
    result; metrics handle that case explicitly.
    """

    vertices: np.ndarray
    convexity_tol: float = field(default=1e-12, compare=False)

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.vertices, dtype=float).reshape(-1, 2))
        m = v.shape[0]
        if m >= 2:
            d = np.linalg.norm(v - np.roll(v, -1, axis=0), axis=1)
            if np.any(d < 1e-10):
                raise PolytopeError("duplicate polygon vertices within 1e-10")
        if m >= 3:
            e = np.roll(v, -1, axis=0) - v
            cross = e[:, 0] * np.roll(e, -1, axis=0)[:, 1] - e[:, 1] * np.roll(e, -1, axis=0)[:, 0]
            if np.any(cross < -self.convexity_tol):
                raise PolytopeError(f"polygon not convex CCW (min cross {cross.min():.3e})")
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def is_degenerate(self) -> bool:
        return self.vertices.shape[0] < 3


def _vertex_candidates(nrm: np.ndarray, off: np.ndarray) -> tuple[np.ndarray, list[frozenset]]:
    """All feasible basic solutions of {x : nrm x <= off}, deduplicated; may
    be empty (no raising).  The half-spaces are not validated."""
    m, n = nrm.shape
    if m < n:
        return np.zeros((0, n)), []
    combos = np.array(list(itertools.combinations(range(m), n)))
    mats = nrm[combos]                       # (C, n, n)
    dets = np.abs(np.linalg.det(mats))
    good = dets > 1e-10
    pts = np.full((len(combos), n), np.nan)
    if np.any(good):
        pts[good] = np.linalg.solve(mats[good], off[combos[good]][..., None])[..., 0]
    feas = good & np.all(pts @ nrm.T <= off + FEAS_TOL, axis=1)
    verts: list[np.ndarray] = []
    for x in pts[feas]:
        if not any(np.linalg.norm(x - w) <= DEDUP_TOL for w in verts):
            verts.append(x)
    if not verts:
        return np.zeros((0, n)), []
    arr = np.array(sorted(verts, key=tuple))
    active = [frozenset(np.flatnonzero(np.abs(nrm @ x - off) <= ACTIVE_TOL)) for x in arr]
    return arr, active


def _is_bounded(poly: HPolytope) -> bool:
    """Exact boundedness: with offsets > 0, {A x <= b} is bounded iff no
    d != 0 has A d <= 0.

    If rank A < n, a null direction of A is such a d.  Otherwise that
    recession cone is pointed, so if it is not {0} it has an extreme ray,
    which spans the null space of some n-1 independent rows of A.  Testing
    +-d for the null direction d of every (n-1)-row subset is therefore
    complete; a subset of lower rank yields some direction of its null
    space, which is a true recession direction whenever it passes.
    """
    nrm = poly.normals
    m, n = nrm.shape
    if np.linalg.matrix_rank(nrm) < n:
        return False
    combos = list(itertools.combinations(range(m), n - 1))
    rows = nrm[np.array(combos, dtype=int).reshape(len(combos), n - 1)]
    rays = np.linalg.svd(rows)[2][:, -1, :]          # (C, n) null directions
    slopes = rays @ nrm.T
    recedes = (slopes.max(axis=1) <= RECESSION_TOL) | (slopes.min(axis=1) >= -RECESSION_TOL)
    return not np.any(recedes)


def enumerate_vertices(poly: HPolytope) -> VRep:
    """Enumerate all vertices of a bounded H-polytope in dimension <= 4."""
    n = poly.ambient_dim
    if n > 4:
        raise PolytopeError("vertex enumeration supports ambient dimension <= 4")
    if not _is_bounded(poly):
        raise PolytopeError("polytope is unbounded")
    verts, active = _vertex_candidates(poly.normals, poly.offsets)
    if verts.shape[0] == 0:
        raise PolytopeError("polytope is empty")
    if verts.shape[0] < n + 1:
        raise PolytopeError(f"degenerate polytope: only {verts.shape[0]} vertices")
    return VRep(verts, tuple(active))


@rowwise
def polytope_radial(poly: HPolytope, dirs) -> np.ndarray | float:
    """Radial function: distance along each unit direction to the boundary."""
    dots = dirs @ poly.normals.T
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(dots > 1e-14, poly.offsets / dots, np.inf)
    return ratios.min(axis=1)


def section_hpolytope(poly: HPolytope, subspace) -> HPolytope:
    """Exact H-representation of the central section P cap span(B), in
    subspace coordinates.

    Substituting x = B y turns each facet into <y, B^T normal> <= offset;
    facets orthogonal to the subspace drop out (their constraint holds
    automatically since offsets are positive), and facets that meet the
    subspace in the same hyperplane of it are kept once.
    """
    if subspace.ambient_dim != poly.ambient_dim:
        raise ValueError("subspace ambient dimension must match the polytope")
    ms = poly.normals @ subspace.basis
    lens = np.linalg.norm(ms, axis=1)
    live = lens > 1e-12
    nrm, off = ms[live] / lens[live, None], poly.offsets[live] / lens[live]
    dup = (nrm @ nrm.T > 1.0 - 1e-12) & (np.abs(off[:, None] - off[None, :]) <= ACTIVE_TOL)
    keep = ~np.tril(dup, -1).any(axis=1)
    return HPolytope(nrm[keep], off[keep])


def polygon_by_angle(vertices) -> Polygon:
    """The convex polygon of planar vertices around an interior origin,
    ordered counterclockwise by angle."""
    v = np.asarray(vertices, dtype=float).reshape(-1, 2)
    return Polygon(v[np.argsort(np.arctan2(v[:, 1], v[:, 0]))], convexity_tol=1e-9)


def section_polygon(poly: HPolytope, subspace) -> Polygon:
    """Exact planar section P cap span(B), in subspace coordinates."""
    if subspace.dim != 2:
        raise ValueError("section_polygon needs a 2-dimensional subspace")
    return polygon_by_angle(enumerate_vertices(section_hpolytope(poly, subspace)).vertices)


def polygon_metrics(q: Polygon) -> tuple[float, float]:
    """(area, perimeter) by shoelace and edge-length sums."""
    v = q.vertices
    m = v.shape[0]
    if m < 2:
        return 0.0, 0.0
    if m == 2:
        return 0.0, 2.0 * float(np.linalg.norm(v[1] - v[0]))
    nxt = np.roll(v, -1, axis=0)
    area = 0.5 * float(np.sum(v[:, 0] * nxt[:, 1] - v[:, 1] * nxt[:, 0]))
    perim = float(np.sum(np.linalg.norm(nxt - v, axis=1)))
    return area, perim


def convex_hull_2d(points) -> Polygon:
    """Andrew monotone chain; strictly convex output (collinear points dropped)."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]
    uniq = [pts[0]]
    for p in pts[1:]:
        if np.linalg.norm(p - uniq[-1]) > 1e-12:
            uniq.append(p)
    if len(uniq) == 1:
        return Polygon(np.array(uniq))
    def half(seq):
        out: list[np.ndarray] = []
        for p in seq:
            while len(out) >= 2:
                cr = (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1]) - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])
                if cr <= 1e-12:
                    out.pop()
                else:
                    break
            out.append(p)
        return out
    lower = half(uniq)
    upper = half(uniq[::-1])
    loop = lower[:-1] + upper[:-1]
    return Polygon(np.array(loop).reshape(-1, 2), convexity_tol=1e-9)


def projection_polygon(vrep: VRep, subspace) -> Polygon:
    """Orthogonal projection of a polytope onto a plane: hull of projected vertices."""
    if subspace.dim != 2:
        raise ValueError("projection_polygon needs a 2-dimensional subspace")
    return convex_hull_2d(vrep.vertices @ subspace.basis)


def _facet_polygon_area(verts: np.ndarray, normal: np.ndarray) -> float:
    """Area of a facet's vertex set, ordered by angle around its centroid."""
    c = verts.mean(axis=0)
    # orthonormal tangent frame of the facet plane
    t1 = np.zeros(3)
    t1[np.argmin(np.abs(normal))] = 1.0
    t1 = t1 - normal * (t1 @ normal)
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(normal, t1)
    rel = verts - c
    ang = np.arctan2(rel @ t2, rel @ t1)
    order = np.argsort(ang)
    u, w = rel[order] @ t1, rel[order] @ t2
    area = 0.5 * np.sum(u * np.roll(w, -1) - w * np.roll(u, -1))
    return abs(float(area))


def poly3_intrinsic_volumes(poly: HPolytope, vrep: VRep | None = None) -> tuple[float, float, float]:
    """(V1, V2, V3) of a bounded 3-polytope with interior origin.

    V3 by the divergence theorem over facet cones, V2 as half the surface
    area, V1 from edge lengths weighted by exterior dihedral angles.
    """
    if poly.ambient_dim != 3:
        raise PolytopeError("poly3_intrinsic_volumes needs a 3-dimensional polytope")
    if vrep is None:
        vrep = enumerate_vertices(poly)
    verts = vrep.vertices
    m = poly.num_facets

    facet_members: list[list[int]] = [[] for _ in range(m)]
    for vi, act in enumerate(vrep.active):
        for fi in act:
            facet_members[fi].append(vi)

    total_area = 0.0
    vol = 0.0
    for fi in range(m):
        members = facet_members[fi]
        if len(members) < 3:
            continue  # redundant facet: touches the polytope in < 2 dims
        area = _facet_polygon_area(verts[members], poly.normals[fi])
        total_area += area
        vol += poly.offsets[fi] * area
    v3 = vol / 3.0
    v2 = total_area / 2.0

    edge_sum = 0.0
    for fi in range(m):
        for fj in range(fi + 1, m):
            shared = [vi for vi in facet_members[fi] if fj in vrep.active[vi]]
            if len(shared) < 2:
                continue
            if len(shared) > 2:
                raise PolytopeError(f"facets {fi},{fj} share {len(shared)} vertices (collinear degeneracy)")
            length = float(np.linalg.norm(verts[shared[0]] - verts[shared[1]]))
            cosang = float(np.clip(poly.normals[fi] @ poly.normals[fj], -1.0, 1.0))
            edge_sum += length * np.arccos(cosang)
    v1 = edge_sum / (2.0 * np.pi)
    return v1, v2, v3
