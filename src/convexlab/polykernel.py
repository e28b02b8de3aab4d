"""Exact geometry for H-polytopes in dimension <= 4.

Vertex enumeration is brute force over facet n-subsets: with at most ~16
facets and n <= 4 that is at most C(16,4) = 1820 small linear systems,
which beats any asymptotically clever method at this scale and keeps the
results exact up to float rounding.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .grassmann import rowwise

FEAS_TOL = 1e-9       # feasibility slack when accepting candidate vertices
DEDUP_TOL = 1e-8      # vertices closer than this are numerical twins
ACTIVE_TOL = 1e-9     # facet counts as active at a vertex within this
DUP_FACET_TOL = 1e-12


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
                if dots[i, j] > 1.0 - 1e-12 and abs(off[i] - off[j]) <= DUP_FACET_TOL:
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


def _vertex_candidates(poly: HPolytope) -> tuple[np.ndarray, list[frozenset]]:
    """All feasible basic solutions, deduplicated; may be empty (no raising)."""
    nrm, off = poly.normals, poly.offsets
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
    """Exact boundedness: P bounded iff max +-x_j is finite for every j."""
    nrm = poly.normals
    n = poly.ambient_dim
    # cheap certificate: facets within a box in every +-coordinate direction
    hit = [np.any(nrm @ e > 1.0 - 1e-12) for s in (1.0, -1.0) for e in (s * np.eye(n))]
    if all(hit):
        return True
    from scipy.optimize import linprog

    for j in range(n):
        for sgn in (1.0, -1.0):
            c = np.zeros(n)
            c[j] = -sgn  # linprog minimizes
            res = linprog(c, A_ub=nrm, b_ub=poly.offsets, bounds=[(None, None)] * n, method="highs")
            if res.status == 3:
                return False
            if res.status not in (0, 2):
                raise PolytopeError(f"boundedness LP failed with status {res.status}")
    return True


def enumerate_vertices(poly: HPolytope) -> VRep:
    """Enumerate all vertices of a bounded H-polytope in dimension <= 4."""
    n = poly.ambient_dim
    if n > 4:
        raise PolytopeError("vertex enumeration supports ambient dimension <= 4")
    if not _is_bounded(poly):
        raise PolytopeError("polytope is unbounded")
    verts, active = _vertex_candidates(poly)
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


def _clip_halfplane(pts: list[np.ndarray], m: np.ndarray, b: float) -> list[np.ndarray]:
    """Sutherland-Hodgman step: keep the region <p, m> <= b."""
    if not pts:
        return []
    out: list[np.ndarray] = []
    vals = [float(p @ m) - b for p in pts]
    k = len(pts)
    for i in range(k):
        p, q = pts[i], pts[(i + 1) % k]
        vp, vq = vals[i], vals[(i + 1) % k]
        if vp <= 0.0:
            out.append(p)
            if vq > 0.0:
                out.append(p + (q - p) * (vp / (vp - vq)))
        elif vq <= 0.0:
            out.append(p + (q - p) * (vp / (vp - vq)))
    return out


def _clean_loop(pts: list[np.ndarray], dedup_tol: float = 1e-11, collinear_tol: float = 1e-12) -> np.ndarray:
    """Drop near-duplicate and collinear vertices from a CCW loop."""
    if not pts:
        return np.zeros((0, 2))
    arr = [pts[0]]
    for p in pts[1:]:
        if np.linalg.norm(p - arr[-1]) > dedup_tol:
            arr.append(p)
    while len(arr) > 1 and np.linalg.norm(arr[0] - arr[-1]) <= dedup_tol:
        arr.pop()
    if len(arr) < 3:
        return np.array(arr).reshape(-1, 2)
    keep = []
    k = len(arr)
    for i in range(k):
        a, b, c = arr[i - 1], arr[i], arr[(i + 1) % k]
        cr = (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])
        if abs(cr) > collinear_tol:
            keep.append(b)
    return np.array(keep).reshape(-1, 2)


def section_polygon(poly: HPolytope, subspace) -> Polygon:
    """Exact planar section P intersect span(B), in subspace coordinates.

    Substituting x = B y turns each facet into the half-plane
    <y, B^T normal> <= offset; facets orthogonal to the plane drop out
    (their constraint holds automatically since offsets are positive).
    """
    if subspace.dim != 2 or subspace.ambient_dim != poly.ambient_dim:
        raise ValueError("need a 2-dimensional subspace of the polytope's ambient space")
    ms = poly.normals @ subspace.basis          # (m, 2)
    bs = poly.offsets
    lens = np.linalg.norm(ms, axis=1)
    live = lens > 1e-14

    angles = (np.arange(8) + 0.5) * (np.pi / 4.0)
    probes = np.column_stack([np.cos(angles), np.sin(angles)])
    dots = probes @ ms[live].T
    with np.errstate(divide="ignore"):
        rad = np.where(dots > 1e-14, bs[live] / dots, np.inf).min(axis=1)
    w = 2.0 * float(rad.max())

    pts = [np.array([w, -w]), np.array([w, w]), np.array([-w, w]), np.array([-w, -w])]
    for mi, bi in zip(ms[live], bs[live]):
        pts = _clip_halfplane(pts, mi, float(bi))
        if not pts:
            raise PolytopeError("section vanished despite interior origin")
    cleaned = _clean_loop(pts)
    if cleaned.shape[0] < 3:
        raise PolytopeError("section degenerated despite interior origin")
    return Polygon(cleaned, convexity_tol=1e-9)


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
