"""Exact geometry for H-polytopes in dimension <= 4.

Vertex enumeration is brute force over facet n-subsets: with at most ~16
facets and n <= 4 that is at most C(16,4) = 1820 small linear systems per
polytope, which beats any asymptotically clever method at this scale and
keeps the results exact up to float rounding.  enumerate_stack takes a
stack of polytopes with the same facet count and runs every step as one
batched call for the whole stack; its callers stack at most CHUNK
polytopes, so a call solves at most CHUNK * 1820 systems.  A single
polytope is the stack of one.

Boundedness is decided exactly on the recession cone, from the closed-form
null directions of all (n-1)-subsets of facet normals.  A central section
or a slab of a polytope is a polytope: section_hpolytopes restricts the
facets to each subspace of a stack, slab_hpolytopes adds the two slab
facets, and their vertices come from the same enumeration, so sections of
any dimension get the exact machinery.

The enumeration also returns the boolean vertex x facet incidence matrix.
The exact intrinsic volumes of a 3-polytope are sums over it: its 2-faces
are the facets active at three or more vertices, its edges the pairs of
2-faces sharing two vertices, and V1, V2, V3 are sums over those edges and
faces (Schneider, Convex Bodies, section 4.2).

Exact values come in stacked passes, one kernel per quantity, and the
one-polytope functions are the stack of one: polygon_stack_metrics gives
(area, perimeter) of planar vertex sets grouped by vertex count,
poly3_stack_volumes (V1, V2, V3) of 3-polytopes by ragged face and edge
sums, and facet_volumes vol_{n-1} of each facet of a 3- or 4-polytope,
which cauchy_projection_volumes turns into the volumes of its hyperplane
projections by Cauchy's formula.  Sums over the faces of one polytope are
bincounts in an order fixed by that polytope alone, sums over a row run
along its own contiguous axis, and no BLAS product spans polytopes or
rows, so every value is the one its polytope or basis gets alone.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass, field, fields
from functools import cache, cached_property
from types import SimpleNamespace

import numpy as np

from .grassmann import rowwise

FEAS_TOL = 1e-9       # feasibility slack when accepting candidate vertices
DEDUP_TOL = 1e-8      # vertices closer than this are numerical twins
ACTIVE_TOL = 1e-9     # facet counts as active at a vertex within this; parallel
                      # facets whose offsets agree this closely are duplicates
RECESSION_TOL = 1e-12  # <ray, normal> up to this counts as <= 0 (unit vectors)
CHUNK = 16  # polytopes per enumerate_stack call from this module: bounds the
            # (CHUNK, C(m, n), n, n) systems and the other per-call temporaries


class PolytopeError(ValueError):
    """Raised for empty, unbounded, or structurally invalid polytopes."""


def _duplicate_facets(nrm: np.ndarray, off: np.ndarray) -> tuple[np.ndarray, ...]:
    """Index triples (s, i, j), i < j, in row-major order, of facets i and j
    of polytope s of an (S, m, n), (S, m) stack that are the same
    half-space: the cosine of their normals above 1 - 1e-12 (an angle below
    about 1.4e-6 rad) and offsets within ACTIVE_TOL."""
    s, i, j = np.nonzero((nrm @ nrm.transpose(0, 2, 1) > 1.0 - 1e-12)
                         & (np.abs(off[:, :, None] - off[:, None, :]) <= ACTIVE_TOL))
    upper = i < j
    return s[upper], i[upper], j[upper]


def _facet_fault(nrm: np.ndarray, off: np.ndarray) -> str | None:
    """The message the first polytope of an (S, m, n), (S, m) stack that
    fails HPolytope's facet checks fails with alone; None when every
    polytope passes."""
    unit = np.all(np.abs(np.linalg.norm(nrm, axis=2) - 1.0) <= 1e-12, axis=1)
    inside = np.all(off > 0.0, axis=1)
    dup, first, second = _duplicate_facets(nrm, off)
    bad = ~(unit & inside)
    bad[dup] = True
    if not bad.any():
        return None
    s = int(np.argmax(bad))
    if not unit[s]:
        return "facet normals must be unit vectors"
    if not inside[s]:
        return "all offsets must be positive (origin interior)"
    d = int(np.searchsorted(dup, s))
    return f"duplicate facets {first[d]} and {second[d]}"


@dataclass(frozen=True)
class HPolytope:
    """Intersection of half-spaces {x : <normal_i, x> <= offset_i}.

    Normals are unit rows; offsets are strictly positive, so the origin is
    interior.  Bounded-ness is not checked here; enumerate_vertices does,
    when vrep first enumerates the vertices.  The sections and slabs of
    section_hpolytopes and slab_hpolytopes are built with their vertices,
    after enumerate_stack has run the same checks on a whole stack.
    """

    normals: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        nrm = np.ascontiguousarray(np.asarray(self.normals, dtype=float))
        off = np.ascontiguousarray(np.asarray(self.offsets, dtype=float))
        if nrm.ndim != 2 or off.ndim != 1 or nrm.shape[0] != off.shape[0]:
            raise PolytopeError("normals must be (m, n) and offsets (m,)")
        fault = _facet_fault(nrm[None], off[None])
        if fault is not None:
            raise PolytopeError(fault)
        nrm.setflags(write=False)
        off.setflags(write=False)
        object.__setattr__(self, "normals", nrm)
        object.__setattr__(self, "offsets", off)

    @classmethod
    def _with_vrep(cls, normals: np.ndarray, offsets: np.ndarray, vrep: "VRep") -> "HPolytope":
        """The HPolytope of read-only float normals and offsets that
        enumerate_stack has checked, holding their vertices vrep; nothing is
        checked again.  A field other than normals and offsets is a KeyError
        here, not a half-built polytope."""
        poly = object.__new__(cls)
        given = {"normals": normals, "offsets": offsets}
        for f in fields(cls):
            object.__setattr__(poly, f.name, given[f.name])
        poly.__dict__["vrep"] = vrep  # the cached_property's slot
        return poly

    @property
    def ambient_dim(self) -> int:
        return self.normals.shape[1]

    @property
    def num_facets(self) -> int:
        return self.normals.shape[0]

    @cached_property
    def vrep(self) -> "VRep":
        """The vertices, enumerated on first use and kept."""
        return enumerate_vertices(self)

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
    """Vertex representation plus the (V, m) boolean incidence matrix:
    active[v, f] is True when facet f holds at vertex v within ACTIVE_TOL."""

    vertices: np.ndarray
    active: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.vertices, dtype=float))
        act = np.ascontiguousarray(np.asarray(self.active, dtype=bool))
        v.setflags(write=False)
        act.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "active", act)

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]


@dataclass(frozen=True)
class Polygon:
    """Convex polygon given by counterclockwise-ordered vertices.

    Fewer than 3 vertices marks a degenerate (empty / point / segment)
    result: area 0, and a segment's perimeter is twice its length.
    """

    vertices: np.ndarray
    convexity_tol: float = field(default=1e-12, compare=False)

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.vertices, dtype=float).reshape(-1, 2))
        fault = _polygon_fault(v[None], self.convexity_tol)
        if fault is not None:
            raise PolytopeError(fault[1])
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)


@cache
def _subsets(m: int, r: int) -> np.ndarray:
    """The r-subsets of range(m) in lexicographic order, as a read-only
    (C(m, r), r) index array."""
    combos = list(itertools.combinations(range(m), r))
    idx = np.array(combos, dtype=np.intp).reshape(len(combos), r)
    idx.setflags(write=False)
    return idx


def _vertex_candidates(nrm: np.ndarray, off: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """For each system {x : nrm_s x <= off_s} of an (S, m, n), (S, m) stack:
    all its feasible basic solutions, lexicographically sorted, and the
    (V, m) boolean matrix of facets active at each; may be empty (no
    raising).  The half-spaces are not validated.

    A candidate within DEDUP_TOL of any earlier candidate of its system (in
    facet-subset order) is a twin and is dropped, so a cluster of twins
    keeps its first member; in a chain of twins spanning more than
    DEDUP_TOL, the far end is dropped too.  Every solve and product is taken
    per system with a shape that does not depend on S, so a system gets the
    same bits in any stack.
    """
    count, m, n = nrm.shape
    if m < n:
        return [(np.zeros((0, n)), np.zeros((0, m), dtype=bool)) for _ in range(count)]
    combos = _subsets(m, n)
    mats = nrm[:, combos]                             # (S, C, n, n)
    good = np.abs(np.linalg.det(mats)) > 1e-10
    mats[~good] = np.eye(n)  # solved with the rest and dropped: LAPACK solves each alone
    pts = np.linalg.solve(mats, off[:, combos, None])[..., 0]
    del mats  # the largest temporary; the chunk size bounds it
    dots = pts @ nrm.transpose(0, 2, 1)               # (S, C, m)
    s, c = np.nonzero(good & np.all(dots <= off[:, None, :] + FEAS_TOL, axis=2))
    pts, dots = pts[s, c], dots[s, c]                 # the feasible candidates
    # packed per system; the NaN padding is near nothing
    slot = np.arange(s.size) - np.searchsorted(s, s)
    packed = np.full((count, slot.max(initial=-1) + 1, n), np.nan)
    packed[s, slot] = pts
    near = np.linalg.norm(packed[:, :, None] - packed[:, None], axis=-1) <= DEDUP_TOL
    kept = ~np.tril(near, -1).any(axis=2)[s, slot]
    s, verts = s[kept], pts[kept]
    active = np.abs(dots[kept] - off[s]) <= ACTIVE_TOL
    order = np.lexsort((*verts.T[::-1], s))           # by system, then lexicographic
    verts, active = verts[order], active[order]
    bounds = [0, *np.cumsum(np.bincount(s, minlength=count)).tolist()]
    return [(verts[lo:hi], active[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def _is_bounded(nrm: np.ndarray) -> np.ndarray:
    """Exact boundedness of each polytope of an (S, m, n) stack of normals:
    with offsets > 0, {A x <= b} is bounded iff no d != 0 has A d <= 0.

    If rank A < n, a null direction of A is such a d.  Otherwise that
    recession cone is pointed, so if it is not {0} it has an extreme ray,
    which spans the null space of some n-1 independent rows of A.  Testing
    +-d for the null direction d of every (n-1)-row subset is therefore
    complete.  d comes in closed form, unit rows give |d| <= 1, and a subset
    of lower rank has d = 0 up to rounding: subsets with |d| <= RECESSION_TOL
    count as dependent and are skipped.
    """
    count, m, n = nrm.shape
    if m < n:
        return np.zeros(count, dtype=bool)
    rays = _null_directions(nrm[:, _subsets(m, n - 1)])  # (S, C, n)
    size = np.sqrt((rays * rays).sum(axis=2))
    independent = size > RECESSION_TOL
    rays = np.divide(rays, size[..., None], out=np.zeros_like(rays), where=independent[..., None])
    slopes = rays @ nrm.transpose(0, 2, 1)
    recedes = (slopes.max(axis=2) <= RECESSION_TOL) | (slopes.min(axis=2) >= -RECESSION_TOL)
    return (np.linalg.matrix_rank(nrm) == n) & ~(recedes & independent).any(axis=1)


_COFACTOR_COLUMNS = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))


def _null_directions(rows: np.ndarray) -> np.ndarray:
    """A null direction of each (n-1, n) block of rows, n <= 4, in closed
    form: the generalized cross product, whose l-th entry is (-1)^l times
    the minor without column l (for n = 3 the cross product, for n = 2 the
    normal turned a quarter).  Not normalized; 0 where the rows are
    dependent."""
    n = rows.shape[-1]
    if n == 1:  # no rows: the whole line is null
        return np.ones(rows.shape[:-2] + (1,))
    if n == 2:
        return np.stack([-rows[..., 0, 1], rows[..., 0, 0]], axis=-1)
    if n == 3:
        return np.cross(rows[..., 0, :], rows[..., 1, :])
    minors = [np.sum(rows[..., 0, c] * np.cross(rows[..., 1, c], rows[..., 2, c]), axis=-1)
              for c in map(list, _COFACTOR_COLUMNS)]
    return np.stack([minors[0], -minors[1], minors[2], -minors[3]], axis=-1)


def _vreps(nrm: np.ndarray, off: np.ndarray) -> list[VRep]:
    """The VReps of an (S, m, n), (S, m) stack of polytopes that pass
    HPolytope's checks, after enumerate_vertices' checks; a polytope that
    fails raises the message it fails with alone."""
    n = nrm.shape[2]
    if n > 4:
        raise PolytopeError("vertex enumeration supports ambient dimension <= 4")
    if len(nrm) == 0:
        return []
    if not np.all(_is_bounded(nrm)):
        raise PolytopeError("polytope is unbounded")
    found = _vertex_candidates(nrm, off)
    for verts, _ in found:
        if verts.shape[0] == 0:
            raise PolytopeError("polytope is empty")
        if verts.shape[0] < n + 1:
            raise PolytopeError(f"degenerate polytope: only {verts.shape[0]} vertices")
    return [VRep(verts, active) for verts, active in found]


def enumerate_stack(normals, offsets) -> list[VRep]:
    """The VReps of S polytopes with the same facet count, given as (S, m, n)
    normals and (S, m) offsets, in one batched pass.

    Every polytope gets HPolytope's facet checks and enumerate_vertices'
    checks, one check at a time for the whole stack, so a failing polytope
    raises the message it raises alone; of several failing polytopes, the
    first to fail the earliest check raises.  The temporaries grow with
    S * C(m, n), so callers stack at most CHUNK polytopes.
    """
    nrm = np.asarray(normals, dtype=float)
    off = np.asarray(offsets, dtype=float)
    if nrm.ndim != 3 or off.shape != nrm.shape[:2]:
        raise PolytopeError("normals must be (S, m, n) and offsets (S, m)")
    fault = _facet_fault(nrm, off)
    if fault is not None:
        raise PolytopeError(fault)
    return _vreps(nrm, off)


def enumerate_vertices(poly: HPolytope) -> VRep:
    """Enumerate all vertices of a bounded H-polytope in dimension <= 4: the
    stack of one, whose facets HPolytope has checked."""
    return _vreps(poly.normals[None], poly.offsets[None])[0]


def _stack_members(nrm: np.ndarray, off: np.ndarray, keep: np.ndarray) -> list[HPolytope]:
    """HPolytope(nrm[s][keep[s]], off[s][keep[s]]) for each s of an
    (S, m0, n), (S, m0) stack, with its vertices: the polytopes with the
    same facet count go to one enumerate_stack call, whose checks are the
    constructor's."""
    out = [None] * len(nrm)
    counts = keep.sum(axis=1)
    # not np.unique: its first call adds 1.6 MB of resident memory
    for m in np.flatnonzero(np.bincount(counts)):
        members = np.flatnonzero(counts == m)
        sel = keep[members]
        g_nrm = nrm[members][sel].reshape(len(members), m, nrm.shape[2])
        g_off = off[members][sel].reshape(len(members), m)
        g_nrm.setflags(write=False)
        g_off.setflags(write=False)
        for t, vrep in enumerate(enumerate_stack(g_nrm, g_off)):
            out[members[t]] = HPolytope._with_vrep(g_nrm[t], g_off[t], vrep)
    return out


def _hpolytopes(nrm: np.ndarray, off: np.ndarray, keep: np.ndarray) -> Iterator[HPolytope]:
    """The polytopes of _stack_members, CHUNK at a time, in order; only one
    chunk's polytopes are held here.  When a chunk fails, its members are
    built again one at a time, so the first failing polytope raises the
    message it raises alone, as when each sample builds its own."""
    for lo in range(0, len(nrm), CHUNK):
        part = slice(lo, lo + CHUNK)
        try:
            out = _stack_members(nrm[part], off[part], keep[part])
        except PolytopeError:
            for s in range(lo, min(lo + CHUNK, len(nrm))):
                _stack_members(nrm[s:s + 1], off[s:s + 1], keep[s:s + 1])
            raise
        yield from out


@rowwise
def polytope_radial(poly: HPolytope, dirs) -> np.ndarray | float:
    """Radial function: distance along each unit direction to the boundary."""
    dots = dirs @ poly.normals.T
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(dots > 1e-14, poly.offsets / dots, np.inf)
    return ratios.min(axis=1)


def section_hpolytopes(poly: HPolytope, bases) -> Iterator[HPolytope]:
    """Exact H-representations of the central sections P cap span(B_j) for
    an (S, n, k) stack of orthonormal bases B_j, in subspace coordinates,
    with their vertices; built and enumerated CHUNK sections at a time, as
    the iterator is consumed.

    Substituting x = B y turns each facet into <y, B^T normal> <= offset;
    facets orthogonal to the subspace drop out (their constraint holds
    automatically since offsets are positive), and facets that meet the
    subspace in the same hyperplane of it are kept once.  The facet product
    is taken per basis, so a section gets the same bits in any stack.
    """
    bases = np.asarray(bases, dtype=float)
    if bases.ndim != 3 or bases.shape[1] != poly.ambient_dim:
        raise ValueError("subspace ambient dimension must match the polytope")
    ms = poly.normals @ bases                         # (S, m, k)
    lens = np.linalg.norm(ms, axis=2)
    keep = lens > 1e-12
    # the dropped rows stay zero, so they duplicate nothing
    nrm = np.divide(ms, lens[..., None], out=np.zeros_like(ms), where=keep[..., None])
    off = np.divide(poly.offsets, lens, out=np.zeros_like(lens), where=keep)
    dup, _, second = _duplicate_facets(nrm, off)
    keep[dup, second] = False  # the later facet of each pair
    return _hpolytopes(nrm, off, keep)


def section_hpolytope(poly: HPolytope, subspace) -> HPolytope:
    """The section of section_hpolytopes for one subspace."""
    return next(section_hpolytopes(poly, subspace.basis[None]))


def slab_hpolytopes(poly: HPolytope, xis, ts) -> Iterator[HPolytope]:
    """poly clipped to the slab {x : |<x, xi>| <= t} for each unit row xi of
    xis and half-width t of ts (one t for every row if ts is a scalar), with
    its vertices: the facets of poly followed by (xi, t) and (-xi, t).
    Built and enumerated CHUNK slabs at a time, as the iterator is consumed."""
    xis = np.asarray(xis, dtype=float)
    count, (m, n) = len(xis), poly.normals.shape
    nrm = np.concatenate([np.broadcast_to(poly.normals, (count, m, n)),
                          xis[:, None], -xis[:, None]], axis=1)
    half = np.broadcast_to(np.asarray(ts, dtype=float)[..., None], (count, 2))
    off = np.concatenate([np.broadcast_to(poly.offsets, (count, m)), half], axis=1)
    return _hpolytopes(nrm, off, np.ones((count, m + 2), dtype=bool))


def polygon_by_angle(vertices) -> Polygon:
    """The convex polygon of planar vertices around an interior origin,
    ordered counterclockwise by angle."""
    v = np.asarray(vertices, dtype=float).reshape(-1, 2)
    return Polygon(v[np.argsort(np.arctan2(v[:, 1], v[:, 0]))], convexity_tol=1e-9)


def section_polygon(poly: HPolytope, subspace) -> Polygon:
    """Exact planar section P cap span(B), in subspace coordinates."""
    if subspace.dim != 2:
        raise ValueError("section_polygon needs a 2-dimensional subspace")
    return polygon_by_angle(section_hpolytope(poly, subspace).vrep.vertices)


def _polygon_fault(v: np.ndarray, tol: float) -> tuple[int, str] | None:
    """(index, message) of the first loop of a (G, m, 2) stack of vertex
    loops that fails Polygon's checks, with the message it fails with
    alone; None when every loop passes.  Twins: consecutive vertices within
    1e-10 (m >= 2).  Convexity: the cross product of consecutive edges
    below -tol (m >= 3)."""
    m = v.shape[1]
    if m < 2:
        return None
    edges = v[:, _next(m)] - v
    twin = (np.linalg.norm(edges, axis=2) < 1e-10).any(axis=1)
    if m >= 3:
        after = edges[:, _next(m)]
        cross = edges[..., 0] * after[..., 1] - edges[..., 1] * after[..., 0]
        bad = twin | (cross < -tol).any(axis=1)
    else:
        bad = twin
    if not bad.any():
        return None
    g = int(np.argmax(bad))
    if twin[g]:
        return g, "duplicate polygon vertices within 1e-10"
    return g, f"polygon not convex CCW (min cross {cross[g].min():.3e})"


def _next(m: int) -> np.ndarray:
    """The index of each vertex's successor around a loop of m vertices."""
    return np.roll(np.arange(m), -1)


def _polygon_sums(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(area, perimeter) of each loop of a (G, m, 2) stack by shoelace and
    edge-length sums (0 and twice the length for a segment), each summed
    along its own contiguous row, so a loop gets the bits it gets alone."""
    after = v[:, _next(v.shape[1])]
    area = 0.5 * (v[..., 0] * after[..., 1] - v[..., 1] * after[..., 0]).sum(axis=1)
    return area, np.linalg.norm(after - v, axis=2).sum(axis=1)


def polygon_metrics(q: Polygon) -> tuple[float, float]:
    """(area, perimeter) by shoelace and edge-length sums: the stack of one
    of _polygon_sums."""
    area, perim = _polygon_sums(q.vertices[None])
    return float(area[0]), float(perim[0])


def polygon_stack_metrics(vertex_sets) -> tuple[np.ndarray, np.ndarray]:
    """(area, perimeter) arrays of the convex polygons of a sequence of
    planar vertex sets around an interior origin: polygon_metrics of
    polygon_by_angle for each, in one pass per vertex count.

    Each group is ordered by angle and gets Polygon's checks at tolerance
    1e-9; of several failing polygons, the first in sequence order raises
    the message it raises alone.
    """
    counts = np.array([len(v) for v in vertex_sets], dtype=np.intp)
    area, perim = np.empty(len(counts)), np.empty(len(counts))
    faults = []
    for m in np.flatnonzero(np.bincount(counts)):
        members = np.flatnonzero(counts == m)
        v = np.stack([vertex_sets[j] for j in members])
        order = np.argsort(np.arctan2(v[..., 1], v[..., 0]), axis=1)
        v = np.take_along_axis(v, order[..., None], axis=1)
        fault = _polygon_fault(v, 1e-9)
        if fault is not None:
            faults.append((members[fault[0]], fault[1]))
        else:
            area[members], perim[members] = _polygon_sums(v)
    if faults:
        raise PolytopeError(min(faults)[1])
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


def _centroids(labels: np.ndarray, points: np.ndarray, count: int) -> np.ndarray:
    """The mean of the points of each label 0..count-1, summed by bincount
    in the order the points come."""
    sums = [np.bincount(labels, points[:, c], minlength=count) for c in range(points.shape[1])]
    return np.stack(sums, axis=1) / np.bincount(labels, minlength=count)[:, None]


def _pairs(inc: np.ndarray) -> np.ndarray:
    """inc^T inc of a (..., V, F) boolean incidence stack: how many rows
    each pair of columns shares, as exact integers (no BLAS)."""
    counts = inc.astype(np.intp)
    return np.matmul(np.swapaxes(counts, -1, -2), counts)


def _poly3_faces(polys) -> SimpleNamespace:
    """The 2-faces and edges of a sequence of bounded 3-polytopes with
    interior origin, concatenated in polytope order.

    A 2-face is a facet active at three or more vertices; a plane touching
    P in an edge or a vertex is none.  An edge is a pair of 2-faces sharing
    exactly two vertices.  A face's area is the fan of triangles from its
    vertex centroid over its edges, so no vertex is ordered.  The polytopes
    are padded to one (S, V, m) incidence stack, and every sum over the
    faces or edges of a polytope is a bincount over its own rows, in an
    order that does not depend on the other polytopes.

    Fields: `poly` and `facet` of each face, its `area`; `edge_poly`, the
    two faces `fi`, `fj` (indices into the face arrays) and the end points
    `a`, `b` of each edge; and the padded `normals` and `offsets`.
    """
    nv = [p.vrep.num_vertices for p in polys]
    nf = [p.num_facets for p in polys]
    act = np.zeros((len(polys), max(nv), max(nf)), dtype=bool)
    pts = np.zeros((len(polys), max(nv), 3))
    nrm = np.zeros((len(polys), max(nf), 3))
    off = np.zeros((len(polys), max(nf)))
    for s, p in enumerate(polys):
        act[s, :nv[s], :nf[s]] = p.vrep.active
        pts[s, :nv[s]] = p.vrep.vertices
        nrm[s, :nf[s]] = p.normals
        off[s, :nf[s]] = p.offsets
    inc = act & (act.sum(axis=1) >= 3)[:, None, :]   # vertex x 2-face
    shared = np.triu(_pairs(inc), 1)
    if np.any(shared > 2):
        s, fi, fj = np.argwhere(shared > 2)[0]
        raise PolytopeError(f"facets {fi},{fj} share {shared[s, fi, fj]} "
                            "vertices (collinear degeneracy)")
    poly, facet = np.nonzero(inc.any(axis=1))
    index = np.zeros(act.shape[::2], dtype=np.intp)    # (s, facet) -> face
    index[poly, facet] = np.arange(poly.size)
    edge_poly, fi, fj = np.nonzero(shared == 2)
    ends = np.nonzero(act[edge_poly, :, fi] & act[edge_poly, :, fj])[1].reshape(-1, 2)
    a, b = pts[edge_poly, ends[:, 0]], pts[edge_poly, ends[:, 1]]
    s, v, f = np.nonzero(inc)
    centroid = _centroids(index[s, f], pts[s, v], poly.size)
    fi, fj = index[edge_poly, fi], index[edge_poly, fj]
    tri = [0.5 * np.linalg.norm(np.cross(a - centroid[g], b - a), axis=1) for g in (fi, fj)]
    area = np.bincount(np.concatenate([fi, fj]), np.concatenate(tri), minlength=poly.size)
    return SimpleNamespace(poly=poly, facet=facet, area=area, edge_poly=edge_poly,
                           fi=fi, fj=fj, a=a, b=b, normals=nrm, offsets=off)


def poly3_stack_volumes(polys) -> np.ndarray:
    """(S, 3) array of (V1, V2, V3) of a sequence of S bounded 3-polytopes
    with interior origin, as ragged sums over their 2-faces and edges
    (_poly3_faces; Schneider, Convex Bodies, section 4.2).

    V3 is the sum of facet cones (offset * area / 3), V2 half the surface
    area, V1 the edge lengths weighted by exterior dihedral angles over
    2 pi.  Every per-polytope sum is a bincount over that polytope's own
    faces or edges, and no product runs across polytopes, so each row is
    the one its polytope gets alone.
    """
    if any(p.ambient_dim != 3 for p in polys):
        raise PolytopeError("poly3_stack_volumes needs 3-dimensional polytopes")
    g = _poly3_faces(polys)
    nrm = g.normals[g.poly, g.facet]
    cosang = np.clip(np.sum(nrm[g.fi] * nrm[g.fj], axis=1), -1.0, 1.0)
    turns = np.linalg.norm(g.b - g.a, axis=1) * np.arccos(cosang)
    cones = g.offsets[g.poly, g.facet] * g.area
    count = len(polys)
    return np.stack([np.bincount(g.edge_poly, turns, minlength=count) / (2.0 * np.pi),
                     np.bincount(g.poly, g.area, minlength=count) / 2.0,
                     np.bincount(g.poly, cones, minlength=count) / 3.0], axis=1)


def poly3_intrinsic_volumes(poly: HPolytope, vrep: VRep | None = None) -> tuple[float, float, float]:
    """(V1, V2, V3) of a bounded 3-polytope with interior origin: the stack
    of one of poly3_stack_volumes.  A vrep given is the polytope's own."""
    if vrep is not None and poly.__dict__.get("vrep") is not vrep:
        poly = HPolytope._with_vrep(poly.normals, poly.offsets, vrep)
    v1, v2, v3 = poly3_stack_volumes([poly])[0].tolist()
    return v1, v2, v3


def facet_volumes(poly: HPolytope) -> tuple[np.ndarray, np.ndarray]:
    """(normals, volumes): the unit normal and vol_{n-1} of each facet of a
    bounded 3- or 4-polytope with interior origin, as face sums over its
    incidence matrix.

    n = 3: the 2-faces and areas of _poly3_faces.  n = 4: a facet is a
    hyperplane active at four or more vertices that are not all on another
    one (a hyperplane touching P in a lower face is none); a 2-face is a
    pair of facets sharing three or more vertices, and its edges are the
    pairs of its vertices that share a third facet.  vol_3 of a facet is
    the fan of tetrahedra (facet centroid, 2-face centroid, edge) over its
    2-faces and their edges; a tetrahedron's volume is the norm of the
    generalized cross product of its three edge vectors from the facet
    centroid over 6, the 3-volume within the facet's own hyperplane.
    """
    if poly.ambient_dim == 3:
        g = _poly3_faces([poly])
        return poly.normals[g.facet], g.area
    if poly.ambient_dim != 4:
        raise PolytopeError("facet_volumes needs a 3- or 4-dimensional polytope")
    act, pts = poly.vrep.active, poly.vrep.vertices
    held = _pairs(act)
    count = np.diagonal(held)
    lower = (held == count[:, None]) & (count >= 4)[None, :] & ~np.eye(len(count), dtype=bool)
    facets = np.flatnonzero((count >= 4) & ~lower.any(axis=1))
    inc = act[:, facets]
    fi, fj = np.nonzero(np.triu(_pairs(inc) >= 3, 1))
    in_face = inc[:, fi] & inc[:, fj]                       # vertex x 2-face
    v, f = np.nonzero(inc)
    facet_centroid = _centroids(f, pts[v], facets.size)
    v, f = np.nonzero(in_face)
    face_centroid = _centroids(f, pts[v], fi.size)
    edge = np.triu(_pairs(inc.T) >= 3, 1)
    face, a, b = np.nonzero(in_face.T[:, :, None] & in_face.T[:, None, :] & edge)
    owners = np.concatenate([fi[face], fj[face]])
    apex = facet_centroid[owners]
    rows = np.stack([np.tile(face_centroid[face], (2, 1)) - apex,
                     np.tile(pts[a], (2, 1)) - apex, np.tile(pts[b], (2, 1)) - apex], axis=1)
    tets = np.linalg.norm(_null_directions(rows), axis=1) / 6.0
    return poly.normals[facets], np.bincount(owners, tets, minlength=facets.size)


def cauchy_projection_volumes(poly: HPolytope, bases) -> np.ndarray:
    """vol_{n-1} of the projection of a 3- or 4-polytope onto span(B_j) for
    each basis of an (S, n, n-1) stack, by Cauchy's formula
    vol_{n-1}(P|u^perp) = 1/2 sum_F vol_{n-1}(F) |<nu_F, u>| (Schneider,
    Convex Bodies, section 5.3), u_j the unit null direction of B_j^T.

    The facet volumes are taken once; the products are one broadcast and
    every sum runs along a contiguous row, so each value is the one its
    basis gets alone.
    """
    normals, volumes = facet_volumes(poly)
    u = _null_directions(np.swapaxes(np.asarray(bases, dtype=float), 1, 2))
    u = u / np.sqrt((u * u).sum(axis=1))[:, None]
    return 0.5 * (np.abs((u[:, None, :] * normals).sum(axis=2)) * volumes).sum(axis=1)
