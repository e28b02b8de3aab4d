"""Intrinsic-volume estimators driven by radial/support oracles.

Deterministic quadrature wherever the geometry allows it: trapezoid sums on
the circle, Fibonacci lattices on the sphere, boundary polylines for planar
bodies.  The Kubota Monte-Carlo estimator handles everything else by
averaging projection volumes over Haar-random subspaces.

Every estimator reports a stderr: Monte-Carlo paths use the sample standard
error, deterministic paths use the N vs N/2 halving difference, exact paths
report zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grassmann import RngStream, Subspace, embed, kappa, rowwise, sample_haar_subspace
from .polykernel import Polygon, polygon_metrics, projection_polygon

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


class EstimateError(ValueError):
    """Raised when an estimator detects inconsistent input data."""


@dataclass(frozen=True)
class IVEstimate:
    """One intrinsic-volume value with its error estimate and provenance."""

    index: int
    value: float
    stderr: float
    method: str  # exact-polygon | exact-poly3 | polyline | quadrature | kubota-mc
    samples: int

    def __post_init__(self):
        if self.stderr < 0.0:
            raise EstimateError("stderr must be nonnegative")


def flag_coefficient(k: int, i: int) -> float:
    """Kubota constant under Haar probability normalization."""
    if not 1 <= i <= k:
        raise EstimateError("need 1 <= i <= k")
    return math.comb(k, i) * kappa(k) / (kappa(i) * kappa(k - i))


def ball_intrinsic_volume(k: int, i: int) -> float:
    """Closed form V_i of the unit k-ball: C(k,i) kappa_k / kappa_{k-i}."""
    return math.comb(k, i) * kappa(k) / kappa(k - i)


def circle_grid(n: int) -> np.ndarray:
    ang = 2.0 * np.pi * np.arange(n) / n
    return np.column_stack([np.cos(ang), np.sin(ang)])


def fibonacci_sphere(n: int) -> np.ndarray:
    """Deterministic near-uniform lattice on the unit 2-sphere."""
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = GOLDEN_ANGLE * i
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def sphere_grid(dim: int, n: int) -> np.ndarray:
    """Deterministic direction grid in any dimension (lattice for 2, 3)."""
    if dim == 2:
        return circle_grid(n)
    if dim == 3:
        return fibonacci_sphere(n)
    g = RngStream(0x5F3759DF, dim).generator().standard_normal((n, dim))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def boundary_polyline(oracle, n: int) -> Polygon:
    """Inscribed polyline of a planar body at N equispaced boundary angles."""
    if n < 64 or n & (n - 1) != 0:
        raise EstimateError("polyline resolution must be a power of two, at least 64")
    dirs = circle_grid(n)
    rho = np.asarray(oracle.radial(dirs), dtype=float)
    return Polygon(dirs * rho[:, None], convexity_tol=1e-9)


def planar_metrics_from_oracle(oracle, n: int = 8192) -> tuple[IVEstimate, IVEstimate]:
    """(V1, V2) = (perimeter/2, area) of a planar body, with halving stderr."""
    poly = boundary_polyline(oracle, n)
    area, perim = polygon_metrics(poly)
    half = Polygon(poly.vertices[::2], convexity_tol=1e-9)
    area_h, perim_h = polygon_metrics(half)
    v1 = IVEstimate(1, perim / 2.0, abs(perim - perim_h) / 2.0, "polyline", n)
    v2 = IVEstimate(2, area, abs(area - area_h), "polyline", n)
    return v1, v2


def _tangent_frame(centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal tangent pairs for unit vectors in R^3, vectorized."""
    pick = np.argmin(np.abs(centers), axis=1)
    e = np.zeros_like(centers)
    e[np.arange(len(centers)), pick] = 1.0
    t1 = np.cross(centers, e)
    t1 /= np.linalg.norm(t1, axis=1, keepdims=True)
    t2 = np.cross(centers, t1)
    return t1, t2


_LOCAL_GRID = np.array([(a, b) for a in np.linspace(-1, 1, 5) for b in np.linspace(-1, 1, 5)])


def _zoom_extremum_s2(score, centers: np.ndarray, radius: float, rounds: int,
                      shrink: float, sign: float) -> tuple[np.ndarray, np.ndarray]:
    """Local grid-shrink optimization of `score` on the sphere near `centers`.

    sign=+1 maximizes, sign=-1 minimizes; returns (best points, best scores).
    """
    m = centers.shape[0]
    best_pts = centers.copy()
    best_val = score(centers)
    r = radius
    for _ in range(rounds):
        t1, t2 = _tangent_frame(best_pts)
        offs = (_LOCAL_GRID[None, :, 0, None] * t1[:, None, :]
                + _LOCAL_GRID[None, :, 1, None] * t2[:, None, :])
        cand = best_pts[:, None, :] + r * offs
        cand /= np.linalg.norm(cand, axis=2, keepdims=True)
        flat = cand.reshape(-1, 3)
        vals = score(flat).reshape(m, -1)
        idx = np.argmax(sign * vals, axis=1)
        rows = np.arange(m)
        better = sign * vals[rows, idx] > sign * best_val
        best_pts = np.where(better[:, None], cand[rows, idx], best_pts)
        best_val = np.where(better, vals[rows, idx], best_val)
        r *= shrink
    return best_pts, best_val


@rowwise
def support_from_radial(oracle, xi, grid: int = 2048, rounds: int = 24,
                        shrink: float = 0.4):
    """Support values h(xi) = max_theta rho(theta) <theta, xi> by grid + zoom.

    The coarse grid locates the maximizing basin; local grid-shrinking
    refines the argument to ~1e-10.  Works for planar and spatial oracles.
    """
    dim = oracle.dim
    if dim == 2:
        return _support2d_from_radial(oracle, xi, grid)
    if dim != 3:
        raise EstimateError("support_from_radial handles dimensions 2 and 3")

    base = fibonacci_sphere(grid)
    rho_base = np.asarray(oracle.radial(base), dtype=float)
    pts_base = base * rho_base[:, None]

    out = np.empty(xi.shape[0])
    block = 512
    spacing = 2.0 * math.sqrt(4.0 * math.pi / grid)
    for s in range(0, xi.shape[0], block):
        blk = xi[s:s + block]
        coarse = pts_base @ blk.T                       # (grid, b)
        centers = base[np.argmax(coarse, axis=0)]

        def score_rows(dirs, blk=blk):
            r = np.asarray(oracle.radial(dirs), dtype=float)
            reps = dirs.shape[0] // blk.shape[0]
            tgt = np.repeat(blk, reps, axis=0) if reps > 1 else blk
            return r * np.sum(dirs * tgt, axis=1)

        _, best = _zoom_extremum_s2(score_rows, centers, spacing, rounds, shrink, +1.0)
        out[s:s + block] = np.maximum(best, coarse.max(axis=0))
    return out


def _support2d_from_radial(oracle, xs: np.ndarray, grid: int) -> np.ndarray:
    base = circle_grid(grid)
    rho = np.asarray(oracle.radial(base), dtype=float)
    coarse = (base * rho[:, None]) @ xs.T               # (grid, m)
    k = np.argmax(coarse, axis=0)
    ang = 2.0 * np.pi * k / grid
    width = 2.0 * np.pi / grid
    lo, hi = ang - width, ang + width
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0

    def val(theta):
        d = np.column_stack([np.cos(theta), np.sin(theta)])
        r = np.asarray(oracle.radial(d), dtype=float)
        return r * np.sum(d * xs, axis=1)

    a = hi - inv_phi * (hi - lo)
    b = lo + inv_phi * (hi - lo)
    fa, fb = val(a), val(b)
    for _ in range(60):
        move_lo = fa < fb
        lo = np.where(move_lo, a, lo)
        hi = np.where(move_lo, hi, b)
        a_next = np.where(move_lo, b, hi - inv_phi * (hi - lo))
        b_next = np.where(move_lo, lo + inv_phi * (hi - lo), a)
        fresh = val(np.where(move_lo, b_next, a_next))
        fa, fb = np.where(move_lo, fb, fresh), np.where(move_lo, fresh, fa)
        a, b = a_next, b_next
    return np.maximum(val(0.5 * (a + b)), coarse.max(axis=0))


def radial_from_support(support_fn, dirs, grid: int = 512, rounds: int = 14,
                        shrink: float = 0.4) -> np.ndarray:
    """Radial function of a 3-d convex body given only its support function.

    rho(u) = min over directions d with <u,d> > 0 of h(d)/<u,d>; the minimum
    is located on a coarse lattice and refined by grid shrinking.
    """
    us = np.asarray(dirs, dtype=float).reshape(-1, 3)
    base = fibonacci_sphere(grid)
    h_base = np.asarray(support_fn(base), dtype=float)
    dots = us @ base.T
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(dots > 0.05, h_base[None, :] / dots, np.inf)
    centers = base[np.argmin(ratios, axis=1)]

    def score_rows(cand):
        h = np.asarray(support_fn(cand), dtype=float)
        reps = cand.shape[0] // us.shape[0]
        tgt = np.repeat(us, reps, axis=0) if reps > 1 else us
        dot = np.sum(cand * tgt, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(dot > 0.05, h / dot, np.inf)

    spacing = 2.0 * math.sqrt(4.0 * math.pi / grid)
    _, best = _zoom_extremum_s2(score_rows, centers, spacing, rounds, shrink, -1.0)
    return np.minimum(best, ratios.min(axis=1))


def volume_radial(oracle, k: int, nodes: int | None = None,
                  rng: RngStream | None = None) -> IVEstimate:
    """V_k (volume) from the polar formula vol = (1/k) integral of rho^k.

    Deterministic quadrature for k in {2, 3}; Monte-Carlo otherwise.
    """
    if k != oracle.dim:
        raise EstimateError("volume_radial needs k equal to the oracle dimension")
    if k in (2, 3):
        return _halving(k, lambda n: _polar_volume(oracle, k, n),
                        nodes or (8192 if k == 2 else 200_000))
    if rng is None:
        raise EstimateError("volume_radial needs an RngStream for k > 3")
    n = nodes or 200_000
    g = rng.generator().standard_normal((n, k))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    rho = np.asarray(oracle.radial(g), dtype=float)
    sphere_area = k * kappa(k)
    vals = rho ** k * (sphere_area / k)
    return IVEstimate(k, float(vals.mean()),
                      float(vals.std(ddof=1) / math.sqrt(n)), "quadrature", n)


def _halving(index: int, value, n: int) -> IVEstimate:
    """Deterministic quadrature value(n), with |value(n) - value(n/2)| as stderr."""
    full, half = value(n), value(n // 2)
    return IVEstimate(index, full, abs(full - half), "quadrature", n)


def _polar_volume(oracle, k: int, n: int) -> float:
    """(1/k) * integral of rho^k over the unit circle (k = 2) or sphere (k = 3)."""
    dirs, area = (circle_grid(n), 2.0 * np.pi) if k == 2 else (fibonacci_sphere(n), 4.0 * np.pi)
    rho = np.asarray(oracle.radial(dirs), dtype=float)
    return float(np.sum(rho ** k) * (area / n) / k)


def area_from_support_2d(support, n: int = 8192) -> float:
    """Projection-body area from its planar support function.

    area = (1/2) integral of (h^2 - h'^2); h' by centered differences.  The
    integrand identity holds for C^1 support functions, so polytopal
    projections should use the exact polygon path instead.
    """
    hs = np.asarray(support(circle_grid(n)), dtype=float)
    step = 2.0 * np.pi / n
    hp = (np.roll(hs, -1) - np.roll(hs, 1)) / (2.0 * step)
    area = 0.5 * float(np.sum(hs * hs - hp * hp) * step)
    if area < 0.0:
        raise EstimateError(f"support-based area came out negative ({area:.3e})")
    return area


def steiner_disc_area(q: Polygon, eps: float) -> float:
    """Exact area of the eps-parallel body of a convex polygon."""
    if eps < 0.0:
        raise EstimateError("parallel-body radius must be nonnegative")
    area, perim = polygon_metrics(q)
    return area + perim * eps + math.pi * eps * eps


def mean_width_v1(oracle, nodes: int = 2048) -> IVEstimate:
    """V_1 of a 3-d body: 4 times the spherical mean of its support function."""
    if oracle.dim != 3:
        raise EstimateError("mean_width_v1 handles dimension 3")
    return _halving(1, lambda n: 4.0 * float(np.mean(oracle.support(fibonacci_sphere(n)))),
                    nodes)


def hull_surface_v2(oracle, nodes: int = 20_000) -> IVEstimate:
    """V_2 of a 3-d body: half the surface area of its sampled boundary hull."""
    from scipy.spatial import ConvexHull

    if oracle.dim != 3:
        raise EstimateError("hull_surface_v2 handles dimension 3")

    def half_area(n):
        dirs = fibonacci_sphere(n)
        rho = np.asarray(oracle.radial(dirs), dtype=float)
        return ConvexHull(dirs * rho[:, None]).area / 2.0

    return _halving(2, half_area, nodes)


def centroid_3d(oracle, nodes: int = 20_000) -> np.ndarray:
    """Body centroid by polar integration: E[x] over the solid body."""
    dirs = fibonacci_sphere(nodes)
    rho = np.asarray(oracle.radial(dirs), dtype=float)
    w = 4.0 * np.pi / nodes
    vol = np.sum(rho ** 3) * w / 3.0
    first = (dirs * (rho ** 4)[:, None]).sum(axis=0) * w / 4.0
    return first / vol


def projection_volume(body, sub: Subspace, area_n: int) -> tuple[float, str]:
    """(vol_k of body|sub, method) for k = sub.dim in {1, 2, 3}.

    A body with vertex data (body.vrep) takes an exact path in every
    dimension; other bodies have support-based paths for k = 1 and 2.
    """
    k = sub.dim
    vrep = body.vrep
    if k == 1:
        u = sub.basis[:, 0]
        if vrep is not None:
            vals = vrep.vertices @ u
            return float(vals.max() - vals.min()), "exact-width"
        return float(body.support(u)) + float(body.support(-u)), "exact-width"
    if k == 2:
        if vrep is not None:
            return polygon_metrics(projection_polygon(vrep, sub))[0], "exact-polygon"
        area = area_from_support_2d(lambda d: body.support(embed(sub, d)), area_n)
        return area, "quadrature"
    if k == 3 and vrep is not None:
        from scipy.spatial import ConvexHull
        return float(ConvexHull(vrep.vertices @ sub.basis).volume), "exact-hull"
    raise EstimateError(f"no projection-volume path for k={k} on {body.kind}")


def _shadow_volume_from_support(body, sub: Subspace) -> float:
    """vol_3 of body|sub from support values alone, via its radial function."""
    rho = radial_from_support(lambda d: body.support(embed(sub, d)), fibonacci_sphere(512))
    return float(np.sum(rho ** 3) * (4.0 * np.pi / 512) / 3.0)


def kubota_intrinsic_volume(body, k: int, i: int, m: int, rng: RngStream,
                            area_grid: int = 2048) -> IVEstimate:
    """V_i via Kubota's recursion: flag coefficient times the Haar average
    of i-dimensional projection volumes over G(k, i).

    `body` lives in dimension k; a body with vertex data (body.vrep) takes
    the exact polytope path for every projection.
    """
    if not 1 <= i <= k:
        raise EstimateError(f"invalid Kubota indices i={i}, k={k}")
    if body.dim != k:
        raise EstimateError("body must live in dimension k")
    if i == k:
        return volume_radial(body, k, rng=rng)
    if m < 1:
        raise EstimateError("need at least one subspace sample")
    vols = np.empty(m)
    for j in range(m):
        sub = sample_haar_subspace(k, i, rng.substream(j))
        if i == 3 and body.vrep is None:
            vols[j] = _shadow_volume_from_support(body, sub)
        else:
            vols[j] = projection_volume(body, sub, area_grid)[0]
    c = flag_coefficient(k, i)
    value = c * float(vols.mean())
    stderr = c * float(vols.std(ddof=1) / math.sqrt(m)) if m > 1 else 0.0
    return IVEstimate(i, value, stderr, "kubota-mc", m)
