"""Intrinsic-volume estimators driven by radial/support oracles.

Deterministic quadrature wherever the geometry allows it: trapezoid sums on
the circle, Fibonacci lattices on the sphere, boundary polylines for planar
bodies, and Gauss-Legendre sums over the profile for the sections and
projections of a body of revolution, which are again bodies of revolution,
and along its axis for its slabs.
convexlab.experiments chooses the estimator of every section, slab and
projection row, and keeps Kubota's Monte-Carlo formula, the Haar average of
those projection rows, as a reference.

Every estimator reports a stderr: Monte-Carlo paths use the sample standard
error, deterministic paths use the N vs N/2 halving difference, exact paths
report zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .bodies import _profile_terms, _safeguarded_newton, profile, revolution_maximiser
from .grassmann import RngStream, kappa, rowwise
from .polykernel import Polygon, polygon_metrics

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
POLYLINE_NODES = 8192  # boundary angles of planar_metrics_from_oracle
PROFILE_NODES = 256  # Gauss-Legendre nodes per piece of a profile integral
PROFILE_CHUNK = 16  # subspaces per stacked profile integral: bounds its
                    # (chunk, 7 pieces, 1.5 * PROFILE_NODES) temporaries to ~350 kB
AXIS_FLOOR = 1e-100  # |B^T e_n| below this counts as 0: a ball, to rounding
GRADES, GRADE_RATIO, GRADE_SPAN = 10, 32.0, 0.05  # pole cuts of an axial slab integral
AXIAL_FLOOR = 1e-100  # |xi'| below this counts as this in an axial slab integral
RIM_STEPS = 64  # secant steps of the slab rim solve; rows stop once they settle
RIM_LEVEL_TOL = 2.0 ** -50  # |s <p, xi> - c| that counts as on the slab rim
Rows = tuple[np.ndarray, np.ndarray, str]  # a stack's values, stderrs and method


class EstimateError(ValueError):
    """Raised when an estimator detects inconsistent input data."""


@dataclass(frozen=True)
class IVEstimate:
    """One intrinsic-volume value with its error estimate and provenance."""

    index: int
    value: float
    stderr: float
    method: str  # polyline | quadrature | kubota-mc
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


def planar_metrics_from_oracle(oracle) -> tuple[IVEstimate, IVEstimate]:
    """(V1, V2) = (perimeter/2, area) of a planar body, with halving stderr."""
    n = POLYLINE_NODES
    poly = boundary_polyline(oracle, n)
    area, perim = polygon_metrics(poly)
    half = Polygon(poly.vertices[::2], convexity_tol=1e-9)
    area_h, perim_h = polygon_metrics(half)
    v1 = IVEstimate(1, perim / 2.0, abs(perim - perim_h) / 2.0, "polyline", n)
    v2 = IVEstimate(2, area, abs(area - area_h), "polyline", n)
    return v1, v2


def _tangent_frame(centers: np.ndarray) -> tuple[np.ndarray, ...]:
    """Orthonormal tangent vectors for unit vectors in R^2 (one) or R^3 (two)."""
    if centers.shape[1] == 2:
        return (np.column_stack([-centers[:, 1], centers[:, 0]]),)
    pick = np.argmin(np.abs(centers), axis=1)
    e = np.zeros_like(centers)
    e[np.arange(len(centers)), pick] = 1.0
    t1 = np.cross(centers, e)
    t1 /= np.linalg.norm(t1, axis=1, keepdims=True)
    t2 = np.cross(centers, t1)
    return t1, t2


_LOCAL_AXIS = np.linspace(-1, 1, 5)
_LOCAL_GRID = {2: _LOCAL_AXIS[:, None],
               3: np.array([(a, b) for a in _LOCAL_AXIS for b in _LOCAL_AXIS])}


def _zoom_extremum(score, centers: np.ndarray, grid: int, rounds: int,
                   shrink: float, sign: float) -> tuple[np.ndarray, np.ndarray]:
    """Local grid-shrink optimization of `score` on S^1 or S^2 near `centers`.

    The first local grid spans two node spacings of sphere_grid(dim, grid)
    around each center.  sign=+1 maximizes, sign=-1 minimizes; returns
    (best points, best scores).
    """
    m, dim = centers.shape
    local = _LOCAL_GRID[dim]
    best_pts = centers.copy()
    best_val = score(centers)
    r = 2.0 * (2.0 * math.pi / grid if dim == 2 else math.sqrt(4.0 * math.pi / grid))
    for _ in range(rounds):
        frame = _tangent_frame(best_pts)
        offs = local[None, :, 0, None] * frame[0][:, None, :]
        if dim == 3:
            offs = offs + local[None, :, 1, None] * frame[1][:, None, :]
        cand = best_pts[:, None, :] + r * offs
        cand /= np.linalg.norm(cand, axis=2, keepdims=True)
        flat = cand.reshape(-1, dim)
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
    if oracle.dim not in (2, 3):
        raise EstimateError("support_from_radial handles dimensions 2 and 3")

    base = sphere_grid(oracle.dim, grid)
    rho_base = np.asarray(oracle.radial(base), dtype=float)
    pts_base = base * rho_base[:, None]

    out = np.empty(xi.shape[0])
    block = 512
    for s in range(0, xi.shape[0], block):
        blk = xi[s:s + block]
        coarse = pts_base @ blk.T                       # (grid, b)
        centers = base[np.argmax(coarse, axis=0)]

        def score_rows(dirs, blk=blk):
            r = np.asarray(oracle.radial(dirs), dtype=float)
            tgt = np.repeat(blk, dirs.shape[0] // blk.shape[0], axis=0)
            return r * np.sum(dirs * tgt, axis=1)

        _, best = _zoom_extremum(score_rows, centers, grid, rounds, shrink, +1.0)
        out[s:s + block] = np.maximum(best, coarse.max(axis=0))
    return out


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


def hull_surface_v2(oracle) -> IVEstimate:
    """V_2 of a 3-d body: half the surface area of its sampled boundary hull."""
    from scipy.spatial import ConvexHull

    if oracle.dim != 3:
        raise EstimateError("hull_surface_v2 handles dimension 3")

    def half_area(n):
        dirs = fibonacci_sphere(n)
        rho = np.asarray(oracle.radial(dirs), dtype=float)
        return ConvexHull(dirs * rho[:, None]).area / 2.0

    return _halving(2, half_area, 20_000)


def centroid_3d(oracle, dirs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Body centroid by polar integration, E[x] over the solid body, with a
    quadrature rule (dirs, weights) on the unit sphere: volume
    sum(w rho^3) / 3 and first moment sum(w rho^4 theta) / 4."""
    rho = np.asarray(oracle.radial(dirs), dtype=float)
    # numpy sums, not BLAS products, so the bits do not depend on threads
    vol = np.sum(weights * rho ** 3) / 3.0
    first = (dirs * (weights * rho ** 4)[:, None]).sum(axis=0) / 4.0
    return first / vol


def antipodal_sums(fn, us: np.ndarray) -> np.ndarray:
    """fn(u_j) + fn(-u_j) for every row u_j of us, from one call of fn on the
    stacked rows (u_0, -u_0, u_1, -u_1, ...)."""
    vals = np.asarray(fn(np.stack([us, -us], axis=1).reshape(-1, us.shape[1])), dtype=float)
    return vals[0::2] + vals[1::2]


def ball_section_volumes(ball, bases: np.ndarray, i: int) -> Rows:
    """(V_i, zero stderrs, "exact-ball") of the ball (radius R, center c) cap span(B_j)
    for every n x k basis B_j of the stack bases: a k-ball of radius
    rho_j = sqrt(R^2 - |c - B_j B_j^T c|^2), so V_i = V_i(B^k) rho_j^i.  One
    pass over the stack, each sum taken per row, so each sample gets the
    value it gets alone; a centered ball gives rho = R."""
    radius, center = ball
    along = (bases * center[:, None]).sum(axis=1)             # B^T c
    off = center - (bases * along[:, None, :]).sum(axis=2)     # c - B B^T c
    rho = np.sqrt(radius * radius - (off * off).sum(axis=1))
    values = ball_intrinsic_volume(bases.shape[2], i) * rho ** i
    return values, np.zeros(len(values)), "exact-ball"


def ball_slab_volumes(ball, xis: np.ndarray, lows: np.ndarray, highs: np.ndarray,
                      i: int) -> Rows:
    """(V_i, zero stderrs, "exact-ball") of the 3-d ball (radius R, center c) clipped to
    the slab low_r <= <x, xi_r> <= high_r, for each unit row xi_r of xis.
    With the levels u = (level - <c, xi>) / R clipped to [-1, 1] (lo, hi):
    V_3 = pi R^3 [u - u^3 / 3] from lo to hi, V_2 = pi R^2 [(hi - lo)
    + ((1 - hi^2) + (1 - lo^2)) / 2] and V_1 = R [2 (hi - lo)
    + sqrt(1 - hi^2) arccos(hi) + sqrt(1 - lo^2) arccos(-lo)].  Every sum is
    taken per row, so each slab gets the value it gets alone."""
    if xis.shape[1] != 3 or not 1 <= i <= 3:
        raise EstimateError(f"ball slab volumes handle V_1 to V_3 in R^3, "
                            f"got n={xis.shape[1]}, i={i}")
    radius, center = ball
    mid = (xis * center).sum(axis=1)
    lo, hi = (np.clip((level - mid) / radius, -1.0, 1.0) for level in (lows, highs))
    # 1 - u^2 and 1 - hi lo as sums of products of 1 -+ u, which do not cancel near a pole
    ww_lo, ww_hi = (1.0 - lo) * (1.0 + lo), (1.0 - hi) * (1.0 + hi)
    if i == 3:  # (hi - lo) (1 - (hi^2 + hi lo + lo^2) / 3)
        cross = 0.5 * ((1.0 - hi) * (1.0 + lo) + (1.0 + hi) * (1.0 - lo))
        values = math.pi * radius ** 3 * (hi - lo) * (ww_hi + ww_lo + cross) / 3.0
    elif i == 2:
        values = math.pi * radius ** 2 * ((hi - lo) + (ww_hi + ww_lo) / 2.0)
    else:
        values = radius * (2.0 * (hi - lo) + np.sqrt(ww_hi) * np.arccos(hi)
                           + np.sqrt(ww_lo) * np.arccos(-lo))
    return values, np.zeros(len(values)), "exact-ball"


# ---------------------------------------------------------------------------
# sections and projections of a body of revolution, from its profile
#
# K = {(x', x_n) : |x'| <= f(x_n)}.  For an n x k basis B, let b = B^T e_n,
# c = |b| and sigma = |e_n - B b|, so c^2 + sigma^2 = 1.  Where c > 0, both
# K cap span(B) and K|span(B) are bodies of revolution in span(B) about the
# unit axis a = b / c (Schneider, Convex Bodies, section 4.2).  Where c = 0
# both are k-balls, of radius f(0) and max f.
#
# So is a section of a translate K - s.  With s_perp = s - B B^T s, the
# section moved by B^T s is {x : B x + s_perp in K}.  At x = tau a + y,
# y normal to a, the point p = B x + s_perp has p_n = z0 + c tau, z0 =
# (s_perp)_n, and |p'|^2 = |x|^2 + |s_perp|^2 - p_n^2, so x lies in it iff
# |y|^2 <= g(tau)^2 = f(z0 + c tau)^2 - sigma^2 tau^2 + q0 + 2 z0 c tau with
# q0 = z0^2 - |s_perp|^2; where c = 0 it is a k-ball of radius^2
# f(z0)^2 + q0.  K - s projects as K does, moved.


@cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1]: PROFILE_NODES of them,
    then half as many, concatenated.  Computed on first use, since
    leggauss(256) takes about 10 ms, and kept read-only."""
    rules = [np.polynomial.legendre.leggauss(n) for n in (PROFILE_NODES, PROFILE_NODES // 2)]
    x, w = (np.concatenate(parts) for parts in zip(*rules))
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _profile_integrals(lo, hi, breaks, integrand) -> tuple[np.ndarray, np.ndarray]:
    """(full, half): the integral of integrand over [lo_r, hi_r] for each row
    r, by Gauss-Legendre with PROFILE_NODES and with half as many nodes per
    piece.

    The substitution x = mid - half cos(theta), theta in [0, pi], has
    dx = half sin(theta) dtheta, which makes the square-root ends of a
    profile analytic.  The theta pieces end where x crosses a break, where
    the integrand is not analytic: breaks is (B,), or (R, B) per row.  A
    break outside [lo_r, hi_r] leaves a piece of width 0, whose nodes sit
    at an end with weight 0.  integrand maps the (R, M) nodes to values;
    every sum is taken per row.
    """
    rows = len(lo)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    cuts = np.sort(np.arccos(np.clip((mid[:, None] - breaks) / half[:, None], -1.0, 1.0)),
                   axis=1)
    edges = np.concatenate([np.zeros((rows, 1)), cuts, np.full((rows, 1), np.pi)], axis=1)
    a, b = edges[:, :-1, None], edges[:, 1:, None]
    x, w = _gauss_legendre()
    theta = 0.5 * (a + b) + 0.5 * (b - a) * x                 # (R, pieces, M)
    weights = 0.5 * (b - a) * w * np.sin(theta) * half[:, None, None]
    nodes = mid[:, None, None] - half[:, None, None] * np.cos(theta)
    terms = integrand(nodes.reshape(rows, -1)).reshape(theta.shape) * weights
    n = PROFILE_NODES
    return terms[:, :, :n].sum(axis=2).sum(axis=1), terms[:, :, n:].sum(axis=2).sum(axis=1)


def _axis_cosines(bases: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(b, c, sigma) for the (S, n, k) stack bases: b_j = B_j^T e_n,
    c_j = |b_j| and sigma_j = |e_n - B_j b_j|, each sum taken per row."""
    b = bases[:, -1, :]
    c = np.sqrt((b * b).sum(axis=1))
    rest = -(bases * b[:, None, :]).sum(axis=2)
    rest[:, -1] += 1.0
    return b, c, np.sqrt((rest * rest).sum(axis=1))


def _in_chunks(fn, bases: np.ndarray, *args, method: str = "quadrature") -> Rows:
    """(values, stderrs, method): the values and stderrs that fn(chunk, *args)
    gives PROFILE_CHUNK bases (or rows) at a time, each concatenated over
    the chunks in order."""
    chunks = [fn(bases[lo:lo + PROFILE_CHUNK], *args)
              for lo in range(0, len(bases), PROFILE_CHUNK)] or [(np.empty(0), np.empty(0))]
    values, errs = (np.concatenate(col) for col in zip(*chunks))
    return values, errs, method


def revolution_section_volumes(body, bases: np.ndarray, i: int) -> Rows:
    """(V_i, stderrs, "quadrature") of body cap span(B_j) for every n x k basis
    B_j, k >= 2, of the stack bases, where body is a body of revolution
    (body.revolution) or a translate K - s of one; stderr is |Q(N) - Q(N/2)|.

    The section has the profile g above (z0 = q0 = 0 without a translate).
    A body of revolution's ends are rho(-Ba) and rho(Ba), from one radial
    call per chunk; a translate's are the roots of g^2 from one
    _safeguarded_newton call per chunk (_section_ends).  With
    w = (1 + g'^2)^(-1/2), the Steiner expansion of its meridian gives
    V_i = kappa_{k-1} / kappa_{k-i} * [C(k-1, k-i) int g^(i-1) w^(k-i) ds
          + C(k-1, k-i-1) int g^i w^(k-i-1) |g''| w^3 ds].
    Each sample gets the value it gets alone.
    """
    return _in_chunks(_section_chunk, bases, body, i)


def _section_chunk(bases, body, i):
    base, shift = body.translate or (body, np.zeros(body.dim))
    spec, k = base.revolution, bases.shape[2]
    b, c, sigma = _axis_cosines(bases)
    along = (bases * shift[:, None]).sum(axis=1)                    # B^T s
    off = shift - (bases * along[:, None, :]).sum(axis=2)           # s_perp
    z0, q0 = off[:, -1], -(off[:, :-1] * off[:, :-1]).sum(axis=1)   # q0 = z0^2 - |s_perp|^2
    value, err = np.empty(len(bases)), np.zeros(len(bases))
    flat = c < AXIS_FLOOR
    radius = np.sqrt(_profile_terms(spec, z0[flat], 0)[0] ** 2 + q0[flat])
    value[flat] = radius ** i * ball_intrinsic_volume(k, i)
    live = ~flat
    if not live.any():
        return value, err
    c, ss = c[live, None], sigma[live, None] ** 2
    z0, q0 = z0[live, None], q0[live, None]
    axis = (bases[live] * (b[live] / c)[:, None, :]).sum(axis=2)   # B a, a unit vector
    if body.translate is None:
        ends = np.asarray(body.radial(np.concatenate([axis, -axis])), dtype=float)
        lo, hi = -ends[len(axis):], ends[:len(axis)]
    else:
        lo, hi = _section_ends(spec, (axis * shift).sum(axis=1), c, ss, z0, q0)

    def integrand(s):
        terms, gg, d1 = _section_square(spec, s, c, ss, z0, q0, 0 if i == k else 2)
        gg = np.maximum(gg, 0.0)
        g = np.sqrt(gg)
        if i == k:
            return g ** (k - 1)
        _, df, d2f = terms
        d2 = 2.0 * (c * c * (df * df + terms[0] * d2f) - ss)         # (g^2)''
        # 4 g^2 + (g^2)'^2 vanishes only where g and g' both do (a pole of
        # a section through the axis); the floor keeps w and |g''| w^3 at 0 there
        den = np.maximum(4.0 * gg + d1 * d1, 1e-200)
        w = 2.0 * g / np.sqrt(den)
        curv = 2.0 * np.abs(2.0 * gg * d2 - d1 * d1) / den ** 1.5      # |g''| w^3
        return (math.comb(k - 1, k - i) * g ** (i - 1) * w ** (k - i)
                + math.comb(k - 1, k - i - 1) * g ** i * w ** (k - i - 1) * curv)

    breaks = (np.asarray(spec.bump_edges()) - z0) / c
    full, half = _profile_integrals(lo, hi, breaks, integrand)
    scale = kappa(k - 1) / kappa(k - i)
    value[live], err[live] = scale * full, scale * np.abs(full - half)
    return value, err


def _section_square(spec, s, c, ss, z0, q0, order):
    """([f, f', f''][:order + 1] at z0 + c s, g^2, (g^2)' if order >= 1) at s.
    Each term with z0 = 0 or q0 = -0 adds a zero: g^2 keeps the bits of
    f^2 - sigma^2 s^2 without a translate."""
    terms = _profile_terms(spec, z0 + c * s, order)
    gg = terms[0] * terms[0] - ss * s * s + q0 + 2.0 * z0 * c * s
    if order == 0:
        return terms, gg, None
    return terms, gg, 2.0 * (c * terms[0] * terms[1] - ss * s) + 2.0 * z0 * c


def _section_ends(spec, mid, c, ss, z0, q0) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi): the roots of g^2 below and above mid = <s, Ba>, the axis
    coordinate of the interior point B^T s, for the (R, 1) columns of
    _section_chunk.  The parent lies within 2 of the origin, so [-2, mid]
    and [mid, 2] bracket them; the unit ball's roots +-sqrt(1 - |s_perp|^2)
    are the first guesses."""
    rows = len(mid)
    side = np.repeat([-1.0, 1.0], rows)    # -1: the root below mid; +1: above it
    at = np.concatenate([mid, mid])
    lo, hi = np.where(side > 0.0, at, -2.0), np.where(side > 0.0, 2.0, at)
    c, ss, z0, q0 = (np.concatenate([a[:, 0], a[:, 0]]) for a in (c, ss, z0, q0))
    guess = np.clip(side * np.sqrt(np.maximum(1.0 - z0 * z0 + q0, 0.0)), lo, hi)

    def signed(s, side, c, ss, z0, q0):
        # g^2 for the root below mid, -g^2 for the one above: negative below it
        _, gg, d1 = _section_square(spec, s, c, ss, z0, q0, 1)
        return side * -gg, side * -d1

    ends = _safeguarded_newton(signed, guess, lo, hi, side, c, ss, z0, q0, steps=RIM_STEPS)
    return ends[:rows], ends[rows:]


def revolution_projection_volumes(spec, bases: np.ndarray) -> Rows:
    """(vol_k, stderrs, "quadrature") of the body of spec projected on span(V_j)
    for every n x k basis V_j, k >= 2, of the stack bases; stderr is
    |Q(N) - Q(N/2)|.

    The projection's meridian is x(t) = ct - sigma^2 f f'/c,
    y(t) = f sqrt(1 - sigma^2 f'^2 / c^2) for t in [t-, t+], where
    f'(t+-) = -+c/sigma: the support maximisers of the body at +-Ba, from
    one revolution_maximiser call per chunk.  So
    vol_k = kappa_{k-1} int y^(k-1) |x'| dt, x' = c - sigma^2 (f'^2 + f f'')/c.
    Each sample gets the value it gets alone.
    """
    return _in_chunks(_projection_chunk, bases, spec)


def _projection_chunk(bases, spec):
    k, rows = bases.shape[2], len(bases)
    _, c, sigma = _axis_cosines(bases)
    ends = revolution_maximiser(spec, np.concatenate([sigma, sigma]), np.concatenate([c, -c]))
    lo, hi = ends[rows:], ends[:rows]
    value, err = np.empty(rows), np.zeros(rows)
    flat = c < AXIS_FLOOR
    # there both ends are the maximiser of f
    value[flat] = kappa(k) * profile(spec, hi[flat]) ** k
    live = ~flat
    if not live.any():
        return value, err
    c, ss = c[live, None], sigma[live, None] ** 2

    def integrand(t):
        f, df, d2f = _profile_terms(spec, t, 2)
        y = f * np.sqrt(np.maximum(1.0 - ss * df * df / (c * c), 0.0))
        return y ** (k - 1) * np.abs(c - ss * (df * df + f * d2f) / c)

    full, half = _profile_integrals(lo[live], hi[live], np.array(spec.bump_edges()), integrand)
    value[live], err[live] = kappa(k - 1) * full, kappa(k - 1) * np.abs(full - half)
    return value, err


# ---------------------------------------------------------------------------
# slabs of a body of revolution, from their rims
#
# The support of K cap S(xi, t), S(xi, t) = {|<x, xi>| <= t}, is the
# infimal convolution of h_K and t|<., xi>| (Rockafellar, Convex Analysis,
# Cor. 16.4.1), and so is that of K clipped to low <= <x, xi> <= high,
# with h(lambda xi) = max(high lambda, low lambda) for the slab.  Only
# <x, xi> and <x, u> matter, so the maximiser of <u, x> over K cap S solves
# a planar problem on the projection of K onto span(u_perp, xi), and one
# angle of a support direction in that plane locates it on the slab rim.


def _support_points(spec, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x_K(w_r), h_K(w_r)) for each row w_r of w: the support point
    (f(t*) w'/|w'|, t*) at the maximiser t* of revolution_maximiser, and the
    support value as revolution_support gives it."""
    xn = w[:, -1]
    xp = np.linalg.norm(w[:, :-1], axis=1)
    t = revolution_maximiser(spec, xp, xn)
    f = _profile_terms(spec, t, 0)[0]
    scale = np.divide(f, xp, out=np.zeros_like(f), where=xp > 0.0)
    points = np.column_stack([w[:, :-1] * scale[:, None], t])
    return points, np.maximum(xp * f + xn * t, np.abs(xn))


def _slab_support_points(spec, xis: np.ndarray, lows: np.ndarray, highs: np.ndarray,
                         dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(h, p, rim) for the rows (xi_r, low_r, high_r, u_r): h_r is the
    support of K cap {low_r <= <x, xi_r> <= high_r} at u_r, p_r a point of
    that body with <p_r, u_r> = h_r, and rim marks the rows where p_r sits
    on a slab rim.  The slab must meet the interior of K; S(xi, t) has the
    levels (-t, t).

    Where low <= <x_K(u), xi> <= high the support point of K lies in the
    slab, and h = h_K(u).  Otherwise let s = +1 and c = high where it lies
    above, s = -1 and c = -low where below, u = beta xi + alpha e with e a
    unit vector normal to xi, and w(phi) = cos(phi) e + s sin(phi) xi.
    g(phi) = s <x_K(w(phi)), xi> - c increases from g(-pi/2) < 0 to
    g(atan2(|beta|, alpha)) > 0, and its root phi* gives the rim point
    p = x_K(w(phi*)), the point of K on s <x, xi> = c furthest along e.  So
    h = s c beta + alpha <p, e>.  The bracketed secant of _safeguarded_newton
    finds phi* from the unit ball's root asin(c), clipped to [-pi/2, pi/2].
    Every product is taken per row, so each row gets the value it gets
    alone.
    """
    p, h = _support_points(spec, dirs)
    beta = (dirs * xis).sum(axis=1)
    level = (p * xis).sum(axis=1)
    above = level > highs
    rim = above | (level < lows)
    if not rim.any():
        return h, p, rim
    u, xi, b, above = dirs[rim], xis[rim], beta[rim], above[rim]
    c = np.where(above, highs[rim], -lows[rim])
    sxi = np.where(above, 1.0, -1.0)[:, None] * xi
    e = u - b[:, None] * xi
    alpha = np.linalg.norm(e, axis=1)
    # u = +-xi has no normal part of its own; any unit normal to xi serves
    pad = np.eye(xi.shape[1])[np.argmin(np.abs(xi), axis=1)]
    pad -= (pad * xi).sum(axis=1)[:, None] * xi
    e = np.where(alpha[:, None] > 0.0, e, pad)
    e /= np.linalg.norm(e, axis=1, keepdims=True)

    def toward(phi, e, sxi):
        return np.cos(phi)[:, None] * e + np.sin(phi)[:, None] * sxi

    def excess(phi, e, sxi, c):
        g = (_support_points(spec, toward(phi, e, sxi))[0] * sxi).sum(axis=1) - c
        # rounding leaves g a few ulps of noise at the root, where a secant
        # slope is noise too: a row within RIM_LEVEL_TOL takes this phi
        return np.where(np.abs(g) <= RIM_LEVEL_TOL, 0.0, g), None

    lo, hi = np.full_like(c, -0.5 * np.pi), np.arctan2(np.abs(b), alpha)
    guess = np.minimum(np.arcsin(np.clip(c, -1.0, 1.0)), hi)
    phi = _safeguarded_newton(excess, guess, lo, hi, e, sxi, c,
                              prev=(lo, -1.0 - c), steps=RIM_STEPS)
    q = _support_points(spec, toward(phi, e, sxi))[0]
    p[rim] = q
    h[rim] = (sxi * u).sum(axis=1) * c + alpha * (q * e).sum(axis=1)
    return h, p, rim


def revolution_slab_supports(spec, xis: np.ndarray, lows: np.ndarray, highs: np.ndarray,
                             dirs: np.ndarray) -> np.ndarray:
    """The support at u_r of the body of spec clipped to the slab
    low_r <= <x, xi_r> <= high_r, for each row: xis and dirs are (R, n)
    stacks, lows and highs have R entries.  See _slab_support_points."""
    return _slab_support_points(spec, xis, lows, highs, dirs)[0]


# ---------------------------------------------------------------------------
# slabs of a body of revolution, along its axis
#
# K = {(y, z) : |y| <= f(z)} in R^3, and the slab low <= <x, xi> <= high with
# xi = (s e, xi_n), s = |xi'|.  At height z the slab cuts the disc of radius
# r = f(z) to the strip a <= <y, e> <= b, a = (low - z xi_n) / s and
# b = (high - z xi_n) / s.  With v = b / r clipped to [-1, 1] (likewise v_a)
# and w = sqrt(1 - v^2), every V_i is one integral over z:
#   V_3 = int r^2 [G(v_b) - G(v_a)],  G(v) = v w + asin v  (the strip's area);
#   V_2 = int r sqrt(1 + f'^2) [asin v_b - asin v_a] + (r / s) (w_b + w_a),
#     half the lateral area and the two caps, whose chords 2 r w sweep area
#     dz / s;
#   V_1 = (1/pi) int (1 - r f'' / (1 + f'^2)) [asin v_b - asin v_a]
#                    + alpha_b rho_b + alpha_a rho_a,
#     the mean curvature H = (1/(r sqrt(1 + f'^2)) - f''/(1 + f'^2)^(3/2))/2
#     over the lateral part, (1/pi) int H dA, and the two rims: each height
#     holds two rim points, which sweep arc length rho dz,
#     rho = sqrt(w^2 + (s f' + v xi_n)^2) / (s w), at the exterior angle
#     alpha = arccos(+-<nu_K, xi>), <nu_K, xi> = (s v - f' xi_n) / sqrt(1 + f'^2)
#     (+ on the high rim, - on the low one); (1/2 pi) times the angle along
#     the rims (Schneider, Convex Bodies, section 4.2).
# The integrands kink where b or a crosses +-r: at the rim roots of
# phi(z) = s f(z) + sigma (z xi_n - level), sigma = +-1, which is concave, so
# it has at most one root on each side of its maximiser.  Each piece between
# the roots, the bump edges and the poles takes its own cosine map: with one
# shared map cut at the roots, the square-root ends of the integrand at a
# root are not analytic in theta.
#
# Near the axis (|xi_n| > s) a rim lies within O(s) of the height
# level / xi_n, and z - level / xi_n, not z, must carry its digits: there
# each level has its own coordinate zeta = z - level / xi_n, in which
# level - z xi_n = -zeta xi_n exactly, and a piece takes the coordinate of
# the level on its side of the midway height.  A normal xi = +-e_n takes
# s = AXIAL_FLOOR: the V_i are even in s, so that moves them by O(s^2).


def revolution_slab_volumes(spec, xis: np.ndarray, lows: np.ndarray, highs: np.ndarray,
                            i: int) -> Rows:
    """(V_i, stderrs, "axial-gl") of the 3-d body of spec clipped to the slab
    low_r <= <x, xi_r> <= high_r, for each unit row xi_r of xis; stderr is
    |Q(N) - Q(N/2)| of the Gauss-Legendre sums.  The slab must meet the
    interior of the body.  The rim roots of PROFILE_CHUNK slabs come from
    one revolution_maximiser call and one _safeguarded_newton call (V_1
    adds one for the rims' widest chords), and every sum is taken per row,
    so each slab gets the value it gets alone.
    """
    if spec.n != 3 or not 1 <= i <= 3:
        raise EstimateError(f"axial slab volumes handle V_1 to V_3 in R^3, got n={spec.n}, i={i}")
    rows = np.column_stack([xis, lows, highs])
    return _in_chunks(_axial_chunk, rows, spec, i, method="axial-gl")


def _rim_roots(spec, s, xn, levels, shift, anchor) -> np.ndarray:
    """The (m, 2 levels, 2 signs, 2 sides) roots of phi, each in its level's
    coordinate zeta = z - anchor: the root below the maximiser of
    s f(z) + sigma z xi_n (side 0) and above it (side 1).  A side where phi
    keeps its sign gets the end where phi is largest: the pole, or the
    maximiser where the level misses that side of K."""
    m = len(s)
    sig = np.array([1.0, -1.0])[None, None, :, None]
    left = np.array([True, False])[None, None, None, :]
    top = revolution_maximiser(spec, np.concatenate([s, s]), np.concatenate([xn, -xn]))
    top = top.reshape(2, m).T[:, None, :, None]                       # (m, 1, 2, 1)
    sc, xc = s[:, None, None, None], xn[:, None, None, None]
    lev = levels[:, :, None, None]
    pole = np.where(left, -1.0, 1.0)
    peak = sc * _profile_terms(spec, top, 0)[0] + sig * (xc * top - lev)
    z = np.where(peak <= 0.0, top, np.where(sig * (xc * pole - lev) >= 0.0, pole, np.nan))
    shape = z.shape
    za = np.broadcast_to(anchor[:, :, None, None], shape)
    root = z - za
    solve = np.isnan(root)
    if solve.any():
        pick = [np.broadcast_to(a, shape)[solve] for a in (
            sc, xc, sig, np.where(left, 1.0, -1.0), lev, lev - shift[:, :, None, None], top)]
        sr, xr, sg, sd, lv, d0, tr = pick
        za = za[solve]
        lo, hi = np.where(sd > 0.0, -1.0, tr) - za, np.where(sd > 0.0, tr, 1.0) - za
        # the unit sphere's crossings of the level, as a first guess
        guess = lv * xr - sd * sr * np.sqrt(np.maximum(1.0 - lv * lv, 0.0)) - za

        def signed_phi(zeta, za, d0, sg, sd, s, xn):
            f, df = _profile_terms(spec, za + zeta, 1)
            phi = s * f + sg * (xn * zeta - d0)
            # rounding leaves phi a few ulps of noise at the root: a row
            # within RIM_LEVEL_TOL of its level takes this zeta
            phi = np.where(np.abs(phi) <= RIM_LEVEL_TOL * (s + np.abs(d0)), 0.0, phi)
            return sd * phi, sd * (s * df + sg * xn)

        root[solve] = _safeguarded_newton(signed_phi, np.clip(guess, lo, hi), lo, hi,
                                          za, d0, sg, sd, sr, xr, steps=RIM_STEPS)
    return root


def _strip(spec, z, d, s, xn, order):
    """Profile terms [f, f', f''][:order + 1] at heights z, and v = d / (s f)
    clipped to [-1, 1] for each d of the sequence d."""
    terms = _profile_terms(spec, z, order)
    sr = s * terms[0]
    return terms, [np.clip(np.divide(e, sr, out=np.sign(e), where=sr > 0.0), -1.0, 1.0)
                   for e in d]


def _rim_angle(s, xn, v, terms, out):
    """(alpha, d alpha / dz) on a rim at v, out = +1 on the high rim and -1 on
    the low one: alpha = arccos(out <nu_K, xi>) is the exterior angle there,
    and d/dz follows the rim, on which v' = -(xi_n + s v f') / (s f)."""
    r, df = terms[0], terms[1]
    q = np.sqrt(1.0 + df * df)
    c = np.clip(out * (s * v - df * xn) / q, -1.0, 1.0)
    if len(terms) < 3:
        return np.arccos(c), None
    sr = s * r
    dv = np.divide(-(xn + s * v * df), sr, out=np.zeros_like(sr), where=sr > 0.0)
    dc = out * ((s * dv - terms[2] * xn) / q - (s * v - df * xn) * df * terms[2] / q ** 3)
    sine = np.sqrt((1.0 - c) * (1.0 + c))
    return np.arccos(c), np.divide(-dc, sine, out=np.zeros_like(sine), where=sine > 0.0)


def _rim_peaks(spec, s, xn, d0, anchor, lower, upper) -> tuple[np.ndarray, np.ndarray]:
    """(zeta_m, 2 alpha W at zeta_m) for each (m, 2) rim over [lower, upper]:
    zeta_m is the height of its widest chord 2 W, where W' = g / (s w),
    g = s f' + v xi_n, falls through 0.  The chord length of a convex cap is
    concave in z, so g has one root there.  An empty rim (lower >= upper)
    gets lower and 0."""
    peak, term = lower.copy(), np.zeros_like(lower)
    live = lower < upper
    if not live.any():
        return peak, term
    sl = np.broadcast_to(s[:, None], lower.shape)[live]
    xl = np.broadcast_to(xn[:, None], lower.shape)[live]
    za, dl, lo, hi = anchor[live], d0[live], lower[live], upper[live]

    def falling(zeta, za, d0, s, xn):
        terms, (v,) = _strip(spec, za + zeta, [d0 - xn * zeta], s, xn, 2)
        _, df, d2f = terms
        g = s * df + v * xn
        g = np.where(np.abs(g) <= RIM_LEVEL_TOL * (1.0 + s * np.abs(df)), 0.0, g)
        dv = np.divide(-(xn + s * v * df), s * terms[0], out=np.zeros_like(v),
                       where=terms[0] > 0.0)
        return -g, -(s * d2f + xn * dv)

    zeta = _safeguarded_newton(falling, 0.5 * (lo + hi), lo, hi, za, dl, sl, xl,
                               steps=RIM_STEPS)
    terms, (v,) = _strip(spec, za + zeta, [dl - xl * zeta], sl, xl, 1)
    peak[live] = zeta
    out = np.broadcast_to(np.array([-1.0, 1.0]), lower.shape)[live]
    w = np.sqrt((1.0 - v) * (1.0 + v))
    term[live] = 2.0 * _rim_angle(sl, xl, v, terms, out)[0] * terms[0] * w
    return peak, term


def _axial_chunk(rows, spec, i):
    m = len(rows)
    xn = rows[:, 2]
    s = np.maximum(np.sqrt(rows[:, 0] * rows[:, 0] + rows[:, 1] * rows[:, 1]), AXIAL_FLOOR)
    levels = rows[:, 3:5]
    near = (np.abs(xn) > s)[:, None]
    shift = np.where(near, levels, 0.0)
    anchor = np.divide(shift, xn[:, None], out=np.zeros_like(shift), where=near)
    roots = _rim_roots(spec, s, xn, levels, shift, anchor)             # (m, 2, 2, 2)
    # each rim spans {phi_+ >= 0} cap {phi_- >= 0}
    lower, upper = roots[..., 0].max(axis=2), roots[..., 1].min(axis=2)
    if i == 1:
        peaks, widest = _rim_peaks(spec, s, xn, levels - shift, anchor, lower, upper)
    else:
        peaks, widest = 1.0 - anchor, np.zeros((m, 2))
    own = np.concatenate([roots.reshape(m, 2, 4), peaks[:, :, None]], axis=2)  # (m, 2, 5)

    # every break in both levels' coordinates: each level's roots and peak,
    # the poles, the bump edges and the midway height (a pole where the
    # levels share one coordinate)
    other = (shift - shift[:, ::-1]) / np.where(near, xn[:, None], 1.0)  # anchor_P - anchor_Q
    fixed = np.array([-1.0, 1.0, *spec.bump_edges()])
    midway = np.where(near[:, 0], 0.5 * (anchor[:, 0] + anchor[:, 1]), 1.0)
    # a rim root at a distance gap from a pole leaves the pole's square-root
    # end just beyond its piece: cut the pieces before it at gap * 32^k from
    # the pole, out to GRADE_SPAN
    zr = (roots + anchor[:, :, None, None]).reshape(m, 8)
    grades = []
    for pole in (1.0, -1.0):
        gap = np.min(np.where(np.abs(zr) < 1.0, 1.0 - pole * zr, 1.0), axis=1)[:, None]
        span = gap * GRADE_RATIO ** np.arange(1, GRADES + 1)
        grades.append(np.where(span < GRADE_SPAN, pole * (1.0 - span), pole))
    plain = np.concatenate([np.broadcast_to(fixed, (m, len(fixed))), midway[:, None], *grades],
                           axis=1)
    zeta = np.concatenate([
        np.stack([own[:, 0], own[:, 0] + other[:, :1]], axis=1),
        np.stack([own[:, 1] + other[:, 1:], own[:, 1]], axis=1),
        plain[:, None, :] - anchor[:, :, None]], axis=2)                # (m, 2, B)
    z = np.concatenate([own[:, 0] + anchor[:, :1], own[:, 1] + anchor[:, 1:], plain], axis=1)
    below = (anchor[:, 1] < anchor[:, 0]).astype(int)[:, None]          # the lower anchor
    side = np.where(z < midway[:, None], below, 1 - below)
    key = np.take_along_axis(zeta, side[:, None, :], axis=1)[:, 0]
    order = np.lexsort((key, z), axis=-1)
    z = np.take_along_axis(z, order, axis=1)
    zeta = np.take_along_axis(zeta, order[:, None, :], axis=2)
    owner = np.where(0.5 * (z[:, :-1] + z[:, 1:]) < midway[:, None], below, 1 - below)
    lo = np.take_along_axis(zeta[:, :, :-1], owner[:, None, :], axis=1)[:, 0]
    hi = np.take_along_axis(zeta[:, :, 1:], owner[:, None, :], axis=1)[:, 0]
    za = np.take_along_axis(anchor, owner, axis=1)
    d_lo = levels[:, :1] - np.take_along_axis(shift, owner, axis=1)     # low - xi_n z at zeta = 0
    d_hi = levels[:, 1:] - np.take_along_axis(shift, owner, axis=1)
    # -1 on the pieces below a rim's widest chord, +1 above it
    k = np.arange(lo.shape[1])
    sg_lo, sg_hi = (np.where(k < np.argmax(order == 5 * p + 4, axis=1)[:, None], -1.0, 1.0)
                    for p in (0, 1))

    # a piece the slab misses (its midpoint lies wholly above or below it) adds 0
    sn, xs = np.broadcast_to(s[:, None], lo.shape), np.broadcast_to(xn[:, None], lo.shape)
    mid = 0.5 * (lo + hi)
    reach = sn * _profile_terms(spec, za + mid, 0)[0]
    live = (hi > lo) & (d_lo - xs * mid < reach) & (d_hi - xs * mid > -reach)
    par = [a[live][:, None] for a in (za, d_lo, d_hi, sn, xs, sg_lo, sg_hi)]

    def integrand(zeta):
        za, d_lo, d_hi, s, xn, sg_lo, sg_hi = par
        terms, (v_a, v_b) = _strip(spec, za + zeta, [d_lo - xn * zeta, d_hi - xn * zeta],
                                   s, xn, 0 if i == 3 else 3 - i)
        r = terms[0]
        w_a, w_b = (np.sqrt((1.0 - v) * (1.0 + v)) for v in (v_a, v_b))
        # a thin strip would cancel in v_b - v_a: where neither end is
        # clipped, take it from the levels, and asin v_b - asin v_a and
        # v_b w_b - v_a w_a from it, with w_a - w_b = gap (v_a + v_b) / (w_a + w_b)
        sr = s * r
        gap = np.divide(d_hi - d_lo, sr, out=np.zeros_like(sr), where=sr > 0.0)
        gap = np.where((np.abs(v_a) < 1.0) & (np.abs(v_b) < 1.0), gap, v_b - v_a)
        both = w_a + w_b
        lean = np.divide(v_a * (v_a + v_b), both, out=np.zeros_like(both), where=both > 0.0)
        arc = np.arctan2(gap * (w_a + lean), w_a * w_b + v_a * v_b)
        if i == 3:
            return r * r * (gap * (w_b - lean) + arc)
        df = terms[1]
        if i == 2:
            return np.sqrt(r * r + (r * df) ** 2) * arc + r / s * (w_a + w_b)
        # each rim: alpha times its arc length rho = sqrt(1/s^2 + W'^2) with
        # W = r w, as alpha (rho - |W'|), which ends like a square root, and
        # alpha |W'| by parts: 2 alpha W at the widest chord (_rim_peaks)
        # plus the integral of -+alpha' W below and above it
        rims = 0.0
        for v, w, out, sg in ((v_b, w_b, 1.0, sg_hi), (v_a, w_a, -1.0, sg_lo)):
            g = s * df + v * xn
            alpha, dalpha = _rim_angle(s, xn, v, terms, out)
            size = s * (np.sqrt(w * w + g * g) + np.abs(g))
            rest = np.divide(w, size, out=np.zeros_like(w), where=size > 0.0)
            rims = rims + alpha * rest + sg * dalpha * r * w
        return (1.0 - r * terms[2] / (1.0 + df * df)) * arc + rims

    full, half = np.zeros(lo.shape), np.zeros(lo.shape)
    full[live], half[live] = _profile_integrals(lo[live], hi[live], np.empty(0), integrand)
    full, half = full.sum(axis=1), half.sum(axis=1)
    if i == 1:
        return (full + widest.sum(axis=1)) / math.pi, np.abs(full - half) / math.pi
    return full, np.abs(full - half)
