"""The two families of convex bodies and their numerical oracles.

Smooth family: bodies of revolution whose profile is a spherical cap plus
two compactly supported bumps.  The first bump is shared; the second sits
near one pole for variant K and is reflected to the other pole for
variant L.  Because the bump supports are disjoint and avoid the equator
and poles, swapping the profile argument's sign exchanges the two bodies
on the set where they differ.

Polytope family: a coordinate box with two corner cuts.  Variant K truncates
two adjacent vertices u, v by planes with normals xi, eta; variant L
truncates u and the antipode -v using xi, -eta at matching depths.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .grassmann import rowwise
from .polykernel import HPolytope, VRep, _vertex_candidates, polytope_radial

SMOOTH_EVAL_TOL = 1e-11
POLY_EVAL_TOL = 1e-12
_BUMP_SAFE = 1e-100  # below this distance^2 from the support edge, return 0


class BodyError(ValueError):
    """Raised for invalid body parameters or failed constructions."""


def _bump_terms(u: np.ndarray, order: int) -> list[np.ndarray]:
    """[b, b', b''][:order + 1] of the bump at 1-d points u, from one exp."""
    out = [np.zeros_like(u) for _ in range(order + 1)]
    s = 1.0 - u * u
    inner = s > _BUMP_SAFE
    if np.any(inner):
        ui, si = u[inner], s[inner]
        b = np.exp(-1.0 / si)
        out[0][inner] = b
        if order >= 1:
            w1 = -2.0 * ui / (si * si)
            out[1][inner] = b * w1
        if order == 2:
            w2 = -2.0 / (si * si) - 8.0 * ui * ui / (si ** 3)
            out[2][inner] = b * (w2 + w1 * w1)
    return out


def bump(u, order: int = 0):
    """C-infinity bump exp(-1/(1-u^2)) on |u|<1, zero outside; order <= 2."""
    if order not in (0, 1, 2):
        raise BodyError("bump supports derivative orders 0, 1, 2")
    scalar = np.asarray(u).ndim == 0
    out = _bump_terms(np.atleast_1d(np.asarray(u, dtype=float)), order)[order]
    return float(out[0]) if scalar else out


BUMP_PEAK = float(np.exp(-1.0))  # bump(0)


class ProfileValidation(NamedTuple):
    max_second_derivative: float
    min_profile: float
    ok: bool


@dataclass(frozen=True)
class RevolutionBodySpec:
    """Body of revolution {(x', x_n) : |x'| <= profile(x_n), |x_n| <= 1}."""

    n: int = 3
    epsilon: float = 1e-3
    delta: float = 0.1
    variant: str = "K"

    CENTER_SHARED = 1.0 / 3.0
    CENTER_VARIANT = 2.0 / 3.0

    def __post_init__(self):
        if self.n < 2:
            raise BodyError("ambient dimension must be at least 2")
        if not (0.0 < self.delta < 1.0 / 6.0):
            raise BodyError("delta must lie in (0, 1/6) so bump supports stay disjoint")
        if not math.isfinite(self.epsilon):
            raise BodyError("epsilon must be finite")
        if self.epsilon < 0.0:
            raise BodyError("epsilon must be nonnegative")
        if self.variant not in ("K", "L"):
            raise BodyError("variant must be 'K' or 'L'")

    def bump_edges(self) -> tuple[float, ...]:
        """The profile arguments where a bump of either variant starts or
        ends: the profile is smooth there but not analytic."""
        s, v, d = self.CENTER_SHARED, self.CENTER_VARIANT, self.delta
        return (s - d, s + d, v - d, v + d, -v - d, -v + d)

    def partner(self) -> "RevolutionBodySpec":
        other = "L" if self.variant == "K" else "K"
        return RevolutionBodySpec(self.n, self.epsilon, self.delta, other)

    def snapshot(self) -> dict:
        return {"type": "revolution", **dataclasses.asdict(self)}


# Profile derivatives are singular at t = +-1; evaluate them no closer than
# two ulps, where 1 - t*t is still positive.  A wider margin costs accuracy
# near the poles: at 1 - 1e-12, supports with |xi'| ~ 1e-6 came out 4e-13 low.
_T_CLIP = 1.0 - 2.0 ** -52


def _profile_terms(spec: RevolutionBodySpec, t: np.ndarray, order: int) -> list[np.ndarray]:
    """[f, f', f''][:order + 1] of the profile at 1-d points t, one exp per bump.

    f is extended by zero outside [-1, 1]; the derivatives, singular at the
    poles, are taken at t clipped to +-_T_CLIP.  delta < 1/6 keeps both bumps
    at 0 wherever either rule moves t, so they are evaluated at the clipped t.
    """
    tc = np.clip(t, -_T_CLIP, _T_CLIP)
    sign = 1.0 if spec.variant == "K" else -1.0
    b1 = _bump_terms((tc - spec.CENTER_SHARED) / spec.delta, order)
    b2 = _bump_terms((sign * tc - spec.CENTER_VARIANT) / spec.delta, order)
    caps = [np.sqrt(np.maximum(1.0 - t * t, 0.0))]
    if order >= 1:
        cap_s = 1.0 - tc * tc
        caps.append(-tc / np.sqrt(cap_s))
    if order == 2:
        caps.append(-cap_s ** (-1.5))
    return [cap + spec.epsilon / spec.delta ** o * (b1[o] + sign ** o * b2[o])
            for o, cap in enumerate(caps)]


def profile(spec: RevolutionBodySpec, t, order: int = 0):
    """Profile function of the body of revolution, with derivatives.

    Derivatives of the spherical cap blow up at the endpoints: order >= 1 is
    rejected at |t| = 1 and taken at +-_T_CLIP closer to it.
    """
    if order not in (0, 1, 2):
        raise BodyError("profile supports derivative orders 0, 1, 2")
    arr = np.asarray(t, dtype=float)
    if np.any(np.abs(arr) > 1.0):
        raise BodyError("profile argument must lie in [-1, 1]")
    if order >= 1 and np.any(np.abs(arr) >= 1.0):
        raise BodyError("profile derivative is singular at the endpoints t = +-1")
    out = _profile_terms(spec, np.atleast_1d(arr), order)[order]
    return out if arr.ndim else float(out[0])


@functools.lru_cache(maxsize=32)
def validate_revolution_spec(spec: RevolutionBodySpec) -> ProfileValidation:
    """Concavity and positivity of the profile on 100,000 interior points,
    computed once per distinct spec in a process."""
    ts = np.linspace(-1.0 + 1e-6, 1.0 - 1e-6, 100_000)
    values, _, second = _profile_terms(spec, ts, 2)
    max2 = float(second.max())
    minv = float(values.min())
    return ProfileValidation(max2, minv, ok=(max2 <= 0.0 and minv > 0.0))


def make_revolution_spec(n: int = 3, epsilon: float = 1e-3, delta: float = 0.1,
                         variant: str = "K") -> RevolutionBodySpec:
    """Build a spec, halving epsilon until the profile is concave and positive."""
    eps = float(epsilon)
    for _ in range(41):
        spec = RevolutionBodySpec(n, eps, delta, variant)
        if validate_revolution_spec(spec).ok:
            return spec
        eps *= 0.5
    raise BodyError(f"no valid epsilon found below {epsilon} for delta={delta}")


_NEWTON_STEPS = 8
# Newton steps at most this long (every argument solved for here is O(1))
# are rounding noise near the root: rtsafe's guard lets them through
NEWTON_NOISE = 2.0 ** -46
MAXIMISER_STEPS = 12  # room for a guarded bisection and the Newton steps after it


def _safeguarded_newton(fun, x, lo, hi, *args, prev=None,
                        steps=_NEWTON_STEPS) -> np.ndarray:
    """Elementwise root on brackets [lo, hi] of functions that are negative
    below their one root there and positive above it.

    fun(x, *args) returns (value, slope); args are per-row arrays.  Each
    step moves one bracket end to x by the sign of the value, then takes
    the Newton step, or bisects when that step is not finite, leaves the
    bracket, or is more than half the step before last, |2 g| > |dx_old g'|
    (rtsafe, Numerical Recipes 9.4), so that a step from a tiny slope that
    lands near a pole does not leave the row to crawl back.  That guard
    spares steps no longer than NEWTON_NOISE: in the last ulps the steps
    stop halving, and a bisection there would throw a row that came from
    one side back to the middle of its first bracket.  A step landing on
    the bracket is kept, since a root can sit exactly on it.

    A fun that returns (value, None) gets the secant slope through its last
    two iterates instead, the first of them prev = (x, value) per row
    (Numerical Recipes 9.2).  Its hi may be inf: while it is, the fallback
    step doubles lo instead of bisecting, so the bracket grows until it
    closes.

    A row stops once a step leaves its x unchanged, and returns that x.  For
    Newton this is a fixed point: the next step would see the same x, hence
    the same value and slope, would move a bracket end already at x, and
    would take the same step again (rtsafe's guard passes a step that short,
    and a bisection that lands on x had a bracket too narrow for any longer
    step); so a stopped row holds the value that all `steps` steps give.  For the secant, the correction has rounded to
    zero or the bracket has shrunk to x and its neighbour.  Rows that never
    settle (last-ulp oscillation, NaN) run every step.  The rule looks at
    each row alone, so a row's result does not depend on the batch it
    arrives in.  fun sees only the rows still moving.
    """
    out = np.empty_like(x)
    live = np.arange(x.size)
    xp, gp = prev if prev is not None else (None, None)
    dx = dx_old = hi - lo  # the last two steps, as rtsafe starts them
    for _ in range(steps):
        g, dg = fun(x, *args)
        secant = dg is None
        if secant:
            with np.errstate(divide="ignore", invalid="ignore"):
                dg = (g - gp) / (x - xp)
            xp, gp = x, g
        below = g < 0.0
        lo = np.where(below, x, lo)
        hi = np.where(below, hi, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = x - g / dg
        ok = np.isfinite(step) & (step >= lo) & (step <= hi)
        if not secant:
            size = np.abs(dg)
            ok &= (np.abs(2.0 * g) <= np.abs(dx_old) * size) | (np.abs(g) <= NEWTON_NOISE * size)
        fallback = 0.5 * (lo + hi)
        if secant:
            fallback = np.where(np.isinf(hi), 2.0 * lo, fallback)
        new = np.where(ok, step, fallback)
        moving = new != x  # NaN rows keep moving
        dx_old, dx = dx, new - x
        x = new
        if not moving.all():
            out[live[~moving]] = x[~moving]
            live, x, lo, hi = live[moving], x[moving], lo[moving], hi[moving]
            dx, dx_old = dx[moving], dx_old[moving]
            if secant:
                xp, gp = xp[moving], gp[moving]
            args = tuple(a[moving] for a in args)
            if not live.size:
                break
    out[live] = x
    return out


@rowwise
def revolution_radial(spec: RevolutionBodySpec, dirs) -> np.ndarray | float:
    """Radial function along unit directions, by safeguarded Newton on each ray.

    Along theta = (theta', theta_n) the boundary crossing solves
    g(r) = r*|theta'| - profile(r*theta_n) = 0.  g is convex (the profile is
    concave) and negative at 0, and the bracket [0, min(1/|theta_n|, 1+eps)]
    always contains its root.  Newton starts from the unit-sphere root r = 1,
    which is exact for rays that miss both bumps: about 70% of those stop
    after the first step (random directions of the default n = 3 body).
    A direction with a NaN coordinate gets NaN.
    """
    tn = dirs[:, -1]
    tp = np.linalg.norm(dirs[:, :-1], axis=1)
    nan_row = np.isnan(tp) | np.isnan(tn)
    r = np.where(nan_row, np.nan, 1.0)
    off_axis = (tp > 1e-15) & ~nan_row
    if np.any(off_axis):
        tni, tpi = tn[off_axis], tp[off_axis]
        with np.errstate(divide="ignore"):
            hi = np.minimum(np.where(np.abs(tni) > 0, 1.0 / np.abs(tni), np.inf),
                            1.0 + max(spec.epsilon, 1e-8))

        def gap(rr, tni, tpi):
            f, df = _profile_terms(spec, rr * tni, 1)
            return rr * tpi - f, tpi - tni * df

        r[off_axis] = _safeguarded_newton(gap, np.minimum(1.0, hi),
                                          np.zeros_like(hi), hi, tni, tpi)
    return r


def revolution_maximiser(spec: RevolutionBodySpec, xp: np.ndarray,
                         xn: np.ndarray) -> np.ndarray:
    """The profile argument t in [-1, 1] that maximises xp f(t) + xn t, for
    each row of the 1-d arrays xp >= 0 and xn.

    The objective is strictly concave for xp > 0 (f'' < 0), so its
    stationary point xp f'(t) + xn = 0 is found by safeguarded Newton,
    starting from the spherical cap's maximiser t = xn/|(xp, xn)|.  A row
    with xp = 0 stays at its pole t = sign(xn).  Each row's result does not
    depend on the batch it arrives in.
    """
    def falling_slope(t, xp, xn):
        _, df, d2f = _profile_terms(spec, t, 2)
        return -(xp * df + xn), -xp * d2f

    t0 = xn / np.maximum(np.hypot(xp, xn), 1e-300)
    return _safeguarded_newton(falling_slope, t0, np.full_like(xn, -1.0),
                               np.ones_like(xn), xp, xn, steps=MAXIMISER_STEPS)


@rowwise
def revolution_support(spec: RevolutionBodySpec, dirs) -> np.ndarray | float:
    """Support function h(xi) = max_t [ |xi'| f(t) + xi_n t ] over t in [-1, 1],
    at the maximiser of revolution_maximiser.  The endpoints t = +-1 are the
    poles, where f = 0, so they give |xi_n|.
    """
    xn = dirs[:, -1]
    xp = np.linalg.norm(dirs[:, :-1], axis=1)
    t = revolution_maximiser(spec, xp, xn)
    return np.maximum(xp * _profile_terms(spec, t, 0)[0] + xn * t, np.abs(xn))


@dataclass(frozen=True)
class PolytopeConstruction:
    """A verified corner-cut box pair together with its construction data."""

    a: np.ndarray
    u_signs: np.ndarray
    v_signs: np.ndarray
    lam: float
    body_K: HPolytope
    body_L: HPolytope

    def snapshot(self, variant: str) -> dict:
        return {
            "type": "polytope",
            "a": [float(x) for x in self.a],
            "u_signs": [int(s) for s in self.u_signs],
            "v_signs": [int(s) for s in self.v_signs],
            "lambda": float(self.lam),
            "variant": variant,
        }


def _cut_region_empty(box: HPolytope, n1, off1, n2, off2) -> bool:
    """True when {x in box : <n1,x> >= off1, <n2,x> >= off2} has no vertex.

    The flipped-constraint offsets are negative, so this region cannot be an
    HPolytope (no interior origin); the raw candidate scan is used instead.
    """
    normals = np.vstack([box.normals, -np.atleast_2d(n1), -np.atleast_2d(n2)])
    offsets = np.concatenate([box.offsets, [-off1, -off2]])
    verts, _ = _vertex_candidates(normals[None], offsets[None])[0]
    return verts.shape[0] == 0


def build_polytope_pair(a, u_signs, v_signs, lam: float | None = None) -> PolytopeConstruction:
    """Construct and verify the corner-cut box pair.

    Verification is by vertex enumeration: each cutting plane must strictly
    separate exactly one box vertex, and the two cut-off regions of each
    body must be disjoint.  On failure the error reports the largest
    admissible cut depth.  A pair is built and verified once per distinct
    (a, signs, cut depth) in a process; later calls return that construction,
    whose arrays are read-only.
    """
    a = np.asarray(a, dtype=float)
    n = a.size
    if not (2 <= n <= 4):
        raise BodyError("box dimension must be between 2 and 4")
    if not np.all(np.isfinite(a)):
        raise BodyError("box half-widths a must be finite")
    if np.any(a <= 0.0):
        raise BodyError("box half-widths must be positive")
    for i in range(n):
        for j in range(i + 1, n):
            if a[i] == a[j]:
                raise BodyError("box half-widths must be pairwise distinct")
    us = np.asarray(u_signs, dtype=float)
    vs = np.asarray(v_signs, dtype=float)
    if us.shape != (n,) or vs.shape != (n,) or np.any(np.abs(us) != 1.0) or np.any(np.abs(vs) != 1.0):
        raise BodyError("sign patterns must be +-1 vectors matching the box dimension")
    flips = int(np.sum(us != vs))
    if flips != 1:
        raise BodyError(f"vertices must be adjacent: sign patterns differ in {flips} positions")

    # by default, half the margin from the cut vertex to the next box vertex
    lam = float(a.min()) / math.sqrt(n) if lam is None else float(lam)
    if not math.isfinite(lam):
        raise BodyError("cut depth lambda must be finite")
    if lam <= 0.0:
        raise BodyError("cut depth must be positive")
    return _corner_cut_pair(tuple(a.tolist()), tuple(us.tolist()), tuple(vs.tolist()), lam)


@functools.lru_cache(maxsize=32)
def _corner_cut_pair(a: tuple, u_signs: tuple, v_signs: tuple, lam: float) -> PolytopeConstruction:
    """The verified pair of build_polytope_pair from its checked arguments."""
    a, us, vs = (np.array(x) for x in (a, u_signs, v_signs))
    n = a.size
    sqrt_n = math.sqrt(n)
    xi = us / sqrt_n
    eta = vs / sqrt_n
    top = float(np.sum(a)) / sqrt_n          # functional value at the cut vertex
    gap = 2.0 * float(a.min()) / sqrt_n      # margin to the next box vertex

    box = HPolytope.box(a)
    off_u = top - lam
    off_v = top - lam

    body_K = box.with_facets(np.vstack([xi, eta]), [off_u, off_v])
    body_L = box.with_facets(np.vstack([xi, -eta]), [off_u, off_v])

    # admissibility (reported on failure): single-vertex cuts need
    # lam < gap; disjoint cuts bound lam through the flipped coordinate
    p = int(np.flatnonzero(us != vs)[0])
    lam_max = min(gap, a[p] / sqrt_n, float(np.sum(a) - a[p]) / sqrt_n)

    corners = np.array(list(itertools.product(*[(-w, w) for w in a])))
    u_vertex = us * a
    v_vertex = vs * a
    for normal, offset, label in ((xi, off_u, "u"), (eta, off_v, "v"), (-eta, off_v, "-v")):
        beyond = np.sum(corners @ normal > offset + 1e-12)
        if beyond != 1:
            raise BodyError(
                f"cut at the {label} corner removes {beyond} box vertices; "
                f"largest admissible cut depth is {lam_max:.12g}")

    if not (_cut_region_empty(box, xi, off_u, eta, off_v)
            and _cut_region_empty(box, xi, off_u, -eta, off_v)):
        raise BodyError(
            f"cut regions overlap at depth {lam:.12g}; "
            f"largest admissible cut depth is {lam_max:.12g}")

    expected = 2 ** n - 2 + 2 * n
    for name, body in (("K", body_K), ("L", body_L)):
        vrep = body.vrep
        if vrep.num_vertices != expected:
            raise BodyError(
                f"body {name} has {vrep.num_vertices} vertices, expected {expected}; "
                f"largest admissible cut depth is {lam_max:.12g}")
        kept = {tuple(np.round(w, 9)) for w in vrep.vertices}
        removed = (u_vertex, v_vertex) if name == "K" else (u_vertex, -v_vertex)
        for w in removed:
            if tuple(np.round(w, 9)) in kept:
                raise BodyError(f"cut vertex survived in body {name}")

    arrays = (a, us.astype(int), vs.astype(int))
    for x in arrays:
        x.setflags(write=False)
    return PolytopeConstruction(*arrays, lam, body_K, body_L)


@dataclass(frozen=True)
class ConvexBodyOracle:
    """Uniform numerical interface to a convex body with interior origin.

    radial/support/member accept a single vector or a stack of row vectors
    and return matching scalars or 1-d arrays.  eval_tol bounds the error
    of radial and support on unit inputs.  A ball, centered or translated,
    records ball = (radius, center), which closed-form paths read.
    """

    dim: int
    radial: Callable[[np.ndarray], np.ndarray | float]
    support: Callable[[np.ndarray], np.ndarray | float]
    member: Callable[[np.ndarray], np.ndarray | bool]
    eval_tol: float
    kind: str
    revolution: RevolutionBodySpec | None = None
    polytope: HPolytope | None = None
    translate: tuple[ConvexBodyOracle, np.ndarray] | None = None  # (base, shift)
    ball: tuple[float, np.ndarray] | None = None  # (radius, center)

    @property
    def vrep(self) -> VRep | None:
        """The polytope's vertices, or None for a body without them."""
        return None if self.polytope is None else self.polytope.vrep


@rowwise
def _revolution_member(spec: RevolutionBodySpec, pts: np.ndarray) -> np.ndarray:
    tn = pts[:, -1]
    tp = np.linalg.norm(pts[:, :-1], axis=1)
    inside_band = np.abs(tn) <= 1.0
    out = np.zeros(pts.shape[0], dtype=bool)
    if np.any(inside_band):
        out[inside_band] = tp[inside_band] <= _profile_terms(spec, tn[inside_band], 0)[0] + SMOOTH_EVAL_TOL
    return out


def oracle_of(body) -> ConvexBodyOracle:
    """Wrap a body description in a ConvexBodyOracle.

    Accepts a RevolutionBodySpec or an HPolytope (e.g. a member of a
    PolytopeConstruction).
    """
    if isinstance(body, RevolutionBodySpec):
        spec = body
        return ConvexBodyOracle(
            dim=spec.n,
            radial=lambda d: revolution_radial(spec, d),
            support=lambda d: revolution_support(spec, d),
            member=lambda x: _revolution_member(spec, x),
            eval_tol=SMOOTH_EVAL_TOL,
            kind="revolution",
            revolution=spec,
        )
    if isinstance(body, HPolytope):
        poly = body
        verts = poly.vrep.vertices

        @rowwise
        def support(d):
            return (d @ verts.T).max(axis=1)

        @rowwise
        def member(pts):
            return np.all(pts @ poly.normals.T <= poly.offsets + POLY_EVAL_TOL, axis=1)

        return ConvexBodyOracle(
            dim=poly.ambient_dim,
            radial=lambda d: polytope_radial(poly, d),
            support=support,
            member=member,
            eval_tol=POLY_EVAL_TOL,
            kind="polytope",
            polytope=poly,
        )
    raise BodyError(f"cannot build an oracle from {type(body).__name__}")


def ball_oracle(dim: int, radius: float = 1.0) -> ConvexBodyOracle:
    """Closed-form oracle for a centered ball; the calibration reference."""
    if dim < 1 or not 0.0 < radius < math.inf:
        raise BodyError(f"ball needs a positive dimension and radius, got n={dim}, radius={radius}")
    r = float(radius)

    @rowwise
    def radial(d):
        return np.full(d.shape[0], r)

    @rowwise
    def support(d):
        return r * np.linalg.norm(d, axis=1)

    @rowwise
    def member(pts):
        return np.linalg.norm(pts, axis=1) <= r + POLY_EVAL_TOL

    center = np.zeros(dim)
    center.setflags(write=False)
    return ConvexBodyOracle(
        dim=dim, radial=radial, support=support, member=member,
        eval_tol=POLY_EVAL_TOL, kind="ball", ball=(r, center),
    )
