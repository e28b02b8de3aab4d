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

import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .grassmann import rowwise
from .polykernel import (HPolytope, VRep, _vertex_candidates,
                         enumerate_vertices, polytope_radial)

SMOOTH_EVAL_TOL = 1e-11
POLY_EVAL_TOL = 1e-12
_BUMP_SAFE = 1e-100  # below this distance^2 from the support edge, return 0


class BodyError(ValueError):
    """Raised for invalid body parameters or failed constructions."""


def bump(u, order: int = 0):
    """C-infinity bump exp(-1/(1-u^2)) on |u|<1, zero outside; order <= 2."""
    if order not in (0, 1, 2):
        raise BodyError("bump supports derivative orders 0, 1, 2")
    scalar = np.asarray(u).ndim == 0
    arr = np.atleast_1d(np.asarray(u, dtype=float))
    out = np.zeros_like(arr)
    s = 1.0 - arr * arr
    inner = s > _BUMP_SAFE
    if np.any(inner):
        ui, si = arr[inner], s[inner]
        b = np.exp(-1.0 / si)
        if order == 0:
            out[inner] = b
        else:
            w1 = -2.0 * ui / (si * si)
            if order == 1:
                out[inner] = b * w1
            else:
                w2 = -2.0 / (si * si) - 8.0 * ui * ui / (si ** 3)
                out[inner] = b * (w2 + w1 * w1)
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
        if self.epsilon < 0.0:
            raise BodyError("epsilon must be nonnegative")
        if self.variant not in ("K", "L"):
            raise BodyError("variant must be 'K' or 'L'")

    def partner(self) -> "RevolutionBodySpec":
        other = "L" if self.variant == "K" else "K"
        return RevolutionBodySpec(self.n, self.epsilon, self.delta, other)

    def snapshot(self) -> dict:
        return {
            "type": "revolution",
            "n": self.n,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "variant": self.variant,
        }


def _profile_terms(spec: RevolutionBodySpec, t: np.ndarray, order: int) -> np.ndarray:
    """Profile (or derivative) on points already inside [-1, 1]."""
    cap_s = 1.0 - t * t
    if order == 0:
        cap = np.sqrt(np.maximum(cap_s, 0.0))
    elif order == 1:
        cap = -t / np.sqrt(cap_s)
    else:
        cap = -cap_s ** (-1.5)
    sign = 1.0 if spec.variant == "K" else -1.0
    u1 = (t - spec.CENTER_SHARED) / spec.delta
    u2 = (sign * t - spec.CENTER_VARIANT) / spec.delta
    scale = spec.epsilon / spec.delta ** order
    chain = sign ** order
    return cap + scale * (bump(u1, order) + chain * bump(u2, order))


def profile(spec: RevolutionBodySpec, t, order: int = 0):
    """Profile function of the body of revolution, with derivatives.

    Derivatives of the spherical cap blow up at the endpoints, so order >= 1
    is rejected at |t| = 1.
    """
    if order not in (0, 1, 2):
        raise BodyError("profile supports derivative orders 0, 1, 2")
    arr = np.asarray(t, dtype=float)
    if np.any(np.abs(arr) > 1.0):
        raise BodyError("profile argument must lie in [-1, 1]")
    if order >= 1 and np.any(np.abs(arr) >= 1.0):
        raise BodyError("profile derivative is singular at the endpoints t = +-1")
    out = _profile_terms(spec, np.atleast_1d(arr), order)
    return out if arr.ndim else float(out[0])


def _profile_extended(spec: RevolutionBodySpec, t: np.ndarray) -> np.ndarray:
    """Profile extended by zero outside [-1, 1]; used by root finding."""
    inside = np.abs(t) <= 1.0
    out = np.zeros_like(t)
    if np.any(inside):
        out[inside] = _profile_terms(spec, t[inside], 0)
    return out


def validate_revolution_spec(spec: RevolutionBodySpec, grid_points: int = 100_000) -> ProfileValidation:
    """Concavity and positivity of the profile on a dense interior grid."""
    ts = np.linspace(-1.0 + 1e-6, 1.0 - 1e-6, grid_points)
    second = _profile_terms(spec, ts, 2)
    values = _profile_terms(spec, ts, 0)
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
# Profile derivatives are singular at t = +-1; evaluate them no closer than
# two ulps, where 1 - t*t is still positive.  A wider margin costs accuracy
# near the poles: at 1 - 1e-12, supports with |xi'| ~ 1e-6 came out 4e-13 low.
_T_CLIP = 1.0 - 2.0 ** -52


def _safeguarded_newton(fun, x, lo, hi) -> np.ndarray:
    """Elementwise root of increasing functions on brackets [lo, hi].

    fun(x) returns (value, slope).  Each step moves one bracket end to x by
    the sign of the value, then takes the Newton step, or bisects when that
    step is not finite or leaves the bracket (rtsafe, Numerical Recipes
    9.4).  A step landing on the bracket is kept, since a root can sit
    exactly on it.  The fixed step count makes every row's result
    independent of the batch it arrives in.
    """
    for _ in range(_NEWTON_STEPS):
        g, dg = fun(x)
        below = g < 0.0
        lo = np.where(below, x, lo)
        hi = np.where(below, hi, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = x - g / dg
        ok = np.isfinite(step) & (step >= lo) & (step <= hi)
        x = np.where(ok, step, 0.5 * (lo + hi))
    return x


@rowwise
def revolution_radial(spec: RevolutionBodySpec, dirs) -> np.ndarray | float:
    """Radial function along unit directions, by safeguarded Newton on each ray.

    Along theta = (theta', theta_n) the boundary crossing solves
    g(r) = r*|theta'| - profile(r*theta_n) = 0.  g is convex (the profile is
    concave) and negative at 0, and the bracket [0, min(1/|theta_n|, 1+eps)]
    always contains its root.  Newton starts from the unit-sphere root r = 1,
    which is exact for rays that miss both bumps.
    """
    tn = dirs[:, -1]
    tp = np.linalg.norm(dirs[:, :-1], axis=1)
    r = np.ones(dirs.shape[0])
    off_axis = tp > 1e-15
    if np.any(off_axis):
        tni, tpi = tn[off_axis], tp[off_axis]
        with np.errstate(divide="ignore"):
            hi = np.minimum(np.where(np.abs(tni) > 0, 1.0 / np.abs(tni), np.inf),
                            1.0 + max(spec.epsilon, 1e-8))

        def gap(rr):
            t = rr * tni
            slope = tpi - tni * _profile_terms(spec, np.clip(t, -_T_CLIP, _T_CLIP), 1)
            return rr * tpi - _profile_extended(spec, t), slope

        r[off_axis] = _safeguarded_newton(gap, np.minimum(1.0, hi),
                                          np.zeros_like(hi), hi)
    return r


@rowwise
def revolution_support(spec: RevolutionBodySpec, dirs) -> np.ndarray | float:
    """Support function h(xi) = max_t [ |xi'| f(t) + xi_n t ] over t in [-1, 1].

    The objective is strictly concave for |xi'| > 0 (f'' < 0), so its
    stationary point |xi'| f'(t) + xi_n = 0 is found by safeguarded Newton,
    starting from the spherical cap's maximiser t = xi_n/|xi|; both
    endpoints are checked as well.
    """
    xn = dirs[:, -1]
    xp = np.linalg.norm(dirs[:, :-1], axis=1)

    def objective(t):
        return xp * _profile_terms(spec, t, 0) + xn * t

    def falling_slope(t):
        tc = np.clip(t, -_T_CLIP, _T_CLIP)
        return (-(xp * _profile_terms(spec, tc, 1) + xn),
                -xp * _profile_terms(spec, tc, 2))

    t0 = xn / np.maximum(np.hypot(xp, xn), 1e-300)
    t = _safeguarded_newton(falling_slope, t0, np.full_like(xn, -1.0),
                            np.ones_like(xn))
    ends = np.maximum(objective(np.full_like(xn, -1.0)), objective(np.ones_like(xn)))
    return np.maximum(objective(t), ends)


@dataclass(frozen=True)
class PolytopeConstruction:
    """A verified corner-cut box pair together with its construction data."""

    a: np.ndarray
    u_signs: np.ndarray
    v_signs: np.ndarray
    lam: float
    xi: np.ndarray
    eta: np.ndarray
    cut_offset_u: float
    cut_offset_v: float
    body_K: HPolytope
    body_L: HPolytope
    vrep_K: VRep
    vrep_L: VRep

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
    verts, _ = _vertex_candidates(normals, offsets)
    return verts.shape[0] == 0


def build_polytope_pair(a, u_signs, v_signs, lam: float | None = None) -> PolytopeConstruction:
    """Construct and verify the corner-cut box pair.

    Verification is by vertex enumeration: each cutting plane must strictly
    separate exactly one box vertex, and the two cut-off regions of each
    body must be disjoint.  On failure the error reports the largest
    admissible cut depth.
    """
    a = np.asarray(a, dtype=float)
    n = a.size
    if not (2 <= n <= 4):
        raise BodyError("box dimension must be between 2 and 4")
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

    sqrt_n = math.sqrt(n)
    xi = us / sqrt_n
    eta = vs / sqrt_n
    top = float(np.sum(a)) / sqrt_n          # functional value at the cut vertex
    gap = 2.0 * float(a.min()) / sqrt_n      # margin to the next box vertex
    lam = gap / 2.0 if lam is None else float(lam)
    if lam <= 0.0:
        raise BodyError("cut depth must be positive")

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

    vrep_K = enumerate_vertices(body_K)
    vrep_L = enumerate_vertices(body_L)
    expected = 2 ** n - 2 + 2 * n
    for name, vrep, body in (("K", vrep_K, body_K), ("L", vrep_L, body_L)):
        if vrep.num_vertices != expected:
            raise BodyError(
                f"body {name} has {vrep.num_vertices} vertices, expected {expected}; "
                f"largest admissible cut depth is {lam_max:.12g}")
        kept = {tuple(np.round(w, 9)) for w in vrep.vertices}
        removed = (u_vertex, v_vertex) if name == "K" else (u_vertex, -v_vertex)
        for w in removed:
            if tuple(np.round(w, 9)) in kept:
                raise BodyError(f"cut vertex survived in body {name}")

    return PolytopeConstruction(a, us.astype(int), vs.astype(int), lam, xi, eta,
                                off_u, off_v, body_K, body_L, vrep_K, vrep_L)


@dataclass(frozen=True)
class ConvexBodyOracle:
    """Uniform numerical interface to a convex body with interior origin.

    radial/support/member accept a single vector or a stack of row vectors
    and return matching scalars or 1-d arrays.  eval_tol bounds the error
    of radial and support on unit inputs.
    """

    dim: int
    radial: Callable[[np.ndarray], np.ndarray | float]
    support: Callable[[np.ndarray], np.ndarray | float]
    member: Callable[[np.ndarray], np.ndarray | bool]
    eval_tol: float
    kind: str
    label: str = ""
    revolution: RevolutionBodySpec | None = None
    polytope: HPolytope | None = None
    vrep: VRep | None = None

    def snapshot(self) -> dict:
        if self.revolution is not None:
            return self.revolution.snapshot()
        if self.polytope is not None:
            return {
                "type": "hpolytope",
                "normals": [[float(x) for x in row] for row in self.polytope.normals],
                "offsets": [float(x) for x in self.polytope.offsets],
                "label": self.label,
            }
        return {"type": "derived", "kind": self.kind, "label": self.label}


@rowwise
def _revolution_member(spec: RevolutionBodySpec, pts: np.ndarray) -> np.ndarray:
    tn = pts[:, -1]
    tp = np.linalg.norm(pts[:, :-1], axis=1)
    inside_band = np.abs(tn) <= 1.0
    out = np.zeros(pts.shape[0], dtype=bool)
    if np.any(inside_band):
        out[inside_band] = tp[inside_band] <= _profile_terms(spec, tn[inside_band], 0) + SMOOTH_EVAL_TOL
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
            label=f"revolution-{spec.variant}",
            revolution=spec,
        )
    if isinstance(body, HPolytope):
        poly = body
        vrep = enumerate_vertices(poly)
        verts = vrep.vertices

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
            vrep=vrep,
        )
    raise BodyError(f"cannot build an oracle from {type(body).__name__}")


def ball_oracle(dim: int, radius: float = 1.0) -> ConvexBodyOracle:
    """Closed-form oracle for a centered ball; the calibration reference."""
    if dim < 1 or radius <= 0.0:
        raise BodyError("ball needs a positive dimension and radius")
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

    return ConvexBodyOracle(
        dim=dim, radial=radial, support=support, member=member,
        eval_tol=POLY_EVAL_TOL, kind="ball", label=f"ball{dim}d",
    )
