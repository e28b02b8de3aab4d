"""Derived bodies as new oracles: sections, slabs, translates.

Sections restrict the radial function and slabs clip it by t/|<theta, xi>|;
both identities are exact, so derived radial data inherit the parent
oracle's accuracy.  A translate solves for its radial function on each ray
from the parent's gauge; a translated ball is a ball and takes the closed
form, and a translated polytope is the polytope of the shifted facets.
Sections and slabs of polytopes are again polytopes and get exact oracles.
A section is a slab of width 0: every other section and slab takes its
supports from _cut_support, the exact support of the body cut to
|<x, xi>| <= t, and declares its parent's eval_tol.  A body with no exact
route has a support that raises EstimateError: no search stands in for it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bodies import BodyError, ConvexBodyOracle, _safeguarded_newton, oracle_of
from .grassmann import Subspace, embed, rowwise
from .intrinsic import EstimateError, revolution_slab_supports
from .polykernel import HPolytope, section_hpolytope, slab_hpolytopes

DOT_GUARD = 1e-14  # |<theta, xi>| below this counts as parallel to the slab
# an axis this close to span(B) lies in it: the parent's support then errs
# by O(AXIS_TOL^2) on the section
AXIS_TOL = 1e-8
# secant steps of the translate radial: room for a bracket that doubles a
# dozen times and then bisects to the last ulp; rows stop once they settle
TRANSLATE_STEPS = 64


@dataclass(frozen=True)
class SlabSpec:
    """Origin-symmetric slab {x : |<x, xi>| <= half_width}."""

    xi: np.ndarray
    half_width: float

    def __post_init__(self):
        x = np.array(self.xi, dtype=float, order="C")  # own read-only copy
        if not abs(np.linalg.norm(x) - 1.0) <= 1e-12:
            raise BodyError("slab normal must be a unit vector")
        if not self.half_width > 0.0:
            raise BodyError("slab half-width must be positive")
        x.setflags(write=False)
        object.__setattr__(self, "xi", x)


def max_slab_halfwidth(oracle: ConvexBodyOracle) -> float:
    """Largest t with t*ball strictly inside the body: min rho minus margin.

    A polytope's min rho is its smallest facet offset (unit normals), a
    ball's its radius less the distance of its center.  A body of
    revolution has f(t) >= sqrt(1 - t^2) and meets the unit ball on the
    equator, where both bumps vanish, so its min rho is 1; a translate
    K - s takes 1 - |s|, exact when the nearest boundary point lies off the
    bumps and never above the true minimum.  Other bodies raise
    EstimateError.
    """
    if oracle.polytope is not None:
        return float(oracle.polytope.offsets.min()) - 1e-9
    if oracle.ball is not None:
        radius, center = oracle.ball
        return radius - float(np.linalg.norm(center)) - 1e-9
    base, s = oracle.translate or (oracle, np.zeros(oracle.dim))
    if base.revolution is None:
        raise EstimateError(f"no inner radius for a body of kind '{oracle.kind}'")
    return 1.0 - float(np.linalg.norm(s)) - 1e-9


def _cut_support(body: ConvexBodyOracle, xi: np.ndarray | None, t: float, what: str):
    """The support of body cap {|<x, xi>| <= t} on (m, n) rows; t = 0 cuts
    by the hyperplane xi^perp.

    A ball or translated ball takes the closed form of ball_slab_supports.
    A body of revolution takes its rim solve (revolution_slab_supports), and
    so does a translate K - s of one: (K - s) cap {|<x, xi>| <= t} is K
    clipped to the levels <s, xi> -+ t, shifted by -s, so its support at d
    is the base's at those levels less <s, d> (Rockafellar, Convex
    Analysis, Cor. 16.4.1).  Any other body, or xi = None, gets a support
    that raises EstimateError naming `what`.
    """
    if body.ball is not None:
        radius, center = body.ball
        return lambda d: ball_slab_supports(radius, center, xi, t, d)
    base, s = body.translate or (body, np.zeros(body.dim))
    if base.revolution is None or xi is None:
        def support(d):
            raise EstimateError(f"no exact {what} support for a body of kind '{body.kind}'")
        return support
    mid = float(s @ xi)

    def support(d):
        lows, highs = np.full(len(d), mid - t), np.full(len(d), mid + t)
        h = revolution_slab_supports(base.revolution, np.broadcast_to(xi, d.shape), lows, highs, d)
        return h - d @ s
    return support


def _unit_off(basis: np.ndarray, axis: np.ndarray) -> np.ndarray | None:
    """The unit part of axis normal to span(basis), or None where the axis
    lies within AXIS_TOL of the span."""
    rest = axis - basis @ (basis.T @ axis)
    size = np.linalg.norm(rest)
    return rest / size if size > AXIS_TOL else None


def section_oracle(body: ConvexBodyOracle, subspace: Subspace) -> ConvexBodyOracle:
    """The section body cap span(B), in subspace coordinates.

    A polytope body gives the exact polytope oracle of its restricted
    facets.  Otherwise radial and membership are exact restrictions, and
    the support is that of the cut of width 0 by nu^perp, nu the unit part
    off span(B) of an axis a: e_n for a body of revolution, the center for
    a ball.  K cap span(B) = (K cap span(B, a)) cap nu^perp, and
    K cap span(B, a) is a body of revolution about a (Schneider, Convex
    Bodies, section 4.2), so the cut's maximiser at d in span(B) lies in
    span(B).  Where a lies in span(B), the parent's support serves.  A
    translate of a body of revolution has its axis off the origin: only its
    hyperplane sections are such cuts, along their normal.
    """
    if subspace.ambient_dim != body.dim:
        raise BodyError("subspace ambient dimension must match the body")
    if body.polytope is not None:
        return oracle_of(section_hpolytope(body.polytope, subspace))

    basis = subspace.basis
    n, k = basis.shape
    radial = rowwise(lambda u: np.asarray(body.radial(embed(subspace, u)), dtype=float))
    member = rowwise(lambda y: np.asarray(body.member(embed(subspace, y))))
    if body.ball is not None:
        axis = body.ball[1]
    elif body.revolution is not None:
        axis = np.eye(n)[-1]
    else:  # the unit part off a hyperplane of any axis is its normal
        axis = np.eye(n)[np.argmin((basis * basis).sum(axis=1))] if k >= n - 1 else None
    nu = None if axis is None else _unit_off(basis, axis)
    if axis is not None and nu is None:
        cut = body.support
    else:
        cut = _cut_support(body, nu, 0.0, "section" if k >= n - 1 else
                           f"codimension-{n - k} section")
    return ConvexBodyOracle(
        dim=k, radial=radial, support=rowwise(lambda d: cut(embed(subspace, d))),
        member=member, eval_tol=body.eval_tol, kind="section",
    )


def slab_oracle(body: ConvexBodyOracle, slab: SlabSpec) -> ConvexBodyOracle:
    """The body clipped to an origin-symmetric slab.

    Along theta the slab boundary sits at t/|<theta, xi>|, so the radial
    function of the intersection is the pointwise minimum.  Polytope bodies
    take an exact route instead: the slab contributes two facets, and the
    result is the polytope oracle of the clipped body.  Every other slab
    takes its supports from _cut_support and keeps the body's eval_tol; the
    support of a slab of a body with no exact route raises EstimateError.
    """
    if slab.xi.shape != (body.dim,):
        raise BodyError("slab normal dimension must match the body")
    if body.polytope is not None:
        return oracle_of(next(slab_hpolytopes(body.polytope, slab.xi[None], slab.half_width)))

    xi, t = slab.xi, slab.half_width

    @rowwise
    def radial(th):
        rho = np.asarray(body.radial(th), dtype=float)
        dots = np.abs(th @ xi)
        with np.errstate(divide="ignore"):
            cap = np.where(dots > DOT_GUARD, t / np.maximum(dots, DOT_GUARD), np.inf)
        return np.minimum(rho, cap)

    @rowwise
    def member(pts):
        return np.asarray(body.member(pts)) & (np.abs(pts @ xi) <= t + body.eval_tol)

    return ConvexBodyOracle(
        dim=body.dim, radial=radial, support=rowwise(_cut_support(body, xi, t, "slab")),
        member=member, eval_tol=body.eval_tol, kind="slab",
    )


def ball_slab_supports(radius: float, center: np.ndarray, xi: np.ndarray, t: float,
                       d: np.ndarray) -> np.ndarray:
    """The support of the ball (center + radius B) clipped to the slab
    |<x, xi>| <= t at each row of d.

    In the ball's own units the slab is lo <= <y, xi> <= hi, with
    lo = (-t - <c, xi>) / R and hi = (t - <c, xi>) / R.  Let beta = <d, xi>.
    Where lo |d| <= beta <= hi |d| the ball's own support point lies in the
    slab, and h = <c, d> + R |d|.  Where beta > hi |d| the maximiser sits on
    the rim <y, xi> = hi, at hi xi plus sqrt(1 - hi^2) times the unit part
    of d normal to xi, so h = <c, d> + R (hi beta + sqrt(1 - hi^2)
    |d - beta xi|); likewise with lo where beta < lo |d|.  Every sum is
    taken per row, so each row gets the value it gets alone.
    """
    size = np.sqrt((d * d).sum(axis=1))
    beta = (d * xi).sum(axis=1)
    mid = float((center * xi).sum())
    lo, hi = (-t - mid) / radius, (t - mid) / radius
    rest = d - beta[:, None] * xi  # not sqrt(|d|^2 - beta^2), which cancels near +-xi
    normal = np.sqrt((rest * rest).sum(axis=1))
    inner = size
    for edge, out in ((hi, beta > hi * size), (lo, beta < lo * size)):
        if out.any():
            rim = edge * beta + np.sqrt(max(1.0 - edge * edge, 0.0)) * normal
            inner = np.where(out, rim, inner)
    return (d * center).sum(axis=1) + radius * inner


def translate_oracle(body: ConvexBodyOracle, shift) -> ConvexBodyOracle:
    """The body translated by -shift (so `shift` becomes the new origin).

    member(x) = parent.member(x + shift), support(d) = parent.support(d)
    - <shift, d>.  Along theta the boundary sits at the root of
    phi(r) = gauge(r*theta + shift) - 1, with the parent's gauge
    |p| / rho(p/|p|) (0 at p = 0).  phi is convex and negative at r = 0,
    so it has one root on [0, inf).  A bracketed secant finds it from the
    first guess rho(theta), using radial calls of the parent only: the
    bracket starts at [0, inf) and doubles until it closes, and a step
    bisects when the secant step is not finite or leaves the bracket.  A
    direction with a NaN coordinate gets NaN.

    A translate of a ball (radius R, center c) is the ball of center
    c - shift, recorded in `ball`; its radial function is the positive root
    r = (b + sqrt(b^2 - a (|c|^2 - R^2))) / a of |r theta - c| = R, with
    a = |theta|^2 and b = <theta, c>, and takes no secant.  A translate of
    a polytope {A x <= b} is the polytope oracle of {A x <= b - A shift},
    with every exact polytope path.

    A translate of a translate is the base body translated once, by the
    sum of the shifts; `translate` records that (base, shift).
    """
    s = np.array(shift, dtype=float)  # own copy, made read-only below
    if s.shape != (body.dim,):
        raise BodyError("shift dimension must match the body")
    if body.translate is not None:
        body, s = body.translate[0], body.translate[1] + s
    norm = float(np.linalg.norm(s))
    gauge0 = 0.0
    if norm != 0.0:
        rho_s = float(body.radial(s / norm))
        margin = rho_s - norm
        if not margin >= 1e-9:
            raise BodyError(f"shift must be interior with margin 1e-9 (margin {margin:.3e})")
        gauge0 = norm / rho_s
    if body.polytope is not None:
        poly = body.polytope
        return oracle_of(HPolytope(poly.normals, poly.offsets - poly.normals @ s))
    s.setflags(write=False)

    @rowwise
    def member(pts):
        return np.asarray(body.member(pts + s))

    @rowwise
    def support(ds):
        return np.asarray(body.support(ds), dtype=float) - ds @ s

    ball = None
    if body.ball is not None:
        radius, center = body.ball
        center = center - s
        center.setflags(write=False)
        ball = (radius, center)
        level = float((center * center).sum()) - radius * radius  # < 0: 0 is interior

        @rowwise
        def radial(th):
            a = (th * th).sum(axis=1)
            b = (th * center).sum(axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):  # th = 0 has no ray
                return (b + np.sqrt(b * b - a * level)) / a
    else:
        def excess(r, th):
            p = r[:, None] * th + s
            size = np.linalg.norm(p, axis=1)
            with np.errstate(invalid="ignore"):  # p = 0 has no direction
                gauge = size / np.asarray(body.radial(p / size[:, None]), dtype=float)
            return np.where(size > 0.0, gauge, 0.0) - 1.0, None

        @rowwise
        def radial(th):
            r = np.full(th.shape[0], np.nan)
            ok = ~np.isnan(th).any(axis=1)
            if np.any(ok):
                th = th[ok]
                guess = np.asarray(body.radial(th), dtype=float)
                zero = np.zeros_like(guess)
                r[ok] = _safeguarded_newton(
                    excess, guess, zero, np.full_like(guess, np.inf), th,
                    prev=(zero, np.full_like(guess, gauge0 - 1.0)), steps=TRANSLATE_STEPS)
            return r

    return ConvexBodyOracle(
        dim=body.dim, radial=radial, support=support, member=member,
        eval_tol=max(body.eval_tol, 1e-10), kind="translate", translate=(body, s),
        ball=ball,
    )
