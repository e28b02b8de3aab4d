"""Derived bodies as new oracles: sections, slabs, translates.

Sections restrict the radial function and slabs clip it by t/|<theta, xi>|;
both identities are exact, so derived radial data inherit the parent
oracle's accuracy.  Sections and slabs of polytopes are again polytopes and
get exact oracles.  Only support functions of the other sections and slabs
have no closed form; both are recovered from radial data by
support_from_radial (with a degraded eval_tol).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bodies import BodyError, ConvexBodyOracle, oracle_of
from .grassmann import Subspace, embed, rowwise
from .intrinsic import _zoom_extremum_s2, sphere_grid, support_from_radial
from .polykernel import section_hpolytope

SECTION_SUPPORT_TOL = 1e-6
SLAB_SUPPORT_TOL = 1e-6  # support maximizers can sit on the slab rim (a kink)
DOT_GUARD = 1e-14  # |<theta, xi>| below this counts as parallel to the slab


@dataclass(frozen=True)
class SlabSpec:
    """Origin-symmetric slab {x : |<x, xi>| <= half_width}."""

    xi: np.ndarray
    half_width: float

    def __post_init__(self):
        x = np.ascontiguousarray(np.asarray(self.xi, dtype=float))
        if abs(np.linalg.norm(x) - 1.0) > 1e-12:
            raise BodyError("slab normal must be a unit vector")
        if not self.half_width > 0.0:
            raise BodyError("slab half-width must be positive")
        x.setflags(write=False)
        object.__setattr__(self, "xi", x)


def max_slab_halfwidth(oracle: ConvexBodyOracle, grid: int = 10_000) -> float:
    """Largest t with t*ball strictly inside the body: min rho minus margin.

    The minimum of the radial function is located on a direction grid and
    refined locally.
    """
    dirs = sphere_grid(oracle.dim, grid)
    rho = np.asarray(oracle.radial(dirs), dtype=float)
    best = float(rho.min())
    center = dirs[int(np.argmin(rho))]
    if oracle.dim == 3:
        def score(d):
            return np.asarray(oracle.radial(d), dtype=float)

        _, refined = _zoom_extremum_s2(score, center.reshape(1, 3),
                                       radius=2.0 * np.sqrt(4.0 * np.pi / grid),
                                       rounds=20, shrink=0.4, sign=-1.0)
        best = min(best, float(refined[0]))
    elif oracle.dim == 2:
        ang = np.arctan2(center[1], center[0])
        local = ang + np.linspace(-2.0, 2.0, 4001) * (2.0 * np.pi / grid)
        d = np.column_stack([np.cos(local), np.sin(local)])
        best = min(best, float(np.asarray(oracle.radial(d)).min()))
    return best - 1e-9


def section_oracle(body: ConvexBodyOracle, subspace: Subspace) -> ConvexBodyOracle:
    """The section body intersect span(B), in subspace coordinates.

    A polytope body gives the exact polytope oracle of its restricted
    facets.  Otherwise radial and membership are exact restrictions, and
    the support function is recovered from radial data by
    support_from_radial, so eval_tol is degraded accordingly.
    """
    if subspace.ambient_dim != body.dim:
        raise BodyError("subspace ambient dimension must match the body")
    if body.polytope is not None:
        return oracle_of(section_hpolytope(body.polytope, subspace))

    radial = rowwise(lambda u: np.asarray(body.radial(embed(subspace, u)), dtype=float))
    member = rowwise(lambda y: np.asarray(body.member(embed(subspace, y))))

    oracle = ConvexBodyOracle(
        dim=subspace.dim,
        radial=radial,
        support=lambda d: support_from_radial(oracle, d),
        member=member,
        eval_tol=max(body.eval_tol, SECTION_SUPPORT_TOL),
        kind="section",
        label=f"section[{body.kind}]",
    )
    return oracle


def slab_oracle(body: ConvexBodyOracle, slab: SlabSpec) -> ConvexBodyOracle:
    """The body clipped to an origin-symmetric slab.

    Along theta the slab boundary sits at t/|<theta, xi>|, so the radial
    function of the intersection is the pointwise minimum.  Polytope bodies
    take an exact route instead: the slab contributes two facets.
    """
    if slab.xi.shape != (body.dim,):
        raise BodyError("slab normal dimension must match the body")
    if body.polytope is not None:
        clipped = body.polytope.with_facets(
            np.vstack([slab.xi, -slab.xi]),
            [slab.half_width, slab.half_width],
        )
        base = oracle_of(clipped)
        return ConvexBodyOracle(
            dim=base.dim, radial=base.radial, support=base.support,
            member=base.member, eval_tol=base.eval_tol, kind="polytope-slab",
            label=f"slab[{body.label or body.kind}]",
            polytope=base.polytope, vrep=base.vrep,
        )

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

    def support(d):
        # the maximizer often sits on the slab rim (a kink), so extra zoom
        # rounds buy little: ~1e-7 argument accuracy suffices for the
        # quadrature consumers of slab supports
        return support_from_radial(oracle, d, grid=1024, rounds=16, shrink=0.45)

    oracle = ConvexBodyOracle(
        dim=body.dim, radial=radial, support=support, member=member,
        eval_tol=max(body.eval_tol, SLAB_SUPPORT_TOL), kind="slab",
        label=f"slab[{body.kind}]",
    )
    return oracle


def translate_oracle(body: ConvexBodyOracle, shift) -> ConvexBodyOracle:
    """The body translated by -shift (so `shift` becomes the new origin).

    member(x) = parent.member(x + shift), support(d) = parent.support(d)
    - <shift, d>; the radial function is recovered by bisection on
    membership along each ray, inside a bracket grown until it leaves the
    body.
    """
    s = np.asarray(shift, dtype=float)
    if s.shape != (body.dim,):
        raise BodyError("shift dimension must match the body")
    norm = float(np.linalg.norm(s))
    if norm > 0.0:
        margin = float(body.radial(s / norm)) - norm
        if margin < 1e-9:
            raise BodyError(f"shift must be interior with margin 1e-9 (margin {margin:.3e})")

    @rowwise
    def member(pts):
        return np.asarray(body.member(pts + s))

    @rowwise
    def support(ds):
        return np.asarray(body.support(ds), dtype=float) - ds @ s

    # a first outer bound; probes can miss long directions of elongated
    # bodies, so radial doubles it per row until it leaves the body
    probe = sphere_grid(body.dim, 256)
    outer = float(np.asarray(body.radial(probe), dtype=float).max()) + norm + 1.0

    @rowwise
    def radial(th):
        lo = np.zeros(th.shape[0])
        hi = np.full(th.shape[0], outer)
        inside = np.asarray(body.member(hi[:, None] * th + s))
        while np.any(inside):
            lo = np.where(inside, hi, lo)
            hi = np.where(inside, 2.0 * hi, hi)
            inside = np.asarray(body.member(hi[:, None] * th + s))
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            inside = np.asarray(body.member(mid[:, None] * th + s))
            lo = np.where(inside, mid, lo)
            hi = np.where(inside, hi, mid)
        return 0.5 * (lo + hi)

    return ConvexBodyOracle(
        dim=body.dim, radial=radial, support=support, member=member,
        eval_tol=max(body.eval_tol, 1e-10), kind="translate",
        label=f"translate[{body.kind}]",
    )
