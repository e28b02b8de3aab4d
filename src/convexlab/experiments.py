"""Runnable verifications: equality of section/projection/slab intrinsic
volumes for the constructed pairs, the slab-to-section limit, and
noncongruence certificates, each producing a structured report.

Pass rules: exact paths compare relative differences against the tolerance;
paths with a stderr require every |difference| within 3 combined standard
errors plus the tolerance.  Controls (rotated / shifted copies) are wired
to FAIL the equality experiments, guarding against a harness that accepts
everything.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .bodies import (ConvexBodyOracle, RevolutionBodySpec, ball_oracle,
                     build_polytope_pair, oracle_of, validate_revolution_spec,
                     profile)
from .grassmann import RngStream, Subspace, blocks, kappa, sample_haar_bases
from .intrinsic import (POLYLINE_NODES, EstimateError, IVEstimate, Rows, antipodal_sums,
                        ball_section_volumes, ball_slab_volumes, centroid_3d, flag_coefficient,
                        planar_metrics_from_oracle, revolution_projection_volumes,
                        revolution_section_volumes, revolution_slab_volumes, volume_radial)
from .polykernel import (CHUNK, cauchy_projection_volumes, poly3_stack_volumes, polygon_metrics,
                         polygon_stack_metrics, projection_polygon, section_hpolytopes,
                         slab_hpolytopes)
from .transforms import SlabSpec, max_slab_halfwidth, slab_oracle, translate_oracle


class ExperimentError(ValueError):
    """Raised for invalid experiment parameters."""


VALUE_COLUMNS = ("value_K", "value_L", "abs_diff", "rel_diff", "stderr")


@dataclass(frozen=True, eq=False)
class SampleTable:
    """A report's samples as float64 columns; sample j is row j, its id.

    basis[j] is sample j's subspace basis or normal, flattened row-major;
    extra maps each key to one more column of all rows.  The table keeps
    read-only views of the arrays, so its values cannot change through it.
    """

    basis: np.ndarray  # (m, w)
    value_K: np.ndarray
    value_L: np.ndarray
    abs_diff: np.ndarray
    rel_diff: np.ndarray
    stderr: np.ndarray
    extra: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self):
        def frozen(column, ndim):
            if not isinstance(column, np.ndarray) or column.dtype != np.float64:
                raise TypeError("sample columns must be float64 arrays")
            if column.ndim != ndim or len(column) != len(self.basis):
                raise ValueError("sample columns must hold one row per sample")
            view = column.view()
            view.setflags(write=False)
            return view

        object.__setattr__(self, "basis", frozen(self.basis, 2))
        for name in VALUE_COLUMNS:
            object.__setattr__(self, name, frozen(getattr(self, name), 1))
        object.__setattr__(self, "extra", {k: frozen(c, 1) for k, c in self.extra.items()})

    def __len__(self) -> int:
        return len(self.basis)


def _sample_table(basis, value_K, value_L, abs_diff, stderr, extra=None) -> SampleTable:
    """The table of these columns, with rel_diff = abs_diff over the mean
    magnitude of the two values (floored at 1e-300)."""
    scale = np.maximum(0.5 * (np.abs(value_K) + np.abs(value_L)), 1e-300)
    return SampleTable(basis, value_K, value_L, abs_diff, abs_diff / scale, stderr, extra or {})


@dataclass
class ExperimentReport:
    """One experiment's record: its samples as one SampleTable, and a
    summary with the verdict."""

    experiment: str
    bodies: dict  # body snapshots; the CLI sets them from its pair
    parameters: dict
    samples: SampleTable
    summary: dict
    runtime_seconds: float = 0.0  # informational; kept out of serialized reports


def _judge(samples: SampleTable, tol: float) -> dict:
    """Summary statistics and the pass verdict for a table of samples."""
    if not len(samples):
        raise ExperimentError("experiment produced no samples")
    rels, absd, errs = samples.rel_diff, samples.abs_diff, samples.stderr
    ok = np.where(errs == 0.0, rels <= tol, absd <= 3.0 * errs + tol)
    rule = "exact-rel" if np.all(errs == 0.0) else (
        "mc-3sigma" if np.all(errs > 0.0) else "mixed")
    return {
        "max_rel_diff": float(rels.max()),
        "mean_rel_diff": float(rels.mean()),
        "max_abs_diff": float(absd.max()),
        "pass": bool(np.all(ok)),
        "tolerance": tol,
        "rule": rule,
    }


def _shared_dim(oracle_K: ConvexBodyOracle, oracle_L: ConvexBodyOracle) -> int:
    """The pair's ambient dimension, which K and L must share."""
    if oracle_K.dim != oracle_L.dim:
        raise ExperimentError("oracles must share a dimension")
    return oracle_K.dim


def _paired_run(experiment: str, oracle_K: ConvexBodyOracle,
                oracle_L: ConvexBodyOracle, bases, values, rng: RngStream,
                tol: float, parameters: dict) -> ExperimentReport:
    """Compare one functional on K and on L, sample by sample.

    values(oracle) gives (values, stderrs, method): two float64 arrays with
    one entry per sample in the order of bases, and the name of the
    estimator that made them, for K and for L alike; bases[j] is sample j's
    subspace basis or normal, recorded row-major.  values runs once per
    body, so work that all samples share (a grid, one stacked oracle call)
    is done once per body and experiment.  Rows of different samples share
    one oracle call only where the oracle gives each row the value it gets
    alone (revolution, ball, translate; tests/test_scalar_batch.py checks
    every row of these), so each sample's value is the one it gets by
    itself.
    """
    value_K, err_K, method_K = values(oracle_K)
    value_L, err_L, method_L = values(oracle_L)
    samples = _sample_table(bases.reshape(len(bases), math.prod(bases.shape[1:])),
                            value_K, value_L, np.abs(value_K - value_L), err_K + err_L)
    summary = _judge(samples, tol)
    summary["methods"] = sorted({method_K, method_L})
    return ExperimentReport(experiment, {}, {
        **parameters, "samples": len(bases), "seed": rng.seed, "tol": tol,
        "dimension": oracle_K.dim,
    }, samples, summary)


# ---------------------------------------------------------------------------
# body records and fixture pairs


_RECORD_FIELDS = {
    "revolution": frozenset({"type", "n", "epsilon", "delta", "variant"}),
    "polytope": frozenset({"type", "a", "u_signs", "v_signs", "lambda", "variant"}),
    "ball": frozenset({"type", "n", "radius"}),
    "derived": frozenset({"type", "base", "transform", "shift"}),
}


def _number(value, field: str, integer: bool = False):
    """A JSON integer, or a JSON number as a float (a boolean is neither)."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise ExperimentError(f"body spec field '{field}' takes "
                              f"{'integers' if integer else 'numbers'}, got {json.dumps(value)}")
    return value if integer else float(value)


def body_from_record(record) -> tuple[ConvexBodyOracle, dict]:
    """Body record -> (oracle, the record with every default filled in).

    Types: `revolution` (its profile must pass validate_revolution_spec),
    `polytope` (one body of the corner-cut box pair), `ball`, and `derived`:
    a `base` record under a `transform`, `rotate-quarter-turn` (polytope
    bases only) or `translate` by a `shift`, which becomes the new origin.
    Unknown fields are rejected by name, and constraint violations surface
    the constructor diagnostics.  A filled record reads back unchanged.
    """
    if not isinstance(record, dict):
        raise ExperimentError("body spec must be a JSON object")
    kind = record.get("type")
    if not isinstance(kind, str) or kind not in _RECORD_FIELDS:
        raise ExperimentError("body spec field 'type' must be 'revolution', 'polytope', "
                              "'ball' or 'derived'")
    unknown = sorted(set(record) - _RECORD_FIELDS[kind])
    if unknown:
        raise ExperimentError(f"unknown field '{unknown[0]}' in {kind} body spec")
    for field in ("a", "u_signs", "v_signs", "shift"):
        if field in record and not isinstance(record[field], list):
            raise ExperimentError(f"body spec field '{field}' takes a list, "
                                  f"got {json.dumps(record[field])}")
    if kind == "revolution":
        spec = RevolutionBodySpec(_number(record.get("n", 3), "n", integer=True),
                                  _number(record.get("epsilon", 1e-3), "epsilon"),
                                  _number(record.get("delta", 0.1), "delta"),
                                  str(record.get("variant", "K")))
        check = validate_revolution_spec(spec)
        if not check.ok:
            raise ExperimentError(
                "revolution profile is not concave and positive: max f'' = "
                f"{check.max_second_derivative:.4g}, min f = {check.min_profile:.4g}")
        return oracle_of(spec), spec.snapshot()
    if kind == "polytope":
        if "a" not in record:
            raise ExperimentError("polytope body spec requires field 'a' (box half-widths)")
        n = len(record["a"])
        variant = str(record.get("variant", "K"))
        if variant not in ("K", "L"):
            raise ExperimentError("polytope body spec field 'variant' must be 'K' or 'L'")
        lam = record.get("lambda")
        cons = build_polytope_pair(
            [_number(x, "a") for x in record["a"]],
            [_number(x, "u_signs", integer=True) for x in record.get("u_signs", [1] * n)],
            [_number(x, "v_signs", integer=True)
             for x in record.get("v_signs", [1] * (n - 1) + [-1])],
            None if lam is None else _number(lam, "lambda"))
        return oracle_of(getattr(cons, "body_" + variant)), cons.snapshot(variant)
    if kind == "ball":
        n = _number(record.get("n", 3), "n", integer=True)
        radius = _number(record.get("radius", 1.0), "radius")
        return ball_oracle(n, radius), {"type": "ball", "n": n, "radius": radius}
    if not isinstance(record.get("base"), dict):
        raise ExperimentError("derived body spec requires field 'base' (a body spec object)")
    base, base_record = body_from_record(record["base"])
    transform = record.get("transform")
    if (transform, "shift" in record) not in (("rotate-quarter-turn", False), ("translate", True)):
        raise ExperimentError("derived body spec takes transform 'rotate-quarter-turn', "
                              "or 'translate' with a field 'shift'")
    filled = {"type": "derived", "base": base_record, "transform": transform}
    if transform == "translate":
        shift = [_number(x, "shift") for x in record["shift"]]
        return translate_oracle(base, shift), {**filled, "shift": shift}
    if base.polytope is None:
        raise ExperimentError(f"rotate-quarter-turn takes a polytope base, got {base.kind}")
    q = np.eye(base.dim)
    q[-2:, -2:] = np.array([[0.0, -1.0], [1.0, 0.0]])  # a quarter turn of the last two axes
    return oracle_of(base.polytope.rotated(q)), filled


@dataclass(frozen=True)
class BodyPair:
    """A named pair of oracles plus the congruence status certify checks."""

    name: str
    oracle_K: ConvexBodyOracle
    oracle_L: ConvexBodyOracle
    snapshots: dict
    expect_noncongruent: bool      # is the pair genuinely noncongruent?

    @classmethod
    def from_bodies(cls, name: str, body_K: tuple, body_L: tuple) -> "BodyPair":
        """The pair of two body_from_record results; congruent by construction
        when the two records agree once every derived layer is stripped, since
        a quarter turn and a translate are isometries."""
        def core(record):
            return core(record["base"]) if record["type"] == "derived" else record

        (oracle_K, record_K), (oracle_L, record_L) = body_K, body_L
        congruent = core(record_K) == core(record_L)
        return cls(name, oracle_K, oracle_L, {"K": record_K, "L": record_L}, not congruent)


PAIR_NAMES = ("smooth", "polytope", "control-rotated", "control-shifted")


def make_pair(name: str, n: int = 3) -> BodyPair:
    """Build one of the named fixture pairs in dimension n from its records."""
    if name not in PAIR_NAMES:
        raise ExperimentError(f"unknown pair '{name}' (choose from {PAIR_NAMES})")
    if name in ("polytope", "control-rotated") and n not in (3, 4):
        raise ExperimentError(f"pair '{name}' supports n = 3 or 4, got n={n}")
    poly = {"type": "polytope", "a": [1.0, 1.2, 1.5, 1.8][:n]}
    ball = {"type": "ball", "n": n, "radius": 1.0}
    records = {
        "smooth": ({"type": "revolution", "n": n},
                   {"type": "revolution", "n": n, "variant": "L"}),
        "polytope": (poly, {**poly, "variant": "L"}),
        "control-rotated": (poly, {"type": "derived", "base": poly,
                                   "transform": "rotate-quarter-turn"}),
        "control-shifted": (ball, {"type": "derived", "base": ball, "transform": "translate",
                                   "shift": [0.3] + [0.0] * (n - 1)}),
    }[name]
    return BodyPair.from_bodies(name, *map(body_from_record, records))


# ---------------------------------------------------------------------------
# Antipodal pairing (the `lemma1` command)


def lemma1_check(oracle_K: ConvexBodyOracle, oracle_L: ConvexBodyOracle,
                 n_dirs: int, tol: float, rng: RngStream) -> ExperimentReport:
    """Unordered-pair equality of radial and support values at antipodes.

    For each direction xi the discrepancy is the best-pairing distance
    between {rho_K(xi), rho_K(-xi)} and {rho_L(xi), rho_L(-xi)} (likewise
    for supports).  A 10x larger batch of boundary-straddling points
    spot-checks the reflection property of the difference set directly.
    """
    n = _shared_dim(oracle_K, oracle_L)
    dirs = sample_haar_bases(n, 1, n_dirs, rng)[:, :, 0]
    rho_kp = np.asarray(oracle_K.radial(dirs), dtype=float)
    rho_km = np.asarray(oracle_K.radial(-dirs), dtype=float)
    rho_lp = np.asarray(oracle_L.radial(dirs), dtype=float)
    rho_lm = np.asarray(oracle_L.radial(-dirs), dtype=float)
    h_kp = np.asarray(oracle_K.support(dirs), dtype=float)
    h_km = np.asarray(oracle_K.support(-dirs), dtype=float)
    h_lp = np.asarray(oracle_L.support(dirs), dtype=float)
    h_lm = np.asarray(oracle_L.support(-dirs), dtype=float)

    def pairing(kp, km, lp, lm):
        straight = np.maximum(np.abs(kp - lp), np.abs(km - lm))
        swapped = np.maximum(np.abs(kp - lm), np.abs(km - lp))
        return np.minimum(straight, swapped)

    d_rho = pairing(rho_kp, rho_km, rho_lp, rho_lm)
    d_h = pairing(h_kp, h_km, h_lp, h_lm)

    samples = _sample_table(dirs, rho_kp, rho_lp, d_rho, np.zeros(n_dirs), {"d_h": d_h})

    # reflection spot-check at midpoint radii, where one body but not the
    # other should contain the probe whenever the radial values differ.
    # The probes, from a child stream, are drawn and checked in the row
    # blocks of rowwise: one generator's consecutive draws are one draw.
    probes = rng.substream(0).generator()
    failures = 0
    for a, b in blocks(10 * n_dirs):
        probe = probes.standard_normal((b - a, n))
        probe /= np.linalg.norm(probe, axis=1, keepdims=True)
        rk = np.asarray(oracle_K.radial(probe), dtype=float)
        rl = np.asarray(oracle_L.radial(probe), dtype=float)
        xs = 0.5 * (rk + rl)[:, None] * probe
        in_k = np.asarray(oracle_K.member(xs))
        in_l = np.asarray(oracle_L.member(xs))
        in_k_neg = np.asarray(oracle_K.member(-xs))
        in_l_neg = np.asarray(oracle_L.member(-xs))
        bad_kl = (in_k & ~in_l) & ~(in_l_neg & ~in_k_neg)
        bad_lk = (in_l & ~in_k) & ~(in_k_neg & ~in_l_neg)
        failures += int(np.sum(bad_kl) + np.sum(bad_lk))

    summary = _judge(samples, tol)
    max_d_rho = float(d_rho.max())
    max_d_h = float(d_h.max())
    summary.update({
        "max_d_rho": max_d_rho,
        "max_d_h": max_d_h,
        "point_check_samples": int(10 * n_dirs),
        "point_check_failures": failures,
        "rule": "lemma1-absolute",
        "pass": bool(max_d_rho <= tol and max_d_h <= tol and failures == 0),
    })
    return ExperimentReport(
        "lemma1", {}, {
            "samples": n_dirs, "seed": rng.seed, "tol": tol, "dimension": n,
        }, samples, summary)


def _exact_values(polys, i: int) -> Rows:
    """(V_i, zero stderrs, method) of the polytopes of an iterable of 2- or
    3-polytopes, in order: `exact-polygon` (polygon_stack_metrics) or
    `exact-poly3` (poly3_stack_volumes), one kernel pass per CHUNK
    polytopes as the iterable yields them, the values of the passes
    concatenated.  The kernels give each polytope the value it gets alone,
    so a value does not depend on its stack."""
    parts, method, polys = [np.empty(0)], "exact-polygon", iter(polys)
    while chunk := list(itertools.islice(polys, CHUNK)):
        if chunk[0].ambient_dim == 2:
            area, perim = polygon_stack_metrics([p.vrep.vertices for p in chunk])
            parts.append((perim / 2.0, area)[i - 1])
        else:
            parts.append(poly3_stack_volumes(chunk)[:, i - 1])
            method = "exact-poly3"
    values = np.concatenate(parts)
    return values, np.zeros(len(values)), method


# ---------------------------------------------------------------------------
# Sections


def _section_values(body: ConvexBodyOracle, bases: np.ndarray, i: int) -> Rows:
    """(V_i, stderrs, method) of body cap span(B_j) for each B_j of the (S, n, k)
    stack bases: the one choice of section estimator.  k = 1 gives segments;
    a ball or translated ball takes the closed form of ball_section_volumes,
    a body of revolution or a translate of one the profile quadrature of
    revolution_section_volumes, a polytope the exact values of its stacked
    sections.  Any other body raises ExperimentError."""
    if bases.shape[2] == 1:
        us = bases[:, :, 0]
        if body.polytope is None:
            segs = antipodal_sums(body.radial, us)
        else:  # polytope_radial rounds with the row count: one row per call
            segs = np.array([float(body.radial(u)) + float(body.radial(-u)) for u in us])
        return segs, np.zeros(len(segs)), "exact-segment"
    if body.ball is not None:
        return ball_section_volumes(body.ball, bases, i)
    if (body.translate or (body,))[0].revolution is not None:
        return revolution_section_volumes(body, bases, i)
    if body.polytope is not None:
        return _exact_values(section_hpolytopes(body.polytope, bases), i)
    raise ExperimentError(
        f"no section estimator for a body of kind '{body.kind}' in R^{body.dim}")


def sections_experiment(oracle_K: ConvexBodyOracle, oracle_L: ConvexBodyOracle,
                        k: int, i: int, num_h: int, rng: RngStream,
                        tol: float) -> ExperimentReport:
    """V_i(K cap H) vs V_i(L cap H) over Haar-random k-subspaces H, each
    body's values from _section_values."""
    n = _shared_dim(oracle_K, oracle_L)
    if not 1 <= i <= k <= n - 1:
        raise ExperimentError(f"need 1 <= i <= k <= n-1, got i={i}, k={k}, n={n}")
    bases = sample_haar_bases(n, k, num_h, rng)
    return _paired_run("sections", oracle_K, oracle_L, bases,
                       lambda oracle: _section_values(oracle, bases, i), rng, tol,
                       {"k": k, "i": i, "polyline_n": POLYLINE_NODES})


# ---------------------------------------------------------------------------
# Slabs


def _slab_values(body: ConvexBodyOracle, xis: np.ndarray, ts: np.ndarray, i: int) -> Rows:
    """(V_i, stderrs, method) of body cap S_{t_j}(xi_j) for each unit row
    xi_j of xis and half-width t_j of ts: the one choice of slab estimator.

    A polytope's slabs are built and enumerated in stacks (slab_hpolytopes),
    each product taken per slab, and their exact values come in stacked
    passes (_exact_values).  A planar slab takes the boundary polyline of
    its slab oracle, one slab at a time.  In R^3 the slabs of a body of
    revolution take the axial integrals of revolution_slab_volumes at levels
    (-t, t), and so do those of a translate K - s of one, at levels
    <s, xi> -+ t: (K - s) cap S_t(xi) is K cap {|<x, xi> - <s, xi>| <= t}
    moved by -s.  A ball or translated ball takes the closed forms of
    ball_slab_volumes.  So every value is the one its slab gets alone.  Any
    other body, and every body above R^3, raises ExperimentError.
    """
    if body.polytope is not None and body.dim <= 3:
        return _exact_values(slab_hpolytopes(body.polytope, xis, ts), i)
    if body.dim == 2:
        ests = [planar_metrics_from_oracle(slab_oracle(body, SlabSpec(xi, t)))[i - 1]
                for xi, t in zip(xis, ts.tolist())]
        return (np.array([est.value for est in ests], dtype=float),
                np.array([est.stderr for est in ests], dtype=float), "polyline")
    if body.dim == 3 and body.ball is not None:
        return ball_slab_volumes(body.ball, xis, -ts, ts, i)
    base, shift = body.translate or (body, np.zeros(body.dim))
    if body.dim == 3 and base.revolution is not None:
        mid = (xis * shift).sum(axis=1)
        return revolution_slab_volumes(base.revolution, xis, mid - ts, mid + ts, i)
    raise ExperimentError(f"no slab estimator for a body of kind '{body.kind}' in R^{body.dim}")


def slab_experiment(oracle_K: ConvexBodyOracle, oracle_L: ConvexBodyOracle,
                    t: float, i: int, num_xi: int, rng: RngStream, tol: float) -> ExperimentReport:
    """V_i(K cap S_t(xi)) vs V_i(L cap S_t(xi)) over random slab normals,
    each body's values from _slab_values."""
    n = _shared_dim(oracle_K, oracle_L)
    if not 1 <= i <= n:
        raise ExperimentError(f"need 1 <= i <= n, got i={i}, n={n}")
    t_max = min(max_slab_halfwidth(oracle_K), max_slab_halfwidth(oracle_L))
    if not 0.0 < t <= t_max:
        raise ExperimentError(
            f"slab half-width {t} outside (0, {t_max:.9g}] (max admissible t)")
    xis = sample_haar_bases(n, 1, num_xi, rng)[:, :, 0]
    ts = np.full(num_xi, t)
    return _paired_run("slabs", oracle_K, oracle_L, xis,
                       lambda oracle: _slab_values(oracle, xis, ts, i), rng, tol,
                       {"t": t, "i": i})


# ---------------------------------------------------------------------------
# Projections


def _projection_values(body: ConvexBodyOracle, bases: np.ndarray) -> Rows:
    """(vol_k of body|V_j, stderrs, method) for every n x k basis V_j of the
    (m, n, k) stack bases: the one choice of projection estimator.

    A body with vertex data (body.vrep) is exact: widths for k = 1, one
    subspace per product (its vertices @ u rounds its last ulp with the row
    count); Cauchy's formula for k = n - 1 (cauchy_projection_volumes,
    `exact-cauchy`: facet volumes once per body, one broadcast product per
    stack); and for k = 2 in R^4 the hull of its projected vertices, one
    Subspace per basis.  For every k >= 2 a ball or translated ball projects
    to a k-ball of its radius R (`exact-ball`), and a body of revolution or
    a translate of one, which projects as its base, takes the profile
    quadrature of revolution_projection_volumes.  Their k = 1 widths come
    from one support call on the stacked rows (u_0, -u_0, u_1, -u_1, ...),
    which gives each row the value it gets alone.  Any other body raises
    ExperimentError.
    """
    k, zeros = bases.shape[2], np.zeros(len(bases))
    vrep = body.vrep
    if k == 1 and vrep is None:
        return antipodal_sums(body.support, bases[:, :, 0]), zeros, "exact-width"
    if k == 1:
        heights = [vrep.vertices @ u for u in bases[:, :, 0]]
        return np.array([h.max() - h.min() for h in heights], dtype=float), zeros, "exact-width"
    if vrep is not None and k == body.dim - 1:
        return cauchy_projection_volumes(body.polytope, bases), zeros, "exact-cauchy"
    if body.ball is not None:
        return np.full(len(bases), kappa(k) * body.ball[0] ** k), zeros, "exact-ball"
    if (base := (body.translate or (body,))[0]).revolution is not None:
        return revolution_projection_volumes(base.revolution, bases)
    if vrep is not None and k == 2:
        return (np.array([polygon_metrics(projection_polygon(vrep, Subspace(b)))[0]
                          for b in bases], dtype=float), zeros, "exact-polygon")
    raise ExperimentError(
        f"no projection estimator for a body of kind '{body.kind}' in R^{body.dim}")


def projections_experiment(oracle_K: ConvexBodyOracle, oracle_L: ConvexBodyOracle,
                           k: int, num_h: int, rng: RngStream,
                           tol: float) -> ExperimentReport:
    """vol_k(K|V) vs vol_k(L|V) over Haar-random k-subspaces V, each body's
    values from _projection_values."""
    n = _shared_dim(oracle_K, oracle_L)
    if not 1 <= k <= n - 1:
        raise ExperimentError(f"need 1 <= k <= n-1, got k={k}, n={n}")
    bases = sample_haar_bases(n, k, num_h, rng)
    return _paired_run("projections", oracle_K, oracle_L, bases,
                       lambda oracle: _projection_values(oracle, bases), rng, tol, {"k": k})


def kubota_intrinsic_volume(body, k: int, i: int, m: int, rng: RngStream) -> IVEstimate:
    """V_i via Kubota's recursion: flag coefficient times the Haar average
    of i-dimensional projection volumes over G(k, i).

    `body` lives in dimension k; every projection volume is the row
    _projection_values gives its basis alone, so a body with no projection
    row for i raises ExperimentError.  Invalid indices raise EstimateError.
    """
    if not 1 <= i <= k:
        raise EstimateError(f"invalid Kubota indices i={i}, k={k}")
    if body.dim != k:
        raise EstimateError("body must live in dimension k")
    if i == k:
        return volume_radial(body, k, rng=rng)
    if m < 1:
        raise EstimateError("need at least one subspace sample")
    vols = _projection_values(body, sample_haar_bases(k, i, m, rng))[0]
    c = flag_coefficient(k, i)
    value = c * float(vols.mean())
    stderr = c * float(vols.std(ddof=1) / math.sqrt(m)) if m > 1 else 0.0
    return IVEstimate(i, value, stderr, "kubota-mc", m)


# ---------------------------------------------------------------------------
# slab-to-section convergence


def convergence_experiment(oracle: ConvexBodyOracle, xi: np.ndarray, i: int,
                           t_sequence) -> ExperimentReport:
    """V_i(K cap S_t(xi)) against the central-section value as t shrinks.

    Passes when the differences decrease monotonically (up to estimator
    noise) and the final difference is consistent with linear decay in t.
    The section value comes from _section_values and the slab values of
    every t from _slab_values, as in the sections and slabs experiments.
    """
    n = oracle.dim
    if n != 3:
        raise ExperimentError("convergence experiment supports n = 3")
    if not 1 <= i <= n - 1:
        raise ExperimentError(f"need 1 <= i <= n-1, got i={i}, n={n}")
    ts = [float(t) for t in t_sequence]
    if len(ts) < 2 or any(b >= a for a, b in zip(ts, ts[1:])) or ts[-1] <= 0.0:
        raise ExperimentError("t sequence must be strictly decreasing and positive")
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (n,) or not abs(np.linalg.norm(xi) - 1.0) <= 1e-12:
        raise ExperimentError(f"slab normal must be a finite unit vector in R^{n}")
    t_max = max_slab_halfwidth(oracle)
    if ts[0] > t_max:
        raise ExperimentError(f"largest t {ts[0]} exceeds max admissible {t_max:.9g}")

    # section value through the plane orthogonal to xi
    basis = _orthogonal_complement(xi)
    (sec_value,), (sec_err,), _ = _section_values(oracle, basis[None], i)
    value, errs, _ = _slab_values(oracle, np.tile(xi, (len(ts), 1)), np.array(ts), i)
    errs = errs + sec_err
    diffs = value - sec_value
    samples = _sample_table(np.array(ts)[:, None], value, np.full(len(ts), float(sec_value)),
                            np.abs(diffs), errs)
    diffs, errs = diffs.tolist(), errs.tolist()

    slack = [3.0 * e + 1e-12 for e in errs]
    monotone = all(diffs[j + 1] <= diffs[j] + slack[j] + slack[j + 1]
                   for j in range(len(ts) - 1))
    nonneg = all(d >= -s for d, s in zip(diffs, slack))
    ratio_c = max(max(d, 0.0) / t for d, t in zip(diffs, ts))
    final_ok = diffs[-1] <= ratio_c * ts[-1] + slack[-1]
    summary = _judge(samples, 0.0)
    summary.update({
        "section_value": float(sec_value),
        "diffs": diffs,
        "fitted_C": float(ratio_c),
        "monotone": bool(monotone),
        "pass": bool(monotone and nonneg and final_ok),
        "rule": "monotone-decay",
    })
    return ExperimentReport(
        "convergence", {}, {
            "i": i, "t_sequence": ts, "xi": [float(x) for x in xi],
            "dimension": n,
        }, samples, summary)


def _orthogonal_complement(xi: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of the hyperplane orthogonal to the
    unit vector xi (convergence_experiment checks its length).

    The trailing right singular vectors of the 1 x n matrix xi^T: the basis
    scipy.linalg.null_space returns, without the memory of importing
    scipy.linalg (about 35 MB resident).
    """
    return np.linalg.svd(xi[None], full_matrices=True)[2][1:].T


# ---------------------------------------------------------------------------
# noncongruence certificates


@dataclass(frozen=True)
class NoncongruenceCertificate:
    method: str    # vertex-distance-multiset | profile-mismatch | harmonic-spectrum
    statistic: float
    threshold: float
    assumptions: tuple

    @property
    def verdict(self) -> str:
        """One-way: only a statistic above the threshold (never NaN) is
        conclusive."""
        return "noncongruent" if self.statistic > self.threshold else "inconclusive"


def _distance_signature(vertices: np.ndarray) -> np.ndarray:
    """Sorted pairwise distances of the centred vertices.

    Distances come in scipy's pdist order and bytes, without importing
    scipy.spatial.
    """
    centered = vertices - vertices.mean(axis=0)
    i, j = np.triu_indices(len(centered), k=1)
    return np.sort(np.linalg.norm(centered[i] - centered[j], axis=1))


def _vertex_distance_certificate(vrep_K, vrep_L) -> NoncongruenceCertificate:
    """Isometries preserve the multiset of pairwise vertex distances."""
    sig_k = _distance_signature(vrep_K.vertices)
    sig_l = _distance_signature(vrep_L.vertices)
    if sig_k.size != sig_l.size:
        stat = 1.0
    else:
        stat = float(np.max(np.abs(sig_k - sig_l)))
    thr = 1e-6
    return NoncongruenceCertificate(
        "vertex-distance-multiset", stat, thr,
        ("congruence maps vertices to vertices, preserving all pairwise distances",))


def _profile_certificate(spec_K: RevolutionBodySpec,
                         spec_L: RevolutionBodySpec) -> NoncongruenceCertificate:
    """Sup-distance between generating profiles, up to the axis flip."""
    ts = np.linspace(-1.0, 1.0, 100_000)
    f = profile(spec_K, ts)
    g = profile(spec_L, ts)
    stat = float(min(np.max(np.abs(f - g)), np.max(np.abs(f - g[::-1]))))
    thr = spec_K.epsilon * math.exp(-1.0) / 2.0
    return NoncongruenceCertificate(
        "profile-mismatch", stat, thr,
        ("any isometry between non-spherical bodies of revolution maps the "
         "symmetry axis to the symmetry axis",))


def _harmonic_certificate(oracle_K: ConvexBodyOracle,
                          oracle_L: ConvexBodyOracle) -> NoncongruenceCertificate:
    """Rotation-invariant spherical-harmonic energy spectra of the radial
    functions, after centroid centering (translation-invariant as well)."""
    dirs, weights, legendre = _harmonic_grid(16, 256, 512)
    energies = []
    for oracle in (oracle_K, oracle_L):
        centered = translate_oracle(oracle, centroid_3d(oracle, dirs, weights))
        energies.append(_radial_energy_spectrum(centered, dirs, legendre))
    stat = float(np.max(np.abs(energies[0] - energies[1])))
    thr = 1e-6
    return NoncongruenceCertificate(
        "harmonic-spectrum", stat, thr,
        ("per-degree harmonic energies of the centered radial function are "
         "invariant under every isometry fixing the centroid",))


def _harmonic_grid(degree: int, n_theta: int,
                   n_phi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quadrature grid of the energy spectrum and its Legendre table.

    Directions are n_theta Gauss-Legendre latitudes (rows) times n_phi
    equispaced longitudes, flattened row-major; their weights (Gauss weight
    times 2 pi / n_phi) integrate polynomials of degree below
    min(2 n_theta, n_phi) on the sphere exactly.  legendre[i, m, l] is the
    orthonormal associated Legendre value Pbar_l^m(z_i), with
    Y_lm = Pbar_l^m(cos theta) e^{i m phi}, times the Gauss weight w_i; it
    is zero for m > l.  The table comes from the standard three-term
    recurrences (Schaeffer 2013, arXiv:1202.6522): the diagonal seed
    Pbar_m^m, the step to Pbar_{m+1}^m, then the recurrence in l.  The
    Condon-Shortley phase is dropped, since energies only see |a_lm|.
    """
    z, w = np.polynomial.legendre.leggauss(n_theta)
    s = np.sqrt((1.0 - z) * (1.0 + z))               # sin(theta) at the nodes
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    dirs = np.column_stack([
        np.outer(s, np.cos(phi)).ravel(),
        np.outer(s, np.sin(phi)).ravel(),
        np.repeat(z, n_phi),
    ])
    p = np.zeros((n_theta, degree + 1, degree + 1))  # [i, m, l]
    diag = np.full(n_theta, 1.0 / math.sqrt(4.0 * math.pi))
    for m in range(degree + 1):
        if m > 0:
            diag = math.sqrt((2 * m + 1) / (2 * m)) * s * diag
        p[:, m, m] = diag
        if m < degree:
            p[:, m, m + 1] = math.sqrt(2 * m + 3) * z * diag
        for ell in range(m + 2, degree + 1):
            a = math.sqrt((4 * ell * ell - 1) / (ell * ell - m * m))
            b = math.sqrt(((ell - 1) ** 2 - m * m) / (4 * (ell - 1) ** 2 - 1))
            p[:, m, ell] = a * (z * p[:, m, ell - 1] - b * p[:, m, ell - 2])
    weights = np.repeat(w * (2.0 * np.pi / n_phi), n_phi)
    return dirs, weights, p * w[:, None, None]


def _radial_energy_spectrum(oracle: ConvexBodyOracle, dirs: np.ndarray,
                            legendre: np.ndarray) -> np.ndarray:
    """Per-degree energies sum_m |a_lm|^2 of the radial function on the
    directions and table of _harmonic_grid: one real FFT per latitude row
    gives the longitude integrals, and the Legendre table does the latitude
    quadrature."""
    n_theta, n_m, _ = legendre.shape
    rho = np.asarray(oracle.radial(dirs), dtype=float).reshape(n_theta, -1)
    # longitude integrals: (2 pi / n_phi) sum_j rho_ij e^{-i m phi_j}
    rows = np.fft.rfft(rho, axis=1)[:, :n_m] * (2.0 * np.pi / rho.shape[1])
    coeff = np.einsum("iml,im->ml", legendre, rows)   # a_lm, m >= 0
    # real rho: |a_{l,-m}| = |a_{l,m}|, so m > 0 counts twice
    mult = np.full(n_m, 2.0)
    mult[0] = 1.0
    return mult @ (coeff.real ** 2 + coeff.imag ** 2)


def noncongruence_certificates(pair: BodyPair) -> list:
    """Necessary-condition certificates; verdicts are one-way by design.

    The harmonic spectrum is a fallback: it runs only when no primary
    method was conclusive, and only for bodies without facet kinks (the
    fixed quadrature grid resolves smooth radial functions to well below
    the decision threshold, but not piecewise-smooth ones).  It samples
    the centered radial function on 256 Gauss-Legendre latitudes times 512
    longitudes and gets the degree <= 16 coefficients from one real FFT
    per latitude plus a recurrence-built Legendre table, shared by K and L.
    """
    K, L = pair.oracle_K, pair.oracle_L
    certs = []
    if K.vrep is not None and L.vrep is not None:
        certs.append(_vertex_distance_certificate(K.vrep, L.vrep))
    if K.revolution is not None and L.revolution is not None:
        certs.append(_profile_certificate(K.revolution, L.revolution))
    if (not any(c.verdict == "noncongruent" for c in certs)
            and K.dim == 3 and L.dim == 3
            and K.polytope is None and L.polytope is None):
        certs.append(_harmonic_certificate(K, L))
    if not certs:
        raise ExperimentError("no certificate method applies to this pair")
    return certs


def certify_report(pair: BodyPair) -> ExperimentReport:
    """Wrap the certificate battery in a report; pass means the verdicts
    match the pair's known congruence status."""
    certs = noncongruence_certificates(pair)
    found = any(c.verdict == "noncongruent" for c in certs)
    ok = found if pair.expect_noncongruent else not found
    summary = {
        "noncongruent": found,
        "expected_noncongruent": pair.expect_noncongruent,
        "pass": bool(ok),
        "tolerance": 0.0,
        "max_rel_diff": 0.0,
        "mean_rel_diff": 0.0,
        "max_abs_diff": 0.0,
        "rule": "certificates",
        "certificates": [{
            "method": c.method,
            "statistic": c.statistic,
            "threshold": c.threshold,
            "verdict": c.verdict,
            "assumptions": list(c.assumptions),
        } for c in certs],
    }
    empty = np.empty(0)
    return ExperimentReport("certify", pair.snapshots, {"pair": pair.name},
                            _sample_table(np.empty((0, 0)), empty, empty, empty, empty), summary)
