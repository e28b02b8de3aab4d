"""Runnable verifications: equality of section/projection/slab intrinsic
volumes for the constructed pairs, the slab-to-section limit, and
noncongruence certificates, each producing a structured report.

Pass rules: exact paths compare relative differences against the tolerance;
stochastic paths require every |difference| within 3 combined standard
errors plus the tolerance.  Controls (rotated / shifted copies) are wired
to FAIL the equality experiments, guarding against a harness that accepts
everything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bodies import (ConvexBodyOracle, PolytopeConstruction,
                     RevolutionBodySpec, ball_oracle, build_polytope_pair,
                     make_revolution_spec, oracle_of, profile)
from .grassmann import RngStream, Subspace, sample_haar_subspace, sample_sphere
from .intrinsic import (centroid_3d, hull_surface_v2, kubota_intrinsic_volume,
                        mean_width_v1, planar_metrics_from_oracle,
                        projection_volume, volume_radial)
from .polykernel import poly3_intrinsic_volumes, polygon_by_angle, polygon_metrics
from .transforms import (SlabSpec, max_slab_halfwidth, section_oracle,
                         slab_oracle, translate_oracle)


class ExperimentError(ValueError):
    """Raised for invalid experiment parameters."""


@dataclass(frozen=True)
class SampleRecord:
    """One per-sample comparison row; basis is flattened row-major."""

    id: int
    basis: tuple
    value_K: float
    value_L: float
    abs_diff: float
    rel_diff: float
    stderr: float
    extra: dict | None = None


@dataclass
class ExperimentReport:
    experiment: str
    bodies: dict
    parameters: dict
    samples: list
    summary: dict
    runtime_seconds: float = 0.0  # informational; kept out of serialized reports


def _rel(diff: float, a: float, b: float) -> float:
    scale = max(0.5 * (abs(a) + abs(b)), 1e-300)
    return diff / scale


def _judge(samples: list, tol: float) -> dict:
    """Summary statistics and the pass verdict for a list of SampleRecords."""
    if not samples:
        raise ExperimentError("experiment produced no samples")
    rels = np.array([s.rel_diff for s in samples])
    absd = np.array([s.abs_diff for s in samples])
    errs = np.array([s.stderr for s in samples])
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


def _paired_run(experiment: str, oracle_K: ConvexBodyOracle,
                oracle_L: ConvexBodyOracle, bases: list, value, rng: RngStream,
                tol: float, parameters: dict,
                snapshots: dict | None) -> ExperimentReport:
    """Compare one functional on K and on L, sample by sample.

    value(oracle, j, side) gives (value, stderr, method) of sample j, with
    side 1 for K and 2 for L; bases[j] is the sample's subspace basis or
    normal, recorded row-major.
    """
    samples = []
    methods = set()
    for j, basis in enumerate(bases):
        vk, sk, mk = value(oracle_K, j, 1)
        vl, sl, ml = value(oracle_L, j, 2)
        methods.update((mk, ml))
        diff = abs(vk - vl)
        samples.append(SampleRecord(
            j, tuple(float(x) for x in np.ravel(basis)), vk, vl, diff,
            _rel(diff, vk, vl), sk + sl))
    summary = _judge(samples, tol)
    summary["methods"] = sorted(methods)
    return ExperimentReport(experiment, snapshots or {}, {
        **parameters, "samples": len(bases), "seed": rng.seed, "tol": tol,
        "dimension": oracle_K.dim,
    }, samples, summary)


# ---------------------------------------------------------------------------
# fixture pairs


@dataclass(frozen=True)
class BodyPair:
    """A named pair of oracles plus the expectations the suite tests against."""

    name: str
    oracle_K: ConvexBodyOracle
    oracle_L: ConvexBodyOracle
    snapshots: dict
    expect_equal_values: bool      # should the equality experiments pass?
    expect_noncongruent: bool      # is the pair genuinely noncongruent?
    smooth_specs: tuple | None = None
    construction: PolytopeConstruction | None = None


DEFAULT_HALF_WIDTHS = (1.0, 1.2, 1.5, 1.8)

PAIR_NAMES = ("smooth", "polytope", "control-rotated", "control-shifted")


def make_pair(name: str, n: int = 3) -> BodyPair:
    """Build one of the named fixture pairs in dimension n."""
    if name == "smooth":
        spec_k = make_revolution_spec(n=n)
        spec_l = spec_k.partner()
        return BodyPair(
            name, oracle_of(spec_k), oracle_of(spec_l),
            {"K": spec_k.snapshot(), "L": spec_l.snapshot()},
            expect_equal_values=True, expect_noncongruent=True,
            smooth_specs=(spec_k, spec_l),
        )
    if name in ("polytope", "control-rotated"):
        if n not in (3, 4):
            raise ExperimentError(f"pair '{name}' supports n = 3 or 4, got n={n}")
        cons = build_polytope_pair(DEFAULT_HALF_WIDTHS[:n], [1] * n,
                                   [1] * (n - 1) + [-1])
        if name == "polytope":
            return BodyPair(
                name, oracle_of(cons.body_K), oracle_of(cons.body_L),
                {"K": cons.snapshot("K"), "L": cons.snapshot("L")},
                expect_equal_values=True, expect_noncongruent=True,
                construction=cons,
            )
        q = np.eye(n)
        q[n - 2:, n - 2:] = np.array([[0.0, -1.0], [1.0, 0.0]])
        rotated = cons.body_K.rotated(q)
        return BodyPair(
            name, oracle_of(cons.body_K), oracle_of(rotated),
            {"K": cons.snapshot("K"),
             "L": {"type": "derived", "base": cons.snapshot("K"),
                   "transform": "rotate-quarter-turn"}},
            expect_equal_values=False, expect_noncongruent=False,
        )
    if name == "control-shifted":
        ball = ball_oracle(n)
        shift = np.zeros(n)
        shift[0] = 0.3
        shifted = translate_oracle(ball, shift)
        return BodyPair(
            name, ball, shifted,
            {"K": {"type": "ball", "n": n, "radius": 1.0},
             "L": {"type": "derived", "base": {"type": "ball", "n": n, "radius": 1.0},
                   "transform": "translate", "shift": [float(x) for x in shift]}},
            expect_equal_values=False, expect_noncongruent=False,
        )
    raise ExperimentError(f"unknown pair '{name}' (choose from {PAIR_NAMES})")


# ---------------------------------------------------------------------------
# Antipodal pairing (the `lemma1` command)


def lemma1_check(oracle_K: ConvexBodyOracle, oracle_L: ConvexBodyOracle,
                 n_dirs: int, tol: float, rng: RngStream,
                 snapshots: dict | None = None) -> ExperimentReport:
    """Unordered-pair equality of radial and support values at antipodes.

    For each direction xi the discrepancy is the best-pairing distance
    between {rho_K(xi), rho_K(-xi)} and {rho_L(xi), rho_L(-xi)} (likewise
    for supports).  A 10x larger batch of boundary-straddling points
    spot-checks the reflection property of the difference set directly.
    """
    if oracle_K.dim != oracle_L.dim:
        raise ExperimentError("oracles must share a dimension")
    dirs = np.array([sample_sphere(oracle_K.dim, rng.substream(j))
                     for j in range(n_dirs)])
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

    samples = [
        SampleRecord(j, tuple(float(x) for x in dirs[j]),
                     float(rho_kp[j]), float(rho_lp[j]),
                     float(d_rho[j]), _rel(float(d_rho[j]), rho_kp[j], rho_lp[j]),
                     0.0, extra={"d_h": float(d_h[j])})
        for j in range(n_dirs)
    ]

    # reflection spot-check at midpoint radii, where one body but not the
    # other should contain the probe whenever the radial values differ
    pts_rng = rng.substream(0x7FFF_FFFF)
    probe = pts_rng.generator().standard_normal((10 * n_dirs, oracle_K.dim))
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
    failures = int(np.sum(bad_kl) + np.sum(bad_lk))

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
        "lemma1", snapshots or {}, {
            "samples": n_dirs, "seed": rng.seed, "tol": tol,
            "dimension": oracle_K.dim,
        }, samples, summary)


def _exact_value(body: ConvexBodyOracle, i: int) -> tuple[float, float, str]:
    """(V_i, 0, method) of a derived polytope oracle in dimension 2 or 3."""
    if body.dim == 2:
        area, perim = polygon_metrics(polygon_by_angle(body.vrep.vertices))
        return (perim / 2.0, area)[i - 1], 0.0, "exact-polygon"
    return poly3_intrinsic_volumes(body.polytope, body.vrep)[i - 1], 0.0, "exact-poly3"


# ---------------------------------------------------------------------------
# Sections


def _section_value(oracle: ConvexBodyOracle, sub: Subspace, i: int,
                   polyline_n: int, kubota_m: int,
                   rng: RngStream) -> tuple[float, float, str]:
    """(value, stderr, method) for V_i of the section oracle|span(sub)."""
    k = sub.dim
    if k == 1:
        b = sub.basis[:, 0]
        length = float(oracle.radial(b)) + float(oracle.radial(-b))
        return length, 0.0, "exact-segment"
    sec = section_oracle(oracle, sub)
    if sec.vrep is not None:
        return _exact_value(sec, i)
    if k == 2:
        est = planar_metrics_from_oracle(sec, polyline_n)[i - 1]
        return est.value, est.stderr, est.method
    est = kubota_intrinsic_volume(sec, k, i, kubota_m, rng)
    return est.value, est.stderr, est.method


def sections_experiment(oracle_K: ConvexBodyOracle, oracle_L: ConvexBodyOracle,
                        k: int, i: int, num_h: int, rng: RngStream, tol: float,
                        polyline_n: int = 8192, kubota_m: int = 64,
                        snapshots: dict | None = None) -> ExperimentReport:
    """V_i(K cap H) vs V_i(L cap H) over Haar-random k-subspaces H."""
    n = oracle_K.dim
    if oracle_L.dim != n:
        raise ExperimentError("oracles must share a dimension")
    if not 1 <= i <= k <= n - 1:
        raise ExperimentError(f"need 1 <= i <= k <= n-1, got i={i}, k={k}, n={n}")
    if k >= 4 and i < k:
        # Kubota projections of such a section need supports in dimension k
        raise ExperimentError(f"no section estimator for n={n}, k={k}, i={i}")
    subs = [sample_haar_subspace(n, k, rng.substream(j)) for j in range(num_h)]

    def value(oracle, j, side):
        return _section_value(oracle, subs[j], i, polyline_n, kubota_m,
                              rng.substream(j).substream(side))

    return _paired_run("sections", oracle_K, oracle_L, [s.basis for s in subs],
                       value, rng, tol, {"k": k, "i": i, "polyline_n": polyline_n},
                       snapshots)


# ---------------------------------------------------------------------------
# Slabs


def _slab_value(oracle: ConvexBodyOracle, spec: SlabSpec, i: int,
                vol_nodes: int, width_nodes: int,
                hull_nodes: int) -> tuple[float, float, str]:
    slab = slab_oracle(oracle, spec)
    if slab.vrep is not None:
        return _exact_value(slab, i)
    if i == slab.dim:
        est = volume_radial(slab, i, nodes=vol_nodes)
    elif i == 1:
        est = mean_width_v1(slab, nodes=width_nodes)
    else:
        est = hull_surface_v2(slab, nodes=hull_nodes)
    return est.value, est.stderr, est.method


def slab_experiment(oracle_K: ConvexBodyOracle, oracle_L: ConvexBodyOracle,
                    t: float, i: int, num_xi: int, rng: RngStream, tol: float,
                    vol_nodes: int = 200_000, width_nodes: int = 512,
                    hull_nodes: int = 20_000,
                    snapshots: dict | None = None) -> ExperimentReport:
    """V_i(K cap S_t(xi)) vs V_i(L cap S_t(xi)) over random slab normals."""
    n = oracle_K.dim
    if not 1 <= i <= n:
        raise ExperimentError(f"need 1 <= i <= n, got i={i}, n={n}")
    exact = oracle_K.polytope is not None and oracle_L.polytope is not None
    if not (n == 3 or (n == 2 and (i == 2 or exact))):
        raise ExperimentError(f"no slab estimator for n={n}, i={i}")
    t_max = min(max_slab_halfwidth(oracle_K), max_slab_halfwidth(oracle_L))
    if not 0.0 < t <= t_max:
        raise ExperimentError(
            f"slab half-width {t} outside (0, {t_max:.9g}] (max admissible t)")
    xis = [sample_sphere(n, rng.substream(j)) for j in range(num_xi)]

    def value(oracle, j, side):
        return _slab_value(oracle, SlabSpec(xis[j], t), i, vol_nodes,
                           width_nodes, hull_nodes)

    return _paired_run("slabs", oracle_K, oracle_L, xis, value, rng, tol,
                       {"t": t, "i": i}, snapshots)


# ---------------------------------------------------------------------------
# Projections


def projections_experiment(oracle_K: ConvexBodyOracle, oracle_L: ConvexBodyOracle,
                           k: int, num_h: int, rng: RngStream, tol: float,
                           area_n: int = 8192,
                           snapshots: dict | None = None) -> ExperimentReport:
    """vol_k(K|V) vs vol_k(L|V) over Haar-random k-subspaces V."""
    n = oracle_K.dim
    if not 1 <= k <= n - 1:
        raise ExperimentError(f"need 1 <= k <= n-1, got k={k}, n={n}")
    subs = [sample_haar_subspace(n, k, rng.substream(j)) for j in range(num_h)]

    def value(oracle, j, side):
        vol, method = projection_volume(oracle, subs[j], area_n)
        return vol, 0.0, method

    return _paired_run("projections", oracle_K, oracle_L, [s.basis for s in subs],
                       value, rng, tol, {"k": k}, snapshots)


# ---------------------------------------------------------------------------
# slab-to-section convergence


def convergence_experiment(oracle: ConvexBodyOracle, xi: np.ndarray, i: int,
                           t_sequence, polyline_n: int = 8192,
                           vol_nodes: int = 100_000, width_nodes: int = 512,
                           hull_nodes: int = 20_000,
                           snapshots: dict | None = None) -> ExperimentReport:
    """V_i(K cap S_t(xi)) against the central-section value as t shrinks.

    Passes when the differences decrease monotonically (up to estimator
    noise) and the final difference is consistent with linear decay in t.
    """
    n = oracle.dim
    if n != 3:
        raise ExperimentError("convergence experiment supports n = 3")
    if not 1 <= i <= n - 1:
        raise ExperimentError(f"need 1 <= i <= n-1, got i={i}, n={n}")
    ts = [float(t) for t in t_sequence]
    if len(ts) < 2 or any(b >= a for a, b in zip(ts, ts[1:])) or ts[-1] <= 0.0:
        raise ExperimentError("t sequence must be strictly decreasing and positive")
    t_max = max_slab_halfwidth(oracle)
    if ts[0] > t_max:
        raise ExperimentError(f"largest t {ts[0]} exceeds max admissible {t_max:.9g}")
    xi = np.asarray(xi, dtype=float)

    # section value through the plane orthogonal to xi
    sec_value, sec_err, _ = _section_value(oracle, Subspace(_orthogonal_complement(xi)),
                                           i, polyline_n, kubota_m=0, rng=None)

    samples = []
    diffs, errs = [], []
    for j, t in enumerate(ts):
        vk, sk, _ = _slab_value(oracle, SlabSpec(xi, t), i,
                                vol_nodes, width_nodes, hull_nodes)
        d = vk - sec_value
        diffs.append(d)
        errs.append(sk + sec_err)
        samples.append(SampleRecord(
            j, (t,), vk, sec_value, abs(d), _rel(abs(d), vk, sec_value), sk + sec_err))

    slack = [3.0 * e + 1e-12 for e in errs]
    monotone = all(diffs[j + 1] <= diffs[j] + slack[j] + slack[j + 1]
                   for j in range(len(ts) - 1))
    nonneg = all(d >= -s for d, s in zip(diffs, slack))
    ratio_c = max(max(d, 0.0) / t for d, t in zip(diffs, ts))
    final_ok = diffs[-1] <= ratio_c * ts[-1] + slack[-1]
    summary = {
        "section_value": sec_value,
        "diffs": [float(d) for d in diffs],
        "fitted_C": float(ratio_c),
        "monotone": bool(monotone),
        "pass": bool(monotone and nonneg and final_ok),
        "tolerance": 0.0,
        "max_rel_diff": float(max(s.rel_diff for s in samples)),
        "mean_rel_diff": float(np.mean([s.rel_diff for s in samples])),
        "max_abs_diff": float(max(s.abs_diff for s in samples)),
        "rule": "monotone-decay",
    }
    return ExperimentReport(
        "convergence", snapshots or {}, {
            "i": i, "t_sequence": ts, "xi": [float(x) for x in xi],
            "dimension": n,
        }, samples, summary)


def _orthogonal_complement(xi: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of the hyperplane orthogonal to xi.

    The trailing right singular vectors of the 1 x n matrix u^T: the basis
    scipy.linalg.null_space returns, without the memory of importing
    scipy.linalg (about 35 MB resident).
    """
    u = xi / np.linalg.norm(xi)
    return np.linalg.svd(u[None], full_matrices=True)[2][1:].T


# ---------------------------------------------------------------------------
# noncongruence certificates


@dataclass(frozen=True)
class NoncongruenceCertificate:
    method: str    # vertex-distance-multiset | profile-mismatch | harmonic-spectrum
    statistic: float
    threshold: float
    verdict: str   # noncongruent | inconclusive
    assumptions: tuple

    def __post_init__(self):
        if self.verdict not in ("noncongruent", "inconclusive"):
            raise ExperimentError("verdict must be noncongruent or inconclusive")
        if self.verdict == "noncongruent" and not self.statistic > self.threshold:
            raise ExperimentError("noncongruent verdict requires statistic > threshold")


def _verdict(statistic: float, threshold: float) -> str:
    return "noncongruent" if statistic > threshold else "inconclusive"


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
        "vertex-distance-multiset", stat, thr, _verdict(stat, thr),
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
        "profile-mismatch", stat, thr, _verdict(stat, thr),
        ("any isometry between non-spherical bodies of revolution maps the "
         "symmetry axis to the symmetry axis",))


def _harmonic_certificate(oracle_K: ConvexBodyOracle, oracle_L: ConvexBodyOracle,
                          degree: int = 16, n_theta: int = 256,
                          n_phi: int = 512) -> NoncongruenceCertificate:
    """Rotation-invariant spherical-harmonic energy spectra of the radial
    functions, after centroid centering (translation-invariant as well)."""
    dirs, legendre = _harmonic_grid(degree, n_theta, n_phi)
    energies = []
    for oracle in (oracle_K, oracle_L):
        centered = translate_oracle(oracle, centroid_3d(oracle))
        energies.append(_radial_energy_spectrum(centered, dirs, legendre))
    stat = float(np.max(np.abs(energies[0] - energies[1])))
    thr = 1e-6
    return NoncongruenceCertificate(
        "harmonic-spectrum", stat, thr, _verdict(stat, thr),
        ("per-degree harmonic energies of the centered radial function are "
         "invariant under every isometry fixing the centroid",))


def _harmonic_grid(degree: int, n_theta: int,
                   n_phi: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature grid of the energy spectrum and its Legendre table.

    Directions are n_theta Gauss-Legendre latitudes (rows) times n_phi
    equispaced longitudes, flattened row-major.  legendre[i, m, l] is the
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
    return dirs, p * w[:, None, None]


def _radial_energy_spectrum(oracle: ConvexBodyOracle, dirs: np.ndarray,
                            legendre: np.ndarray) -> np.ndarray:
    """Per-degree energies sum_m |a_lm|^2 of the radial function on the grid
    of _harmonic_grid: one real FFT per latitude row gives the longitude
    integrals, and the Legendre table does the latitude quadrature."""
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
    certs = []
    if pair.construction is not None or (
            pair.oracle_K.vrep is not None and pair.oracle_L.vrep is not None):
        certs.append(_vertex_distance_certificate(pair.oracle_K.vrep,
                                                  pair.oracle_L.vrep))
    if pair.smooth_specs is not None:
        certs.append(_profile_certificate(*pair.smooth_specs))
    if (not any(c.verdict == "noncongruent" for c in certs)
            and pair.oracle_K.dim == 3 and pair.oracle_L.dim == 3
            and pair.oracle_K.polytope is None and pair.oracle_L.polytope is None):
        certs.append(_harmonic_certificate(pair.oracle_K, pair.oracle_L))
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
    return ExperimentReport("certify", pair.snapshots, {"pair": pair.name},
                            [], summary)
