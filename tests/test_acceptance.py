"""Acceptance suite: each test checks one published criterion end to end and
prints a single [PASS]/[FAIL] line with the measured statistics."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import convexlab
from convexlab.bodies import ball_oracle, oracle_of
from convexlab.experiments import (BodyPair, certify_report,
                                   convergence_experiment, lemma1_check,
                                   noncongruence_certificates,
                                   projections_experiment, sections_experiment,
                                   slab_experiment)
from convexlab.grassmann import RngStream, sample_haar_subspace
from convexlab.intrinsic import (ball_intrinsic_volume, kubota_intrinsic_volume,
                                 steiner_disc_area)
from convexlab.polykernel import HPolytope, poly3_intrinsic_volumes, section_polygon
from convexlab.transforms import SlabSpec, slab_oracle


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion-{num:02d}: {detail}")
    assert ok, f"criterion-{num:02d}: {detail}"


def test_criterion_01_antipodal_pairing(smooth_pair, polytope_pair, shifted_pair):
    t0 = time.monotonic()
    rs = lemma1_check(smooth_pair.oracle_K, smooth_pair.oracle_L,
                      10_000, 1e-8, RngStream(101, 1))
    rp = lemma1_check(polytope_pair.oracle_K, polytope_pair.oracle_L,
                      10_000, 1e-11, RngStream(101, 2))
    rc = lemma1_check(shifted_pair.oracle_K, shifted_pair.oracle_L,
                      10_000, 1e-8, RngStream(101, 3))
    elapsed = time.monotonic() - t0
    ok = (rs.summary["max_d_rho"] <= 1e-8 and rs.summary["max_d_h"] <= 1e-8
          and rs.summary["point_check_failures"] == 0
          and rp.summary["max_d_rho"] <= 1e-11 and rp.summary["max_d_h"] <= 1e-11
          and rp.summary["point_check_failures"] == 0
          and rc.summary["max_d_rho"] >= 0.29
          and elapsed < 30.0)
    _report(1, ok,
            f"pairing d_rho smooth {rs.summary['max_d_rho']:.2e} <= 1e-8, "
            f"polytope {rp.summary['max_d_rho']:.2e} <= 1e-11, "
            f"0 point-check failures, control d_rho "
            f"{rc.summary['max_d_rho']:.3f} >= 0.29, {elapsed:.1f}s < 30s")


def test_criterion_02_sections_exact_polytope(polytope_pair):
    t0 = time.monotonic()
    worst = 0.0
    for i in (1, 2):
        rep = sections_experiment(polytope_pair.oracle_K, polytope_pair.oracle_L,
                                  2, i, 200, RngStream(102, i), 1e-9)
        worst = max(worst, rep.summary["max_rel_diff"])
        if not rep.summary["pass"]:
            worst = max(worst, 1.0)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    _report(2, ok, f"planar sections of the cut boxes, i in {{1,2}}, 200 planes, "
                   f"max rel_diff {worst:.2e} <= 1e-9, {elapsed:.1f}s < 10s")


def test_criterion_03_sections_smooth(smooth_pair):
    t0 = time.monotonic()
    worst = 0.0
    for i in (1, 2):
        rep = sections_experiment(smooth_pair.oracle_K, smooth_pair.oracle_L,
                                  2, i, 200, RngStream(103, i), 1e-5,
                                  polyline_n=8192)
        worst = max(worst, rep.summary["max_rel_diff"])
        if not rep.summary["pass"]:
            worst = max(worst, 1.0)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-5 and elapsed < 120.0
    _report(3, ok, f"planar sections of the revolution pair, perimeter and "
                   f"area, 200 planes at polyline 8192, max rel_diff "
                   f"{worst:.2e} <= 1e-5, {elapsed:.1f}s < 2min")


def test_criterion_04_slabs(smooth_pair, polytope_pair):
    t0 = time.monotonic()
    worst_exact = 0.0
    for i in (1, 2, 3):
        rep = slab_experiment(polytope_pair.oracle_K, polytope_pair.oracle_L,
                              0.5, i, 100, RngStream(104, i), 1e-9)
        worst_exact = max(worst_exact, rep.summary["max_rel_diff"])
        if not rep.summary["pass"]:
            worst_exact = max(worst_exact, 1.0)
    rep_s = slab_experiment(smooth_pair.oracle_K, smooth_pair.oracle_L,
                            0.5, 3, 50, RngStream(104, 9), 1e-4,
                            vol_nodes=100_000)
    elapsed = time.monotonic() - t0
    ok = worst_exact <= 1e-9 and rep_s.summary["pass"] and elapsed < 120.0
    _report(4, ok, f"slab volumes: cut boxes i in {{1,2,3}} 100 normals max "
                   f"rel_diff {worst_exact:.2e} <= 1e-9; revolution pair i=3 "
                   f"50 normals within 3 stderr + 1e-4 (max abs diff "
                   f"{rep_s.summary['max_abs_diff']:.2e}), {elapsed:.1f}s < 2min")


def test_criterion_05_projections(smooth_pair, polytope_pair):
    t0 = time.monotonic()
    stats = {}
    runs = (
        ("smooth-k1", smooth_pair, 1, 1e-8),
        ("smooth-k2", smooth_pair, 2, 1e-4),
        ("polytope-k1", polytope_pair, 1, 1e-8),
        ("polytope-k2", polytope_pair, 2, 1e-9),
    )
    ok = True
    for idx, (label, pair, k, tol) in enumerate(runs):
        rep = projections_experiment(pair.oracle_K, pair.oracle_L, k, 200,
                                     RngStream(105, idx), tol)
        stats[label] = rep.summary["max_rel_diff"]
        ok = ok and rep.summary["pass"]
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    _report(5, ok, "shadow volumes, 200 subspaces each: "
            + ", ".join(f"{k} rel {v:.2e}" for k, v in stats.items())
            + f", {elapsed:.1f}s < 1min")


def test_criterion_06_kubota_calibration(polytope_pair):
    t0 = time.monotonic()
    ok = True
    worst = 0.0
    for k in (2, 3, 4):
        for i in range(1, k + 1):
            m = 8 if (k, i) == (4, 3) else 32
            est = kubota_intrinsic_volume(ball_oracle(k), k, i, m,
                                          RngStream(106, 10 * k + i))
            err = abs(est.value - ball_intrinsic_volume(k, i))
            worst = max(worst, err)
            ok = ok and err <= 3.0 * est.stderr + 1e-12

    vrep = polytope_pair.construction.vrep_K
    exact_v1 = poly3_intrinsic_volumes(polytope_pair.construction.body_K, vrep)[0]
    est = kubota_intrinsic_volume(polytope_pair.oracle_K, 3, 1, 10_000,
                                  RngStream(106, 99))
    mc_err = abs(est.value - exact_v1)
    ok = ok and mc_err <= 3.0 * est.stderr
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    _report(6, ok, f"Kubota estimator: unit balls k=2..4 worst err {worst:.2e} "
                   f"within 3 stderr + 1e-12; cut-box V1 MC err {mc_err:.2e} "
                   f"<= 3 stderr ({3.0 * est.stderr:.2e}), {elapsed:.1f}s < 1min")


def _parallel_body_fraction(verts: np.ndarray, pts: np.ndarray, eps: float) -> float:
    """Fraction of pts within distance eps of a convex CCW polygon."""
    m = verts.shape[0]
    inside = np.ones(pts.shape[0], dtype=bool)
    min_d2 = np.full(pts.shape[0], np.inf)
    for j in range(m):
        a, b = verts[j], verts[(j + 1) % m]
        ab = b - a
        ap = pts - a
        inside &= ab[0] * ap[:, 1] - ab[1] * ap[:, 0] >= 0.0
        tt = np.clip((ap @ ab) / float(ab @ ab), 0.0, 1.0)
        d = ap - tt[:, None] * ab
        min_d2 = np.minimum(min_d2, np.einsum("ij,ij->i", d, d))
    return float(np.mean(inside | (min_d2 <= eps * eps)))


def test_criterion_07_steiner(polytope_pair):
    t0 = time.monotonic()
    fixtures = (([0.5, 1.0, 1.0], (5.0, 8.0, 4.0)),
                ([1.0, 1.0, 1.0], (6.0, 12.0, 8.0)))
    ok = True
    for a, expected in fixtures:
        vals = poly3_intrinsic_volumes(HPolytope.box(a))
        ok = ok and all(abs(v - e) <= 1e-12 for v, e in zip(vals, expected))

    # Steiner polynomial vs Monte-Carlo parallel-body areas for polygons cut
    # from the two bodies (25 planes x 2 bodies = 50 polygons)
    rng = RngStream(107, 0)
    n_pts = 1_000_000
    eps_cycle = (0.1, 0.25, 0.5)
    worst_sigma = 0.0
    count = 0
    for j in range(25):
        sub = sample_haar_subspace(3, 2, rng.substream(j))
        for which, oracle in (("K", polytope_pair.oracle_K),
                              ("L", polytope_pair.oracle_L)):
            poly = section_polygon(oracle.polytope, sub)
            eps = eps_cycle[count % 3]
            count += 1
            exact = steiner_disc_area(poly, eps)
            lo = poly.vertices.min(axis=0) - eps
            hi = poly.vertices.max(axis=0) + eps
            g = rng.substream(1000 + count).generator()
            pts = lo + g.random((n_pts, 2)) * (hi - lo)
            box_area = float(np.prod(hi - lo))
            p = _parallel_body_fraction(poly.vertices, pts, eps)
            mc = box_area * p
            sigma = box_area * math.sqrt(max(p * (1.0 - p), 1e-12) / n_pts)
            worst_sigma = max(worst_sigma, abs(mc - exact) / sigma)
            ok = ok and abs(mc - exact) <= 3.0 * sigma
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 120.0
    _report(7, ok, f"box intrinsic volumes (5,8,4) and (6,12,8) exact to 1e-12; "
                   f"50 polygon parallel-body areas vs 1e6-point MC, worst "
                   f"deviation {worst_sigma:.2f} sigma <= 3, {elapsed:.1f}s < 2min")


def test_criterion_08_controls_fail(rotated_pair, shifted_pair):
    t0 = time.monotonic()
    rr = sections_experiment(rotated_pair.oracle_K, rotated_pair.oracle_L,
                             2, 2, 20, RngStream(108, 1), 1e-9)
    rv = sections_experiment(shifted_pair.oracle_K, shifted_pair.oracle_L,
                             2, 2, 20, RngStream(108, 2), 1e-5)
    elapsed = time.monotonic() - t0
    ok = (not rr.summary["pass"] and rr.summary["max_rel_diff"] > 1e-3
          and not rv.summary["pass"] and rv.summary["max_rel_diff"] > 1e-3
          and elapsed < 30.0)
    _report(8, ok, f"controls rejected: rotated max rel_diff "
                   f"{rr.summary['max_rel_diff']:.2e} > 1e-3, shifted "
                   f"{rv.summary['max_rel_diff']:.2e} > 1e-3, {elapsed:.1f}s < 30s")


def test_criterion_09_noncongruence(smooth_pair, polytope_pair):
    t0 = time.monotonic()
    certs_p = noncongruence_certificates(polytope_pair)
    vertex = next(c for c in certs_p if c.method == "vertex-distance-multiset")
    certs_s = noncongruence_certificates(smooth_pair)
    prof = next(c for c in certs_s if c.method == "profile-mismatch")
    eps = smooth_pair.smooth_specs[0].epsilon
    axis_recorded = any("axis" in a for a in prof.assumptions)

    spec_k = smooth_pair.smooth_specs[0]
    smooth_self = BodyPair("self-smooth", smooth_pair.oracle_K,
                           smooth_pair.oracle_K, {}, True, False,
                           smooth_specs=(spec_k, spec_k))
    poly_self = BodyPair("self-polytope", polytope_pair.oracle_K,
                         polytope_pair.oracle_K, {}, True, False,
                         construction=polytope_pair.construction)
    self_certs = noncongruence_certificates(smooth_self) + \
        noncongruence_certificates(poly_self)
    elapsed = time.monotonic() - t0
    ok = (vertex.verdict == "noncongruent" and vertex.statistic > 1e-6
          and prof.verdict == "noncongruent"
          and prof.statistic >= eps * math.exp(-1.0) - 1e-9
          and axis_recorded
          and all(c.verdict == "inconclusive" for c in self_certs)
          and certify_report(smooth_pair).summary["pass"]
          and certify_report(polytope_pair).summary["pass"]
          and elapsed < 30.0)
    _report(9, ok, f"noncongruence: vertex statistic {vertex.statistic:.2e} > "
                   f"1e-6, profile statistic {prof.statistic:.6e} >= "
                   f"eps/e - 1e-9, axis assumption recorded, self-pairs "
                   f"inconclusive, {elapsed:.1f}s < 30s")


def test_criterion_10_slab_to_section_convergence(smooth_pair, polytope_pair):
    t0 = time.monotonic()
    ts = (0.4, 0.2, 0.1, 0.05)
    ok = True
    for idx, (pair, kwargs) in enumerate(((polytope_pair, {}),
                                          (smooth_pair, {"width_nodes": 256,
                                                         "vol_nodes": 100_000,
                                                         "hull_nodes": 20_000}))):
        for i in (1, 2):
            xi = RngStream(110, 10 * idx + i).generator().standard_normal(3)
            xi /= np.linalg.norm(xi)
            rep = convergence_experiment(pair.oracle_K, xi, i, ts, **kwargs)
            ok = ok and rep.summary["pass"] and rep.summary["monotone"]

    cube = oracle_of(HPolytope.box([1.0, 1.0, 1.0]))
    e3 = np.array([0.0, 0.0, 1.0])
    worst = 0.0
    for t in ts:
        slab = slab_oracle(cube, SlabSpec(e3, t))
        v2 = poly3_intrinsic_volumes(slab.polytope, slab.vrep)[1]
        worst = max(worst, abs(v2 - (4.0 + 8.0 * t)))
    ok = ok and worst <= 1e-12
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    _report(10, ok, f"slab-to-section differences decrease monotonically over "
                    f"t=0.4..0.05 for i in {{1,2}}, both pairs; cube slab V2 "
                    f"matches 4+8t within {worst:.1e} <= 1e-12, "
                    f"{elapsed:.1f}s < 1min")


def test_criterion_11_determinism(tmp_path):
    t0 = time.monotonic()
    # The child runs from tmp_path, so a relative PYTHONPATH entry such as
    # `src` would not resolve there; lead with the absolute directory of the
    # package under test so the child imports the same code.
    pkg_root = str(Path(convexlab.__file__).resolve().parent.parent)
    outputs = []
    for tag, threads in (("a", "1"), ("b", "8")):
        out = tmp_path / tag
        env = os.environ.copy()
        env["PYTHONPATH"] = os.pathsep.join(
            [pkg_root] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                          if p])
        # convexlab copies CONVEXLAB_THREADS over any inherited BLAS
        # thread variables, so each child really runs at its own count.
        env["CONVEXLAB_THREADS"] = threads
        proc = subprocess.run(
            [sys.executable, "-m", "convexlab.cli", "all", "--seed", "7",
             "--out", str(out)],
            env=env, capture_output=True, text=True, cwd=str(tmp_path))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        files = sorted(p.relative_to(out) for p in out.rglob("*")
                       if p.suffix in (".json", ".csv"))
        outputs.append((out, files))
    (out_a, files_a), (out_b, files_b) = outputs
    same_tree = files_a == files_b
    same_bytes = same_tree and all(
        (out_a / f).read_bytes() == (out_b / f).read_bytes() for f in files_a)
    elapsed = time.monotonic() - t0
    ok = same_tree and same_bytes and len(files_a) >= 2
    _report(11, ok, f"suite rerun with CONVEXLAB_THREADS 1 vs 8: "
                    f"{len(files_a)} report/CSV files byte-identical, "
                    f"{elapsed:.1f}s")
