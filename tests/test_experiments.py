"""End-to-end experiment behavior on the fixture pairs and the controls."""

import math

import numpy as np
import pytest

from convexlab.bodies import ConvexBodyOracle, ball_oracle
from convexlab.experiments import (_distance_signature, _harmonic_grid,
                                   _orthogonal_complement, _radial_energy_spectrum)
from convexlab.experiments import (BodyPair, ExperimentError,
                                   NoncongruenceCertificate, PAIR_NAMES,
                                   certify_report, convergence_experiment,
                                   lemma1_check, make_pair,
                                   noncongruence_certificates,
                                   projections_experiment, sections_experiment,
                                   slab_experiment)
from convexlab.grassmann import RngStream, rowwise, sample_sphere
from convexlab.intrinsic import centroid_3d
from convexlab.report import (canonical_json, report_to_dict, samples_csv_rows,
                              write_report_json, write_samples_csv,
                              write_suite_csv)
from convexlab.transforms import translate_oracle


def test_make_pair_names():
    for name in PAIR_NAMES:
        pair = make_pair(name)
        assert pair.name == name
        assert pair.oracle_K.dim == pair.oracle_L.dim == 3
    assert make_pair("smooth").smooth_specs is not None
    assert make_pair("polytope").construction is not None
    assert not make_pair("control-rotated").expect_equal_values
    assert not make_pair("control-shifted").expect_noncongruent
    with pytest.raises(ExperimentError, match="unknown pair"):
        make_pair("banana")


def test_lemma1_constructed_pairs_are_exact(smooth_pair, polytope_pair):
    for pair, tol in ((smooth_pair, 1e-8), (polytope_pair, 1e-11)):
        rep = lemma1_check(pair.oracle_K, pair.oracle_L, 200, tol, RngStream(3, 0))
        assert rep.summary["pass"]
        assert rep.summary["max_d_rho"] <= 1e-12
        assert rep.summary["max_d_h"] <= 1e-11
        assert rep.summary["point_check_failures"] == 0
        assert len(rep.samples) == 200


def test_lemma1_self_pair_is_zero(smooth_pair):
    rep = lemma1_check(smooth_pair.oracle_K, smooth_pair.oracle_K, 50, 1e-12,
                       RngStream(3, 1))
    assert rep.summary["max_d_rho"] == 0.0
    assert rep.summary["max_d_h"] == 0.0


def test_lemma1_rejects_shifted_control(shifted_pair):
    rep = lemma1_check(shifted_pair.oracle_K, shifted_pair.oracle_L, 200, 1e-8,
                       RngStream(3, 2))
    assert not rep.summary["pass"]
    assert rep.summary["max_d_rho"] > 0.25


def test_lemma1_dimension_mismatch():
    with pytest.raises(ExperimentError, match="share a dimension"):
        lemma1_check(ball_oracle(3), ball_oracle(2), 10, 1e-8, RngStream(3, 3))


def test_sections_polytope_exact(polytope_pair):
    for i in (1, 2):
        rep = sections_experiment(polytope_pair.oracle_K, polytope_pair.oracle_L,
                                  2, i, 25, RngStream(4, i), 1e-9)
        assert rep.summary["pass"]
        assert rep.summary["rule"] == "exact-rel"
        assert rep.summary["methods"] == ["exact-polygon"]


def test_sections_smooth_polyline(smooth_pair):
    rep = sections_experiment(smooth_pair.oracle_K, smooth_pair.oracle_L,
                              2, 2, 10, RngStream(4, 3), 1e-5, polyline_n=2048)
    assert rep.summary["pass"]
    assert rep.summary["methods"] == ["polyline"]


def test_sections_k1_segments(smooth_pair):
    rep = sections_experiment(smooth_pair.oracle_K, smooth_pair.oracle_L,
                              1, 1, 50, RngStream(4, 4), 1e-9)
    assert rep.summary["pass"]
    assert rep.summary["methods"] == ["exact-segment"]


def test_sections_dimension_four_polytope():
    pair = make_pair("polytope", n=4)
    for i in (1, 2, 3):
        rep = sections_experiment(pair.oracle_K, pair.oracle_L, 3, i, 10,
                                  RngStream(4, 10 + i), 1e-9)
        assert rep.summary["pass"], f"i={i}: {rep.summary}"
        assert rep.summary["methods"] == ["exact-poly3"]


def test_sections_reject_controls(rotated_pair, shifted_pair):
    rep = sections_experiment(rotated_pair.oracle_K, rotated_pair.oracle_L,
                              2, 2, 15, RngStream(4, 20), 1e-9)
    assert not rep.summary["pass"]
    assert rep.summary["max_rel_diff"] > 1e-3
    rep = sections_experiment(shifted_pair.oracle_K, shifted_pair.oracle_L,
                              2, 2, 15, RngStream(4, 21), 1e-5, polyline_n=2048)
    assert not rep.summary["pass"]
    assert rep.summary["max_rel_diff"] > 1e-3


def test_sections_validation(smooth_pair):
    with pytest.raises(ExperimentError, match="need 1 <= i <= k <= n-1"):
        sections_experiment(smooth_pair.oracle_K, smooth_pair.oracle_L,
                            3, 1, 5, RngStream(4, 30), 1e-9)
    with pytest.raises(ExperimentError, match="need 1 <= i <= k <= n-1"):
        sections_experiment(smooth_pair.oracle_K, smooth_pair.oracle_L,
                            2, 0, 5, RngStream(4, 31), 1e-9)


def test_slabs_polytope_exact(polytope_pair):
    for i in (1, 2, 3):
        rep = slab_experiment(polytope_pair.oracle_K, polytope_pair.oracle_L,
                              0.5, i, 10, RngStream(5, i), 1e-9)
        assert rep.summary["pass"]
        assert rep.summary["methods"] == ["exact-poly3"]


def test_slab_halfwidth_out_of_range(polytope_pair):
    with pytest.raises(ExperimentError, match="max admissible"):
        slab_experiment(polytope_pair.oracle_K, polytope_pair.oracle_L,
                        5.0, 2, 5, RngStream(5, 9), 1e-9)
    with pytest.raises(ExperimentError, match="need 1 <= i <= n"):
        slab_experiment(polytope_pair.oracle_K, polytope_pair.oracle_L,
                        0.5, 4, 5, RngStream(5, 10), 1e-9)


def test_slabs_smooth_quadrature(smooth_pair):
    rep = slab_experiment(smooth_pair.oracle_K, smooth_pair.oracle_L,
                          0.5, 3, 3, RngStream(5, 20), 1e-4, vol_nodes=50_000)
    assert rep.summary["pass"]
    assert rep.summary["methods"] == ["quadrature"]


def test_slabs_smooth_width_and_hull(smooth_pair):
    rep = slab_experiment(smooth_pair.oracle_K, smooth_pair.oracle_L,
                          0.5, 1, 2, RngStream(5, 21), 1e-4, width_nodes=256)
    assert rep.summary["pass"], rep.summary
    rep = slab_experiment(smooth_pair.oracle_K, smooth_pair.oracle_L,
                          0.5, 2, 2, RngStream(5, 22), 1e-3, hull_nodes=20_000)
    assert rep.summary["pass"], rep.summary


def test_projections_smooth(smooth_pair):
    rep = projections_experiment(smooth_pair.oracle_K, smooth_pair.oracle_L,
                                 1, 100, RngStream(6, 0), 1e-8)
    assert rep.summary["pass"]
    assert rep.summary["methods"] == ["exact-width"]
    rep = projections_experiment(smooth_pair.oracle_K, smooth_pair.oracle_L,
                                 2, 8, RngStream(6, 1), 1e-4, area_n=4096)
    assert rep.summary["pass"]
    assert rep.summary["methods"] == ["quadrature"]


def test_projections_polytope(polytope_pair):
    rep = projections_experiment(polytope_pair.oracle_K, polytope_pair.oracle_L,
                                 1, 100, RngStream(6, 2), 1e-9)
    assert rep.summary["pass"]
    rep = projections_experiment(polytope_pair.oracle_K, polytope_pair.oracle_L,
                                 2, 10, RngStream(6, 3), 1e-9)
    assert rep.summary["pass"]
    assert rep.summary["methods"] == ["exact-polygon"]


def test_projections_dimension_four_hull():
    pair = make_pair("polytope", n=4)
    rep = projections_experiment(pair.oracle_K, pair.oracle_L, 3, 5,
                                 RngStream(6, 4), 1e-9)
    assert rep.summary["pass"]
    assert rep.summary["methods"] == ["exact-hull"]


def test_projections_controls(rotated_pair, shifted_pair):
    # widths are translation invariant, so the shifted control passes k=1
    rep = projections_experiment(shifted_pair.oracle_K, shifted_pair.oracle_L,
                                 1, 50, RngStream(6, 5), 1e-8)
    assert rep.summary["pass"]
    # a rotated box projects to different shadows
    rep = projections_experiment(rotated_pair.oracle_K, rotated_pair.oracle_L,
                                 2, 10, RngStream(6, 6), 1e-9)
    assert not rep.summary["pass"]


def test_projections_validation(smooth_pair):
    with pytest.raises(ExperimentError, match="need 1 <= k <= n-1"):
        projections_experiment(smooth_pair.oracle_K, smooth_pair.oracle_L,
                               3, 5, RngStream(6, 7), 1e-8)


def test_convergence_polytope(polytope_pair):
    xi = np.array([0.0, 0.0, 1.0])
    for i in (1, 2):
        rep = convergence_experiment(polytope_pair.oracle_K, xi, i,
                                     (0.4, 0.2, 0.1, 0.05))
        assert rep.summary["pass"], rep.summary
        assert rep.summary["monotone"]
        diffs = rep.summary["diffs"]
        assert diffs[-1] <= diffs[0]


def test_convergence_smooth(smooth_pair):
    xi = sample_sphere(3, RngStream(7, 0))
    rep = convergence_experiment(smooth_pair.oracle_K, xi, 1,
                                 (0.4, 0.2, 0.1, 0.05), width_nodes=256)
    assert rep.summary["pass"], rep.summary


def test_convergence_validation(smooth_pair):
    xi = np.array([0.0, 0.0, 1.0])
    with pytest.raises(ExperimentError, match="strictly decreasing"):
        convergence_experiment(smooth_pair.oracle_K, xi, 1, (0.1, 0.2))
    with pytest.raises(ExperimentError, match="exceeds max admissible"):
        convergence_experiment(smooth_pair.oracle_K, xi, 1, (5.0, 0.1))
    with pytest.raises(ExperimentError, match="need 1 <= i <= n-1"):
        convergence_experiment(smooth_pair.oracle_K, xi, 3, (0.2, 0.1))
    with pytest.raises(ExperimentError, match="supports n = 3"):
        convergence_experiment(ball_oracle(2), np.array([1.0, 0.0]), 1, (0.2, 0.1))


def test_certificate_invariants():
    with pytest.raises(ExperimentError, match="statistic > threshold"):
        NoncongruenceCertificate("vertex-distance-multiset", 1e-9, 1e-6,
                                 "noncongruent", ())
    with pytest.raises(ExperimentError, match="verdict"):
        NoncongruenceCertificate("vertex-distance-multiset", 1.0, 1e-6,
                                 "maybe", ())


def _dipole_oracle(a: float, axis) -> ConvexBodyOracle:
    """rho(u) = 1 + a sqrt(3 / 4 pi) <u, axis>: a_00 = sqrt(4 pi), and the
    degree-1 coefficients have total energy a^2 about any unit axis."""
    axis = np.asarray(axis, dtype=float)

    @rowwise
    def radial(d):
        return 1.0 + a * math.sqrt(3.0 / (4.0 * math.pi)) * (d @ axis)

    def unused(_):
        raise AssertionError("the spectrum reads radial values only")

    return ConvexBodyOracle(dim=3, radial=radial, support=unused, member=unused,
                            eval_tol=1e-15, kind="dipole")


def _spectrum(oracle, degree=16, n_theta=256, n_phi=512):
    return _radial_energy_spectrum(oracle, *_harmonic_grid(degree, n_theta, n_phi))


def test_spectrum_of_the_unit_ball():
    e = _spectrum(ball_oracle(3))
    assert e[0] == pytest.approx(4.0 * math.pi, rel=1e-12)
    assert np.all(e[1:] < 1e-20)


def test_spectrum_of_a_dipole_is_rotation_invariant():
    a = 0.1
    e = _spectrum(_dipole_oracle(a, [0.0, 0.0, 1.0]))
    assert e[0] == pytest.approx(4.0 * math.pi, rel=1e-12)
    assert e[1] == pytest.approx(a * a, rel=1e-12)
    assert np.all(e[2:] < 1e-20)

    axis = sample_sphere(3, RngStream(41, 0))
    turned = _spectrum(_dipole_oracle(a, axis))
    assert turned[:2] == pytest.approx(e[:2], rel=1e-12)
    assert np.all(turned[2:] < 1e-20)


def test_spectrum_matches_scipy_spherical_harmonics(smooth_pair):
    # scipy stays out of the package; its sph_harm_y is the reference here
    from scipy.special import sph_harm_y

    degree, n_theta, n_phi = 8, 32, 64
    oracle_K = smooth_pair.oracle_K
    centered = translate_oracle(oracle_K, centroid_3d(oracle_K))
    dirs, legendre = _harmonic_grid(degree, n_theta, n_phi)
    fast = _radial_energy_spectrum(centered, dirs, legendre)

    z, w = np.polynomial.legendre.leggauss(n_theta)
    assert np.array_equal(dirs[::n_phi, 2], z)
    theta, phi = np.meshgrid(np.arccos(z), 2.0 * np.pi * np.arange(n_phi) / n_phi,
                             indexing="ij")
    rho = centered.radial(dirs).reshape(n_theta, n_phi)
    weighted = rho * (w[:, None] * (2.0 * np.pi / n_phi))
    ref = np.zeros(degree + 1)
    for ell in range(degree + 1):
        for m in range(ell + 1):
            coeff = np.sum(weighted * np.conj(sph_harm_y(ell, m, theta, phi)))
            ref[ell] += (1.0 if m == 0 else 2.0) * abs(coeff) ** 2
    assert np.max(np.abs(fast - ref)) < 1e-13
    assert ref[0] > 12.0 and ref[2:].max() > 1e-9


def test_certify_constructed_pairs(smooth_pair, polytope_pair):
    rep = certify_report(smooth_pair)
    assert rep.summary["pass"] and rep.summary["noncongruent"]
    certs = rep.summary["certificates"]
    assert [c["method"] for c in certs] == ["profile-mismatch"]
    eps = smooth_pair.smooth_specs[0].epsilon
    assert certs[0]["statistic"] == pytest.approx(eps * math.exp(-1.0), abs=1e-9)

    rep = certify_report(polytope_pair)
    assert rep.summary["pass"] and rep.summary["noncongruent"]
    certs = rep.summary["certificates"]
    assert [c["method"] for c in certs] == ["vertex-distance-multiset"]
    assert certs[0]["statistic"] > 1e-6


def test_certify_controls(rotated_pair, shifted_pair):
    rep = certify_report(rotated_pair)
    assert rep.summary["pass"] and not rep.summary["noncongruent"]
    assert [c["method"] for c in rep.summary["certificates"]] == [
        "vertex-distance-multiset"]

    rep = certify_report(shifted_pair)
    assert rep.summary["pass"] and not rep.summary["noncongruent"]
    certs = rep.summary["certificates"]
    assert [c["method"] for c in certs] == ["harmonic-spectrum"]
    assert certs[0]["statistic"] < 1e-6


def test_certify_polytope_self_pair(polytope_pair):
    self_pair = BodyPair("self", polytope_pair.oracle_K, polytope_pair.oracle_K,
                         {}, expect_equal_values=True, expect_noncongruent=False)
    certs = noncongruence_certificates(self_pair)
    assert all(c.verdict == "inconclusive" for c in certs)
    assert certify_report(self_pair).summary["pass"]


def test_certificates_need_a_method():
    pair = BodyPair("none", ball_oracle(2), ball_oracle(2), {},
                    expect_equal_values=True, expect_noncongruent=False)
    with pytest.raises(ExperimentError, match="no certificate method"):
        noncongruence_certificates(pair)


def test_report_serialization_round_trip(tmp_path, smooth_pair):
    rep = lemma1_check(smooth_pair.oracle_K, smooth_pair.oracle_L, 20, 1e-8,
                       RngStream(8, 0))
    again = lemma1_check(smooth_pair.oracle_K, smooth_pair.oracle_L, 20, 1e-8,
                         RngStream(8, 0))
    d = report_to_dict(rep)
    assert canonical_json(d) == canonical_json(report_to_dict(again))
    assert "runtime_seconds" not in canonical_json(d)
    assert d["samples"][0]["extra"]["d_h"] >= 0.0

    p = write_report_json(tmp_path / "r.json", rep)
    assert p.read_text(encoding="utf-8") == canonical_json(d)

    rows = samples_csv_rows(rep)
    assert len(rows) == 21
    assert rows[0][:4] == ["id", "basis_0", "basis_1", "basis_2"]
    csv_path = write_samples_csv(tmp_path / "s.csv", rep)
    assert len(csv_path.read_text(encoding="utf-8").splitlines()) == 21

    suite_path = write_suite_csv(tmp_path / "suite.csv", [("a", rep), ("b", again)])
    lines = suite_path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 41
    assert lines[1].split(",")[2].count(";") == 2  # packed 3-vector basis

    with pytest.raises(ValueError):
        canonical_json({"bad": float("nan")})


def test_numpy_replacements_equal_scipy_bitwise():
    # the suite avoids importing scipy.linalg and scipy.spatial; these two
    # helpers stand in for null_space and pdist with identical bytes
    from scipy.linalg import null_space
    from scipy.spatial.distance import pdist

    gen = RngStream(26, 0).generator()
    for _ in range(500):
        n = int(gen.integers(2, 6))
        xi = gen.standard_normal(n) * gen.uniform(0.1, 10.0)
        u = xi / np.linalg.norm(xi)
        assert np.array_equal(_orthogonal_complement(xi), null_space(u.reshape(1, -1)))
        verts = gen.standard_normal((int(gen.integers(2, 30)), n))
        centered = verts - verts.mean(axis=0)
        assert np.array_equal(_distance_signature(verts), np.sort(pdist(centered)))


def test_sample_j_draws_from_substream_j(polytope_pair):
    """Sample j of sections/projections gets the Haar subspace of
    rng.substream(j), and sample j of slabs the normal of rng.substream(j)."""
    from convexlab.grassmann import sample_haar_subspace
    K, L = polytope_pair.oracle_K, polytope_pair.oracle_L
    rng = RngStream(13, 2)
    for k in (1, 2):
        for rep in (sections_experiment(K, L, k, 1, 4, rng, 1e-9),
                    projections_experiment(K, L, k, 4, rng, 1e-9)):
            assert [s.id for s in rep.samples] == [0, 1, 2, 3]
            for s in rep.samples:
                expect = sample_haar_subspace(3, k, rng.substream(s.id)).basis
                assert s.basis == tuple(float(x) for x in expect.flatten())
    rep = slab_experiment(K, L, 0.5, 3, 4, rng, 1e-9)
    for s in rep.samples:
        assert s.basis == tuple(float(x) for x in sample_sphere(3, rng.substream(s.id)))


def test_projections_have_no_support_only_path_for_k3():
    pair = make_pair("smooth", n=4)
    with pytest.raises(ValueError, match="no projection-volume path for k=3 on revolution"):
        projections_experiment(pair.oracle_K, pair.oracle_L, 3, 2, RngStream(0), 1e-4)
