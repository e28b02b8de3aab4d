"""Estimator checks against closed forms: balls, boxes, regular polygons."""

import math

import numpy as np
import pytest

from convexlab.bodies import ball_oracle, oracle_of
from convexlab.grassmann import RngStream, kappa
from convexlab.intrinsic import (EstimateError, IVEstimate, area_from_support_2d,
                                 ball_intrinsic_volume, boundary_polyline,
                                 centroid_3d, circle_grid, fibonacci_sphere,
                                 flag_coefficient, hull_surface_v2,
                                 kubota_intrinsic_volume, mean_width_v1,
                                 planar_metrics_from_oracle, radial_from_support,
                                 sphere_grid, steiner_disc_area,
                                 support_from_radial, volume_radial)
from convexlab.polykernel import (HPolytope, Polygon, enumerate_vertices,
                                  poly3_intrinsic_volumes, polygon_metrics)
from convexlab.transforms import translate_oracle


def test_flag_coefficient_values():
    assert flag_coefficient(2, 1) == pytest.approx(math.pi / 2.0, rel=1e-14)
    assert flag_coefficient(3, 1) == pytest.approx(2.0, rel=1e-14)
    assert flag_coefficient(3, 2) == pytest.approx(2.0, rel=1e-14)
    for k in range(1, 5):
        assert flag_coefficient(k, k) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(EstimateError):
        flag_coefficient(3, 0)
    with pytest.raises(EstimateError):
        flag_coefficient(3, 4)


def test_ball_intrinsic_volume_values():
    expected = {
        (2, 1): math.pi, (2, 2): math.pi,
        (3, 1): 4.0, (3, 2): 2.0 * math.pi, (3, 3): 4.0 * math.pi / 3.0,
        (4, 1): 3.0 * math.pi / 2.0, (4, 2): 3.0 * math.pi,
        (4, 3): math.pi ** 2, (4, 4): math.pi ** 2 / 2.0,
    }
    for (k, i), val in expected.items():
        assert ball_intrinsic_volume(k, i) == pytest.approx(val, rel=1e-14)
        assert ball_intrinsic_volume(k, i) == pytest.approx(
            flag_coefficient(k, i) * kappa(i), rel=1e-14)


def test_direction_grids():
    c = circle_grid(360)
    assert np.allclose(np.linalg.norm(c, axis=1), 1.0, atol=1e-14)
    dots = np.sum(c * np.roll(c, -1, axis=0), axis=1)
    assert np.allclose(dots, math.cos(2.0 * math.pi / 360), atol=1e-13)

    f = fibonacci_sphere(1000)
    assert np.allclose(np.linalg.norm(f, axis=1), 1.0, atol=1e-12)
    assert np.all(np.diff(f[:, 2]) < 0.0)  # z strictly decreasing down the spiral
    assert abs(f[:, 2].sum()) < 1e-10

    g = sphere_grid(4, 200)
    assert g.shape == (200, 4)
    assert np.allclose(np.linalg.norm(g, axis=1), 1.0, atol=1e-12)
    assert np.array_equal(g, sphere_grid(4, 200))


def test_boundary_polyline_is_regular_polygon():
    disc = ball_oracle(2)
    for n in (64, 256):
        poly = boundary_polyline(disc, n)
        area, perim = polygon_metrics(poly)
        assert area == pytest.approx(0.5 * n * math.sin(2.0 * math.pi / n), rel=1e-12)
        assert perim == pytest.approx(2.0 * n * math.sin(math.pi / n), rel=1e-12)
    with pytest.raises(EstimateError, match="power of two"):
        boundary_polyline(disc, 100)
    with pytest.raises(EstimateError, match="at least 64"):
        boundary_polyline(disc, 32)


def test_planar_metrics_disc():
    v1, v2 = planar_metrics_from_oracle(ball_oracle(2))
    assert v1.value == pytest.approx(math.pi, abs=1e-5)
    assert v2.value == pytest.approx(math.pi, abs=1e-5)
    assert v1.method == v2.method == "polyline"
    assert abs(v1.value - math.pi) <= 4.0 * v1.stderr + 1e-12
    assert abs(v2.value - math.pi) <= 4.0 * v2.stderr + 1e-12


def test_support_from_radial_matches_exact_support():
    rng = RngStream(314, 0)
    dirs = rng.generator().standard_normal((20, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)

    ball = ball_oracle(3, 2.0)
    h = support_from_radial(ball, dirs)
    assert np.allclose(h, 2.0, atol=1e-9)
    assert support_from_radial(ball, dirs[0]) == pytest.approx(2.0, abs=1e-9)

    shifted = translate_oracle(ball_oracle(3), np.array([0.3, 0.0, 0.0]))
    h_num = support_from_radial(shifted, dirs)
    h_exact = shifted.support(dirs)
    assert np.max(np.abs(h_num - h_exact)) < 1e-7

    disc_dirs = circle_grid(17)
    assert np.allclose(support_from_radial(ball_oracle(2), disc_dirs), 1.0, atol=1e-10)

    with pytest.raises(EstimateError, match="dimensions 2 and 3"):
        support_from_radial(ball_oracle(4), np.ones(4) / 2.0)


def test_radial_from_support():
    ones = lambda d: np.ones(np.asarray(d).reshape(-1, 3).shape[0])
    dirs = fibonacci_sphere(40)
    assert np.allclose(radial_from_support(ones, dirs), 1.0, atol=1e-8)

    cube_h = lambda d: np.abs(np.asarray(d).reshape(-1, 3)).sum(axis=1)
    diag = np.ones(3) / math.sqrt(3.0)
    rho = radial_from_support(cube_h, np.vstack([diag, np.eye(3)]))
    assert rho[0] == pytest.approx(math.sqrt(3.0), abs=1e-8)
    assert np.allclose(rho[1:], 1.0, atol=1e-5)  # axis minimizers sit on a kink


def test_volume_radial_balls():
    disc = volume_radial(ball_oracle(2), 2)
    assert disc.value == pytest.approx(math.pi, abs=1e-12)
    assert disc.method == "quadrature"

    ball = volume_radial(ball_oracle(3), 3)
    assert ball.value == pytest.approx(4.0 * math.pi / 3.0, abs=1e-12)

    four = volume_radial(ball_oracle(4), 4, nodes=5000, rng=RngStream(9, 1))
    assert four.value == pytest.approx(kappa(4), abs=1e-12)
    assert four.stderr == pytest.approx(0.0, abs=1e-13)

    with pytest.raises(EstimateError, match="oracle dimension"):
        volume_radial(ball_oracle(3), 2)
    with pytest.raises(EstimateError, match="RngStream"):
        volume_radial(ball_oracle(4), 4)


def test_area_from_support_2d():
    const = lambda d: np.ones(np.asarray(d).reshape(-1, 2).shape[0])
    assert area_from_support_2d(const) == pytest.approx(math.pi, abs=1e-10)
    assert area_from_support_2d(ball_oracle(2).support) == pytest.approx(math.pi, abs=1e-10)

    def shifted(d):
        arr = np.asarray(d).reshape(-1, 2)
        return 1.0 + 0.3 * arr[:, 0]  # disc centered at (0.3, 0)

    assert area_from_support_2d(shifted) == pytest.approx(math.pi, abs=1e-6)

    def wiggle(d):
        arr = np.asarray(d).reshape(-1, 2)
        return np.cos(8.0 * np.arctan2(arr[:, 1], arr[:, 0]))

    with pytest.raises(EstimateError, match="negative"):
        area_from_support_2d(wiggle)


def test_steiner_disc_area_triangle():
    tri = Polygon(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    area, perim = polygon_metrics(tri)
    eps = 0.25
    expected = area + perim * eps + math.pi * eps * eps
    assert steiner_disc_area(tri, eps) == pytest.approx(expected, abs=1e-14)
    assert steiner_disc_area(tri, 0.0) == pytest.approx(area, abs=1e-14)
    with pytest.raises(EstimateError, match="nonnegative"):
        steiner_disc_area(tri, -0.1)


def test_mean_width_v1_ball():
    est = mean_width_v1(ball_oracle(3, 2.0))
    assert est.value == pytest.approx(8.0, abs=1e-12)
    assert est.stderr == pytest.approx(0.0, abs=1e-13)
    with pytest.raises(EstimateError, match="dimension 3"):
        mean_width_v1(ball_oracle(2))


def test_hull_surface_v2_ball():
    est = hull_surface_v2(ball_oracle(3))
    assert abs(est.value - 2.0 * math.pi) < 5e-3
    assert abs(est.value - 2.0 * math.pi) <= 3.0 * est.stderr + 1e-9
    with pytest.raises(EstimateError, match="dimension 3"):
        hull_surface_v2(ball_oracle(4))


def test_centroid_3d():
    assert np.linalg.norm(centroid_3d(ball_oracle(3))) < 5e-3
    shifted = translate_oracle(ball_oracle(3), np.array([0.3, 0.0, 0.0]))
    assert np.linalg.norm(centroid_3d(shifted) - [-0.3, 0.0, 0.0]) < 5e-3


def test_kubota_ball_calibration():
    v1 = kubota_intrinsic_volume(ball_oracle(3), 3, 1, 8, RngStream(5, 1))
    assert v1.value == pytest.approx(4.0, abs=1e-9)
    assert v1.method == "kubota-mc"

    v2 = kubota_intrinsic_volume(ball_oracle(3), 3, 2, 8, RngStream(5, 2))
    assert v2.value == pytest.approx(2.0 * math.pi, abs=1e-9)

    v3 = kubota_intrinsic_volume(ball_oracle(4), 4, 3, 3, RngStream(5, 3))
    assert v3.value == pytest.approx(math.pi ** 2, abs=1e-6)

    # i == k routes through the polar volume formula
    v4 = kubota_intrinsic_volume(ball_oracle(4), 4, 4, 1, RngStream(5, 4))
    assert v4.value == pytest.approx(kappa(4), abs=1e-12)


def test_kubota_validation():
    rng = RngStream(5, 5)
    with pytest.raises(EstimateError, match="invalid Kubota indices"):
        kubota_intrinsic_volume(ball_oracle(3), 3, 0, 4, rng)
    with pytest.raises(EstimateError, match="invalid Kubota indices"):
        kubota_intrinsic_volume(ball_oracle(3), 3, 4, 4, rng)
    with pytest.raises(EstimateError, match="dimension k"):
        kubota_intrinsic_volume(ball_oracle(3), 2, 1, 4, rng)
    with pytest.raises(EstimateError, match="at least one subspace"):
        kubota_intrinsic_volume(ball_oracle(3), 3, 1, 0, rng)


def test_kubota_vrep_path_against_exact_box():
    box = HPolytope.box([1.0, 1.2, 1.5])
    vrep = enumerate_vertices(box)
    exact = poly3_intrinsic_volumes(box, vrep)
    est = kubota_intrinsic_volume(oracle_of(box), 3, 1, 400, RngStream(5, 6))
    assert abs(est.value - exact[0]) <= 4.0 * est.stderr
    assert est.stderr > 0.0


def test_homogeneity_for_balls():
    base_v1 = mean_width_v1(ball_oracle(3)).value
    base_v2 = hull_surface_v2(ball_oracle(3), nodes=4096).value
    base_v3 = volume_radial(ball_oracle(3), 3, nodes=4096).value
    for c in (0.5, 2.0):
        assert mean_width_v1(ball_oracle(3, c)).value == pytest.approx(
            c * base_v1, rel=1e-10)
        assert hull_surface_v2(ball_oracle(3, c), nodes=4096).value == pytest.approx(
            c ** 2 * base_v2, rel=1e-10)
        assert volume_radial(ball_oracle(3, c), 3, nodes=4096).value == pytest.approx(
            c ** 3 * base_v3, rel=1e-10)


def test_ivestimate_rejects_negative_stderr():
    with pytest.raises(EstimateError, match="nonnegative"):
        IVEstimate(1, 1.0, -1e-3, "quadrature", 10)
