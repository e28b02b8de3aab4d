"""Sections and projections of a body of revolution, and sections of its
translates, from its profile: the Gauss-Legendre rows of
intrinsic.revolution_section_volumes and revolution_projection_volumes.
Checked against closed forms on the unit ball and its translates and on the
subspaces orthogonal to or through the axis, against the oracle-only
estimators within their own stderr, for equality with the value each sample
gets alone, and for one endpoint call or solve per body and chunk."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.spatial import ConvexHull

from convexlab import intrinsic
from convexlab.bodies import (ball_oracle, make_revolution_spec, oracle_of, profile,
                              revolution_support)
from convexlab.cli import main
from convexlab.experiments import make_pair, projections_experiment, sections_experiment
from convexlab.grassmann import RngStream, Subspace, embed, kappa, rowwise, sample_haar_bases
from convexlab.intrinsic import (PROFILE_CHUNK, area_from_support_2d, ball_intrinsic_volume,
                                 ball_section_volumes, fibonacci_sphere,
                                 planar_metrics_from_oracle, revolution_projection_volumes,
                                 revolution_section_volumes, volume_radial)
from convexlab.transforms import section_oracle, translate_oracle

SHIFT = [0.1, -0.05, 0.2, 0.05, -0.1]
# the relative deficit (2 pi / N)^2 / 6 of an N-gon inscribed in a circle at
# the polyline's N = 8192 nodes, to leading order: it bounds the polyline's bias
POLYLINE_BIAS = (2.0 * math.pi / 8192) ** 2 / 6.0


def _axis_bases(n: int, k: int) -> np.ndarray:
    """Two n x k bases: one orthogonal to e_n (c = 0), one through it (sigma = 0)."""
    flat = np.eye(n)[:, :k]
    axial = np.eye(n)[:, list(range(k - 1)) + [n - 1]]
    return np.stack([flat, axial])


def _bases(n: int, k: int, count: int, index: int) -> np.ndarray:
    return sample_haar_bases(n, k, count, RngStream(23, index))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_ball_matches_closed_forms(n):
    ball = oracle_of(make_revolution_spec(n, epsilon=0.0))
    for k in range(2, n):
        bases = np.concatenate([_bases(n, k, 6, 10 * n + k), _axis_bases(n, k)])
        for i in range(1, k + 1):
            exact = ball_intrinsic_volume(k, i)
            values, _, method = revolution_section_volumes(ball, bases, i)
            assert method == "quadrature"
            assert np.all(np.abs(values - exact) <= 1e-12 * exact), (k, i)
        values = revolution_projection_volumes(ball.revolution, bases)[0]
        assert np.all(np.abs(values - kappa(k)) <= 1e-12 * kappa(k)), k


@pytest.mark.parametrize("n, k", [(3, 2), (4, 3), (5, 4)])
def test_subspaces_orthogonal_to_the_axis_give_balls(n, k):
    """c = 0: a k-ball of radius f(0) (section) or max f (projection); a
    subspace within 1e-50 of it takes the general rule and agrees."""
    oracle = make_pair("smooth", n).oracle_K
    spec = oracle.revolution
    flat = np.eye(n)[:, :k]
    tilted = flat.copy()
    tilted[:, 0] = np.cos(1e-50) * flat[:, 0]
    tilted[n - 1, 0] = np.sin(1e-50)
    bases = np.stack([flat, tilted])
    for i in range(1, k + 1):
        exact = profile(spec, 0.0) ** i * ball_intrinsic_volume(k, i)
        values, errs, _ = revolution_section_volumes(oracle, bases, i)
        assert np.all(np.abs(values - exact) <= 1e-12 * exact) and np.all(errs <= 1e-10 * exact)
    widest = revolution_support(spec, np.eye(n)[0])  # max f
    values = revolution_projection_volumes(spec, bases)[0]
    assert np.all(np.abs(values - kappa(k) * widest ** k) <= 1e-12 * values)


def test_subspaces_through_the_axis_give_the_meridian():
    """sigma = 0: the section and the projection are the body of revolution
    in R^k with profile f on [-1, 1]: its area is 2 int f, and in R^3 its
    volume is pi int f^2."""
    spec = make_pair("smooth", 3).oracle_K.revolution
    edges = sorted(spec.bump_edges())

    def integral(fn):
        return quad(fn, -1.0, 1.0, points=edges, epsabs=1e-13, epsrel=1e-13, limit=200)[0]

    area = 2.0 * integral(lambda t: profile(spec, t))
    volume = math.pi * integral(lambda t: profile(spec, t) ** 2)
    for n, k, exact in ((3, 2, area), (4, 2, area), (4, 3, volume)):
        oracle = make_pair("smooth", n).oracle_K
        axial = _axis_bases(n, k)[1:]
        section = revolution_section_volumes(oracle, axial, k)
        projection = revolution_projection_volumes(oracle.revolution, axial)
        for (value,), (err,), _ in (section, projection):
            assert abs(value - exact) <= 1e-12 * exact and err <= 1e-10 * exact


@pytest.mark.parametrize("n", [3, 4, 5])
def test_default_pair_agrees_and_converges(n):
    """|K - L| <= 1e-13 relative, and N against N/2 nodes within 1e-10."""
    pair = make_pair("smooth", n)
    for k in range(2, n):
        bases = _bases(n, k, 8, 20 * n + k)
        rows = [(revolution_section_volumes(pair.oracle_K, bases, i),
                 revolution_section_volumes(pair.oracle_L, bases, i))
                for i in range(1, k + 1)]
        rows.append((revolution_projection_volumes(pair.oracle_K.revolution, bases),
                     revolution_projection_volumes(pair.oracle_L.revolution, bases)))
        for (vk, ek, _), (vl, el, _) in rows:
            assert len(vk) == len(vl) == len(bases)
            assert np.all(np.abs(vk - vl) <= 1e-13 * vk)
            assert np.all(np.maximum(ek, el) <= 1e-10)


@pytest.mark.parametrize("n, k", [(3, 2), (4, 2), (4, 3), (5, 4)])
def test_stacked_values_equal_one_sample_values(n, k, same_rows):
    oracle = make_pair("smooth", n).oracle_L
    bases = _bases(n, k, 2 * PROFILE_CHUNK + 3, 30 * n + k)
    for i in range(1, k + 1):
        same_rows(revolution_section_volumes(oracle, bases, i),
                  *(revolution_section_volumes(oracle, b[None], i) for b in bases))
    same_rows(revolution_projection_volumes(oracle.revolution, bases),
              *(revolution_projection_volumes(oracle.revolution, b[None]) for b in bases))


def _counting(oracle, method: str, rows: list):
    """oracle, with `method` recording the row count of every call."""
    fn = getattr(oracle, method)

    @rowwise
    def counted(x):
        rows.append(x.shape[0])
        return fn(x)

    return dataclasses.replace(oracle, **{method: counted})


@pytest.mark.parametrize("samples", [3, PROFILE_CHUNK + 1, 2 * PROFILE_CHUNK + 3])
def test_one_endpoint_call_per_body_and_chunk(samples, monkeypatch):
    """Sections read both ends of every sample of a chunk from one radial
    call of 2 x chunk rows, projections from one maximiser solve of 2 x chunk
    rows; projections make no support call."""
    base = make_pair("smooth", 4)
    radial, support = [[], []], [[], []]
    pair = [_counting(_counting(o, "radial", radial[b]), "support", support[b])
            for b, o in enumerate((base.oracle_K, base.oracle_L))]
    chunks = [min(PROFILE_CHUNK, samples - lo) for lo in range(0, samples, PROFILE_CHUNK)]
    sections_experiment(*pair, 3, 2, samples, RngStream(7, 9), 1e-4)
    assert radial == [[2 * c for c in chunks]] * 2

    solves = []
    maximiser = intrinsic.revolution_maximiser
    monkeypatch.setattr(intrinsic, "revolution_maximiser",
                        lambda spec, xp, xn: solves.append(len(xp)) or maximiser(spec, xp, xn))
    projections_experiment(*pair, 3, samples, RngStream(7, 10), 1e-4)
    assert solves == [2 * c for c in chunks] * 2
    assert support == [[], []]


def test_agrees_with_oracle_only_estimators():
    """On a few samples, within the stderr of the polyline, of a halved
    support-area sum and of the polar volume.  The polar volume's halving can
    be small by chance (3.7e-12 beside an error of 1.1e-10 on the second
    sample here), so its stderr is the larger of two successive halvings."""
    oracle = make_pair("smooth", 3).oracle_K
    for basis in _bases(3, 2, 2, 40):
        sub = Subspace(basis)
        polyline = planar_metrics_from_oracle(section_oracle(oracle, sub))
        for i, est in zip((1, 2), polyline):
            (value,), (err,), _ = revolution_section_volumes(oracle, basis[None], i)
            assert abs(value - est.value) <= est.stderr + err + 1e-12
        support = lambda d: oracle.support(embed(sub, d))  # noqa: E731
        area, area_half = area_from_support_2d(support, 8192), area_from_support_2d(support, 4096)
        (value,), (err,), _ = revolution_projection_volumes(oracle.revolution, basis[None])
        assert abs(value - area) <= abs(area - area_half) + err + 1e-12
    oracle = make_pair("smooth", 4).oracle_K
    for basis in _bases(4, 3, 2, 41):
        sec = section_oracle(oracle, Subspace(basis))
        est, coarse = volume_radial(sec, 3, nodes=200_000), volume_radial(sec, 3, nodes=100_000)
        (value,), (err,), _ = revolution_section_volumes(oracle, basis[None], 3)
        assert abs(value - est.value) <= max(est.stderr, coarse.stderr) + err + 1e-12


def test_sections_n4_k3_i2_reject_the_ball(tmp_path, capsys):
    """The ball of the same spec (epsilon = 0) is noncongruent to K, and its
    3-d sections differ from K's by about 5e-4 in V_2."""
    specs = {"k": '{"type": "revolution", "n": 4}',
             "l": '{"type": "revolution", "n": 4, "epsilon": 0.0}'}
    for name, text in specs.items():
        (tmp_path / f"{name}.json").write_text(text, encoding="utf-8")
    argv = ["sections", "--n", "4", "--k", "3", "--i", "2", "--samples", "3", "--seed", "7",
            "--spec-k", str(tmp_path / "k.json"), "--out", str(tmp_path / "o")]
    assert main(argv + ["--spec-l", str(tmp_path / "l.json")]) == 2
    assert "sections: FAIL" in capsys.readouterr().out


def _translate(n: int, epsilon: float = 1e-3, variant: str = "K"):
    """The body of revolution of (n, epsilon, variant) moved by -SHIFT[:n]."""
    return translate_oracle(oracle_of(make_revolution_spec(n, epsilon, variant=variant)),
                            SHIFT[:n])


@pytest.mark.parametrize("n", [3, 4, 5])
def test_sections_of_a_translated_ball_meet_the_closed_form(n):
    """The epsilon = 0 translate is the unit ball about -s: every k >= 2 and
    i, over random subspaces and those orthogonal to or through the axis,
    to 1e-13 relative."""
    moved, ball = _translate(n, 0.0), translate_oracle(ball_oracle(n), SHIFT[:n])
    for k in range(2, n):
        bases = np.concatenate([_bases(n, k, 8, 50 * n + k), _axis_bases(n, k)])
        for i in range(1, k + 1):
            values, errs, method = revolution_section_volumes(moved, bases, i)
            exact = ball_section_volumes(ball.ball, bases, i)[0]
            assert method == "quadrature" and len(values) == len(exact) == len(bases)
            assert np.all(np.abs(values - exact) <= 1e-13 * exact), (k, i)
            assert np.all(errs <= 1e-12 * exact), (k, i)


def _hull_half_area(oracle, n: int) -> float:
    """Half the surface area of the hull of a 3-d body's boundary points on
    n Fibonacci directions: V_2 with an error that falls as 1/n."""
    dirs = fibonacci_sphere(n)
    return ConvexHull(dirs * np.asarray(oracle.radial(dirs))[:, None]).area / 2.0


def test_translated_sections_agree_with_oracle_estimators():
    """Sections of a translated smooth body against the estimators on its
    section oracle, within their stderr plus the polyline bias: the
    polyline in R^3 (k = 2), and for 3-d sections in R^4 the polar volume
    and the boundary hull's V_2 extrapolated in its node count N = 20,000,
    R(N) = 2 Q(N) - Q(N/2), with |R(N) - R(N/2)| as its stderr."""
    moved = _translate(3)
    for basis in _bases(3, 2, 2, 60):
        polyline = planar_metrics_from_oracle(section_oracle(moved, Subspace(basis)))
        for i, est in zip((1, 2), polyline):
            (value,), (err,), _ = revolution_section_volumes(moved, basis[None], i)
            assert abs(value - est.value) <= est.stderr + err + POLYLINE_BIAS * value, i
    moved = _translate(4)
    for basis in _bases(4, 3, 1, 61):
        sec = section_oracle(moved, Subspace(basis))
        q = [_hull_half_area(sec, n) for n in (20_000, 10_000, 5_000)]
        hull = (2.0 * q[0] - q[1], abs(2.0 * q[0] - 3.0 * q[1] + q[2]))
        polar = volume_radial(sec, 3)
        for i, (est, est_err) in ((2, hull), (3, (polar.value, polar.stderr))):
            (value,), (err,), _ = revolution_section_volumes(moved, basis[None], i)
            assert abs(value - est) <= est_err + err + POLYLINE_BIAS * value, i


@pytest.mark.parametrize("n", [3, 4, 5])
def test_a_translated_row_on_a_stack_is_the_row_alone(n, same_rows):
    moved = _translate(n, variant="L")
    for k in range(2, n):
        bases = np.concatenate([_bases(n, k, 2 * PROFILE_CHUNK + 3, 70 * n + k),
                                _axis_bases(n, k)])
        for i in (1, k):
            same_rows(revolution_section_volumes(moved, bases, i),
                      *(revolution_section_volumes(moved, b[None], i) for b in bases))


@pytest.mark.parametrize("samples", [3, PROFILE_CHUNK + 1])
def test_translated_sections_solve_their_ends_once_per_chunk(samples, monkeypatch):
    """Both ends of every section of a chunk come from one safeguarded
    Newton call of 2 x chunk rows, and no oracle of the translate is called."""
    radial, support = [], []
    pair = [_counting(_counting(_translate(4, variant=v), "radial", radial), "support", support)
            for v in "KL"]
    solves = []
    newton = intrinsic._safeguarded_newton
    monkeypatch.setattr(intrinsic, "_safeguarded_newton",
                        lambda fun, x, *a, **kw: solves.append(len(x)) or newton(fun, x, *a, **kw))
    sections_experiment(*pair, 3, 2, samples, RngStream(7, 11), 1e-4)
    chunks = [min(PROFILE_CHUNK, samples - lo) for lo in range(0, samples, PROFILE_CHUNK)]
    assert solves == [2 * c for c in chunks] * 2
    assert radial == support == []
