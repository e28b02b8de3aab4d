import math

import numpy as np
import pytest

from convexlab.grassmann import (
    RngStream,
    Subspace,
    embed,
    kappa,
    sample_haar_subspace,
    sample_sphere,
)


def test_kappa_closed_forms():
    assert kappa(0) == pytest.approx(1.0, abs=1e-15)
    assert kappa(1) == pytest.approx(2.0, abs=1e-14)
    assert kappa(2) == pytest.approx(math.pi, abs=1e-14)
    assert kappa(3) == pytest.approx(4.0 * math.pi / 3.0, abs=1e-13)
    assert kappa(4) == pytest.approx(math.pi ** 2 / 2.0, abs=1e-13)


def test_kappa_rejects_negative_dimension():
    with pytest.raises(ValueError):
        kappa(-1)


def test_rng_stream_reproducible():
    a = RngStream(42, 3).generator().standard_normal(8)
    b = RngStream(42, 3).generator().standard_normal(8)
    c = RngStream(42, 4).generator().standard_normal(8)
    d = RngStream(43, 3).generator().standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_rng_substreams_are_independent_and_stable():
    root = RngStream(7, 0)
    x = root.substream(5).generator().standard_normal(4)
    y = root.substream(5).generator().standard_normal(4)
    z = root.substream(6).generator().standard_normal(4)
    assert np.array_equal(x, y)
    assert not np.array_equal(x, z)
    # nesting reaches distinct states too
    w = root.substream(5).substream(1).generator().standard_normal(4)
    assert not np.array_equal(x, w)


def test_subspace_requires_orthonormal_columns():
    good = Subspace(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    assert good.dim == 2 and good.ambient_dim == 3
    with pytest.raises(ValueError):
        Subspace(np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        Subspace(np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]]))


def test_haar_subspace_orthonormal_and_deterministic():
    a = sample_haar_subspace(5, 3, RngStream(9, 2))
    b = sample_haar_subspace(5, 3, RngStream(9, 2))
    assert np.array_equal(a.basis, b.basis)
    assert np.allclose(a.basis.T @ a.basis, np.eye(3), atol=1e-12)


def test_haar_rotation_invariance_of_first_angle():
    # the distribution of |<e1, u>| for a Haar line in R^3 is Uniform(0,1);
    # a 2000-sample mean lands near 1/2 well inside 5 sigma
    vals = [abs(sample_haar_subspace(3, 1, RngStream(3, j)).basis[0, 0])
            for j in range(2000)]
    mean = float(np.mean(vals))
    sigma = math.sqrt(1.0 / 12.0 / len(vals))
    assert abs(mean - 0.5) < 5 * sigma


def test_sample_sphere_unit_norm():
    for j in range(10):
        u = sample_sphere(4, RngStream(5, j))
        assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)


def test_embed_coords_roundtrip():
    sub = sample_haar_subspace(4, 2, RngStream(2, 7))
    u = np.array([[0.3, -0.4], [1.0, 2.0]])
    x = embed(sub, u)
    assert x.shape == (2, 4)
    assert np.allclose(x @ sub.basis, u, atol=1e-12)
