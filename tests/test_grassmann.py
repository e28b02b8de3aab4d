import math

import numpy as np
import pytest

from convexlab.grassmann import (
    RngStream,
    Subspace,
    _check_orthonormal,
    embed,
    kappa,
    sample_haar_bases,
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


def test_substreams_are_distinct_spawn_keys():
    root = RngStream(7, 0)
    x = root.substream(5).generator().standard_normal(4)
    y = root.substream(5).generator().standard_normal(4)
    z = root.substream(6).generator().standard_normal(4)
    assert np.array_equal(x, y)
    assert not np.array_equal(x, z)
    # nesting reaches distinct states too, and a child is not its parent
    w = root.substream(5).substream(1).generator().standard_normal(4)
    assert not np.array_equal(x, w)
    assert not np.array_equal(x, root.generator().standard_normal(4))
    # a hash mix of (stream_index, key) sent these two to one stream
    a = RngStream(7, 0).substream(0x9E3779B97F4A7C15).generator().standard_normal(4)
    b = RngStream(7, 1).substream(0).generator().standard_normal(4)
    assert not np.array_equal(a, b)


def test_subspace_requires_orthonormal_columns():
    good = Subspace(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    assert good.dim == 2 and good.ambient_dim == 3
    with pytest.raises(ValueError):
        Subspace(np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        Subspace(np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]]))


def test_subspace_owns_a_read_only_copy():
    stack = np.eye(3)[None].repeat(2, axis=0)
    sub = Subspace(stack[1])
    stack[1] = 0.0
    assert np.array_equal(sub.basis, np.eye(3))
    assert not sub.basis.flags.writeable


def _single_qr(block):
    """One Gaussian block's basis by the unbatched recipe: thin QR of that
    matrix alone, signs so that diag(R) > 0."""
    q, r = np.linalg.qr(block)
    return q * np.sign(np.diagonal(r))


_SHAPES = [(2, 1), (3, 1), (4, 1), (5, 1), (3, 2), (4, 2), (4, 3), (5, 4)]


@pytest.mark.parametrize("n, k", _SHAPES)
def test_haar_draw_is_prefix_stable(n, k):
    rng = RngStream(23, n * 10 + k)
    longest = sample_haar_bases(n, k, 1000, rng)
    assert longest.shape == (1000, n, k) and longest.flags.c_contiguous
    for m in (0, 1, 2, 7, 37):
        assert sample_haar_bases(n, k, m, rng).tobytes() == longest[:m].tobytes()
    assert sample_haar_bases(n, k, 0, rng).shape == (0, n, k)


@pytest.mark.parametrize("m", [1, 2, 7, 1000])
@pytest.mark.parametrize("n, k", _SHAPES)
def test_haar_row_is_the_qr_of_its_gaussian_block(n, k, m):
    rng = RngStream(23, m)
    stack = sample_haar_bases(n, k, m, rng)
    gauss = rng.generator().standard_normal((m, n, k))
    for row, block in zip(stack, gauss, strict=True):
        assert row.tobytes() == _single_qr(block).tobytes()
    assert stack[0].tobytes() == sample_haar_subspace(n, k, rng).basis.tobytes()
    if k == 1:
        assert stack[0, :, 0].tobytes() == sample_sphere(n, rng).tobytes()


@pytest.mark.parametrize("n, k", [(3, 0), (3, 4), (1, 2)])
def test_haar_sampling_rejects_invalid_k(n, k):
    message = f"need 1 <= k <= n, got n={n}, k={k}"
    with pytest.raises(ValueError, match=message):
        sample_haar_bases(n, k, 1, RngStream(1))
    with pytest.raises(ValueError, match=message):
        sample_haar_subspace(n, k, RngStream(1))


def test_orthonormality_check_covers_the_whole_stack(monkeypatch):
    stack = sample_haar_bases(4, 2, 50, RngStream(5))
    _check_orthonormal(stack)
    bad = stack.copy()
    bad[37, 1, 0] += 1e-8
    with pytest.raises(ValueError, match="not orthonormal"):
        _check_orthonormal(bad)

    # the batched draw runs the check on what its QR returns
    qr = np.linalg.qr

    def perturbed_qr(a):
        q, r = qr(a)
        q = q.copy()
        q[-1, 0, 0] += 1e-8
        return q, r

    monkeypatch.setattr(np.linalg, "qr", perturbed_qr)
    with pytest.raises(ValueError, match="not orthonormal"):
        sample_haar_bases(4, 2, 50, RngStream(5))


class _ZeroBlockStream:
    """A stream whose draw of an (m, n, k) stack is RngStream(seed)'s with
    block `zero` all zeros (rank-deficient)."""

    def __init__(self, zero, seed):
        self.zero, self.seed = zero, seed

    def generator(self):
        return self

    def standard_normal(self, shape):
        stack = RngStream(self.seed).generator().standard_normal(shape)
        stack[self.zero] = 0.0
        return stack


def test_rank_deficient_block_raises():
    for zero in (0, 3):
        with pytest.raises(RuntimeError, match="rank-deficient"):
            sample_haar_bases(3, 2, 4, _ZeroBlockStream(zero, 5))


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
