import math

import numpy as np
import pytest

from convexlab import grassmann
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


def test_subspace_owns_a_read_only_copy():
    stack = np.eye(3)[None].repeat(2, axis=0)
    sub = Subspace(stack[1])
    stack[1] = 0.0
    assert np.array_equal(sub.basis, np.eye(3))
    assert not sub.basis.flags.writeable


def _single_draw(n, k, stream):
    """One stream's basis by the unbatched recipe: Gaussian block, thin QR
    of that matrix alone, signs so that diag(R) > 0."""
    q, r = np.linalg.qr(stream.generator().standard_normal((n, k)))
    return q * np.sign(np.diagonal(r))


@pytest.mark.parametrize("m", [1, 2, 7, 1000])
@pytest.mark.parametrize("n, k", [(2, 1), (3, 1), (4, 1), (5, 1), (3, 2), (4, 2),
                                  (4, 3), (5, 4)])
def test_haar_bases_are_the_per_stream_draws(n, k, m):
    streams = RngStream(23, m).substreams(m)
    stack = sample_haar_bases(n, k, streams)
    assert stack.shape == (m, n, k) and stack.flags.c_contiguous
    for row, stream in zip(stack, streams):
        assert row.tobytes() == sample_haar_subspace(n, k, stream).basis.tobytes()
        assert row.tobytes() == _single_draw(n, k, stream).tobytes()
    if k == 1:
        assert stack[0, :, 0].tobytes() == sample_sphere(n, streams[0]).tobytes()


_EDGE_SEEDS = (0, 7, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1, 2**64 + 5, -1, -(2**70))
_EDGE_INDICES = (0, 1, 2**32 - 1, 2**32, 2**40, 2**64 - 1)


def _edge_streams():
    """Seeds and stream indices at every word-count boundary of the seed
    hash (a seed >= 2^64 or negative is masked to 64 bits, as generator()
    does), plus substreams of substreams."""
    streams = [RngStream(s, i) for s in _EDGE_SEEDS for i in _EDGE_INDICES]
    for root in (RngStream(11), RngStream(2**64 - 1, 2**32)):
        streams += [c.substream(j) for c in root.substreams(3) for j in (0, 2**32 - 1)]
    return streams


def test_stacked_seeding_is_numpy_seed_sequence():
    streams = _edge_streams()
    for stream, (state, inc) in zip(streams, grassmann._pcg64_states(streams)):
        expected = stream.generator().bit_generator.state
        assert expected["state"] == {"state": state, "inc": inc}
        assert (expected["has_uint32"], expected["uinteger"]) == (0, 0)
    assert grassmann._pcg64_states([]) == []


@pytest.mark.parametrize("n, k", [(3, 1), (4, 2), (5, 3)])
def test_stacked_draw_is_each_streams_generator(n, k):
    streams = _edge_streams()
    stack = grassmann._stacked_normals(streams, n, k)
    assert stack.shape == (len(streams), n, k)
    for block, stream in zip(stack, streams):
        assert block.tobytes() == stream.generator().standard_normal((n, k)).tobytes()
    assert grassmann._stacked_normals([], n, k).shape == (0, n, k)


@pytest.mark.parametrize("n, k", [(3, 0), (3, 4), (1, 2)])
def test_haar_sampling_rejects_invalid_k(n, k):
    message = f"need 1 <= k <= n, got n={n}, k={k}"
    with pytest.raises(ValueError, match=message):
        sample_haar_bases(n, k, [RngStream(1)])
    with pytest.raises(ValueError, match=message):
        sample_haar_subspace(n, k, RngStream(1))


def test_orthonormality_check_covers_the_whole_stack(monkeypatch):
    stack = sample_haar_bases(4, 2, RngStream(5).substreams(50))
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
        sample_haar_bases(4, 2, RngStream(5).substreams(50))


class _ScriptedStream:
    """A stream whose generator gives `zeros` all-zero (rank-deficient)
    blocks before the Gaussian draws of RngStream(seed)."""

    def __init__(self, zeros, seed):
        self.zeros, self.seed = zeros, seed

    def generator(self):
        return _ScriptedGenerator(self.zeros, RngStream(self.seed).generator())


class _ScriptedGenerator:
    def __init__(self, zeros, gen):
        self.zeros, self.gen = zeros, gen

    def standard_normal(self, size=None, out=None):
        shape = out.shape if out is not None else size
        if self.zeros:
            self.zeros -= 1
            block = np.zeros(shape)
        else:
            block = self.gen.standard_normal(shape)
        if out is None:
            return block
        out[...] = block
        return out


def test_degenerate_draw_is_redrawn_from_its_own_stream(monkeypatch):
    # the stacked first draw reads the streams' seeds, not their generators:
    # draw it per stream here so the scripted streams inject their zeros
    monkeypatch.setattr(grassmann, "_stacked_normals", lambda streams, n, k: np.array(
        [s.generator().standard_normal((n, k)) for s in streams]))
    streams = [RngStream(3), _ScriptedStream(2, 4), RngStream(5), _ScriptedStream(7, 6)]
    stack = sample_haar_bases(3, 2, streams)
    for row, seed in zip(stack, (3, 4, 5, 6)):
        assert row.tobytes() == _single_draw(3, 2, RngStream(seed)).tobytes()
    with pytest.raises(RuntimeError, match="rank-deficient"):
        sample_haar_bases(3, 2, [RngStream(3), _ScriptedStream(8, 4)])


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
