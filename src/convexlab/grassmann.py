"""Orthonormal subspaces, Haar sampling, the scalar/batch convention, and
ball-volume constants.

Everything here is deterministic given an :class:`RngStream`: the same
(seed, stream_index) produces the same draws regardless of platform or
thread schedule, which is what makes every experiment in this package
reproducible from its seed alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ORTHO_TOL = 1e-10


def kappa(d: int) -> float:
    """Volume of the d-dimensional Euclidean unit ball, pi^(d/2)/Gamma(d/2+1)."""
    if d < 0:
        raise ValueError(f"ball dimension must be >= 0, got {d}")
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def rowwise(fn):
    """Lift fn(..., rows), which maps an (m, n) stack to m values, to the
    scalar/batch convention of every oracle: a stack of rows gives fn's
    array, a single vector is evaluated as a 1 x n stack and gives a Python
    float or bool.

    The lifted function carries no __wrapped__ attribute, so tracers that
    skip already-wrapped callables still wrap it.
    """

    def lifted(*args, **kwargs):
        *head, x = args
        rows = np.asarray(x, dtype=float)
        if rows.ndim != 1:
            return fn(*head, rows, **kwargs)
        return fn(*head, rows.reshape(1, -1), **kwargs)[0].item()

    lifted.__name__, lifted.__qualname__ = fn.__name__, fn.__qualname__
    lifted.__doc__ = fn.__doc__
    return lifted


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream: a pure value (seed, stream_index).

    Forking by index instead of sharing mutable generator state keeps
    sampled objects identical whether samples are drawn serially or from
    worker threads.
    """

    seed: int
    stream_index: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=(int(self.seed) & (2**64 - 1), int(self.stream_index) & (2**64 - 1)))
        return np.random.Generator(np.random.PCG64(ss))

    def substream(self, index: int) -> "RngStream":
        """Child stream for sample `index`; composition is a stable hash mix."""
        mixed = (int(self.stream_index) * 0x9E3779B97F4A7C15 + int(index) + 1) & (2**64 - 1)
        return RngStream(self.seed, mixed)


@dataclass(frozen=True)
class Subspace:
    """A k-dimensional linear subspace of R^n, held as an n-by-k orthonormal basis."""

    basis: np.ndarray

    def __post_init__(self):
        b = np.ascontiguousarray(np.asarray(self.basis, dtype=float))
        if b.ndim != 2:
            raise ValueError("basis must be an n x k matrix")
        n, k = b.shape
        if not (1 <= k <= n):
            raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")
        gram = b.T @ b
        if np.max(np.abs(gram - np.eye(k))) > ORTHO_TOL:
            raise ValueError("basis columns are not orthonormal within 1e-10")
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def sample_haar_subspace(n: int, k: int, rng: RngStream) -> Subspace:
    """Draw a Haar(rotation-invariant) random k-subspace of R^n.

    Gaussian n x k matrix, thin QR, signs fixed so diag(R) > 0.  The sign
    fix makes the basis a deterministic function of the Gaussian draw.
    """
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")
    gen = rng.generator()
    for _ in range(8):
        g = gen.standard_normal((n, k))
        q, r = np.linalg.qr(g)
        d = np.diagonal(r)
        if np.min(np.abs(d)) < 1e-12:
            continue  # probability-zero degenerate draw: resample
        return Subspace(q * np.sign(d))
    raise RuntimeError("repeated rank-deficient Gaussian draws; RNG is broken")


def sample_sphere(n: int, rng: RngStream) -> np.ndarray:
    """Haar-uniform unit vector in R^n (the k=1 subspace sampler, kept as a vector)."""
    return sample_haar_subspace(n, 1, rng).basis[:, 0]


def embed(subspace: Subspace, u) -> np.ndarray:
    """Map subspace coordinates u (length k) to ambient coordinates (length n).

    Accepts a batch of row vectors (m, k) and returns (m, n).
    """
    a = np.asarray(u, dtype=float)
    if a.shape[-1] != subspace.dim:
        raise ValueError(f"expected vectors of length {subspace.dim}, got shape {a.shape}")
    return a @ subspace.basis.T
