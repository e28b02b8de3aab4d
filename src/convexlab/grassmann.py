"""Orthonormal subspaces, Haar sampling, the scalar/batch convention, and
ball-volume constants.

Everything here is deterministic given an :class:`RngStream`: the same
(seed, stream_index, path) produces the same Gaussian draws on every
platform, which is what makes every experiment in this package reproducible
from its seed alone.  An experiment's m samples are the m Gaussian blocks
of one draw from its stream, so sample j is the same in every run of at
least j + 1 samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ORTHO_TOL = 1e-10
BLOCK = 8192  # most rows of one oracle evaluation (rowwise)


def kappa(d: int) -> float:
    """Volume of the d-dimensional Euclidean unit ball, pi^(d/2)/Gamma(d/2+1)."""
    if d < 0:
        raise ValueError(f"ball dimension must be >= 0, got {d}")
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def blocks(m: int) -> list[tuple[int, int]]:
    """The row ranges [a, b) that a stack of m rows runs in: one range for
    m <= BLOCK, else ceil(m / BLOCK) consecutive ranges of near-equal size,
    with edges at j * m // parts, none of them shorter than BLOCK // 2."""
    parts = max(1, -(-m // BLOCK))
    edges = [j * m // parts for j in range(parts + 1)]
    return list(zip(edges[:-1], edges[1:]))


def rowwise(fn):
    """Lift fn(..., rows), which maps an (m, n) stack to m values, to the
    scalar/batch convention of every oracle: a stack of rows gives fn's
    array, a single vector is evaluated as a 1 x n stack and gives a Python
    float or bool.

    A stack of more than BLOCK rows runs as the consecutive blocks of
    blocks(m), and their values are concatenated, so the temporaries of one
    call stay cache-sized whatever the stack.  Each fn here works row by
    row, and no block is shorter than BLOCK // 2, so the BLAS products
    inside (th @ xi, dirs @ normals.T) never take the short tails whose
    rounding depends on the row count: every row gets the bits of one call
    over the whole stack (tests/test_scalar_batch.py checks every oracle
    kind).

    The lifted function carries no __wrapped__ attribute, so tracers that
    skip already-wrapped callables still wrap it.
    """

    def lifted(*args, **kwargs):
        *head, x = args
        rows = np.asarray(x, dtype=float)
        if rows.ndim == 1:
            return fn(*head, rows.reshape(1, -1), **kwargs)[0].item()
        if len(rows) <= BLOCK:
            return fn(*head, rows, **kwargs)
        return np.concatenate([fn(*head, rows[a:b], **kwargs) for a, b in blocks(len(rows))])

    lifted.__name__, lifted.__qualname__ = fn.__name__, fn.__qualname__
    lifted.__doc__ = fn.__doc__
    return lifted


@dataclass(frozen=True)
class RngStream:
    """A random stream as a pure value: (seed, stream_index, path).

    generator() seeds PCG64 from SeedSequence(seed, spawn_key=(stream_index,
    *path)); substream(j) appends j to the path.  Different keys below 2^32
    give different streams (NumPy hashes a key as its 32-bit words, so a key
    of 2^32 or more can alias a longer path).
    """

    seed: int
    stream_index: int = 0
    path: tuple[int, ...] = ()

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream_index, *self.path))
        return np.random.Generator(np.random.PCG64(ss))

    def substream(self, index: int) -> "RngStream":
        """Child stream `index`: this stream's spawn key with index appended."""
        return RngStream(self.seed, self.stream_index, (*self.path, index))


def _check_orthonormal(bases: np.ndarray) -> None:
    """Raise ValueError unless every n x k basis of the (m, n, k) stack has
    orthonormal columns within ORTHO_TOL."""
    gram = np.matmul(np.swapaxes(bases, 1, 2), bases)
    if not np.all(np.abs(gram - np.eye(bases.shape[2])) <= ORTHO_TOL):
        raise ValueError("basis columns are not orthonormal within 1e-10")


@dataclass(frozen=True)
class Subspace:
    """A k-dimensional linear subspace of R^n, held as an n-by-k orthonormal basis.

    The basis is a read-only copy, so a view into a batch of bases cannot
    change the subspace afterwards.
    """

    basis: np.ndarray

    def __post_init__(self):
        b = np.array(self.basis, dtype=float, order="C")
        if b.ndim != 2:
            raise ValueError("basis must be an n x k matrix")
        n, k = b.shape
        if not (1 <= k <= n):
            raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")
        _check_orthonormal(b[None])
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def sample_haar_bases(n: int, k: int, m: int, rng: RngStream) -> np.ndarray:
    """m Haar (rotation-invariant) random k-subspaces of R^n, as an (m, n, k)
    stack of orthonormal bases.

    Row j is the j-th Gaussian n x k block of one standard_normal((m, n, k))
    draw from rng's generator, orthonormalized by a thin QR with signs fixed
    so diag(R) > 0; the sign fix makes the basis a deterministic function of
    the draw.  The draw fills the stack in order, and the stacked QR factors
    each matrix on its own, so row j depends on the stream, n, k and j alone
    and is row j of every longer draw.  A rank-deficient block (probability
    zero) raises.
    """
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")
    q, r = np.linalg.qr(rng.generator().standard_normal((m, n, k)))
    d = np.diagonal(r, axis1=1, axis2=2)
    if not np.all(np.abs(d) >= 1e-12):
        raise RuntimeError("rank-deficient Gaussian block; RNG is broken")
    q *= np.sign(d)[:, None, :]
    _check_orthonormal(q)
    return q


def sample_haar_subspace(n: int, k: int, rng: RngStream) -> Subspace:
    """Draw a Haar random k-subspace of R^n: row 0 of sample_haar_bases."""
    return Subspace(sample_haar_bases(n, k, 1, rng)[0])


def sample_sphere(n: int, rng: RngStream) -> np.ndarray:
    """Haar-uniform unit vector in R^n: row 0 of the k = 1 sample_haar_bases."""
    return sample_haar_bases(n, 1, 1, rng)[0, :, 0]


def embed(subspace: Subspace, u) -> np.ndarray:
    """Map subspace coordinates u (length k) to ambient coordinates (length n).

    Accepts a batch of row vectors (m, k) and returns (m, n), summed column
    by column: a BLAS product's kernel, and so a row's last ulp, would
    depend on the row count.
    """
    a = np.asarray(u, dtype=float)
    if a.shape[-1] != subspace.dim:
        raise ValueError(f"expected vectors of length {subspace.dim}, got shape {a.shape}")
    basis = subspace.basis
    out = a[..., :1] * basis[:, 0]
    for j in range(1, subspace.dim):
        out = out + a[..., j:j + 1] * basis[:, j]
    return out
