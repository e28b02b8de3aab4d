"""Orthonormal subspaces, Haar sampling, the scalar/batch convention, and
ball-volume constants.

Everything here is deterministic given an :class:`RngStream`: the same
(seed, stream_index) produces the same Gaussian draws on every platform,
which is what makes every experiment in this package reproducible from its
seed alone.  Sample j of an experiment is drawn from stream j alone, and
its basis is bit-identical whether it is drawn by itself or in a batch.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

ORTHO_TOL = 1e-10
BLOCK = 8192  # most rows of one oracle evaluation (rowwise)

_MASK32, _MASK64, _MASK128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
# NumPy's SeedSequence hash (numpy/random/bit_generator.pyx) and PCG64's
# 128-bit multiplier (numpy/random/src/pcg64/pcg64.h)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


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


@dataclass(frozen=True, slots=True)
class RngStream:
    """Counter-based random stream: a pure value (seed, stream_index).

    Each sample forks its own stream by index instead of sharing mutable
    generator state, so what sample j draws depends on j alone: not on how
    many samples come before it or on how they are batched.  Slotted, since
    a batched draw holds one stream per sample at once.
    """

    seed: int
    stream_index: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=(int(self.seed) & _MASK64, int(self.stream_index) & _MASK64))
        return np.random.Generator(np.random.PCG64(ss))

    def substream(self, index: int) -> "RngStream":
        """Child stream for sample `index`; composition is a stable hash mix."""
        mixed = (int(self.stream_index) * 0x9E3779B97F4A7C15 + int(index) + 1) & (2**64 - 1)
        return RngStream(self.seed, mixed)

    def substreams(self, count: int) -> list["RngStream"]:
        """The child streams of samples 0 .. count-1."""
        return [self.substream(j) for j in range(count)]


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


def _pcg64_states(streams: Sequence[RngStream]) -> list[tuple[int, int]]:
    """(state, inc) of the PCG64 that each stream's generator() starts from,
    for all streams in one vectorized pass.

    SeedSequence(entropy=(seed, index)) hashes the 32-bit words of seed and
    then of index (one word below 2^32, else two), padded with zero words to
    a pool of 4; that hash runs here as uint32 arithmetic over every stream
    at once.  PCG64 takes the first two of the four 64-bit words the pool
    generates as its initial state s and the last two as its sequence i, and
    starts at inc = 2i + 1, state = ((inc + s) * MULT + inc) mod 2^128.
    """
    seeds = np.array([int(s.seed) & _MASK64 for s in streams], dtype=np.uint64)
    index = np.array([int(s.stream_index) & _MASK64 for s in streams], dtype=np.uint64)

    def words(a):
        return (a & np.uint64(_MASK32)).astype(np.uint32), (a >> np.uint64(32)).astype(np.uint32)

    (s_lo, s_hi), (i_lo, i_hi) = words(seeds), words(index)
    two = s_hi != 0  # a seed of two words pushes the index along the pool
    pool = [s_lo, np.where(two, s_hi, i_lo), np.where(two, i_lo, i_hi),
            np.where(two, i_hi, np.uint32(0))]
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    pool = [hashmix(w) for w in pool]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = (np.uint32(_MIX_MULT_L) * pool[dst]
                         - np.uint32(_MIX_MULT_R) * hashmix(pool[src]))
                pool[dst] = mixed ^ (mixed >> np.uint32(16))
    const, state = _INIT_B, []
    for j in range(8):  # generate_state(4, uint64): 8 words, little-endian pairs
        value = pool[j % 4] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        state.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
    s0, s1, i0, i1 = ((state[2 * j] | state[2 * j + 1] << np.uint64(32)).tolist()
                      for j in range(4))
    out = []
    for a, b, c, d in zip(s0, s1, i0, i1):
        inc = ((c << 64 | d) << 1 | 1) & _MASK128
        out.append((((inc + (a << 64 | b)) * _PCG64_MULT + inc) & _MASK128, inc))
    return out


def _stacked_normals(streams: Sequence[RngStream], n: int, k: int) -> np.ndarray:
    """The first Gaussian n x k block of every stream, as an (m, n, k) stack:
    row j is bit-identical to streams[j].generator().standard_normal((n, k)),
    drawn by one PCG64 set to each stream's starting state in turn."""
    bit_generator = np.random.PCG64(0)
    gen = np.random.Generator(bit_generator)
    gauss = np.empty((len(streams), n, k))
    for block, (state, inc) in zip(gauss, _pcg64_states(streams)):
        bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
        gen.standard_normal(out=block)
    return gauss


def _gaussian_block(stream: RngStream, n: int, k: int, draw: int) -> np.ndarray:
    """The draw-th (0-based) Gaussian n x k block of stream's generator."""
    gen = stream.generator()
    for _ in range(draw):
        gen.standard_normal((n, k))
    return gen.standard_normal((n, k))


def sample_haar_bases(n: int, k: int, streams: Sequence[RngStream]) -> np.ndarray:
    """Haar (rotation-invariant) random k-subspaces of R^n, one per stream,
    as an (m, n, k) stack of orthonormal bases.

    Row j is a Gaussian n x k block from streams[j] alone, orthonormalized
    by a thin QR with signs fixed so diag(R) > 0; the sign fix makes the
    basis a deterministic function of the draw.  All rows share one stacked
    QR, which factors each matrix on its own, so row j is bit-identical to
    sample_haar_subspace(n, k, streams[j]).basis.  A rank-deficient draw
    (probability zero) is redrawn from its own stream, up to 8 draws.
    """
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")
    gauss = _stacked_normals(streams, n, k)
    bases = np.empty_like(gauss)
    todo = np.arange(len(streams))
    for draw in range(1, 9):
        q, r = np.linalg.qr(gauss)
        d = np.diagonal(r, axis1=1, axis2=2)
        ok = np.min(np.abs(d), axis=1) >= 1e-12
        bases[todo[ok]] = q[ok] * np.sign(d[ok])[:, None, :]
        todo = todo[~ok]
        if todo.size == 0:
            _check_orthonormal(bases)
            return bases
        gauss = np.array([_gaussian_block(streams[j], n, k, draw) for j in todo])
    raise RuntimeError("repeated rank-deficient Gaussian draws; RNG is broken")


def sample_haar_subspace(n: int, k: int, rng: RngStream) -> Subspace:
    """Draw a Haar random k-subspace of R^n: the one-stream case of
    sample_haar_bases."""
    return Subspace(sample_haar_bases(n, k, [rng])[0])


def sample_sphere(n: int, rng: RngStream) -> np.ndarray:
    """Haar-uniform unit vector in R^n: the k = 1 case of sample_haar_bases."""
    return sample_haar_bases(n, 1, [rng])[0, :, 0]


def embed(subspace: Subspace, u) -> np.ndarray:
    """Map subspace coordinates u (length k) to ambient coordinates (length n).

    Accepts a batch of row vectors (m, k) and returns (m, n).
    """
    a = np.asarray(u, dtype=float)
    if a.shape[-1] != subspace.dim:
        raise ValueError(f"expected vectors of length {subspace.dim}, got shape {a.shape}")
    return a @ subspace.basis.T
