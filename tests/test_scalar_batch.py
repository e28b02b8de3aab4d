"""The scalar/batch convention of every oracle and public batch function.

A stack of rows gives an array; one vector gives a Python float or bool
equal to row 0 of the stack.  No oracle callable may carry __wrapped__:
span tracers read that attribute as "already traced" and would skip it.
"""

import numpy as np
import pytest

from convexlab import grassmann
from convexlab.bodies import (ball_oracle, make_revolution_spec,
                              revolution_radial, revolution_support)
from convexlab.experiments import make_pair
from convexlab.grassmann import (RngStream, rowwise, sample_haar_subspace,
                                 sample_sphere)
from convexlab.intrinsic import fibonacci_sphere, support_from_radial
from convexlab.polykernel import polytope_radial
from convexlab.transforms import (SlabSpec, section_oracle, slab_oracle,
                                  translate_oracle)


def _directions(dim: int, m: int = 5) -> np.ndarray:
    g = RngStream(3, dim).generator().standard_normal((m, dim))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def _oracles():
    smooth, poly = make_pair("smooth"), make_pair("polytope")
    smooth4 = make_pair("smooth", n=4)
    xi = sample_sphere(3, RngStream(5))
    return {
        "revolution": smooth.oracle_K,
        "polytope": poly.oracle_K,
        "ball": ball_oracle(3),
        "section-k2": section_oracle(smooth.oracle_L,
                                     sample_haar_subspace(3, 2, RngStream(1))),
        "section-k3": section_oracle(smooth4.oracle_K,
                                     sample_haar_subspace(4, 3, RngStream(2))),
        "slab-smooth": slab_oracle(smooth.oracle_K, SlabSpec(xi, 0.5)),
        "slab-polytope": slab_oracle(poly.oracle_L, SlabSpec(xi, 0.5)),
        "translate": translate_oracle(ball_oracle(3), [0.3, 0.0, 0.0]),
        "translate-smooth": translate_oracle(smooth.oracle_K, [0.1, -0.05, 0.2]),
    }


ORACLES = _oracles()
# Polytopes and slabs go through BLAS products whose kernel depends on the
# row count, so a row's last ulp can depend on its batch (ROADMAP Known
# defects): only their row 0 is compared.  Every other oracle method, the
# sections' column-sum embedding, the translate's per-row secant and the
# smooth slab's per-row rim solve included, is checked on every row.
ALL_METHODS = {"radial", "support", "member"}
ROW_ZERO_ONLY = {"polytope": ALL_METHODS, "slab-polytope": ALL_METHODS,
                 "slab-smooth": {"radial", "member"}}


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_oracle_scalar_matches_batch_row(name):
    oracle = ORACLES[name]
    dirs = _directions(oracle.dim, 40)
    rho = np.asarray(oracle.radial(dirs))
    # one point inside and one outside along each ray
    points = np.vstack([0.5 * rho[:, None] * dirs, 1.5 * rho[:, None] * dirs])
    for method in ("radial", "support", "member"):
        fn = getattr(oracle, method)
        assert not hasattr(fn, "__wrapped__"), f"{name}.{method}"
        rows, kind = (points, bool) if method == "member" else (dirs, float)
        batch = fn(rows)
        assert isinstance(batch, np.ndarray) and batch.shape == (rows.shape[0],)
        for j in [0] if method in ROW_ZERO_ONLY.get(name, ()) else range(rows.shape[0]):
            single = fn(rows[j])
            assert type(single) is kind, f"{name}.{method} gave {type(single)}"
            assert single == batch[j], f"{name}.{method} row {j}"
    assert oracle.member(points[0]) is True
    assert oracle.member(points[-1]) is False


BLOCK_SIZES = (grassmann.BLOCK - 1, grassmann.BLOCK, grassmann.BLOCK + 1,
               2 * grassmann.BLOCK + 3)


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_blocked_stacks_give_the_unblocked_bits(name, monkeypatch):
    """A stack of more than BLOCK rows runs in blocks of BLOCK / 2 rows or
    more; every row, of every oracle kind, gets the bits it gets when the
    longest stack is one block."""
    oracle = ORACLES[name]
    longest = max(BLOCK_SIZES)
    dirs = _directions(oracle.dim, longest)
    rho = np.asarray(oracle.radial(dirs))
    # alternately inside and outside along each ray
    points = dirs * (rho * np.resize([0.5, 1.5], longest))[:, None]
    for method in ("radial", "support", "member"):
        fn = getattr(oracle, method)
        rows = points if method == "member" else dirs
        with monkeypatch.context() as patch:
            patch.setattr(grassmann, "BLOCK", longest)
            whole = fn(rows)
        for m in BLOCK_SIZES:
            blocked = fn(rows[:m])
            assert blocked.dtype == whole.dtype and blocked.shape == (m,)
            differ = np.flatnonzero(blocked != whole[:m])
            assert differ.size == 0, f"{name}.{method} at {m} rows: rows {differ[:5]}"


def test_public_batch_functions_follow_the_convention():
    spec = make_revolution_spec()
    poly = make_pair("polytope").oracle_K.polytope
    disc = ball_oracle(2)
    cases = [
        (lambda d: revolution_radial(spec, d), _directions(3)),
        (lambda d: revolution_support(spec, d), _directions(3)),
        (lambda d: polytope_radial(poly, d), _directions(3)),
        (lambda d: support_from_radial(ball_oracle(3), d), _directions(3)),
        (lambda d: support_from_radial(disc, d), _directions(2)),
    ]
    for fn, rows in cases:
        batch = fn(rows)
        assert isinstance(batch, np.ndarray) and batch.shape == (rows.shape[0],)
        single = fn(rows[0])
        assert type(single) is float
        assert single == batch[0]


def test_blocks_are_near_equal_and_cover_the_stack():
    block = grassmann.BLOCK
    assert grassmann.blocks(0) == [(0, 0)]
    assert grassmann.blocks(block) == [(0, block)]
    for m in (block + 1, 2 * block + 3, 200_000):
        edges = grassmann.blocks(m)
        assert len(edges) == -(-m // block)
        assert edges[0][0] == 0 and edges[-1][1] == m
        assert all(b == c for (_, b), (c, _) in zip(edges, edges[1:]))
        sizes = [b - a for a, b in edges]
        assert max(sizes) - min(sizes) <= 1 and block // 2 <= min(sizes) <= max(sizes) <= block


def test_rowwise_runs_a_long_stack_in_blocks(monkeypatch):
    calls = []

    @rowwise
    def first(rows):
        calls.append(len(rows))
        return rows[:, 0].copy()

    monkeypatch.setattr(grassmann, "BLOCK", 4)
    rows = np.arange(20.0).reshape(10, 2)
    assert first(rows).tolist() == rows[:, 0].tolist() and calls == [3, 3, 4]
    calls.clear()
    assert first(rows[:4]).tolist() == [0.0, 2.0, 4.0, 6.0] and calls == [4]


def test_rowwise_lifts_without_wrapped():
    @rowwise
    def norms(scale, rows, shift=0.0):
        """Row norms."""
        return scale * np.linalg.norm(rows, axis=1) + shift

    assert not hasattr(norms, "__wrapped__")
    assert norms.__name__ == "norms" and norms.__doc__ == "Row norms."
    assert norms(2.0, [3.0, 4.0]) == 10.0 and type(norms(2.0, [3.0, 4.0])) is float
    assert norms(1.0, [3.0, 4.0], shift=1.0) == 6.0
    out = norms(1.0, fibonacci_sphere(4))
    assert isinstance(out, np.ndarray) and np.allclose(out, 1.0)
