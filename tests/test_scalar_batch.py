"""The scalar/batch convention of every oracle and public batch function.

A stack of rows gives an array; one vector gives a Python float or bool
equal to row 0 of the stack.  No oracle callable may carry __wrapped__:
span tracers read that attribute as "already traced" and would skip it.
"""

import numpy as np
import pytest

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
    }


ORACLES = _oracles()


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_oracle_scalar_matches_batch_row(name):
    oracle = ORACLES[name]
    dirs = _directions(oracle.dim)
    rho = np.asarray(oracle.radial(dirs))
    # one point inside and one outside along each ray
    points = np.vstack([0.5 * rho[:, None] * dirs, 1.5 * rho[:, None] * dirs])
    for method in ("radial", "support", "member"):
        fn = getattr(oracle, method)
        assert not hasattr(fn, "__wrapped__"), f"{name}.{method}"
        rows, kind = (points, bool) if method == "member" else (dirs, float)
        batch = fn(rows)
        assert isinstance(batch, np.ndarray) and batch.shape == (rows.shape[0],)
        single = fn(rows[0])
        assert type(single) is kind, f"{name}.{method} gave {type(single)}"
        assert single == batch[0], f"{name}.{method}"
    assert oracle.member(points[0]) is True
    assert oracle.member(points[-1]) is False


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
