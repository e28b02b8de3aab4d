import numpy as np
import pytest

from convexlab import make_pair
from convexlab.bodies import ConvexBodyOracle
from convexlab.grassmann import rowwise


@pytest.fixture(scope="session")
def smooth_pair():
    return make_pair("smooth")


@pytest.fixture(scope="session")
def polytope_pair():
    return make_pair("polytope")


@pytest.fixture(scope="session")
def rotated_pair():
    return make_pair("control-rotated")


@pytest.fixture(scope="session")
def shifted_pair():
    return make_pair("control-shifted")


@pytest.fixture(scope="session")
def ellipsoid():
    """Factory of closed-form ellipsoid oracles: semi-axes `axes` along the
    columns of the orthogonal matrix `frame` (the standard basis by default)."""
    def make(axes, frame=None):
        a = np.asarray(axes, dtype=float)
        q = np.eye(len(a)) if frame is None else np.asarray(frame, dtype=float)
        return ConvexBodyOracle(
            dim=len(a),
            radial=rowwise(lambda u: np.sum((u @ q / a) ** 2, axis=1) ** -0.5),
            support=rowwise(lambda u: np.sqrt(np.sum((u @ q * a) ** 2, axis=1))),
            member=rowwise(lambda x: np.sum((x @ q / a) ** 2, axis=1) <= 1.0),
            eval_tol=1e-15, kind="ellipsoid")

    return make


@pytest.fixture(scope="session")
def same_rows():
    """Checker that a (values, stderrs, method) row stack equals the stacks
    `parts`, concatenated in order: the same method and the same float64
    values and stderrs, bit for bit."""
    def check(got, *parts):
        assert {got[2]} == {part[2] for part in parts}
        for column in (0, 1):
            want = np.concatenate([part[column] for part in parts])
            assert got[column].dtype == want.dtype == np.float64
            assert np.array_equal(got[column], want) and got[column].tobytes() == want.tobytes()

    return check
