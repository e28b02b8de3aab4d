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
