"""Suite-wide Hypothesis settings: every run draws the same examples.

The "deterministic" profile derives each property test's examples from the
test itself (derandomize) and keeps no example database, so a run neither
depends on a fresh seed nor replays examples stored by an earlier run. Each
test's own max_examples still applies. An explicit --hypothesis-profile (say
"default", together with --hypothesis-seed) takes precedence.

It also holds the fixtures that more than one test module reads.
"""
import numpy as np
import pytest
from hypothesis import settings

from lqrinfluence.sysid import TrajectoryDataset

settings.register_profile("deterministic", derandomize=True, database=None)


def pytest_configure(config):
    if not config.getoption("--hypothesis-profile"):
        settings.load_profile("deterministic")


@pytest.fixture
def explosive_trajectory():
    """(X, U, X_next) of the scalar system x+ = a x + u from x0 under the given inputs."""
    def rollout(a, x0, inputs):
        X, U, Xn = [], [], []
        x = x0
        for u in inputs:
            xn = a * x + u
            X.append([x]), U.append([u]), Xn.append([xn])
            x = xn
        return np.array(X), np.array(U), np.array(Xn)

    return rollout


@pytest.fixture
def partial_exclusion_dataset(explosive_trajectory):
    # trajectory 0 carries all input excitation; without it the refit sees an
    # uncontrollable unstable model and its removal is excluded, not scored
    rng = np.random.default_rng(0)
    rich = explosive_trajectory(1.5, 0.0, rng.choice([-1.0, 1.0], size=12))
    quiet = [explosive_trajectory(1.5, x0, [0.0] * 6) for x0 in (1.0, -1.2)]
    return TrajectoryDataset.from_arrays([rich] + quiet, n_x=1, n_u=1)
