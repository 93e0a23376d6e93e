"""Shared fixtures for the test suite."""

import os

# One BLAS thread: the reference's blocks already run one thread per core,
# and BLAS threads of their own in each block's product only compete with
# them. Set before numpy is first imported, which reads it once.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest

from ccrisk import GaussianVec


@pytest.fixture
def example_2d() -> GaussianVec:
    """Two-dimensional worked example used throughout the suite.

    Known values: signed radii [2/sqrt(1.1), 1], covariance eigenvalues
    1.05 -/+ sqrt(0.6425), spectral risk ~0.7632, first-order risk
    exp(-1/2) ~ 0.6065.
    """
    return GaussianVec([-2.0, -1.0], [[1.1, -0.8], [-0.8, 1.0]])


def random_pd_gaussian(rng: np.random.Generator, d: int, radius_hi: float = 3.0) -> GaussianVec:
    """Random PD Gaussian with mean <= 0 and moderate standardized margins,
    so Monte-Carlo references resolve the risk at modest sample counts."""
    a = rng.normal(size=(d, d))
    cov = a @ a.T + 0.1 * np.eye(d)
    sigma = np.sqrt(np.diag(cov))
    radii = rng.uniform(0.1, radius_hi, size=d)
    return GaussianVec(-radii * sigma, cov)
