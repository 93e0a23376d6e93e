"""Inputs of the three workloads.

Only ``estimate_stream`` depends on the benchmark seed. The deep-tail slice,
the reference instances and the sweep/table command lines are fixed, so the
operations that fail today (see README.md) fail on the same inputs in every
run and their share of the attempted operations never changes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BETA = 1e-3
STREAM_DIMS = (1, 2, 6, 12, 25)
STREAM_PER_DIM = 200
# every INDEPENDENT_EVERY-th instance has a diagonal covariance, so the
# closed-form product risk is available as an upper-bound oracle
INDEPENDENT_EVERY = 4
# standardized margins of the seeded stream. At d = 1 the risk stays above
# 4.8e-4, where float64 resolves 1 - Phi(r) to better than 2.3e-13 relative.
MARGIN_RANGE = {1: (1.0, 3.3), "default": (1.0, 4.5)}

DEEP_TAIL_DIMS = (1, 2, 6)
# per dimension, DEEP_TAIL_PER_LEVEL instances at each base level L; each
# component's margin is L + U(0, 1), so margins span 6-10 sigma
DEEP_TAIL_LEVELS = (6.0, 7.0, 8.0, 9.0)
DEEP_TAIL_PER_LEVEL = 10
DEEP_TAIL_SEED = 20250215

SWEEP_DIMS = (1, 5, 10, 15, 20, 25)
SWEEP_ARGS = ["--quick", "sweep", "--dims", ",".join(map(str, SWEEP_DIMS))]
# the smaller sweep that the other workloads run to measure sweep_s
SWEEP_LITE_ARGS = ["--mc-samples", "10000", "sweep", "--dims", ",".join(map(str, SWEEP_DIMS)), "--n-dists", "10"]

WARM_UP_SWEEP_ARGS = ["--mc-samples", "100000", "sweep", "--dims", "1,25", "--n-dists", "2"]

TABLE1_ARGS = ["--format", "json", "table1"]
TABLE2_ARGS = ["--format", "json", "table2"]
TABLE1_LITE_ARGS = ["--quick", "--format", "json", "table1"]
TABLE2_LITE_ARGS = ["--mc-samples", "100000", "--format", "json", "table2"]

EQUI_DIM = 25
EQUI_RHO = 0.5
EQUI_MARGIN = 3.91  # standardized; gives a true risk of about 1.0e-3
CHECK_SEED = 1


@dataclass(frozen=True)
class RawInstance:
    """One (mean, cov) pair as an optimizer would hand it over."""

    mean: np.ndarray
    cov: np.ndarray
    independent: bool
    deep_tail: bool

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def margins(self) -> np.ndarray:
        return -self.mean / np.sqrt(np.diag(self.cov))


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _instance(rng, d, lo, hi, independent, deep_tail=False) -> RawInstance:
    if independent:
        sigma = np.exp(rng.uniform(-2.0, 2.0, size=d))
        cov = np.diag(sigma**2)
    else:
        a = rng.normal(size=(d, d))
        cov = a @ a.T + 0.1 * np.eye(d)
        sigma = np.sqrt(np.diag(cov))
    r = rng.uniform(lo, hi, size=d)
    return RawInstance(-r * sigma, cov, independent, deep_tail)


def seeded_stream(seed: int) -> list[RawInstance]:
    """The seeded part of the stream, interleaved across dimensions."""
    by_dim = []
    for d in STREAM_DIMS:
        rng = _rng(seed, d)
        lo, hi = MARGIN_RANGE.get(d, MARGIN_RANGE["default"])
        by_dim.append(
            [_instance(rng, d, lo, hi, i % INDEPENDENT_EVERY == 0) for i in range(STREAM_PER_DIM)]
        )
    return [inst for group in zip(*by_dim) for inst in group]


def deep_tail_slice() -> list[RawInstance]:
    """Fixed independent-component instances with margins of 6-10 sigma."""
    out = []
    for d in DEEP_TAIL_DIMS:
        rng = _rng(DEEP_TAIL_SEED, d)
        for level in DEEP_TAIL_LEVELS:
            out.extend(_instance(rng, d, level, level + 1.0, True, True) for _ in range(DEEP_TAIL_PER_LEVEL))
    return out


def estimate_stream(seed: int) -> list[RawInstance]:
    return seeded_stream(seed) + deep_tail_slice()


def equicorrelated_instance() -> RawInstance:
    """d = 25, correlation EQUI_RHO between every pair, equal standardized margins."""
    sigma = 0.5 + np.arange(EQUI_DIM) / (EQUI_DIM - 1)
    corr = np.full((EQUI_DIM, EQUI_DIM), EQUI_RHO)
    np.fill_diagonal(corr, 1.0)
    cov = corr * np.outer(sigma, sigma)
    return RawInstance(-EQUI_MARGIN * sigma, cov, False, False)


def check_payloads() -> dict:
    """The three ``check --mc`` inputs with their Monte-Carlo sample counts.

    Returned as ``{name: (payload, home_samples, lite_samples)}``; the
    table fixtures come from the library because they are its published data.
    """
    from ccrisk.fixtures import DEFAULT_FIXTURE, DEFAULT_TARGET_STATE, box_constraint_distribution

    g1 = DEFAULT_FIXTURE.control_constraint()
    g6 = box_constraint_distribution(DEFAULT_FIXTURE, DEFAULT_TARGET_STATE, True)
    g25 = equicorrelated_instance()
    return {
        "d1": (_payload(g1.mean, g1.cov), 10**8, 10**7),
        "d6": (_payload(g6.mean, g6.cov), 10**7, 10**6),
        "d25": (_payload(g25.mean, g25.cov), 10**6, 10**5),
    }


def _payload(mean, cov) -> dict:
    return {"mean": np.asarray(mean).tolist(), "cov": np.asarray(cov).tolist(), "beta": BETA}
