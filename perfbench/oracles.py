"""True risks computed without the program under test.

Closed forms and one-dimensional integrals are evaluated in mpmath; the
orthant probabilities of correlated blocks come from SciPy's Genz
integration. Nothing here imports ``ccrisk``.
"""

from __future__ import annotations

import itertools

import mpmath as mp
import numpy as np
from scipy.stats import multivariate_normal

DIGITS = 40

# A float64 evaluation of a tail probability in its own precision is good to
# a few ulp; 4096 ulp leaves room for the complement's rounding at risks
# above ~1e-3 and still catches an answer that lost its digits to
# cancellation.
EXACT_RTOL = 4096 * 2.0**-52


def normal_tail(r) -> mp.mpf:
    """P(Z > r) for a standard normal Z."""
    with mp.workdps(DIGITS):
        return mp.ncdf(-mp.mpf(float(r)))


def independent_risk(margins) -> float:
    """1 - prod Phi(r_i): failure risk of independent components with
    standardized margins r_i, free of cancellation at any size."""
    with mp.workdps(DIGITS):
        log_ok = mp.fsum(mp.log1p(-normal_tail(r)) for r in margins)
        return float(-mp.expm1(log_ok))


def scalar_backoff(beta: float, sigma: float) -> float:
    """Phi^-1(1 - beta) * sigma."""
    with mp.workdps(DIGITS):
        return float(mp.sqrt(2) * mp.erfinv(1 - 2 * mp.mpf(beta)) * sigma)


def _blocks(cov: np.ndarray) -> list[list[int]]:
    """Index sets of the independent blocks (connected components of the
    nonzero pattern) of a covariance."""
    d = cov.shape[0]
    seen, out = set(), []
    for start in range(d):
        if start in seen:
            continue
        stack, block = [start], []
        seen.add(start)
        while stack:
            i = stack.pop()
            block.append(i)
            for j in np.flatnonzero(cov[i] != 0.0):
                if int(j) not in seen:
                    seen.add(int(j))
                    stack.append(int(j))
        out.append(sorted(block))
    return out


def _any_exceeds(margins: np.ndarray, corr: np.ndarray) -> float:
    """P(Z_i > r_i for some i) by inclusion-exclusion over orthant
    probabilities; each term is itself a small probability, so nothing
    cancels against 1."""
    total = 0.0
    for k in range(1, len(margins) + 1):
        for subset in itertools.combinations(range(len(margins)), k):
            idx = list(subset)
            if k == 1:
                p = float(normal_tail(margins[idx[0]]))
            else:
                p = float(
                    multivariate_normal.cdf(
                        -margins[idx],
                        mean=np.zeros(k),
                        cov=corr[np.ix_(idx, idx)],
                        abseps=1e-15,
                        releps=1e-10,
                        maxpts=10**7,
                    )
                )
            total += (-1) ** (k + 1) * p
    return total


def block_risk(mean, cov) -> float:
    """Failure risk of a Gaussian whose covariance splits into small
    independent blocks: 1 - prod(1 - q_b), with q_b from inclusion-exclusion."""
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    with mp.workdps(DIGITS):
        log_ok = mp.mpf(0)
        for block in _blocks(cov):
            sub = cov[np.ix_(block, block)]
            sd = np.sqrt(np.diag(sub))
            q = _any_exceeds(-mean[block] / sd, sub / np.outer(sd, sd))
            log_ok += mp.log1p(-mp.mpf(q))
        return float(-mp.expm1(log_ok))


def equicorrelated_risk(margin: float, rho: float, d: int) -> float:
    """Failure risk of d equicorrelated components with equal standardized
    margin: 1 - int phi(z) Phi((margin - sqrt(rho) z) / sqrt(1 - rho))^d dz."""
    with mp.workdps(DIGITS):
        a, sr, sc = mp.mpf(margin), mp.sqrt(rho), mp.sqrt(1 - mp.mpf(rho))
        ok = mp.quad(lambda z: mp.npdf(z) * mp.ncdf((a - sr * z) / sc) ** d, [-mp.inf, -5, 0, 5, mp.inf])
        return float(1 - ok)


def rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))

