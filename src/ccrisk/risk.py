"""Failure-risk estimators and the Monte-Carlo reference.

Every estimator is an upper bound on the real failure risk
beta_R = 1 - P(y <= 0 componentwise). ``directional_risk`` is the seeded
reference used to measure conservatism.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import erfc, erfcx, ndtr

from . import special
from .gaussian import GaussianVec
from .linalg import spectral_radius_sqrt

__all__ = [
    "RiskEstimate",
    "McEstimate",
    "risk_exact_1d",
    "risk_nakka_chung",
    "risk_norm_spectral",
    "risk_spectral",
    "risk_first_order",
    "risk_dth_order",
    "directional_risk",
    "directional_risks",
]

# antithetic pairs per block of the directional reference: the unit of its
# random streams and of its parallel work. A block holds about 7 MB at d = 25.
_BLOCK = 16_384
_Z95 = 1.959963984540054


@dataclass(frozen=True)
class RiskEstimate:
    """A failure-probability estimate tagged with its method.

    ``defined`` is False when the method's existence condition fails (for
    example a positive mean component); ``value`` is None in that case.
    """

    method: str
    value: Optional[float]
    defined: bool = True

    def __post_init__(self) -> None:
        if self.defined:
            if self.value is None or not 0.0 <= self.value <= 1.0:
                raise ValueError(f"risk value out of [0, 1]: {self.value!r}")
        elif self.value is not None:
            raise ValueError("undefined estimate must not carry a value")


@dataclass(frozen=True)
class McEstimate:
    """Monte-Carlo risk estimate with its 95% confidence interval.

    ``estimator`` names the kernel that drew it and with it the interval;
    the directional reference writes ``"directional"`` (normal interval over
    the antithetic pairs).
    """

    estimate: float
    ci_low: float
    ci_high: float
    n_samples: int
    seed: int
    estimator: str

    def __post_init__(self) -> None:
        if not self.ci_low <= self.estimate <= self.ci_high:
            raise ValueError("confidence interval does not bracket the estimate")

    @property
    def ci_halfwidth(self) -> float:
        return 0.5 * (self.ci_high - self.ci_low)


def _require_scalar(g: GaussianVec) -> None:
    if g.dim != 1:
        raise ValueError(f"expected a scalar distribution, got dim {g.dim}")


def risk_exact_1d(g: GaussianVec) -> RiskEstimate:
    """Exact failure risk of a scalar Gaussian constraint, Phi(mean/sigma).

    Written as Phi(mean/sigma) rather than 1 - Phi(-mean/sigma), which
    loses every digit beyond about 8 sigma.
    """
    _require_scalar(g)
    mean = float(g.mean[0])
    sigma = math.sqrt(float(g.cov[0, 0]))
    return RiskEstimate("exact_1d", float(ndtr(mean / sigma)))


def risk_nakka_chung(g: GaussianVec) -> RiskEstimate:
    """Variance-ratio risk bound var / (var + mean^2) for a scalar constraint.

    Only defined for mean <= 0.
    """
    _require_scalar(g)
    mean = float(g.mean[0])
    if mean > 0.0:
        return RiskEstimate("nakka_chung", None, defined=False)
    var = float(g.cov[0, 0])
    return RiskEstimate("nakka_chung", var / (var + mean * mean))


def risk_norm_spectral(u_mean, u_cov, u_max: float) -> RiskEstimate:
    """Risk bound for the norm constraint ||u|| <= u_max via the spectral
    radius of the control covariance.

    For control dimension 1 or 2 the bound is exp(-m^2/2) with
    m = (||u_mean|| - u_max) / rho; above dimension 2 the sqrt(N_u) shift
    applies and the bound only exists while m + sqrt(N_u) <= 0.
    """
    u_mean = np.atleast_1d(np.asarray(u_mean, dtype=float))
    u_cov = np.asarray(u_cov, dtype=float)
    u_max = float(u_max)
    if not (np.isfinite(u_mean).all() and np.isfinite(u_cov).all() and math.isfinite(u_max)):
        raise ValueError("u_mean, u_cov and u_max must be finite")
    n_u = u_mean.shape[0]
    margin = float(np.linalg.norm(u_mean)) - u_max
    if margin >= 0.0:
        raise ValueError("nominal control violates the norm constraint")
    rho = spectral_radius_sqrt(u_cov)
    # a deterministic control inside the bound has risk exp(-inf) = 0
    scaled = margin / rho if rho > 0.0 else -math.inf
    if n_u > 2:
        scaled += math.sqrt(n_u)
        if scaled > 0.0:
            return RiskEstimate("norm_spectral", None, defined=False)
    return RiskEstimate("norm_spectral", min(math.exp(-0.5 * scaled * scaled), 1.0))


def risk_spectral(g: GaussianVec) -> RiskEstimate:
    """Spectral-radius risk bound psi(min(-mean) / rho(cov), d), never below
    the first-order bound psi(min r, d), as in exact arithmetic."""
    if not g.mean_nonpositive:
        return RiskEstimate("spectral", None, defined=False)
    # the spectral margin is at most min r (sqrt_lambda_max >= sigma.max()),
    # but psi is good to about 3e-15 and not monotone at that level: a few
    # ulps below min r it can read below psi(min r)
    r = np.array([-float(g.mean.max()) / g.sqrt_lambda_max, g.radii.min()])
    return RiskEstimate("spectral", max(special.psi_array(r, g.dim).tolist()))


def risk_first_order(g: GaussianVec) -> RiskEstimate:
    """First-order risk bound psi(min r, d) from the standardized margins."""
    if not g.mean_nonpositive:
        return RiskEstimate("first_order", None, defined=False)
    return RiskEstimate("first_order", float(special.psi_array(g.radii.min(), g.dim)))


def dth_order_value(radii) -> float:
    """d-th-order risk from nonnegative standardized margins; an infinite
    margin has psi = 0 and a ratio of 0 against it.

    With the radii sorted, r_1 <= ... <= r_d, shell i is the spherical
    shell between r_{i-1} and r_i (r_0 = 0) and has probability
    width_i = psi(r_{i-1}) - psi(r_i). Closer constraints j < i cut the
    sectors cut_i = sum_j sector_fraction(r_j / r_i) off it, half each. The
    failure risk is psi(r_d) plus the cut part of every shell,

        psi(r_d) + sum_i width_i * min(1, cut_i / 2),

    which equals 1 - sum_i width_i * max(0, 1 - cut_i / 2) because the
    widths sum to 1 - psi(r_d), but adds only nonnegative terms, so it
    keeps its relative accuracy in the deep tail where 1 - (...) cancels.

    One pass evaluates psi over the radii and the sector fractions at the
    d(d - 1)/2 ratios r_j / r_i with j < i, each at most 1. Rows start at
    the first nonzero radius and never at the first radius: the first shell
    has nothing closer to cut it, and a zero radius has a zero-width shell.
    """
    r = np.array(radii, dtype=float, ndmin=1)
    r.sort()
    d = r.shape[0]
    if not (r[0] >= 0.0 and r[-1] <= math.inf):
        raise ValueError("radii must be nonnegative and not NaN")
    p = special.psi_array(r, d)
    k = max(int(r.searchsorted(0.0, "right")), 1)
    at, i, j = _closer_pairs(d, k)
    # every other entry is exactly 0: r_j / r_i >= 1 there, and
    # sector_fraction(1) is 0, so the row sums are those of the full matrix
    fractions = np.zeros((d - k, d))
    rj = r[j]
    if r[-1] == math.inf:
        # inf / inf would be NaN; a ratio against an infinite radius is 0
        rj[rj == math.inf] = 0.0
    fractions.ravel()[at] = special.sector_fraction_array(rj / r[i], d)
    cut = fractions.sum(axis=1)
    width = p[k - 1 : -1] - p[k:]
    value = float(p[-1] + width @ np.minimum(1.0, 0.5 * cut))
    # value >= psi(r_d) holds by construction and value <= psi(r_1) in
    # exact arithmetic; clamping the upper end to the same psi expression
    # risk_first_order evaluates keeps beta_d <= beta_1 exact under round-off.
    return min(value, float(p[0]))


@functools.lru_cache
def _closer_pairs(d: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only indices of the pairs j < i, i >= k: their flat positions
    in ``dth_order_value``'s (d - k) x d sector-fraction matrix, whose row
    i - k holds shell i, and their i and j."""
    rows, j = np.tril_indices(d - k, k - 1, d)
    pairs = (rows * d + j, rows + k, j)
    for a in pairs:
        a.flags.writeable = False
    return pairs


def risk_dth_order(g: GaussianVec) -> RiskEstimate:
    """d-th-order risk bound; the tightest of the three multidimensional
    estimators (coincides with the others at d = 1)."""
    if not g.mean_nonpositive:
        return RiskEstimate("dth_order", None, defined=False)
    return RiskEstimate("dth_order", g.dth_order_risk)


def directional_risks(gs, n: int, seeds) -> list[McEstimate]:
    """Directional-simulation estimates of the real failure risk
    1 - P(y <= 0), one per distribution in ``gs``, with ``n`` directions and
    its own seed each.

    Write y = mean + L z with z = R u, where u is uniform on the unit sphere
    and R ~ chi_d is independent of it. With mean <= 0 the safe set is
    convex and holds the origin, so the ray along u leaves it once, at
    t(u) = min over (L u)_i > 0 of -mean_i / (L u)_i, and the risk is
    exactly E_u[psi(t(u), d)] (Deak 1980; Bjerager 1988).

    Each Philox normal z gives the direction of z and its antithetic partner
    -z, so ``n`` counts directions, rounded up to whole pairs; the estimate
    is the mean over pairs of (psi(t(z)) + psi(t(-z))) / 2. The 95% interval
    is 1.96 standard errors of the pair means, clipped to [0, 1], with a
    half-width of at least 1e-12 of the estimate, the relative accuracy of
    psi itself: at d = 1 every pair gives the exact risk and the sampling
    interval would have zero width. A single pair has no variance and
    reports [0, 1].

    The pairs come in blocks of ``_BLOCK``; block b of a reference draws
    from Philox(SeedSequence(seed, spawn_key=(b,))), and the blocks' sums
    merge in block order. So each result depends only on its
    (distribution, n, seed): not on the other distributions in the batch,
    and not on how many threads run the blocks. Every input is checked
    before anything is drawn.
    """
    gs = list(gs)
    seeds = [int(s) for s in seeds]
    if len(seeds) != len(gs):
        raise ValueError(f"need one seed per distribution, got {len(seeds)} for {len(gs)}")
    if n < 1:
        raise ValueError("need at least one sample")
    if not all(g.mean_nonpositive for g in gs):
        raise ValueError("directional simulation requires mean <= 0 componentwise")
    pairs = (int(n) + 1) // 2
    sizes = [min(_BLOCK, pairs - start) for start in range(0, pairs, _BLOCK)]
    tasks = [(g.chol, g.mean, seed, b, m) for g, seed in zip(gs, seeds) for b, m in enumerate(sizes)]
    sums = _map(_directional_block, tasks)
    k = len(sizes)
    return [_merge_blocks(sums[i * k : (i + 1) * k], int(n), seed) for i, seed in enumerate(seeds)]


def directional_risk(g: GaussianVec, n: int, seed: int) -> McEstimate:
    """Directional-simulation estimate of one distribution's failure risk;
    a batch of one of ``directional_risks``, which documents it."""
    return directional_risks([g], n, [seed])[0]


# threads that run the directional blocks, one per CPU this process may run
# on; the pool starts on first use
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_POOL: Optional[ThreadPoolExecutor] = None


def _reset_pool() -> None:
    # a forked child inherits the executor but none of its threads, so its
    # map would wait forever; the child starts a pool of its own
    global _POOL
    _POOL = None


if hasattr(os, "register_at_fork"):  # POSIX; elsewhere nothing forks
    os.register_at_fork(after_in_child=_reset_pool)


def _map(fn, tasks: list) -> list:
    """``[fn(t) for t in tasks]``, on the thread pool when there is more
    than one task and more than one core. NumPy releases the GIL in the
    blocks' draws, products and special functions."""
    global _POOL
    if len(tasks) < 2 or _WORKERS < 2:
        return list(map(fn, tasks))
    if _POOL is None:
        _POOL = ThreadPoolExecutor(_WORKERS, thread_name_prefix="ccrisk")
    return list(_POOL.map(fn, tasks))


# each thread's block buffer: a fresh multi-megabyte array per block would
# go back to the OS on every free and fault its pages in again
_BUFFERS = threading.local()


def _directional_block(task) -> tuple[float, float, int]:
    """(sum, centred sum of squares, count) of one block's pair means."""
    chol, mean, seed, b, m = task
    d = chol.shape[0]
    buf = getattr(_BUFFERS, "buf", None)
    if buf is None or buf.size < 2 * m * d:
        buf = _BUFFERS.buf = np.empty(2 * m * d)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(b,))))
    z = rng.standard_normal(out=buf[: m * d].reshape(m, d))
    # (L z)_i / -mean_i, one column per pair, scaled after the product:
    # L / -mean would put 0 * inf = nan in L's zero triangle when a mean
    # component is zero
    a = np.matmul(chol, z.T, out=buf[m * d : 2 * m * d].reshape(d, m))
    norm = np.sqrt(np.einsum("ij,ij->i", z, z))
    # errstate is a context variable, so a pool thread needs its own
    with np.errstate(divide="ignore", over="ignore"):
        # +inf at a zero mean component, whose constraint is active at the
        # origin, and at a subnormal one, which is as good as zero
        inv_margin = 1.0 / np.abs(mean)
        # overflows to +-inf where a tiny margin meets a wide spread
        a *= inv_margin[:, None]
        # exit radius of the rays along z and -z; inf (psi = 0) for a
        # ray with no positive entry, which never leaves the safe set,
        # and for one whose margins lie beyond double range
        t = norm / np.maximum(np.stack((a.max(axis=0), -a.min(axis=0))), 0.0)
        p = _chi_tail(t, d)
    v = 0.5 * (p[0] + p[1])
    s = float(v.sum())
    return s, float(np.square(v - s / m).sum()), m


# the finite sum's largest dimension: beyond it the partial sums of the
# exponential series overflow a double where psi is still above 0
_SUM_MAX_D = 500
# psi(t, d) is 0 in double beyond t^2 / 2 = 1500 for every d <= _SUM_MAX_D
_SUM_MAX_T = math.sqrt(2.0 * 1500.0)


def _chi_tail(t, d: int):
    """``special.psi_array(t, d)`` over a block's exit radii t >= 0, inf
    included, by the finite sum the chi tail has at the shapes d / 2
    (Abramowitz & Stegun 26.4): with x = t^2 / 2 and
    h = (d mod 2) / 2,

        psi(t, d) = e^-x (sum_{k < floor(d/2)} x^(k+h) / Gamma(k+h+1) [+ erfcx(sqrt x), d odd]),

    and erfc(t / sqrt 2) at d = 1. Every term is positive, so it keeps
    the relative accuracy of gammaincc into the deep tail at a fraction of
    its cost per element. The sum runs as a Horner loop in place. e^-x is
    applied as two factors e^(-x/2), because one factor underflows where
    psi is still near 1e-300 at d = 25. Capping t at _SUM_MAX_T keeps the
    sum finite, so t = inf gives exactly 0. Above _SUM_MAX_D the sum
    overflows and gammaincc is the only evaluation.

    The estimators keep ``special.psi_array``: on their arrays of at most
    d elements NumPy's per-call cost outweighs what the sum saves."""
    if d > _SUM_MAX_D:
        return special.psi_array(t, d)
    if d == 1:
        return erfc(t * math.sqrt(0.5))
    n, odd = divmod(d, 2)
    h = 0.5 * odd
    x = np.minimum(t, _SUM_MAX_T)
    x *= x
    x *= 0.5
    # sum_{k<n} x^(k+h) / Gamma(k+h+1)
    #   = x^h c (1 + x/(1+h) (1 + x/(2+h) (... (1 + x/(n-1+h))))), c = 1 / Gamma(1+h)
    c = 1.0 / math.gamma(1.0 + h)
    s = np.full_like(x, c)
    for k in range(n - 1, 0, -1):
        s *= x
        s *= 1.0 / (k + h)
        s += c
    e = np.multiply(x, -0.5)
    np.exp(e, out=e)
    if odd:
        # erfc(sqrt x) = e^-x erfcx(sqrt x); erfc alone flushes to 0 below
        # 2e-308, which at d = 9 is still 3e-11 of psi near 1e-300
        r = np.sqrt(x, out=x)
        s *= r
        s += erfcx(r, out=r)
    s *= e
    s *= e
    return s


def _merge_blocks(sums, n: int, seed: int) -> McEstimate:
    """Merge one reference's block sums, in block order, into its estimate
    and interval."""
    total = m2 = 0.0
    pairs = 0
    for s, q, m in sums:
        # Chan's update of the centred sum of squares; sum(v^2) - n * mean^2
        # would cancel at small risks
        delta = s / m - total / max(pairs, 1)
        m2 += q + delta * delta * pairs * m / (pairs + m)
        total += s
        pairs += m
    estimate = total / pairs
    if pairs < 2:
        lo, hi = 0.0, 1.0
    else:
        half = max(_Z95 * math.sqrt(m2 / ((pairs - 1) * pairs)), 1e-12 * estimate)
        lo, hi = max(estimate - half, 0.0), min(estimate + half, 1.0)
    return McEstimate(estimate, lo, hi, n, seed, "directional")
