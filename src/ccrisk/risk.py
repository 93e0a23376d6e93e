"""Failure-risk estimators and the Monte-Carlo reference.

Every estimator is an upper bound on the real failure risk
beta_R = 1 - P(y <= 0 componentwise). ``aloe_risks`` is the seeded
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
from scipy.special import betaincinv, ndtr, ndtri

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
    "aloe_risks",
    "REF_TOL",
]

# relative half-width of the 95% interval at which a reference stops drawing
REF_TOL = 0.01
# error level of the reference's interval, over all its looks
_DELTA = 0.05
# draws per block of the reference: the unit of its random streams and of
# its parallel work. A block holds about 10 MB at d = 25.
_BLOCK = 16_384
# draws before the reference first looks at its interval; it looks again at
# each doubling
_FIRST_LOOK = 1024
# OpenBLAS runs a product of fewer multiply-adds than about this on the
# calling thread
_BLAS_SERIAL = 200_000
# the smallest positive double, a floor on the tail mass u * p_j
_TINY = 5e-324


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
    the reference writes ``"aloe"`` (``risk.aloe_risks``), and
    ``n_samples`` is the number of draws it used.
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
    n_u = u_mean.shape[0]
    if u_cov.shape != (n_u, n_u):
        raise ValueError(f"u_cov must be {n_u} x {n_u} to match u_mean, got shape {u_cov.shape}")
    if not (np.isfinite(u_mean).all() and np.isfinite(u_cov).all() and math.isfinite(u_max)):
        raise ValueError("u_mean, u_cov and u_max must be finite")
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
    r_min, p_min = _min_radius_tail(g)
    margin = -float(g.mean.max()) / g.sqrt_lambda_max
    # the spectral margin is at most min r (sqrt_lambda_max >= sigma.max()),
    # and equal to it at d = 1; but psi is good to about 3e-15 and not
    # monotone at that level: a few ulps below min r it can read below
    # psi(min r)
    if margin == r_min:
        return RiskEstimate("spectral", p_min)
    return RiskEstimate("spectral", max(float(special.psi_array(margin, g.dim)), p_min))


def risk_first_order(g: GaussianVec) -> RiskEstimate:
    """First-order risk bound psi(min r, d) from the standardized margins."""
    if not g.mean_nonpositive:
        return RiskEstimate("first_order", None, defined=False)
    return RiskEstimate("first_order", _min_radius_tail(g)[1])


def _min_radius_tail(g: GaussianVec) -> tuple[float, float]:
    """min r and psi(min r, d) of g (mean <= 0): read from the sorted tails
    once the d-th-order risk has made them, else evaluated alone, so that
    neither risk pays for the tails of every radius by itself."""
    tails = g.__dict__.get("_sorted_tails")
    if tails is not None:
        return float(tails[0][0]), float(tails[1][0])
    r_min = float(g.radii.min())
    return r_min, float(special.psi_array(r_min, g.dim))


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

    ``_shell_sum`` evaluates it from the sorted radii and their psi.
    """
    r = np.array(radii, dtype=float, ndmin=1)
    r.sort()
    if not (r[0] >= 0.0 and r[-1] <= math.inf):
        raise ValueError("radii must be nonnegative and not NaN")
    return _shell_sum(r, special.psi_array(r, r.shape[0]))


def _dth_order_risk(g: GaussianVec) -> float:
    """``dth_order_value`` of g's radii (mean <= 0), computed on first use
    and kept on g, beside its cached properties. So are the radii sorted
    and their chi tails psi(r, d), from one ``gammaincc`` evaluation, from
    which the first-order and spectral risks then read psi(min r)."""
    value = g.__dict__.get("_dth_order_risk")
    if value is None:
        if not g.mean_nonpositive:
            raise ValueError("the d-th-order risk needs mean <= 0 componentwise")
        r = np.sort(g.radii)
        # a finite radius can square past double range; psi is 0 there
        with np.errstate(over="ignore"):
            p = special.psi_array(r, r.shape[0])
        r.flags.writeable = p.flags.writeable = False
        g.__dict__["_sorted_tails"] = r, p
        value = g.__dict__["_dth_order_risk"] = _shell_sum(r, p)
    return value


def _shell_sum(r: np.ndarray, p: np.ndarray) -> float:
    """``dth_order_value`` of the radii r, sorted ascending, nonnegative
    and not NaN, from their tails p = psi(r, d), unvalidated.

    One pass evaluates the sector fractions at the d(d - 1)/2 ratios
    r_j / r_i with j < i, each at most 1. Rows start at the first nonzero
    radius and never at the first radius: the first shell has nothing
    closer to cut it, and a zero radius has a zero-width shell. Without a
    row (d = 1, or every radius 0) the value is psi(r_1).
    """
    d = r.shape[0]
    k = max(int(r.searchsorted(0.0, "right")), 1)
    if k == d:
        return float(p[0])
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
    in ``_shell_sum``'s (d - k) x d sector-fraction matrix, whose row
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
    return RiskEstimate("dth_order", _dth_order_risk(g))


def aloe_risks(gs, n: int, seeds, tol: float = REF_TOL) -> list[McEstimate]:
    """Importance-sampling estimates of the real failure risk
    1 - P(y <= 0), one per distribution in ``gs``, each drawing until its
    95% interval has a relative half-width of at most ``tol`` or it has
    drawn ``n`` samples, from the draws of its seed.

    Failure is the union of the half-spaces H_i = {a_i . z > r_i} of a
    standard normal z, where a_i is the i-th row of the covariance factor
    scaled to unit length and r_i the standardized margin. ALOE (Owen,
    Maximov & Chertkov 2019) draws z conditioned on one event: it picks j
    with probability p_j / mu, p_j = Phi(-r_j), mu = sum p_i, draws
    y = A z and the tail point t = -Phi^-1(u p_j), u in (0, 1], and moves y
    to y + (t - y_j) C[j] with C = A A^T, so that y_j = t >= r_j. With S the
    number of violated constraints, j among them by construction, mu / S is
    an unbiased estimate of the risk that lies in [mu / m, mu] for m
    constraints: at m = 1 every draw gives the exact risk. A constraint
    with p = 0 in double (a margin beyond about 37.5) is never violated and
    is left out; a distribution with no other has risk exactly 0 and draws
    nothing.

    Draws come in blocks of at most ``_BLOCK``; block b of a reference
    draws from Philox(SeedSequence(seed, spawn_key=(b,))) and returns the
    histogram of S over its draws. A reference looks at its interval only
    after ``_FIRST_LOOK`` * 2^k merged draws and at ``n``, and stops at the
    first look whose interval is narrow enough. ``_interval`` documents the
    interval. The blocks up to the next look, across the whole batch, run
    on the thread pool grouped by draw key (seed, b, m, d): references of
    one dimension that share a seed read the same draws, drawn once per
    task. Each one's interval holds on its own, but their errors are
    correlated. Each result depends only on its (distribution, n, tol,
    seed): not on the other distributions in the batch, and not on how many
    threads run the blocks. Every input is checked before anything is
    drawn.
    """
    gs = list(gs)
    seeds = [int(s) for s in seeds]
    if len(seeds) != len(gs):
        raise ValueError(f"need one seed per distribution, got {len(seeds)} for {len(gs)}")
    if n < 1:
        raise ValueError("need at least one sample")
    if not 0.0 <= tol < 1.0:
        raise ValueError(f"the relative half-width must lie in [0, 1), got {tol}")
    if not all(g.mean_nonpositive for g in gs):
        raise ValueError("the reference requires mean <= 0 componentwise")
    looks, look = [], _FIRST_LOOK
    while look < n:
        looks.append(look)
        look *= 2
    looks.append(n)
    # the interval holds at every look at once: the error level is split
    # over the looks and the two bounds it intersects
    delta = _DELTA / (2 * len(looks))
    events = [_events(g) for g in gs]
    results = [None if e else McEstimate(0.0, 0.0, 0.0, 0, seed, "aloe") for e, seed in zip(events, seeds)]
    counts = [np.zeros(e[0].shape[0] + 1, dtype=np.int64) if e else None for e in events]
    block = 0
    for prev, look in zip([0, *looks], looks):
        active = [i for i, r in enumerate(results) if r is None]
        if not active:
            break
        sizes = [min(_BLOCK, look - start) for start in range(prev, look, _BLOCK)]
        readers = {}
        for i in active:
            for b, m in enumerate(sizes):
                readers.setdefault((seeds[i], block + b, m, gs[i].dim), []).append(i)
        block += len(sizes)
        # a round of fewer keys than workers splits each key's readers over
        # the idle workers; every part draws the key's numbers again
        parts = max(1, _WORKERS // len(readers))
        tasks = [(key, who[j::parts]) for key, who in readers.items() for j in range(min(parts, len(who)))]
        hists = _map(_key_block, [(key, [events[i] for i in who]) for key, who in tasks])
        for (_, who), hs in zip(tasks, hists):
            for i, h in zip(who, hs):
                counts[i] += h
        for i in active:
            est, lo, hi = _interval(counts[i], events[i][-1], delta)
            if hi - lo <= 2.0 * tol * est or look == n:
                results[i] = McEstimate(est, lo, hi, look, seeds[i], "aloe")
    return results


def _events(g: GaussianVec):
    """(A, C, r, p, cumulative share, mu) of ``aloe_risks`` over the
    constraints with p > 0, read-only; None when there is none."""
    r = g.radii
    p = ndtr(-r)
    keep = p > 0.0
    if not keep.any():
        return None
    # the i-th row of the factor has length sigma_i; scaling it by 1/sigma
    # first keeps a subnormal or huge sigma out of the norm
    a = g.chol[keep] / g.sigma[keep, None]
    a /= np.linalg.norm(a, axis=1)[:, None]
    p = p[keep]
    share = np.cumsum(p)
    mu = float(share[-1])
    # ends at exactly 1, so a uniform draw in [0, 1) always picks a constraint
    share /= mu
    out = (a, a @ a.T, r[keep], p, share)
    for x in out:
        x.flags.writeable = False
    return (*out, mu)


# threads that run the reference's blocks, one per CPU this process may run
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


def _rng(seed: int, b: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(b,))))


# each thread's block arrays, reused: a fresh multi-megabyte array per block
# faults its pages in anew, and the threads' page faults serialize in the kernel
_BUFFERS = threading.local()


def _buffer(name: str, size: int, dtype=float) -> np.ndarray:
    """The head of this thread's array ``name``, grown to ``size`` items."""
    if getattr(_BUFFERS, name, np.empty(0)).size < size:
        setattr(_BUFFERS, name, np.empty(size, dtype))
    return getattr(_BUFFERS, name)[:size]


def _key_block(task) -> list[np.ndarray]:
    """Histograms of S over the draws of one draw key (seed, b, m, d), one
    per reader in ``task = (key, [events of each reader])``, all read from
    the key's normals z (d x m, one draw per column) and uniforms (pick, u).
    z has an array of its own: in the head of the readers' scratch, whole
    blocks' 2^17-byte rows apart, the readers ran about 10% slower."""
    (seed, b, m, d), readers = task
    z = _buffer("z", d * m).reshape(d, m)
    rng = _rng(seed, b)
    rng.standard_normal(out=z)
    pick, u = rng.random((2, m))
    return [_aloe_block(events, z, pick, u) for events in readers]


def _aloe_block(events, z: np.ndarray, pick: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Histogram of S, the number of violated constraints, over one
    block's draws: the normals z, one draw per column, and the uniforms
    pick and u."""
    a, c, r, p, share, _ = events
    k, d = a.shape
    m = z.shape[1]
    y, moved = _buffer("real", 2 * k * m).reshape(2, k, m)
    hit = _buffer("hit", k * m, bool).reshape(k, m)
    j = share.searchsorted(pick, "right")
    # 1 - u lies in (0, 1]: u p_j = 0 would put t at inf, and inf * 0 in
    # the move below at NaN; so would a product that underflows
    shift = -ndtri(np.maximum((1.0 - u) * p[j], _TINY))
    # column chunks small enough that BLAS keeps each product on this
    # thread: its own threads would only compete with the pool's
    cols = max(int(_BLAS_SERIAL // (d * k)), 1)
    for s in range(0, m, cols):
        np.matmul(a, z[:, s : s + cols], out=y[:, s : s + cols])
    at = np.arange(m)
    shift -= y[j, at]
    np.take(c, j, axis=1, out=moved)
    moved *= shift
    y += moved
    # j is violated by construction, also where rounding leaves y_j a hair below r_j
    y[j, at] = math.inf
    np.greater(y, r[:, None], out=hit)
    return np.bincount(hit.sum(axis=0), minlength=k + 1)


def _interval(counts, mu: float, delta: float) -> tuple[float, float, float]:
    """Estimate and 95% interval of one reference from the histogram of S
    over its n draws, whose values mu / S lie in [mu / m, mu].

    The interval is the intersection of two, each at error level
    ``delta``:

    - the empirical-Bernstein interval (Maurer & Pontil 2009, two-sided)
      estimate +- (sqrt(2 V ln(4/delta) / n) + 7 R ln(4/delta) / (3 (n - 1))),
      with V the sample variance and R = mu (1 - 1/m) the values' range;
    - [mu (1 - (1 - 1/m) q), mu], where q is the Clopper-Pearson upper
      bound on the share of draws with S >= 2: a draw with S = 1 gives
      mu, one with S >= 2 at least mu / m.

    Risks are at most 1, and the half-width is at least 1e-12 of the
    estimate: at m = 1 every draw gives the exact risk and the sampling
    interval would have zero width.
    """
    m = counts.shape[0] - 1
    hist = counts[1:].astype(float)
    n = hist.sum()
    w = 1.0 / np.arange(1, m + 1)
    mean = (hist @ w) / n
    estimate = mu * mean
    lo, hi = 0.0, mu
    if n > 1:
        dev = w - mean
        v = mu * mu * (hist @ (dev * dev)) / (n - 1)
        log = math.log(4.0 / delta)
        half = math.sqrt(2.0 * v * log / n) + 7.0 * mu * (1.0 - 1.0 / m) * log / (3.0 * (n - 1))
        lo, hi = estimate - half, estimate + half
    several = n - hist[0]
    q = 1.0 if several == n else float(betaincinv(several + 1.0, n - several, 1.0 - delta))
    lo = max(lo, mu * (1.0 - (1.0 - 1.0 / m) * q))
    hi = min(hi, mu)
    estimate = min(estimate, 1.0)
    floor = 1e-12 * estimate
    lo = max(min(lo, estimate - floor), 0.0)
    hi = min(max(hi, estimate + floor), 1.0)
    return float(estimate), float(lo), float(hi)
