"""Special functions for the determinant-formula engine, on whole arrays.

Every matrix entry of the eigenvalue-distribution formulas is a function of
one variable at integer order, evaluated here for arrays of arguments:

* E_a(x) = int_0^1 t^(a-1) e^(-x t) dt for consecutive orders a_lo..a_hi.
  Below x = a + 1, E_a = e^-x S_a / a with
  S_a(x) = sum_k x^k / ((a+1)...(a+k)), summed at the top order only; the
  lower orders follow from the positive downward recurrence
  S_a = 1 + x S_(a+1) / (a+1).  From x = a + 1 on, E_a = Gamma(a) (1 - Q) / x^a,
  where integer order makes Q(a, x) = e^-x sum_(k<a) x^k / k! a finite
  positive sum, so no continued fraction is needed;
* the exponential partial sums sum_(j<a) y^j / j! of the finite Q above;
* g_n(x) = int_0^1 (1-t)^(n-1) e^(-x t) dt = e^-x 1F1(n; n+1; x) / n: from
  x = 2n on by the upward recurrence g_k = (1 - (k-1) g_(k-1)) / x, which
  amplifies relative errors by at most one per step, below by the positive
  Kummer series.

Each kernel takes a number of numpy operations fixed by the orders alone,
so an element's value never depends on the other elements: a point alone
and inside a grid agree bit for bit.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "log_gamma_entries",
    "doubly_g_slope",
    "log_doubly_g",
]

_EPS = 2.220446049250313e-16
_LOG_HALF_EPS = math.log(0.5 * _EPS)


# ---------------------------------------------------------------------------
# series lengths, fixed by the orders


@functools.lru_cache(maxsize=512)
def _gamma_series_terms(a: int) -> int:
    """Terms of S_a(x) that reach double precision for every x < a + 1.

    Term k is at most B_k = prod_(i<=k) (a+1)/(a+i), and the tail from
    term K on is at most B_K (a+K+1)/K, while S_a >= 1.
    """
    log_b, k = 0.0, 0
    while True:
        k += 1
        log_b += math.log((a + 1.0) / (a + k))
        if log_b + math.log((a + k + 1.0) / k) < _LOG_HALF_EPS:
            return k


@functools.lru_cache(maxsize=512)
def _poisson_terms(mean: float) -> int:
    """Terms k < K of the exponential series that leave a Poisson(mean)
    tail below eps/2; also enough for every smaller mean."""
    k = math.floor(mean) + 1
    log_pk = k * math.log(mean) - mean - math.lgamma(k + 1.0)
    while log_pk - math.log1p(-mean / (k + 1.0)) > _LOG_HALF_EPS:
        k += 1
        log_pk += math.log(mean / k)
    return k


@functools.lru_cache(maxsize=512)
def _log_factorials(count: int) -> np.ndarray:
    """log k! for k < count, read-only because every caller shares it."""
    out = np.array([math.lgamma(k + 1.0) for k in range(count)])
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=512)
def _log_binomials(k_lo: int, k_hi: int) -> np.ndarray:
    """log C(k-1, i) for the orders k = k_lo..k_hi (rows) and i < k_hi
    (columns), -inf where i >= k, read-only because every caller shares it."""
    out = np.array([[math.log(math.comb(k - 1, i)) if i < k else -math.inf for i in range(k_hi)]
                    for k in range(k_lo, k_hi + 1)]).reshape(-1, k_hi)
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# array kernels


def _log_exp_partial_sums(a_lo: int, a_hi: int, y) -> np.ndarray:
    """log sum_(j<a) y^j / j! for the orders a_lo..a_hi (a new last axis),
    y > 0: one cumulative sum of the terms scaled by the largest, so nothing
    overflows (a sum below 1e-308 times the largest term reads -inf)."""
    log_t = np.arange(a_hi) * np.log(y)[..., None] - _log_factorials(a_hi)
    shift = log_t.max(axis=-1, keepdims=True)
    with np.errstate(divide="ignore"):
        return shift + np.log(np.cumsum(np.exp(log_t - shift), axis=-1)[..., a_lo - 1:])


def log_gamma_entries(a_lo: int, a_hi: int, x) -> np.ndarray:
    """log E_a(x) for the orders a_lo..a_hi (a new last axis), x > 0.

    Below x = a + 1, -x - log a + log S_a: the large a log x and
    log Gamma(a) never appear.  From x = a + 1 on,
    log Gamma(a) + log1p(-Q) - a log x, with Q <= Q(a, a+1) < 1.
    """
    x = np.asarray(x, dtype=float)
    orders = np.arange(a_lo, a_hi + 1)
    xs = np.minimum(x, a_hi + 1.0)
    S = np.empty(x.shape + orders.shape)
    S[..., -1] = 1.0 + np.cumprod(xs[..., None] / np.arange(
        a_hi + 1.0, a_hi + _gamma_series_terms(a_hi)), axis=-1).sum(axis=-1)
    with np.errstate(over="ignore"):
        # orders with x >= a + 1 may overflow here; they are not used
        for i in range(len(orders) - 2, -1, -1):
            S[..., i] = 1.0 + xs / (a_lo + i + 1.0) * S[..., i + 1]
    log_e = np.log(S) - x[..., None] - np.log(orders)
    upper = x[..., None] >= orders + 1.0
    if not upper.any():
        return log_e
    # Q masked below x = a + 1, where it may round to 1 or above; every lane
    # used has x >= 2, so the logs take max(x, 1), finite where x underflowed
    xu = np.maximum(x, 1.0)
    q = np.where(upper, np.exp(_log_exp_partial_sums(a_lo, a_hi, xu) - x[..., None]), np.nan)
    log_up = _log_factorials(a_hi)[a_lo - 1:] + np.log1p(-q) - orders * np.log(xu)[..., None]
    return np.where(upper, log_up, log_e)


def _kummer_log_sum(a: int, b: int, x, terms: int) -> np.ndarray:
    """log sum_(k<terms) (a)_k / (b)_k x^k / k!, the terms along a new last
    axis: a product of positive ratios, summed without cancellation."""
    i = np.arange(1.0, terms)
    weights = np.cumprod((a + i - 1.0) / (b + i - 1.0))
    powers = np.cumprod(np.asarray(x, dtype=float)[..., None] / i, axis=-1)
    return np.log1p((powers * weights).sum(axis=-1))


def doubly_g_slope(n: int, x) -> np.ndarray:
    """q_n(x) = -x g_n'(x) / g_n(x) = x (g_n(x) - g_(n+1)(x)) / g_n(x) for an
    array x >= 2n: from q_1 = 1 - x / (e^x - 1) by q_(k+1) = 1 - k q_k /
    (x - q_k), which follows from x g_(k+1) = 1 - k g_k.  Each q_k is in
    [1/2, 1] and each step subtracts a positive term below 1/2 from 1, so
    the relative error grows by at most 1 + 1/(x-1) and 4u a step: within
    u (11n + 8) in all, u the unit roundoff."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):  # e^x overflows to inf far out, where q_1 = 1
        q = 1.0 - x / np.expm1(x)
    for k in range(1, n):
        q = 1.0 - k * q / (x - q)
    return q


def log_doubly_g(n: int, x) -> np.ndarray:
    """log g_n(x), g_n(x) = int_0^1 (1-t)^(n-1) e^(-x t) dt, for an array
    x >= 0: the upward recurrence from x = 2n on, the Kummer series below."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape)
    big = x >= 2.0 * n
    xb = x[big]
    g = -np.expm1(-xb) / xb
    for k in range(2, n + 1):
        g = (1.0 - (k - 1) * g) / xb
    out[big] = np.log(g)
    xs = x[~big]
    out[~big] = _kummer_log_sum(n, n + 1, xs, _poisson_terms(2.0 * n)) - xs - math.log(n)
    return out
