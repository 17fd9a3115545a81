"""Special functions for the determinant-formula engine, on whole arrays.

Every matrix entry of the eigenvalue-distribution formulas is a function of
one variable at integer order, evaluated here for arrays of arguments:

* P(a, x) and E_a(x) = int_0^1 t^(a-1) e^(-x t) dt = Gamma(a) P(a, x) / x^a
  for consecutive orders a_lo..a_hi.  Below x = a + 1, E_a = e^-x S_a / a
  with S_a(x) = sum_k x^k / ((a+1)...(a+k)), summed at the top order only;
  the lower orders follow from the positive downward recurrence
  S_a = 1 + x S_(a+1) / (a+1).  From x = a + 1 on, integer order makes the
  upper function the finite positive sum Q(a, x) = e^-x sum_(k<a) x^k / k!,
  so no continued fraction is needed;
* the finite sums int_0^inf (t + lam)^(a-1) e^(-s t) dt of the
  smallest-eigenvalue entries, by a positive recurrence in a;
* g_n(x) = int_0^1 (1-t)^(n-1) e^(-x t) dt = e^-x 1F1(n; n+1; x) / n: from
  x = 2n on by the upward recurrence g_k = (1 - (k-1) g_(k-1)) / x, which
  amplifies relative errors by at most one per step, below by the positive
  Kummer series.

Each kernel takes a number of numpy operations fixed by the orders alone,
so an element's value never depends on the other elements: a point alone
and inside a grid agree bit for bit.  The scalar `reg_lower_gamma`,
`log_reg_lower_gamma` and `log_kummer_series` wrap the same kernels.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpecfunResult",
    "reg_lower_gamma",
    "kummer_1f1",
    "tricomi_u1",
    "log_gamma",
    "log_reg_lower_gamma",
    "log_kummer_series",
    "log_gamma_entries",
    "reg_lower_gamma_orders",
    "log_shifted_power_integrals",
    "log_doubly_g",
]

_EPS = 2.220446049250313e-16
_LOG_HALF_EPS = math.log(0.5 * _EPS)


@dataclass(frozen=True)
class SpecfunResult:
    """Value of a scalar special function plus an absolute error estimate."""

    value: float
    abs_error_estimate: float


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0."""
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"log_gamma requires finite x > 0, got {x!r}")
    return math.lgamma(x)


def _check_int(name: str, value, minimum: int) -> int:
    if not isinstance(value, (int,)) or isinstance(value, bool):
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        else:
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def _check_x(x: float) -> float:
    if not math.isfinite(x) or x < 0.0:
        raise ValueError(f"x must be finite and >= 0, got {x!r}")
    return float(x)


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


def log_shifted_power_integrals(a_lo: int, a_hi: int, lam, s) -> np.ndarray:
    """log F_a = log int_0^inf (t + lam)^(a-1) e^(-s t) dt
    = log sum_i C(a-1, i) lam^(a-1-i) i! / s^(i+1) for the orders a_lo..a_hi
    (a new last axis), lam, s > 0 broadcast together: from F_1 = 1/s by
    the positive recurrence F_(a+1) = lam^a / s + (a / s) F_a, and where
    that leaves the normal range from (a-1)! / s^a sum_(j<a) (lam s)^j / j!.
    """
    lam, s = np.asarray(lam, dtype=float), np.asarray(s, dtype=float)
    out = np.empty(np.broadcast_shapes(lam.shape, s.shape) + (a_hi - a_lo + 1,))
    power = F = 1.0 / s
    with np.errstate(over="ignore"):
        for a in range(1, a_hi + 1):
            if a >= a_lo:
                out[..., a - a_lo] = F
            power = power * lam
            F = power + a / s * F
    bad = ~((out >= sys.float_info.min) & (out <= sys.float_info.max))
    log_f = np.log(np.where(bad, 1.0, out))
    if bad.any():
        log_f[bad] = (_log_factorials(a_hi)[a_lo - 1:] - np.arange(a_lo, a_hi + 1)
                      * np.log(s)[..., None] + _log_exp_partial_sums(a_lo, a_hi, lam * s))[bad]
    return log_f


def _lower_gamma(a_lo: int, a_hi: int, x):
    """x as an array, the orders a_lo..a_hi, log S_a(x) (used where
    x < a + 1) and Q(a, x) where x >= a + 1 (NaN below; None if no x
    reaches a_lo + 1), orders last."""
    x = np.asarray(x, dtype=float)
    orders = np.arange(a_lo, a_hi + 1)
    xs = np.minimum(x, a_hi + 1.0)
    S = np.empty(x.shape + orders.shape)
    S[..., -1] = 1.0 + np.cumprod(xs[..., None] / np.arange(
        a_hi + 1.0, a_hi + _gamma_series_terms(a_hi)), axis=-1).sum(axis=-1)
    with np.errstate(over="ignore"):
        # orders with x >= a + 1 may overflow here; they are not used
        for i in range(len(orders) - 2, -1, -1):
            S[..., i] = 1.0 + xs / (orders[i] + 1.0) * S[..., i + 1]
    upper = x[..., None] >= orders + 1.0
    q = None
    if upper.any():
        q = np.where(upper, np.exp(_log_exp_partial_sums(a_lo, a_hi, np.maximum(x, 1.0))
                                   - x[..., None]), np.nan)
    return x, orders, np.log(S), q


def log_gamma_entries(a_lo: int, a_hi: int, x) -> np.ndarray:
    """log E_a(x) for the orders a_lo..a_hi (a new last axis), x > 0.

    Below x = a + 1, -x - log a + log S_a: the large a log x and
    log Gamma(a) never appear.  From x = a + 1 on,
    log Gamma(a) + log1p(-Q) - a log x, with Q <= Q(a, a+1) < 1.
    """
    x, orders, log_s, q = _lower_gamma(a_lo, a_hi, x)
    log_e = log_s - x[..., None] - np.log(orders)
    if q is None:
        return log_e
    log_up = _log_factorials(a_hi)[a_lo - 1:] + np.log1p(-q) - orders * np.log(x)[..., None]
    return np.where(np.isnan(q), log_e, log_up)


def reg_lower_gamma_orders(a_lo: int, a_hi: int, x):
    """P(a, x), its absolute error estimate and log P(a, x) for the orders
    a_lo..a_hi (a new last axis) and x >= 0: x^a e^-x / a! S_a from its log
    below x = a + 1, 1 - Q from there on.  The estimate is
    (10 + terms + 2 (log a! + a |log x| + x)) eps times P, respectively Q,
    plus half an ulp of P: terms counts the series and recurrence steps, or
    the a terms of Q; the logs, rounded about twice, size what is
    exponentiated.
    """
    x, orders, log_s, q = _lower_gamma(a_lo, a_hi, x)
    q = np.full(log_s.shape, np.nan) if q is None else q
    upper = ~np.isnan(q)
    with np.errstate(divide="ignore", invalid="ignore"):
        a_log_x = orders * np.log(x)[..., None]
        log_p = a_log_x - x[..., None] - _log_factorials(a_hi + 1)[a_lo:] + log_s
        size = 2.0 * (_log_factorials(a_hi + 1)[a_lo:] + np.abs(a_log_x) + x[..., None])
    log_p[upper] = np.log1p(-q[upper])
    value = np.where(upper, 1.0 - np.where(upper, q, 0.0), np.exp(log_p))
    terms = np.where(upper, orders, _gamma_series_terms(a_hi) + a_hi - orders) + size
    err = ((10.0 + terms) * np.where(upper, q, value) + 0.5 * value) * _EPS + 1e-300
    return value, err, log_p


def _kummer_log_sum(a: int, b: int, x, terms: int) -> np.ndarray:
    """log sum_(k<terms) (a)_k / (b)_k x^k / k!, the terms along a new last
    axis: a product of positive ratios, summed without cancellation."""
    i = np.arange(1.0, terms)
    weights = np.cumprod((a + i - 1.0) / (b + i - 1.0))
    powers = np.cumprod(np.asarray(x, dtype=float)[..., None] / i, axis=-1)
    return np.log1p((powers * weights).sum(axis=-1))


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


# ---------------------------------------------------------------------------
# scalar wrappers


def log_reg_lower_gamma(a: int, x: float) -> float:
    """Natural log of P(a, x), robust where P itself underflows."""
    a = _check_int("a", a, 1)
    x = _check_x(x)
    if x == 0.0:
        return -math.inf
    return float(reg_lower_gamma_orders(a, a, [x])[2][0, 0])


def reg_lower_gamma(a: int, x: float) -> SpecfunResult:
    """Regularized lower incomplete gamma function P(a, x), a integer >= 1.

    P(a, x) = gamma(a, x) / Gamma(a) is nondecreasing in x with
    P(a, 0) = 0 and limit 1 (`reg_lower_gamma_orders`).
    """
    a = _check_int("a", a, 1)
    x = _check_x(x)
    if x == 0.0:
        return SpecfunResult(0.0, 0.0)
    value, err, _ = reg_lower_gamma_orders(a, a, [x])
    return SpecfunResult(float(value[0, 0]), float(err[0, 0]))


def log_kummer_series(a: int, b: int, x: float) -> float:
    """Natural log of 1F1(a; b; x) for x >= 0 from its positive series.

    b = a + 1 goes through `log_doubly_g` (1F1(a; a+1; x) = a e^x g_a(x)),
    which holds for every x; other b sum the series in double precision,
    which limits x to 700.  Negative arguments are handled by the caller
    through the Kummer transform.
    """
    if x < 0.0:
        raise ValueError("log_kummer_series requires x >= 0")
    if x == 0.0:
        return 0.0
    if b == a + 1:
        return math.log(a) + x + float(log_doubly_g(a, [x])[0])
    if x > 700.0:
        raise ValueError(f"log_kummer_series with b != a + 1 requires x <= 700, got {x!r}")
    return float(_kummer_log_sum(a, b, [x], _poisson_terms(x))[0])


def kummer_1f1(a: int, b: int, x: float) -> SpecfunResult:
    """Kummer's function 1F1(a; b; x) for integers b > a >= 1.

    Negative arguments always go through the Kummer transform
    1F1(a; b; x) = e^x 1F1(b-a; b; -x), so every summed term is positive
    and the alternating-series cancellation of the raw expansion is
    avoided.
    """
    a = _check_int("a", a, 1)
    b = _check_int("b", b, 1)
    if b <= a:
        raise ValueError(f"kummer_1f1 requires b > a, got a={a}, b={b}")
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    if x < 0.0:
        log_v = x + log_kummer_series(b - a, b, -x)
    else:
        log_v = log_kummer_series(a, b, x)
    value = math.exp(log_v) if log_v < 709.0 else math.inf
    err = 50.0 * _EPS * abs(value) + 1e-300
    return SpecfunResult(value, err)


def tricomi_u1(b: int, z: float) -> SpecfunResult:
    """Tricomi's function U(1, b, z) for integer b >= 2 and z > 0.

    U(1, b, z) = integral_0^inf e^{-z t} (1 + t)^{b-2} dt, which for
    integer b collapses to the finite sum over i of C(b-2, i) i! / z^{i+1}.
    Strictly positive and decreasing in z; singular as z -> 0.
    """
    b = _check_int("b", b, 2)
    if not math.isfinite(z) or z <= 0.0:
        raise ValueError(f"z must be finite and > 0, got {z!r}")
    log_z = math.log(z)
    n = b - 2
    log_terms = [
        _log_choose(n, i) + math.lgamma(i + 1) - (i + 1) * log_z
        for i in range(n + 1)
    ]
    log_v = _logsumexp(log_terms)
    value = math.exp(log_v) if log_v < 709.0 else math.inf
    err = (10.0 + n) * _EPS * abs(value) + 1e-300
    return SpecfunResult(value, err)


def _log_choose(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _logsumexp(logs) -> float:
    m = max(logs)
    if m == -math.inf:
        return -math.inf
    return m + math.log(sum(math.exp(v - m) for v in logs))
