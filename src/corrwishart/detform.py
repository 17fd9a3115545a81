"""Determinant-formula evaluation of the extreme-eigenvalue distributions.

Each (model, statistic) pair reduces to a single m x m or n x n
determinant whose entries are incomplete-gamma, confluent-hypergeometric
or pure-exponential values, multiplied by a prefactor of factorials,
spectral powers and Vandermonde products, described once per law as data
(`_PREFS`, which `corrwishart.extended` reads too).  Raw magnitudes of
those pieces overflow double precision long before the probabilities
become interesting, so a law is described on a grid of points by the logs
of its entries and of its prefactor, held as arrays; each point's value is
exponentiated only once, from its sign and log magnitude (`_finalize`).

The one genuine numerical weak point of these formulas is the Vandermonde
ratio for clustered spectra.  The engine therefore measures the decimal
digits lost between the largest intermediate magnitude and the result
(`cancellation_digits`), warns above a threshold, and -- when configured
with ``precision="extended"`` -- re-runs the affected probability through
the mpmath re-evaluation in `corrwishart.extended`.  When no round of
that re-evaluation certifies itself within its precision limit, the
double-precision value and its estimate are kept and a ``nonconverged:``
warning says so.  A value that underflows a double carries its log10
magnitude in an ``underflow:`` warning.  A spectrum that
`validate_spectrum` nudged apart gives the law of the nudged spectrum, and
every report says so (``perturbed:``).

Probability values are clamped to [0, 1] on output; the pre-clamp residual
is recorded in the report's warnings when it exceeds 1e-8.  Densities are
the derivatives of the same determinants by Jacobi's formula, returned as
nonnegative functions of lambda (signed so that they integrate to one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .model import (
    PERTURB_EPS,
    ColumnCorrelated,
    DoublyCorrelated,
    ModelCase,
    RowCorrelated,
)
from .specfun import (_log_exp_partial_sums, log_doubly_g, log_gamma_entries,
                      log_shifted_power_integrals, reg_lower_gamma_orders)

__all__ = [
    "EvalConfig",
    "EvalReport",
    "cdf_max",
    "cdf_min",
    "prob_gap",
    "pdf_max",
    "pdf_min",
    "pdf_joint_minmax",
]

_EPS = 2.220446049250313e-16
_LN10 = math.log(10.0)
_CLAMP_RESIDUAL = 1e-8
# the most digits an mpmath re-evaluation may use (`extended` imports it)
_MAX_DPS = 1600
# the cancellation that flags a value, and the digits an escalated value is
# certified to plus 10: a value is returned as a double, so more certified
# digits would only cost time
_WARN_DIGITS = 12.0
_EXTENDED_DPS = 40


# ---------------------------------------------------------------------------
# determinant kernel: one slogdet and one inverse per stack, for every law


def _jacobi(A: np.ndarray, inv: np.ndarray, log_derivs, R: np.ndarray):
    """Jacobi's formula on a scaled stack: d det / det, the sum of its terms'
    magnitudes and its error, as arrays.

    ``log_derivs`` holds one or two arrays D with dA = A o D.  One gives
    tr X, X = A^-1 (A o D); two give the mixed derivative over det,
    tr X tr Y - tr(XY), summed as 2 x 2 principal minors (entries linear in
    each variable apart).  Scaling leaves X and Y similar, the values equal.
    The error is first order: roundoff 2 N eps on every scaled entry and the
    entry errors ``R`` through the sensitivity S (d value = -sum dA o S^T),
    plus the largest entry error and a few roundings on every term.
    """
    G, N = len(A), A.shape[-1]
    dA = [A * D for D in log_derivs]
    X = [inv @ d for d in dA]
    diag = [np.diagonal(x, axis1=-2, axis2=-1) for x in X]
    if len(X) == 1:
        value = diag[0].sum(axis=-1)
        gross = np.abs(np.swapaxes(inv, -1, -2) * dA[0]).reshape(G, -1).sum(axis=-1)
        S = X[0]
    else:
        tr = [d.sum(axis=-1)[:, None, None] for d in diag]
        Xt = X[0] * np.swapaxes(X[1], -1, -2)
        outer = diag[0][:, :, None] * diag[1][:, None, :]
        value = (outer - Xt).reshape(G, -1).sum(axis=-1)  # the diagonal is exactly 0
        gross = ((np.abs(outer) + np.abs(Xt)).reshape(G, -1).sum(axis=-1)
                 - 2.0 * np.abs(diag[0] * diag[1]).sum(axis=-1))
        S = tr[1] * X[0] + tr[0] * X[1] - X[0] @ X[1] - X[1] @ X[0]
    with np.errstate(over="ignore", invalid="ignore"):  # an ill-conditioned member's error is inf
        S = np.abs(S @ inv)
        err = (2 * N * _EPS * S.reshape(G, -1).sum(axis=-1)
               + (R * np.abs(A) * np.swapaxes(S, -1, -2)).reshape(G, -1).sum(axis=-1)
               + len(X) * (R.reshape(G, -1).max(axis=-1) + (N + 2) * _EPS) * gross)
    return value, gross, err


def _det_from_logs(log_entries: np.ndarray, entry_rel_err: np.ndarray,
                   log_derivs: Sequence[np.ndarray] = ()):
    """Determinants of a stack (G, N, N) of matrices given as logs of their
    (positive) entries, from a single batched call.

    Returns arrays over the stack: sign, log |det|, cancellation digits and
    relative error; with ``log_derivs`` (one or two arrays of the entries'
    log-derivatives) also d det / det, its terms' magnitudes and its error by
    Jacobi's formula (`_jacobi`).  Each member's rows, then columns, are
    shifted in log space to a largest entry of one before exponentiating.  A
    member with a row of zeros or a column that underflows to zero is an
    exact zero (sign 0, no cancellation), and an empty (G, 0, 0) stack is one
    (sign 1, log 0, no cancellation and no error).

    The cancellation is the Hadamard bound over |det| of the scaled matrix A
    in decimal digits.  The error is the roundoff N eps (1 + growth), with
    the partial-pivoting growth taken as its measured value 1, amplified by
    that cancellation, plus the first-order propagation sum |A^-T| o
    ``entry_rel_err`` o |A|.  An exactly singular member gets sign 0,
    infinite cancellation and error.
    """
    L = np.asarray(log_entries, dtype=float)
    N = L.shape[-1]
    if N == 0:
        one, zero = np.ones(len(L)), np.zeros(len(L))
        return (one, zero, zero, zero) + (zero,) * (3 if len(log_derivs) else 0)
    row_shift = L.max(axis=-1)
    dead_rows = ~np.isfinite(row_shift)
    row_shift[dead_rows] = 0.0
    A = np.exp(L - row_shift[..., None])
    col_scale = A.max(axis=-2)
    zero = dead_rows.any(axis=-1) | (col_scale == 0.0).any(axis=-1)
    any_zero = zero.any()
    if any_zero:
        col_scale[zero] = 1.0
    A /= col_scale[:, None, :]
    if any_zero:
        A[zero] = np.eye(N)
    shift = row_shift.sum(axis=-1) + np.log(col_scale).sum(axis=-1)
    R = np.asarray(entry_rel_err, dtype=float)
    if R.shape != L.shape:
        R = np.broadcast_to(R, L.shape)

    sign, log_abs = np.linalg.slogdet(A)
    singular = sign == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        hadamard = (0.5 * np.log((A * A).sum(axis=-1))).sum(axis=-1)
        cancel = np.maximum((hadamard - log_abs) / _LN10, 0.0)
    rel = N * _EPS * 2.0 * 10.0 ** np.minimum(cancel, 250.0)
    if singular.any():
        cancel[singular] = rel[singular] = math.inf
        inv = np.zeros_like(A)
        inv[~singular] = np.linalg.inv(A[~singular])
    else:
        inv = np.linalg.inv(A)
    rel += (np.abs(np.swapaxes(inv, -1, -2)) * R * np.abs(A)).reshape(len(A), -1).sum(axis=-1)
    derivs = _jacobi(A, inv, log_derivs, R) if len(log_derivs) else ()
    if any_zero:
        sign[zero] = cancel[zero] = rel[zero] = 0.0
    return (sign, log_abs + shift, cancel, rel, *derivs)


# ---------------------------------------------------------------------------
# evaluation configuration and reports


@dataclass(frozen=True)
class EvalConfig:
    """Precision policy for the determinant engine.

    ``precision="double"`` never escalates; ``"extended"`` re-runs an
    evaluation through mpmath when it lost more than `_WARN_DIGITS` digits
    to cancellation, until one round's a-posteriori error bound certifies
    it to 10^-(`_EXTENDED_DPS` - 10) = 10^-30 relative.  The first round runs
    at `_EXTENDED_DPS` plus the digits the double-precision evaluation lost,
    capped at 790 so that a retry fits within the 1600-digit limit
    (`extended.first_round`).  A round whose bound misses runs again, higher
    by the digits it fell short plus a guard of 5; a round with no finite
    bound, an exact zero included, runs again at twice its digits.  When the
    next round would pass 1600 digits, the double-precision value is kept
    with a ``nonconverged:`` warning.
    """

    precision: str = "double"

    def __post_init__(self):
        if self.precision not in ("double", "extended"):
            raise ValueError(f"unknown precision {self.precision!r}")


_DEFAULT_CONFIG = EvalConfig()


@dataclass
class EvalReport:
    """Evaluated probability or density with reliability diagnostics."""

    value: float
    abs_error_estimate: float
    cancellation_digits: float
    warnings: List[str] = field(default_factory=list)


def _finalize(sign: float, log_mag: float, rel_err: float, cancel: float,
              cfg: EvalConfig, warnings: List[str],
              extended_fn: Optional[Callable[[int, int], Any]],
              is_probability: bool) -> EvalReport:
    """One point's report from the sign and log magnitude of its value.

    A value that rounds to 0.0 from a nonzero sign and a finite log
    magnitude carries an ``underflow:`` warning with its log10 magnitude.
    """
    if sign == 0 or log_mag == -math.inf:
        value, log10_mag = 0.0, -math.inf
    else:
        value = sign * (math.inf if log_mag > 709.0 else math.exp(log_mag))
        log10_mag = log_mag / math.log(10.0)
    if cancel > _WARN_DIGITS:
        warnings.append(
            f"cancellation:{cancel:.1f} digits lost so the double-precision result "
            "is unreliable"
        )
        if cfg.precision == "extended" and extended_fn is not None:
            # mpmath loads on first escalation
            import mpmath
            from .extended import NotConverged, first_round
            try:
                r = extended_fn(_EXTENDED_DPS, first_round(_EXTENDED_DPS, cancel))
            except NotConverged as exc:
                # the double-precision value and its estimate stand
                warnings.append(
                    f"nonconverged:no mpmath round was certified up to {exc.dps} digits "
                    "so the double-precision result is kept")
            else:  # an accepted round is never an exact zero: that has no bound
                value = float(r.value)
                log10_mag = float(mpmath.log10(abs(r.value)))
                warnings.append(f"extended:re-evaluated at {r.dps} digits with relative "
                                f"error <= {mpmath.nstr(r.bound, 2)}")
                # the round's certified bound, plus the unit roundoff 2^-53
                # of rounding its mpf to a double
                rel_err = float(r.bound) + 0.5 * _EPS
    if value == 0.0 and math.isfinite(log10_mag):
        warnings.append("underflow:value below the double range with "
                        f"log10|value| = {log10_mag:.4f}")
    if not math.isfinite(value):
        warnings.append("nonfinite:evaluation did not produce a finite value")
        return EvalReport(value, math.inf, cancel, warnings)
    abs_err = abs(value) * min(rel_err, 1e30) + 1e-300
    if is_probability:
        clamped = min(max(value, 0.0), 1.0)
        residual = value - clamped
        if abs(residual) > _CLAMP_RESIDUAL:
            warnings.append(f"clamp:residual {residual:.3e} outside the unit interval")
        value = clamped
    else:
        if value < 0.0:
            if value < -_CLAMP_RESIDUAL:
                warnings.append(f"clamp:negative density {value:.3e} set to 0")
            value = 0.0
    return EvalReport(value, abs_err, cancel, warnings)


def _check_lambda(lam: float) -> float:
    lam = float(lam)
    if not math.isfinite(lam) or lam <= 0.0:
        raise ValueError(f"lambda must be finite and > 0, got {lam!r}")
    return lam


def _check_pair(a: float, b: float) -> Tuple[float, float]:
    a, b = _check_lambda(a), float(b)
    if not (math.isfinite(b) and b > a):
        raise ValueError(f"require b > a > 0, got a={a}, b={b}")
    return a, b


# ---------------------------------------------------------------------------
# entry arrays
#
# A grid's entries, as logs of the (positive) values, come from the array
# kernels in `specfun` with first-order relative error estimates that track
# the absolute size of the log-space terms combined (x, a log x, lgamma):
# an absolute error on a log is a relative error on the entry.


def _gamma_logs(a_lo: int, a_hi: int, x: np.ndarray, log_scale) -> Tuple[np.ndarray, np.ndarray]:
    """log int_0^1 t^(a-1) e^(-x t) dt for the orders a_lo..a_hi (last axis),
    and its estimate with ``a |log_scale|`` for the size of a log x."""
    orders = np.arange(a_lo, a_hi + 1)
    lgam = np.array([math.lgamma(a) for a in orders])
    rel = _EPS * (10.0 + np.abs(lgam) + np.abs(orders * log_scale[..., None])
                  + np.minimum(x[..., None], orders + 1.0))
    return log_gamma_entries(a_lo, a_hi, x), rel


def _row_min_logs(a_lo: int, a_hi: int, lams, svals) -> Tuple[np.ndarray, np.ndarray]:
    """log sum_i C(a-1, i) lam^(a-1-i) i! / s^(i+1), the smallest-eigenvalue
    entries without their exponential factor: rows s, orders a_lo..a_hi."""
    log_v = log_shifted_power_integrals(a_lo, a_hi, np.asarray(lams, dtype=float)[:, None],
                                        np.asarray(svals, dtype=float))
    return log_v, _EPS * (10.0 + np.arange(a_lo, a_hi + 1) + np.abs(log_v))


def _power_rel(log_v):
    return _EPS * (5.0 + np.abs(log_v))


# ---------------------------------------------------------------------------
# prefactors: one description per law, the same data for the double path
# (`_log_pref`) and the mpmath path (`extended._pref`)


class _Pref(NamedTuple):
    """A law's prefactor as data,

        (-1)^pairs lam^lam_power e^(-lam sum decay) prod_(k, v in powers) prod_j v_j^k
        * prod_(a in above) Gamma(a) / prod_(a in below) Gamma(a)
        / prod_(v in vandermonde) prod_(j < k) (v_k - v_j),

    its spectra sequences of floats here and of mpfs in `extended`."""

    pairs: int
    powers: tuple = ()
    above: tuple = ()
    below: tuple = ()
    vandermonde: tuple = ()
    lam_power: int = 0
    decay: Sequence = ()


def _row_norm(n: int, m: int, s, lam_power: int = 0, decay=()) -> _Pref:
    # normalization (spectral powers over factorials) divided by the
    # spectral Vandermonde; shared by every row-model law
    return _Pref(m * (m - 1) // 2, ((n, s),), (), tuple(range(n - m + 1, n + 1)), (s,),
                 lam_power, decay)


# each law's prefactor, keyed by the name of its mpmath re-evaluation
# `extended.<name>` and taking its arguments without the points
_PREFS = {
    "cdf_max_row": lambda n, m, s: _row_norm(n, m, s, n * m - m * (m - 1) // 2),
    # at n = m the survival is e^(-lam sum s) times an empty determinant
    "cdf_min_row": lambda n, m, s: _row_norm(n, m, s, decay=s) if n > m else _Pref(0, decay=s),
    "prob_gap_row": _row_norm,
    "cdf_max_col": lambda n, m, s: _Pref(m * (m - 1) // 2, ((m, s),), (m + 1,),
                                         tuple(range(2, m + 2)), (s,)),
    "cdf_min_col": lambda n, m, s: _Pref(m * (m - 1) // 2, ((m, s),), vandermonde=(s,), decay=s),
    # prod_(k < m) k! / ((n-1)!)^m: anchored so that the m = n case is
    # exactly the square evaluation and the m < n case matches the iterated
    # large-eigenvalue limit of it (the overall sign depends on n only)
    "cdf_max_doubly": lambda n, m, r, s: _Pref(n * (n - 1) // 2, ((n, r), (n, s)),
                                               tuple(range(2, m + 1)), (n,) * m, (r, s),
                                               n * n - n * (n - 1) // 2),
    "cdf_min_doubly": lambda n, r, s: _Pref(n * (n - 1) // 2, (), tuple(range(2, n + 1)), (),
                                            (r, s), -(n * (n - 1) // 2)),
}


def _log_pref(p: _Pref, lams: np.ndarray) -> Tuple[int, np.ndarray]:
    """The sign of ``p`` and its log at each lambda of ``lams``."""
    log = (sum(math.lgamma(a) for a in p.above)
           + sum(k * sum(math.log(x) for x in v) for k, v in p.powers))
    for v in p.vandermonde:
        log -= sum(math.log(y - x) for j, x in enumerate(v) for y in v[j + 1:])
    log -= sum(math.lgamma(a) for a in p.below)
    logs = log + p.lam_power * np.log(lams) if p.lam_power else np.full(len(lams), float(log))
    if p.decay:
        logs = logs - lams * sum(p.decay)
    return -1 if p.pairs % 2 else 1, logs


# ---------------------------------------------------------------------------
# laws
#
# Each (model, statistic) has one description on a grid, shared by its CDF
# and its density.  The builders take (n, m, spectra..., points), the points
# an array of lambdas (G,) or of (a, b) pairs (G, 2).


class _Law(NamedTuple):
    """The prefactor ``_PREFS[name](*args)`` times det e^L on a grid, entry
    errors R; a (G, 0, 0) L is the empty determinant, one.

    ``name`` and ``args`` also name the mpmath re-evaluation
    ``extended.<name>(*args, *point, dps, start=start)``.  ``deriv()``,
    called for densities only, gives the derivative part: the arrays D of
    the entries' log-derivatives (dA = A o D), the constants c (the
    prefactor's log-derivative plus the row and column constants left out of
    D) and the density's sign.
    """

    name: str
    args: tuple
    L: np.ndarray
    R: np.ndarray
    deriv: Callable[[], tuple]


def _row_max(n, m, svals, lams):
    """E_a(lam s), orders n-m+1..n, times lam^(nm - M)."""
    x = lams[:, None] * np.asarray(svals, dtype=float)
    L, R = _gamma_logs(n - m + 1, n, x, np.log(x))
    # d/dlam lam^a E_a(lam s) = lam^(a-1) e^-x: e^-x / (lam E_a(x)) less the
    # column constants a/lam, which sum to the prefactor's (nm - M)/lam
    return _Law("cdf_max_row", (n, m, svals), L, R,
                lambda: ([np.exp(-x[..., None] - L) / lams[:, None, None]], 0.0, 1.0))


def _col_max(n, m, svals, lams):
    """Gamma columns, then spectral powers.  Column k holds
    Gamma(k) P(k, lam s) / s^k = lam^k int_0^1 t^(k-1) e^(-lam s t) dt."""
    lam = lams[:, None]
    s = np.asarray(svals, dtype=float)
    log_s = np.log(s)
    L = np.empty((len(lams), n, n))
    R = np.empty_like(L)
    L[:, :, :m], R[:, :, :m] = _gamma_logs(1, m, lam * s, log_s)
    L[:, :, :m] += np.arange(1, m + 1) * np.log(lam)[..., None]
    L[:, :, m:] = log_s[:, None] * np.arange(n - m)
    R[:, :, m:] = _power_rel(L[0, :, m:])

    def deriv():
        # the gamma columns lam^k E_k(lam s) have derivative lam^(k-1) e^(-lam s)
        lam3 = lams[:, None, None]
        D = np.zeros_like(L)
        D[:, :, :m] = np.exp(np.arange(m) * np.log(lam3) - lam3 * s[:, None] - L[:, :, :m])
        return [D], 0.0, 1.0

    return _Law("cdf_max_col", (n, m, svals), L, R, deriv)


def _doubly_max(n, m, rvals, svals, lams):
    """g_n(lam r s) rows, then (lam s)^-i rows for i = 1..n-m."""
    lam = lams[:, None, None]
    s = np.asarray(svals, dtype=float)
    x = lam * np.asarray(rvals, dtype=float)[:, None] * s
    L = np.empty((len(lams), n, n))
    R = np.empty_like(L)
    L[:, :m], R[:, :m] = log_doubly_g(n, x), _EPS * (20.0 + x)
    L[:, m:] = -np.arange(1, n - m + 1)[:, None] * np.log(lam * s)
    R[:, m:] = _power_rel(L[:, m:])
    M = n * (n - 1) // 2

    def deriv():
        # g_n'(x) = -(g_n(x) - g_(n+1)(x)); each (lam s)^-i row has the constant -i/lam
        D = np.zeros_like(L)
        D[:, :m] = x / lam * np.expm1(log_doubly_g(n + 1, x) - L[:, :m])
        return [D], (n * n - M - (n - m) * (n - m + 1) // 2) / lams, 1.0

    return _Law("cdf_max_doubly", (n, m, rvals, svals), L, R, deriv)


def _row_min(n, m, svals, lams):
    """`_row_min_logs` times e^(-lam sum s), a row for each value that the
    prefactor's Vandermonde divides by: none at n = m, where the survival is
    that exponential alone."""
    rows = [v for vals in _PREFS["cdf_min_row"](n, m, svals).vandermonde for v in vals]
    L, R = _row_min_logs(n - len(rows) + 1, n, lams, rows)
    # d F_a / d lam = s F_a - lam^(a-1): the row constants s add to the
    # prefactor's -sum s
    return _Law("cdf_min_row", (n, m, svals), L, R,
                lambda: ([-np.exp(np.arange(n - len(rows), n) * np.log(lams)[:, None, None] - L)],
                         -sum(svals) + sum(rows), -1.0))


def _col_min(n, m, svals, lams):
    """Inverse powers, then exponentials; times e^(-lam sum s)."""
    s = np.asarray(svals, dtype=float)[:, None]
    L = np.empty((len(lams), n, n))
    L[:, :, :m] = -np.arange(1, m + 1) * np.log(s)
    L[:, :, m:] = lams[:, None, None] * s + np.arange(n - m) * np.log(s)

    # the exponential columns have log-derivative s; taking that row constant
    # out leaves -s on the power columns and cancels e^(-lam sum s)
    return _Law("cdf_min_col", (n, m, svals), L, _power_rel(L),
                lambda: ([np.where(np.arange(n) < m, -s, 0.0)], 0.0, -1.0))


def _doubly_min(n, m, rvals, svals, lams):
    """exp(-lam r s), times lam^(-M)."""
    if m != n:
        raise ValueError("smallest-eigenvalue law for the doubly correlated model requires m = n")
    L = (-lams[:, None, None] * np.asarray(rvals, dtype=float)[None, :, None]
         * np.asarray(svals, dtype=float)[None, None, :])
    return _Law("cdf_min_doubly", (n, rvals, svals), L, _power_rel(L),
                lambda: ([-np.outer(rvals, svals)], -(n * (n - 1) // 2) / lams, -1.0))


def _gap(n, m, svals, points):
    """Gamma(k) [P(k, s b) - P(k, s a)] / s^k, orders k.  Where P(k, s a) >
    1/2 the difference is Q(k, s a) - Q(k, s b), from the logs of the finite
    Q sums, which keep their digits where P rounds to 1."""
    s = np.asarray(svals, dtype=float)
    ends = points[:, :, None] * s
    p, err, _ = reg_lower_gamma_orders(n - m + 1, n, ends)
    orders = np.arange(n - m + 1, n + 1)
    upper = p[:, 0] > 0.5
    with np.errstate(divide="ignore", invalid="ignore"):
        diff = p[:, 1] - p[:, 0]
        log_diff, R = np.log(diff), (err[:, 0] + err[:, 1]) / diff
        if upper.any():
            log_q = _log_exp_partial_sums(n - m + 1, n, ends) - ends[..., None]
            gap = -np.expm1(log_q[:, 1] - log_q[:, 0])
            log_diff = np.where(upper, log_q[:, 0] + np.log(gap), log_diff)
            size = 10.0 + orders + 2.0 * ends[:, 1, :, None] * (1.0 + orders)  # of log Q
            R = np.where(upper, size * _EPS * (2.0 - gap) / gap, R)
        live = np.isfinite(log_diff)
        L = np.where(live, [math.lgamma(a) for a in orders] + log_diff
                     - orders * np.log(s)[:, None], -np.inf)

    def deriv():
        # d/db int_a^b t^(k-1) e^(-s t) dt = b^(k-1) e^(-s b), and d/da is minus
        # the same at a; zero entries (-inf logs) stay zero
        at = points[:, :, None, None]
        slope = np.exp(np.arange(n - m, n) * np.log(at) - s[:, None] * at - L[:, None])
        slope[~np.isfinite(L[:, None]).repeat(2, axis=1)] = 0.0
        return [-slope[:, 0], slope[:, 1]], 0.0, -1.0

    return _Law("prob_gap_row", (n, m, svals), L, np.where(live, R, 1.0), deriv)


_LAWS = {
    (RowCorrelated, "max"): _row_max,
    (ColumnCorrelated, "max"): _col_max,
    (DoublyCorrelated, "max"): _doubly_max,
    (RowCorrelated, "min"): _row_min,
    (ColumnCorrelated, "min"): _col_min,
    (DoublyCorrelated, "min"): _doubly_min,
    (RowCorrelated, "gap"): _gap,
}

_PERTURBED = (f"perturbed:coincident spectrum values nudged apart in relative steps of "
              f"{PERTURB_EPS:g} (the value is that of the nudged spectrum)")


def _ext(name: str, *args) -> Callable[[int, int], Any]:
    """Deferred mpmath re-evaluation ``extended.<name>(*args, dps, start=start)``,
    returning its certified `extended.Round`."""
    def run(dps, start):
        from . import extended
        return getattr(extended, name)(*args, dps, start=start)
    return run


# ---------------------------------------------------------------------------
# the one entry: a statistic's law on a grid of points


def _grid(case: ModelCase, stat: str, points, cfg: EvalConfig = _DEFAULT_CONFIG,
          density: bool = False) -> List[EvalReport]:
    """One report per point of the ``stat`` law ("max", "min" or "gap") of
    ``case``: its CDF (the gap probability), or with ``density`` its density
    (the joint min/max density for "gap").

    The points are lambdas, or (a, b) pairs for "gap".  All the determinants
    go into one kernel call.  A density is sign * d(pref det) = sign * pref *
    det * (c + d det / det) by Jacobi's formula: each constant in c adds
    exactly its value, as every row and column of A^-T o A sums to one.  The
    factor's cancellation counts with the determinant's, and its error adds
    to the determinant's.
    """
    build = _LAWS.get((type(case), stat))
    if build is None:
        if stat == "gap":
            raise TypeError(f"{'joint density' if density else 'gap probability'} "
                            "is available for the row-correlated model only")
        raise TypeError(f"unknown model case {type(case).__name__}")
    if stat == "gap":
        points = [_check_pair(a, b) for a, b in points]
    else:
        points = [(_check_lambda(lam),) for lam in points]
    spectra = (case.r, case.s) if isinstance(case, DoublyCorrelated) else (case.s,)
    warnings = [_PERTURBED] if any(sp.perturbed for sp in spectra) else []
    n, m, G = case.dims.n, case.dims.m, len(points)
    if density and stat == "gap" and m == 1:
        # one eigenvalue cannot sit at two points
        return [EvalReport(0.0, 0.0, 0.0, list(warnings)) for _ in points]
    grid = np.asarray(points, dtype=float)
    law = build(n, m, *(list(sp) for sp in spectra), grid if stat == "gap" else grid[:, 0])
    # (a gap law has no lambda terms)
    pref_sign, logs = _log_pref(_PREFS[law.name](*law.args), grid[:, 0])
    Ds, consts, dsign = law.deriv() if density else ((), 0.0, 1.0)
    sign, log_det, cancel, rel, *derivs = _det_from_logs(law.L, law.R, Ds)
    # every value also carries the rounding of the logs it is exponentiated from
    rel = rel + (5.0 + np.abs(logs) + np.abs(log_det)) * _EPS
    dets = [a.tolist() for a in (sign, log_det, cancel, rel, *derivs)]
    logs = logs.tolist()
    if not density:
        return [_finalize(pref_sign * sign, log + log_det, rel, cancel, cfg, list(warnings),
                          _ext(law.name, *law.args, *point), True)
                for point, log, sign, log_det, cancel, rel
                in zip(points, logs, *dets)]
    out = []
    consts = np.broadcast_to(consts, (G,)).tolist()
    for log, c, sign, log_det, cancel, rel, deriv, gross, err in zip(logs, consts, *dets):
        factor = c + deriv
        if sign == 0:  # an exact zero determinant decides
            factor, lost = 1.0, 1.0
        elif factor:
            rel += (err + _EPS * abs(c)) / abs(factor)
            lost = (abs(c) + gross) / abs(factor)
        else:
            rel = lost = math.inf
        value_sign = pref_sign * sign * (dsign if factor > 0 else -dsign if factor else 0)
        out.append(_finalize(value_sign, log + log_det + math.log(abs(factor or 1.0)), rel,
                             max(cancel, math.log10(lost)), cfg, list(warnings), None, False))
    return out


# ---------------------------------------------------------------------------
# public functions: a grid of one point


def cdf_max(case: ModelCase, lam: float, cfg: EvalConfig = _DEFAULT_CONFIG) -> EvalReport:
    """Pr(largest eigenvalue of Z^H Z <= lam) for a validated model case."""
    return _grid(case, "max", [lam], cfg)[0]


def cdf_min(case: ModelCase, lam: float, cfg: EvalConfig = _DEFAULT_CONFIG) -> EvalReport:
    """Pr(smallest eigenvalue of Z^H Z >= lam) for a validated model case.

    For the doubly correlated model this requires m = n; the m < n law has
    no closed determinant form (the extra zero eigenvalues of the padded
    problem pin the smallest eigenvalue at zero).
    """
    return _grid(case, "min", [lam], cfg)[0]


def prob_gap(case: RowCorrelated, a: float, b: float,
             cfg: EvalConfig = _DEFAULT_CONFIG) -> EvalReport:
    """Pr(no eigenvalue in (0, a) and none in (b, inf)), row model, 0 < a < b."""
    return _grid(case, "gap", [(a, b)], cfg)[0]


def pdf_max(case: ModelCase, lam: float, cfg: EvalConfig = _DEFAULT_CONFIG) -> EvalReport:
    """Density of the largest eigenvalue at lam (nonnegative).

    The lambda-derivative of the `cdf_max` determinant formula, from one
    factorisation of its matrix by Jacobi's formula; analytic for every
    model (the doubly correlated g_n rows through g_n' = g_(n+1) - g_n).
    """
    return _grid(case, "max", [lam], cfg, density=True)[0]


def pdf_min(case: ModelCase, lam: float, cfg: EvalConfig = _DEFAULT_CONFIG) -> EvalReport:
    """Density of the smallest eigenvalue at lam (nonnegative).

    Minus the lambda-derivative of the `cdf_min` determinant formula, from
    one factorisation of its matrix by Jacobi's formula; the doubly
    correlated model requires m = n.
    """
    return _grid(case, "min", [lam], cfg, density=True)[0]


def pdf_joint_minmax(case: RowCorrelated, a: float, b: float,
                     cfg: EvalConfig = _DEFAULT_CONFIG) -> EvalReport:
    """Joint density of (smallest, largest) eigenvalue at (a, b), row model.

    Minus the mixed partial of the `prob_gap` determinant formula, from one
    factorisation of its matrix by Jacobi's formula (each entry is an
    integral from a to b, so no entry has a mixed term).  Identically zero
    at m = 1 (one eigenvalue cannot sit at two points).
    """
    return _grid(case, "gap", [(a, b)], cfg, density=True)[0]
