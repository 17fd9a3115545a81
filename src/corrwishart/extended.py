"""High-precision re-evaluation of the probability formulas.

The same determinant expressions the double-precision engine evaluates,
carried out in mpmath arbitrary precision.  mpmath's unbounded exponent
range makes log-space bookkeeping unnecessary here, so each formula is a
few lines of linear arithmetic around `_det`: Gaussian elimination with
partial pivoting on mpmath's raw binary floats (``mpmath.libmp``), every
operation rounded to nearest at the working precision.  `_det` has no
singularity tolerance: it returns an exact zero only when a pivot column
is exactly zero, so a row of tiny entries is carried through, not read as
singular.

The row and column entries are built one matrix row at a time from
positive recurrences in the order, at the working precision:

* E_a(x) = int_0^1 t^(a-1) e^(-x t) dt, so that gamma(a, x) = x^a E_a(x):
  the top order from one series per row, E_a = e^-x 1F1(1; a+1; x) / a
  (``mpmath.hyp1f1``, all terms positive), the lower orders from
  E_a = (e^-x + x E_(a+1)) / a.  It serves ``cdf_max_row`` (E_a(lam s)),
  ``cdf_max_col`` (lam^k E_k(lam s)) and ``prob_gap_row``
  (b^a E_a(s b) - a^a E_a(s a));
* F_a = int_0^inf (t + lam)^(a-1) e^(-s t) dt, the ``cdf_min_row``
  entries, from F_1 = 1/s and F_(a+1) = lam^a / s + (a / s) F_a.

Every step adds positive terms, so it contributes at most about one
rounding of relative error; no special function is called per entry.  The
column-minimum and doubly correlated entries have one order per entry and
are evaluated directly.  The double-precision engine uses the same
recurrences (`corrwishart.specfun`); the test suite keeps an independent
direct transcription of the formulas as an oracle.

A fixed working precision is not enough by itself: the determinant can
cancel more digits than the mantissa holds, so every evaluation is
repeated at increasing precision until two consecutive results agree to
the requested number of digits; `NotConverged` is raised when that takes
more than ``_MAX_DPS`` digits.  The first round runs at ``dps`` digits, or
at ``start`` when given: the engine passes `first_round`, ``dps`` plus the
digits its double-precision determinant lost, so that the first two
rounds can already agree.  Such a first round is confirmed 20 digits up;
every other round runs at 2d + 20 digits (40, 100, 220, ... without a
start).  Spectra arrive as plain floats (already validated); only the
arithmetic is promoted.
"""

from __future__ import annotations

import math

import mpmath
from mpmath.libmp import (fone, fzero, mpf_abs, mpf_div, mpf_lt, mpf_mul, mpf_neg, mpf_sub,
                          round_nearest)

__all__ = [
    "NotConverged",
    "first_round",
    "cdf_max_row",
    "cdf_min_row",
    "cdf_max_col",
    "cdf_min_col",
    "cdf_max_doubly",
    "cdf_min_doubly",
    "prob_gap_row",
]

_MAX_DPS = 1600


class NotConverged(ArithmeticError):
    """Two consecutive precisions never agreed within ``_MAX_DPS`` digits;
    ``dps`` is the last precision tried."""

    def __init__(self, dps: int):
        super().__init__(f"mpmath results still disagreed at {dps} digits")
        self.dps = dps


def first_round(dps: int, cancel: float) -> int:
    """The first precision to try after a double-precision evaluation lost
    ``cancel`` digits: dps + ceil(cancel), at least ``dps`` and at most
    (``_MAX_DPS`` - 20) // 2, so that a second round always fits; infinite
    cancellation takes that cap."""
    cap = (_MAX_DPS - 20) // 2
    return max(dps, min(dps + math.ceil(min(cap, cancel)), cap))


def _self_validated(raw, dps: int, start: int | None = None) -> float:
    """Run ``raw`` at increasing precision until two results agree.

    ``raw(d)`` must return an mpf computed entirely at d significant
    digits.  Agreement to 10^-(dps-10) relative (or two exact zeros) is
    accepted; the final value is returned as a double.  Without ``start``
    the rounds run at ``dps``, then 2d + 20 each.  With ``start`` (the
    engine's `first_round`, already sized by the measured cancellation) the
    second round runs only 20 digits up, at start + 20, and any later one
    at 2d + 20 again.

    A confirming round 20 digits up gives the same evidence as one at twice
    the precision: its error is about 10^-20 of the first round's, so when
    the two agree to 10^-(dps-10) the first round was already that accurate,
    and the value returned, from the second round, is at least as accurate.
    When they disagree (say a gap entry cancelled more than the engine's
    measure saw), the doubling takes over.  Raises `NotConverged`, carrying
    the last precision tried, when the next round would exceed ``_MAX_DPS``.
    """
    tol = mpmath.mpf(10) ** (-(dps - 10))
    prev = None
    d = dps if start is None else start
    while True:
        val = raw(d)
        if prev is not None:
            if val == prev:
                return float(val)
            if val != 0 and abs(prev - val) <= tol * abs(val):
                return float(val)
        next_d = d + 20 if prev is None and start is not None else 2 * d + 20
        if next_d > _MAX_DPS:
            raise NotConverged(d)
        prev, d = val, next_d


def _validated(raw, dps, start):
    # without a start, the two-argument call that stand-ins of
    # `_self_validated` accept
    if start is None:
        return _self_validated(raw, dps)
    return _self_validated(raw, dps, start)


def _det(rows):
    """Determinant of the square matrix given as a list of rows of mpf, at
    the working precision: Gaussian elimination with partial pivoting on
    the raw ``_mpf_`` tuples, each operation rounded to nearest.  No
    singularity tolerance: the result is an exact zero only when a pivot
    column is exactly zero."""
    prec, rnd = mpmath.mp.prec, round_nearest
    a = [[x._mpf_ for x in row] for row in rows]
    n = len(a)
    det = fone
    for k in range(n):
        p = k
        big = mpf_abs(a[k][k])
        for i in range(k + 1, n):
            mag = mpf_abs(a[i][k])
            if mpf_lt(big, mag):
                p, big = i, mag
        if big == fzero:
            return mpmath.mpf(0)
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = mpf_neg(det)
        pivot_row = a[k]
        pivot = pivot_row[k]
        det = mpf_mul(det, pivot, prec, rnd)
        for row in a[k + 1:]:
            f = mpf_div(row[k], pivot, prec, rnd)
            if f == fzero:
                continue
            for j in range(k + 1, n):
                row[j] = mpf_sub(row[j], mpf_mul(f, pivot_row[j], prec, rnd), prec, rnd)
    return mpmath.mp.make_mpf(det)


def _gaps(vals):
    out = mpmath.mpf(1)
    for j in range(len(vals)):
        for k in range(j + 1, len(vals)):
            out *= vals[k] - vals[j]
    return out


def _gamma_row(a_lo, a_hi, x, scale=1):
    """scale^a E_a(x) for the orders a = a_lo..a_hi, x > 0: E_(a_hi) from
    one positive series, the lower orders by E_a = (e^-x + x E_(a+1)) / a."""
    ex = mpmath.exp(-x)
    e = ex * mpmath.hyp1f1(1, a_hi + 1, x) / a_hi
    row = [e]
    for a in range(a_hi - 1, a_lo - 1, -1):
        e = (ex + x * e) / a
        row.append(e)
    return [scale ** a * e for a, e in zip(range(a_lo, a_hi + 1), reversed(row))]


def _shifted_power_row(a_lo, a_hi, lam, s):
    """F_a = sum_i C(a-1, i) lam^(a-1-i) i! / s^(i+1) for the orders
    a = a_lo..a_hi, by F_1 = 1/s and F_(a+1) = lam^a / s + (a / s) F_a."""
    power = f = 1 / s
    row = []
    for a in range(1, a_hi + 1):
        if a >= a_lo:
            row.append(f)
        power *= lam
        f = power + a * f / s
    return row


def cdf_max_row(n, m, s, lam, dps=40, start=None):
    def raw(d):
        with mpmath.workdps(d):
            lm = mpmath.mpf(lam)
            sv = [mpmath.mpf(v) for v in s]
            A = [_gamma_row(n - m + 1, n, lm * v) for v in sv]
            pref = mpmath.mpf(1)
            for k in range(1, m + 1):
                pref /= mpmath.factorial(n - m + k - 1)
            for v in sv:
                pref *= (lm * v) ** n
            pref /= (-lm) ** (m * (m - 1) // 2) * _gaps(sv)
            return pref * _det(A)
    return _validated(raw, dps, start)


def cdf_min_row(n, m, s, lam, dps=40, start=None):
    def raw(d):
        with mpmath.workdps(d):
            lm = mpmath.mpf(lam)
            sv = [mpmath.mpf(v) for v in s]
            if n == m:
                return mpmath.exp(-lm * sum(sv))
            A = [_shifted_power_row(n - m + 1, n, lm, v) for v in sv]
            sign = mpmath.mpf(-1) ** (m * (m - 1) // 2)
            pref = sign * mpmath.exp(-lm * sum(sv))
            for v in sv:
                pref *= v ** n
            for k in range(1, m + 1):
                pref /= mpmath.factorial(n - m + k - 1)
            pref /= _gaps(sv)
            return pref * _det(A)
    return _validated(raw, dps, start)


def cdf_max_col(n, m, s, lam, dps=40, start=None):
    def raw(d):
        with mpmath.workdps(d):
            lm = mpmath.mpf(lam)
            sv = [mpmath.mpf(v) for v in s]
            A = [_gamma_row(1, m, lm * v, lm) + [v ** i for i in range(n - m)] for v in sv]
            sign = mpmath.mpf(-1) ** (m * (m - 1) // 2)
            pref = sign * mpmath.factorial(m)
            for k in range(1, m + 1):
                pref /= mpmath.factorial(k)
            for v in sv:
                pref *= v ** m
            pref /= _gaps(sv)
            return pref * _det(A)
    return _validated(raw, dps, start)


def cdf_min_col(n, m, s, lam, dps=40, start=None):
    def raw(d):
        with mpmath.workdps(d):
            lm = mpmath.mpf(lam)
            sv = [mpmath.mpf(v) for v in s]
            A = [[v ** -k for k in range(1, m + 1)]
                 + [mpmath.exp(lm * v) * v ** i for i in range(n - m)] for v in sv]
            sign = mpmath.mpf(-1) ** (m * (m - 1) // 2)
            pref = sign * mpmath.exp(-lm * sum(sv))
            for v in sv:
                pref *= v ** m
            pref /= _gaps(sv)
            return pref * _det(A)
    return _validated(raw, dps, start)


def cdf_max_doubly(n, m, r, s, lam, dps=40, start=None):
    def raw(d):
        with mpmath.workdps(d):
            lm = mpmath.mpf(lam)
            rv = [mpmath.mpf(v) for v in r]
            sv = [mpmath.mpf(v) for v in s]
            A = ([[mpmath.hyp1f1(1, n + 1, -lm * rj * v) / n for v in sv] for rj in rv]
                 + [[(lm * v) ** -i for v in sv] for i in range(1, n - m + 1)])
            sign = mpmath.mpf(-1) ** (n * (n - 1) // 2)
            pref = sign
            for j in range(1, n):
                pref /= mpmath.mpf(j) ** j
            for p in range(1, n - m):
                pref *= mpmath.gamma(n) / mpmath.gamma(n - p)
            for v in rv:
                pref *= v ** n
            for v in sv:
                pref *= (lm * v) ** n
            pref /= lm ** (n * (n - 1) // 2) * _gaps(rv) * _gaps(sv)
            return pref * _det(A)
    return _validated(raw, dps, start)


def cdf_min_doubly(n, r, s, lam, dps=40, start=None):
    def raw(d):
        with mpmath.workdps(d):
            lm = mpmath.mpf(lam)
            rv = [mpmath.mpf(v) for v in r]
            sv = [mpmath.mpf(v) for v in s]
            A = [[mpmath.exp(-lm * rj * v) for v in sv] for rj in rv]
            pref = mpmath.mpf(1)
            for j in range(1, n):
                pref *= mpmath.factorial(j)
            pref /= (-lm) ** (n * (n - 1) // 2) * _gaps(rv) * _gaps(sv)
            return pref * _det(A)
    return _validated(raw, dps, start)


def prob_gap_row(n, m, s, a, b, dps=40, start=None):
    def raw(d):
        with mpmath.workdps(d):
            av = mpmath.mpf(a)
            bv = mpmath.mpf(b)
            sv = [mpmath.mpf(v) for v in s]
            A = [[hi - lo for hi, lo in zip(_gamma_row(n - m + 1, n, v * bv, bv),
                                            _gamma_row(n - m + 1, n, v * av, av))]
                 for v in sv]
            sign = mpmath.mpf(-1) ** (m * (m - 1) // 2)
            pref = sign
            for v in sv:
                pref *= v ** n
            for k in range(1, m + 1):
                pref /= mpmath.factorial(n - m + k - 1)
            pref /= _gaps(sv)
            return pref * _det(A)
    return _validated(raw, dps, start)
