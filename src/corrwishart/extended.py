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

Each formula is a builder returning its prefactor and the rows of its
determinant; `_evaluate` runs it with the arguments (plain floats, already
validated) promoted to mpf at each round's precision.  A fixed precision
is not enough by itself: the determinant can cancel more digits than the
mantissa holds, so every evaluation is repeated at increasing precision
until two consecutive results agree to the requested number of digits;
`NotConverged` is raised when that takes more than ``_MAX_DPS`` digits.
The first round runs at ``start``, or at ``dps`` when none is given: the
engine passes `first_round`, ``dps`` plus the digits its double-precision
determinant lost.  The second round confirms it 20 digits up; only after
a disagreement do later rounds run at 2d + 20 digits.
"""

from __future__ import annotations

import math

import mpmath
from mpmath.libmp import (fone, fzero, mpf_abs, mpf_div, mpf_lt, mpf_mul, mpf_neg, mpf_sub,
                          round_nearest)

from .detform import _MAX_DPS

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


def _self_validated(raw, dps: int, start: int) -> float:
    """Run ``raw`` at increasing precision until two results agree.

    ``raw(d)`` must return an mpf computed entirely at d significant
    digits.  Agreement to 10^-(dps-10) relative (or two exact zeros) is
    accepted; the final value is returned as a double.  The first round
    runs at ``start`` (the engine's `first_round`, or ``dps`` for a direct
    call), the second 20 digits up, any later one at 2d + 20.

    A confirming round 20 digits up gives the same evidence as one at twice
    the precision, however ``start`` was chosen: its error is about 10^-20
    of the first round's, so agreement to 10^-(dps-10) shows the first
    round, and so the second, which is returned, that accurate.  After a
    disagreement (say a gap entry cancelled more than the engine's measure
    saw) the doubling takes over.  Raises `NotConverged`, carrying the last
    precision tried, when the next round would exceed ``_MAX_DPS``.
    """
    tol = mpmath.mpf(10) ** (-(dps - 10))
    prev, d = None, start
    while True:
        val = raw(d)
        if prev is not None and (val == prev or val != 0 and abs(prev - val) <= tol * abs(val)):
            return float(val)
        next_d = d + 20 if prev is None else 2 * d + 20
        if next_d > _MAX_DPS:
            raise NotConverged(d)
        prev, d = val, next_d


def _evaluate(build, args, dps: int, start: int | None) -> float:
    """``pref * det(rows)`` for ``(pref, rows) = build(*args)``, through
    `_self_validated` from ``start`` (``dps`` when None).  Each round
    promotes the arguments at its own precision: integers (the dimensions)
    pass through, sequences become lists of mpf, anything else one mpf."""
    def raw(d):
        with mpmath.workdps(d):
            pref, rows = build(*(a if isinstance(a, int) else
                                 [mpmath.mpf(v) for v in a] if isinstance(a, (list, tuple)) else
                                 mpmath.mpf(a) for a in args))
            return pref * _det(rows)
    return _self_validated(raw, dps, dps if start is None else start)


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


def _col_pref(m, s):
    """(-1)^M prod s^m / Delta(s), M = m(m-1)/2: the column-model
    normalisation (`detform._col_pref_min`)."""
    pref = (-1) ** (m * (m - 1) // 2) / _gaps(s)
    for v in s:
        pref *= v ** m
    return pref


def _row_pref(n, m, s):
    """(-1)^M prod s^n / prod_k (n-m+k-1)! / Delta(s): the normalisation
    every row-model law shares (`detform._row_pref`)."""
    pref = _col_pref(m, s)
    for v in s:
        pref *= v ** (n - m)
    for k in range(n - m, n):
        pref /= mpmath.factorial(k)
    return pref


# the builders: each formula as (prefactor, rows of its determinant)


def _max_row(n, m, s, lam):
    return (_row_pref(n, m, s) * lam ** (n * m - m * (m - 1) // 2),
            [_gamma_row(n - m + 1, n, lam * v) for v in s])


def _min_row(n, m, s, lam):
    decay = mpmath.exp(-lam * sum(s))
    if n == m:
        return decay, []
    return decay * _row_pref(n, m, s), [_shifted_power_row(n - m + 1, n, lam, v) for v in s]


def _max_col(n, m, s, lam):
    pref = _col_pref(m, s) * mpmath.factorial(m)
    for k in range(1, m + 1):
        pref /= mpmath.factorial(k)
    return pref, [_gamma_row(1, m, lam * v, lam) + [v ** i for i in range(n - m)] for v in s]


def _min_col(n, m, s, lam):
    return (_col_pref(m, s) * mpmath.exp(-lam * sum(s)),
            [[v ** -k for k in range(1, m + 1)]
             + [mpmath.exp(lam * v) * v ** i for i in range(n - m)] for v in s])


def _max_doubly(n, m, r, s, lam):
    M = n * (n - 1) // 2
    pref = (-1) ** M * lam ** (n * n - M) / (_gaps(r) * _gaps(s))
    for j in range(1, n):
        pref /= mpmath.mpf(j) ** j
    for p in range(1, n - m):
        pref *= mpmath.gamma(n) / mpmath.gamma(n - p)
    for v in r + s:
        pref *= v ** n
    return pref, ([[mpmath.hyp1f1(1, n + 1, -lam * rj * v) / n for v in s] for rj in r]
                  + [[(lam * v) ** -i for v in s] for i in range(1, n - m + 1)])


def _min_doubly(n, r, s, lam):
    pref = 1 / ((-lam) ** (n * (n - 1) // 2) * _gaps(r) * _gaps(s))
    for j in range(1, n):
        pref *= mpmath.factorial(j)
    return pref, [[mpmath.exp(-lam * rj * v) for v in s] for rj in r]


def _gap_row(n, m, s, a, b):
    return _row_pref(n, m, s), [[hi - lo for hi, lo in zip(_gamma_row(n - m + 1, n, v * b, b),
                                                           _gamma_row(n - m + 1, n, v * a, a))]
                                for v in s]


def cdf_max_row(n, m, s, lam, dps=40, start=None):
    return _evaluate(_max_row, (n, m, s, lam), dps, start)


def cdf_min_row(n, m, s, lam, dps=40, start=None):
    return _evaluate(_min_row, (n, m, s, lam), dps, start)


def cdf_max_col(n, m, s, lam, dps=40, start=None):
    return _evaluate(_max_col, (n, m, s, lam), dps, start)


def cdf_min_col(n, m, s, lam, dps=40, start=None):
    return _evaluate(_min_col, (n, m, s, lam), dps, start)


def cdf_max_doubly(n, m, r, s, lam, dps=40, start=None):
    return _evaluate(_max_doubly, (n, m, r, s, lam), dps, start)


def cdf_min_doubly(n, r, s, lam, dps=40, start=None):
    return _evaluate(_min_doubly, (n, r, s, lam), dps, start)


def prob_gap_row(n, m, s, a, b, dps=40, start=None):
    return _evaluate(_gap_row, (n, m, s, a, b), dps, start)
