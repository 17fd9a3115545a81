"""The mpmath re-evaluation: its determinant, its row recurrences, an
independent oracle, its round schedule and its non-convergence report."""

import functools
import math
import struct
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath.libmp import from_man_exp, round_nearest

from corrwishart import extended
from corrwishart.detform import (EvalConfig, _LAWS, _entries, _finalize, cdf_max, cdf_min,
                                 pdf_max, pdf_min, prob_gap)
from corrwishart.model import (ColumnCorrelated, Dimensions, DoublyCorrelated, RowCorrelated,
                               Spectrum, validate_spectrum)


def evenly(lo, hi, count):
    return [float(v) for v in np.linspace(lo, hi, count)]


# ---------------------------------------------------------------------------
# oracle: direct transcriptions of every formula, each with its own
# prefactor and one mpmath special function (or binomial sum) per entry,
# and its determinant taken exactly in rationals (`exact_det`).  ``raw(d)``
# evaluates at d digits; none of it shares code with `corrwishart.extended`
# or with the prefactor descriptions of `corrwishart.detform`.


def exact(x):
    """The float or mpf ``x`` as a Fraction, exactly."""
    if isinstance(x, float):
        return Fraction(x)
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


def fraction_det(rows):
    """Exact determinant of a matrix of Fractions by Gaussian elimination."""
    a = [list(row) for row in rows]
    n, det = len(a), Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k] != 0), None)
        if p is None:
            return Fraction(0)
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k + 1, n):
                a[i][j] -= f * a[k][j]
    return det


def exact_det(A):
    """The determinant of the mpmath matrix ``A``, exact in rationals, then
    rounded to the working precision: no tolerance reads a matrix whose rows
    span many orders of magnitude as singular."""
    det = fraction_det([[exact(x) for x in row] for row in A.tolist()])
    return mpmath.mpf(det.numerator) / det.denominator


def _gaps(vals):
    out = mpmath.mpf(1)
    for j in range(len(vals)):
        for k in range(j + 1, len(vals)):
            out *= vals[k] - vals[j]
    return out


def _lower_gamma(a, x):
    return mpmath.gammainc(a, 0, x)


def oracle_cdf_max_row(n, m, s, lam):
    def raw(d):
        with mpmath.workdps(d):
            lm = mpmath.mpf(lam)
            sv = [mpmath.mpf(v) for v in s]
            A = mpmath.matrix(m, m)
            for j in range(m):
                x = lm * sv[j]
                for k in range(1, m + 1):
                    a = n - m + k
                    A[j, k - 1] = _lower_gamma(a, x) / x ** a
            pref = mpmath.mpf(1)
            for k in range(1, m + 1):
                pref /= mpmath.factorial(n - m + k - 1)
            for v in sv:
                pref *= (lm * v) ** n
            pref /= (-lm) ** (m * (m - 1) // 2) * _gaps(sv)
            return pref * exact_det(A)
    return raw


def oracle_cdf_min_row(n, m, s, lam):
    def raw(d):
        with mpmath.workdps(d):
            lm = mpmath.mpf(lam)
            sv = [mpmath.mpf(v) for v in s]
            A = mpmath.matrix(m, m)
            for j in range(m):
                for k in range(1, m + 1):
                    a = n - m + k
                    total = mpmath.mpf(0)
                    for i in range(a):
                        total += (mpmath.binomial(a - 1, i) * lm ** (a - 1 - i)
                                  * mpmath.factorial(i) / sv[j] ** (i + 1))
                    A[j, k - 1] = total
            sign = mpmath.mpf(-1) ** (m * (m - 1) // 2)
            pref = sign * mpmath.exp(-lm * sum(sv))
            for v in sv:
                pref *= v ** n
            for k in range(1, m + 1):
                pref /= mpmath.factorial(n - m + k - 1)
            pref /= _gaps(sv)
            return pref * exact_det(A)
    return raw


def oracle_cdf_max_col(n, m, s, lam):
    def raw(d):
        with mpmath.workdps(d):
            lm = mpmath.mpf(lam)
            sv = [mpmath.mpf(v) for v in s]
            A = mpmath.matrix(n, n)
            for j in range(n):
                for k in range(1, m + 1):
                    A[j, k - 1] = _lower_gamma(k, lm * sv[j]) / sv[j] ** k
                for i in range(1, n - m + 1):
                    A[j, m + i - 1] = sv[j] ** (i - 1)
            sign = mpmath.mpf(-1) ** (m * (m - 1) // 2)
            pref = sign * mpmath.factorial(m)
            for k in range(1, m + 1):
                pref /= mpmath.factorial(k)
            for v in sv:
                pref *= v ** m
            pref /= _gaps(sv)
            return pref * exact_det(A)
    return raw


def oracle_prob_gap_row(n, m, s, a, b):
    def raw(d):
        with mpmath.workdps(d):
            av = mpmath.mpf(a)
            bv = mpmath.mpf(b)
            sv = [mpmath.mpf(v) for v in s]
            A = mpmath.matrix(m, m)
            for j in range(m):
                for k in range(1, m + 1):
                    ak = n - m + k
                    A[j, k - 1] = (_lower_gamma(ak, sv[j] * bv)
                                   - _lower_gamma(ak, sv[j] * av)) / sv[j] ** ak
            sign = mpmath.mpf(-1) ** (m * (m - 1) // 2)
            pref = sign
            for v in sv:
                pref *= v ** n
            for k in range(1, m + 1):
                pref /= mpmath.factorial(n - m + k - 1)
            pref /= _gaps(sv)
            return pref * exact_det(A)
    return raw


def oracle_cdf_min_col(n, m, s, lam):
    def raw(d):
        with mpmath.workdps(d):
            lm = mpmath.mpf(lam)
            sv = [mpmath.mpf(v) for v in s]
            A = mpmath.matrix(n, n)
            for j in range(n):
                for k in range(1, m + 1):
                    A[j, k - 1] = sv[j] ** -k
                for i in range(n - m):
                    A[j, m + i] = mpmath.exp(lm * sv[j]) * sv[j] ** i
            pref = mpmath.mpf(-1) ** (m * (m - 1) // 2) * mpmath.exp(-lm * sum(sv)) / _gaps(sv)
            for v in sv:
                pref *= v ** m
            return pref * exact_det(A)
    return raw


def _doubly_g(n, x):
    # int_0^1 (1-t)^(n-1) e^(-x t) dt by Kummer's transformation of
    # 1F1(1; n+1; -x) / n
    return mpmath.exp(-x) * mpmath.hyp1f1(n, n + 1, x) / n


def oracle_cdf_max_doubly(n, m, r, s, lam):
    def raw(d):
        with mpmath.workdps(d):
            lm = mpmath.mpf(lam)
            rv = [mpmath.mpf(v) for v in r]
            sv = [mpmath.mpf(v) for v in s]
            A = mpmath.matrix(n, n)
            for k in range(n):
                for j in range(m):
                    A[j, k] = _doubly_g(n, lm * rv[j] * sv[k])
                for i in range(1, n - m + 1):
                    A[m + i - 1, k] = (lm * sv[k]) ** -i
            M = n * (n - 1) // 2
            pref = mpmath.mpf(-1) ** M * lm ** (n * n - M) / (_gaps(rv) * _gaps(sv))
            for v in rv + sv:
                pref *= v ** n
            for j in range(1, n):
                pref /= mpmath.mpf(j) ** j
            for p in range(1, n - m):
                pref *= mpmath.factorial(n - 1) / mpmath.factorial(n - p - 1)
            return pref * exact_det(A)
    return raw


def oracle_cdf_min_doubly(n, r, s, lam):
    def raw(d):
        with mpmath.workdps(d):
            lm = mpmath.mpf(lam)
            rv = [mpmath.mpf(v) for v in r]
            sv = [mpmath.mpf(v) for v in s]
            A = mpmath.matrix(n, n)
            for j in range(n):
                for k in range(n):
                    A[j, k] = mpmath.exp(-lm * rv[j] * sv[k])
            pref = 1 / ((-lm) ** (n * (n - 1) // 2) * _gaps(rv) * _gaps(sv))
            for j in range(1, n):
                pref *= mpmath.factorial(j)
            return pref * exact_det(A)
    return raw


def validated_mpf(raw, dps, start=None):
    """A doubling self-validation schedule from ``start`` (``dps`` when
    None), returning the agreed mpf itself.  In place of
    `extended._self_validated`, whose ``raw`` gives `extended.Round`s, it
    compares their values and returns the later Round."""
    tol = mpmath.mpf(10) ** (10 - dps)
    prev, d = None, dps if start is None else start
    while True:
        assert d <= extended._MAX_DPS, "oracle did not converge"
        out = raw(d)
        val = getattr(out, "value", out)
        if prev is not None and (val == prev or abs(val - prev) <= tol * abs(val)):
            return out
        prev, d = val, 2 * d + 20


# ---------------------------------------------------------------------------
# entry level: the row recurrences against their definitions

ORDERS = 64
XS = ["1e-8", "1e-3", "0.5", "3", "17.25", "63", "100", "200"]
# the top order's turning point and 2^-40 relative on either side (exact at 53 bits)
BRANCH_XS = [mpmath.mpf(ORDERS + 1) * (1 - mpmath.ldexp(1, -40)), mpmath.mpf(ORDERS + 1),
             mpmath.mpf(ORDERS + 1) * (1 + mpmath.ldexp(1, -40)), "1e3", "2e4", "1e5"]


def rel_gap(got, want):
    return abs(got - want) / abs(want)


def gap_reference(k, s, a, b, dps):
    """int_a^b t^(k-1) e^(-s t) dt = (gamma(k, s a) - gamma(k, s b)) / s^k to
    ``dps`` digits.  mpmath may take it as a difference of two integrals,
    which loses digits over a narrow interval, so the precision rises by 30
    digits until two evaluations agree to ``dps`` digits."""
    last, d = None, dps
    while True:
        with mpmath.workdps(d):
            want = mpmath.gammainc(k, s * a, s * b) / s ** k
            if last is not None and abs(want - last) <= abs(want) * mpmath.mpf(10) ** -dps:
                return want
        last, d = want, d + 30


# the kernels at 136 bits and at 540 bits, about the top of the escalation
# workload's rounds (156 digits)
KERNEL_PRECS = [136, 540]
# the orders of the crossover checks, and their fixed arguments besides 2n
# (for g) or a_hi + 1 (for a gamma row)
CROSS_ORDERS = [1, 3, 8, 16, 32]
CROSS_ARGS = [5e-324, 1e-300, 1e-3, 1e3]


def first_true(pred, lo, hi):
    """The least double x in (lo, hi] with pred(x), for pred false at lo and
    true at hi, by bisection on the doubles' ordinals."""
    assert not pred(lo) and pred(hi)
    a, b = (struct.unpack("<q", struct.pack("<d", x))[0] for x in (lo, hi))
    while b - a > 1:
        mid = (a + b) // 2
        if pred(struct.unpack("<d", struct.pack("<q", mid))[0]):
            b = mid
        else:
            a = mid
    return struct.unpack("<d", struct.pack("<q", b))[0]


def fixed_point(x):
    """The double x > 0 as (mul, f), x = mul 2^-f, as the kernels read it."""
    m, e = extended._digits(x)
    return m << max(e, 0), max(-e, 0)


def ulp_around(x):
    """x and the doubles one ulp below and above it."""
    return [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]


class TestRowRecurrences:
    @pytest.mark.parametrize("x", XS)
    def test_gamma_row(self, x):
        with mpmath.workdps(60):
            xv = mpmath.mpf(x)
            full = extended._gamma_row(1, ORDERS, extended._digits(xv), (1, 0))
            tail = extended._gamma_row(40, ORDERS, extended._digits(xv), (1, 0))
        assert len(full) == ORDERS and tail == full[39:]
        with mpmath.workdps(90):
            for a, got in enumerate(full, start=1):
                want = mpmath.gammainc(a, 0, xv) / xv ** a
                assert rel_gap(mpmath.mpf(got), want) < 1e-50, (a, x)

    @pytest.mark.parametrize("lam", ["1e-6", "0.3", "2.5", "40"])
    def test_scaled_gamma_row_with_mpf_lambda(self, lam):
        # column-model entries lam^k E_k(lam s) = gamma(k, lam s) / s^k, with
        # lam s exact, within 1.1 ulps
        with mpmath.workdps(60):
            lm, u = mpmath.mpf(lam), mpmath.ldexp(1, -mpmath.mp.prec)
            for s in ("0.5", "1.7", "5"):
                sv = mpmath.mpf(s)
                row = extended._gamma_row(1, ORDERS, extended._product(lm, sv),
                                          extended._digits(lm))
                ulps = 1.1
                with mpmath.workdps(90):
                    for k, got in enumerate(row, start=1):
                        want = mpmath.gammainc(k, 0, lm * sv) / sv ** k
                        assert abs(mpmath.mpf(got) - want) <= ulps * u * want, (k, lam, s)

    @pytest.mark.parametrize("lam", ["1e-8", "0.2", "3", "200"])
    def test_shifted_power_row(self, lam):
        # the tail entries int_lam^inf t^(a-1) e^(-s t) dt
        with mpmath.workdps(60):
            lm = mpmath.mpf(lam)
            for s in ("1e-3", "0.5", "4", "150"):
                sv = mpmath.mpf(s)
                row = extended._shifted_power_row(1, ORDERS, lm, sv)
                assert extended._shifted_power_row(30, ORDERS, lm, sv) == row[29:]
                for a, got in enumerate(row, start=1):
                    want = gap_reference(a, sv, lm, mpmath.inf, 90)
                    assert rel_gap(mpmath.mpf(got), want) < 1e-50, (a, lam, s)

    @pytest.mark.parametrize("a,b", [("0.05", "2"), ("1", "1.001"), ("3", "150"),
                                     ("1", "1.000000001"), ("1e-8", "inf"), ("0.2", "inf"),
                                     ("3", "inf"), ("200", "inf")])
    def test_gamma_difference(self, a, b):
        # gap entries int_a^b t^(k-1) e^(-s t) dt = (gamma(k, s a) - gamma(k, s b)) / s^k,
        # within the gap block's ulps; b = inf is the tail, the block at the point (a,)
        with mpmath.workdps(60):
            av, bv, u = mpmath.mpf(a), mpmath.mpf(b), mpmath.ldexp(1, -mpmath.mp.prec)
            for s in ("0.4", "1.3"):
                sv = mpmath.mpf(s)
                point = (av,) if b == "inf" else (av, bv)
                (row,), ulps = extended._block("gap", range(1, ORDERS + 1), [sv], point)
                for k, got in enumerate(row, start=1):
                    want = gap_reference(k, sv, av, bv, 90)
                    assert abs(mpmath.mpf(got) - want) <= ulps * u * want, (k, a, b, s)

    # both branches of the top order, the series below x = a_hi + 1 and the
    # finite sum from there on: x at a_hi + 1 and 2^-40 relative on either
    # side of it, then far past it; rows within 1.1 ulps against
    # mpmath.gammainc 30 digits up

    @pytest.mark.parametrize("dps", [60, 400])
    @pytest.mark.parametrize("a_lo", [1, ORDERS])
    @pytest.mark.parametrize("x", BRANCH_XS)
    def test_gamma_row_branches(self, x, a_lo, dps):
        with mpmath.workdps(dps):
            xv, u = mpmath.mpf(x), mpmath.ldexp(1, -mpmath.mp.prec)
            row = extended._gamma_row(a_lo, ORDERS, extended._digits(xv), (1, 0))
            ulps = 1.1
        with mpmath.workdps(dps + 30):
            for a, got in enumerate(row, start=a_lo):
                want = mpmath.gammainc(a, 0, xv) / xv ** a
                assert abs(mpmath.mpf(got) - want) <= ulps * u * want, (a, x, dps)

    @pytest.mark.parametrize("dps", [60, 400])
    @pytest.mark.parametrize("a_lo", [1, ORDERS])
    @pytest.mark.parametrize("x", BRANCH_XS)
    def test_scaled_gamma_row_branches(self, x, a_lo, dps):
        # lam^k E_k(lam s) = gamma(k, lam s) / s^k, with lam s = x exactly at
        # s = 0.5 and 4; at s = 3 lam = x / 3 fills the mantissa, so that every
        # power of it is truncated
        with mpmath.workdps(dps):
            u = mpmath.ldexp(1, -mpmath.mp.prec)
            for s in ("0.5", "4", "3"):
                sv = mpmath.mpf(s)
                lm = mpmath.mpf(x) / sv
                row = extended._gamma_row(a_lo, ORDERS, extended._product(lm, sv),
                                          extended._digits(lm))
                ulps = 1.1
                with mpmath.workdps(dps + 30):
                    for k, got in enumerate(row, start=a_lo):
                        want = mpmath.gammainc(k, 0, lm * sv) / sv ** k
                        assert abs(mpmath.mpf(got) - want) <= ulps * u * want, (k, x, s, dps)

    @pytest.mark.parametrize("prec", KERNEL_PRECS)
    @pytest.mark.parametrize("a_hi", CROSS_ORDERS)
    def test_gamma_row_crossovers(self, a_hi, prec):
        # one ulp on either side of the change from the series to the finite
        # sum from its first term (`_gamma_lift`) and of x = a_hi + 1, where
        # the sum from its top term takes over, and the fixed arguments;
        # within 1.1 ulps of mpmath.gammainc 100 bits up, and a row from
        # a_lo a slice of the row from 1
        def finite(x):
            mul, f = fixed_point(x)
            return mul >= (a_hi + 1) << f or extended._gamma_lift(a_hi, mul, f, prec) is not None
        cross = first_true(finite, 5e-324, a_hi + 1.0)
        for x in ulp_around(cross) + ulp_around(a_hi + 1.0) + CROSS_ARGS:
            with mpmath.workprec(prec):
                u, digits = mpmath.ldexp(1, -prec), extended._digits(x)
                full = extended._gamma_row(1, a_hi, digits, (1, 0))
                for a_lo in {(a_hi + 1) // 2, a_hi}:
                    assert extended._gamma_row(a_lo, a_hi, digits, (1, 0)) == full[a_lo - 1:]
            with mpmath.workprec(prec + 100):
                xv = mpmath.mpf(x)
                for a, got in enumerate(full, start=1):
                    want = mpmath.gammainc(a, 0, xv) / xv ** a
                    assert abs(mpmath.mpf(got) - want) <= 1.1 * u * want, (a, x, prec)

    @pytest.mark.parametrize("dps", [60, 400])
    @pytest.mark.parametrize("a_lo", [1, ORDERS])
    @pytest.mark.parametrize("lo,hi", list(zip(["1"] + BRANCH_XS, BRANCH_XS))
                             + [(BRANCH_XS[1], BRANCH_XS[1] * (1 + mpmath.mpf("1e-9")))])
    def test_gamma_difference_branches(self, lo, hi, a_lo, dps):
        # gap entries with s a = lo and s b = hi, within the gap block's ulps
        with mpmath.workdps(dps):
            u = mpmath.ldexp(1, -mpmath.mp.prec)
            for s in ("0.5", "4"):
                sv = mpmath.mpf(s)
                av, bv = mpmath.mpf(lo) / sv, mpmath.mpf(hi) / sv
                (row,), ulps = extended._block("gap", range(a_lo, ORDERS + 1), [sv], (av, bv))
                for k, got in enumerate(row, start=a_lo):
                    want = gap_reference(k, sv, av, bv, dps + 30)
                    assert abs(mpmath.mpf(got) - want) <= ulps * u * want, (k, lo, hi, s, dps)


# ---------------------------------------------------------------------------
# the integer kernels against independent references, at `KERNEL_PRECS`


def g_reference(n, y, prec):
    """g_n(y) by Kummer's transformation (`_doubly_g`), 30 bits past ``prec``
    and raised by 60 bits until two evaluations agree to that."""
    last, p = None, prec + 30
    while True:
        with mpmath.workprec(p):
            want = _doubly_g(n, y)
        if last is not None and abs(want - last) <= abs(want) * mpmath.ldexp(1, -prec - 30):
            return want
        last, p = want, p + 60


class TestDigits:
    # every kernel reads its inputs through `_digits`: exactly, with an odd
    # mantissa (zero is (0, 0))
    @pytest.mark.parametrize("x", [0, 1, -12, 3 << 200, -(5 ** 90), 0.0, -0.0, 1.0, 4.0, -2.5,
                                   0.1, -1e-300, 5e-324, -2.2250738585072014e-308 / 3,
                                   1.7976931348623157e308, -1e300, np.float64(0.3)])
    def test_ints_and_floats(self, x):
        man, exp = extended._digits(x)
        assert isinstance(man, int) and isinstance(exp, int)
        assert Fraction(man) * Fraction(2) ** exp == Fraction(x)
        assert man % 2 == 1 or man == exp == x == 0

    def test_mpfs(self):
        with mpmath.workdps(100):
            xs = [mpmath.mpf(0), mpmath.mpf(1) / 3, -mpmath.mpf(2) / 3, mpmath.ldexp(-7, -5000),
                  mpmath.ldexp(mpmath.mpf(5) / 7, 4000), mpmath.mpf("1e-320")]
        for x in xs:
            man, exp = extended._digits(x)
            assert Fraction(man) * Fraction(2) ** exp == exact(x)
            assert man % 2 == 1 or man == exp == x == 0


class TestEntry:
    # every kernel rounds its entries through `_entry`: the digits of
    # mpmath's from_man_exp at the working precision, round to nearest, even
    @staticmethod
    def mpmath_digits(man, exp, prec):
        sign, m, e, _ = from_man_exp(man, exp, prec, round_nearest)
        return -m if sign else m, e

    @pytest.mark.parametrize("prec", [53, 136, 540])
    def test_against_from_man_exp(self, prec):
        rng = np.random.default_rng(prec)
        mans = [int(rng.integers(1, 2 ** 62)) << int(rng.integers(0, 3 * prec))
                | int(rng.integers(0, 2)) for _ in range(400)]
        mans += [(1 << b) - 1 for b in range(1, 2 * prec)]  # carries to a power of two
        # exact ties, with an even and with an odd kept mantissa, at several cuts
        for cut in (1, 2, 7, 64, prec):
            for kept in ((1 << (prec - 1)) + 2, (1 << (prec - 1)) + 3, (1 << prec) - 1):
                mans.append((kept << cut) | (1 << (cut - 1)))
        with mpmath.workprec(prec):
            for man in mans + [0]:
                for m in (man, -man):
                    for exp in (-prec - 7, 0, 11):
                        assert extended._entry(m, exp) == self.mpmath_digits(m, exp, prec), m

    def test_every_block_family_returns_int_pairs(self):
        with mpmath.workdps(40):
            point = (mpmath.mpf("0.3"),)
            blocks = [("lamE", range(2, 5), point), ("pow", range(-2, 2), point),
                      ("exp", range(0, 3), point), ("g", (0.5, 1.5), point),
                      ("expr", (0.5, 1.5), point), ("gap", range(2, 5), point),
                      ("gap", range(2, 5), (0.3, 2.0))]
            for family, k, at in blocks:
                rows, _ = extended._block(family, k, [0.7, 1.9, 3.0], at)
                assert len(rows) == 3 and all(len(row) == len(k) for row in rows)
                for man, exp in (entry for row in rows for entry in row):
                    assert type(man) is int and type(exp) is int and man % 2 == 1, family


class TestKernelOracles:
    @pytest.mark.parametrize("prec", KERNEL_PRECS)
    @pytest.mark.parametrize("n", range(1, 13))
    def test_g_entries(self, n, prec):
        # the series below y = 2n, the finite sum from there (2n and 2^-40
        # relative on either side), with and without its e^-y term (which is
        # left out from y = w, a few bits above 136 and 540)
        ys = ["1e-8", "1e-3", "0.3", "1", "6", "30", "100", "150", "170", "550", "580",
              "1e4", "1e9"]
        two_n = mpmath.mpf(2 * n)
        ys += [two_n * (1 - mpmath.ldexp(1, -40)), two_n, two_n * (1 + mpmath.ldexp(1, -40))]
        for y in ys:
            with mpmath.workprec(prec):
                yv, u = mpmath.mpf(y), mpmath.ldexp(1, -prec)
                got = extended._g(n, *extended._product(yv))
            want = g_reference(n, yv, prec)
            with mpmath.workprec(prec + 60):
                assert abs(mpmath.mpf(got) - want) <= 1.1 * u * want, (n, y, prec)

    @pytest.mark.parametrize("prec", KERNEL_PRECS)
    @pytest.mark.parametrize("n", CROSS_ORDERS)
    def test_g_crossovers(self, n, prec):
        # one ulp on either side of the change from the series to the finite
        # sum (`_g_lift`) and of y = n, where the sum's lift takes its short
        # form, and the fixed arguments, 2n among them; within 1.1 ulps of
        # the reference 100 bits up
        cross = first_true(lambda y: extended._g_lift(n, *fixed_point(y), prec) is not None,
                           5e-324, float(n))
        assert extended._g_lift(n, *fixed_point(math.nextafter(cross, 0.0)), prec) is None
        for y in ulp_around(cross) + ulp_around(float(n)) + CROSS_ARGS + [2.0 * n]:
            with mpmath.workprec(prec):
                u = mpmath.ldexp(1, -prec)
                got = extended._g(n, *extended._digits(y))
            want = g_reference(n, mpmath.mpf(y), prec + 70)
            with mpmath.workprec(prec + 100):
                assert abs(mpmath.mpf(got) - want) <= 1.1 * u * want, (n, y, prec)

    @pytest.mark.parametrize("prec", KERNEL_PRECS)
    @pytest.mark.parametrize("lam", ["1e-8", "0.2", "3", "200"])
    def test_shifted_power_row(self, lam, prec):
        # the tail entries int_lam^inf t^(a-1) e^(-s t) dt within the tail
        # block's ulps, and a row from a_lo a slice of the row from 1
        dps = mpmath.libmp.prec_to_dps(prec)
        for s in ("1e-3", "0.5", "4", "150"):
            with mpmath.workprec(prec):
                lm, sv, u = mpmath.mpf(lam), mpmath.mpf(s), mpmath.ldexp(1, -prec)
                (row,), ulps = extended._block("gap", range(1, ORDERS + 1), [sv], (lm,))
                assert extended._shifted_power_row(30, ORDERS, lm, sv) == row[29:]
            for a, got in enumerate(row, start=1):
                want = gap_reference(a, sv, lm, mpmath.inf, dps + 30)
                with mpmath.workprec(prec + 100):
                    assert abs(mpmath.mpf(got) - want) <= ulps * u * want, (a, lam, s, prec)

    def test_gap_with_a_full_mantissa(self):
        # a = 1/3 at 400 digits has a 1 331-bit mantissa, by which the gap's
        # Pascal integers would grow a level without their truncation
        with mpmath.workdps(400):
            av, bv, u = mpmath.mpf(1) / 3, mpmath.mpf(2), mpmath.ldexp(1, -mpmath.mp.prec)
            for s in ("0.4", "1.3"):
                sv = mpmath.mpf(s)
                (row,), ulps = extended._block("gap", range(1, ORDERS + 1), [sv], (av, bv))
                for k, got in enumerate(row, start=1):
                    want = gap_reference(k, sv, av, bv, 430)
                    assert abs(mpmath.mpf(got) - want) <= ulps * u * want, (k, s)


# ---------------------------------------------------------------------------
# function level: the recurrences inside the formulas against the oracle,
# on the shapes of the benchmark's escalation workload, and every law's
# prefactor (which the double path shares) against its transcription

DPS = 40


def _row_cases():
    for m in range(6, 13):
        s, n = evenly(0.5, 4.0, m), m + 4
        for lam in (0.5, 2.0):
            yield f"row {n}x{m} max {lam}", "cdf_max_row", oracle_cdf_max_row, (n, m, s, lam)
        yield f"row {n}x{m} min", "cdf_min_row", oracle_cdf_min_row, (n, m, s, 0.2)
        yield f"row {n}x{m} gap", "prob_gap_row", oracle_prob_gap_row, (n, m, s, 0.05, 2.0)
    for m in (6, 8):
        s = evenly(0.5, 4.0, m + 2)
        yield f"column {m + 2}x{m} max", "cdf_max_col", oracle_cdf_max_col, (m + 2, m, s, 0.5)
    clustered = [1.0, 1.0001, 1.0002]
    yield "clustered row 5x3 min", "cdf_min_row", oracle_cdf_min_row, (5, 3, clustered, 0.3)
    yield "clustered row 5x3 max", "cdf_max_row", oracle_cdf_max_row, (5, 3, clustered, 1.5)
    yield ("row 8x6 narrow gap", "prob_gap_row", oracle_prob_gap_row,
           (8, 6, evenly(0.5, 4.0, 6), 1.0, 1.0001))


def _other_cases():
    # every other law, each prefactor against its own transcription; row
    # n = m is the prefactor alone in `corrwishart`, a full determinant here
    for n in (3, 4):
        yield (f"row {n}x{n} min", "cdf_min_row", oracle_cdf_min_row,
               (n, n, evenly(0.5, 4.0, n), 0.6))
    yield ("column 5x3 min", "cdf_min_col", oracle_cdf_min_col,
           (5, 3, evenly(0.5, 4.0, 5), 0.8))
    r, s = evenly(0.5, 2.5, 4), evenly(0.6, 1.8, 6)
    yield "doubly 6x4 max", "cdf_max_doubly", oracle_cdf_max_doubly, (6, 4, r, s, 0.7)
    yield ("doubly 4x4 max", "cdf_max_doubly", oracle_cdf_max_doubly,
           (4, 4, r, s[:4], 1.3))
    yield "doubly 4x4 min", "cdf_min_doubly", oracle_cdf_min_doubly, (4, r, s[:4], 0.4)


ORACLE_CASES = list(_row_cases()) + list(_other_cases())


@functools.lru_cache(maxsize=None)
def oracle_value(name):
    """The oracle at ``DPS`` on the `ORACLE_CASES` entry ``name``, once per run."""
    _, _, oracle, args = next(c for c in ORACLE_CASES if c[0] == name)
    return validated_mpf(oracle(*args), DPS)


@pytest.mark.parametrize("name,law,oracle,args", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
def test_agrees_with_direct_transcription(name, law, oracle, args, monkeypatch):
    want = oracle_value(name)
    monkeypatch.setattr(extended, "_self_validated", validated_mpf)
    size = 2 if law == "prob_gap_row" else 1
    got = extended.evaluate(_LAWS[law](*args[:-size]), args[-size:], DPS).value
    assert want != 0
    assert rel_gap(got, want) <= mpmath.mpf(10) ** (10 - DPS), name


# the public API on the same shapes, through the real schedule: two are
# left out, row 10x6 and 11x7 min, whose double path loses 7.6 and 11.1
# digits and so never escalates
PUBLIC = {"cdf_max_row": (RowCorrelated, cdf_max),
          "cdf_min_row": (RowCorrelated, cdf_min),
          "prob_gap_row": (RowCorrelated, prob_gap),
          "cdf_max_col": (ColumnCorrelated, cdf_max)}
ESCALATED_CASES = [c for c in _row_cases() if c[0] not in ("row 10x6 min", "row 11x7 min")]


@pytest.mark.parametrize("name,law,oracle,args", ESCALATED_CASES,
                         ids=[c[0] for c in ESCALATED_CASES])
def test_escalated_report_against_oracle(name, law, oracle, args):
    want = oracle_value(name)
    model, public = PUBLIC[law]
    n, m, s = args[:3]
    rep = public(model(Dimensions(n, m), validate_spectrum(s)), *args[3:],
                 EvalConfig(precision="extended"))
    assert any(w.startswith("extended:") for w in rep.warnings), name
    with mpmath.workdps(DPS):
        assert abs(mpmath.mpf(rep.value) - want) <= rep.abs_error_estimate, name
    assert rel_gap(rep.value, want) <= 2.0 ** -52, name


# ---------------------------------------------------------------------------
# the schedule: a round is accepted on its own bound; one that misses runs
# again, higher by its shortfall in digits plus the guard


TOL = mpmath.mpf(10) ** (10 - DPS)


def short_by(digits, seen):
    """A stand-in ``raw`` recording its precisions: its bound is
    ``digits(d)`` digits short of 10^-(DPS-10) at d digits."""
    def raw(d):
        seen.append(d)
        return extended.Round(mpmath.mpf(1), TOL * mpmath.mpf(10) ** digits(d), d)
    return raw


class TestSchedule:
    @pytest.mark.parametrize("start", [40, 98, 790])
    def test_accepts_a_certified_round(self, start):
        seen = []
        r = extended._self_validated(short_by(lambda d: 0, seen), DPS, start)
        assert (r.value, r.dps, seen) == (1, start, [start])

    def test_retry_sized_by_the_shortfall(self):
        # a bound that falls as 10^-d: 9.5 digits short at 100 digits
        seen = []
        r = extended._self_validated(short_by(lambda d: 109.5 - d, seen), DPS, 100)
        assert seen == [100, 100 + 10 + extended._GUARD] and r.dps == seen[-1]

    def test_exact_zero_needs_a_repeat(self):
        # an exact zero has no bound, however often it repeats
        seen = []

        def zeros_then(count, value):
            def raw(d):
                seen.append(d)
                if len(seen) <= count:
                    return extended.Round(mpmath.mpf(0), mpmath.inf, d)
                return extended.Round(value, TOL, d)
            return raw

        assert extended._self_validated(zeros_then(2, mpmath.mpf(2)), DPS, 60).value == 2
        assert seen == [60, 120, 240]
        seen.clear()
        with pytest.raises(extended.NotConverged) as info:
            extended._self_validated(zeros_then(99, mpmath.mpf(2)), DPS, 60)
        assert info.value.dps == 960 and seen == [60, 120, 240, 480, 960]

    def test_false_exact_zero_is_resolved(self, monkeypatch):
        # at lam = 1e-200 the rows E_a(lam s_j) agree to 200 digits: the rounds
        # at 40, 80 and 160 digits are exact zeros, the one at 320 sees them differ
        seen = rounds_of(monkeypatch)
        r = extended.evaluate(_LAWS["cdf_max_row"](3, 2, [1.0, 2.0]), (1e-200,))
        assert seen == [40, 80, 160, 320] and r.dps == 320
        want = extended.evaluate(_LAWS["cdf_max_row"](3, 2, [1.0, 2.0]), (1e-200,), cancel=math.inf)
        assert want.dps == 790 and want.bound < mpmath.mpf(10) ** -500
        assert r.value != 0 and rel_gap(r.value, want.value) <= r.bound <= TOL

    def test_direct_call_takes_one_round(self, monkeypatch):
        seen = rounds_of(monkeypatch)
        extended.evaluate(_LAWS["cdf_max_row"](6, 4, evenly(0.5, 4.0, 4)), (2.0,))
        assert seen == [40]

    @pytest.mark.parametrize("limit,start,last", [(130, 100, 120), (110, 100, 100),
                                                  (1600, 790, 1590), (1600, 100, 1600)])
    def test_raises_before_passing_the_limit(self, monkeypatch, limit, start, last):
        # 15 digits short every time: each retry 15 + 5 digits up
        monkeypatch.setattr(extended, "_MAX_DPS", limit)
        seen = []
        with pytest.raises(extended.NotConverged) as info:
            extended._self_validated(short_by(lambda d: 15, seen), DPS, start)
        assert info.value.dps == last == seen[-1]
        assert max(seen) <= limit

    def test_no_bound_doubles_the_digits(self):
        seen = []
        with pytest.raises(extended.NotConverged) as info:
            extended._self_validated(short_by(lambda d: mpmath.inf, seen), DPS, 100)
        assert info.value.dps == 1600 and seen == [100, 200, 400, 800, 1600]

    def test_direct_call_raises_with_last_precision(self, monkeypatch):
        monkeypatch.setattr(extended, "_MAX_DPS", 220)
        seen = []

        def uncertified(law, point):
            # a prefactor error of 2^p ulps, one unit: never within 10^-30
            seen.append(mpmath.mp.dps)
            return mpmath.mpf(1), 2 ** mpmath.mp.prec, [], 0

        monkeypatch.setattr(extended, "_build", uncertified)
        with pytest.raises(extended.NotConverged) as info:
            extended.evaluate(None, (), DPS)
        assert info.value.dps == 220 and seen == [40, 76, 112, 148, 184, 220]


# ---------------------------------------------------------------------------
# non-convergence is reported, not returned as a value


class TestNotConverged:
    CASE = RowCorrelated(Dimensions(16, 12), validate_spectrum(evenly(0.5, 4.0, 12)))

    def test_schedule_raises_with_last_precision(self, monkeypatch):
        # at 40 digits the bound is about 0.03, 28 digits short: the retry
        # would pass the limit
        monkeypatch.setattr(extended, "_MAX_DPS", 60)
        seen = rounds_of(monkeypatch)
        with pytest.raises(extended.NotConverged) as info:
            extended.evaluate(_LAWS["cdf_max_row"](16, 12, evenly(0.5, 4.0, 12)), (0.5,))
        assert info.value.dps == seen[-1] == 40

    def test_report_keeps_double_value(self, monkeypatch):
        monkeypatch.setattr(extended, "_MAX_DPS", 60)
        double = cdf_max(self.CASE, 0.5)
        rep = cdf_max(self.CASE, 0.5, EvalConfig(precision="extended"))
        assert any(w.startswith("cancellation:") for w in rep.warnings)
        assert any(w.startswith("nonconverged:") for w in rep.warnings)
        assert not any(w.startswith("extended:") for w in rep.warnings)
        assert (rep.value, rep.abs_error_estimate, rep.cancellation_digits) == \
            (double.value, double.abs_error_estimate, double.cancellation_digits)

    def test_converges_at_the_default_limit(self):
        rep = cdf_max(self.CASE, 0.5, EvalConfig(precision="extended"))
        assert any(w.startswith("extended:") for w in rep.warnings)
        assert not any(w.startswith("nonconverged:") for w in rep.warnings)


# ---------------------------------------------------------------------------
# the determinant against exact rational arithmetic on the same entries


def digits(rows):
    """``rows`` of mpfs as `extended._bounded_det` takes them: exact (man, exp)."""
    return [[extended._digits(x) for x in row] for row in rows]


def dominant(n, rng):
    """A random diagonally dominant n x n matrix of mpf (at the working
    precision), both signs off the diagonal."""
    rows = [[mpmath.mpf(rng.uniform(-1.0, 1.0)) / 3 for _ in range(n)] for _ in range(n)]
    for j in range(n):
        rows[j][j] = (n + rng.uniform(0.0, 1.0)) / mpmath.mpf(7) * (-1) ** j
    return rows


def det_matrix(n, dps, scaled):
    """`TestDet`'s matrix: `dominant`, with its rows and columns scaled by
    2^+-300 (powers of two, exact) when ``scaled``."""
    rng = np.random.default_rng(1000 * n + dps)
    rows = dominant(n, rng)
    if scaled:
        row_exp = rng.choice([-300, 0, 300], size=n)
        col_exp = rng.choice([-300, 0, 300], size=n)
        rows = [[mpmath.ldexp(x, int(row_exp[j] + col_exp[k])) for k, x in enumerate(row)]
                for j, row in enumerate(rows)]
    return rows


class TestDet:
    @pytest.mark.parametrize("dps", [40, 220])
    @pytest.mark.parametrize("n", range(1, 13))
    @pytest.mark.parametrize("scaled", [False, True], ids=["plain", "scaled"])
    def test_against_exact_fraction(self, n, dps, scaled):
        with mpmath.workdps(dps):
            rows = det_matrix(n, dps, scaled)
            got = extended._bounded_det(digits(rows), 0)[0]
        want = fraction_det([[exact(x) for x in row] for row in rows])
        assert want != 0
        assert abs(exact(got) - want) <= n * Fraction(10) ** (3 - dps) * abs(want)

    def test_repeated_row_is_exactly_zero(self):
        rng = np.random.default_rng(5)
        with mpmath.workdps(40):
            rows = dominant(7, rng)
            rows[5] = list(rows[2])
            assert extended._bounded_det(digits(rows), 0)[0] == 0

    def test_row_swap_flips_sign(self):
        rng = np.random.default_rng(6)
        with mpmath.workdps(40):
            rows = dominant(8, rng)
            det = extended._bounded_det(digits(rows), 0)[0]
            rows[1], rows[6] = rows[6], rows[1]
            assert extended._bounded_det(digits(rows), 0)[0] == -det != 0

    def test_tiny_rows_are_not_singular(self):
        # one row near 2^-3000 beside rows near one: no tolerance reads it as zero
        rng = np.random.default_rng(7)
        with mpmath.workdps(40):
            rows = dominant(6, rng)
            rows[3] = [mpmath.ldexp(x, -3000) for x in rows[3]]
            got = extended._bounded_det(digits(rows), 0)[0]
        want = fraction_det([[exact(x) for x in row] for row in rows])
        assert abs(exact(got) - want) <= 6 * Fraction(10) ** -37 * abs(want)


# ---------------------------------------------------------------------------
# the a-posteriori bound: it covers the determinant's error against exact
# rationals, and each builder's stated errors cover its entries' errors


def covered(rows, ulps=0):
    """The bound of `_bounded_det` on ``rows`` and the actual relative error
    of its determinant against the exact one (infinite for a zero)."""
    got, bound = extended._bounded_det(digits(rows), ulps)
    want = fraction_det([[exact(x) for x in row] for row in rows])
    assert want != 0
    if got == 0:
        return bound, mpmath.inf
    err = abs(exact(got) - want) / abs(exact(got))
    with mpmath.workprec(200):
        return bound, mpmath.mpf(err.numerator) / err.denominator


class TestBound:
    @pytest.mark.parametrize("dps", [40, 220])
    @pytest.mark.parametrize("n", range(1, 13))
    @pytest.mark.parametrize("scaled", [False, True], ids=["plain", "scaled"])
    def test_covers_exact_fraction(self, n, dps, scaled):
        with mpmath.workdps(dps):
            bound, err = covered(det_matrix(n, dps, scaled))
        assert err <= bound <= mpmath.mpf(10) ** (10 - dps)

    @pytest.mark.parametrize("nudge", [-60, -200])
    def test_nearly_singular(self, nudge):
        # row 4 a copy of row 1 moved by 2^nudge, exactly: 18 digits lost to
        # cancellation at 40, or all of them
        with mpmath.workdps(40):
            rows = dominant(6, np.random.default_rng(8))
            with mpmath.workprec(400):
                rows[4] = [x + mpmath.ldexp(k + 1, nudge) for k, x in enumerate(rows[1])]
            bound, err = covered(rows)
        assert err <= bound
        assert bound > (mpmath.mpf(10) ** -25 if nudge == -60 else 1)

    def test_tiny_rows(self):
        with mpmath.workdps(40):
            rows = dominant(6, np.random.default_rng(7))
            rows[3] = [mpmath.ldexp(x, -3000) for x in rows[3]]
            bound, err = covered(rows)
        assert err <= bound <= mpmath.mpf(10) ** -30

    def test_entry_errors_add(self):
        # each of the 6 rows moves by twice its entries' 1000 ulps, at least
        with mpmath.workdps(40):
            rows = det_matrix(6, 40, False)
            added = (extended._bounded_det(digits(rows), 1000)[1]
                     - extended._bounded_det(digits(rows), 0)[1])
            assert added >= 6 * 2 * 1000 * mpmath.ldexp(1, -mpmath.mp.prec)


def unscaled(rows):
    """``rows`` of Fractions as mpf, asserting that each row's and each
    column's largest entry is already in [1/2, 1): `_bounded_det` scales
    none of them, so the integers it eliminates are the entries over u."""
    for line in rows + [list(c) for c in zip(*rows)]:
        assert Fraction(1, 2) <= max(map(abs, line)) < 1
    return [[mpmath.mpf(x.numerator) / x.denominator for x in row] for row in rows]


class TestIntegerKernel:
    # the elimination on integers in units of u = 2^-p: cases that reach
    # each rounding the bound counts, checked against exact Fractions
    def test_half_unit_multiplier_with_negative_pivots(self):
        # pivots -1/2, -1/2, -2; row 3 reaches step 2 as -u, so its
        # multiplier -u / -2 is exactly half a unit and is rounded
        with mpmath.workdps(40):
            u = Fraction(1, 2 ** mpmath.mp.prec)
            h = Fraction(1, 2)
            rows = unscaled([[-h, 0, -3 * h / 2, h], [h, -h, -h / 2, 0],
                             [h, h, -h / 2, -h], [h, 0, 3 * h / 2 - u, 5 * h / 4]])
            bound, err = covered(rows)
        assert 0 < err <= bound

    def test_entries_below_a_unit(self):
        # t1 = 3u/8 rounds to 0, and det = (t2 - t1) / 8 depends on it: the
        # conversion's error is about 2^18 u, inside the bound
        with mpmath.workdps(40):
            u = Fraction(1, 2 ** mpmath.mp.prec)
            h = Fraction(1, 2)
            for t1 in (3 * u / 8, -3 * u / 8):
                rows = unscaled([[h, h, t1], [h, h, Fraction(1, 2 ** 20)], [h, h / 2, h]])
                bound, err = covered(rows)
                assert mpmath.ldexp(1, 10 - mpmath.mp.prec) < err <= bound

    def test_pivot_growth(self):
        # diagonal 1/2, below it -x with x in (0.45, 0.5), last column 1/2: the
        # pivots stay on the diagonal and the last column grows, so |U_nn| > 1
        rng = np.random.default_rng(9)
        n = 8
        rows = [[Fraction(1, 2) if j == i or j == n - 1 else
                 -Fraction(rng.uniform(0.45, 0.5)) if j < i else Fraction(0)
                 for j in range(n)] for i in range(n)]
        assert abs(fraction_det(rows)) * 2 ** (n - 1) > 1
        for dps in (40, 120):
            with mpmath.workdps(dps):
                bound, err = covered(unscaled(rows))
            assert err <= bound <= mpmath.mpf(10) ** (5 - dps)

    def test_integer_singular_is_zero(self):
        # nonsingular, but t1 and t2 both round to 0: the integers are singular
        with mpmath.workdps(40):
            u = Fraction(1, 2 ** mpmath.mp.prec)
            h = Fraction(1, 2)
            rows = unscaled([[h, h, u / 4], [h, h, -u / 3], [h, h / 2, h]])
            assert fraction_det([[exact(x) for x in row] for row in rows]) != 0
            assert extended._bounded_det(digits(rows), 0) == (0, mpmath.inf)

    @pytest.mark.parametrize("zeros", ["column", "row"])
    def test_zero_line_is_exactly_zero(self, zeros):
        # a column or a row of zeros: an exact zero, with no bound
        with mpmath.workdps(40):
            rows = dominant(4, np.random.default_rng(10))
            for j in range(4):
                if zeros == "row":
                    rows[2][j] = mpmath.mpf(0)
                else:
                    rows[j][1] = mpmath.mpf(0)
            assert extended._bounded_det(digits(rows), 0) == (0, mpmath.inf)

    def test_empty_and_one_by_one(self):
        with mpmath.workdps(40):
            assert extended._bounded_det(digits([]), 0)[0] == 1
            assert covered([])[1] == 0
            x = mpmath.mpf(-3) / 7
            got, bound = extended._bounded_det(digits([[mpmath.ldexp(x, 500)]]), 4)
            u = mpmath.ldexp(1, -mpmath.mp.prec)
            assert got == mpmath.ldexp(x, 500)
            assert 8 * u <= bound <= 1024 * u  # the entry's 2 ulps u times 4, and more


@st.composite
def nearly_singular(draw):
    """Sizes 1-8, entries of both signs (uniform on (-1, 1) from a drawn
    seed), some rows i a near-copy of another row j (row j plus 2^-20 to
    2^-400 times row i), then each row scaled by a power of two."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = rng.uniform(-1.0, 1.0, (n, n)).tolist()
    copies = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                     st.integers(-400, -20)), max_size=3))
    scales = draw(st.lists(st.integers(-300, 300), min_size=n, max_size=n))
    return rows, copies, scales


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(nearly_singular(), st.sampled_from([40, 120]))
def test_bound_covers_exact_determinant(case, dps):
    rows, copies, scales = case
    rows = [[mpmath.mpf(x) for x in row] for row in rows]
    for i, j, nudge in copies:
        rows[i] = [mpmath.fadd(x, mpmath.ldexp(y, nudge), exact=True)
                   for x, y in zip(rows[j], rows[i])]
    rows = [[mpmath.ldexp(x, k) for x in row] for row, k in zip(rows, scales)]
    with mpmath.workdps(dps):
        got, bound = extended._bounded_det(digits(rows), 0)
    want = fraction_det([[exact(x) for x in row] for row in rows])
    if got == 0 or want == 0:
        # no bound below one can hold for a singular matrix: d >= 1
        assert bound == mpmath.inf
    else:
        err = abs(exact(got) - want) / abs(exact(got))
        with mpmath.workprec(200):
            assert mpmath.mpf(err.numerator) / err.denominator <= bound


def _builder_cases():
    for m in (6, 8, 10, 12):
        s, n = evenly(0.5, 4.0, m), m + 4
        for lam in (0.5, 2.0):
            yield f"row {n}x{m} max {lam}", "cdf_max_row", (n, m, s, lam)
        yield f"row {n}x{m} min", "cdf_min_row", (n, m, s, 0.2)
        yield f"row {n}x{m} gap", "prob_gap_row", (n, m, s, 0.05, 2.0)
    for m in (6, 8):
        s = evenly(0.5, 4.0, m + 2)
        yield f"column {m + 2}x{m} max", "cdf_max_col", (m + 2, m, s, 0.5)
        yield f"column {m + 2}x{m} min", "cdf_min_col", (m + 2, m, s, 0.05)
    for n in (6, 8):
        r, s = evenly(0.5, 4.0, n), evenly(0.6, 3.0, n)
        yield f"doubly {n}x{n} max", "cdf_max_doubly", (n, n, r, s, 0.5)
        yield f"doubly {n}x{n} min", "cdf_min_doubly", (n, r, s, 0.05)
    yield "clustered row 5x3 min", "cdf_min_row", (5, 3, [1.0, 1.0001, 1.0002], 0.3)
    # large arguments: lam s (row, column) and lam r s (doubly) up to 50-500
    s, r = evenly(0.5, 4.0, 8), evenly(0.5, 4.0, 6)
    for lam in (15.0, 120.0):
        yield f"row 12x8 max {lam}", "cdf_max_row", (12, 8, s, lam)
        yield f"row 12x8 min {lam}", "cdf_min_row", (12, 8, s, lam)
        yield f"row 12x8 gap {lam}", "prob_gap_row", (12, 8, s, lam / 10, lam)
        yield f"column 10x8 max {lam}", "cdf_max_col", (10, 8, s + [5.0, 6.0], lam)
        yield f"column 10x8 min {lam}", "cdf_min_col", (10, 8, s + [5.0, 6.0], lam / 3)
    for lam in (5.0, 40.0):
        yield f"doubly 6x6 max {lam}", "cdf_max_doubly", (6, 6, r, evenly(0.6, 3.0, 6), lam)
        yield f"doubly 6x6 min {lam}", "cdf_min_doubly", (6, r, evenly(0.6, 3.0, 6), lam)
    # points that are not doubles, 1/3 and 2/3 to 100 digits (333-bit
    # mantissas), read exactly at every precision
    with mpmath.workdps(100):
        third, two_thirds = mpmath.mpf(1) / 3, mpmath.mpf(2) / 3
    s = evenly(0.5, 4.0, 6)
    yield "row 10x6 max 1/3", "cdf_max_row", (10, 6, s, third)
    yield "row 10x6 min 1/3", "cdf_min_row", (10, 6, s, third)
    yield "row 10x6 gap (1/3, 2/3)", "prob_gap_row", (10, 6, s, third, two_thirds)
    yield "column 8x6 max 1/3", "cdf_max_col", (8, 6, s + [5.0, 6.0], third)
    yield "column 8x6 min 1/3", "cdf_min_col", (8, 6, s + [5.0, 6.0], third)
    yield "doubly 6x6 max 1/3", "cdf_max_doubly", (6, 6, r, s, third)
    yield "doubly 6x6 min 1/3", "cdf_min_doubly", (6, r, s, third)


BUILDER_CASES = list(_builder_cases())


def built(name, args, prec):
    """`extended._build` at ``prec`` bits of the law ``_LAWS[name]`` at the
    point that ends ``args`` (lam, or a, b for the gap)."""
    size = 2 if name == "prob_gap_row" else 1
    with mpmath.workprec(prec):
        return extended._build(_LAWS[name](*args[:-size]), args[-size:])


@pytest.mark.parametrize("name,law,args", BUILDER_CASES, ids=[c[0] for c in BUILDER_CASES])
def test_builder_errors_within_their_ulps(name, law, args):
    # at p bits against p + 60 bits, whose own error is 2^-60 of the allowance
    prec = 136
    pref, pref_ulps, rows, ulps = built(law, args, prec)
    want_pref, _, want_rows, _ = built(law, args, prec + 60)
    tol = mpmath.ldexp(1 + mpmath.ldexp(1, -50), -prec)
    with mpmath.workprec(prec + 200):
        assert abs(pref - want_pref) <= pref_ulps * tol * abs(want_pref), name
        for row, want_row in zip(rows, want_rows):
            for got, want in zip(map(mpmath.mpf, row), map(mpmath.mpf, want_row)):
                assert abs(got - want) <= ulps * tol * abs(want), name


def exact_pref(p, lam, prec):
    """The `detform._Pref` ``p`` of Fractions at the Fraction ``lam``: an exact
    rational, times e^(-lam sum decay) from mpmath 100 bits past ``prec``."""
    q = Fraction(-1) ** p.pairs * lam ** p.lam_power
    for k, vals in p.powers:
        for v in vals:
            q *= v ** k
    for a in p.above:
        q *= math.factorial(a - 1)
    for a in p.below:
        q /= math.factorial(a - 1)
    for vals in p.vandermonde:
        for j, x in enumerate(vals):
            for y in vals[j + 1:]:
                q /= y - x
    with mpmath.workprec(prec + 100):
        x = lam * sum(p.decay, Fraction(0))
        return (mpmath.mpf(q.numerator) / q.denominator
                * mpmath.exp(-mpmath.mpf(x.numerator) / x.denominator))


@pytest.mark.parametrize("prec", KERNEL_PRECS)
@pytest.mark.parametrize("name,law,args", BUILDER_CASES, ids=[c[0] for c in BUILDER_CASES])
def test_pref_against_exact_rationals(name, law, args, prec):
    pref, ulps, _, _ = built(law, args, prec)
    spectra = [[Fraction(v) for v in a] if isinstance(a, list) else a for a in args]
    size = 2 if law == "prob_gap_row" else 1
    want = exact_pref(_LAWS[law](*spectra[:-size]).pref, exact(args[-size]), prec)
    with mpmath.workprec(prec + 100):
        assert abs(pref - want) <= ulps * mpmath.ldexp(abs(want), -prec), name


# ---------------------------------------------------------------------------
# entry level across precisions: each law's double-precision entries
# against its mpmath rows, both read from the one description


ROW_8x6 = [0.5, 1.0, 1.7, 2.4, 3.3, 4.1]
# the rows of ROW_8x6 and 12 more, for the gap orders 3..20
GAP_ROWS = sorted(ROW_8x6 + [0.01, 0.05, 0.1, 0.2, 0.3, 0.7, 1.3, 2.0, 2.9, 5.0, 6.2, 7.9])
ENTRY_CASES = [
    ("cdf_max_row", (8, 6, ROW_8x6), [(0.005,), (1.3,), (100.0,)]),
    ("cdf_min_row", (8, 6, ROW_8x6), [(0.005,), (1.3,), (100.0,)]),
    # (38, 60) reaches v a = 300, where b^k E_k(v b) - a^k E_k(v a) would
    # cancel 130 digits; a = 5 (1 -+ 1e-9) sits on either side of v a = k at
    # v = 2.4, k = 12, where an entry from the tails would take over from the
    # lower integrals; then a = 1e-9, and b / a = 1.0001 and 100
    ("prob_gap_row", (20, 18, GAP_ROWS),
     [(0.5, 30.0), (0.005, 2.0), (38.0, 60.0), (5.0 * (1 - 1e-9), 10.0), (5.0 * (1 + 1e-9), 10.0),
      (1e-9, 1.0001e-9), (1e-9, 1e-7), (2.0, 2.0002), (0.05, 5.0)]),
    ("cdf_max_col", (10, 6, evenly(0.5, 4.0, 10)), [(0.0047,), (1.3,), (100.0,)]),
    ("cdf_min_col", (5, 3, evenly(0.5, 4.0, 5)), [(0.005,), (1.3,), (100.0,)]),
    # the g entries far in the tail too, lam r s from 3e299 to 4.5e300
    ("cdf_max_doubly", (6, 4, evenly(0.5, 2.5, 4), evenly(0.6, 1.8, 6)),
     [(0.005,), (1.3,), (100.0,), (1e300,)]),
    ("cdf_min_doubly", (4, evenly(0.5, 2.5, 4), evenly(0.6, 1.8, 4)), [(0.005,), (1.3,), (100.0,)]),
]


def precise_rows(name, args):
    """`extended._build`'s rows at a precision that doubles until their ulps
    are below 1e-40 relative."""
    prec = 136
    while True:
        _, _, rows, ulps = built(name, args, prec)
        if ulps * mpmath.ldexp(1, -prec) < 1e-40:
            return rows
        prec *= 2


@pytest.mark.parametrize("name,args,points", ENTRY_CASES, ids=[c[0] for c in ENTRY_CASES])
def test_double_entries_within_their_estimates(name, args, points):
    L, R, _, _ = _entries(_LAWS[name](*args), np.array(points), False)
    R = np.broadcast_to(R, L.shape)
    for g, point in enumerate(points):
        with mpmath.workdps(60):
            for i, row in enumerate(precise_rows(name, args + point)):
                for j, want in enumerate(map(mpmath.mpf, row)):
                    err = abs(mpmath.expm1(mpmath.mpf(L[g, i, j]) - mpmath.log(want)))
                    assert err <= R[g, i, j], (point, i, j, float(err / R[g, i, j]))


@pytest.mark.parametrize("ratio", [1 + 1e-6, 1.0001, 1.01])
@pytest.mark.parametrize("a", [0.05, 0.7, 12.0])
def test_narrow_gap_entries(a, ratio):
    # the entries keep the digits of a / (b - a): within 1e-13 of 60 digits
    s, b = [0.3, 1.1, 2.6, 4.9], a * ratio
    L, _, _, _ = _entries(_LAWS["prob_gap_row"](12, 4, s), np.array([[a, b]]), False)
    for i, v in enumerate(s):
        for j, k in enumerate(range(9, 13)):
            want = gap_reference(k, mpmath.mpf(v), mpmath.mpf(a), mpmath.mpf(b), 60)
            with mpmath.workdps(60):
                assert abs(mpmath.expm1(mpmath.mpf(L[0, i, j]) - mpmath.log(want))) <= 1e-13


# ---------------------------------------------------------------------------
# the contract: a double-precision value without warnings lies within its
# estimate of the 50-digit re-evaluation


@st.composite
def contract_cases(draw):
    """(report function, case, point, the name of the CDF's law in `_LAWS`
    and that law's arguments): row, column and doubly
    max and min up to 6 x 4 with lam in [0.02, 20], the doubly densities of
    both, and the row gap with a in [0.005, 5], b / a in [1 + 1e-6, 100].  A
    spectrum's values are distinct, but its first two coincide a quarter of
    the time."""
    model, stat = draw(st.sampled_from([("row", "max"), ("row", "min"), ("row", "gap"),
                                        ("col", "max"), ("col", "min"),
                                        ("doubly", "max"), ("doubly", "min"),
                                        ("doubly", "pdf_max"), ("doubly", "pdf_min")]))
    square = model == "doubly" and stat.endswith("min")  # those laws need m = n
    n = draw(st.integers(1, 4 if square else 6))
    m = n if square else draw(st.integers(1, min(n, 4)))

    def spectrum(size):
        values = draw(st.lists(st.floats(0.1, 5.0), min_size=size, max_size=size, unique=True))
        if size > 1 and draw(st.integers(0, 3)) == 0:
            values[1] = values[0]
        return validate_spectrum(values)

    dims = Dimensions(n, m)
    if model == "row":
        case = RowCorrelated(dims, spectrum(m))
    elif model == "col":
        case = ColumnCorrelated(dims, spectrum(n))
    else:
        case = DoublyCorrelated(dims, spectrum(m), spectrum(n))
    spectra = ((list(case.r),) if model == "doubly" else ()) + (list(case.s),)
    if stat == "gap":
        a = draw(st.floats(0.005, 5.0))
        point, fn = (a, a * draw(st.floats(1 + 1e-6, 100.0))), prob_gap
    else:
        point = (draw(st.floats(0.02, 20.0)),)
        fn = {"max": cdf_max, "min": cdf_min, "pdf_max": pdf_max, "pdf_min": pdf_min}[stat]
    name = f"{'prob_gap' if stat == 'gap' else 'cdf_' + stat[-3:]}_{model}"
    args = ((n,) if square else (n, m)) + spectra
    return fn, case, point, name, args


@settings(derandomize=True, deadline=None, database=None, max_examples=250)
@given(contract_cases())
def test_unflagged_values_within_their_estimates(drawn):
    fn, case, point, name, args = drawn
    rep = fn(case, *point)
    if rep.warnings:
        return
    law = _LAWS[name](*args)
    with mpmath.workdps(60):
        if fn in (pdf_max, pdf_min):
            # a central difference of the 50-digit CDF, the survival's negated
            lam = mpmath.mpf(point[0])
            h = lam * mpmath.mpf(10) ** -15
            want = (extended.evaluate(law, (lam + h,), 50).value
                    - extended.evaluate(law, (lam - h,), 50).value) / (2 * h)
            want = want if fn is pdf_max else -want
        else:
            want = extended.evaluate(law, point, 50).value
        assert abs(rep.value - want) <= rep.abs_error_estimate, (fn.__name__, name, args, point)


# ---------------------------------------------------------------------------
# a determinant whose rows span many orders of magnitude is not read as zero


@pytest.mark.parametrize("n,m,s,lam,log10_value", [
    (3, 2, [1e-200, 2e-200, 3e-200], 1.0, 0.0),
    (5, 3, [0.5, 1.0, 2.0, 3.0, 4.0], 2000.0, -3038.845)])
def test_column_min_underflow_is_escalated(n, m, s, lam, log10_value):
    # the double path's power columns underflow; the flagged value escalates
    case = ColumnCorrelated(Dimensions(n, m), validate_spectrum(s))
    rep = cdf_min(case, lam, EvalConfig(precision="extended"))
    assert any(w.startswith("extended:") for w in rep.warnings)
    want = extended.evaluate(_LAWS["cdf_min_col"](n, m, s), (lam,), cancel=math.inf).value
    assert abs(float(mpmath.log10(want)) - log10_value) < 1e-3
    if log10_value == 0.0:
        assert rep.value == float(want)
    else:
        assert rep.value == 0.0
        assert f"underflow:value below the double range with log10|value| = {log10_value:.4f}" \
            in rep.warnings


COLUMN_5x3 = [0.5, 1.0, 2.0, 3.0, 4.0]


class TestColumnMinWideRows:
    @pytest.mark.parametrize("lam", [80, 160])
    def test_formula_against_exact_determinant(self, lam, monkeypatch):
        want = oracle_cdf_min_col(5, 3, COLUMN_5x3, lam)(80)
        monkeypatch.setattr(extended, "_self_validated", validated_mpf)
        got = extended.evaluate(_LAWS["cdf_min_col"](5, 3, COLUMN_5x3), (lam,), DPS).value
        assert rel_gap(got, want) <= 1e-25

    @pytest.mark.parametrize("lam", [80, 160])
    def test_extended_report(self, lam):
        want = oracle_cdf_min_col(5, 3, COLUMN_5x3, lam)(80)
        case = ColumnCorrelated(Dimensions(5, 3), validate_spectrum(COLUMN_5x3))
        rep = cdf_min(case, lam, EvalConfig(precision="extended"))
        assert any(w.startswith("extended:") for w in rep.warnings)
        assert rep.value != 0.0
        assert rep.value == float(want)
        # the estimate covers the rounding of the agreed mpf to a double
        with mpmath.workdps(80):
            assert abs(mpmath.mpf(rep.value) - want) <= rep.abs_error_estimate


# ---------------------------------------------------------------------------
# the first round is sized by the double path's cancellation


def rounds_of(monkeypatch):
    """Record the precision of every ``raw`` round of `_self_validated`."""
    seen = []
    validate = extended._self_validated

    def counting(raw, *args):
        def counted(d):
            seen.append(d)
            return raw(d)
        return validate(counted, *args)

    monkeypatch.setattr(extended, "_self_validated", counting)
    return seen


class TestFirstRound:
    def test_sized_by_cancellation(self, monkeypatch):
        case = RowCorrelated(Dimensions(12, 8), validate_spectrum(evenly(0.5, 4.0, 8)))
        seen = rounds_of(monkeypatch)
        rep = cdf_max(case, 0.5, EvalConfig(precision="extended"))
        assert rep.cancellation_digits > 57
        assert any(w.startswith("extended:") for w in rep.warnings)
        assert len(seen) == 1 and seen[0] >= 97

    def test_forced_low_first_round_is_rejected(self, monkeypatch):
        # at 40 digits the 57 lost leave nothing certified: the bound rejects
        # the round, and the retry lands on the oracle
        case = RowCorrelated(Dimensions(12, 8), validate_spectrum(evenly(0.5, 4.0, 8)))
        monkeypatch.setattr(extended, "_first_round", lambda dps, cancel: dps)
        seen = rounds_of(monkeypatch)
        rep = cdf_max(case, 0.5, EvalConfig(precision="extended"))
        assert seen[0] == DPS and len(seen) > 1
        assert any(w.startswith(f"extended:re-evaluated at {seen[-1]} digits")
                   for w in rep.warnings)
        assert rel_gap(rep.value, oracle_value("row 12x8 max 0.5")) <= 2.0 ** -52

    def test_infinite_cancellation(self, monkeypatch):
        # two eigenvalues one ulp apart: the double determinant is exactly singular
        s = (1.0, 1.0 + 2.0 ** -52, 1.0 + 2.0 ** -51)
        case = RowCorrelated(Dimensions(5, 3), Spectrum(s))
        seen = rounds_of(monkeypatch)
        rep = cdf_max(case, 1.0, EvalConfig(precision="extended"))
        assert rep.cancellation_digits == math.inf
        assert any(w.startswith("extended:") for w in rep.warnings)
        assert seen == [(extended._MAX_DPS - 20) // 2]
        want = validated_mpf(oracle_cdf_max_row(5, 3, s, 1.0), DPS)
        assert rel_gap(rep.value, want) <= 1e-15

    def test_large_m_takes_one_round(self, monkeypatch):
        # row 36x32 loses 492 digits in double; at 533 digits the bound
        # certifies the round with hundreds of digits to spare
        case = RowCorrelated(Dimensions(36, 32), validate_spectrum(evenly(0.5, 4.0, 32)))
        seen = rounds_of(monkeypatch)
        rep = cdf_max(case, 0.5, EvalConfig(precision="extended"))
        assert len(seen) == 1
        assert any(w.startswith(f"extended:re-evaluated at {seen[0]} digits") for w in rep.warnings)
        assert any(w.startswith("underflow:") for w in rep.warnings)

    @pytest.mark.parametrize("cancel,first", [(0.0, 40), (12.5, 53), (57.3, 98),
                                              (1e6, 790), (math.inf, 790)])
    def test_bounds(self, cancel, first):
        assert extended._first_round(40, cancel) == first

    def test_direct_calls_start_at_dps(self, monkeypatch):
        seen = rounds_of(monkeypatch)
        extended.evaluate(_LAWS["cdf_max_row"](6, 4, evenly(0.5, 4.0, 4)), (2.0,))
        assert seen[0] == 40


def test_escalated_underflow_keeps_log_magnitude():
    # clustered row 5x3 at lam = 1e-40 is about 1e-608: the double path loses
    # every digit, and the escalated mpf carries the magnitude
    s = [1.0, 1.0001, 1.0002]
    rep = cdf_max(RowCorrelated(Dimensions(5, 3), validate_spectrum(s)), 1e-40,
                  EvalConfig(precision="extended"))
    assert rep.value == 0.0 and any(w.startswith("extended:") for w in rep.warnings)
    (warning,) = [w for w in rep.warnings if w.startswith("underflow:")]
    with mpmath.workdps(200):
        want = mpmath.log10(abs(oracle_cdf_max_row(5, 3, validate_spectrum(s).values, 1e-40)(200)))
    assert float(warning.rsplit("= ", 1)[1]) == pytest.approx(float(want), abs=1e-4)


def test_exact_zeros_are_not_accepted_report(monkeypatch):
    # rounds that only ever give an exact zero end without a certified round:
    # the double-precision value and its estimate stand
    def zeros(law, point, dps=40, cancel=0.0):
        return extended._self_validated(lambda d: extended.Round(mpmath.mpf(0), mpmath.inf, d),
                                        dps, extended._first_round(dps, cancel))

    monkeypatch.setattr(extended, "evaluate", zeros)
    rep = _finalize(1.0, -2.0, 1e-3, 20.0, EvalConfig(precision="extended"), [],
                    _LAWS["cdf_max_row"](3, 2, [1.0, 2.0]), (1.0,), True)
    assert [w.split(":", 1)[0] for w in rep.warnings] == ["cancellation", "nonconverged"]
    assert "up to 960 digits" in rep.warnings[1]
    assert (rep.value, rep.abs_error_estimate) == (math.exp(-2.0), math.exp(-2.0) * 1e-3 + 1e-300)


# ---------------------------------------------------------------------------
# escalated public reports, pinned: value and warnings (each round's digits
# and bound) of eight `escalate`-style requests on evenly spaced spectra

ESC_ROW = RowCorrelated(Dimensions(10, 6), validate_spectrum(evenly(0.5, 4.0, 6)))
ESC_COLUMN = ColumnCorrelated(Dimensions(8, 6), validate_spectrum(evenly(0.5, 4.0, 8)))
ESC_DOUBLY = DoublyCorrelated(Dimensions(6, 6), validate_spectrum(evenly(0.6, 3.0, 6)),
                              validate_spectrum(evenly(0.5, 4.0, 6)))
ESC_CLUSTERED = RowCorrelated(Dimensions(5, 3), validate_spectrum([1.0, 1.0001, 1.0002]))
# the two heaviest `escalate` requests: 100 g entries, and gap rows at 134 digits
ESC_DOUBLY_8 = DoublyCorrelated(Dimensions(8, 8), validate_spectrum(evenly(0.6, 3.0, 8)),
                                validate_spectrum(evenly(0.5, 4.0, 8)))
ESC_ROW_16 = RowCorrelated(Dimensions(16, 12), validate_spectrum(evenly(0.5, 4.0, 12)))
PINNED = [
    ("row 10x6 cdf_max", cdf_max, ESC_ROW, (0.5,), 7.922503417334636e-56, 29.7, 70, "6.3e-56"),
    ("row 10x6 prob_gap", prob_gap, ESC_ROW, (0.05, 2.0), 7.335447465613492e-25, 18.8, 59,
     "2.7e-48"),
    ("column 8x6 cdf_min", cdf_min, ESC_COLUMN, (0.05,), 0.9911286983161623, 15.5, 56,
     "1.6e-44"),
    ("doubly 6x6 cdf_max", cdf_max, ESC_DOUBLY, (0.5,), 1.0219884332457022e-23, 20.5, 61,
     "2.2e-50"),
    ("doubly 6x6 cdf_min", cdf_min, ESC_DOUBLY, (0.05,), 0.297076606208852, 24.4, 65, "2.3e-52"),
    ("clustered row 5x3 cdf_min", cdf_min, ESC_CLUSTERED, (0.3,), 0.9712454173522059, 12.4, 53,
     "4.1e-44"),
    ("doubly 8x8 cdf_max", cdf_max, ESC_DOUBLY_8, (0.5,), 1.6762193787020518e-47, 43.0, 84,
     "3.7e-67"),
    ("row 16x12 prob_gap", prob_gap, ESC_ROW_16, (0.05, 2.0), 3.4388564239691214e-112, 93.4, 134,
     "1.3e-104"),
]


@pytest.mark.parametrize("fn,case,point,value,lost,dps,bound",
                         [p[1:] for p in PINNED], ids=[p[0] for p in PINNED])
def test_escalation_pinned(fn, case, point, value, lost, dps, bound):
    rep = fn(case, *point, EvalConfig(precision="extended"))
    assert rep.value == value
    assert rep.warnings == [
        f"cancellation:{lost} digits lost so the double-precision result is unreliable",
        f"extended:re-evaluated at {dps} digits with relative error <= {bound}"]
