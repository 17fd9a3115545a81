"""The mpmath re-evaluation: its determinant, its row recurrences, an
independent oracle, its round schedule and its non-convergence report."""

import functools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from corrwishart import extended
from corrwishart.detform import EvalConfig, cdf_max, cdf_min, prob_gap
from corrwishart.model import (ColumnCorrelated, Dimensions, RowCorrelated, Spectrum,
                               validate_spectrum)


def evenly(lo, hi, count):
    return [float(v) for v in np.linspace(lo, hi, count)]


# ---------------------------------------------------------------------------
# oracle: direct transcriptions of the row and column formulas, one mpmath
# special function (or binomial sum) per entry.  ``raw(d)`` evaluates at d
# digits; none of it shares code with `corrwishart.extended`.


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
            return pref * mpmath.det(A)
    return raw


def oracle_cdf_min_row(n, m, s, lam):
    def raw(d):
        with mpmath.workdps(d):
            lm = mpmath.mpf(lam)
            sv = [mpmath.mpf(v) for v in s]
            if n == m:
                return mpmath.exp(-lm * sum(sv))
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
            return pref * mpmath.det(A)
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
            return pref * mpmath.det(A)
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
            return pref * mpmath.det(A)
    return raw


def validated_mpf(raw, dps, start=None):
    """A doubling self-validation schedule from ``start`` (``dps`` when
    None), returning the agreed mpf itself."""
    tol = mpmath.mpf(10) ** (10 - dps)
    prev, d = None, dps if start is None else start
    while True:
        assert d <= extended._MAX_DPS, "oracle did not converge"
        val = raw(d)
        if prev is not None and (val == prev or abs(val - prev) <= tol * abs(val)):
            return val
        prev, d = val, 2 * d + 20


# ---------------------------------------------------------------------------
# entry level: the row recurrences against their definitions

ORDERS = 64
XS = ["1e-8", "1e-3", "0.5", "3", "17.25", "63", "100", "200"]


def rel_gap(got, want):
    return abs(got - want) / abs(want)


class TestRowRecurrences:
    @pytest.mark.parametrize("x", XS)
    def test_gamma_row(self, x):
        with mpmath.workdps(60):
            xv = mpmath.mpf(x)
            full = extended._gamma_row(1, ORDERS, xv)
            tail = extended._gamma_row(40, ORDERS, xv)
        assert len(full) == ORDERS and tail == full[39:]
        with mpmath.workdps(90):
            for a, got in enumerate(full, start=1):
                want = mpmath.gammainc(a, 0, xv) / xv ** a
                assert rel_gap(got, want) < 1e-50, (a, x)

    @pytest.mark.parametrize("lam", ["1e-6", "0.3", "2.5", "40"])
    def test_scaled_gamma_row_with_mpf_lambda(self, lam):
        # column-model entries lam^k E_k(lam s) = gamma(k, lam s) / s^k
        with mpmath.workdps(60):
            lm = mpmath.mpf(lam)
            for s in ("0.5", "1.7", "5"):
                sv = mpmath.mpf(s)
                row = extended._gamma_row(1, ORDERS, lm * sv, lm)
                with mpmath.workdps(90):
                    for k, got in enumerate(row, start=1):
                        want = mpmath.gammainc(k, 0, lm * sv) / sv ** k
                        assert rel_gap(got, want) < 1e-50, (k, lam, s)

    @pytest.mark.parametrize("lam", ["1e-8", "0.2", "3", "200"])
    def test_shifted_power_row(self, lam):
        with mpmath.workdps(60):
            lm = mpmath.mpf(lam)
            for s in ("1e-3", "0.5", "4", "150"):
                sv = mpmath.mpf(s)
                row = extended._shifted_power_row(1, ORDERS, lm, sv)
                assert extended._shifted_power_row(30, ORDERS, lm, sv) == row[29:]
                with mpmath.workdps(90):
                    for a, got in enumerate(row, start=1):
                        want = mpmath.fsum(mpmath.binomial(a - 1, i) * lm ** (a - 1 - i)
                                           * mpmath.factorial(i) / sv ** (i + 1)
                                           for i in range(a))
                        assert rel_gap(got, want) < 1e-50, (a, lam, s)

    @pytest.mark.parametrize("a,b", [("0.05", "2"), ("1", "1.001"), ("3", "150")])
    def test_gamma_difference(self, a, b):
        # gap entries b^k E_k(s b) - a^k E_k(s a) = (gamma(k, s b) - gamma(k, s a)) / s^k,
        # assembled as `prob_gap_row` does
        with mpmath.workdps(60):
            av, bv = mpmath.mpf(a), mpmath.mpf(b)
            for s in ("0.4", "1.3"):
                sv = mpmath.mpf(s)
                row = [hi - lo for hi, lo in zip(extended._gamma_row(1, ORDERS, sv * bv, bv),
                                                 extended._gamma_row(1, ORDERS, sv * av, av))]
                with mpmath.workdps(120):
                    for k, got in enumerate(row, start=1):
                        want = (mpmath.gammainc(k, 0, sv * bv)
                                - mpmath.gammainc(k, 0, sv * av)) / sv ** k
                        assert rel_gap(got, want) < 1e-50, (k, a, b, s)


# ---------------------------------------------------------------------------
# function level: the recurrences inside the formulas against the oracle,
# on the shapes of the benchmark's escalation workload

DPS = 40


def _row_cases():
    for m in range(6, 13):
        s, n = evenly(0.5, 4.0, m), m + 4
        for lam in (0.5, 2.0):
            yield f"row {n}x{m} max {lam}", extended.cdf_max_row, oracle_cdf_max_row, (n, m, s, lam)
        yield f"row {n}x{m} min", extended.cdf_min_row, oracle_cdf_min_row, (n, m, s, 0.2)
        yield f"row {n}x{m} gap", extended.prob_gap_row, oracle_prob_gap_row, (n, m, s, 0.05, 2.0)
    for m in (6, 8):
        s = evenly(0.5, 4.0, m + 2)
        yield f"column {m + 2}x{m} max", extended.cdf_max_col, oracle_cdf_max_col, (m + 2, m, s, 0.5)
    clustered = [1.0, 1.0001, 1.0002]
    yield "clustered row 5x3 min", extended.cdf_min_row, oracle_cdf_min_row, (5, 3, clustered, 0.3)
    yield "clustered row 5x3 max", extended.cdf_max_row, oracle_cdf_max_row, (5, 3, clustered, 1.5)
    yield ("row 8x6 narrow gap", extended.prob_gap_row, oracle_prob_gap_row,
           (8, 6, evenly(0.5, 4.0, 6), 1.0, 1.0001))


ORACLE_CASES = list(_row_cases())


@functools.lru_cache(maxsize=None)
def oracle_value(name):
    """The oracle at ``DPS`` on the `ORACLE_CASES` entry ``name``, once per run."""
    _, _, oracle, args = next(c for c in ORACLE_CASES if c[0] == name)
    return validated_mpf(oracle(*args), DPS)


@pytest.mark.parametrize("name,fn,oracle,args", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
def test_agrees_with_direct_transcription(name, fn, oracle, args, monkeypatch):
    want = oracle_value(name)
    monkeypatch.setattr(extended, "_self_validated", validated_mpf)
    got = fn(*args, DPS)
    assert want != 0
    assert rel_gap(got, want) <= mpmath.mpf(10) ** (10 - DPS), name


# the public API on the same shapes, through the real schedule: two are
# left out, row 10x6 and 11x7 min, whose double path loses 7.6 and 11.1
# digits and so never escalates
PUBLIC = {extended.cdf_max_row: (RowCorrelated, cdf_max),
          extended.cdf_min_row: (RowCorrelated, cdf_min),
          extended.prob_gap_row: (RowCorrelated, prob_gap),
          extended.cdf_max_col: (ColumnCorrelated, cdf_max)}
ESCALATED_CASES = [c for c in ORACLE_CASES if c[0] not in ("row 10x6 min", "row 11x7 min")]


@pytest.mark.parametrize("name,fn,oracle,args", ESCALATED_CASES,
                         ids=[c[0] for c in ESCALATED_CASES])
def test_escalated_report_against_oracle(name, fn, oracle, args):
    want = oracle_value(name)
    model, public = PUBLIC[fn]
    n, m, s = args[:3]
    rep = public(model(Dimensions(n, m), validate_spectrum(s)), *args[3:],
                 EvalConfig(precision="extended"))
    assert any(w.startswith("extended:") for w in rep.warnings), name
    with mpmath.workdps(DPS):
        assert abs(mpmath.mpf(rep.value) - want) <= rep.abs_error_estimate, name
    assert rel_gap(rep.value, want) <= 2.0 ** -52, name


# ---------------------------------------------------------------------------
# the schedule: a confirming round 20 digits up after the first round,
# doubling after a disagreement


def settling_at(precision, seen):
    """A stand-in ``raw`` recording its precisions: every round below
    ``precision`` disagrees with every other round, those at or above it
    agree."""
    def raw(d):
        seen.append(d)
        return mpmath.mpf(1) if d >= precision else mpmath.mpf(1) + d
    return raw


class TestSchedule:
    @pytest.mark.parametrize("start", [40, 98, 790])
    def test_confirms_20_digits_up(self, start):
        seen = []
        assert extended._self_validated(settling_at(0, seen), DPS, start) == 1.0
        assert seen == [start, start + 20]

    def test_doubles_after_a_disagreement(self):
        seen = []
        extended._self_validated(settling_at(121, seen), DPS, 100)
        assert seen == [100, 120, 260, 540]

    def test_direct_call_confirms_20_digits_up(self, monkeypatch):
        seen = rounds_of(monkeypatch)
        extended.cdf_max_row(6, 4, evenly(0.5, 4.0, 4), 2.0)
        assert seen == [40, 60]

    @pytest.mark.parametrize("limit,start,last", [(130, 100, 120), (110, 100, 100),
                                                  (1600, 790, 810), (1600, 100, 1100)])
    def test_raises_before_passing_the_limit(self, monkeypatch, limit, start, last):
        monkeypatch.setattr(extended, "_MAX_DPS", limit)
        seen = []
        with pytest.raises(extended.NotConverged) as info:
            extended._self_validated(settling_at(math.inf, seen), DPS, start)
        assert info.value.dps == last == seen[-1]
        assert max(seen) <= limit

    def test_direct_call_raises_with_last_precision(self, monkeypatch):
        monkeypatch.setattr(extended, "_MAX_DPS", 220)
        seen = []

        def drifting():
            # a value that moves with the working precision never settles
            seen.append(mpmath.mp.dps)
            return mpmath.mpf(1) + mpmath.mp.dps, []

        with pytest.raises(extended.NotConverged) as info:
            extended._evaluate(drifting, (), DPS, None)
        assert info.value.dps == 140 and seen == [40, 60, 140]


# ---------------------------------------------------------------------------
# non-convergence is reported, not returned as a value


class TestNotConverged:
    CASE = RowCorrelated(Dimensions(16, 12), validate_spectrum(evenly(0.5, 4.0, 12)))

    def test_schedule_raises_with_last_precision(self, monkeypatch):
        monkeypatch.setattr(extended, "_MAX_DPS", 100)
        with pytest.raises(extended.NotConverged) as info:
            extended.cdf_max_row(16, 12, evenly(0.5, 4.0, 12), 0.5)
        assert info.value.dps == 60

    def test_report_keeps_double_value(self, monkeypatch):
        monkeypatch.setattr(extended, "_MAX_DPS", 100)
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


def exact(x):
    """The mpf ``x`` as a Fraction, exactly."""
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


def dominant(n, rng):
    """A random diagonally dominant n x n matrix of mpf (at the working
    precision), both signs off the diagonal."""
    rows = [[mpmath.mpf(rng.uniform(-1.0, 1.0)) / 3 for _ in range(n)] for _ in range(n)]
    for j in range(n):
        rows[j][j] = (n + rng.uniform(0.0, 1.0)) / mpmath.mpf(7) * (-1) ** j
    return rows


class TestDet:
    @pytest.mark.parametrize("dps", [40, 220])
    @pytest.mark.parametrize("n", range(1, 13))
    @pytest.mark.parametrize("scaled", [False, True], ids=["plain", "scaled"])
    def test_against_exact_fraction(self, n, dps, scaled):
        rng = np.random.default_rng(1000 * n + dps)
        with mpmath.workdps(dps):
            rows = dominant(n, rng)
            if scaled:
                # rows and columns scaled by 2^+-300: powers of two, exact
                row_exp = rng.choice([-300, 0, 300], size=n)
                col_exp = rng.choice([-300, 0, 300], size=n)
                rows = [[mpmath.ldexp(x, int(row_exp[j] + col_exp[k])) for k, x in enumerate(row)]
                        for j, row in enumerate(rows)]
            got = extended._det(rows)
        want = fraction_det([[exact(x) for x in row] for row in rows])
        assert want != 0
        assert abs(exact(got) - want) <= n * Fraction(10) ** (3 - dps) * abs(want)

    def test_repeated_row_is_exactly_zero(self):
        rng = np.random.default_rng(5)
        with mpmath.workdps(40):
            rows = dominant(7, rng)
            rows[5] = list(rows[2])
            assert extended._det(rows) == 0

    def test_row_swap_flips_sign(self):
        rng = np.random.default_rng(6)
        with mpmath.workdps(40):
            rows = dominant(8, rng)
            det = extended._det(rows)
            rows[1], rows[6] = rows[6], rows[1]
            assert extended._det(rows) == -det != 0

    def test_tiny_rows_are_not_singular(self):
        # one row near 2^-3000 beside rows near one: no tolerance reads it as zero
        rng = np.random.default_rng(7)
        with mpmath.workdps(40):
            rows = dominant(6, rng)
            rows[3] = [mpmath.ldexp(x, -3000) for x in rows[3]]
            got = extended._det(rows)
        want = fraction_det([[exact(x) for x in row] for row in rows])
        assert abs(exact(got) - want) <= 6 * Fraction(10) ** -37 * abs(want)


# ---------------------------------------------------------------------------
# a determinant whose rows span many orders of magnitude is not read as zero


def exact_cdf_min_col(n, m, s, lam):
    """The column-model Pr(lambda_min >= lam) from 80-digit entries whose
    determinant is taken exactly in rationals."""
    with mpmath.workdps(80):
        lm = mpmath.mpf(lam)
        sv = [mpmath.mpf(v) for v in s]
        rows = [[exact(v ** -k) for k in range(1, m + 1)]
                + [exact(mpmath.exp(lm * v) * v ** i) for i in range(n - m)] for v in sv]
        det = fraction_det(rows)
        pref = (-1) ** (m * (m - 1) // 2) * mpmath.exp(-lm * sum(sv)) / _gaps(sv)
        for v in sv:
            pref *= v ** m
        return pref * mpmath.mpf(det.numerator) / det.denominator


COLUMN_5x3 = [0.5, 1.0, 2.0, 3.0, 4.0]


class TestColumnMinWideRows:
    @pytest.mark.parametrize("lam", [80, 160])
    def test_formula_against_exact_determinant(self, lam, monkeypatch):
        want = exact_cdf_min_col(5, 3, COLUMN_5x3, lam)
        monkeypatch.setattr(extended, "_self_validated", validated_mpf)
        got = extended.cdf_min_col(5, 3, COLUMN_5x3, lam, DPS)
        assert rel_gap(got, want) <= 1e-25

    @pytest.mark.parametrize("lam", [80, 160])
    def test_extended_report(self, lam):
        want = exact_cdf_min_col(5, 3, COLUMN_5x3, lam)
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
        assert len(seen) == 2 and seen[0] >= 97 and seen[1] == seen[0] + 20

    def test_infinite_cancellation(self, monkeypatch):
        # two eigenvalues one ulp apart: the double determinant is exactly singular
        s = (1.0, 1.0 + 2.0 ** -52, 1.0 + 2.0 ** -51)
        case = RowCorrelated(Dimensions(5, 3), Spectrum(s))
        seen = rounds_of(monkeypatch)
        rep = cdf_max(case, 1.0, EvalConfig(precision="extended"))
        assert rep.cancellation_digits == math.inf
        assert any(w.startswith("extended:") for w in rep.warnings)
        assert seen == [(extended._MAX_DPS - 20) // 2, (extended._MAX_DPS + 20) // 2]
        want = validated_mpf(oracle_cdf_max_row(5, 3, s, 1.0), DPS)
        assert rel_gap(rep.value, want) <= 1e-15

    @pytest.mark.parametrize("cancel,first", [(0.0, 40), (12.5, 53), (57.3, 98),
                                              (1e6, 790), (math.inf, 790)])
    def test_bounds(self, cancel, first):
        assert extended.first_round(40, cancel) == first

    def test_direct_calls_start_at_dps(self, monkeypatch):
        seen = rounds_of(monkeypatch)
        extended.cdf_max_row(6, 4, evenly(0.5, 4.0, 4), 2.0)
        assert seen[0] == 40
