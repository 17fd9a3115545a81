"""The mpmath re-evaluation: its row recurrences, an independent oracle and
its non-convergence report."""

import mpmath
import numpy as np
import pytest

from corrwishart import extended
from corrwishart.detform import EvalConfig, cdf_max
from corrwishart.model import Dimensions, RowCorrelated, validate_spectrum


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


def validated_mpf(raw, dps):
    """The self-validation schedule, returning the agreed mpf itself."""
    tol = mpmath.mpf(10) ** (10 - dps)
    prev, d = None, dps
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


@pytest.mark.parametrize("name,fn,oracle,args", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
def test_agrees_with_direct_transcription(name, fn, oracle, args, monkeypatch):
    want = validated_mpf(oracle(*args), DPS)
    monkeypatch.setattr(extended, "_self_validated", validated_mpf)
    got = fn(*args, DPS)
    assert want != 0
    assert rel_gap(got, want) <= mpmath.mpf(10) ** (10 - DPS), name


# ---------------------------------------------------------------------------
# non-convergence is reported, not returned as a value


class TestNotConverged:
    CASE = RowCorrelated(Dimensions(16, 12), validate_spectrum(evenly(0.5, 4.0, 12)))

    def test_schedule_raises_with_last_precision(self, monkeypatch):
        monkeypatch.setattr(extended, "_MAX_DPS", 100)
        with pytest.raises(extended.NotConverged) as info:
            extended.cdf_max_row(16, 12, evenly(0.5, 4.0, 12), 0.5)
        assert info.value.dps == 100

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
