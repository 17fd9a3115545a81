import math

import mpmath
import numpy as np
import pytest

from corrwishart import specfun as sf
from corrwishart.specfun import (
    kummer_1f1,
    log_gamma,
    log_reg_lower_gamma,
    reg_lower_gamma,
    tricomi_u1,
)


class TestRegLowerGamma:
    def test_zero_argument(self):
        assert reg_lower_gamma(1, 0.0).value == 0.0

    def test_a1_closed_form(self):
        r = reg_lower_gamma(1, 1.0)
        assert r.value == pytest.approx(1.0 - math.exp(-1.0), abs=1e-14)

    def test_a2_closed_form(self):
        r = reg_lower_gamma(2, 3.0)
        assert r.value == pytest.approx(1.0 - math.exp(-3.0) * 4.0, abs=1e-14)

    def test_integer_closed_forms_random(self):
        # P(a, x) = 1 - e^-x sum_{k<a} x^k/k! for integer a
        rng = np.random.default_rng(11)
        for _ in range(50):
            a = int(rng.integers(1, 12))
            x = float(rng.uniform(0.01, 30.0))
            exact = 1.0 - math.exp(-x) * sum(x**k / math.factorial(k) for k in range(a))
            got = reg_lower_gamma(a, x).value
            assert got == pytest.approx(exact, rel=1e-12, abs=1e-15)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            reg_lower_gamma(0, 1.0)
        with pytest.raises(ValueError):
            reg_lower_gamma(2, -1.0)
        with pytest.raises(ValueError):
            reg_lower_gamma(2, math.inf)
        with pytest.raises(ValueError):
            reg_lower_gamma(1.5, 1.0)

    def test_error_estimate_nonnegative_finite(self):
        r = reg_lower_gamma(5, 2.5)
        assert r.abs_error_estimate >= 0.0
        assert math.isfinite(r.abs_error_estimate)

    def test_gamma_1f1_identity(self):
        # gamma(a, x) = (x^a / a) 1F1(a; a+1; -x)
        rng = np.random.default_rng(2024)
        for _ in range(200):
            a = int(rng.integers(1, 11))
            x = float(rng.uniform(1e-6, 50.0))
            lhs = math.gamma(a) * reg_lower_gamma(a, x).value
            rhs = x**a / a * kummer_1f1(a, a + 1, -x).value
            assert abs(lhs - rhs) <= 1e-12 * lhs + 1e-300

    def test_recurrence(self):
        # P(a+1, x) = P(a, x) - x^a e^-x / Gamma(a+1)
        rng = np.random.default_rng(5)
        for _ in range(100):
            a = int(rng.integers(1, 300))
            x = float(rng.uniform(0.5, 50.0))
            lhs = reg_lower_gamma(a + 1, x).value
            drop = math.exp(a * math.log(x) - x - math.lgamma(a + 1))
            rhs = reg_lower_gamma(a, x).value - drop
            scale = max(lhs, drop)
            assert abs(lhs - rhs) <= 1e-13 * scale

    def test_monotone_in_x(self):
        for a in (1, 3, 17):
            grid = np.linspace(0.0, 40.0, 200)
            vals = [reg_lower_gamma(a, float(x)).value for x in grid]
            assert all(b >= a_ for a_, b in zip(vals, vals[1:]))
            assert vals[0] == 0.0
            assert vals[-1] <= 1.0

    def test_log_variant_survives_underflow(self):
        # P(100, 1e-3) underflows double precision; the log must not.
        # Frozen from mpmath.log(mpmath.gammainc(100, 0, 1e-3, regularized=True))
        lp = log_reg_lower_gamma(100, 1e-3)
        assert lp == pytest.approx(-1054.515893552739, abs=1e-9)

    def test_log_variant_large_order(self):
        # survives a ~ 500 on both branches
        assert math.isfinite(log_reg_lower_gamma(500, 100.0))
        assert log_reg_lower_gamma(500, 5000.0) == pytest.approx(0.0, abs=1e-12)


class TestKummer1F1:
    def test_at_zero(self):
        assert kummer_1f1(1, 2, 0.0).value == 1.0

    def test_closed_form_1_2(self):
        # 1F1(1; 2; x) = (e^x - 1)/x
        r = kummer_1f1(1, 2, -1.0)
        assert r.value == pytest.approx(1.0 - math.exp(-1.0), rel=1e-13)

    def test_derived_via_gamma_identity(self):
        # oracle: 1F1(a; a+1; -x) = a gamma(a, x) / x^a with a=2, x=1.5
        oracle = 2.0 * math.gamma(2) * reg_lower_gamma(2, 1.5).value / 1.5**2
        got = kummer_1f1(2, 3, -1.5).value
        assert got == pytest.approx(oracle, rel=1e-13)
        assert got == pytest.approx(0.39304408855904482, rel=1e-12)

    def test_positive_argument(self):
        # 1F1(1; 2; x) = (e^x - 1)/x for x > 0
        r = kummer_1f1(1, 2, 2.5)
        assert r.value == pytest.approx((math.exp(2.5) - 1.0) / 2.5, rel=1e-13)

    def test_kummer_transform_consistency(self):
        # e^-x 1F1(b-a; b; x) must reproduce 1F1(a; b; -x)
        for a, b, x in [(1, 4, 3.0), (2, 5, 10.0), (3, 7, 40.0)]:
            direct = kummer_1f1(a, b, -x).value
            flipped = math.exp(-x) * kummer_1f1(b - a, b, x).value
            assert direct == pytest.approx(flipped, rel=1e-12)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            kummer_1f1(2, 2, 1.0)
        with pytest.raises(ValueError):
            kummer_1f1(3, 2, 1.0)
        with pytest.raises(ValueError):
            kummer_1f1(1, 2, math.nan)


class TestTricomiU1:
    def test_b2(self):
        assert tricomi_u1(2, 1.0).value == pytest.approx(1.0, rel=1e-14)

    def test_b3(self):
        assert tricomi_u1(3, 2.0).value == pytest.approx(0.75, rel=1e-14)

    def test_b4(self):
        assert tricomi_u1(4, 1.0).value == pytest.approx(5.0, rel=1e-14)

    def test_positive_decreasing(self):
        vals = [tricomi_u1(5, z).value for z in (0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(v > 0 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            tricomi_u1(1, 1.0)
        with pytest.raises(ValueError):
            tricomi_u1(3, 0.0)
        with pytest.raises(ValueError):
            tricomi_u1(3, -2.0)

    def test_no_overflow_large_order_small_z(self):
        r = tricomi_u1(64, 0.01)
        assert r.value == math.inf or r.value > 0  # log-space path stays defined


class TestLogGamma:
    def test_matches_math(self):
        for x in (0.5, 1.0, 7.0, 123.4):
            assert log_gamma(x) == math.lgamma(x)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log_gamma(0.0)
        with pytest.raises(ValueError):
            log_gamma(-1.0)


# ---------------------------------------------------------------------------
# array kernels against 40-digit mpmath, each error inside the estimate the
# engine attaches to the entry built from it

EPS = 2.220446049250313e-16


def gamma_entry_estimate(a, x):
    return EPS * (10 + abs(math.lgamma(a)) + a * abs(math.log(x)) + min(x, a + 1))


def gamma_grid(a):
    xs = np.geomspace(1e-3, 5 * a + 50, 14)
    return np.unique(np.concatenate([xs, [a + 1.0, np.nextafter(a + 1.0, 0.0), a + 1 - 1e-9,
                                          0.5 * (a + 1)]]))


class TestArrayKernels:
    @pytest.mark.parametrize("a_hi", list(range(1, 13)) + [20, 50, 100, 300, 500])
    def test_gamma_orders_against_mpmath(self, a_hi):
        # the lower orders come from the downward recurrence, the top one
        # from the series (below x = a + 1) or the finite sum (above)
        a_lo = max(1, a_hi - 4)
        xs = gamma_grid(a_hi)
        log_e = sf.log_gamma_entries(a_lo, a_hi, xs)
        p, p_err, log_p = sf.reg_lower_gamma_orders(a_lo, a_hi, xs)
        with mpmath.workdps(40):
            for i, x in enumerate(xs):
                X = mpmath.mpf(float(x))
                for j, a in enumerate(range(a_lo, a_hi + 1)):
                    P = mpmath.gammainc(a, 0, X, regularized=True)
                    est = gamma_entry_estimate(a, x)
                    exact_e = mpmath.log(mpmath.gammainc(a, 0, X)) - a * mpmath.log(X)
                    assert abs(log_e[i, j] - exact_e) <= est, (a, x)
                    # log P is a sum of terms as large as a log x and
                    # log Gamma(a): one more rounding at its own size
                    assert abs(log_p[i, j] - mpmath.log(P)) <= est + EPS * abs(log_p[i, j]), (a, x)
                    assert abs(p[i, j] - P) <= p_err[i, j], (a, x)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 16])
    def test_doubly_g_against_mpmath(self, n):
        xs = np.concatenate([np.geomspace(1e-4, 500.0, 30),
                             [2.0 * n, np.nextafter(2.0 * n, 0.0), 2.0 * n - 1e-9, 2.0 * n + 1e-9]])
        got = sf.log_doubly_g(n, xs)
        with mpmath.workdps(40):
            for x, g in zip(xs, got):
                X = mpmath.mpf(float(x))
                exact = mpmath.log(mpmath.exp(-X) * mpmath.hyp1f1(n, n + 1, X) / n)
                assert abs(g - exact) <= EPS * (20 + x), (n, x)

    @pytest.mark.parametrize("a_lo,a_hi", [(1, 1), (1, 3), (2, 5), (3, 8), (8, 12), (16, 20),
                                           (150, 152)])
    def test_row_min_sums_against_mpmath(self, a_lo, a_hi):
        # (150, 152) at s <= 0.1 leaves the double range of the recurrence
        lam = np.geomspace(1e-3, 30.0, 9)[:, None]
        s = np.array([0.01, 0.1, 0.7, 1.0, 3.3, 10.0])
        got = sf.log_shifted_power_integrals(a_lo, a_hi, lam, s)
        with mpmath.workdps(40):
            for i, l in enumerate(lam[:, 0]):
                for j, sv in enumerate(s):
                    L, S = mpmath.mpf(float(l)), mpmath.mpf(float(sv))
                    for k, a in enumerate(range(a_lo, a_hi + 1)):
                        exact = mpmath.log(mpmath.fsum(
                            mpmath.binomial(a - 1, t) * L ** (a - 1 - t) * mpmath.factorial(t)
                            / S ** (t + 1) for t in range(a)))
                        v = got[i, j, k]
                        assert abs(v - exact) <= EPS * (10 + a + abs(v)), (a, l, sv)

    def test_scalar_wrappers_equal_array_kernels(self):
        xs = np.concatenate([np.geomspace(1e-3, 80.0, 25), [4.0, 7.0, 8.0]])
        for a in (1, 3, 7, 40):
            p, p_err, log_p = sf.reg_lower_gamma_orders(a, a, xs)
            for i, x in enumerate(xs.tolist()):
                assert log_reg_lower_gamma(a, x) == log_p[i, 0]
                r = reg_lower_gamma(a, x)
                assert (r.value, r.abs_error_estimate) == (p[i, 0], p_err[i, 0])
        for n in (1, 3, 8):
            log_g = sf.log_doubly_g(n, xs)
            for i, x in enumerate(xs.tolist()):
                assert sf.log_kummer_series(n, n + 1, x) == math.log(n) + x + log_g[i]
