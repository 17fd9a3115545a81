import math

import mpmath
import numpy as np
import pytest

from corrwishart import specfun as sf
from corrwishart.detform import _block


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
        with mpmath.workdps(40):
            for i, x in enumerate(xs):
                X = mpmath.mpf(float(x))
                for j, a in enumerate(range(a_lo, a_hi + 1)):
                    exact_e = mpmath.log(mpmath.gammainc(a, 0, X)) - a * mpmath.log(X)
                    assert abs(log_e[i, j] - exact_e) <= gamma_entry_estimate(a, x), (a, x)

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
        # the smallest-eigenvalue entries int_lam^inf t^(a-1) e^(-s t) dt, the
        # gap family at a one-value point: (a-1)! / s^a e^(-lam s) times the
        # partial sum sum_(j<a) (lam s)^j / j!; (150, 152) at s <= 0.1 leaves
        # the double range of the entries themselves
        lam = np.geomspace(1e-3, 30.0, 9)
        s = np.array([0.01, 0.1, 0.7, 1.0, 3.3, 10.0])
        got, est, _ = _block("gap", range(a_lo, a_hi + 1), s, lam[:, None], False)
        with mpmath.workdps(40):
            for i, l in enumerate(lam):
                for j, sv in enumerate(s):
                    L, S = mpmath.mpf(float(l)), mpmath.mpf(float(sv))
                    for k, a in enumerate(range(a_lo, a_hi + 1)):
                        exact = mpmath.log(mpmath.fsum(
                            mpmath.binomial(a - 1, t) * L ** (a - 1 - t) * mpmath.factorial(t)
                            / S ** (t + 1) for t in range(a))) - L * S
                        v = got[i, j, k]
                        # (plus the rounding of the exponent lam s)
                        assert abs(v - exact) <= EPS * (10 + a + abs(v) + l * sv), (a, l, sv)
                        assert abs(v - exact) <= est[i, j, k], (a, l, sv)
