import itertools
import math

import mpmath
import numpy as np
import pytest
from scipy.special import gammainc

from corrwishart.detform import cdf_max, cdf_min
from corrwishart.model import Dimensions, RowCorrelated, validate_spectrum
from corrwishart.schur_series import (
    Partition,
    cdf_max_schur,
    cdf_min_schur,
    d_prime,
    hyp1f1_multivar,
    partitions,
    pochhammer_partition,
    schur_poly,
)


def count_partitions_dp(max_weight, max_part, length):
    """Independent counting oracle: DP over (parts used, budget, cap)."""
    total = 0
    for w in range(max_weight + 1):
        # p(w | parts <= cap, at most length parts)
        table = [[0] * (w + 1) for _ in range(length + 1)]
        table[0][0] = 1
        count = 0
        # iterate over largest part value explicitly
        def rec(budget, cap, slots):
            if budget == 0:
                return 1
            if slots == 0:
                return 0
            return sum(rec(budget - v, v, slots - 1)
                       for v in range(1, min(cap, budget) + 1))
        count = rec(w, min(max_part, w) if max_part else w, length)
        total += count
    return total


def ssyt_count(shape, max_entry):
    """Brute-force count of semistandard Young tableaux of a 2-row shape."""
    rows = len(shape)
    cells = sum(shape)
    total = 0
    for fill in itertools.product(range(1, max_entry + 1), repeat=cells):
        tab = []
        i = 0
        for r in range(rows):
            tab.append(fill[i:i + shape[r]])
            i += shape[r]
        ok = True
        for r in range(rows):
            for c in range(1, shape[r]):
                if tab[r][c] < tab[r][c - 1]:
                    ok = False
        for r in range(1, rows):
            for c in range(shape[r]):
                if tab[r][c] <= tab[r - 1][c]:
                    ok = False
        if ok:
            total += 1
    return total


class TestPartitions:
    def test_small_enumeration(self):
        got = [p.parts for p in partitions(2, 2, 2)]
        assert got == [(), (1,), (1, 1), (2,)]

    def test_zero_weight(self):
        assert [p.parts for p in partitions(0, 5, 3)] == [()]

    def test_weight_four_enumeration(self):
        got = [p.parts for p in partitions(4, 2, 2)]
        assert got == [(), (1,), (1, 1), (2,), (2, 1), (2, 2)]
        assert len(got) == 6

    def test_counts_match_recurrence(self):
        for max_w, max_p, length in [(6, 3, 2), (8, None, 3), (5, 2, 4)]:
            got = sum(1 for _ in partitions(max_w, max_p, length))
            assert got == count_partitions_dp(max_w, max_p, length)

    def test_validation(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((2, -1))
        assert Partition((2, 1, 0, 0)).parts == (2, 1)
        assert Partition((3, 1)).weight == 4

    def test_negative_weight_is_empty(self):
        assert list(partitions(-1, 3, 2)) == []


class TestSchurPoly:
    def test_single_row_is_power_sum_of_h(self):
        assert schur_poly(Partition((1,)), [1.0, 2.0, 3.0]) == pytest.approx(6.0)

    def test_column_is_elementary(self):
        assert schur_poly(Partition((1, 1)), [1.0, 2.0]) == pytest.approx(2.0)

    def test_hook_shape_tableau_count(self):
        # s_kappa(1,...,1) counts semistandard tableaux; oracle enumerates them
        oracle = ssyt_count((2, 1), 3)
        assert oracle == 8
        assert schur_poly(Partition((2, 1)), [1.0, 1.0, 1.0]) == pytest.approx(oracle)

    def test_more_parts_than_variables_is_zero(self):
        assert schur_poly(Partition((1, 1, 1)), [1.0, 2.0]) == 0.0

    def test_permutation_invariance_exact(self):
        x = [2.0, 5.0, 3.0]
        kappa = Partition((3, 1))
        base = schur_poly(kappa, x)
        for perm in itertools.permutations(x):
            assert schur_poly(kappa, list(perm)) == base

    def test_against_bialternant(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            m = int(rng.integers(1, 4))
            w = int(rng.integers(0, 5))
            parts = next(iter([p.parts for p in partitions(w, None, m)
                               if p.weight == w]), ())
            x = np.sort(rng.uniform(0.5, 3.0, m))
            while np.any(np.diff(x) < 1e-3):
                x = np.sort(rng.uniform(0.5, 3.0, m))
            kappa = list(parts) + [0] * (m - len(parts))
            num = np.linalg.det(np.array(
                [[xi ** (kappa[j] + m - 1 - j) for j in range(m)] for xi in x]))
            den = np.linalg.det(np.array(
                [[xi ** (m - 1 - j) for j in range(m)] for xi in x]))
            expect = num / den
            got = schur_poly(Partition(parts), list(x))
            assert got == pytest.approx(expect, rel=1e-9, abs=1e-9)


class TestPochhammerAndDPrime:
    def test_empty_partition(self):
        assert pochhammer_partition(3.0, Partition(()), 2) == 1.0
        assert d_prime(Partition(()), 3) == pytest.approx(1.0)

    def test_single_row(self):
        assert pochhammer_partition(3.0, Partition((2,)), 1) == pytest.approx(12.0)

    def test_two_rows(self):
        assert pochhammer_partition(3.0, Partition((2, 1)), 2) == pytest.approx(24.0)

    def test_d_prime_values(self):
        assert d_prime(Partition((1,)), 2) == pytest.approx(1.0)
        assert d_prime(Partition((1, 1)), 2) == pytest.approx(2.0)

    def test_d_prime_positive(self):
        for p in partitions(5, None, 3):
            assert d_prime(p, 3) > 0.0

    def test_d_prime_rejects_more_parts_than_m(self):
        with pytest.raises(ValueError, match="more parts than m"):
            d_prime(Partition((2, 1, 1)), 2)

    def test_zero_factor(self):
        # (-1)(0)(1): the rising factorial passes through zero
        assert pochhammer_partition(-1.0, Partition((3,)), 1) == 0.0
        # row 2 starts at a - 1 = 0
        assert pochhammer_partition(1.0, Partition((2, 1)), 2) == 0.0

    def test_negative_factor(self):
        # row 1: (1/2)(3/2), row 2: (-1/2)(1/2)
        assert pochhammer_partition(0.5, Partition((2, 2)), 2) == pytest.approx(-0.1875,
                                                                             rel=1e-15)


class TestHyp1F1Multivar:
    def test_all_zero_arguments(self):
        sv = hyp1f1_multivar(2.0, 5.0, [0.0, 0.0], max_weight=10)
        assert sv.value == 1.0
        assert sv.tail_bound == 0.0

    def test_single_variable_reduces_to_kummer(self):
        sv = hyp1f1_multivar(2.0, 4.0, [-1.3], max_weight=60)
        kv = float(mpmath.hyp1f1(2, 4, -1.3))
        assert sv.value == pytest.approx(kv, rel=1e-10)

    def test_equal_parameters_give_exponential(self):
        sv = hyp1f1_multivar(3.0, 3.0, [-0.5, -1.0], max_weight=40)
        assert sv.value == pytest.approx(math.exp(-1.5), abs=1e-10)

    def test_kummer_transform_identity(self):
        xs = [-0.8, -0.4]
        raw = hyp1f1_multivar(3.0, 5.0, xs, max_weight=60).value
        flip = math.exp(sum(xs)) * hyp1f1_multivar(
            2.0, 5.0, [-v for v in xs], max_weight=60).value
        assert raw == pytest.approx(flip, rel=1e-12)

    def test_uncontrolled_tail_is_reported(self):
        sv = hyp1f1_multivar(3.0, 5.0, [20.0, 25.0], max_weight=4)
        assert any("tail" in w for w in sv.warnings)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            hyp1f1_multivar(2.0, 1.0, [0.1, 0.2], max_weight=5)

    def test_rejects_no_variables(self):
        with pytest.raises(ValueError, match="at least one variable"):
            hyp1f1_multivar(2.0, 3.0, [], max_weight=5)


class TestSeriesCdfs:
    def test_max_m1_gamma(self):
        sv = cdf_max_schur(1.0, Dimensions(2, 1), [1.0])
        assert sv.value == pytest.approx(0.26424111765711536, rel=1e-10)

    def test_max_vanishes_at_origin(self):
        sv = cdf_max_schur(1e-6, Dimensions(3, 2), [1.0, 2.0])
        assert sv.value <= 1e-20

    def test_max_agrees_with_determinant(self):
        rng = np.random.default_rng(41)
        for _ in range(8):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(m, 6))
            s = np.sort(rng.uniform(0.2, 3.0, m))
            while m > 1 and np.min(np.diff(s)) < 0.05:
                s = np.sort(rng.uniform(0.2, 3.0, m))
            lam = float(rng.uniform(0.1, 8.0 / s[-1]))
            case = RowCorrelated(Dimensions(n, m), validate_spectrum(s))
            oracle = cdf_max_schur(lam, case.dims, case.s.values)
            got = cdf_max(case, lam).value
            if oracle.value > 1e-250:
                assert got == pytest.approx(oracle.value, rel=1e-8)

    def test_min_square_is_exponential(self):
        val = cdf_min_schur(0.7, Dimensions(3, 3), [1.0, 2.0, 3.0])
        assert val == pytest.approx(math.exp(-0.7 * 6.0), rel=1e-13)

    def test_min_n2_m1_closed_form(self):
        val = cdf_min_schur(1.0, Dimensions(2, 1), [1.0])
        assert val == pytest.approx(0.73575888234288464, rel=1e-13)

    def test_min_agrees_with_determinant(self):
        case = RowCorrelated(Dimensions(3, 2), validate_spectrum([1.0, 2.0]))
        got = cdf_min(case, 0.4).value
        oracle = cdf_min_schur(0.4, case.dims, case.s.values)
        assert got == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("fn", [cdf_max_schur, cdf_min_schur])
    @pytest.mark.parametrize("lam,s,match", [(0.5, [1.0, 2.0, 3.0], "length m=2"),
                                             (0.5, [1.0], "length m=2"),
                                             (0.0, [1.0, 2.0], "positive"),
                                             (-0.5, [1.0, 2.0], "positive")])
    def test_rejects_bad_arguments(self, fn, lam, s, match):
        with pytest.raises(ValueError, match=match):
            fn(lam, Dimensions(3, 2), s)


class TestF3Identity:
    def test_series_equals_determinant_side(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(m, 6))
            x = np.sort(rng.uniform(-3.0, -0.05, m))
            while m > 1 and np.min(np.diff(x)) < 0.02:
                x = np.sort(rng.uniform(-3.0, -0.05, m))
            series = hyp1f1_multivar(float(n), float(n + m), list(x),
                                     max_weight=None).value
            pref = 1.0
            for k in range(1, m + 1):
                pref *= math.gamma(n + k) / (math.gamma(k) * math.gamma(n - m + k))
            vdm = 1.0
            for j in range(m):
                for k in range(j + 1, m):
                    vdm *= x[k] - x[j]
            M = np.empty((m, m))
            for j in range(m):
                xx = -x[j]
                for k in range(1, m + 1):
                    a = n - m + k
                    M[j, k - 1] = gammainc(a, xx) * math.gamma(a) / xx ** a
            det_side = pref / vdm * np.linalg.det(M)
            assert series == pytest.approx(det_side, rel=1e-8)
