import itertools
import json
import math

import mpmath
import numpy as np
import pytest

from corrwishart import cli, extended
from corrwishart.detform import (
    EvalConfig,
    SignedLogValue,
    cdf_max,
    cdf_min,
    logdet,
    pdf_joint_minmax,
    pdf_max,
    pdf_min,
    prob_gap,
)
from corrwishart.detform import (
    _cdf_max_grid,
    _cdf_min_grid,
    _det_from_logs,
    _pdf_joint_grid,
    _pdf_max_grid,
    _pdf_min_grid,
    _prob_gap_grid,
    _row_min_logs,
)
from corrwishart.model import (
    ColumnCorrelated,
    Dimensions,
    DoublyCorrelated,
    RowCorrelated,
    validate_spectrum,
)
from corrwishart.schur_series import cdf_max_schur, cdf_min_schur


def row_case(n, m, s):
    return RowCorrelated(Dimensions(n, m), validate_spectrum(s))


def col_case(n, m, s):
    return ColumnCorrelated(Dimensions(n, m), validate_spectrum(s))


def doubly_case(n, m, r, s):
    return DoublyCorrelated(Dimensions(n, m), validate_spectrum(r),
                            validate_spectrum(s))


class TestSignedLogValue:
    def test_zero_invariant(self):
        z = SignedLogValue.zero()
        assert z.sign == 0 and z.log_magnitude == -math.inf
        assert SignedLogValue.from_value(0.0).sign == 0

    def test_roundtrip_and_product(self):
        a = SignedLogValue.from_value(-3.0)
        b = SignedLogValue.from_value(2.0)
        assert (a * b).to_float() == pytest.approx(-6.0, rel=1e-15)
        assert (a * SignedLogValue.zero()).sign == 0


class TestLogdet:
    def test_scalar(self):
        r = logdet([[2.0]])
        assert r.sign == 1
        assert r.log_magnitude == pytest.approx(math.log(2.0), abs=1e-15)

    def test_negative_determinant(self):
        r = logdet([[1.0, 2.0], [3.0, 4.0]])
        assert r.sign == -1
        assert r.log_magnitude == pytest.approx(math.log(2.0), abs=1e-13)

    def test_vandermonde(self):
        x = [1.0, 2.0, 4.0]
        M = [[xi ** k for k in range(3)] for xi in x]
        r = logdet(M)
        assert r.sign == 1
        assert r.log_magnitude == pytest.approx(math.log(6.0), rel=1e-13)

    def test_singular(self):
        r = logdet([[1.0, 2.0], [2.0, 4.0]])
        assert r.sign == 0
        assert r.log_magnitude == -math.inf

    def test_extreme_scales_handled_by_equilibration(self):
        M = [[1e200, 2e200], [3e-180, 5e-180]]
        r = logdet(M)
        expect = math.log(abs(1e200 * 5e-180 - 2e200 * 3e-180))
        assert r.log_magnitude == pytest.approx(expect, rel=1e-10)

    def test_random_against_numpy(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            n = int(rng.integers(1, 8))
            M = rng.normal(size=(n, n))
            sgn_np, log_np = np.linalg.slogdet(M)
            r = logdet(M)
            assert r.sign == int(sgn_np)
            assert r.log_magnitude == pytest.approx(log_np, rel=1e-10, abs=1e-10)

    def test_diagnostics(self):
        r, diag = logdet([[1.0, 1.0], [1.0, 1.0 + 1e-9]],
                         entry_abs_errors=np.full((2, 2), 1e-16),
                         with_diagnostics=True)
        assert diag["cancellation_digits"] > 8.0
        assert diag["rel_err"] > 1e-8

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(ValueError):
            logdet([[1.0, 2.0]])
        with pytest.raises(ValueError):
            logdet([[math.inf, 1.0], [0.0, 1.0]])


class TestCdfMaxRow:
    def test_single_exponential(self):
        rep = cdf_max(row_case(1, 1, [1.0]), 1.0)
        assert rep.value == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)

    def test_m1_gamma_closed_form(self):
        rep = cdf_max(row_case(3, 1, [2.0]), 1.0)
        assert rep.value == pytest.approx(0.32332358381693654, rel=1e-12)

    def test_matches_series_oracle(self):
        case = row_case(3, 2, [1.0, 2.0])
        got = cdf_max(case, 1.5).value
        oracle = cdf_max_schur(1.5, case.dims, case.s.values)
        assert got == pytest.approx(oracle.value, rel=1e-8)

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            cdf_max(row_case(2, 1, [1.0]), 0.0)
        with pytest.raises(ValueError):
            cdf_max(row_case(2, 1, [1.0]), -1.0)


class TestCdfMinRow:
    def test_square_closed_form(self):
        rep = cdf_min(row_case(3, 3, [1.0, 2.0, 3.0]), 0.5)
        assert rep.value == pytest.approx(math.exp(-3.0), rel=1e-13)

    def test_single_exponential(self):
        rep = cdf_min(row_case(1, 1, [1.0]), 1.0)
        assert rep.value == pytest.approx(math.exp(-1.0), rel=1e-13)

    def test_matches_finite_series_oracle(self):
        case = row_case(4, 2, [1.0, 3.0])
        got = cdf_min(case, 0.2).value
        oracle = cdf_min_schur(0.2, case.dims, case.s.values)
        assert got == pytest.approx(oracle, rel=1e-10)

    def test_entry_constructions_agree(self):
        # finite-sum entries vs the Tricomi route lam^a U(1, a+1, lam*s)
        rng = np.random.default_rng(31)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(1, 9))
            m = int(rng.integers(1, n + 1))
            k = int(rng.integers(1, m + 1))
            a = n - m + k
            lam = float(rng.uniform(0.05, 5.0))
            s = float(rng.uniform(0.1, 10.0))
            fsum = math.exp(_row_min_logs(a, a, [lam], [s])[0][0, 0, 0])
            u_route = lam ** a * float(mpmath.hyperu(1, a + 1, lam * s))
            worst = max(worst, abs(fsum - u_route) / u_route)
        assert worst <= 1e-11


class TestColumnCase:
    def test_m1_hypoexponential(self):
        # lambda_max = |z1|^2 + |z2|^2, independent exponentials rates s1, s2
        s1, s2, lam = 1.0, 3.0, 0.7
        expect = 1.0 - (s2 * math.exp(-s1 * lam) - s1 * math.exp(-s2 * lam)) / (s2 - s1)
        rep = cdf_max(col_case(2, 1, [s1, s2]), lam)
        assert rep.value == pytest.approx(expect, rel=1e-12)
        rep_min = cdf_min(col_case(2, 1, [s1, s2]), lam)
        assert rep_min.value == pytest.approx(1.0 - expect, rel=1e-12)

    def test_square_reduces_to_row(self):
        s = [1.0, 2.0, 3.0]
        for lam in (0.3, 1.0, 4.0):
            a = cdf_max(col_case(3, 3, s), lam).value
            b = cdf_max(row_case(3, 3, s), lam).value
            assert a == pytest.approx(b, rel=1e-9, abs=1e-300)
            c = cdf_min(col_case(3, 3, s), lam).value
            d = cdf_min(row_case(3, 3, s), lam).value
            assert c == pytest.approx(d, rel=1e-9)

    def test_min_square_exponential(self):
        s = [1.0, 2.0, 3.0]
        rep = cdf_min(col_case(3, 3, s), 0.3)
        assert rep.value == pytest.approx(math.exp(-0.3 * 6.0), rel=1e-12)


class TestDoublyCase:
    def test_max_m1_hypoexponential(self):
        # rates r1*s1, r1*s2 for the sum of two independent exponentials
        r1, s1, s2, lam = 2.0, 1.0, 3.0, 0.8
        a, b = r1 * s1, r1 * s2
        expect = 1.0 - (b * math.exp(-a * lam) - a * math.exp(-b * lam)) / (b - a)
        rep = cdf_max(doubly_case(2, 1, [r1], [s1, s2]), lam)
        assert rep.value == pytest.approx(expect, rel=1e-11)

    def test_max_general_matches_padded_square(self):
        # general m < n display against the m = n evaluation with the extra
        # column-side eigenvalues pushed to infinity
        r = [1.0, 2.5]
        s = [1.0, 2.0, 3.5]
        lam = 1.1
        gen = cdf_max(doubly_case(3, 2, r, s), lam).value
        pad = extended.cdf_max_doubly(3, 3, r + [1e9], s, lam, dps=60)
        assert gen == pytest.approx(pad, rel=1e-7)

    def test_min_reduces_to_pure_exponential(self):
        # s -> all ones limit collapses to the square row case in r
        d = 1e-5
        case = doubly_case(2, 2, [1.0, 2.0], [1.0 + d, 1.0 + 2 * d])
        rep = cdf_min(case, 0.5)
        assert rep.value == pytest.approx(math.exp(-0.5 * 3.0), rel=1e-3)

    def test_min_rejects_rectangular(self):
        case = doubly_case(3, 2, [1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            cdf_min(case, 1.0)
        with pytest.raises(ValueError):
            pdf_min(case, 1.0)

    def test_symmetry_under_spectrum_swap(self):
        d1 = doubly_case(3, 3, [1.0, 2.0, 3.5], [1.3, 2.2, 4.0])
        d2 = doubly_case(3, 3, [1.3, 2.2, 4.0], [1.0, 2.0, 3.5])
        assert cdf_max(d1, 1.0).value == pytest.approx(cdf_max(d2, 1.0).value, rel=1e-10)
        assert cdf_min(d1, 0.5).value == pytest.approx(cdf_min(d2, 0.5).value, rel=1e-10)


class TestProbGap:
    def test_collapses_to_cdf_max(self):
        case = row_case(3, 2, [1.0, 2.0])
        b = 2.0
        assert abs(prob_gap(case, 1e-9, b).value - cdf_max(case, b).value) <= 1e-6

    def test_collapses_to_cdf_min(self):
        case = row_case(3, 2, [1.0, 2.0])
        a = 0.4
        big_b = 50 * 3 / 1.0
        assert abs(prob_gap(case, a, big_b).value - cdf_min(case, a).value) <= 1e-9

    def test_m1_gamma_difference(self):
        # single eigenvalue in [a, b]: P(2, 2) - P(2, 0.5)
        rep = prob_gap(row_case(2, 1, [1.0]), 0.5, 2.0)
        assert rep.value == pytest.approx(0.50379013985911206, rel=1e-12)

    def test_rejects_bad_interval(self):
        case = row_case(2, 1, [1.0])
        with pytest.raises(ValueError):
            prob_gap(case, 2.0, 1.0)
        with pytest.raises(ValueError):
            prob_gap(case, 0.0, 1.0)
        with pytest.raises(TypeError):
            prob_gap(col_case(2, 1, [1.0, 2.0]), 0.5, 1.0)


def central_diff(fn, x, h):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


class TestDensities:
    def test_pdf_max_single(self):
        rep = pdf_max(row_case(1, 1, [1.0]), 1.0)
        assert rep.value == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_pdf_min_single(self):
        rep = pdf_min(row_case(1, 1, [1.0]), 1.0)
        assert rep.value == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_pdf_min_square_closed_form(self):
        rep = pdf_min(row_case(2, 2, [1.0, 2.0]), 0.4)
        assert rep.value == pytest.approx(3.0 * math.exp(-1.2), rel=1e-12)

    def test_pdf_max_row_matches_fd(self):
        # probe away from lam = 1, where lambda-power bookkeeping errors hide
        for case, lam in [(row_case(3, 2, [1.0, 2.0]), 1.0),
                          (row_case(3, 3, [0.9, 1.8, 3.6]), 2.5),
                          (row_case(4, 2, [1.2, 2.6]), 0.35)]:
            fd = central_diff(lambda t: cdf_max(case, t).value, lam, 1e-5)
            assert abs(pdf_max(case, lam).value - fd) <= 1e-7

    def test_pdf_min_column_matches_fd(self):
        case = col_case(3, 2, [1.0, 2.0, 3.0])
        fd = -central_diff(lambda t: cdf_min(case, t).value, 0.3, 1e-5)
        assert abs(pdf_min(case, 0.3).value - fd) <= 1e-7

    def test_pdf_max_column_matches_fd(self):
        case = col_case(4, 2, [0.5, 1.5, 2.5, 3.5])
        fd = central_diff(lambda t: cdf_max(case, t).value, 2.0, 1e-5)
        assert abs(pdf_max(case, 2.0).value - fd) <= 1e-7

    def test_pdf_min_doubly_matches_fd(self):
        case = doubly_case(2, 2, [1.0, 2.0], [1.3, 2.7])
        fd = -central_diff(lambda t: cdf_min(case, t).value, 0.5, 1e-5)
        assert abs(pdf_min(case, 0.5).value - fd) <= 1e-7

    def test_pdf_max_doubly_matches_fd(self):
        case = doubly_case(3, 2, [1.0, 2.5], [1.0, 2.0, 3.5])
        fd = central_diff(lambda t: cdf_max(case, t).value, 1.0, 1e-5)
        assert abs(pdf_max(case, 1.0).value - fd) <= 1e-7

    def test_pdf_min_row_rectangular_matches_fd(self):
        case = row_case(4, 2, [1.0, 3.0])
        fd = -central_diff(lambda t: cdf_min(case, t).value, 0.6, 1e-5)
        assert abs(pdf_min(case, 0.6).value - fd) <= 1e-7


class TestJointDensity:
    def test_m1_identically_zero(self):
        case = row_case(2, 1, [1.0])
        for a, b in [(0.1, 0.5), (1.0, 4.0)]:
            assert abs(pdf_joint_minmax(case, a, b).value) <= 1e-12

    def test_matches_mixed_fd_of_gap(self):
        case = row_case(2, 2, [1.0, 2.0])
        a0, b0, h = 0.3, 2.0, 1e-4
        f = lambda a, b: prob_gap(case, a, b).value
        mixed = (f(a0 + h, b0 + h) - f(a0 + h, b0 - h)
                 - f(a0 - h, b0 + h) + f(a0 - h, b0 - h)) / (4 * h * h)
        got = pdf_joint_minmax(case, a0, b0).value
        assert abs(got - (-mixed)) <= 1e-6

    def test_rejects_bad_interval(self):
        case = row_case(2, 2, [1.0, 2.0])
        with pytest.raises(ValueError):
            pdf_joint_minmax(case, 1.0, 0.5)


class TestStructuralProperties:
    def test_cdf_max_monotone_with_limits(self):
        # monotone within the engine's own error bars: deep in the upper
        # tail the determinant cancellation makes 1 - value smaller than
        # the achievable accuracy
        cases = [row_case(3, 2, [1.0, 2.0]),
                 col_case(3, 2, [1.0, 2.0, 3.0]),
                 doubly_case(3, 3, [1.0, 2.0, 3.0], [1.2, 2.4, 3.6]),
                 doubly_case(3, 2, [1.0, 2.0], [1.2, 2.4, 3.6])]
        for case in cases:
            smin = min(case.s.values)
            lam_hi = 50.0 * case.dims.n / smin
            grid = np.geomspace(1e-3, lam_hi, 40)
            reps = [cdf_max(case, float(t)) for t in grid]
            for lo, hi in zip(reps, reps[1:]):
                slack = lo.abs_error_estimate + hi.abs_error_estimate + 1e-12
                assert hi.value >= lo.value - slack
            assert reps[0].value <= 1e-6
            assert reps[-1].value >= 1.0 - 1e-6 - reps[-1].abs_error_estimate

    def test_cdf_min_monotone_with_limits(self):
        cases = [row_case(4, 2, [1.0, 2.0]),
                 col_case(3, 2, [1.0, 2.0, 3.0]),
                 doubly_case(3, 3, [1.0, 2.0, 3.0], [1.2, 2.4, 3.6])]
        ext = EvalConfig(precision="extended")
        for case in cases:
            smin = min(case.s.values)
            lam_hi = 50.0 * case.dims.n / smin
            grid = np.geomspace(1e-4, lam_hi, 40)
            reps = [cdf_min(case, float(t)) for t in grid]
            for lo, hi in zip(reps, reps[1:]):
                slack = lo.abs_error_estimate + hi.abs_error_estimate + 1e-12
                assert hi.value <= lo.value + slack
            # the lambda -> 0 limit needs the extended engine: the double
            # determinant is pure cancellation noise there
            lam_lo = 1e-9 / max(case.s.values)
            assert cdf_min(case, lam_lo, ext).value >= 1.0 - 1e-6
            assert reps[-1].value <= 1e-6

    def test_m1_complementarity(self):
        for case in (row_case(3, 1, [2.0]), col_case(3, 1, [1.0, 2.0, 3.0])):
            for lam in np.geomspace(0.01, 20.0, 15):
                tot = cdf_max(case, float(lam)).value + cdf_min(case, float(lam)).value
                assert abs(tot - 1.0) <= 1e-12

    def test_scale_invariance(self):
        case = row_case(4, 2, [1.0, 2.7])
        for c in (0.1, 10.0):
            scaled = row_case(4, 2, [1.0 / c, 2.7 / c])
            a = cdf_max(case, 1.3).value
            b = cdf_max(scaled, 1.3 * c).value
            assert a == pytest.approx(b, rel=1e-10)
        dcase = doubly_case(2, 2, [1.0, 2.0], [1.3, 2.7])
        for c in (0.1, 10.0):
            dscaled = doubly_case(2, 2, [1.0 / c, 2.0 / c], [1.3, 2.7])
            a = cdf_max(dcase, 0.9).value
            b = cdf_max(dscaled, 0.9 * c).value
            assert a == pytest.approx(b, rel=1e-10)

    def test_deflation_limit(self):
        huge = row_case(3, 3, [1.0, 2.0, 1e6])
        small = row_case(3, 2, [1.0, 2.0])
        for lam in (0.5, 1.5, 4.0):
            assert abs(cdf_max(huge, lam).value - cdf_max(small, lam).value) <= 1e-4

    def test_doubly_reduces_to_row(self):
        # s_j = 1 + j*delta: the doubly law collapses onto the row law in r,
        # with error shrinking linearly in delta
        r = [1.0, 2.0, 3.5]
        gaps = {}
        for delta in (1e-3, 1e-4):
            s_near = [1.0 + (j + 1) * delta for j in range(3)]
            dbl = doubly_case(3, 3, r, s_near)
            row = row_case(3, 3, r)
            worst = max(abs(cdf_max(dbl, lam).value - cdf_max(row, lam).value)
                        for lam in (0.3, 1.0, 2.0))
            worst = max(worst, max(abs(cdf_min(dbl, lam).value - cdf_min(row, lam).value)
                                   for lam in (0.3, 1.0, 2.0)))
            gaps[delta] = worst
        assert gaps[1e-3] <= 5e-3
        assert gaps[1e-4] <= 0.2 * gaps[1e-3]


class TestReliabilitySurface:
    CLUSTERED = [1.0, 1.0 + 1e-4, 1.0 + 2e-4]

    def test_double_mode_reports_cancellation(self):
        case = row_case(5, 3, self.CLUSTERED)
        rep = cdf_min(case, 0.3)
        assert rep.cancellation_digits > 12.0
        assert any(w.startswith("cancellation:") for w in rep.warnings)

    def test_extended_mode_recovers_accuracy(self):
        case = row_case(5, 3, self.CLUSTERED)
        rep = cdf_min(case, 0.3, EvalConfig(precision="extended"))
        oracle = cdf_min_schur(0.3, case.dims, case.s.values)
        assert rep.value == pytest.approx(oracle, rel=1e-8)
        assert any(w.startswith("extended:") for w in rep.warnings)

    def test_extended_mode_survives_wide_magnitude_spread(self):
        # at this size the determinant rows span ~60 orders of magnitude and
        # a fixed-precision re-evaluation would round them equal; the
        # self-validating escalation must still land on the true value,
        # which is 1 minus a term around 1e-116 here
        s = [0.56, 0.67, 0.82, 1.33, 1.97, 3.32, 3.94, 4.50, 4.71, 4.85]
        case = row_case(64, 10, s)
        rep = cdf_min(case, 0.0075, EvalConfig(precision="extended"))
        assert rep.value == pytest.approx(1.0, abs=1e-15)
        assert any(w.startswith("extended:") for w in rep.warnings)

    def test_clamp_residual_not_flagged_for_clean_values(self):
        rep = cdf_max(row_case(2, 2, [1.0, 2.0]), 1.0)
        assert not any(w.startswith("clamp:") for w in rep.warnings)
        assert 0.0 <= rep.value <= 1.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EvalConfig(precision="quad")
        with pytest.raises(ValueError):
            EvalConfig(extended_dps=10)

    @pytest.mark.parametrize("dps", [1581, 1590])
    def test_extended_dps_leaves_room_for_the_confirming_round(self, dps):
        # a first round past 1580 digits has no room for the round 20 digits
        # up, so every escalation would end nonconverged
        with pytest.raises(ValueError, match="1580"):
            EvalConfig(precision="extended", extended_dps=dps)

    def test_largest_extended_dps_converges(self):
        rep = cdf_min(row_case(5, 3, [1.0, 1.0001, 1.0002]), 0.3,
                      EvalConfig(precision="extended", extended_dps=1580))
        assert any(w.startswith("extended:") for w in rep.warnings)


class TestExtendedAgreesWithDouble:
    # on well-separated spectra the mpmath re-evaluation and the log-space
    # engine must coincide.  Both rest on the same entry recurrences, so this is
    # not an independent check: that is the direct-transcription oracle in
    # test_extended.py, and perfbench/reference.py
    def test_all_cases(self):
        checks = [
            (lambda: cdf_max(row_case(4, 2, [1.0, 2.0]), 1.3).value,
             lambda: extended.cdf_max_row(4, 2, [1.0, 2.0], 1.3)),
            (lambda: cdf_min(row_case(4, 2, [1.0, 2.0]), 0.4).value,
             lambda: extended.cdf_min_row(4, 2, [1.0, 2.0], 0.4)),
            (lambda: cdf_max(col_case(3, 2, [1.0, 2.0, 3.0]), 1.1).value,
             lambda: extended.cdf_max_col(3, 2, [1.0, 2.0, 3.0], 1.1)),
            (lambda: cdf_min(col_case(3, 2, [1.0, 2.0, 3.0]), 0.2).value,
             lambda: extended.cdf_min_col(3, 2, [1.0, 2.0, 3.0], 0.2)),
            (lambda: cdf_max(doubly_case(3, 2, [1.0, 2.5], [1.0, 2.0, 3.5]), 1.1).value,
             lambda: extended.cdf_max_doubly(3, 2, [1.0, 2.5], [1.0, 2.0, 3.5], 1.1)),
            (lambda: cdf_min(doubly_case(2, 2, [1.0, 2.0], [1.3, 2.7]), 0.7).value,
             lambda: extended.cdf_min_doubly(2, [1.0, 2.0], [1.3, 2.7], 0.7)),
            (lambda: prob_gap(row_case(3, 2, [1.0, 2.0]), 0.4, 2.5).value,
             lambda: extended.prob_gap_row(3, 2, [1.0, 2.0], 0.4, 2.5)),
        ]
        for fast, precise in checks:
            assert fast() == pytest.approx(precise(), rel=1e-11)


class TestStackedKernel:
    def test_stack_matches_per_matrix_calls(self):
        rng = np.random.default_rng(5)
        for N in (1, 2, 4, 7, 12):
            L = rng.normal(scale=3.0, size=(9, N, N))
            R = rng.uniform(1e-16, 1e-13, size=L.shape)
            stacked = _det_from_logs(L, R)
            assert len(stacked) == len(L)
            for g, got in enumerate(stacked):
                one = _det_from_logs(L[g], R[g])
                assert got.slv.sign == one.slv.sign != 0
                assert got.slv.log_magnitude == pytest.approx(
                    one.slv.log_magnitude, rel=1e-12, abs=1e-12)
                assert got.cancel_digits == pytest.approx(one.cancel_digits, rel=1e-12)
                assert got.rel_err == pytest.approx(one.rel_err, rel=1e-12)

    def test_singular_member_does_not_spoil_the_stack(self):
        rng = np.random.default_rng(6)
        L = rng.normal(size=(3, 4, 4))
        L[1, 3] = L[1, 0]  # two equal rows: exactly singular
        out = _det_from_logs(L, np.full(L.shape, 1e-15))
        assert out[1].slv.sign == 0
        assert out[1].cancel_digits == math.inf and out[1].rel_err == math.inf
        for g in (0, 2):
            assert out[g].slv.sign != 0
            assert math.isfinite(out[g].slv.log_magnitude)
            assert math.isfinite(out[g].cancel_digits)
            assert math.isfinite(out[g].rel_err)
            assert out[g].slv.log_magnitude == pytest.approx(
                np.linalg.slogdet(np.exp(L[g]))[1], rel=1e-12)


class TestGridPath:
    JOBS = [
        (["cdf", "--case", "row", "--n", "6", "--m", "4", "--spectrum", "0.5,1,1.8,3",
          "--stat", "max", "--grid", "0.3:40:6"], cdf_max, row_case(6, 4, [0.5, 1, 1.8, 3])),
        (["cdf", "--case", "column", "--n", "5", "--m", "3", "--spectrum", "0.6,1.1,1.8,2.7,4",
          "--stat", "min", "--grid", "0.01:2:6"], cdf_min,
         col_case(5, 3, [0.6, 1.1, 1.8, 2.7, 4])),
        (["pdf", "--case", "row", "--n", "8", "--m", "6",
          "--spectrum", "0.5,1,1.7,2.4,3.3,4.1", "--stat", "max", "--grid", "0.2:30:6"],
         pdf_max, row_case(8, 6, [0.5, 1, 1.7, 2.4, 3.3, 4.1])),
        (["pdf", "--case", "column", "--n", "4", "--m", "2", "--spectrum", "0.8,1.6,2.4,4",
          "--stat", "min", "--grid", "0.01:3:6"], pdf_min, col_case(4, 2, [0.8, 1.6, 2.4, 4])),
        (["pdf", "--case", "row", "--n", "5", "--m", "3", "--spectrum", "0.7,1.5,3",
          "--stat", "min", "--grid", "0.005:2:6"], pdf_min, row_case(5, 3, [0.7, 1.5, 3])),
        (["pdf", "--case", "double", "--n", "3", "--m", "3", "--r", "1,2,3.2",
          "--s", "0.9,1.8,3.1", "--stat", "max", "--grid", "0.05:10:6"], pdf_max,
         doubly_case(3, 3, [1, 2, 3.2], [0.9, 1.8, 3.1])),
        (["pdf", "--case", "double", "--n", "3", "--m", "3", "--r", "1,2,3.2",
          "--s", "0.9,1.8,3.1", "--stat", "min", "--grid", "0.005:2:6"], pdf_min,
         doubly_case(3, 3, [1, 2, 3.2], [0.9, 1.8, 3.1])),
        (["gap", "--case", "row", "--n", "5", "--m", "3", "--spectrum", "0.7,1.5,3",
          "--a", "0.02:0.5:3", "--b", "1:20:3"], prob_gap, row_case(5, 3, [0.7, 1.5, 3])),
        (["pdf", "--case", "row", "--n", "6", "--m", "4", "--spectrum", "0.5,1,1.8,3",
          "--stat", "joint", "--a", "0.02:0.5:3", "--b", "1:20:3"], pdf_joint_minmax,
         row_case(6, 4, [0.5, 1, 1.8, 3])),
    ]

    @pytest.mark.parametrize("argv,fn,case", JOBS)
    def test_cli_rows_equal_public_calls(self, argv, fn, case, tmp_path):
        path = tmp_path / "out.json"
        assert cli.main(argv + ["--format", "json", "--output", str(path)]) == 0
        rows = json.loads(path.read_text())["rows"]
        assert rows
        for row in rows:
            point = (row["lambda"],) if "lambda" in row else (row["a"], row["b"])
            rep = fn(case, *point)
            assert (row["value"], row["abs_error"], row["cancel_digits"], row["warnings"]) == \
                (rep.value, rep.abs_error_estimate, rep.cancellation_digits, rep.warnings)


GRID_CASES = {
    "row": row_case(6, 4, [0.5, 1.0, 1.8, 3.0]),
    "row_square": row_case(3, 3, [0.7, 1.5, 3.0]),
    "column": col_case(5, 3, [0.6, 1.1, 1.8, 2.7, 4.0]),
    "doubly": doubly_case(4, 3, [1.0, 1.7, 2.6], [0.8, 1.5, 2.6, 4.0]),
    "doubly_square": doubly_case(3, 3, [1.0, 2.0, 3.2], [0.9, 1.8, 3.1]),
}
GRID_JOBS = (
    [(grid, fn, kind) for grid, fn in [(_cdf_max_grid, cdf_max), (_pdf_max_grid, pdf_max)]
     for kind in GRID_CASES]
    + [(grid, fn, kind) for grid, fn in [(_cdf_min_grid, cdf_min), (_pdf_min_grid, pdf_min)]
       for kind in GRID_CASES if kind != "doubly"]
    + [(_prob_gap_grid, prob_gap, "row"), (_pdf_joint_grid, pdf_joint_minmax, "row")])


class TestGridEqualsPointCalls:
    # a G-point grid equals G one-point public calls bit for bit: the entry
    # kernels work elementwise with series lengths fixed by the orders
    LAMS = list(np.geomspace(0.004, 60.0, 13))
    PAIRS = [(a, b) for a in (0.01, 0.2, 1.5) for b in (2.0, 9.0, 40.0)]

    @pytest.mark.parametrize("grid,fn,kind", GRID_JOBS,
                             ids=[f"{g.__name__}-{k}" for g, _, k in GRID_JOBS])
    def test_grid_rows_equal_point_calls(self, grid, fn, kind):
        case = GRID_CASES[kind]
        points = self.PAIRS if fn in (prob_gap, pdf_joint_minmax) else self.LAMS
        reports = grid(case, points)
        assert len(reports) == len(points)
        for point, rep in zip(points, reports):
            one = fn(case, *(point if isinstance(point, tuple) else (point,)))
            assert (rep.value, rep.abs_error_estimate, rep.cancellation_digits, rep.warnings) == \
                (one.value, one.abs_error_estimate, one.cancellation_digits, one.warnings)


def precise_survival_slope(raw_cdf, lam, monkeypatch):
    """-dF/dlam at lam by a central difference of the 50-digit evaluation."""
    monkeypatch.setattr(extended, "_self_validated", lambda raw, dps, start: raw(dps))
    with mpmath.workdps(50):
        x = mpmath.mpf(lam)
        h = x * mpmath.mpf(10) ** -12
        return float(-(raw_cdf(x + h, 50) - raw_cdf(x - h, 50)) / (2 * h))


class TestSmallLambdaMinDensity:
    @pytest.mark.parametrize("lam", [0.005, 0.01, 0.03])
    def test_column_4x2(self, lam, monkeypatch):
        s = [0.8, 1.6, 2.4, 4.0]
        rep = pdf_min(col_case(4, 2, s), lam)
        exact = precise_survival_slope(
            lambda x, dps: extended.cdf_min_col(4, 2, s, x, dps), lam, monkeypatch)
        assert not rep.warnings
        assert abs(rep.value - exact) <= rep.abs_error_estimate

    @pytest.mark.parametrize("lam", [0.005, 0.01, 0.03])
    def test_row_5x3(self, lam, monkeypatch):
        s = [0.7, 1.5, 3.0]
        rep = pdf_min(row_case(5, 3, s), lam)
        exact = precise_survival_slope(
            lambda x, dps: extended.cdf_min_row(5, 3, s, x, dps), lam, monkeypatch)
        assert not rep.warnings
        assert abs(rep.value - exact) <= rep.abs_error_estimate


def precise_partial(raw, point, monkeypatch):
    """d/dlam of ``raw(lam, dps)``, or the mixed d^2/da db of ``raw(a, b, dps)``,
    by central differences of the 50-digit evaluation."""
    monkeypatch.setattr(extended, "_self_validated", lambda raw, dps, start: raw(dps))
    with mpmath.workdps(50):
        x = [mpmath.mpf(p) for p in point]
        h = [v * mpmath.mpf(10) ** -12 for v in x]
        total = 0
        for signs in itertools.product((1, -1), repeat=len(x)):
            total += math.prod(signs) * raw(*(v + sg * hv for v, sg, hv in zip(x, signs, h)), 50)
        return float(total / math.prod(2 * hv for hv in h))


ROW6 = [0.5, 1.0, 1.7, 2.4, 3.3, 4.1]
ROW4 = [0.5, 1.0, 1.8, 3.0]
DOUBLY = {"4x3": (4, 3, [1.0, 1.7, 2.6], [0.8, 1.5, 2.6, 4.0]),
          "3x3": (3, 3, [1.0, 2.0, 3.2], [0.9, 1.8, 3.1])}
ROW_DENSITIES = (
    [(pdf_max, row_case(8, 6, ROW6), (lam,),
      lambda x, dps: extended.cdf_max_row(8, 6, ROW6, x, dps)) for lam in (1.1, 3.0)]
    + [(pdf_joint_minmax, row_case(6, 4, ROW4), (a, b),
        lambda x, y, dps: -extended.prob_gap_row(6, 4, ROW4, x, y, dps))
       for a, b in [(0.02, 1.0), (0.1, 3.0), (0.3, 2.0), (0.5, 20.0), (8.0, 30.0), (20.0, 30.0)]])


class TestDensityAgainstPreciseDerivative:
    # Jacobi's formula on the CDF determinant against central differences of
    # the 50-digit CDF

    @pytest.mark.parametrize("lam", [0.05, 0.3, 1.0, 3.0, 10.0])
    @pytest.mark.parametrize("kind", sorted(DOUBLY))
    def test_doubly_pdf_max(self, kind, lam, monkeypatch):
        n, m, r, s = DOUBLY[kind]
        rep = pdf_max(doubly_case(n, m, r, s), lam)
        exact = precise_partial(lambda x, dps: extended.cdf_max_doubly(n, m, r, s, x, dps),
                                (lam,), monkeypatch)
        assert abs(rep.value - exact) <= 1e-6 * exact
        assert abs(rep.value - exact) <= rep.abs_error_estimate

    @pytest.mark.parametrize("fn,case,point,raw", ROW_DENSITIES,
                             ids=[f"{fn.__name__}-{p}" for fn, _, p, _ in ROW_DENSITIES])
    def test_row_densities(self, fn, case, point, raw, monkeypatch):
        rep = fn(case, *point)
        exact = precise_partial(raw, point, monkeypatch)
        assert abs(rep.value - exact) <= 1e-7 * abs(exact)
        if not any(w.startswith("cancellation:") for w in rep.warnings):
            assert abs(rep.value - exact) <= rep.abs_error_estimate


@pytest.mark.parametrize("n,m,s", [(4, 3, [0.5, 1.0, 3.0]), (6, 4, ROW4)])
@pytest.mark.parametrize("a,b", [(8.0, 30.0), (20.0, 30.0)])
def test_prob_gap_where_p_rounds_to_one(n, m, s, a, b, monkeypatch):
    # P(k, s a) is 1 in double precision for the largest s: the entries come
    # from the Q sums instead of a difference of P values
    monkeypatch.setattr(extended, "_self_validated", lambda raw, dps, start: raw(dps))
    rep = prob_gap(row_case(n, m, s), a, b)
    exact = float(extended.prob_gap_row(n, m, s, mpmath.mpf(a), mpmath.mpf(b), 50))
    assert not rep.warnings
    assert abs(rep.value - exact) <= min(1e-9 * exact, rep.abs_error_estimate)
