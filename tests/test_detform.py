import itertools
import json
import math
import warnings

import mpmath
import numpy as np
import pytest

from corrwishart import cli, detform, extended
from corrwishart.detform import (
    EvalConfig,
    cdf_max,
    cdf_min,
    pdf_joint_minmax,
    pdf_max,
    pdf_min,
    prob_gap,
)
from corrwishart.detform import (
    _LAWS,
    _block,
    _det_from_logs,
    _grid,
    _plan,
    _point_elements,
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
        # the tail entries int_lam^inf t^(a-1) e^(-s t) dt, the gap family at
        # the point (lam,), vs the Tricomi route e^(-lam s) lam^a U(1, a+1, lam s)
        rng = np.random.default_rng(31)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(1, 9))
            m = int(rng.integers(1, n + 1))
            k = int(rng.integers(1, m + 1))
            a = n - m + k
            lam = float(rng.uniform(0.05, 5.0))
            s = float(rng.uniform(0.1, 10.0))
            tail = math.exp(_block("gap", range(a, a + 1), np.array([s]), np.array([[lam]]),
                                   False)[0][0, 0, 0])
            u_route = float(mpmath.exp(-lam * s) * lam ** a * mpmath.hyperu(1, a + 1, lam * s))
            worst = max(worst, abs(tail - u_route) / u_route)
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

    def test_square_gap_is_the_row_gap(self):
        # at n = m, Z Z^H and Z^H Z share their eigenvalues: the gap
        # probability and the joint density are the row model's, bit for bit
        s = [0.6, 1.1, 1.8]
        extended_cfg = EvalConfig(precision="extended")
        for n, cfg in [(3, EvalConfig()), (3, extended_cfg), (1, EvalConfig())]:
            for fn in (prob_gap, pdf_joint_minmax):
                for a, b in [(0.3, 4.0), (0.05, 2.0), (1.0, 1.001)]:
                    col, row = (fn(case(n, n, s[:n]), a, b, cfg) for case in (col_case, row_case))
                    assert (col.value, col.abs_error_estimate, col.cancellation_digits,
                            col.warnings) == (row.value, row.abs_error_estimate,
                                              row.cancellation_digits, row.warnings)

    def test_min_square_exponential(self):
        # at n = m the column laws are the row laws, whose min is e^(-lam sum s)
        # exactly; the clustered spectra lost 7.3e-9 (3x3) and 1.2e-4 (5x5)
        # through the column law's Vandermonde ratio
        for s in ([1.0, 2.0, 3.0], [1.0, 1.0001, 1.0002],
                  [1.0, 1.001, 1.002, 1.003, 1.004]):
            rep = cdf_min(col_case(len(s), len(s), s), 0.3)
            assert rep.value == pytest.approx(math.exp(-0.3 * sum(s)), rel=1e-12)


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
        pad = extended.evaluate(_LAWS["cdf_max_doubly"](3, 3, r + [1e9], s), (lam,), dps=60).value
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

    @pytest.mark.parametrize("a,b,flagged", [(0.2174, 0.2174 * (1 + 1e-5), True),
                                             (0.3, 0.30003, True), (0.3, 0.303, False),
                                             (0.3, 0.33, False)])
    def test_near_the_diagonal(self, a, b, flagged, monkeypatch):
        # at m = 2 Jacobi's formula can lose its digits to its error rather
        # than to its terms' cancellation: at b / a = 1 + 1e-5 the terms cancel
        # 11.5 digits while the value is off by a relative 1.24
        rep = pdf_joint_minmax(row_case(4, 2, [0.955, 4.152]), a, b)
        assert any(w.startswith("cancellation:") for w in rep.warnings) == flagged
        if not flagged:
            exact = precise_partial(
                lambda x, y, dps: -extended.evaluate(_LAWS["prob_gap_row"](4, 2, [0.955, 4.152]),
                                                     (x, y), dps).value,
                (a, b), monkeypatch)
            assert abs(rep.value - exact) <= rep.abs_error_estimate


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


class TestUnderflow:
    # row 3x1: P(3, lam) ~ lam^3 / 3!, its density lam^2 e^-lam / 2
    @pytest.mark.parametrize("fn,want", [(cdf_max, -600 - math.log10(6)),
                                         (pdf_max, -400 - math.log10(2))])
    def test_double_path_keeps_log_magnitude(self, fn, want):
        rep = fn(row_case(3, 1, [1.0]), 1e-200)
        (warning,) = [w for w in rep.warnings if w.startswith("underflow:")]
        assert rep.value == 0.0
        assert float(warning.rsplit("= ", 1)[1]) == pytest.approx(want, abs=1e-4)

    def test_only_below_the_double_range(self):
        # 1.7e-301 is a double; an exact zero (all digits cancelled) has no
        # magnitude to report
        assert not cdf_max(row_case(3, 1, [1.0]), 1e-100).warnings
        rep = cdf_max(row_case(4, 2, [1.0, 3.0]), 1e-100)
        assert rep.value == 0.0 and not any(w.startswith("underflow:") for w in rep.warnings)

    def test_negative_underflow_reads_positive_zero(self):
        # doubly 6x6 cdf_min at lam = 97 underflows from a negative sign (387
        # digits lost): the report reads +0.0, which a CSV writes as 0
        case = doubly_case(6, 6, [0.6, 1.08, 1.56, 2.04, 2.52, 3.0],
                           [0.5, 1.2, 1.9, 2.6, 3.3, 4.0])
        rep = cdf_min(case, 97.0)
        assert any(w.startswith("cancellation:") for w in rep.warnings)
        assert rep.value == 0.0 and math.copysign(1.0, rep.value) == 1.0


class TestDoubleRange:
    # lam v (doubly lam r s) beyond the double range used to overflow in the
    # entries, whose -inf logs then read as an exact zero: 0.0 with an
    # estimate of 1e-300 and no warning where the value is 1
    HUGE = [1e150, 2e150, 3e150]

    @pytest.mark.parametrize("fn,case,point", [
        (cdf_max, row_case(5, 3, [0.5, 1.2, 2.0]), (9e307,)),
        (cdf_max, col_case(3, 2, HUGE), (1e300,)),
        (pdf_max, row_case(5, 3, HUGE), (1e300,)),
        (cdf_min, row_case(5, 3, HUGE), (1e300,)),
        (prob_gap, row_case(5, 3, [0.5, 1.2, 2.0]), (0.5, 9e307)),
        # lam s underflowing to zero: the tail's log of it was nan, and the
        # value 0.0 unflagged where it is 1
        (cdf_min, row_case(5, 3, [1e-150, 2e-150, 3e-150]), (1e-175,))])
    def test_point_outside_the_range_raises(self, fn, case, point):
        with pytest.raises(ValueError, match="double range"):
            fn(case, *point)

    def test_lam_r_past_the_range_is_not_an_exact_zero(self):
        # at lam = the largest double, lam r overflows but lam r s = 3.6e8 is
        # admitted: Pr(|z|^2 <= lam) = 1 - e^(-lam r s) for doubly 1x1, which
        # read as an unflagged exact 0.0 while lam r s was formed as (lam r) s
        rep = cdf_max(doubly_case(1, 1, [2.0], [1e-300]), 1.7976931348623157e308)
        assert abs(rep.value - 1.0) <= rep.abs_error_estimate < 1e-6

    SWEEP = [row_case(5, 3, [0.5, 1.2, 2.0]), row_case(5, 3, HUGE),
             row_case(12, 8, [0.3 + 0.4 * i for i in range(8)]),
             col_case(3, 2, [0.5, 1.2, 2.0]), col_case(4, 2, [0.5, 1.2, 2.0, 3.1]),
             doubly_case(3, 3, [0.5, 1.2, 2.0], [0.7, 1.1, 2.5]),
             doubly_case(3, 2, [0.5, 1.2], [0.7, 1.1, 2.5])]

    @pytest.mark.parametrize("fn", [cdf_max, cdf_min, pdf_max, pdf_min])
    def test_sweep_returns_or_raises_without_numpy_warnings(self, fn):
        # each call returns a report or raises ValueError, and no numpy
        # warning escapes the engine; the points include the densities'
        # former leaks (row 12x8 pdf_min from lam s ~ 1e53 on, and the gap
        # slope at s ~ 1e150, lam s ~ 1e19), and a subnormal lambda, where the
        # doubly densities' constant lam_power / lam overflows
        lams = sorted([*np.geomspace(1e-300, 1.7e308, 40), 1e60, 4.7e-132, 1e-131, 1e-310])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for case in self.SWEEP:
                for lam in lams:
                    try:
                        rep = fn(case, float(lam))
                    except ValueError as exc:
                        assert "double range" in str(exc) or "m = n" in str(exc)
                    else:
                        assert isinstance(rep.value, float)


# every `_LAWS` law, as (model, n, m, stat), and the square column case,
# which `_plan` reads with the row laws
FINITE_ENTRY_CASES = [("row", 5, 3, "max"), ("row", 5, 3, "min"), ("row", 3, 3, "min"),
                      ("row", 5, 3, "gap"), ("col", 4, 2, "max"), ("col", 4, 2, "min"),
                      ("col", 3, 3, "max"), ("col", 3, 3, "min"), ("col", 3, 3, "gap"),
                      ("doubly", 3, 2, "max"), ("doubly", 3, 3, "max"),
                      ("doubly", 3, 3, "min")]
# spectra from 0.01 to 1000, and near 1e-300 and 1e300 (a doubly case's s;
# its r spans 0.01 to 1000)
SCALES = {"wide": lambda k: np.geomspace(0.01, 1000.0, k),
          "tiny": lambda k: np.geomspace(1.0, 3.0, k) * 1e-300,
          "huge": lambda k: np.geomspace(1.0, 3.0, k) * 1e300}


def test_finite_entry_cases_cover_every_law():
    names = {f"{'prob_gap' if stat == 'gap' else 'cdf_' + stat}_{model}"
             for model, n, m, stat in FINITE_ENTRY_CASES if not (model == "col" and n == m)}
    assert names == set(_LAWS)


def range_ends(case, stat):
    """The smallest and largest lambda that `_grid` admits for ``case``:
    lambda min s just above the smallest double, and lambda max s (n + 1)
    just below the largest (doubly lambda r s)."""
    plan, n = _plan(case, stat), case.dims.n
    lo = 5e-324 / plan.lo / 2  # (a product of at least half of 5e-324 rounds up)
    while not lo * plan.lo > 0.0:
        lo = math.nextafter(lo, math.inf)
    while math.nextafter(lo, 0.0) * plan.lo > 0.0:
        lo = math.nextafter(lo, 0.0)
    hi = min(1.7976931348623157e308 / (plan.hi * (n + 1)), 1.7976931348623157e308)
    while not math.isfinite(hi * plan.hi * (n + 1)):
        hi = math.nextafter(hi, 0.0)
    while math.isfinite(math.nextafter(hi, math.inf) * plan.hi * (n + 1)):
        hi = math.nextafter(hi, math.inf)
    return lo, hi


@pytest.mark.parametrize("density", [False, True], ids=["cdf", "pdf"])
@pytest.mark.parametrize("scale", sorted(SCALES))
@pytest.mark.parametrize("model,n,m,stat", FINITE_ENTRY_CASES)
def test_no_law_yields_a_minus_inf_entry_log(model, n, m, stat, scale, density):
    # at every point `_grid` admits, each entry log is finite: no member of a
    # kernel stack has a row of zeros.  Tried at the ends of the range, and for
    # the gap and joint density at b / a = 1 + 1e-12
    spectrum = SCALES[scale]
    if model == "row":
        case = row_case(n, m, spectrum(m))
    elif model == "col":
        case = col_case(n, m, spectrum(n))
    else:
        case = doubly_case(n, m, SCALES["wide"](m), spectrum(n))
    lo, hi = range_ends(case, stat)
    lams = [lo, *np.exp(np.linspace(math.log(lo), math.log(hi), 7)[1:-1]).tolist(), hi]
    points = lams
    if stat == "gap":
        points = [(a, min(a * (1 + 1e-12), hi)) for a in lams]
        points = [(a, b) for a, b in points if b > a] + [(lo, hi)]
    for beyond in (math.nextafter(lo, 0.0), math.nextafter(hi, math.inf)):
        with pytest.raises(ValueError):
            _grid(case, stat, [(beyond, hi) if stat == "gap" else beyond], density=density)
    grid = np.array(points).reshape(len(points), -1)
    assert len(_grid(case, stat, points, density=density)) == len(points)
    L = detform._entries(_plan(case, stat).law, grid, density)[0]
    assert np.isfinite(L).all()


@pytest.mark.parametrize("fn", [prob_gap, pdf_joint_minmax], ids=["gap", "joint"])
@pytest.mark.parametrize("n,m,s,a,b", [
    (3, 2, [1e-300, 1e300], 1e-8, math.nextafter(1e-8, 1.0)),
    (5, 3, [1e-300, 2e-300, 3e-300], 1e-23, 1e-23 * (1 + 1e-12)),
], ids=["row-3-2-vh-0-and-1e276", "row-5-3-vh-0"])
def test_gap_where_v_h_underflows_warns_nothing(fn, n, m, s, a, b):
    # v (b - a) rounds to zero in a row (beside 1.65e276 in the other row of
    # 3x2): no log of it is taken, so no numpy warning escapes; the value
    # underflows and is flagged
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = fn(row_case(n, m, s), a, b)
    assert rep.value == 0.0 and rep.warnings


class TestEstimateContractInTheTails:
    # row 2x1 survival e^(-lam s) (1 + lam s) far in its tail: the double
    # value is exponentiated from logs of size lam s, whose rounding its
    # estimate must count
    @pytest.mark.parametrize("s,lam", [([3.6], 12.0), ([3.6], 38.0), ([3.6], 115.0),
                                       ([2.0], 38.0), ([2.0], 300.0),
                                       ([1.0], 115.0), ([1.0], 300.0)])
    def test_unflagged_cdf_min_within_its_estimate(self, s, lam):
        rep = cdf_min(row_case(2, 1, s), lam)
        want = extended.evaluate(_LAWS["cdf_min_row"](2, 1, s), (lam,), 50).value
        assert not rep.warnings
        with mpmath.workdps(50):
            assert abs(rep.value - want) <= rep.abs_error_estimate

    @pytest.mark.parametrize("stat", ["max", "min"])
    def test_unflagged_gamma_density_within_its_estimate(self, stat):
        # row n x 1: the one eigenvalue is Gamma(n, s), with density
        # s^n lam^(n-1) e^(-s lam) / (n-1)!; a value exponentiated from logs of
        # size s lam carries their rounding, log |d det / det| included
        for n, s in itertools.product(range(1, 8), (0.3, 1.0, 2.7, 11.0)):
            lams = np.geomspace(1e-3, 600.0 / s, 40).tolist()
            reports = _grid(row_case(n, 1, [s]), stat, lams, density=True)
            with mpmath.workdps(30):
                for lam, rep in zip(lams, reports):
                    want = mpmath.exp(n * mpmath.log(s) + (n - 1) * mpmath.log(lam)
                                      - mpmath.mpf(s) * lam - mpmath.loggamma(n))
                    assert not rep.warnings
                    assert abs(rep.value - want) <= rep.abs_error_estimate, (n, s, lam)

    def test_nan_density_factor_keeps_its_flag(self):
        # the factor's digits lost read nan here (its error terms overflow):
        # the determinant's cancellation still flags the value
        case = doubly_case(4, 4, [1.906, 2.692, 3.033, 3.482], [0.925, 3.873, 4.564, 4.68])
        rep = pdf_min(case, 103.4)
        assert rep.value == 0.0 and rep.abs_error_estimate == math.inf
        assert rep.cancellation_digits == pytest.approx(447.879, abs=1e-3)
        assert rep.warnings == [
            "cancellation:447.9 digits lost so the double-precision result is unreliable",
            "underflow:value below the double range with log10|value| = -1644.6472"]

    def test_density_factor_edge_cases(self, monkeypatch):
        # kernel results at lam = 1, where c = lam_power / lam = -1 for doubly
        # 2x2 min: a plain factor, an exact zero determinant, a zero factor, a
        # nan term size, a negative factor and a singular member
        nan, inf = math.nan, math.inf
        kernel = [np.array(v) for v in ([1.0, 0.0, 1.0, 1.0, -1.0, 0.0],  # sign
                                        [0.5, 0.0, 0.5, 0.5, 0.5, 0.0],  # log |det|
                                        [1.0, 0.0, 2.0, 3.0, 1.0, inf],  # cancellation
                                        [1e-15, 0.0, 1e-15, 1e-15, 1e-15, inf],  # rel
                                        [3.0, 5.0, 1.0, 3.0, 0.5, nan],  # d det / det
                                        [4.0, 5.0, 4.0, nan, 2.0, nan],  # its terms
                                        [1e-14, 1e-14, 1e-14, 1e-14, 1e-13, nan])]  # its error
        monkeypatch.setattr(detform, "_det_from_logs", lambda L, R, Ds: kernel)
        case = doubly_case(2, 2, [1.0, 2.0], [1.5, 3.0])
        reports = _grid(case, "min", [1.0] * 6, density=True)
        flagged = ["cancellation:inf digits lost so the double-precision result is unreliable"]
        assert [(r.value, r.cancellation_digits, r.warnings) for r in reports] == [
            (2.198295027600171, 1.352529778863041, []), (0.0, 0.0, []), (0.0, inf, flagged),
            (2.198295027600171, 3.0, []), (0.5495737569000427, 2.9545897701910033, []),
            (0.0, inf, flagged)]
        assert [r.abs_error_estimate for r in reports[1:3]] == [1e-300, inf]
        assert reports[5].abs_error_estimate == inf

    def test_overflowing_density_sensitivity_is_flagged(self):
        # Jacobi's formula overflows its sensitivity products on this member:
        # the report is flagged and returned, with no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = pdf_min(doubly_case(3, 3, [1.0, 2.0, 3.0], [0.6, 0.9, 1.8]), 200.0)
        assert rep.value == 0.0
        assert [w.split(":")[0] for w in rep.warnings] == ["cancellation", "underflow"]

    @pytest.mark.parametrize("case", [row_case(1, 1, [1.5e308]),
                                      col_case(2, 1, [1e308, 1.5e308]),
                                      col_case(3, 2, [1.0, 1e308, 1.5e308])],
                             ids=["row 1x1", "column 2x1", "column 3x2"])
    def test_subnormal_lambda_density_is_flagged(self, case):
        # at lam = 1e-310 the lamE slope lam^(k-1) e^(-lam v) / entry overflows:
        # the report is flagged and returned, with no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = pdf_max(case, 1e-310)
        assert rep.warnings and rep.warnings[0].split(":")[0] in ("nonfinite", "cancellation")


class TestExtendedAgreesWithDouble:
    # on well-separated spectra the mpmath re-evaluation and the log-space
    # engine must coincide.  Both rest on the same entry recurrences, so this is
    # not an independent check: that is the direct-transcription oracle in
    # test_extended.py, and perfbench/reference.py
    def test_all_cases(self):
        checks = [
            (lambda: cdf_max(row_case(4, 2, [1.0, 2.0]), 1.3).value,
             lambda: extended.evaluate(_LAWS["cdf_max_row"](4, 2, [1.0, 2.0]), (1.3,)).value),
            (lambda: cdf_min(row_case(4, 2, [1.0, 2.0]), 0.4).value,
             lambda: extended.evaluate(_LAWS["cdf_min_row"](4, 2, [1.0, 2.0]), (0.4,)).value),
            (lambda: cdf_max(col_case(3, 2, [1.0, 2.0, 3.0]), 1.1).value,
             lambda: extended.evaluate(_LAWS["cdf_max_col"](3, 2, [1.0, 2.0, 3.0]), (1.1,)).value),
            (lambda: cdf_min(col_case(3, 2, [1.0, 2.0, 3.0]), 0.2).value,
             lambda: extended.evaluate(_LAWS["cdf_min_col"](3, 2, [1.0, 2.0, 3.0]), (0.2,)).value),
            (lambda: cdf_max(doubly_case(3, 2, [1.0, 2.5], [1.0, 2.0, 3.5]), 1.1).value,
             lambda: extended.evaluate(_LAWS["cdf_max_doubly"](3, 2, [1.0, 2.5], [1.0, 2.0, 3.5]),
                                       (1.1,)).value),
            (lambda: cdf_min(doubly_case(2, 2, [1.0, 2.0], [1.3, 2.7]), 0.7).value,
             lambda: extended.evaluate(_LAWS["cdf_min_doubly"](2, [1.0, 2.0], [1.3, 2.7]),
                                       (0.7,)).value),
            (lambda: prob_gap(row_case(3, 2, [1.0, 2.0]), 0.4, 2.5).value,
             lambda: extended.evaluate(_LAWS["prob_gap_row"](3, 2, [1.0, 2.0]), (0.4, 2.5)).value),
        ]
        for fast, precise in checks:
            assert fast() == pytest.approx(precise(), rel=1e-11)


class TestStackedKernel:
    def test_stack_matches_per_matrix_calls(self):
        rng = np.random.default_rng(5)
        for N in (1, 2, 4, 7, 12):
            L = rng.normal(scale=3.0, size=(9, N, N))
            R = rng.uniform(1e-16, 1e-13, size=L.shape)
            sign, log_mag, cancel, rel = _det_from_logs(L, R)
            assert len(sign) == len(L)
            for g in range(len(L)):
                one = _det_from_logs(L[g:g + 1], R[g:g + 1])
                assert sign[g] == one[0][0] != 0
                assert log_mag[g] == pytest.approx(one[1][0], rel=1e-12, abs=1e-12)
                assert cancel[g] == pytest.approx(one[2][0], rel=1e-12)
                assert rel[g] == pytest.approx(one[3][0], rel=1e-12)

    def test_singular_member_does_not_spoil_the_stack(self):
        rng = np.random.default_rng(6)
        L = rng.normal(size=(3, 4, 4))
        L[1, 3] = L[1, 0]  # two equal rows: exactly singular
        sign, log_mag, cancel, rel = _det_from_logs(L, np.full(L.shape, 1e-15))
        assert sign[1] == 0 and log_mag[1] == -math.inf
        assert cancel[1] == math.inf and rel[1] == math.inf
        for g in (0, 2):
            assert sign[g] != 0
            assert math.isfinite(log_mag[g])
            assert math.isfinite(cancel[g])
            assert math.isfinite(rel[g])
            assert log_mag[g] == pytest.approx(np.linalg.slogdet(np.exp(L[g]))[1], rel=1e-12)

    def test_underflowed_column_is_flagged(self):
        # a column 800 e-folds under its rows underflows, but its entries are
        # not zeros: the member is singular, with infinite cancellation and
        # error, beside an untouched member
        rng = np.random.default_rng(9)
        L = rng.normal(size=(2, 3, 3))
        L[0, :, 2] = -800.0
        sign, log_mag, cancel, rel = _det_from_logs(L, np.full(L.shape, 1e-16))
        assert sign[0] == 0 and cancel[0] == math.inf and rel[0] == math.inf
        assert sign[1] != 0 and math.isfinite(cancel[1])
        assert log_mag[1] == pytest.approx(np.linalg.slogdet(np.exp(L[1]))[1], rel=1e-12)

    @pytest.mark.parametrize("n,m,s,lam", [(3, 2, [1e-200, 2e-200, 3e-200], 1.0),
                                           (5, 3, [0.5, 1.0, 2.0, 3.0, 4.0], 2000.0)])
    @pytest.mark.parametrize("fn", [cdf_min, pdf_min])
    def test_column_min_underflow_is_flagged(self, fn, n, m, s, lam):
        # the power columns of these column-model matrices underflow under
        # the exponential ones: no value read from them can be trusted
        rep = fn(col_case(n, m, s), lam)
        assert rep.cancellation_digits == math.inf
        assert any(w.startswith("cancellation:") for w in rep.warnings)
        # a value with no finite relative error claims no finite absolute one
        assert rep.abs_error_estimate == math.inf

    def test_signs_and_magnitudes_against_numpy(self):
        # N = 1 to 7 at once: the determinants of positive entries take both signs
        rng = np.random.default_rng(17)
        for N in range(1, 8):
            L = rng.normal(size=(30, N, N))
            sign, log_mag, cancel, rel = _det_from_logs(L, np.full(L.shape, 1e-16))
            want_sign, want_log = np.linalg.slogdet(np.exp(L))
            assert (sign == want_sign).all()
            assert log_mag == pytest.approx(want_log, rel=1e-10, abs=1e-10)
            if N > 1:
                assert (sign < 0).any() and (sign > 0).any()

    def test_rows_beyond_the_double_range(self):
        # rows of magnitude e^800 and e^-800 overflow and underflow a double:
        # only the kernel's log-space shifts can take this determinant
        rng = np.random.default_rng(8)
        L = rng.normal(size=(1, 4, 4)) + np.array([800.0, -800.0, 400.0, -400.0])[:, None]
        sign, log_mag, cancel, rel = _det_from_logs(L, np.full(L.shape, 1e-16))
        with mpmath.workdps(50):
            # the Leibniz sum: mpmath.det calls such a matrix singular
            E = [[mpmath.exp(mpmath.mpf(v)) for v in row] for row in L[0]]
            want = mpmath.fsum(
                (-1) ** sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4))
                * mpmath.fprod(E[i][p[i]] for i in range(4))
                for p in itertools.permutations(range(4)))
            assert sign[0] == mpmath.sign(want)
            assert abs(log_mag[0] - float(mpmath.log(abs(want)))) <= 1e-12 * abs(log_mag[0])
        assert math.isfinite(rel[0]) and rel[0] < 1e-10


class TestGridPath:
    def test_rejects_non_case(self):
        with pytest.raises(TypeError, match="unknown model case"):
            cdf_max(object(), 1.0)

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
# test id -> _grid's (stat, density)
GRID_ENTRIES = {"_cdf_max_grid": ("max", False), "_pdf_max_grid": ("max", True),
                "_cdf_min_grid": ("min", False), "_pdf_min_grid": ("min", True),
                "_prob_gap_grid": ("gap", False), "_pdf_joint_grid": ("gap", True)}
GRID_JOBS = (
    [(grid, fn, kind) for grid, fn in [("_cdf_max_grid", cdf_max), ("_pdf_max_grid", pdf_max)]
     for kind in GRID_CASES]
    + [(grid, fn, kind) for grid, fn in [("_cdf_min_grid", cdf_min), ("_pdf_min_grid", pdf_min)]
       for kind in GRID_CASES if kind != "doubly"]
    + [("_prob_gap_grid", prob_gap, "row"), ("_pdf_joint_grid", pdf_joint_minmax, "row")])

# every law in both precisions, and a clustered case whose every value escalates
CHUNK_CASES = dict(GRID_CASES, clustered=row_case(5, 3, [1.0, 1.0001, 1.0002]))
CHUNK_JOBS = [(kind, stat, density, EvalConfig(precision))
              for kind in CHUNK_CASES for stat in ("max", "min", "gap")
              for density in (False, True) for precision in ("double", "extended")
              if (density, precision) != (True, "extended")
              and (stat != "gap" or kind in ("row", "row_square", "clustered"))
              and (kind, stat) != ("doubly", "min")]


class TestGridEqualsPointCalls:
    # a G-point grid equals G one-point public calls bit for bit: the entry
    # kernels work elementwise with series lengths fixed by the orders
    LAMS = list(np.geomspace(0.004, 60.0, 13))
    PAIRS = [(a, b) for a in (0.01, 0.2, 1.5) for b in (2.0, 9.0, 40.0)]

    @pytest.mark.parametrize("grid,fn,kind", GRID_JOBS,
                             ids=[f"{g}-{k}" for g, _, k in GRID_JOBS])
    def test_grid_rows_equal_point_calls(self, grid, fn, kind):
        case = GRID_CASES[kind]
        points = self.PAIRS if fn in (prob_gap, pdf_joint_minmax) else self.LAMS
        stat, density = GRID_ENTRIES[grid]
        reports = _grid(case, stat, points, density=density)
        assert len(reports) == len(points)
        for point, rep in zip(points, reports):
            one = fn(case, *(point if isinstance(point, tuple) else (point,)))
            assert (rep.value, rep.abs_error_estimate, rep.cancellation_digits, rep.warnings) == \
                (one.value, one.abs_error_estimate, one.cancellation_digits, one.warnings)

    @pytest.mark.parametrize("kind,stat,density,cfg", CHUNK_JOBS,
                             ids=[f"{k}-{s}-{'pdf' if d else 'cdf'}-{c.precision}"
                                  for k, s, d, c in CHUNK_JOBS])
    def test_chunks_equal_one_kernel_call(self, kind, stat, density, cfg, monkeypatch):
        # a grid cut into chunks of 4 points reports what one kernel call does,
        # escalated reports included
        case = CHUNK_CASES[kind]
        points = self.PAIRS if stat == "gap" else self.LAMS
        kernel, sizes = detform._det_from_logs, []

        def counted(L, *rest):
            sizes.append(len(L))
            return kernel(L, *rest)

        monkeypatch.setattr(detform, "_det_from_logs", counted)
        whole = fields(_grid(case, stat, points, cfg, density))
        monkeypatch.setattr(detform, "_GRID_ELEMENTS", 4 * _point_elements(_plan(case, stat).law))
        assert fields(_grid(case, stat, points, cfg, density)) == whole
        assert sizes == [len(points)] + [4] * (len(points) // 4) + [len(points) % 4]


@pytest.mark.parametrize("stat,points", [
    ("min", list(np.geomspace(0.5, 200.0, 200))),
    ("gap", [(a, b) for a in np.geomspace(0.05, 2.0, 10) for b in np.geomspace(5.0, 200.0, 20)]),
], ids=["cdf_min", "prob_gap"])
def test_grid_memory_is_bounded(stat, points, traced_peak):
    # one stack of 200 points' gap terms took 66 MB (cdf_min) and 71 MB (prob_gap)
    case = row_case(36, 32, list(np.linspace(0.5, 4.0, 32)))
    reports, peak = traced_peak(lambda: _grid(case, stat, points))
    assert len(reports) == 200
    assert peak < 16.0


PUBLIC = [(cdf_max, (0.3,)), (cdf_min, (1.0,)), (pdf_max, (0.3,)), (pdf_min, (1.0,)),
          (prob_gap, (0.3, 2.0)), (pdf_joint_minmax, (0.3, 2.0))]
NAN, INF = math.nan, math.inf
REJECTED = (
    [(fn, kind, (0.3, 2.0), TypeError) for fn in (prob_gap, pdf_joint_minmax)
     for kind in ("column", "doubly")]
    + [(fn, "doubly", (0.5,), ValueError) for fn in (cdf_min, pdf_min)]  # 4x3: needs m = n
    + [(fn, "row", (lam,), ValueError) for fn in (cdf_max, cdf_min, pdf_max, pdf_min)
       for lam in (0.0, -1.0, NAN, INF)]
    + [(fn, "row", ab, ValueError) for fn in (prob_gap, pdf_joint_minmax)
       for ab in ((0.0, 2.0), (-1.0, 2.0), (NAN, 2.0), (INF, INF), (0.5, INF), (0.5, NAN),
                  (2.0, 1.0))])


@pytest.mark.parametrize("fn,kind,point,error", REJECTED,
                         ids=[f"{fn.__name__}-{k}-{p}" for fn, k, p, _ in REJECTED])
def test_entry_rejects(fn, kind, point, error):
    with pytest.raises(error):
        fn(GRID_CASES[kind], *point)


# ---------------------------------------------------------------------------
# the per-case plan: a cache hit gives what a cold call gives, and no caller
# can change what the cache holds


def fields(reports):
    return [(r.value, r.abs_error_estimate, r.cancellation_digits, r.warnings) for r in reports]


PLAN_CASES = dict(GRID_CASES, column_square=col_case(3, 3, [0.6, 1.1, 1.8]),
                  nudged=row_case(5, 3, [1.0, 1.0, 1.0]))


@pytest.mark.parametrize("density", [False, True], ids=["cdf", "density"])
@pytest.mark.parametrize("stat", ["max", "min", "gap"])
@pytest.mark.parametrize("kind", PLAN_CASES)
def test_plan_cache_hit_equals_cold_call(kind, stat, density):
    case = PLAN_CASES[kind]
    points = [(0.3, 2.0), (0.05, 4.0)] if stat == "gap" else [0.05, 0.3, 2.0]

    def reports():
        try:
            return fields(_grid(case, stat, points, EvalConfig(), density))
        except (TypeError, ValueError) as exc:
            return type(exc), str(exc)

    _plan.cache_clear()
    cold = reports()
    hits = _plan.cache_info().hits
    assert reports() == cold
    assert _plan.cache_info().hits == hits + 1


def test_plan_warnings_are_not_shared():
    case = row_case(5, 3, [1.0, 1.0, 1.0])
    first = cdf_max(case, 0.3)
    first.warnings.append("appended by a caller")
    _grid(case, "max", [0.3])[0].warnings.clear()
    assert cdf_max(case, 0.3).warnings == first.warnings[:-1] != []


@pytest.mark.parametrize("case", [object(), [1]], ids=["object", "list"])
def test_rejects_non_case_before_the_plan(case):
    # a list is not hashable: the model check comes first
    with pytest.raises(TypeError, match="unknown model case"):
        cdf_max(case, 1.0)


@pytest.mark.parametrize("fn,kind,point,error,match", [
    (cdf_min, "doubly", (NAN,), ValueError, "lambda must be finite"),
    (pdf_min, "doubly", (-1.0,), ValueError, "lambda must be finite"),
    (cdf_min, "doubly", (1e308,), ValueError, "leaves the double range"),
    (prob_gap, "doubly", (NAN, 2.0), TypeError, "gap probability"),
    (pdf_joint_minmax, "column", (2.0, 1.0), TypeError, "joint density")])
def test_first_of_two_faults_is_reported(fn, kind, point, error, match):
    # the point is checked before the doubly m = n requirement, and the
    # model's laws before the point
    with pytest.raises(error, match=match):
        fn(GRID_CASES[kind], *point)


class TestPerturbedSpectrum:
    # a nudged spectrum gives the law of the nudged values, and says so
    NUDGED = {"row": row_case(5, 3, [1.0, 1.0, 1.0]),
              "column": col_case(4, 2, [1.0, 1.0, 2.0, 3.0]),
              "doubly": doubly_case(3, 3, [1.0, 1.0, 2.0], [0.9, 1.8, 3.1])}

    @staticmethod
    def perturbed(rep):
        return any(w.startswith("perturbed:") for w in rep.warnings)

    @pytest.mark.parametrize("fn,point", PUBLIC, ids=[fn.__name__ for fn, _ in PUBLIC])
    def test_row_5x3(self, fn, point):
        assert self.perturbed(fn(self.NUDGED["row"], *point))
        assert not self.perturbed(fn(row_case(5, 3, [1.0, 2.0, 3.0]), *point))

    @pytest.mark.parametrize("kind", ["column", "doubly"])
    def test_other_models(self, kind):
        case = self.NUDGED[kind]
        assert all(self.perturbed(fn(case, 0.7)) for fn in (cdf_max, cdf_min, pdf_max, pdf_min))

    def test_every_grid_and_extended_report(self):
        case = self.NUDGED["row"]
        assert all(self.perturbed(rep) for rep in _grid(case, "max", [0.1, 0.3, 1.0, 4.0]))
        rep = cdf_max(case, 0.3, EvalConfig(precision="extended"))
        assert self.perturbed(rep) and any(w.startswith("extended:") for w in rep.warnings)


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
            lambda x, dps: extended.evaluate(_LAWS["cdf_min_col"](4, 2, s), (x,), dps).value,
            lam, monkeypatch)
        assert not rep.warnings
        assert abs(rep.value - exact) <= rep.abs_error_estimate

    @pytest.mark.parametrize("lam", [0.005, 0.01, 0.03])
    def test_row_5x3(self, lam, monkeypatch):
        s = [0.7, 1.5, 3.0]
        rep = pdf_min(row_case(5, 3, s), lam)
        exact = precise_survival_slope(
            lambda x, dps: extended.evaluate(_LAWS["cdf_min_row"](5, 3, s), (x,), dps).value,
            lam, monkeypatch)
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
ROW2 = [0.5, 1.8]
DOUBLY = {"4x3": (4, 3, [1.0, 1.7, 2.6], [0.8, 1.5, 2.6, 4.0]),
          "3x3": (3, 3, [1.0, 2.0, 3.2], [0.9, 1.8, 3.1])}
ROW_DENSITIES = (
    [(pdf_max, row_case(8, 6, ROW6), (lam,),
      lambda x, dps: extended.evaluate(_LAWS["cdf_max_row"](8, 6, ROW6), (x,), dps).value)
     for lam in (1.1, 3.0)]
    + [(pdf_joint_minmax, row_case(6, 4, ROW4), (a, b),
        lambda x, y, dps: -extended.evaluate(_LAWS["prob_gap_row"](6, 4, ROW4), (x, y), dps).value)
       for a, b in [(0.02, 1.0), (0.1, 3.0), (0.3, 2.0), (0.5, 20.0), (8.0, 30.0), (20.0, 30.0)]]
    # near the diagonal, b / a = 1.01 and 1.0001: at 6 x 4 the determinant
    # itself loses about 40 digits there
    + [(pdf_joint_minmax, row_case(4, 2, ROW2), (a, b),
        lambda x, y, dps: -extended.evaluate(_LAWS["prob_gap_row"](4, 2, ROW2), (x, y), dps).value)
       for a, b in [(0.3, 0.303), (2.0, 2.0002)]]
    # the smallest eigenvalue's density, the gap's tail read at (lam,), and
    # at n = m its closed form
    + [(pdf_min, row_case(n, m, s), (lam,),
        lambda x, dps, n=n, m=m, s=s: -extended.evaluate(_LAWS["cdf_min_row"](n, m, s), (x,),
                                                         dps).value)
       for n, m, s in [(6, 4, ROW4), (8, 6, ROW6)] for lam in (0.05, 0.5, 3.0)]
    + [(pdf_min, row_case(4, 4, ROW4), (0.5,),
        lambda x, dps: -extended.evaluate(_LAWS["cdf_min_row"](4, 4, ROW4), (x,), dps).value)])


def density_id(fn, case, point):
    # pdf_min runs on several cases at the same points
    dims = f"{case.dims.n}x{case.dims.m}-" if fn is pdf_min else ""
    return f"{fn.__name__}-{dims}{point}"


class TestDensityAgainstPreciseDerivative:
    # Jacobi's formula on the CDF determinant against central differences of
    # the 50-digit CDF

    @pytest.mark.parametrize("lam", [0.05, 0.3, 1.0, 3.0, 10.0])
    @pytest.mark.parametrize("kind", sorted(DOUBLY))
    def test_doubly_pdf_max(self, kind, lam, monkeypatch):
        n, m, r, s = DOUBLY[kind]
        rep = pdf_max(doubly_case(n, m, r, s), lam)
        law = _LAWS["cdf_max_doubly"](n, m, r, s)
        exact = precise_partial(lambda x, dps: extended.evaluate(law, (x,), dps).value,
                                (lam,), monkeypatch)
        assert abs(rep.value - exact) <= 1e-6 * exact
        assert abs(rep.value - exact) <= rep.abs_error_estimate

    @pytest.mark.parametrize("fn,case,point,raw", ROW_DENSITIES,
                             ids=[density_id(fn, c, p) for fn, c, p, _ in ROW_DENSITIES])
    def test_row_densities(self, fn, case, point, raw, monkeypatch):
        rep = fn(case, *point)
        exact = precise_partial(raw, point, monkeypatch)
        assert abs(rep.value - exact) <= 1e-7 * abs(exact)
        if not any(w.startswith("cancellation:") for w in rep.warnings):
            assert abs(rep.value - exact) <= rep.abs_error_estimate


@pytest.mark.parametrize("n,m,s", [(5, 3, [0.7, 1.5, 3.0]), (6, 4, ROW4), (8, 6, ROW6)])
@pytest.mark.parametrize("a", [0.05, 0.5, 3.0])
def test_tail_is_the_gap_with_b_deep_in_the_tail(n, m, s, a):
    # Pr(lam_min >= a) against Pr(no eigenvalue outside (a, b)), which differ by
    # at most Pr(lam_max > b): with e^(-b s_min) = e^-150 that is far below
    # 40 digits
    b = 150.0 / min(s)
    tail, gap = cdf_min(row_case(n, m, s), a), prob_gap(row_case(n, m, s), a, b)
    assert not tail.warnings and not gap.warnings
    assert abs(tail.value - gap.value) <= tail.abs_error_estimate + gap.abs_error_estimate
    tail = extended.evaluate(_LAWS["cdf_min_row"](n, m, s), (a,), 40)
    gap = extended.evaluate(_LAWS["prob_gap_row"](n, m, s), (a, b), 40)
    assert abs(tail.value - gap.value) <= (tail.bound + gap.bound) * tail.value


@pytest.mark.parametrize("n,m,s", [(4, 3, [0.5, 1.0, 3.0]), (6, 4, ROW4)])
@pytest.mark.parametrize("a,b", [(8.0, 30.0), (20.0, 30.0)])
def test_prob_gap_where_p_rounds_to_one(n, m, s, a, b, monkeypatch):
    # P(k, s a) is 1 in double precision for the largest s, where a difference
    # of lower integrals would cancel all its digits
    monkeypatch.setattr(extended, "_self_validated", lambda raw, dps, start: raw(dps))
    rep = prob_gap(row_case(n, m, s), a, b)
    exact = float(extended.evaluate(_LAWS["prob_gap_row"](n, m, s), (mpmath.mpf(a), mpmath.mpf(b)),
                                    50).value)
    assert not rep.warnings
    assert abs(rep.value - exact) <= min(1e-9 * exact, rep.abs_error_estimate)


# ---------------------------------------------------------------------------
# the density factor over arrays against the per-point loop it replaced


def scalar_density_factor(stat, cdf_args, consts, kernel):
    """The per-point loop: each point's density `_finalize` arguments (sign,
    log, rel, digits lost) and log |factor|, from its CDF's arguments, its
    constant c and its kernel results; rel without the log |factor| charge."""
    eps, dsign, out = 2.0 ** -52, 1.0 if stat == "max" else -1.0, []
    for (sign_c, log_c, rel, _), c, sign, cancel, deriv, gross, err in zip(
            cdf_args, consts, kernel[0], kernel[2], *kernel[4:]):
        factor = c + deriv
        if sign == 0:
            factor, lost = 1.0, 1.0
        elif factor:
            rel += (err + eps * abs(c)) / abs(factor)
            lost = max(abs(c) + gross, err / eps) / abs(factor)
        else:
            rel = lost = math.inf
        log_factor = math.log(abs(factor or 1.0))
        out.append((sign_c * (dsign if factor > 0 else -dsign if factor else 0),
                    log_c + log_factor, rel, max(cancel, math.log10(lost)), log_factor))
    return out


NAN_FACTOR_4x4 = ([1.906, 2.692, 3.033, 3.482], [0.925, 3.873, 4.564, 4.68])
SCALAR_LOOP_JOBS = {
    "row 8x6 max": (row_case(8, 6, ROW6), "max", np.geomspace(0.05, 40.0, 23)),
    "row 5x3 min": (row_case(5, 3, [0.7, 1.5, 3.0]), "min", np.geomspace(0.005, 30.0, 23)),
    "row 5x3 clustered max": (row_case(5, 3, [1.0, 1.0001, 1.0002]), "max",
                              np.geomspace(1e-3, 40.0, 23)),
    "column 4x2 min": (col_case(4, 2, [0.8, 1.6, 2.4, 4.0]), "min", np.geomspace(0.01, 30.0, 23)),
    "column 5x3 max": (col_case(5, 3, [0.5, 1.0, 2.0, 3.0, 4.0]), "max",
                       np.geomspace(0.05, 40.0, 23)),
    "doubly 3x3 max": (doubly_case(3, 3, [0.6, 0.9, 1.8], [0.5, 1.0, 2.0]), "max",
                       np.geomspace(0.05, 60.0, 23)),
    "doubly 4x4 min": (doubly_case(4, 4, *NAN_FACTOR_4x4), "min", np.linspace(1.4, 103.4, 23)),
    "row 4x2 joint": (row_case(4, 2, ROW2), "gap",
                      np.stack([np.geomspace(0.02, 2.0, 23), np.geomspace(0.5, 30.0, 23)], 1)),
}


@pytest.mark.parametrize("job", SCALAR_LOOP_JOBS)
def test_density_factor_matches_the_scalar_loop(job, monkeypatch):
    # values and digits lost equal, as IEEE operations on the same inputs;
    # the estimate adds the rounding of log |factor| and nothing else
    case, stat, points = SCALAR_LOOP_JOBS[job]
    points, args, kernels, consts = points.tolist(), [], [], []
    finalize, kernel, entries = detform._finalize, detform._det_from_logs, detform._entries

    def capture_finalize(sign, log_mag, rel, cancel, *rest):
        args.append((sign, log_mag, rel, cancel))
        return finalize(sign, log_mag, rel, cancel, *rest)

    def capture_kernel(*call):
        out = kernel(*call)
        kernels.append([a.tolist() for a in out])
        return out

    def capture_entries(*call):
        out = entries(*call)
        consts.append(out[3])
        return out

    for name, fn in [("_finalize", capture_finalize), ("_det_from_logs", capture_kernel),
                     ("_entries", capture_entries)]:
        monkeypatch.setattr(detform, name, fn)
    _grid(case, stat, points)
    cdf_args = args[:]
    del args[:]
    _grid(case, stat, points, density=True)
    want = scalar_density_factor(stat, cdf_args, consts[-1].tolist(), kernels[-1])
    assert len(args) == len(want) == len(points)
    for (sign, log, rel, cancel), (sign_r, log_r, rel_r, cancel_r, log_factor) in zip(args, want):
        assert repr((log, cancel)) == repr((log_r, cancel_r))
        assert sign == sign_r or math.isnan(log)  # a nan factor's value is nan either way
        if math.isfinite(rel_r):
            assert rel >= rel_r
            assert rel == pytest.approx(rel_r + abs(log_factor) * 2.0 ** -52, rel=2.0 ** -50)
        else:
            assert not math.isfinite(rel)
