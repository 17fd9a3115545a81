import numpy as np
import pytest

from corrwishart.model import (
    PERTURB_EPS,
    ColumnCorrelated,
    Dimensions,
    DoublyCorrelated,
    RowCorrelated,
    Spectrum,
    spectrum_from_covariance,
    validate_spectrum,
)


class TestValidateSpectrum:
    def test_clean_input_unchanged(self):
        sp = validate_spectrum([1.0, 2.0, 3.0])
        assert sp.values == (1.0, 2.0, 3.0)
        assert sp.perturbed is False

    def test_duplicates_are_nudged(self):
        sp = validate_spectrum([1.0, 1.0])
        assert sp.perturbed is True
        assert sp.values == (1.0 * (1 + PERTURB_EPS), 1.0 * (1 + 2 * PERTURB_EPS))

    def test_sorting(self):
        assert validate_spectrum([2.0, 1.0]).values == (1.0, 2.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            validate_spectrum([1.0, 0.0])
        with pytest.raises(ValueError):
            validate_spectrum([-1.0, 2.0])
        with pytest.raises(ValueError):
            validate_spectrum([])
        with pytest.raises(ValueError):
            validate_spectrum([1.0, float("nan")])

    def test_still_degenerate_after_nudge_raises(self):
        # the nudge leaves the two small values about 1e-9 apart, far below
        # GAP_TOL_DEFAULT times the mean of 333
        with pytest.raises(ValueError):
            validate_spectrum([1e-3, 1e-3, 1e3])

    def test_huge_values_do_not_overflow_the_mean(self):
        sp = validate_spectrum([1.5e308, 1e308])
        assert sp.values == (1e308, 1.5e308)
        assert sp.perturbed is False

    def test_nudge_past_the_double_range_raises(self):
        # the nudged values overflow: the message names the nudge, not an inf
        # the caller never passed
        with pytest.raises(ValueError, match="nudged spectrum leaves the double range") as info:
            validate_spectrum([1.7976931348623157e308] * 2)
        assert "inf" not in str(info.value)

    def test_idempotent(self):
        sp = validate_spectrum([3.0, 3.0, 1.0])
        again = validate_spectrum(sp.values)
        assert again.values == sp.values
        assert again.perturbed is False


class TestSpectrum:
    @pytest.mark.parametrize("values", [(2.0, 1.0), (1.0, 1.0), (0.0, 1.0), (-1.0, 1.0),
                                        (1.0, float("inf")), (float("nan"), 1.0), ()])
    def test_rejects_what_validation_would_not_return(self, values):
        with pytest.raises(ValueError, match="spectrum"):
            Spectrum(values)


class TestSpectrumFromCovariance:
    def test_identity_is_degenerate_then_perturbed(self):
        sp = spectrum_from_covariance(np.eye(3))
        assert sp.perturbed is True
        expect = tuple(1.0 * (1 + (j + 1) * PERTURB_EPS) for j in range(3))
        assert sp.values == pytest.approx(expect, rel=1e-12)

    def test_diagonal_reciprocals(self):
        sp = spectrum_from_covariance(np.diag([1.0, 0.5, 0.25]))
        assert sp.values == pytest.approx((1.0, 2.0, 4.0), rel=1e-12)
        assert sp.perturbed is False

    def test_hermitian_2x2(self):
        # eigenvalues of [[2, i], [-i, 2]] are {1, 3} by its characteristic
        # polynomial (2-t)^2 - 1 = 0
        C = np.array([[2.0, 1j], [-1j, 2.0]])
        sp = spectrum_from_covariance(C)
        assert sp.values == pytest.approx((1.0 / 3.0, 1.0), rel=1e-10)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            spectrum_from_covariance(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_non_square_and_zero(self):
        with pytest.raises(ValueError, match="square"):
            spectrum_from_covariance(np.ones((2, 3)))
        with pytest.raises(ValueError, match="nonzero"):
            spectrum_from_covariance(np.zeros((2, 2)))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            spectrum_from_covariance(np.diag([1.0, -2.0]))

    def test_scaling_property(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        C = A @ A.conj().T + 0.5 * np.eye(4)
        base = spectrum_from_covariance(C).values
        for c in (0.25, 8.0):
            scaled = spectrum_from_covariance(c * C).values
            assert scaled == pytest.approx(tuple(v / c for v in base), rel=1e-12)


class TestCases:
    def test_dimensions_invariant(self):
        with pytest.raises(ValueError):
            Dimensions(2, 3)
        with pytest.raises(ValueError):
            Dimensions(1, 0)
        with pytest.raises(ValueError, match="integers"):
            Dimensions(3.0, 2)
        with pytest.raises(ValueError, match="integers"):
            Dimensions(True, True)
        assert Dimensions(3, 3).n == 3
        dims = Dimensions(np.int64(5), np.int32(3))
        assert dims == Dimensions(5, 3) and type(dims.n) is int and type(dims.m) is int

    def test_row_length_check(self):
        with pytest.raises(ValueError):
            RowCorrelated(Dimensions(3, 2), Spectrum((1.0, 2.0, 3.0)))
        RowCorrelated(Dimensions(3, 2), Spectrum((1.0, 2.0)))

    def test_column_length_check(self):
        with pytest.raises(ValueError):
            ColumnCorrelated(Dimensions(3, 2), Spectrum((1.0, 2.0)))
        ColumnCorrelated(Dimensions(3, 2), Spectrum((1.0, 2.0, 3.0)))

    def test_doubly_length_checks(self):
        DoublyCorrelated(Dimensions(3, 2), Spectrum((1.0, 2.0)),
                         Spectrum((1.0, 2.0, 3.0)))
        with pytest.raises(ValueError):
            DoublyCorrelated(Dimensions(3, 2), Spectrum((1.0, 2.0, 3.0)),
                             Spectrum((1.0, 2.0, 3.0)))
        with pytest.raises(ValueError, match="s spectrum must have length n=3"):
            DoublyCorrelated(Dimensions(3, 2), Spectrum((1.0, 2.0)), Spectrum((1.0, 2.0)))
