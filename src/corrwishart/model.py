"""Problem definitions for the three correlation models.

A problem is a pair of matrix dimensions (n rows, m columns, n >= m) plus
the spectrum of one or two inverse covariance matrices.  Spectra are
stored for the *inverse* covariance directly, because every distribution
formula is written in those eigenvalues; `spectrum_from_covariance`
converts a covariance matrix for callers who have one.

The determinant formulas divide by products of spectral gaps, so a
validated spectrum is strictly increasing.  Near-degenerate inputs are
deterministically perturbed rather than silently producing garbage, and
flagged: `Spectrum.perturbed` is set, and every report the engine gives for
such a case carries a ``perturbed:`` warning.  The exact confluent limit is
deliberately not implemented.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

__all__ = [
    "GAP_TOL_DEFAULT",
    "PERTURB_EPS",
    "Dimensions",
    "Spectrum",
    "RowCorrelated",
    "ColumnCorrelated",
    "DoublyCorrelated",
    "ModelCase",
    "validate_spectrum",
    "spectrum_from_covariance",
]

# Relative gap below which the Vandermonde denominators are considered
# numerically degenerate (a fixed rule), and the multiplicative nudge
# applied then.
GAP_TOL_DEFAULT = 1e-8
PERTURB_EPS = 1e-6


@dataclass(frozen=True)
class Dimensions:
    """Data-matrix shape: n samples (rows) by m variables (columns), n >= m."""

    n: int
    m: int

    def __post_init__(self):
        for name, value in (("n", self.n), ("m", self.m)):
            # a bool is an int and a numpy integer is not: reject the one, store the other
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError("dimensions must be integers")
            object.__setattr__(self, name, int(value))
        if not (self.n >= self.m >= 1):
            raise ValueError(f"require n >= m >= 1, got n={self.n}, m={self.m}")


def _check_values(values) -> None:
    if len(values) == 0:
        raise ValueError("spectrum must be nonempty")
    for v in values:
        if not (math.isfinite(v) and v > 0.0):
            raise ValueError(f"spectrum values must be finite and positive, got {v!r}")


@dataclass(frozen=True)
class Spectrum:
    """Strictly increasing positive eigenvalues of an inverse covariance, else
    ValueError (`validate_spectrum` sorts and separates raw values into one)."""

    values: tuple
    perturbed: bool = False

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
        _check_values(values)
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError(f"spectrum values must be strictly increasing, got {values!r}")
        object.__setattr__(self, "values", values)

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)


def validate_spectrum(raw: Sequence[float]) -> Spectrum:
    """Sort, positivity-check and degeneracy-break a raw spectrum.

    Values are sorted ascending.  If any relative gap (difference over the
    spectrum mean) falls below the fixed threshold `GAP_TOL_DEFAULT`, every
    value is nudged by ``s_j -> s_j * (1 + j * PERTURB_EPS)`` (j = 1-based
    rank) and the result re-checked; the returned Spectrum, strictly
    increasing, records whether that happened.

    Raises ValueError for empty/nonfinite/nonpositive input, if the nudge
    overflows, or if one perturbation pass does not separate the values.
    """
    values = [float(v) for v in raw]
    _check_values(values)
    values.sort()

    def min_rel_gap(vals):
        if len(vals) == 1:
            return math.inf
        # in units of the largest value, so that the mean's sum cannot overflow
        top = vals[-1]
        mean = sum(v / top for v in vals) / len(vals)
        return min((b - a) / top for a, b in zip(vals, vals[1:])) / mean

    if min_rel_gap(values) >= GAP_TOL_DEFAULT:
        return Spectrum(tuple(values), perturbed=False)

    nudged = [v * (1.0 + (j + 1) * PERTURB_EPS) for j, v in enumerate(values)]
    if not math.isfinite(nudged[-1]):
        raise ValueError(f"the nudged spectrum leaves the double range: {values[-1]!r} "
                         f"times 1 + {len(values)} * {PERTURB_EPS!r} overflows")
    if min_rel_gap(nudged) < GAP_TOL_DEFAULT:
        raise ValueError("spectrum remains degenerate after one perturbation pass; "
                         "separate the eigenvalues")
    return Spectrum(tuple(nudged), perturbed=True)


def spectrum_from_covariance(C) -> Spectrum:
    """Spectrum of the inverse of a Hermitian positive definite covariance.

    Returns the sorted reciprocals of the eigenvalues of ``C``, validated by
    `validate_spectrum`.  Rejects non-Hermitian (relative asymmetry above
    1e-12) and non positive definite input.
    """
    C = np.asarray(C, dtype=complex)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise ValueError(f"covariance must be square, got shape {C.shape}")
    scale = np.max(np.abs(C))
    if scale == 0.0 or not np.isfinite(scale):
        raise ValueError("covariance must be finite and nonzero")
    if np.max(np.abs(C - C.conj().T)) > 1e-12 * scale:
        raise ValueError("covariance must be Hermitian to 1e-12 relative")
    eigs = np.linalg.eigvalsh(C)
    if eigs[0] <= 0.0:
        raise ValueError("covariance must be positive definite")
    return validate_spectrum([1.0 / t for t in eigs])


def _check_length(what: str, spectrum: Spectrum, name: str, size: int) -> None:
    if len(spectrum) != size:
        raise ValueError(f"{what} must have length {name}={size}, got {len(spectrum)}")


@dataclass(frozen=True)
class RowCorrelated:
    """Z is n x m Gaussian with density proportional to exp(-Tr(S Z^H Z)).

    ``s`` holds the m eigenvalues of the inverse covariance coupling the
    columns (variables) of Z.
    """

    dims: Dimensions
    s: Spectrum

    def __post_init__(self):
        _check_length("row-correlated spectrum", self.s, "m", self.dims.m)


@dataclass(frozen=True)
class ColumnCorrelated:
    """Z is n x m Gaussian with density proportional to exp(-Tr(Z^H S Z)).

    ``s`` holds the n eigenvalues of the inverse covariance coupling the
    rows (repeated measurements) of Z.
    """

    dims: Dimensions
    s: Spectrum

    def __post_init__(self):
        _check_length("column-correlated spectrum", self.s, "n", self.dims.n)


@dataclass(frozen=True)
class DoublyCorrelated:
    """Z is n x m Gaussian with density prop. to exp(-Tr(R Z^H S Z)).

    ``r`` holds the m eigenvalues of the column-side inverse covariance and
    ``s`` the n eigenvalues of the row-side one.  With m < n only the
    largest-eigenvalue statistic is available; the smallest-eigenvalue
    formula exists only at m = n.
    """

    dims: Dimensions
    r: Spectrum
    s: Spectrum

    def __post_init__(self):
        _check_length("doubly-correlated r spectrum", self.r, "m", self.dims.m)
        _check_length("doubly-correlated s spectrum", self.s, "n", self.dims.n)


ModelCase = Union[RowCorrelated, ColumnCorrelated, DoublyCorrelated]
