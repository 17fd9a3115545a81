"""Exact distributions of the extreme eigenvalues of correlated complex
Wishart matrices Z^H Z, for row-, column- and doubly correlated Gaussian
data, evaluated through determinant formulas and cross-validated by a
Schur-polynomial series oracle and Monte Carlo simulation."""

from .detform import (
    EvalConfig,
    EvalReport,
    cdf_max,
    cdf_min,
    pdf_joint_minmax,
    pdf_max,
    pdf_min,
    prob_gap,
)
from .model import (
    ColumnCorrelated,
    Dimensions,
    DoublyCorrelated,
    ModelCase,
    RowCorrelated,
    Spectrum,
    spectrum_from_covariance,
    validate_spectrum,
)
from .montecarlo import (
    EmpiricalCDF,
    MCConfig,
    empirical_extreme_cdf,
    haar_hciz_estimate,
    sample_matrix,
)
from .schur_series import (
    Partition,
    SeriesValue,
    cdf_max_schur,
    cdf_min_schur,
    d_prime,
    hyp1f1_multivar,
    partitions,
    pochhammer_partition,
    schur_poly,
)

__version__ = "0.1.0"

__all__ = [
    "EvalConfig",
    "EvalReport",
    "cdf_max",
    "cdf_min",
    "pdf_joint_minmax",
    "pdf_max",
    "pdf_min",
    "prob_gap",
    "ColumnCorrelated",
    "Dimensions",
    "DoublyCorrelated",
    "ModelCase",
    "RowCorrelated",
    "Spectrum",
    "spectrum_from_covariance",
    "validate_spectrum",
    "EmpiricalCDF",
    "MCConfig",
    "empirical_extreme_cdf",
    "haar_hciz_estimate",
    "sample_matrix",
    "Partition",
    "SeriesValue",
    "cdf_max_schur",
    "cdf_min_schur",
    "d_prime",
    "hyp1f1_multivar",
    "partitions",
    "pochhammer_partition",
    "schur_poly",
]
