"""Exact distributions of the extreme eigenvalues of correlated complex
Wishart matrices Z^H Z, for row-, column- and doubly correlated Gaussian
data, evaluated through determinant formulas and cross-validated by a
Schur-polynomial series oracle and Monte Carlo simulation."""

from . import detform, model, montecarlo, schur_series
from .detform import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .montecarlo import *  # noqa: F401,F403
from .schur_series import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = detform.__all__ + model.__all__ + montecarlo.__all__ + schur_series.__all__
