"""Determinant-formula evaluation of the extreme-eigenvalue distributions.

Each (model, statistic) pair reduces to a single m x m or n x n
determinant whose entries are incomplete-gamma, confluent-hypergeometric
or pure-exponential values, multiplied by a prefactor of factorials,
spectral powers and Vandermonde products.  Raw magnitudes of those pieces
overflow double precision long before the probabilities become
interesting, so everything is carried as a sign plus log magnitude
(`SignedLogValue`); only the final combination is exponentiated.

The one genuine numerical weak point of these formulas is the Vandermonde
ratio for clustered spectra.  The engine therefore measures the decimal
digits lost between the largest intermediate magnitude and the result
(`cancellation_digits`), warns above a threshold, and -- when configured
with ``precision="extended"`` -- re-runs the affected probability through
the mpmath re-evaluation in `corrwishart.extended`.  When that
re-evaluation does not settle within its precision limit, the
double-precision value and its estimate are kept and a ``nonconverged:``
warning says so.

Probability values are clamped to [0, 1] on output; the pre-clamp residual
is recorded in the report's warnings when it exceeds 1e-8.  Densities are
the derivatives of the same determinants by Jacobi's formula, returned as
nonnegative functions of lambda (signed so that they integrate to one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .model import (
    ColumnCorrelated,
    DoublyCorrelated,
    ModelCase,
    RowCorrelated,
)
from .specfun import (_log_exp_partial_sums, log_doubly_g, log_gamma_entries,
                      log_shifted_power_integrals, reg_lower_gamma_orders)

__all__ = [
    "SignedLogValue",
    "EvalConfig",
    "EvalReport",
    "logdet",
    "cdf_max",
    "cdf_min",
    "prob_gap",
    "pdf_max",
    "pdf_min",
    "pdf_joint_minmax",
]

_EPS = 2.220446049250313e-16
_LN10 = math.log(10.0)
_CLAMP_RESIDUAL = 1e-8
# the most digits an mpmath re-evaluation may use (`extended` imports it)
_MAX_DPS = 1600


# ---------------------------------------------------------------------------
# signed log arithmetic


@dataclass(frozen=True)
class SignedLogValue:
    """A real number stored as sign in {-1, 0, +1} and log magnitude."""

    sign: int
    log_magnitude: float

    @classmethod
    def zero(cls) -> "SignedLogValue":
        return cls(0, -math.inf)

    @classmethod
    def from_value(cls, v: float) -> "SignedLogValue":
        if v == 0.0:
            return cls.zero()
        return cls(1 if v > 0 else -1, math.log(abs(v)))

    @classmethod
    def from_log(cls, sign: int, log_magnitude: float) -> "SignedLogValue":
        if sign == 0 or log_magnitude == -math.inf:
            return cls.zero()
        return cls(1 if sign > 0 else -1, log_magnitude)

    def __mul__(self, other: "SignedLogValue") -> "SignedLogValue":
        if self.sign == 0 or other.sign == 0:
            return SignedLogValue.zero()
        return SignedLogValue(self.sign * other.sign,
                              self.log_magnitude + other.log_magnitude)

    def to_float(self) -> float:
        if self.sign == 0:
            return 0.0
        if self.log_magnitude > 709.0:
            return self.sign * math.inf
        return self.sign * math.exp(self.log_magnitude)


# ---------------------------------------------------------------------------
# determinant kernel: one LAPACK call per stack (shared by the public logdet
# and the entry path)


def _scaled_det(A: np.ndarray, rel_entries: Optional[np.ndarray]):
    """Determinants of a stack ``A`` (G, N, N) whose rows and columns are
    scaled to magnitude about one.

    Returns arrays (sign, log |det|, cancellation digits, relative error)
    and the inverses.  The cancellation is the Hadamard bound over |det| in
    decimal digits.  The error is the roundoff N eps (1 + growth), with the
    partial-pivoting growth taken as its measured value 1, amplified by that
    cancellation, plus the first-order propagation sum |A^-T| * rel_entries
    * |A| when entry relative errors are given (else no inverse, None).  An
    exactly singular member gets sign 0, infinite cancellation and error.
    """
    N = A.shape[-1]
    sign, log_abs = np.linalg.slogdet(A)
    singular = sign == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        hadamard = (0.5 * np.log((A * A).sum(axis=-1))).sum(axis=-1)
        cancel = np.maximum((hadamard - log_abs) / _LN10, 0.0)
    rel = N * _EPS * 2.0 * 10.0 ** np.minimum(cancel, 250.0)
    if rel_entries is None:
        return sign, log_abs, cancel, rel, None
    if singular.any():
        cancel[singular] = rel[singular] = math.inf
        inv = np.zeros_like(A)
        inv[~singular] = np.linalg.inv(A[~singular])
    else:
        inv = np.linalg.inv(A)
    prop = np.abs(np.swapaxes(inv, -1, -2)) * rel_entries * np.abs(A)
    rel += prop.reshape(len(A), -1).sum(axis=-1)
    return sign, log_abs, cancel, rel, inv


def _jacobi(A: np.ndarray, inv: np.ndarray, log_derivs, R: np.ndarray):
    """Jacobi's formula on a scaled stack: d det / det, the sum of its terms'
    magnitudes and its error, as arrays.

    ``log_derivs`` holds one or two arrays D with dA = A o D.  One gives
    tr X, X = A^-1 (A o D); two give the mixed derivative over det,
    tr X tr Y - tr(XY), summed as 2 x 2 principal minors (entries linear in
    each variable apart).  Scaling leaves X and Y similar, the values equal.
    The error is first order: roundoff 2 N eps on every scaled entry and the
    entry errors ``R`` through the sensitivity S (d value = -sum dA o S^T),
    plus the largest entry error and a few roundings on every term.
    """
    G, N = len(A), A.shape[-1]
    dA = [A * D for D in log_derivs]
    X = [inv @ d for d in dA]
    diag = [np.diagonal(x, axis1=-2, axis2=-1) for x in X]
    if len(X) == 1:
        value = diag[0].sum(axis=-1)
        gross = np.abs(np.swapaxes(inv, -1, -2) * dA[0]).reshape(G, -1).sum(axis=-1)
        S = X[0]
    else:
        tr = [d.sum(axis=-1)[:, None, None] for d in diag]
        Xt = X[0] * np.swapaxes(X[1], -1, -2)
        outer = diag[0][:, :, None] * diag[1][:, None, :]
        value = (outer - Xt).reshape(G, -1).sum(axis=-1)  # the diagonal is exactly 0
        gross = ((np.abs(outer) + np.abs(Xt)).reshape(G, -1).sum(axis=-1)
                 - 2.0 * np.abs(diag[0] * diag[1]).sum(axis=-1))
        S = tr[1] * X[0] + tr[0] * X[1] - X[0] @ X[1] - X[1] @ X[0]
    S = np.abs(S @ inv)
    err = (2 * N * _EPS * S.reshape(G, -1).sum(axis=-1)
           + (R * np.abs(A) * np.swapaxes(S, -1, -2)).reshape(G, -1).sum(axis=-1)
           + len(X) * (R.reshape(G, -1).max(axis=-1) + (N + 2) * _EPS) * gross)
    return value, gross, err


@dataclass
class _DetInfo:
    slv: SignedLogValue
    cancel_digits: float
    rel_err: float
    # with entry log-derivatives: d det / det, its terms' magnitudes, its error
    deriv: float = 0.0
    deriv_gross: float = 0.0
    deriv_err: float = 0.0


def _det_from_logs(log_entries: np.ndarray,
                   entry_rel_err: Optional[np.ndarray] = None,
                   log_derivs: Sequence[np.ndarray] = ()):
    """Determinant of a matrix given as logs of its (positive) entries.

    ``log_entries`` is one matrix (N, N), giving one `_DetInfo`, or a stack
    (G, N, N), giving a list of G of them from a single batched call.  Each
    member's rows, then columns, are shifted in log space to a largest
    entry of one before exponentiating.  A member with a row of zeros or a
    column that underflows to zero is an exact zero (no cancellation).
    ``log_derivs``, one or two arrays of the entries' log-derivatives, add
    the derivative of the determinant by Jacobi's formula (`_jacobi`).
    """
    L = np.asarray(log_entries, dtype=float)
    single = L.ndim == 2
    if single:
        L = L[None]
    N = L.shape[-1]
    row_shift = L.max(axis=-1)
    dead_rows = ~np.isfinite(row_shift)
    row_shift[dead_rows] = 0.0
    A = np.exp(L - row_shift[..., None])
    col_scale = A.max(axis=-2)
    zero = dead_rows.any(axis=-1) | (col_scale == 0.0).any(axis=-1)
    any_zero = zero.any()
    if any_zero:
        col_scale[zero] = 1.0
    A /= col_scale[:, None, :]
    if any_zero:
        A[zero] = np.eye(N)
    shift = row_shift.sum(axis=-1) + np.log(col_scale).sum(axis=-1)

    rel_entries = None if entry_rel_err is None else np.asarray(entry_rel_err, dtype=float)
    if rel_entries is not None and rel_entries.shape != L.shape:
        rel_entries = np.broadcast_to(rel_entries, L.shape)
    sign, log_abs, cancel, rel, inv = _scaled_det(A, rel_entries)
    derivs = _jacobi(A, inv, log_derivs, rel_entries) if len(log_derivs) else ()
    if any_zero:
        sign[zero] = cancel[zero] = rel[zero] = 0.0
    out = [_DetInfo(SignedLogValue.from_log(int(s), lg), *rest)
           for s, lg, *rest in zip(sign.tolist(), (log_abs + shift).tolist(),
                                   *(f.tolist() for f in (cancel, rel, *derivs)))]
    return out[0] if single else out


def logdet(matrix, entry_abs_errors=None, with_diagnostics: bool = False):
    """Sign and log magnitude of the determinant of a real square matrix.

    Rows and columns are first rescaled by exact powers of two to bring the
    largest magnitudes near one; the determinant of the scaled matrix then
    comes from LAPACK (`numpy.linalg.slogdet`).  An exactly singular matrix
    yields sign 0.  With ``with_diagnostics=True`` the result is paired with
    a dict of ``cancellation_digits`` (decimal digits between the Hadamard
    bound and |det|) and ``rel_err``, a first-order relative error estimate:
    roundoff amplified by the cancellation, plus, when ``entry_abs_errors``
    is given (same shape as the matrix), those entry errors propagated
    through the inverse.
    """
    M = np.asarray(matrix, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"matrix must be square, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix entries must be finite")

    work = M.copy()
    log_scale = 0.0
    for axis in (1, 0):
        amax = np.max(np.abs(work), axis=axis)
        exps = np.where(amax > 0.0, np.frexp(amax)[1], 0).astype(int)
        if axis == 1:
            work = np.ldexp(work, -exps[:, None])
        else:
            work = np.ldexp(work, -exps[None, :])
        log_scale += float(np.sum(exps)) * math.log(2.0)

    rel_entries = None
    if with_diagnostics and entry_abs_errors is not None:
        # errors on the scaled matrix: scaling is exact, relative errors keep
        errs = np.asarray(entry_abs_errors, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            rel_entries = np.where(M != 0.0, errs / np.abs(M), 0.0)[None]
    sign, log_abs, cancel, rel, _ = _scaled_det(work[None], rel_entries)
    result = SignedLogValue.from_log(int(sign[0]), float(log_abs[0]) + log_scale)
    if not with_diagnostics:
        return result
    return result, {"cancellation_digits": float(cancel[0]), "rel_err": float(rel[0])}


# ---------------------------------------------------------------------------
# evaluation configuration and reports


@dataclass(frozen=True)
class EvalConfig:
    """Precision policy for the determinant engine.

    ``precision="double"`` never escalates; ``"extended"`` re-runs an
    evaluation through mpmath when its cancellation diagnostic exceeds
    ``cancellation_warn_digits``, until two rounds agree to
    ``extended_dps`` - 10 digits.  The first round runs at ``extended_dps``
    plus the digits the double-precision evaluation lost, capped so that a
    second round fits within the 1600-digit limit (`extended.first_round`);
    the second round confirms it 20 digits up, and each later one, needed
    only when those two disagree, runs at 2d + 20 digits.  ``extended_dps``
    is at most 1580, so that the confirming round fits.
    """

    precision: str = "double"
    extended_dps: int = 40
    cancellation_warn_digits: float = 12.0

    def __post_init__(self):
        if self.precision not in ("double", "extended"):
            raise ValueError(f"unknown precision {self.precision!r}")
        if not 30 <= self.extended_dps <= _MAX_DPS - 20:
            raise ValueError(f"extended_dps must be in [30, {_MAX_DPS - 20}]: at least 30 "
                             "digits, and room for the round 20 digits up")


_DEFAULT_CONFIG = EvalConfig()


@dataclass
class EvalReport:
    """Evaluated probability or density with reliability diagnostics."""

    value: float
    abs_error_estimate: float
    cancellation_digits: float
    warnings: List[str] = field(default_factory=list)


def _finalize(slv: SignedLogValue, rel_err: float, cancel: float,
              cfg: EvalConfig, warnings: List[str],
              extended_fn: Optional[Callable[[int, int], float]],
              is_probability: bool) -> EvalReport:
    value = slv.to_float()
    if cancel > cfg.cancellation_warn_digits:
        warnings.append(
            f"cancellation:{cancel:.1f} digits lost; double-precision result "
            "unreliable"
        )
        if cfg.precision == "extended" and extended_fn is not None:
            # mpmath loads on first escalation
            from .extended import NotConverged, first_round
            try:
                value = extended_fn(cfg.extended_dps, first_round(cfg.extended_dps, cancel))
            except NotConverged as exc:
                # the double-precision value and its estimate stand
                warnings.append(
                    f"nonconverged:mpmath results still disagreed at {exc.dps} "
                    "digits; double-precision result kept")
            else:
                warnings.append(
                    f"extended:re-evaluated at >= {cfg.extended_dps} digits")
                # the re-evaluation self-validates by agreement of two
                # precisions; rounding the agreed mpf to a double adds the
                # unit roundoff 2^-53
                rel_err = 10.0 ** (10.0 - cfg.extended_dps) + 0.5 * _EPS
    if not math.isfinite(value):
        warnings.append("nonfinite:evaluation did not produce a finite value")
        return EvalReport(value, math.inf, cancel, warnings)
    abs_err = abs(value) * min(rel_err, 1e30) + 1e-300
    if is_probability:
        clamped = min(max(value, 0.0), 1.0)
        residual = value - clamped
        if abs(residual) > _CLAMP_RESIDUAL:
            warnings.append(f"clamp:residual {residual:.3e} outside [0,1]")
        value = clamped
    else:
        if value < 0.0:
            if value < -_CLAMP_RESIDUAL:
                warnings.append(f"clamp:negative density {value:.3e} set to 0")
            value = 0.0
    return EvalReport(value, abs_err, cancel, warnings)


def _check_lambda(lam: float) -> float:
    lam = float(lam)
    if not math.isfinite(lam) or lam <= 0.0:
        raise ValueError(f"lambda must be finite and > 0, got {lam!r}")
    return lam


def _log_gaps(vals: Sequence[float]) -> float:
    out = 0.0
    for j in range(len(vals)):
        for k in range(j + 1, len(vals)):
            out += math.log(vals[k] - vals[j])
    return out


def _sum_log(vals: Sequence[float]) -> float:
    return sum(math.log(v) for v in vals)


# ---------------------------------------------------------------------------
# entry arrays
#
# A grid's entries, as logs of the (positive) values, come from the array
# kernels in `specfun` with first-order relative error estimates that track
# the absolute size of the log-space terms combined (x, a log x, lgamma):
# an absolute error on a log is a relative error on the entry.


def _gamma_logs(a_lo: int, a_hi: int, x: np.ndarray, log_scale) -> Tuple[np.ndarray, np.ndarray]:
    """log int_0^1 t^(a-1) e^(-x t) dt for the orders a_lo..a_hi (last axis),
    and its estimate with ``a |log_scale|`` for the size of a log x."""
    orders = np.arange(a_lo, a_hi + 1)
    lgam = np.array([math.lgamma(a) for a in orders])
    rel = _EPS * (10.0 + np.abs(lgam) + np.abs(orders * log_scale[..., None])
                  + np.minimum(x[..., None], orders + 1.0))
    return log_gamma_entries(a_lo, a_hi, x), rel


def _row_min_logs(a_lo: int, a_hi: int, lams, svals) -> Tuple[np.ndarray, np.ndarray]:
    """log sum_i C(a-1, i) lam^(a-1-i) i! / s^(i+1), the smallest-eigenvalue
    entries without their exponential factor: rows s, orders a_lo..a_hi."""
    log_v = log_shifted_power_integrals(a_lo, a_hi, np.asarray(lams, dtype=float)[:, None],
                                        np.asarray(svals, dtype=float))
    return log_v, _EPS * (10.0 + np.arange(a_lo, a_hi + 1) + np.abs(log_v))


def _power_rel(log_v):
    return _EPS * (5.0 + np.abs(log_v))


# ---------------------------------------------------------------------------
# prefactors: lambda-free parts as SignedLogValue, computed once per grid;
# the grid functions add their lambda terms as arrays (`_with_logs`)


def _with_logs(pref: SignedLogValue, logs) -> List[SignedLogValue]:
    return [SignedLogValue.from_log(pref.sign, pref.log_magnitude + v)
            for v in np.asarray(logs, dtype=float).tolist()]


def _pref(pairs: int, log: float) -> SignedLogValue:
    """e^log times the sign (-1)^pairs of a Vandermonde with that many pairs."""
    return SignedLogValue.from_log(-1 if pairs % 2 else 1, log)


def _row_pref(n: int, m: int, svals: Sequence[float]) -> SignedLogValue:
    # normalization (spectral powers over factorials) divided by the
    # spectral Vandermonde; shared by every row-model law
    return _pref(m * (m - 1) // 2, n * _sum_log(svals) - _log_gaps(svals)
                 - sum(math.lgamma(n - m + k) for k in range(1, m + 1)))


def _col_pref_max(n: int, m: int, svals: Sequence[float]) -> SignedLogValue:
    return _pref(m * (m - 1) // 2, math.lgamma(m + 1) + m * _sum_log(svals) - _log_gaps(svals)
                 - sum(math.lgamma(k + 1) for k in range(1, m + 1)))


def _col_pref_min(n: int, m: int, svals: Sequence[float]) -> SignedLogValue:
    # times exp(-lam sum(s))
    return _pref(m * (m - 1) // 2, m * _sum_log(svals) - _log_gaps(svals))


def _doubly_pref_min(n: int, rvals, svals) -> SignedLogValue:
    # times lam^(-M), M = n(n-1)/2
    return _pref(n * (n - 1) // 2, sum(math.lgamma(j + 1) for j in range(1, n))
                 - _log_gaps(rvals) - _log_gaps(svals))


def _doubly_pref_max(n: int, m: int, rvals, svals) -> SignedLogValue:
    # General m <= n prefactor, anchored so that the m = n case is exactly
    # the square evaluation and the m < n case matches the iterated
    # large-eigenvalue limit of it (the overall sign depends on n only);
    # times lam^(n^2 - M), M = n(n-1)/2.
    return _pref(n * (n - 1) // 2, sum(math.lgamma(n) - math.lgamma(n - p) for p in range(1, n - m))
                 - sum(j * math.log(j) for j in range(1, n))
                 + n * (_sum_log(rvals) + _sum_log(svals)) - _log_gaps(rvals) - _log_gaps(svals))


# ---------------------------------------------------------------------------
# grid plumbing
#
# Every internal (model, statistic) function takes a list of points and
# returns one report per point; all the determinants it needs go into a
# single kernel call.  The public functions evaluate a grid of one point.


def _ext(name: str, *args) -> Callable[[int, int], float]:
    """Deferred mpmath re-evaluation ``extended.<name>(*args, dps, start=start)``."""
    def run(dps, start):
        from . import extended
        return getattr(extended, name)(*args, dps, start=start)
    return run


def _probabilities(prefs: Sequence[SignedLogValue], L, R, cfg: EvalConfig,
                   name: str, args: tuple, points) -> List[EvalReport]:
    """One report per point: prefactor times determinant of the entry logs
    ``L`` (errors ``R``), re-evaluated by ``extended.<name>(*args, *point,
    dps)`` when configured."""
    return [_finalize(pref * det.slv, det.rel_err, det.cancel_digits, cfg, [],
                      _ext(name, *args, *point), True)
            for pref, det, point in zip(prefs, _det_from_logs(L, R), points)]


def _densities(prefs: Sequence[SignedLogValue], L, R, log_derivs, sign: float,
               cfg: EvalConfig, consts=None) -> List[EvalReport]:
    """One density per point, sign * d(pref det) = sign * pref * det *
    (c + d det / det), by Jacobi's formula on the entry logs ``L`` (errors
    ``R``).  c is the prefactor's log-derivative plus the row and column
    constants left out of ``log_derivs``: each adds exactly its value, as
    every row and column of A^-T o A sums to one.  The factor's cancellation
    counts with the determinant's, and its error adds to the determinant's.
    """
    out = []
    dets = _det_from_logs(L, R, log_derivs)
    for pref, det, c in zip(prefs, dets, [0.0] * len(dets) if consts is None else consts):
        factor = c + det.deriv
        if det.slv.sign == 0:  # an exact zero determinant decides
            factor, rel, lost = 1.0, det.rel_err, 1.0
        elif factor:
            rel = det.rel_err + (det.deriv_err + _EPS * abs(c)) / abs(factor)
            lost = (abs(c) + det.deriv_gross) / abs(factor)
        else:
            rel = lost = math.inf
        out.append(_finalize(pref * det.slv * SignedLogValue.from_value(sign * factor), rel,
                             max(det.cancel_digits, math.log10(lost)), cfg, [], None, False))
    return out


def _gap_points(case, points, what: str) -> List[Tuple[float, float]]:
    if not isinstance(case, RowCorrelated):
        raise TypeError(f"{what} is available for the row-correlated model only")
    out = []
    for a, b in points:
        a = _check_lambda(a)
        b = float(b)
        if not (math.isfinite(b) and b > a):
            raise ValueError(f"require b > a > 0, got a={a}, b={b}")
        out.append((a, b))
    return out


def _by_model(case: ModelCase, lams: Sequence[float], cfg: EvalConfig,
              row, col, doubly) -> List[EvalReport]:
    """Check the lambdas and run the grid function for the case's model."""
    lams = [_check_lambda(lam) for lam in lams]
    n, m = case.dims.n, case.dims.m
    if isinstance(case, DoublyCorrelated):
        return doubly(n, m, list(case.r), list(case.s), lams, cfg)
    for model, fn in ((RowCorrelated, row), (ColumnCorrelated, col)):
        if isinstance(case, model):
            return fn(n, m, list(case.s), lams, cfg)
    raise TypeError(f"unknown model case {type(case).__name__}")


# ---------------------------------------------------------------------------
# CDF of the largest eigenvalue
#
# Each (model, statistic) has one matrix description, shared by its CDF and
# its density: a builder of the entry logs, their errors and the prefactors.


def cdf_max(case: ModelCase, lam: float, cfg: EvalConfig = _DEFAULT_CONFIG) -> EvalReport:
    """Pr(largest eigenvalue of Z^H Z <= lam) for a validated model case."""
    return _cdf_max_grid(case, [lam], cfg)[0]


def _cdf_max_grid(case: ModelCase, lams: Sequence[float],
                  cfg: EvalConfig = _DEFAULT_CONFIG) -> List[EvalReport]:
    return _by_model(case, lams, cfg, _cdf_max_row, _cdf_max_col, _cdf_max_doubly)


def _row_max_base(n, m, svals, lams):
    """Stacked row cdf_max matrices E_a(x), orders n-m+1..n; x = lam s; prefactors."""
    x = np.asarray(lams, dtype=float)[:, None] * np.asarray(svals, dtype=float)
    M = m * (m - 1) // 2
    prefs = _with_logs(_row_pref(n, m, svals), (n * m - M) * np.log(lams))
    return (*_gamma_logs(n - m + 1, n, x, np.log(x)), x, prefs)


def _cdf_max_row(n, m, svals, lams, cfg) -> List[EvalReport]:
    L, R, _, prefs = _row_max_base(n, m, svals, lams)
    return _probabilities(prefs, L, R, cfg, "cdf_max_row", (n, m, svals), zip(lams))


def _col_max_base(n, m, svals, lams):
    """Stacked column cdf_max matrices: gamma columns, then spectral powers.
    Column k holds Gamma(k) P(k, lam s) / s^k = lam^k int_0^1 t^(k-1) e^(-lam s t) dt."""
    lam = np.asarray(lams, dtype=float)[:, None]
    s = np.asarray(svals, dtype=float)
    log_s = np.log(s)
    L = np.empty((len(lams), n, n))
    R = np.empty_like(L)
    L[:, :, :m], R[:, :, :m] = _gamma_logs(1, m, lam * s, log_s)
    L[:, :, :m] += np.arange(1, m + 1) * np.log(lam)[..., None]
    L[:, :, m:] = log_s[:, None] * np.arange(n - m)
    R[:, :, m:] = _power_rel(L[0, :, m:])
    return L, R


def _cdf_max_col(n, m, svals, lams, cfg) -> List[EvalReport]:
    prefs = [_col_pref_max(n, m, svals)] * len(lams)
    return _probabilities(prefs, *_col_max_base(n, m, svals, lams), cfg, "cdf_max_col",
                          (n, m, svals), zip(lams))


def _doubly_max_base(n, m, rvals, svals, lams):
    """Stacked doubly cdf_max matrices: g_n(lam r s) rows, then (lam s)^-i
    rows for i = 1..n-m; also lam r s and the prefactors."""
    lam = np.asarray(lams, dtype=float)[:, None, None]
    s = np.asarray(svals, dtype=float)
    x = lam * np.asarray(rvals, dtype=float)[:, None] * s
    L = np.empty((len(lams), n, n))
    R = np.empty_like(L)
    L[:, :m], R[:, :m] = log_doubly_g(n, x), _EPS * (20.0 + x)
    L[:, m:] = -np.arange(1, n - m + 1)[:, None] * np.log(lam * s)
    R[:, m:] = _power_rel(L[:, m:])
    M = n * (n - 1) // 2
    prefs = _with_logs(_doubly_pref_max(n, m, rvals, svals), (n * n - M) * np.log(lams))
    return L, R, x, prefs


def _cdf_max_doubly(n, m, rvals, svals, lams, cfg) -> List[EvalReport]:
    L, R, _, prefs = _doubly_max_base(n, m, rvals, svals, lams)
    return _probabilities(prefs, L, R, cfg, "cdf_max_doubly", (n, m, rvals, svals), zip(lams))


# ---------------------------------------------------------------------------
# CDF (survival) of the smallest eigenvalue


def cdf_min(case: ModelCase, lam: float, cfg: EvalConfig = _DEFAULT_CONFIG) -> EvalReport:
    """Pr(smallest eigenvalue of Z^H Z >= lam) for a validated model case.

    For the doubly correlated model this requires m = n; the m < n law has
    no closed determinant form (the extra zero eigenvalues of the padded
    problem pin the smallest eigenvalue at zero).
    """
    return _cdf_min_grid(case, [lam], cfg)[0]


def _cdf_min_grid(case: ModelCase, lams: Sequence[float],
                  cfg: EvalConfig = _DEFAULT_CONFIG) -> List[EvalReport]:
    return _by_model(case, lams, cfg, _cdf_min_row, _cdf_min_col, _cdf_min_doubly)


def _row_min_base(n, m, svals, lams):
    """Stacked row cdf_min matrices (`_row_min_logs`) and prefactors."""
    prefs = _with_logs(_row_pref(n, m, svals), -np.asarray(lams, dtype=float) * sum(svals))
    return (*_row_min_logs(n - m + 1, n, lams, svals), prefs)


def _cdf_min_row(n, m, svals, lams, cfg) -> List[EvalReport]:
    if n == m:
        # determinant is lambda-free; survival is a pure exponential
        decay = -np.asarray(lams, dtype=float) * sum(svals)
        return [_finalize(SignedLogValue.from_log(1, d), (5.0 - d) * _EPS, 0.0, cfg, [], None,
                          True) for d in decay.tolist()]
    L, R, prefs = _row_min_base(n, m, svals, lams)
    return _probabilities(prefs, L, R, cfg, "cdf_min_row", (n, m, svals), zip(lams))


def _col_min_base(n, m, svals, lams):
    """Stacked column cdf_min matrices: inverse powers, then exponentials;
    also the prefactors."""
    lam = np.asarray(lams, dtype=float)[:, None, None]
    s = np.asarray(svals, dtype=float)[:, None]
    L = np.empty((len(lams), n, n))
    L[:, :, :m] = -np.arange(1, m + 1) * np.log(s)
    L[:, :, m:] = lam * s + np.arange(n - m) * np.log(s)
    prefs = _with_logs(_col_pref_min(n, m, svals), -np.asarray(lams, dtype=float) * sum(svals))
    return L, _power_rel(L), prefs


def _cdf_min_col(n, m, svals, lams, cfg) -> List[EvalReport]:
    L, R, prefs = _col_min_base(n, m, svals, lams)
    return _probabilities(prefs, L, R, cfg, "cdf_min_col", (n, m, svals), zip(lams))


def _doubly_min_base(n, m, rvals, svals, lams):
    """Stacked doubly cdf_min matrices exp(-lam r s) and prefactors."""
    if m != n:
        raise ValueError("smallest-eigenvalue law for the doubly correlated model requires m = n")
    L = (-np.asarray(lams, dtype=float)[:, None, None]
         * np.asarray(rvals, dtype=float)[None, :, None]
         * np.asarray(svals, dtype=float)[None, None, :])
    prefs = _with_logs(_doubly_pref_min(n, rvals, svals), -(n * (n - 1) // 2) * np.log(lams))
    return L, _power_rel(L), prefs


def _cdf_min_doubly(n, m, rvals, svals, lams, cfg) -> List[EvalReport]:
    L, R, prefs = _doubly_min_base(n, m, rvals, svals, lams)
    return _probabilities(prefs, L, R, cfg, "cdf_min_doubly", (n, rvals, svals), zip(lams))


# ---------------------------------------------------------------------------
# gap probability (row-correlated analytics)


def prob_gap(case: RowCorrelated, a: float, b: float,
             cfg: EvalConfig = _DEFAULT_CONFIG) -> EvalReport:
    """Pr(no eigenvalue in (0, a) and none in (b, inf)), row model, 0 < a < b."""
    return _prob_gap_grid(case, [(a, b)], cfg)[0]


def _gap_base(n, m, svals, points):
    """Stacked gap matrices: Gamma(k) [P(k, s b) - P(k, s a)] / s^k, orders k.
    Where P(k, s a) > 1/2 the difference is Q(k, s a) - Q(k, s b), from the
    logs of the finite Q sums, which keep their digits where P rounds to 1."""
    ends = np.asarray(points, dtype=float)[:, :, None] * np.asarray(svals, dtype=float)
    p, err, _ = reg_lower_gamma_orders(n - m + 1, n, ends)
    orders = np.arange(n - m + 1, n + 1)
    upper = p[:, 0] > 0.5
    with np.errstate(divide="ignore", invalid="ignore"):
        diff = p[:, 1] - p[:, 0]
        log_diff, R = np.log(diff), (err[:, 0] + err[:, 1]) / diff
        if upper.any():
            log_q = _log_exp_partial_sums(n - m + 1, n, ends) - ends[..., None]
            gap = -np.expm1(log_q[:, 1] - log_q[:, 0])
            log_diff = np.where(upper, log_q[:, 0] + np.log(gap), log_diff)
            size = 10.0 + orders + 2.0 * ends[:, 1, :, None] * (1.0 + orders)  # of log Q
            R = np.where(upper, size * _EPS * (2.0 - gap) / gap, R)
        live = np.isfinite(log_diff)
        L = np.where(live, [math.lgamma(a) for a in orders] + log_diff
                     - orders * np.log(np.asarray(svals, dtype=float))[:, None], -np.inf)
    return L, np.where(live, R, 1.0)


def _prob_gap_grid(case: RowCorrelated, points: Sequence[Tuple[float, float]],
                   cfg: EvalConfig = _DEFAULT_CONFIG) -> List[EvalReport]:
    points = _gap_points(case, points, "gap probability")
    n, m = case.dims.n, case.dims.m
    svals = list(case.s)
    prefs = [_row_pref(n, m, svals)] * len(points)
    return _probabilities(prefs, *_gap_base(n, m, svals, points), cfg, "prob_gap_row",
                          (n, m, svals), points)


# ---------------------------------------------------------------------------
# densities: Jacobi's formula on the CDF's matrices and entry log-derivatives


def pdf_max(case: ModelCase, lam: float, cfg: EvalConfig = _DEFAULT_CONFIG) -> EvalReport:
    """Density of the largest eigenvalue at lam (nonnegative).

    The lambda-derivative of the `cdf_max` determinant formula, from one
    factorisation of its matrix by Jacobi's formula; analytic for every
    model (the doubly correlated g_n rows through g_n' = g_(n+1) - g_n).
    """
    return _pdf_max_grid(case, [lam], cfg)[0]


def _pdf_max_grid(case: ModelCase, lams: Sequence[float],
                  cfg: EvalConfig = _DEFAULT_CONFIG) -> List[EvalReport]:
    return _by_model(case, lams, cfg, _pdf_max_row, _pdf_max_col, _pdf_max_doubly)


def _pdf_max_row(n, m, svals, lams, cfg) -> List[EvalReport]:
    # d/dlam lam^a E_a(lam s) = lam^(a-1) e^-x: e^-x / (lam E_a(x)) less the
    # column constants a/lam, which sum to the prefactor's (nm - M)/lam
    L, R, x, prefs = _row_max_base(n, m, svals, lams)
    D = np.exp(-x[..., None] - L) / np.asarray(lams, dtype=float)[:, None, None]
    return _densities(prefs, L, R, [D], 1.0, cfg)


def _pdf_max_col(n, m, svals, lams, cfg) -> List[EvalReport]:
    # the gamma columns lam^k E_k(lam s) have derivative lam^(k-1) e^(-lam s)
    L, R = _col_max_base(n, m, svals, lams)
    lam = np.asarray(lams, dtype=float)[:, None, None]
    D = np.zeros_like(L)
    D[:, :, :m] = np.exp(np.arange(m) * np.log(lam) - lam * np.asarray(svals)[:, None]
                         - L[:, :, :m])
    prefs = [_col_pref_max(n, m, svals)] * len(lams)
    return _densities(prefs, L, R, [D], 1.0, cfg)


def _pdf_max_doubly(n, m, rvals, svals, lams, cfg) -> List[EvalReport]:
    # g_n'(x) = -(g_n(x) - g_(n+1)(x)); each (lam s)^-i row has the constant -i/lam
    L, R, x, prefs = _doubly_max_base(n, m, rvals, svals, lams)
    lam = np.asarray(lams, dtype=float)
    D = np.zeros_like(L)
    D[:, :m] = x / lam[:, None, None] * np.expm1(log_doubly_g(n + 1, x) - L[:, :m])
    consts = (n * n - n * (n - 1) // 2 - (n - m) * (n - m + 1) // 2) / lam
    return _densities(prefs, L, R, [D], 1.0, cfg, consts.tolist())


def pdf_min(case: ModelCase, lam: float, cfg: EvalConfig = _DEFAULT_CONFIG) -> EvalReport:
    """Density of the smallest eigenvalue at lam (nonnegative).

    Minus the lambda-derivative of the `cdf_min` determinant formula, from
    one factorisation of its matrix by Jacobi's formula; the doubly
    correlated model requires m = n.
    """
    return _pdf_min_grid(case, [lam], cfg)[0]


def _pdf_min_grid(case: ModelCase, lams: Sequence[float],
                  cfg: EvalConfig = _DEFAULT_CONFIG) -> List[EvalReport]:
    return _by_model(case, lams, cfg, _pdf_min_row, _pdf_min_col, _pdf_min_doubly)


def _pdf_min_row(n, m, svals, lams, cfg) -> List[EvalReport]:
    ssum = sum(svals)
    if n == m:  # the survival e^(-lam sum s) in closed form (see _cdf_min_row)
        return [_finalize(SignedLogValue.from_value(ssum * math.exp(-lam * ssum)),
                          (5.0 + lam * ssum) * _EPS, 0.0, cfg, [], None, False) for lam in lams]
    # d F_a / d lam = s F_a - lam^(a-1): the row constants s cancel the
    # prefactor's e^(-lam sum s)
    L, R, prefs = _row_min_base(n, m, svals, lams)
    D = -np.exp(np.arange(n - m, n) * np.log(np.asarray(lams, dtype=float))[:, None, None] - L)
    return _densities(prefs, L, R, [D], -1.0, cfg)


def _pdf_min_col(n, m, svals, lams, cfg) -> List[EvalReport]:
    # the exponential columns have log-derivative s; taking that row
    # constant out leaves -s on the power columns and cancels e^(-lam sum s)
    L, R, prefs = _col_min_base(n, m, svals, lams)
    D = np.zeros((n, n))
    D[:, :m] = -np.asarray(svals, dtype=float)[:, None]
    return _densities(prefs, L, R, [D], -1.0, cfg)


def _pdf_min_doubly(n, m, rvals, svals, lams, cfg) -> List[EvalReport]:
    L, R, prefs = _doubly_min_base(n, m, rvals, svals, lams)
    D = -np.outer(rvals, svals)
    consts = -(n * (n - 1) // 2) / np.asarray(lams, dtype=float)
    return _densities(prefs, L, R, [D], -1.0, cfg, consts.tolist())


def pdf_joint_minmax(case: RowCorrelated, a: float, b: float,
                     cfg: EvalConfig = _DEFAULT_CONFIG) -> EvalReport:
    """Joint density of (smallest, largest) eigenvalue at (a, b), row model.

    Minus the mixed partial of the `prob_gap` determinant formula, from one
    factorisation of its matrix by Jacobi's formula (each entry is an
    integral from a to b, so no entry has a mixed term).  Identically zero
    at m = 1 (one eigenvalue cannot sit at two points).
    """
    return _pdf_joint_grid(case, [(a, b)], cfg)[0]


def _pdf_joint_grid(case: RowCorrelated, points: Sequence[Tuple[float, float]],
                    cfg: EvalConfig = _DEFAULT_CONFIG) -> List[EvalReport]:
    points = _gap_points(case, points, "joint density")
    n, m = case.dims.n, case.dims.m
    svals = list(case.s)
    if m == 1:
        return [EvalReport(0.0, 0.0, 0.0, []) for _ in points]
    L, R = _gap_base(n, m, svals, points)
    # d/db int_a^b t^(k-1) e^(-s t) dt = b^(k-1) e^(-s b), and d/da is minus
    # the same at a; zero entries (-inf logs) stay zero
    ends = np.asarray(points, dtype=float)[:, :, None, None]
    slope = np.exp(np.arange(n - m, n) * np.log(ends)
                   - np.asarray(svals, dtype=float)[:, None] * ends - L[:, None])
    slope[~np.isfinite(L[:, None]).repeat(2, axis=1)] = 0.0
    prefs = [_row_pref(n, m, svals)] * len(points)
    return _densities(prefs, L, R, [-slope[:, 0], slope[:, 1]], -1.0, cfg)
