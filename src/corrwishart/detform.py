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
the mpmath re-evaluation in `corrwishart.extended`.

Probability values are clamped to [0, 1] on output; the pre-clamp residual
is recorded in the report's warnings when it exceeds 1e-8.  Densities are
returned as nonnegative functions of lambda (the derivative sign is chosen
so that they integrate to one).
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
from .specfun import (log_doubly_g, log_gamma_entries, log_shifted_power_integrals,
                      reg_lower_gamma_orders)

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


def _slv_sum(terms: Sequence[SignedLogValue]) -> Tuple[SignedLogValue, float]:
    """Sum signed log values; also return decimal digits lost to cancellation."""
    live = [t for t in terms if t.sign != 0]
    if not live:
        return SignedLogValue.zero(), 0.0
    top = max(t.log_magnitude for t in live)
    acc = 0.0
    gross = 0.0
    for t in live:
        w = math.exp(t.log_magnitude - top)
        acc += t.sign * w
        gross += w
    if acc == 0.0:
        return SignedLogValue.zero(), 16.0 + math.log10(max(gross, 1.0))
    cancel = math.log10(gross / abs(acc)) if gross > abs(acc) else 0.0
    return SignedLogValue.from_value(acc) * SignedLogValue.from_log(1, top), cancel


# ---------------------------------------------------------------------------
# determinant kernel: one LAPACK call per stack (shared by the public logdet
# and the entry path)


def _scaled_det(A: np.ndarray, rel_entries: Optional[np.ndarray]):
    """Determinants of a stack ``A`` (G, N, N) whose rows and columns are
    scaled to magnitude about one.

    Returns arrays (sign, log |det|, cancellation digits, relative error).
    The cancellation is the Hadamard bound over |det| in decimal digits.
    The error is the roundoff N eps (1 + growth), with the partial-pivoting
    growth taken as its measured value 1, amplified by that cancellation,
    plus the first-order propagation sum |A^-T| * rel_entries * |A| when
    entry relative errors are given.  An exactly singular member gets sign 0 and infinite
    cancellation and error; it is left out of the inverse.
    """
    N = A.shape[-1]
    sign, log_abs = np.linalg.slogdet(A)
    singular = sign == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        hadamard = (0.5 * np.log((A * A).sum(axis=-1))).sum(axis=-1)
        cancel = np.maximum((hadamard - log_abs) / _LN10, 0.0)
    rel = N * _EPS * 2.0 * 10.0 ** np.minimum(cancel, 250.0)
    live = slice(None)  # a plain view unless some member is singular
    if singular.any():
        live = ~singular
        cancel[singular] = math.inf
        rel[singular] = math.inf
    if rel_entries is not None and not singular.all():
        A_live = A[live]
        inv = np.linalg.inv(A_live)
        prop = np.abs(np.swapaxes(inv, -1, -2)) * rel_entries[live] * np.abs(A_live)
        rel[live] += prop.reshape(len(A_live), -1).sum(axis=-1)
    return sign, log_abs, cancel, rel


@dataclass
class _DetInfo:
    slv: SignedLogValue
    cancel_digits: float
    rel_err: float


def _det_from_logs(log_entries: np.ndarray,
                   entry_rel_err: Optional[np.ndarray] = None):
    """Determinant of a matrix given as logs of its (positive) entries.

    ``log_entries`` is one matrix (N, N), giving one `_DetInfo`, or a stack
    (G, N, N), giving a list of G of them from a single batched call.  Each
    member's rows, then columns, are shifted in log space to a largest
    entry of one before exponentiating.  A member with a row of zeros or a
    column that underflows to zero is an exact zero (no cancellation).
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
    sign, log_abs, cancel, rel = _scaled_det(A, rel_entries)
    if any_zero:
        sign[zero] = cancel[zero] = rel[zero] = 0.0
    out = [_DetInfo(SignedLogValue.from_log(int(s), lg), c, r)
           for s, lg, c, r in zip(sign.tolist(), (log_abs + shift).tolist(),
                                  cancel.tolist(), rel.tolist())]
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
    sign, log_abs, cancel, rel = _scaled_det(work[None], rel_entries)
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
    evaluation through mpmath at ``extended_dps`` significant digits when
    its cancellation diagnostic exceeds ``cancellation_warn_digits``.
    """

    precision: str = "double"
    extended_dps: int = 40
    cancellation_warn_digits: float = 12.0

    def __post_init__(self):
        if self.precision not in ("double", "extended"):
            raise ValueError(f"unknown precision {self.precision!r}")
        if self.extended_dps < 30:
            raise ValueError("extended_dps must guarantee >= 30 digits")


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
              extended_fn: Optional[Callable[[int], float]],
              is_probability: bool) -> EvalReport:
    value = slv.to_float()
    if cancel > cfg.cancellation_warn_digits:
        warnings.append(
            f"cancellation:{cancel:.1f} digits lost; double-precision result "
            "unreliable"
        )
        if cfg.precision == "extended" and extended_fn is not None:
            value = extended_fn(cfg.extended_dps)
            warnings.append(
                f"extended:re-evaluated at >= {cfg.extended_dps} digits")
            # the re-evaluation self-validates by agreement of two precisions
            rel_err = 10.0 ** (10.0 - cfg.extended_dps)
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


def _ext(name: str, *args) -> Callable[[int], float]:
    """Deferred mpmath re-evaluation ``extended.<name>(*args, dps)``."""
    def run(dps):
        from . import extended
        return getattr(extended, name)(*args, dps)
    return run


def _probabilities(prefs: Sequence[SignedLogValue], dets: Sequence[_DetInfo], cfg: EvalConfig,
                   name: str, args: tuple, points) -> List[EvalReport]:
    """One report per point: prefactor times determinant, re-evaluated by
    ``extended.<name>(*args, *point, dps)`` when configured."""
    return [_finalize(pref * det.slv, det.rel_err, det.cancel_digits, cfg, [],
                      _ext(name, *args, *point), True)
            for pref, det, point in zip(prefs, dets, points)]


def _density(terms: Sequence[SignedLogValue], dets: Sequence[_DetInfo],
             cfg: EvalConfig) -> EvalReport:
    """Density summed from determinant terms.

    The determinants' own errors and the roundoff of the sum are both
    amplified by the cancellation of the sum.
    """
    total, sum_cancel = _slv_sum(terms)
    cancel = max([sum_cancel] + [d.cancel_digits for d in dets])
    rel = ((sum(d.rel_err for d in dets) + len(terms) * _EPS)
           * 10.0 ** min(sum_cancel, 250.0))
    return _finalize(total, rel, cancel, cfg, [], None, False)


def _replaced_dets(base: np.ndarray, base_rel: np.ndarray,
                   replacements) -> List[List[_DetInfo]]:
    """Determinants of column-replaced copies of G base matrices, per point.

    ``replacements[k]`` lists the (column, logs (G, N), relative errors
    (G, N)) put into copy k of every base matrix; an empty list keeps the
    base matrix itself.  All G*K determinants come from one kernel call;
    point g gets its K copies in order.
    """
    G, N = base.shape[0], base.shape[-1]
    K = len(replacements)
    L = np.repeat(base[:, None], K, axis=1)
    R = np.repeat(base_rel[:, None], K, axis=1)
    for k, cols in enumerate(replacements):
        for c, logs, rels in cols:
            L[:, k, :, c] = logs
            R[:, k, :, c] = rels
    dets = _det_from_logs(L.reshape(G * K, N, N), R.reshape(G * K, N, N))
    return [dets[g * K:(g + 1) * K] for g in range(G)]


def _power_col(c: int, logs: np.ndarray):
    return c, logs, _power_rel(logs)


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


def _no_doubly_min(n: int, m: int) -> None:
    if m != n:
        raise ValueError("smallest-eigenvalue law for the doubly correlated model requires m = n")


# ---------------------------------------------------------------------------
# CDF of the largest eigenvalue


def cdf_max(case: ModelCase, lam: float, cfg: EvalConfig = _DEFAULT_CONFIG) -> EvalReport:
    """Pr(largest eigenvalue of Z^H Z <= lam) for a validated model case."""
    return _cdf_max_grid(case, [lam], cfg)[0]


def _cdf_max_grid(case: ModelCase, lams: Sequence[float],
                  cfg: EvalConfig = _DEFAULT_CONFIG) -> List[EvalReport]:
    return _by_model(case, lams, cfg, _cdf_max_row, _cdf_max_col, _cdf_max_doubly)


def _cdf_max_row(n, m, svals, lams, cfg) -> List[EvalReport]:
    x = np.asarray(lams, dtype=float)[:, None] * np.asarray(svals, dtype=float)
    dets = _det_from_logs(*_gamma_logs(n - m + 1, n, x, np.log(x)))
    M = m * (m - 1) // 2
    prefs = _with_logs(_row_pref(n, m, svals), (n * m - M) * np.log(lams))
    return _probabilities(prefs, dets, cfg, "cdf_max_row", (n, m, svals), zip(lams))


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
    dets = _det_from_logs(*_col_max_base(n, m, svals, lams))
    prefs = [_col_pref_max(n, m, svals)] * len(lams)
    return _probabilities(prefs, dets, cfg, "cdf_max_col", (n, m, svals), zip(lams))


def _cdf_max_doubly(n, m, rvals, svals, lams, cfg) -> List[EvalReport]:
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
    return _probabilities(prefs, _det_from_logs(L, R), cfg, "cdf_max_doubly",
                          (n, m, rvals, svals), zip(lams))


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


def _cdf_min_row(n, m, svals, lams, cfg) -> List[EvalReport]:
    decay = -np.asarray(lams, dtype=float) * sum(svals)
    if n == m:
        # determinant is lambda-free; survival is a pure exponential
        return [_finalize(SignedLogValue.from_log(1, d), (5.0 - d) * _EPS, 0.0, cfg, [], None,
                          True) for d in decay.tolist()]
    dets = _det_from_logs(*_row_min_logs(n - m + 1, n, lams, svals))
    prefs = _with_logs(_row_pref(n, m, svals), decay)
    return _probabilities(prefs, dets, cfg, "cdf_min_row", (n, m, svals), zip(lams))


def _col_min_base(n, m, svals, lams):
    """Stacked column cdf_min matrices: inverse powers, then exponentials."""
    lam = np.asarray(lams, dtype=float)[:, None, None]
    s = np.asarray(svals, dtype=float)[:, None]
    L = np.empty((len(lams), n, n))
    L[:, :, :m] = -np.arange(1, m + 1) * np.log(s)
    L[:, :, m:] = lam * s + np.arange(n - m) * np.log(s)
    return L, _power_rel(L)


def _cdf_min_col(n, m, svals, lams, cfg) -> List[EvalReport]:
    dets = _det_from_logs(*_col_min_base(n, m, svals, lams))
    prefs = _with_logs(_col_pref_min(n, m, svals), -np.asarray(lams) * sum(svals))
    return _probabilities(prefs, dets, cfg, "cdf_min_col", (n, m, svals), zip(lams))


def _doubly_min_base(rvals, svals, lams):
    L = (-np.asarray(lams, dtype=float)[:, None, None]
         * np.asarray(rvals, dtype=float)[None, :, None]
         * np.asarray(svals, dtype=float)[None, None, :])
    return L, _power_rel(L)


def _cdf_min_doubly(n, m, rvals, svals, lams, cfg) -> List[EvalReport]:
    _no_doubly_min(n, m)
    dets = _det_from_logs(*_doubly_min_base(rvals, svals, lams))
    prefs = _with_logs(_doubly_pref_min(n, rvals, svals), -(n * (n - 1) // 2) * np.log(lams))
    return _probabilities(prefs, dets, cfg, "cdf_min_doubly", (n, rvals, svals), zip(lams))


# ---------------------------------------------------------------------------
# gap probability and densities (row-correlated analytics)


def prob_gap(case: RowCorrelated, a: float, b: float,
             cfg: EvalConfig = _DEFAULT_CONFIG) -> EvalReport:
    """Pr(no eigenvalue in (0, a) and none in (b, inf)), row model, 0 < a < b."""
    return _prob_gap_grid(case, [(a, b)], cfg)[0]


def _gap_base(n, m, svals, points):
    """Stacked gap matrices: Gamma(a) [P(a, s b) - P(a, s a)] / s^a."""
    ends = np.asarray(points, dtype=float)[:, :, None] * np.asarray(svals, dtype=float)
    p, err, _ = reg_lower_gamma_orders(n - m + 1, n, ends)
    diff = p[:, 1] - p[:, 0]
    live = diff > 0.0
    orders = np.arange(n - m + 1, n + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        L = np.where(live, [math.lgamma(a) for a in orders] + np.log(diff)
                     - orders * np.log(np.asarray(svals, dtype=float))[:, None], -np.inf)
        R = np.where(live, (err[:, 0] + err[:, 1]) / diff, 1.0)
    return L, R


def _prob_gap_grid(case: RowCorrelated, points: Sequence[Tuple[float, float]],
                   cfg: EvalConfig = _DEFAULT_CONFIG) -> List[EvalReport]:
    points = _gap_points(case, points, "gap probability")
    n, m = case.dims.n, case.dims.m
    svals = list(case.s)
    dets = _det_from_logs(*_gap_base(n, m, svals, points))
    prefs = [_row_pref(n, m, svals)] * len(points)
    return _probabilities(prefs, dets, cfg, "prob_gap_row", (n, m, svals), points)


def pdf_max(case: ModelCase, lam: float, cfg: EvalConfig = _DEFAULT_CONFIG) -> EvalReport:
    """Density of the largest eigenvalue at lam (nonnegative).

    Row and column cases differentiate the determinant column by column
    (the lambda dependence sits in single-column integrals); the doubly
    correlated case uses a Richardson-extrapolated central difference of
    the CDF.
    """
    return _pdf_max_grid(case, [lam], cfg)[0]


def _pdf_max_grid(case: ModelCase, lams: Sequence[float],
                  cfg: EvalConfig = _DEFAULT_CONFIG) -> List[EvalReport]:
    return _by_model(case, lams, cfg, _pdf_max_row, _pdf_max_col, _pdf_max_doubly)


def _pdf_max_row(n, m, svals, lams, cfg) -> List[EvalReport]:
    # unscaled entries int_0^lam t^(a-1) e^(-s t) dt = Gamma(a) P(a, lam s) / s^a,
    # so that the lambda dependence sits entirely inside the columns
    lam = np.asarray(lams, dtype=float)[:, None]
    x = lam * np.asarray(svals, dtype=float)
    base, base_rel = _gamma_logs(n - m + 1, n, x, np.log(x))
    base += np.arange(n - m + 1, n + 1) * np.log(lam)[..., None]
    per_point = _replaced_dets(base, base_rel, [
        [_power_col(c, (n - m + c) * np.log(lam) - x)] for c in range(m)])
    pref = _row_pref(n, m, svals)
    return [_density([pref * d.slv for d in dets], dets, cfg) for dets in per_point]


def _pdf_max_col(n, m, svals, lams, cfg) -> List[EvalReport]:
    base, base_rel = _col_max_base(n, m, svals, lams)
    lam = np.asarray(lams, dtype=float)[:, None]
    decay = lam * np.asarray(svals, dtype=float)
    per_point = _replaced_dets(base, base_rel, [
        [_power_col(c, c * np.log(lam) - decay)] for c in range(m)])
    pref = _col_pref_max(n, m, svals)
    return [_density([pref * d.slv for d in dets], dets, cfg) for dets in per_point]


def _pdf_max_doubly(n, m, rvals, svals, lams, cfg) -> List[EvalReport]:
    """Richardson-extrapolated central differences of the CDF, whose four
    points per lambda are evaluated as one grid."""
    steps = [h if h < 0.5 * lam else 0.25 * lam
             for lam, h in ((lam, max(1e-5, 1e-4 * lam)) for lam in lams)]
    points = [p for lam, h in zip(lams, steps)
              for p in (lam + h, lam - h, lam + h / 2, lam - h / 2)]
    cdfs = _cdf_max_doubly(n, m, rvals, svals, points, cfg)
    return [_fd_density(cdfs[4 * g:4 * g + 4], h) for g, h in enumerate(steps)]


def _fd_density(reports: Sequence[EvalReport], h: float) -> EvalReport:
    """Density from CDF reports at lam + h, lam - h, lam + h/2, lam - h/2."""
    up, down, up_half, down_half = (r.value for r in reports)
    d1 = (up - down) / (2 * h)
    d2 = (up_half - down_half) / h
    deriv = (4.0 * d2 - d1) / 3.0
    err = abs(deriv - d2) + sum(r.abs_error_estimate for r in reports) / h
    cancel = max(r.cancellation_digits for r in reports)
    warnings = []
    value = deriv
    if value < 0.0:
        if value < -1e-8:
            warnings.append(f"clamp:negative density {value:.3e} set to 0")
        value = 0.0
    return EvalReport(value, err, cancel, warnings)


def pdf_min(case: ModelCase, lam: float, cfg: EvalConfig = _DEFAULT_CONFIG) -> EvalReport:
    """Density of the smallest eigenvalue at lam (nonnegative).

    Analytic column differentiation for the row and column models and for
    the doubly correlated model at m = n (where the entries are pure
    exponentials and the prefactor contributes through the product rule).
    """
    return _pdf_min_grid(case, [lam], cfg)[0]


def _pdf_min_grid(case: ModelCase, lams: Sequence[float],
                  cfg: EvalConfig = _DEFAULT_CONFIG) -> List[EvalReport]:
    return _by_model(case, lams, cfg, _pdf_min_row, _pdf_min_col, _pdf_min_doubly)


def _pdf_min_row(n, m, svals, lams, cfg) -> List[EvalReport]:
    ssum = sum(svals)
    if n == m:
        return [_finalize(SignedLogValue.from_value(ssum * math.exp(-lam * ssum)),
                          (5.0 + lam * ssum) * _EPS, 0.0, cfg, [], None, False)
                for lam in lams]
    # Only the first column survives differentiation: every other derived
    # column is proportional to its left neighbour.  Order n - m fills it.
    logs, rels = _row_min_logs(n - m, n, lams, svals)
    per_point = _replaced_dets(logs[..., 1:], rels[..., 1:],
                               [[], [(0, logs[..., 0], rels[..., 0])]])
    prefs = _with_logs(_row_pref(n, m, svals), -np.asarray(lams) * ssum)
    return [_density([pref * SignedLogValue.from_value(ssum) * det0.slv,
                      pref * SignedLogValue.from_value(-(n - m)) * det1.slv], [det0, det1], cfg)
            for pref, (det0, det1) in zip(prefs, per_point)]


def _pdf_min_col(n, m, svals, lams, cfg) -> List[EvalReport]:
    # Differentiating exponential column m+c gives a copy of column m+c+1
    # for every c < n-m-1, so only the last exponential column survives.
    base, base_rel = _col_min_base(n, m, svals, lams)
    replacements = [[]]
    if n > m:
        last = (np.asarray(lams, dtype=float)[:, None] * np.asarray(svals, dtype=float)
                + (n - m) * np.log(np.asarray(svals, dtype=float)))
        replacements.append([_power_col(n - 1, last)])
    ssum = sum(svals)
    prefs = _with_logs(_col_pref_min(n, m, svals), -np.asarray(lams) * ssum)
    return [_density([pref * SignedLogValue.from_value(ssum) * dets[0].slv]
                     + [pref * SignedLogValue.from_value(-1.0) * d.slv for d in dets[1:]],
                     dets, cfg)
            for pref, dets in zip(prefs, _replaced_dets(base, base_rel, replacements))]


def _pdf_min_doubly(n, m, rvals, svals, lams, cfg) -> List[EvalReport]:
    _no_doubly_min(n, m)
    base, base_rel = _doubly_min_base(rvals, svals, lams)
    # column c of every matrix differentiated: r_j s_c exp(-lam r_j s_c)
    rs = np.asarray(rvals, dtype=float)[:, None] * np.asarray(svals, dtype=float)
    lam = np.asarray(lams, dtype=float)[:, None]
    replacements = [[]] + [[_power_col(c, np.log(rs[:, c]) - lam * rs[:, c])] for c in range(n)]
    M = n * (n - 1) // 2
    prefs = _with_logs(_doubly_pref_min(n, rvals, svals), -M * np.log(lams))
    return [_density(([pref * SignedLogValue.from_value(M / lam) * dets[0].slv] if M > 0 else [])
                     + [pref * d.slv for d in dets[1:]], dets, cfg)
            for lam, pref, dets in zip(lams, prefs, _replaced_dets(base, base_rel, replacements))]


def pdf_joint_minmax(case: RowCorrelated, a: float, b: float,
                     cfg: EvalConfig = _DEFAULT_CONFIG) -> EvalReport:
    """Joint density of (smallest, largest) eigenvalue at (a, b), row model.

    The mixed partial of the gap probability: a sum over ordered column
    pairs of determinants with one column differentiated at each endpoint.
    Identically zero at m = 1 (one eigenvalue cannot sit at two points).
    """
    return _pdf_joint_grid(case, [(a, b)], cfg)[0]


def _pdf_joint_grid(case: RowCorrelated, points: Sequence[Tuple[float, float]],
                    cfg: EvalConfig = _DEFAULT_CONFIG) -> List[EvalReport]:
    points = _gap_points(case, points, "joint density")
    n, m = case.dims.n, case.dims.m
    svals = list(case.s)
    if m == 1:
        return [EvalReport(0.0, 0.0, 0.0, []) for _ in points]
    base, base_rel = _gap_base(n, m, svals, points)
    a, b = (np.array([p[i] for p in points])[:, None] for i in (0, 1))
    s = np.asarray(svals, dtype=float)
    pairs = [(c1, c2) for c1 in range(m) for c2 in range(m) if c1 != c2]
    per_point = _replaced_dets(base, base_rel, [
        [_power_col(c1, (n - m + c1) * np.log(a) - s * a),
         _power_col(c2, (n - m + c2) * np.log(b) - s * b)] for c1, c2 in pairs])
    pref = _row_pref(n, m, svals)
    return [_density([pref * d.slv for d in dets], dets, cfg) for dets in per_point]
