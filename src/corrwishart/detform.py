"""Determinant-formula evaluation of the extreme-eigenvalue distributions.

Each (model, statistic) pair reduces to a single m x m or n x n
determinant whose entries are incomplete-gamma, confluent-hypergeometric
or pure-exponential values, multiplied by a prefactor of factorials,
spectral powers and Vandermonde products.  Each law is described once, as
data (`_LAWS`): its prefactor, and its matrix as blocks of columns, each
one of six entry families (`_Law`) over a range of orders or over the
other spectrum.  The row model's three
laws are one quantity, Pr(no eigenvalue outside an interval), a
determinant of int_a^b t^(k-1) e^(-v t) dt, read at three kinds of point:
at a = 0 as the ``lamE`` family, and at (a, b) and at a one-value point
(lam,), the tail (lam, inf), as the ``gap`` family: one positive sum over
a seed row, whose tail row is the interval's at b = inf.  Raw
magnitudes of those pieces overflow double precision long before the
probabilities become interesting, so a law is evaluated on a grid of
points as the logs of its entries and of its prefactor, held as arrays
(`_entries`) for chunks of points of bounded size; each point's value
is exponentiated only once, from its sign and log magnitude
(`_finalize`).  What does not depend on the point
-- the law object, its prefactor's sign and lambda-free log (`_pref_log`),
the range check's bounds and the warnings every report starts from -- is
built once per (case, statistic) and cached on the frozen case (`_plan`).

The one genuine numerical weak point of these formulas is the Vandermonde
ratio for clustered spectra.  The engine therefore measures the decimal
digits lost between the largest intermediate magnitude and the result
(`cancellation_digits`), warns above a threshold, and -- when configured
with ``precision="extended"`` -- re-runs the affected probability through
the mpmath re-evaluation of the same law object, `extended.evaluate`,
which reads the spectra and the point exactly.  When no round of
that re-evaluation certifies itself within its precision limit, the
double-precision value and its estimate are kept and a ``nonconverged:``
warning says so.  A value that underflows a double carries its log10
magnitude in an ``underflow:`` warning.  A spectrum that
`validate_spectrum` nudged apart gives the law of the nudged spectrum, and
every report says so (``perturbed:``).

Probability values are clamped to [0, 1] on output; the pre-clamp residual
is recorded in the report's warnings when it exceeds 1e-8.  Densities are
the derivatives of the same determinants by Jacobi's formula, returned as
nonnegative functions of lambda (signed so that they integrate to one):
each family gives its entries' log-derivatives, and the constant terms
follow from the description.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .model import (
    PERTURB_EPS,
    ColumnCorrelated,
    DoublyCorrelated,
    ModelCase,
    RowCorrelated,
)
from .specfun import (_gamma_series_terms, _log_binomials, _log_factorials, _poisson_terms,
                      log_doubly_g, log_gamma_entries)

__all__ = [
    "EvalConfig",
    "EvalReport",
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
# the cancellation that flags a value
_WARN_DIGITS = 12.0


# ---------------------------------------------------------------------------
# determinant kernel: one slogdet and one inverse per stack, for every law


def _jacobi(A: np.ndarray, inv: np.ndarray, log_derivs, R: np.ndarray):
    """Jacobi's formula on a scaled stack: d det / det, the sum of its terms'
    magnitudes and its error, as arrays.

    ``log_derivs`` holds one or two arrays D with dA = A o D.  One gives
    tr X, X = A^-1 (A o D); two give the mixed derivative over det,
    tr X tr Y - tr(XY), summed as 2 x 2 principal minors (entries linear in
    each variable apart).  Scaling leaves X and Y similar, the values equal.
    The error is first order: roundoff 2 N eps on every scaled entry and the
    entry errors ``R`` through the sensitivity S (d value = -sum dA o S^T),
    plus the largest entry error and a few roundings on every term and on
    every entry of X and Y, whose errors are within |A^-1| |dA| times those
    and reach the value through d value / d X = (tr Y I - Y)^T (and X for Y).
    """
    G, N = len(A), A.shape[-1]
    dA = [A * D for D in log_derivs]
    X = [inv @ d for d in dA]
    diag = [np.diagonal(x, axis1=-2, axis2=-1) for x in X]
    if len(X) == 1:
        value = diag[0].sum(axis=-1)
        gross = spread = np.abs(inv.swapaxes(-1, -2) * dA[0]).reshape(G, -1).sum(axis=-1)
        S = X[0]
    else:
        tr = [d.sum(axis=-1)[:, None, None] for d in diag]
        Xt = X[0] * X[1].swapaxes(-1, -2)
        outer = diag[0][:, :, None] * diag[1][:, None, :]
        value = (outer - Xt).reshape(G, -1).sum(axis=-1)  # the diagonal is exactly 0
        gross = ((np.abs(outer) + np.abs(Xt)).reshape(G, -1).sum(axis=-1)
                 - 2.0 * np.abs(diag[0] * diag[1]).sum(axis=-1))
        S = tr[1] * X[0] + tr[0] * X[1] - X[0] @ X[1] - X[1] @ X[0]
        spread = gross + sum((np.abs(inv) @ np.abs(d) * np.abs(t * np.eye(N) - Z).swapaxes(-1, -2))
                             .reshape(G, -1).sum(axis=-1) for d, t, Z in zip(dA, tr[::-1], X[::-1]))
    S = np.abs(S @ inv)
    err = (2 * N * _EPS * S.reshape(G, -1).sum(axis=-1)
           + (R * np.abs(A) * S.swapaxes(-1, -2)).reshape(G, -1).sum(axis=-1)
           + (R.reshape(G, -1).max(axis=-1) + (N + 2) * _EPS) * spread)
    return value, gross, err


def _det_from_logs(log_entries: np.ndarray, entry_rel_err: np.ndarray,
                   log_derivs: Sequence[np.ndarray] = ()):
    """Determinants of a stack (G, N, N) of matrices given as logs of their
    (positive) entries, from a single batched call; ``entry_rel_err``, the
    entries' relative errors, has the shape of ``log_entries``.

    Returns arrays over the stack: sign, log |det|, cancellation digits and
    relative error; with ``log_derivs`` (one or two arrays of the entries'
    log-derivatives) also d det / det, its terms' magnitudes and its error by
    Jacobi's formula (`_jacobi`).  Each member's rows, then columns, are
    shifted in log space to a largest entry of one before exponentiating.  An
    empty (G, 0, 0) stack is one (sign 1, log 0, no cancellation and no
    error).  A column that underflows to zero under its rows' shifts leaves
    its member singular.

    The cancellation is the Hadamard bound over |det| of the scaled matrix A
    in decimal digits.  The error is the roundoff N eps (1 + growth), with
    the partial-pivoting growth taken as its measured value 1, amplified by
    that cancellation, plus the first-order propagation sum |A^-T| o
    ``entry_rel_err`` o |A|.  An exactly singular member gets sign 0,
    infinite cancellation and error.
    """
    L = np.asarray(log_entries, dtype=float)
    N = L.shape[-1]
    if N == 0:
        one, zero = np.ones(len(L)), np.zeros(len(L))
        return (one, zero, zero, zero) + (zero,) * (3 if len(log_derivs) else 0)
    row_shift = L.max(axis=-1)
    A = np.exp(L - row_shift[..., None])
    col_scale = A.max(axis=-2)
    underflowed = col_scale == 0.0
    if underflowed.any():
        col_scale[underflowed] = 1.0  # the column stays zero
    A /= col_scale[:, None, :]
    shift = row_shift.sum(axis=-1) + np.log(col_scale).sum(axis=-1)
    R = np.asarray(entry_rel_err, dtype=float)

    sign, log_abs = np.linalg.slogdet(A)
    singular = sign == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        hadamard = (0.5 * np.log((A * A).sum(axis=-1))).sum(axis=-1)
        cancel = np.maximum((hadamard - log_abs) / _LN10, 0.0)
    rel = N * _EPS * 2.0 * 10.0 ** np.minimum(cancel, 250.0)
    if singular.any():
        cancel[singular] = rel[singular] = math.inf
        inv = np.zeros_like(A)
        inv[~singular] = np.linalg.inv(A[~singular])
    else:
        inv = np.linalg.inv(A)
    # an ill-conditioned member's inverse overflows, its error then inf or nan
    with np.errstate(over="ignore", invalid="ignore"):
        rel += (np.abs(inv.swapaxes(-1, -2)) * R * np.abs(A)).reshape(len(A), -1).sum(axis=-1)
        derivs = _jacobi(A, inv, log_derivs, R) if len(log_derivs) else ()
    return (sign, log_abs + shift, cancel, rel, *derivs)


# ---------------------------------------------------------------------------
# evaluation configuration and reports


@dataclass(frozen=True)
class EvalConfig:
    """Precision policy for the determinant engine.

    ``precision="double"`` never escalates; ``"extended"`` re-runs a
    probability that lost more than `_WARN_DIGITS` digits to cancellation
    through mpmath (`extended.evaluate`, which sizes its rounds from those
    digits and certifies each value by its own error bound).  When no round
    is certified within its digit limit, the double-precision value is kept
    with a ``nonconverged:`` warning.  Densities are not escalated.
    """

    precision: str = "double"

    def __post_init__(self):
        if self.precision not in ("double", "extended"):
            raise ValueError(f"unknown precision {self.precision!r}")


_DEFAULT_CONFIG = EvalConfig()


@dataclass
class EvalReport:
    """Evaluated probability or density with reliability diagnostics."""

    value: float
    abs_error_estimate: float
    cancellation_digits: float
    warnings: List[str] = field(default_factory=list)


def _finalize(sign: float, log_mag: float, rel_err: float, cancel: float,
              cfg: EvalConfig, warnings: List[str], law: Optional[_Law], point: tuple,
              is_probability: bool) -> EvalReport:
    """One point's report from the sign and log magnitude of its value.

    An escalation evaluates ``law`` (None: never escalated) at ``point`` in
    mpmath (`extended.evaluate`).  A value that rounds to 0.0 from a nonzero
    sign and a finite log magnitude carries an ``underflow:`` warning with
    its log10 magnitude.
    """
    if sign == 0 or log_mag == -math.inf:
        value, log10_mag = 0.0, -math.inf
    else:
        value = sign * (math.inf if log_mag > 709.0 else math.exp(log_mag))
        log10_mag = log_mag / math.log(10.0)
    if cancel > _WARN_DIGITS:
        warnings.append(
            f"cancellation:{cancel:.1f} digits lost so the double-precision result "
            "is unreliable"
        )
        if cfg.precision == "extended" and law is not None:
            # mpmath loads on first escalation
            import mpmath
            from .extended import NotConverged, evaluate
            try:
                r = evaluate(law, point, cancel=cancel)
            except NotConverged as exc:
                # the double-precision value and its estimate stand
                warnings.append(
                    f"nonconverged:no mpmath round was certified up to {exc.dps} digits "
                    "so the double-precision result is kept")
            else:  # an accepted round is never an exact zero: that has no bound
                value = float(r.value)
                log10_mag = float(mpmath.log10(abs(r.value)))
                warnings.append(f"extended:re-evaluated at {r.dps} digits with relative "
                                f"error <= {mpmath.nstr(r.bound, 2)}")
                # the round's certified bound, plus the unit roundoff 2^-53
                # of rounding its mpf to a double
                rel_err = float(r.bound) + 0.5 * _EPS
    if value == 0.0 and math.isfinite(log10_mag):
        warnings.append("underflow:value below the double range with "
                        f"log10|value| = {log10_mag:.4f}")
    if not math.isfinite(value):
        warnings.append("nonfinite:evaluation did not produce a finite value")
        return EvalReport(value, math.inf, cancel, warnings)
    # a value with no finite relative error has no finite absolute one either
    abs_err = abs(value) * min(rel_err, 1e30) + 1e-300 if math.isfinite(rel_err) else math.inf
    if is_probability:
        clamped = min(max(value, 0.0), 1.0)
        residual = value - clamped
        if abs(residual) > _CLAMP_RESIDUAL:
            warnings.append(f"clamp:residual {residual:.3e} outside the unit interval")
        value = clamped
    else:
        if value < 0.0:
            if value < -_CLAMP_RESIDUAL:
                warnings.append(f"clamp:negative density {value:.3e} set to 0")
            value = 0.0
    # (+ 0.0 turns a clamped or underflowed -0.0 into 0.0)
    return EvalReport(value + 0.0, abs_err, cancel, warnings)


def _check_lambda(lam: float) -> float:
    lam = float(lam)
    if not math.isfinite(lam) or lam <= 0.0:
        raise ValueError(f"lambda must be finite and > 0, got {lam!r}")
    return lam


def _check_pair(a: float, b: float) -> Tuple[float, float]:
    a, b = _check_lambda(a), float(b)
    if not (math.isfinite(b) and b > a):
        raise ValueError(f"require b > a > 0, got a={a}, b={b}")
    return a, b


# ---------------------------------------------------------------------------
# laws: one description per (model, statistic), read as logs here
# (`_pref_log`, `_entries`) and, on escalation, by `extended.evaluate`
#
# A grid's entries, as logs of the (positive) values, come from the array
# kernels in `specfun` with first-order relative error estimates that track
# the absolute size of the log-space terms combined (x, a log x, lgamma):
# an absolute error on a log is a relative error on the entry.


class _Pref(NamedTuple):
    """A law's prefactor as data,

        (-1)^pairs lam^lam_power e^(-lam sum decay) prod_(k, v in powers) prod_j v_j^k
        * prod_(a in above) Gamma(a) / prod_(a in below) Gamma(a)
        / prod_(v in vandermonde) prod_(j < k) (v_k - v_j),

    its spectra sequences of floats, which `extended.evaluate` reads
    exactly, from their binary digits."""

    pairs: int
    powers: tuple = ()
    above: tuple = ()
    below: tuple = ()
    vandermonde: tuple = ()
    lam_power: int = 0
    decay: Sequence = ()


class _Law(NamedTuple):
    """A law as data: ``pref`` times the determinant of a matrix whose rows
    run over the values ``rows`` and whose columns come in ``blocks``
    (family, index), each column the family's entry at the rows' values for
    one index k, an order or a value of the other spectrum:

        lamE    lam^k E_k(lam v) = int_0^lam t^(k-1) e^(-v t) dt, the gap at a = 0,
                E_k(x) = int_0^1 t^(k-1) e^(-x t) dt
        pow     v^k
        exp     e^(lam v) v^k
        g       g_n(lam k v) = int_0^1 (1-t)^(n-1) e^(-lam k v t) dt, n the matrix order
        expr    e^(-lam k v)
        gap     int_a^b t^(k-1) e^(-v t) dt at the point (a, b), the positive sum
                e^(-v a) sum_(i<k) C(k-1, i) a^(k-1-i) T_i over the seed row
                T_i = int_0^h t^i e^(-v t) dt = h^(i+1) E_(i+1)(v h), h = b - a,
                the ``lamE`` row at lam = b - a;
                at a one-value point (a,) the tail (a, inf), the same sum at b = inf,
                where T_i = i! / v^(i+1)

    The doubly laws' rows run over s and their blocks over r (``g``,
    ``expr``) or over the orders (``pow``)."""

    pref: _Pref
    rows: Sequence
    blocks: tuple


def _row_norm(n: int, m: int, s) -> _Pref:
    # normalization (spectral powers over factorials) divided by the
    # spectral Vandermonde; shared by every row-model law
    return _Pref(m * (m - 1) // 2, ((n, s),), (), tuple(range(n - m + 1, n + 1)), (s,))


def _row_gap(n: int, m: int, s) -> _Law:
    # Pr(no eigenvalue outside the point's interval): (a, b), or at a
    # one-value point (lam,) the tail (lam, inf)
    return _Law(_row_norm(n, m, s), s, (("gap", range(n - m + 1, n + 1)),))


def _tupled(build):
    # the spectra as tuples (a tuple passes as itself), so that a law and its
    # prefactor are hashable: `extended` caches the prefactor per `_Pref`
    return lambda *args: build(*(a if isinstance(a, int) else tuple(a) for a in args))


# each law, keyed by statistic and model (`_plan` forms the key), taking
# the dimensions and spectra; `_grid` evaluates the one object its plan
# holds in double precision and, on escalation, in mpmath
_LAWS = {name: _tupled(build) for name, build in {
    "cdf_max_row": lambda n, m, s: _Law(_row_norm(n, m, s), s,
                                        (("lamE", range(n - m + 1, n + 1)),)),
    # the gap's tail; at n = m its closed form e^(-lam sum s), times an
    # empty determinant
    "cdf_min_row": lambda n, m, s: (_row_gap(n, m, s) if n > m else
                                    _Law(_Pref(0, decay=s), (), (("gap", range(n + 1, n + 1)),))),
    "prob_gap_row": _row_gap,
    "cdf_max_col": lambda n, m, s: _Law(
        _Pref(m * (m - 1) // 2, ((m, s),), (m + 1,), tuple(range(2, m + 2)), (s,)), s,
        (("lamE", range(1, m + 1)), ("pow", range(n - m)))),
    "cdf_min_col": lambda n, m, s: _Law(
        _Pref(m * (m - 1) // 2, ((m, s),), vandermonde=(s,), decay=s), s,
        (("pow", range(-1, -m - 1, -1)), ("exp", range(n - m)))),
    # prod_(k < m) k! / ((n-1)!)^m: anchored so that the m = n case is
    # exactly the square evaluation and the m < n case matches the iterated
    # large-eigenvalue limit of it (the overall sign depends on n only); the
    # power columns (lam v)^-k, k = 1..n-m, leave their lam^-k to the prefactor
    "cdf_max_doubly": lambda n, m, r, s: _Law(
        _Pref(n * (n - 1) // 2, ((n, r), (n, s)), tuple(range(2, m + 1)), (n,) * m, (r, s),
              n * n - n * (n - 1) // 2 - (n - m) * (n - m + 1) // 2), s,
        (("g", r), ("pow", range(-1, m - n - 1, -1)))),
    "cdf_min_doubly": lambda n, r, s: _Law(
        _Pref(n * (n - 1) // 2, (), tuple(range(2, n + 1)), (), (r, s), -(n * (n - 1) // 2)), s,
        (("expr", r),)),
}.items()}


def _pref_log(p: _Pref) -> Tuple[int, float]:
    """The sign of ``p`` and the log of its lambda-free part."""
    log = sum(map(math.lgamma, p.above)) + sum([k * sum(map(math.log, v)) for k, v in p.powers])
    for v in p.vandermonde:
        log -= sum([math.log(y - x) for j, x in enumerate(v) for y in v[j + 1:]])
    log -= sum(map(math.lgamma, p.below))
    return -1 if p.pairs % 2 else 1, float(log)


def _block(family: str, k, v: np.ndarray, points: np.ndarray, density: bool):
    """One column block of a law on a grid of points (G, P), rows ``v`` (N,),
    index ``k``: its logs L and errors R (broadcastable to (G, N, K)) and,
    with ``density``, the list of its log-derivative arrays D (dA = A o D),
    less the rows' constants: one for a lambda or a tail, two for a gap (in
    a, then b)."""
    if family == "gap":
        # int_a^b t^(k-1) e^(-v t) dt = e^(-v a) sum_(i<k) C(k-1, i) a^(k-1-i) T_i with
        # T_i = int_0^h t^i e^(-v t) dt, h = b - a: positive terms, from each point's
        # seed row t = log T_i (i < n, last axis) and its estimate R_t
        orders, n = np.asarray(k), k.stop - 1
        a, lgam = points[:, :1], _log_factorials(n)
        if points.shape[1] == 1:
            # the tail (a, inf): T_i = i! / v^(i+1), its limit at b = inf, with the
            # roundings of (i+1) log v (and of log v)
            i1_log_v = np.arange(1, n + 1) * np.log(v)[:, None]
            t, R_t = lgam - i1_log_v, 2.0 * _EPS * np.abs(i1_log_v)
        else:
            # T_i = h^(i+1) E_(i+1)(v h), the lamE row at lam = h, and its estimate
            t, R_t, _ = _block("lamE", range(1, n + 1), v, points[:, 1:] - a, False)
        # the terms (G, N, K, i), each with its a^(k-1-i), and their log-sum-exp over i
        log_a = np.log(a)[..., None, None]
        T = (_log_binomials(k.start, n) + ((orders - 1)[:, None] - np.arange(n)) * log_a
             + t[..., None, :])
        top = T.max(axis=-1)
        T -= top[..., None]
        w = np.exp(T, out=T)  # 0 for the -inf terms i >= k
        total = w.sum(axis=-1)
        va = (a * v)[..., None]
        L = top + np.log(total) - va
        # the terms' weighted mean of their seed's estimate and the roundings of log i!
        # and of their sums; with those of log C(k-1, i) <= n, of (k-1-i) log a (with
        # log a's) <= (k-1) |log a|, of the sum, of its log and of L
        R_i = R_t + _EPS * (10.0 + lgam + 2.0 * np.abs(t))
        R = ((w @ R_i[..., None])[..., 0] / total
             + _EPS * (4.0 * n + 2.0 + 3.0 * np.abs((orders - 1) * log_a[..., 0])
                       + np.abs(top) + va + np.abs(L)))
        if not density:
            return L, R, []
        # d/db int_a^b t^(k-1) e^(-v t) dt = b^(k-1) e^(-v b), and d/da is
        # minus the same at a
        at = points[:, :, None, None]
        with np.errstate(over="ignore"):  # only where L has lost every digit
            slope = np.exp((orders - 1) * np.log(at) - v[:, None] * at - L[:, None])
        slope[:, 0] *= -1.0
        return L, R, list(slope.swapaxes(0, 1))
    lam = points[:, :, None]
    ks = np.asarray(k)
    if family == "lamE":
        # lam^k E_k(lam v): E's estimate with k |log v| for the size of its k log x,
        # and k log lam's rounding
        x, k_log_lam = points * v, ks * np.log(lam)
        L = log_gamma_entries(k.start, k.stop - 1, x) + k_log_lam
        lgam = _log_factorials(k.stop - 1)[k.start - 1:]  # lgamma(k) = log (k-1)! >= 0
        R = (_EPS * (10.0 + lgam + np.abs(ks * np.log(v)[:, None])
                     + np.minimum(x[..., None], ks + 1.0)) + _EPS * np.abs(k_log_lam))
        if not density:
            return L, R, []
        # d/dlam lam^k E_k(lam v) = lam^(k-1) e^(-lam v)
        with np.errstate(over="ignore"):  # only where L has lost every digit
            return L, R, [np.exp((ks - 1) * np.log(lam) - x[..., None] - L)]
    v = v[:, None]
    if family in ("g", "expr"):
        with np.errstate(over="ignore"):  # lam r may overflow where lam r s fits
            x = lam * ks * v
        x = np.where(np.isinf(x), lam * (ks * v), x)
        if family == "expr":
            return -x, _EPS * (5.0 + x), [-(v * ks)] if density else []
        L = log_doubly_g(len(v), x)
        # g_n'(y) = -(g_n(y) - g_(n+1)(y))
        return (L, _EPS * (20.0 + x),
                [x / lam * np.expm1(log_doubly_g(len(v) + 1, x) - L)] if density else [])
    L = np.log(v) * ks if family == "pow" else lam * v + ks * np.log(v)
    return L, _EPS * (5.0 + np.abs(L)), [0.0] if density else []


def _entries(law: _Law, points: np.ndarray, density: bool):
    """``law``'s matrix on a grid of points, the lambdas (G, 1) or the (a, b)
    pairs (G, 2): its logs L and errors R and, with ``density``, the arrays
    D of its entries' log-derivatives less the rows' constants, and those
    constants with the prefactor's log-derivative, c = lam_power / lam -
    sum decay + sum of the rows' v."""
    v = np.asarray(law.rows, dtype=float)
    # the ``exp`` entries' log-derivatives share the row's constant v
    row_const = any(f == "exp" for f, _ in law.blocks)
    # (an empty block adds nothing, unless the matrix is empty)
    blocks = [b for b in law.blocks if len(b[1])] or law.blocks[:1]
    parts = []
    for family, k in blocks:
        L, R, Ds = _block(family, k, v, points, density)
        if row_const and family != "exp":
            Ds = [D - v[:, None] for D in Ds]
        parts.append((L, R, *Ds))
    L, R, *Ds = parts[0]
    if len(parts) > 1:
        # one (G, N, N) array each
        L, R, *Ds = out = [np.empty((len(points), len(v), len(v))) for _ in parts[0]]
        j = 0
        for (_, k), part in zip(blocks, parts):
            for o, p in zip(out, part):
                o[..., j:j + len(k)] = p
            j += len(k)
    if not density:
        return L, R, (), 0.0
    decay, rows = sum(law.pref.decay), sum(law.rows) if row_const else 0
    with np.errstate(over="ignore"):  # at a subnormal lambda, as Python's division
        return L, R, Ds, law.pref.lam_power / points[:, 0] - decay + rows


_MODELS = {RowCorrelated: "row", ColumnCorrelated: "col", DoublyCorrelated: "doubly"}

_PERTURBED = (f"perturbed:coincident spectrum values nudged apart in relative steps of "
              f"{PERTURB_EPS:g} (the value is that of the nudged spectrum)")


class _Plan(NamedTuple):
    """What `_grid` needs of a (case, statistic) that does not depend on the
    point: the law (None where the model has none for the statistic, or
    for the doubly smallest eigenvalue at m < n), its prefactor's sign,
    lambda-free log (`_pref_log`) and sum of decay, the range check's
    smallest and largest products of the spectra, and the warnings every
    report starts from."""

    law: Optional[_Law]
    sign: int
    log: float
    decay: float
    lo: float
    hi: float
    warnings: tuple


@functools.lru_cache(maxsize=256)
def _plan(case: ModelCase, stat: str) -> _Plan:
    """The `_Plan` of ``case`` (a hashable, frozen model case) for ``stat``,
    built once per case and statistic."""
    model = _MODELS[type(case)]
    n, m = case.dims.n, case.dims.m
    if model == "col" and n == m:
        # at n = m, W = Z^H has the row model's density, as Tr(Z^H S Z) =
        # Tr(S W^H W), and Z Z^H the eigenvalues of Z^H Z: the row laws, the
        # gap's included, whose min is the exact e^(-lam sum s)
        model = "row"
    name = f"{'prob_gap' if stat == 'gap' else 'cdf_' + stat}_{model}"
    spectra = (case.r, case.s) if isinstance(case, DoublyCorrelated) else (case.s,)
    args = (n, m, *(sp.values for sp in spectra))
    if name == "cdf_min_doubly":
        args = args[:1] + args[2:] if m == n else None
    law = _LAWS[name](*args) if name in _LAWS and args else None
    sign, log = _pref_log(law.pref) if law else (1, 0.0)
    lo, hi = (math.prod(f(sp) for sp in spectra) for f in (min, max))
    return _Plan(law, sign, log, sum(law.pref.decay) if law else 0.0, lo, hi,
                 (_PERTURBED,) if any(sp.perturbed for sp in spectra) else ())


# ---------------------------------------------------------------------------
# the one entry: a statistic's law on a grid of points


# elements of the largest temporary one chunk of `_grid` points may form
_GRID_ELEMENTS = 2 ** 18


def _point_elements(law: _Law) -> int:
    """Elements one point adds to the largest temporary of ``law``'s
    evaluation: the gap block's (N, K, n) terms where the law has one, else
    the larger of the (N, N) kernel arrays and the entries' series, (N, K,
    terms) of a ``g`` block's Kummer sums and (N, terms) of a ``lamE``
    block's gamma series and partial sums."""
    N = len(law.rows)
    size = max(N * N, 1)  # (an empty matrix still has its point)
    for family, k in law.blocks:
        if family == "gap":
            size = max(size, N * len(k) * (k.stop - 1))
        elif family == "lamE":
            size = max(size, N * max(_gamma_series_terms(k.stop - 1), k.stop - 1))
        elif family == "g":  # (order N + 1: a density's g_(N+1), the longer series)
            size = max(size, N * len(k) * _poisson_terms(2.0 * (N + 1)))
    return size


def _grid(case: ModelCase, stat: str, points, cfg: EvalConfig = _DEFAULT_CONFIG,
          density: bool = False) -> List[EvalReport]:
    """One report per point of the ``stat`` law ("max", "min" or "gap") of
    ``case``: its CDF (the gap probability), or with ``density`` its density
    (the joint min/max density for "gap").

    The points are lambdas, or (a, b) pairs for "gap".  The case's `_plan`,
    cached, holds the law and its lambda-free parts.  The points go through
    the kernel in chunks (`_chunk_reports`), each of at most
    `_GRID_ELEMENTS` elements in its largest temporary (`_point_elements`),
    so memory does not grow with the grid; a point's report never depends
    on its chunk-mates, so it keeps its bits under any chunking.
    """
    if type(case) not in _MODELS:
        raise TypeError(f"unknown model case {type(case).__name__}")
    plan = _plan(case, stat)
    if plan.law is None and stat == "gap":
        raise TypeError(f"{'joint density' if density else 'gap probability'} is available "
                        "for the row-correlated model and square column-correlated cases only")
    if stat == "gap":
        points = [_check_pair(a, b) for a, b in points]
    else:
        points = [(_check_lambda(lam),) for lam in points]
    n, lo, hi = case.dims.n, plan.lo, plan.hi
    # lam v (doubly lam r s) must be a nonzero finite double in every entry,
    # with room for the sums of up to n of them that the estimates form
    # (checked on Python floats, which overflow and underflow without a warning)
    for point in points:
        if not (point[0] * lo > 0.0 and math.isfinite(point[-1] * hi * (n + 1))):
            raise ValueError(f"lambda times the spectrum leaves the double range at {point}")
    if density and stat == "gap" and case.dims.m == 1:
        # one eigenvalue cannot sit at two points
        return [EvalReport(0.0, 0.0, 0.0, list(plan.warnings)) for _ in points]
    if plan.law is None:  # the doubly smallest eigenvalue at m < n
        raise ValueError("smallest-eigenvalue law for the doubly correlated model "
                         "requires m = n")
    step = max(1, _GRID_ELEMENTS // _point_elements(plan.law))
    return [report for start in range(0, len(points), step)
            for report in _chunk_reports(plan, stat, points[start:start + step], cfg, density)]


def _chunk_reports(plan: _Plan, stat: str, points: list, cfg: EvalConfig,
                   density: bool) -> List[EvalReport]:
    """The reports of one chunk of checked `_grid` points: all its
    determinants go into one kernel call and every report through one
    `_finalize` call.

    A density is sign * d(pref det) = sign * pref * det * (c + d det / det)
    by Jacobi's formula: each constant in c adds exactly its value, as every
    row and column of A^-T o A sums to one.  The factor's log adds to the
    value's and to its rounding charge; its digits lost, the larger of its
    terms' cancellation and its error in units of eps, count with the
    determinant's cancellation, and its error adds to the determinant's.
    """
    law = plan.law
    grid = np.asarray(points, dtype=float)
    # the prefactor's log at each point (a gap law has no lambda terms)
    lams, lam_power = grid[:, 0], law.pref.lam_power
    logs = plan.log + lam_power * np.log(lams) if lam_power else np.full(len(lams), plan.log)
    if plan.decay:
        logs = logs - lams * plan.decay
    L, R, Ds, consts = _entries(law, grid, density)
    sign, log_det, cancel, rel, *derivs = _det_from_logs(L, R, Ds)
    sign, cancel, log_factor, extra = plan.sign * sign, cancel.tolist(), 0.0, 0.0
    if density:
        deriv, gross, err = derivs
        abs_c = np.abs(consts)
        with np.errstate(all="ignore"):  # as Python's floats, which overflow silently
            # an exact zero determinant decides: its factor is 1 and loses nothing
            live = sign != 0
            factor = np.where(live, consts + deriv, 1.0)
            size = np.abs(factor)
            extra = np.where(live, (err + _EPS * abs_c) / size, 0.0)
            # the terms' cancellation, or the error Jacobi's formula carries; the
            # max as Python's, which keeps a nan first and drops one second
            terms, carried = abs_c + gross, err / _EPS
            lost = np.where(live, np.where(carried > terms, carried, terms) / size, 1.0)
        # the density of a survival (min, gap) is minus the derivative
        sign = sign * (1.0 if stat == "max" else -1.0) * np.sign(factor)
        # a zero factor gives a zero value with no finite estimate (extra is
        # x / 0) and every digit lost
        sizes = size.tolist()
        log_factor = np.array([math.log(f) if f else 0.0 for f in sizes])
        cancel = [max(c, math.log10(x) if f else math.inf)
                  for c, x, f in zip(cancel, lost.tolist(), sizes)]
    # every value also carries the rounding of the logs it is exponentiated from
    rel = rel + (5.0 + np.abs(logs) + np.abs(log_det) + np.abs(log_factor)) * _EPS + extra
    values = (logs + log_det + log_factor).tolist()
    return [_finalize(s, log, r, c, cfg, list(plan.warnings), None if density else law, point,
                      not density)
            for point, s, log, r, c in zip(points, sign.tolist(), values, rel.tolist(), cancel)]


# ---------------------------------------------------------------------------
# public functions: a grid of one point


def cdf_max(case: ModelCase, lam: float, cfg: EvalConfig = _DEFAULT_CONFIG) -> EvalReport:
    """Pr(largest eigenvalue of Z^H Z <= lam) for a validated model case."""
    return _grid(case, "max", [lam], cfg)[0]


def cdf_min(case: ModelCase, lam: float, cfg: EvalConfig = _DEFAULT_CONFIG) -> EvalReport:
    """Pr(smallest eigenvalue of Z^H Z >= lam) for a validated model case.

    For the doubly correlated model this requires m = n; the m < n law has
    no closed determinant form (the extra zero eigenvalues of the padded
    problem pin the smallest eigenvalue at zero).
    """
    return _grid(case, "min", [lam], cfg)[0]


def prob_gap(case: ModelCase, a: float, b: float,
             cfg: EvalConfig = _DEFAULT_CONFIG) -> EvalReport:
    """Pr(no eigenvalue in (0, a) and none in (b, inf)), 0 < a < b, for the
    row model or a square column case (whose eigenvalues are the row's)."""
    return _grid(case, "gap", [(a, b)], cfg)[0]


def pdf_max(case: ModelCase, lam: float, cfg: EvalConfig = _DEFAULT_CONFIG) -> EvalReport:
    """Density of the largest eigenvalue at lam (nonnegative).

    The lambda-derivative of the `cdf_max` determinant formula, from one
    factorisation of its matrix by Jacobi's formula; analytic for every
    model (the doubly correlated g_n rows through g_n' = g_(n+1) - g_n).
    """
    return _grid(case, "max", [lam], cfg, density=True)[0]


def pdf_min(case: ModelCase, lam: float, cfg: EvalConfig = _DEFAULT_CONFIG) -> EvalReport:
    """Density of the smallest eigenvalue at lam (nonnegative).

    Minus the lambda-derivative of the `cdf_min` determinant formula, from
    one factorisation of its matrix by Jacobi's formula; the doubly
    correlated model requires m = n.
    """
    return _grid(case, "min", [lam], cfg, density=True)[0]


def pdf_joint_minmax(case: ModelCase, a: float, b: float,
                     cfg: EvalConfig = _DEFAULT_CONFIG) -> EvalReport:
    """Joint density of (smallest, largest) eigenvalue at (a, b), for the
    row model or a square column case.

    Minus the mixed partial of the `prob_gap` determinant formula, from one
    factorisation of its matrix by Jacobi's formula (each entry is an
    integral from a to b, so no entry has a mixed term).  Identically zero
    at m = 1 (one eigenvalue cannot sit at two points).
    """
    return _grid(case, "gap", [(a, b)], cfg, density=True)[0]
