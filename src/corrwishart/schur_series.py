"""Schur-polynomial series evaluation of the extreme-eigenvalue laws.

This is the independent cross-check for the determinant engine: partition
enumeration, Schur polynomials through the Jacobi-Trudi determinant,
partition Pochhammer symbols, the hypergeometric function of several
variables built from them, and the two series forms of the row-correlated
extreme-eigenvalue probabilities (an infinite series for the largest
eigenvalue, an exact finite sum for the smallest).

These routines are meant for desk-scale validation only (m <= 4, n <= 8,
lambda * max(s) <= 8); the determinant formulas are the production path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from .model import Dimensions

__all__ = [
    "Partition",
    "SeriesValue",
    "partitions",
    "schur_poly",
    "pochhammer_partition",
    "d_prime",
    "hyp1f1_multivar",
    "cdf_max_schur",
    "cdf_min_schur",
]

_EPS = 2.220446049250313e-16


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing nonnegative integer parts; trailing zeros trimmed."""

    parts: tuple

    def __post_init__(self):
        parts = tuple(int(p) for p in self.parts)
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        if any(p < 0 for p in parts):
            raise ValueError("partition parts must be nonnegative")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("partition parts must be weakly decreasing")
        object.__setattr__(self, "parts", parts)

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def __len__(self):
        return len(self.parts)


@dataclass(frozen=True)
class SeriesValue:
    """Partial sum of a partition series with its truncation bookkeeping."""

    value: float
    truncation_weight: int
    tail_bound: float
    warnings: tuple = field(default_factory=tuple)


def partitions(max_weight: int, max_part: Optional[int] = None,
               length: int = 1) -> Iterator[Partition]:
    """All partitions with <= `length` parts, parts <= `max_part`, weight
    <= `max_weight`, in ascending lexicographic order of the padded tuple.

    `max_part=None` leaves the part size unbounded.  Impossible constraints
    yield an empty stream (after the empty partition when weight >= 0).
    """
    if max_weight < 0 or length < 1:
        return
    cap = max_weight if max_part is None else min(max_part, max_weight)

    def rec(budget, biggest, slots):
        yield ()
        if slots == 0:
            return
        for first in range(1, min(biggest, budget) + 1):
            for rest in rec(budget - first, first, slots - 1):
                yield (first,) + rest

    for parts in rec(max_weight, cap, length):
        yield Partition(parts)


def _partitions_of_weight(weight: int, max_part: int, length: int):
    """Bare tuples of the partitions of exactly `weight` (internal)."""
    def rec(budget, biggest, slots):
        if budget == 0:
            yield ()
            return
        if slots == 0:
            return
        for first in range(min(biggest, budget), 0, -1):
            for rest in rec(budget - first, first, slots - 1):
                yield (first,) + rest

    yield from rec(weight, min(max_part, weight), length)


def homogeneous_table(x: Sequence[float], max_degree: int):
    """Complete homogeneous symmetric polynomials h_0..h_max_degree of x.

    Built by the generating recurrence (one variable at a time), which is
    pure polynomial accumulation and exact for integer inputs.
    """
    h = [0.0] * (max_degree + 1)
    h[0] = 1.0
    for xi in x:
        xi = float(xi)
        for k in range(1, max_degree + 1):
            h[k] += xi * h[k - 1]
    return h


def _schur_from_table(parts: tuple, h: Sequence[float]) -> float:
    # Jacobi-Trudi: s_kappa = det[h_{kappa_i - i + j}] over i,j = 1..l.
    l = len(parts)
    if l == 0:
        return 1.0
    if l == 1:
        return h[parts[0]]
    idx = [[parts[i] - (i + 1) + (j + 1) for j in range(l)] for i in range(l)]
    mat = [[h[k] if 0 <= k < len(h) else 0.0 for k in row] for row in idx]
    if l == 2:
        return mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    return _laplace_det(mat)


def _laplace_det(mat) -> float:
    n = len(mat)
    if n == 3:
        a, b, c = mat[0]
        d, e, f = mat[1]
        g, h_, i = mat[2]
        return a * (e * i - f * h_) - b * (d * i - f * g) + c * (d * h_ - e * g)
    total = 0.0
    sign = 1.0
    for col in range(n):
        minor = [row[:col] + row[col + 1:] for row in mat[1:]]
        total += sign * mat[0][col] * _laplace_det(minor)
        sign = -sign
    return total


def schur_poly(kappa: Partition, x: Sequence[float]) -> float:
    """Schur polynomial s_kappa(x_1, ..., x_m) via Jacobi-Trudi.

    Returns 0 when the partition has more parts than variables.  The
    h-determinant route is used instead of the bialternant because the
    latter divides two near-singular determinants for clustered x.
    """
    parts = kappa.parts
    if len(parts) > len(x):
        return 0.0
    if len(parts) == 0:
        return 1.0
    h = homogeneous_table(x, parts[0] + len(parts))
    return _schur_from_table(parts, h)


def pochhammer_partition(a: float, kappa: Partition, m: int) -> float:
    """Partition Pochhammer symbol [a]_kappa over m rows.

    [a]_kappa is the product over rows j = 1..m of the rising factorial
    (a - j + 1)^(kappa_j).  Accumulated in log space with an explicit sign
    so large weights cannot overflow.  A zero factor makes the result 0;
    this is an error only if some later factor in the same row diverges
    (cannot happen for integer kappa), so zeros are returned as values.
    """
    sign, log_mag = _log_poch(a, kappa.parts, m)
    if sign == 0:
        return 0.0
    v = sign * math.exp(log_mag)
    return v


def _log_poch(a: float, parts: tuple, m: int):
    sign = 1
    log_mag = 0.0
    for j in range(1, m + 1):
        kj = parts[j - 1] if j - 1 < len(parts) else 0
        base = a - j + 1
        for i in range(kj):
            f = base + i
            if f == 0.0:
                return 0, -math.inf
            if f < 0.0:
                sign = -sign
            log_mag += math.log(abs(f))
    return sign, log_mag


def d_prime(kappa: Partition, m: int) -> float:
    """Normalization d'_kappa = [m]_kappa / fbar_m(kappa), always positive.

    fbar_m(kappa) is the product over 1 <= i < j <= m of
    (j - i + kappa_i - kappa_j) / (j - i) with kappa zero-padded to m parts.
    """
    if len(kappa) > m:
        raise ValueError("partition has more parts than m")
    return math.exp(_log_d_prime(kappa.parts, m))


def _log_d_prime(parts: tuple, m: int) -> float:
    # log d'_kappa = log [m]_kappa - log fbar_m(kappa); [m]_kappa > 0 for
    # integer partitions
    _, log_num = _log_poch(float(m), parts, m)
    log_fbar = 0.0
    kp = list(parts) + [0] * (m - len(parts))
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            log_fbar += math.log(j - i + kp[i - 1] - kp[j - 1]) - math.log(j - i)
    return log_num - log_fbar


def _series_coefficient(a: float, b: float, parts: tuple, m: int) -> float:
    # [a]_kappa / (d'_kappa [b]_kappa), in log space.
    sa, la = _log_poch(a, parts, m)
    if sa == 0:
        return 0.0
    sb, lb = _log_poch(b, parts, m)
    if sb == 0:
        raise ZeroDivisionError("pole of [b]_kappa does not cancel")
    return sa * sb * math.exp(la - lb - _log_d_prime(parts, m))


_DEFAULT_MAX_WEIGHT = 60
_HARD_WEIGHT_CAP = 400


def hyp1f1_multivar(a: float, b: float, x: Sequence[float],
                    max_weight: Optional[int] = _DEFAULT_MAX_WEIGHT,
                    tail_target: float = 0.0) -> SeriesValue:
    """Hypergeometric function of several variables,
    sum over partitions kappa of [a]_kappa / (d'_kappa [b]_kappa) s_kappa(x).

    Summed by weight shells up to ``max_weight`` (``None`` lets the shell
    loop run until the geometric tail bound drops below ``tail_target``,
    capped at 400).  The tail bound comes from the ratio of consecutive
    shell magnitudes once that ratio is below one; if the shells have not
    started decreasing by the truncation point the bound is set to the last
    shell magnitude and a warning is attached.
    """
    m = len(x)
    if m == 0:
        raise ValueError("need at least one variable")
    for j in range(1, m + 1):
        if b - j + 1 <= 0:
            raise ValueError(f"require b - j + 1 > 0 for j <= m, got b={b}, m={m}")
    adaptive = max_weight is None
    cap = _HARD_WEIGHT_CAP if adaptive else int(max_weight)

    h = homogeneous_table(x, cap + m + 1)
    total = 1.0  # empty partition
    shells = [1.0]
    warnings = []
    w_used = 0
    prev_mag = 1.0
    negligible = 0
    for w in range(1, cap + 1):
        shell = 0.0
        for parts in _partitions_of_weight(w, w, m):
            coef = _series_coefficient(a, b, parts, m)
            if coef != 0.0:
                shell += coef * _schur_from_table(parts, h)
        if not math.isfinite(shell):
            warnings.append(f"overflow:weight-{w} shell is not finite; "
                            "arguments outside the oracle's working range")
            shells.append(math.inf)
            w_used = w
            break
        total += shell
        shells.append(abs(shell))
        w_used = w
        if adaptive and abs(shell) < prev_mag:
            ratio = abs(shell) / prev_mag if prev_mag > 0 else 0.0
            if ratio < 1.0:
                tail = abs(shell) * ratio / (1.0 - ratio)
                if tail <= max(tail_target, _EPS * abs(total)):
                    break
        # safety exit: two consecutive shells far below roundoff
        negligible = negligible + 1 if abs(shell) < 1e-3 * _EPS * abs(total) else 0
        if adaptive and negligible >= 2:
            break
        prev_mag = abs(shell) if shell != 0.0 else prev_mag

    last = shells[-1]
    prev = shells[-2] if len(shells) >= 2 else 0.0
    if not math.isfinite(last):
        tail_bound = 1.7976931348623157e308
    elif prev > 0 and last < prev:
        ratio = last / prev
        tail_bound = last * ratio / (1.0 - ratio)
    elif last == 0.0:
        tail_bound = 0.0
    else:
        tail_bound = last
        warnings.append("tail-uncontrolled: shell magnitudes not yet decreasing")
    return SeriesValue(total, w_used, tail_bound, tuple(warnings))


def cdf_max_schur(lam: float, dims: Dimensions, s: Sequence[float],
                  max_weight: Optional[int] = None) -> SeriesValue:
    """Pr(largest eigenvalue <= lam) for the row-correlated model, by series.

    Assembles the hypergeometric series with prefactor
    prod_k Gamma(k)/Gamma(n+k) * prod_j (lam s_j)^n.  The series argument
    is fed through the Kummer transform (all-positive terms in
    +lam s_j) so that large lam*s does not destroy the shell sums through
    alternating-sign cancellation; the prefactor absorbs exp(-lam sum s).
    """
    n, m = dims.n, dims.m
    svals = list(s)
    if len(svals) != m:
        raise ValueError(f"spectrum must have length m={m}")
    if not lam > 0:
        raise ValueError("lam must be positive")
    log_pref = 0.0
    for k in range(1, m + 1):
        log_pref += math.lgamma(k) - math.lgamma(n + k)
    for sj in svals:
        log_pref += n * math.log(lam * sj)
    log_pref -= lam * sum(svals)
    series = hyp1f1_multivar(float(m), float(n + m), [lam * sj for sj in svals],
                             max_weight=max_weight, tail_target=1e-16)
    pref = math.exp(log_pref)
    return SeriesValue(pref * series.value, series.truncation_weight,
                       pref * series.tail_bound, series.warnings)


def cdf_min_schur(lam: float, dims: Dimensions, s: Sequence[float]) -> float:
    """Pr(smallest eigenvalue >= lam) for the row-correlated model.

    Exact finite sum: e^{-lam sum s} * sum over k <= m(n-m) of lam^k times
    the weight-k partitions with parts <= n-m of s_kappa(s)/d'_kappa.
    No truncation is involved.
    """
    n, m = dims.n, dims.m
    svals = [float(v) for v in s]
    if len(svals) != m:
        raise ValueError(f"spectrum must have length m={m}")
    if not lam > 0:
        raise ValueError("lam must be positive")
    kmax = m * (n - m)
    h = homogeneous_table(svals, kmax + m + 1)
    total = 0.0
    for k in range(kmax + 1):
        inner = 0.0
        if k == 0:
            inner = 1.0
        else:
            for parts in _partitions_of_weight(k, n - m, m):
                kappa = Partition(parts)
                inner += _schur_from_table(parts, h) / d_prime(kappa, m)
        total += lam ** k * inner
    return math.exp(-lam * sum(svals)) * total
