"""Independent high-precision yardstick for the benchmark's correctness check.

Every distribution the benchmark asks the engine for is evaluated here
again, in mpmath, from the closed determinant formulas written out afresh
(not imported from the package under test).  Entries come from positive
series, or from short finite sums carried at enough extra precision to cover
their cancellation; each value is accepted only when two working precisions
agree to `DIGITS` significant digits, and densities are
high-precision numerical derivatives of the reference CDFs (the joint
min/max density is the mixed partial of the gap probability).

All spectra are the inverse-covariance eigenvalues, exactly as passed to
the engine; floats are promoted exactly.
"""

from __future__ import annotations

import math

import mpmath
from mpmath import mp, mpf

DIGITS = 60          # digits two precisions must agree to
_DPS_STEPS = (75, 95)  # then doubling, for ill-conditioned cases
_MAX_DPS = 3000
_LN10 = math.log(10.0)


# ---------------------------------------------------------------------------
# scalar building blocks (all at the current mp precision)


def _int_lower(a: int, s, x):
    """integral_0^x t^(a-1) e^(-s t) dt for integer a >= 1."""
    y = s * x
    yf = float(y)
    # digits lost in (a-1)! - upper: -log10 P(a, y), from the leading term
    lost = -(a * math.log(yf) - yf - math.lgamma(a + 1)) / _LN10
    if lost < 30:
        with mp.extradps(max(int(lost), 0) + 10):
            v = mp.factorial(a - 1) / s ** a - _int_upper(a, s, x)
        return +v
    # y^a e^-y sum_k y^k / (a (a+1) ... (a+k)): positive terms
    eps = mp.eps
    term = mpf(1) / a
    tot = term
    k = 0
    while term >= tot * eps:
        k += 1
        term *= y / (a + k)
        tot += term
    return y ** a * mp.exp(-y) * tot / s ** a


def _int_upper(a: int, s, x):
    """integral_x^inf t^(a-1) e^(-s t) dt = (a-1)! e^(-sx) sum_k<a (sx)^k/k! / s^a."""
    y = s * x
    term = mpf(1)
    tot = mpf(1)
    for k in range(1, a):
        term *= y / k
        tot += term
    return mp.factorial(a - 1) * mp.exp(-y) * tot / s ** a


def _g(n: int, x):
    """integral_0^1 (1-t)^(n-1) e^(-x t) dt."""
    if x > 2 * n + 10:
        # h_1 = (1 - e^-x)/x, h_k = (1 - (k-1) h_(k-1))/x: integration by
        # parts, stable while (k-1)/x < 1
        h = -mp.expm1(-x) / x
        for k in range(2, n + 1):
            h = (1 - (k - 1) * h) / x
        return h
    # e^-x sum_k x^k / (k! (n+k)): positive terms
    eps = mp.eps
    term = mpf(1)
    tot = mpf(1) / n
    k = 0
    while True:
        k += 1
        term *= x / k
        inc = term / (n + k)
        tot += inc
        if k > x and inc < tot * eps:
            break
    return mp.exp(-x) * tot


def _vandermonde(vals):
    out = mpf(1)
    for j in range(len(vals)):
        for k in range(j + 1, len(vals)):
            out *= vals[k] - vals[j]
    return out


def _sign(M: int):
    return -1 if M % 2 else 1


# ---------------------------------------------------------------------------
# closed forms at the current precision


def _row_interval(n, m, s, lo, hi):
    """Pr(all eigenvalues in (lo, hi)), row model; hi=None means infinity."""
    sv = [mpf(v) for v in s]
    A = mp.matrix(m, m)
    for j in range(m):
        for k in range(1, m + 1):
            a = n - m + k
            if lo is None:
                A[j, k - 1] = _int_lower(a, sv[j], mpf(hi))
            elif hi is None:
                A[j, k - 1] = _int_upper(a, sv[j], mpf(lo))
            else:
                A[j, k - 1] = _int_upper(a, sv[j], mpf(lo)) - _int_upper(a, sv[j], mpf(hi))
    pref = mpf(_sign(m * (m - 1) // 2))
    for v in sv:
        pref *= v ** n
    for k in range(1, m + 1):
        pref /= mp.factorial(n - m + k - 1)
    return pref / _vandermonde(sv) * mp.det(A)


def _col_cdf_max(n, m, s, lam):
    sv = [mpf(v) for v in s]
    lam = mpf(lam)
    A = mp.matrix(n, n)
    for j in range(n):
        for k in range(1, m + 1):
            A[j, k - 1] = _int_lower(k, sv[j], lam)
        for i in range(1, n - m + 1):
            A[j, m + i - 1] = sv[j] ** (i - 1)
    pref = _sign(m * (m - 1) // 2) * mp.factorial(m)
    for k in range(1, m + 1):
        pref /= mp.factorial(k)
    for v in sv:
        pref *= v ** m
    return pref / _vandermonde(sv) * mp.det(A)


def _col_cdf_min(n, m, s, lam):
    sv = [mpf(v) for v in s]
    lam = mpf(lam)
    A = mp.matrix(n, n)
    for j in range(n):
        for k in range(1, m + 1):
            A[j, k - 1] = sv[j] ** (-k)
        for i in range(1, n - m + 1):
            A[j, m + i - 1] = mp.exp(lam * sv[j]) * sv[j] ** (i - 1)
    pref = _sign(m * (m - 1) // 2) * mp.exp(-lam * sum(sv))
    for v in sv:
        pref *= v ** m
    return pref / _vandermonde(sv) * mp.det(A)


def _doubly_cdf_max(n, m, r, s, lam):
    rv = [mpf(v) for v in r]
    sv = [mpf(v) for v in s]
    lam = mpf(lam)
    A = mp.matrix(n, n)
    for j in range(m):
        for l in range(n):
            A[j, l] = _g(n, lam * rv[j] * sv[l])
    for i in range(1, n - m + 1):
        for l in range(n):
            A[m + i - 1, l] = (lam * sv[l]) ** (-i)
    N = n * (n - 1) // 2
    pref = mpf(_sign(N))
    for j in range(1, n):
        pref /= mpf(j) ** j
    for p in range(1, n - m):
        pref *= mp.factorial(n - 1) / mp.factorial(n - 1 - p)
    for v in rv:
        pref *= v ** n
    for v in sv:
        pref *= (lam * v) ** n
    pref /= lam ** N * _vandermonde(rv) * _vandermonde(sv)
    return pref * mp.det(A)


def _doubly_cdf_min(n, r, s, lam):
    rv = [mpf(v) for v in r]
    sv = [mpf(v) for v in s]
    lam = mpf(lam)
    A = mp.matrix(n, n)
    for j in range(n):
        for l in range(n):
            A[j, l] = mp.exp(-lam * rv[j] * sv[l])
    N = n * (n - 1) // 2
    pref = mpf(_sign(N))
    for j in range(1, n):
        pref *= mp.factorial(j)
    pref /= lam ** N * _vandermonde(rv) * _vandermonde(sv)
    return pref * mp.det(A)


def _cdf(model, stat):
    """Return f(lam) at the current precision for a model dict and statistic."""
    kind, n, m = model["kind"], model["n"], model["m"]
    if kind == "row":
        s = model["s"]
        if stat == "max":
            return lambda lam: _row_interval(n, m, s, None, lam)
        return lambda lam: _row_interval(n, m, s, lam, None)
    if kind == "column":
        s = model["s"]
        if stat == "max":
            return lambda lam: _col_cdf_max(n, m, s, lam)
        return lambda lam: _col_cdf_min(n, m, s, lam)
    if kind == "double":
        r, s = model["r"], model["s"]
        if stat == "max":
            return lambda lam: _doubly_cdf_max(n, m, r, s, lam)
        return lambda lam: _doubly_cdf_min(n, r, s, lam)
    raise ValueError(f"unknown model kind {kind!r}")


def _quantity(model, quantity, point):
    """Closure computing one quantity at the current precision."""
    if quantity in ("cdf_max", "cdf_min"):
        f = _cdf(model, quantity[-3:])
        return lambda: f(mpf(point[0]))
    if quantity == "pdf_max":
        f = _cdf(model, "max")
        return lambda: mp.diff(f, mpf(point[0]))
    if quantity == "pdf_min":
        f = _cdf(model, "min")
        return lambda: -mp.diff(f, mpf(point[0]))
    n, m, s = model["n"], model["m"], model["s"]
    if quantity == "gap":
        return lambda: _row_interval(n, m, s, mpf(point[0]), mpf(point[1]))
    if quantity == "joint":
        G = lambda a, b: _row_interval(n, m, s, a, b)  # noqa: E731
        return lambda: -mp.diff(G, (mpf(point[0]), mpf(point[1])), (1, 1))
    raise ValueError(f"unknown quantity {quantity!r}")


def evaluate(model: dict, quantity: str, point) -> mpf:
    """Reference value, accepted once two precisions agree to DIGITS digits.

    ``model`` is {"kind": "row"|"column"|"double", "n", "m", "s"[, "r"]};
    ``quantity`` one of cdf_max, cdf_min, pdf_max, pdf_min, gap, joint;
    ``point`` a tuple (lam,) or (a, b).
    """
    fn = _quantity(model, quantity, point)
    tol = mpf(10) ** (-DIGITS)
    dps = _DPS_STEPS[0]
    with mp.workdps(dps):
        prev = fn()
    while dps < _MAX_DPS:
        dps = _DPS_STEPS[1] if dps == _DPS_STEPS[0] else 2 * dps
        with mp.workdps(dps):
            cur = fn()
            if abs(cur - prev) <= tol * abs(cur):
                return cur
        prev = cur
    raise ArithmeticError(f"reference for {quantity} at {point} did not settle")


def to_string(v: mpf) -> str:
    """25 significant digits, for the per-seed cache."""
    return mpmath.nstr(v, 25, min_fixed=1, max_fixed=0)


def digits_agree(x: float, ref: float) -> float:
    """Correct decimal digits of x against ref, capped at 17."""
    err = abs(x - ref)
    if err == 0.0:
        return 17.0
    return min(17.0, max(0.0, -math.log10(err / max(abs(ref), 1e-300))))
