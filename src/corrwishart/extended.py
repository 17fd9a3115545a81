"""High-precision re-evaluation of the probability formulas.

The determinant expressions of the double-precision engine in mpmath
arbitrary precision, whose unbounded exponent range needs no log-space
bookkeeping.  The one entry, `evaluate`, takes the law object the double
path built (a `corrwishart.detform._Law`, with its float spectra) and a
point, and evaluates it at each round's precision (`_build`): the
prefactor by `_pref`, and the matrix one column block at a time by
`_block`, one evaluator for every entry family.  Every input, an int, a
float or an mpf, is read exactly as a mantissa and an exponent (`_digits`),
and every argument is formed from those exactly (lam v, lam r v, the gap's
b - a), so no argument is rounded.  Python integers carry the work, with
guard bits and one rounding per value: the prefactor, an exact rational
(its lambda-free part computed once per prefactor, `_pref_digits`) times
lam^lam_power and one exponential; the ``pow`` and ``exp`` entries,
mantissa powers times one exponential (`_rounded`); the gamma rows
(`_gamma_row`, behind the ``lamE`` and ``gap`` families) from positive
recurrences in the order, with the powers of the row's scale (lam, or
b - a); a gap entry a positive sum over one such row by a Pascal
recurrence; the tail rows (`_shifted_power_row`, the gap at b = inf, O(n)
a row); and the doubly ``g`` entries (`_g`).  Only the ``expr`` entries
are one mpmath exponential each.  Every entry is handed on as the exact
integer pair (man, exp) that mpmath's round to nearest at the working
precision gives (`_entry`), and `_bounded_det` eliminates on those
integers: only the prefactor, the determinant and the `Round` are mpfs.
The test suite keeps an independent direct transcription of the formulas
as an oracle.

Each block comes with a bound on its entries' relative error in ulps
(units of u = 2^-p at the working precision p), and a matrix's bound is
the largest of its blocks': 1.1 for a value rounded once (the guard bits
keep the rest under a tenth), 2.2 for a gap entry (a sum of rounded gamma
rows, rounded once), `_FN` for an ``expr`` entry.  `_bounded_det`
(elimination on integers in units of 2^-p, with no singularity tolerance)
turns those and its own roundings into a bound on the value.  A round is
accepted when that bound is at most 10^-(dps-10), with no second round to
confirm it.  The first round runs at ``dps`` plus the digits the double
path lost (``cancel``), at most (``_MAX_DPS`` - 20) // 2 (`_first_round`).
One whose bound misses runs again, higher by the shortfall in digits plus
`_GUARD`; one with no finite bound runs again at twice its digits.  An
exact zero has no bound: no value of these laws is zero, so a zero only
says that the precision was too low to see the entries differ.
`NotConverged` is raised when the next round would pass ``_MAX_DPS``.
"""

from __future__ import annotations

import functools
import math
from typing import Any, NamedTuple

import mpmath
from mpmath.libmp import from_int, from_man_exp, mpf_exp, round_nearest

__all__ = ["NotConverged", "Round", "evaluate"]

# the error charged to an mpmath exponential, in units of its own precision:
# mpmath states no bound, but works with guard bits and rounds once;
# `test_builder_errors_within_their_ulps` checks it against 60 more bits
_FN = 4
# digits a retry adds beyond the shortfall its rejected round measured
_GUARD = 5
# the most digits a re-evaluation may use
_MAX_DPS = 1600


class NotConverged(ArithmeticError):
    """No round certified its value within ``_MAX_DPS``; ``dps``: the last tried."""

    def __init__(self, dps: int):
        super().__init__(f"no mpmath round was certified up to {dps} digits")
        self.dps = dps


# a round's value, the bound on its relative error (mpfs; inf: none), digits
Round = NamedTuple("Round", [("value", Any), ("bound", Any), ("dps", int)])


def _first_round(dps: int, cancel: float) -> int:
    """The first precision after a double-precision evaluation lost ``cancel``
    digits: dps + ceil(cancel), at least ``dps`` and at most (``_MAX_DPS`` -
    20) // 2, the cap infinite cancellation takes, so that a retry fits."""
    cap = (_MAX_DPS - 20) // 2
    return max(dps, min(dps + math.ceil(min(cap, cancel)), cap))


def _self_validated(raw, dps: int, start: int) -> Round:
    """The first `Round` ``raw(d)`` (computed entirely at d digits) from d =
    ``start`` whose bound is at most 10^-(dps-10).  A miss runs again at d +
    ceil(log10(bound / 10^-(dps-10))) + `_GUARD`, and a round with no finite
    bound, an exact zero included, at 2d.  `NotConverged` (the last
    precision tried) when the next round would pass ``_MAX_DPS``."""
    tol = mpmath.mpf(10) ** (10 - dps)
    d = start
    while True:
        r = raw(d)
        if r.bound <= tol:
            return r
        step = (math.ceil(float(mpmath.log10(r.bound / tol))) + _GUARD
                if mpmath.isfinite(r.bound) else d)
        if d + step > _MAX_DPS:
            raise NotConverged(d)
        d += step


def evaluate(law, point, dps=40, cancel=0.0) -> Round:
    """The accepted `Round` of the `detform._Law` ``law`` at ``point`` (lam,
    or a, b for a gap; ints, floats or mpfs, read exactly), pref * det(rows)
    by `_build` and `_bounded_det` at each round's precision, from the first
    round `_first_round` sizes for ``cancel`` digits lost (``dps`` at 0)."""
    def raw(d):
        with mpmath.workdps(d):
            pref, pref_ulps, rows, ulps = _build(law, point)
            det, bound = _bounded_det(rows, ulps)
            # the prefactor's and the product's ulps add; 1 + y covers products
            y = (pref_ulps + 1) * mpmath.ldexp(1, -mpmath.mp.prec)
            return Round(pref * det, (bound + y) * (1 + y), d)
    return _self_validated(raw, dps, _first_round(dps, cancel))


def _bounded_det(rows, ulps):
    """(det, bound): the determinant of the rows of entries (man, exp), each
    man 2^exp at the working precision p as the kernels give it (`_entry`),
    as an mpf, and its relative error bound when each entry is within
    ``ulps`` ulps (infinite for an exact zero).

    Columns, then rows, are scaled exactly by powers of two so that each
    row's largest entry is in [1/2, 1), and each scaled entry is rounded to
    an integer in units of u = 2^-p.  Partial pivoting eliminates on these
    integers exactly, rounding each multiplier (|l| <= 1) and each product
    l u_kj to the nearest unit, and the pivots' exact product is rounded
    once, within u.  One half-unit for the conversion, one per product an
    entry receives and one per multiplier times its pivot give LU = PA + E,
    |E| <= (n + max|U_kk|) u/2 entrywise.  The exact entries are within
    e|A|, e = 2 ulps u, and |A| 1 <= (s + n/2) u for the integers' row sums
    s.  So the exact determinant is det(LU) det(I - F), |F| <= |U^-1||L^-1|
    G, G 1 = |E| 1 + e |PA| 1, and as |T^-1| <= M(T)^-1 for triangular T and
    its comparison matrix (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., Thm 8.12), F's eigenvalues are at most x = max
    M(U)^-1 M(L)^-1 G 1, nonnegative sums taken in log2.  As |det(I - F) -
    1| <= d = n x (1 + n x) for n x <= 1, the bound is (u + d) / (1 - u - d).
    """
    prec, n, zero = mpmath.mp.prec, len(rows), (mpmath.mpf(0), mpmath.inf)
    # |man 2^exp| < 2^(exp + bit_length(man)): the columns' tops, then the rows'
    a = [[(m, e + m.bit_length()) for m, e in row] for row in rows]
    cols = [max((t for m, t in col if m), default=None) for col in zip(*a)]
    if None in cols:
        return zero
    tops = [max((t - c for (m, t), c in zip(row, cols) if m), default=None) for row in a]
    if None in tops:
        return zero
    a = [[_fixed(m, e, prec - c - r) for (m, e), c in zip(row, cols)]
         for row, r in zip(rows, tops)]
    sums, det, half = [sum(map(abs, row)) for row in a], 1, 1 << (prec - 1)
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(a[i][k]))
        pivot = a[p][k]
        if not pivot:
            return zero
        if p != k:
            a[k], a[p], sums[k], sums[p], det = a[p], a[k], sums[p], sums[k], -det
        det *= pivot
        tail = a[k][k + 1:]
        for row in a[k + 1:]:
            if row[k]:  # L below the diagonal, then the row's update
                row[k] = f = ((row[k] << (prec + 1)) + pivot) // (2 * pivot)
                row[k + 1:] = [x - ((f * y + half) >> prec) for x, y in zip(row[k + 1:], tail)]
    det = mpmath.mp.make_mpf(from_man_exp(det, sum(cols) + sum(tops) - n * prec, prec,
                                          round_nearest))
    lg = [[math.log2(abs(x)) - prec if x else -math.inf for x in row] for row in a]
    # G 1 in log2, in units of u^2: n (n / u + max|U_kk| / u) / 2 + ulps (2 s + n)
    le = float(mpmath.log(ulps, 2)) if ulps else -math.inf
    top = max((abs(row[k]) for k, row in enumerate(a)), default=0)
    y = []  # M(L)^-1 G 1, then M(U)^-1 of it
    for i, row in enumerate(lg):
        g = _log2_sum([math.log2(n * ((n << prec) + top)) - 1, le + math.log2(2 * sums[i] + n)])
        y.append(_log2_sum([g - 2 * prec] + [l + v for l, v in zip(row[:i], y)]))
    for i in reversed(range(n)):
        y[i] = _log2_sum([y[i]] + [l + v for l, v in zip(lg[i][i + 1:], y[i + 1:])]) - lg[i][i]
    w = max(y, default=0.0) + 2.0 ** -10  # covers the log2 sums' roundings, generously
    nx = n * mpmath.ldexp(2.0 ** (w % 1), math.floor(w))
    d = nx * (1 + nx) + mpmath.ldexp(1, -prec)
    return det, d / (1 - d) if d < 1 else mpmath.inf


def _fixed(man, exp, shift):  # man 2^(exp + shift), rounded to the nearest integer
    shift += exp
    return man << shift if shift >= 0 else ((man >> (-shift - 1)) + 1) >> 1


def _entry(man, exp):
    """man 2^exp rounded to the nearest value of p bits, p the working
    precision, ties to even, as (m, e) with m odd or 0 (then e = 0): the
    digits mpmath's ``from_man_exp(man, exp, p, round_nearest)`` has, the
    form in which every kernel hands its entries to `_bounded_det`."""
    neg = man < 0
    if neg:
        man = -man
    cut = man.bit_length() - mpmath.mp.prec
    if cut > 0:  # t: man to one bit past p; up on its last bit unless a tie to even
        t = man >> (cut - 1)
        up = t & 1 and (t & 2 or man & ((1 << (cut - 1)) - 1))
        man, exp = (t >> 1) + 1 if up else t >> 1, exp + cut
    if not man & 1:
        if not man:
            return 0, 0
        zeros = (man & -man).bit_length() - 1
        man, exp = man >> zeros, exp + zeros
    return -man if neg else man, exp


def _log2_sum(terms):  # log2 sum 2^t over terms, the largest finite
    top = max(terms)
    return top + math.log2(sum(2.0 ** (t - top) for t in terms))


def _digits(x):
    """The int, float or mpf ``x`` exactly as (man, exp), x = man 2^exp with
    man a signed integer, odd unless x is 0: the one place every kernel reads
    its inputs, so that none of them is rounded on the way in."""
    if isinstance(x, float):
        x, den = x.as_integer_ratio()  # den a power of two, x odd unless den is 1
        if den > 1:
            return x, 1 - den.bit_length()
    sign, man, exp, _ = from_int(x) if isinstance(x, int) else x._mpf_
    return -man if sign else man, exp


def _product(*xs):
    """The exact product of ``xs`` (ints, floats or mpfs) as (man, exp)."""
    man, exp = 1, 0
    for x in xs:
        m, e = _digits(x)
        man, exp = man * m, exp + e
    return man, exp


def _rounded(num, den, exp):
    """The rational num / den times 2^exp as an entry (`_entry`), within 1 +
    2^-8 ulps: one floor division to at least w + 1 bits, w = p + 8 (under a
    unit of 2^-w), rounded once to the working precision p."""
    sign, num, den = (num < 0) != (den < 0), abs(num), abs(den)
    shift = mpmath.mp.prec + 9 + den.bit_length() - num.bit_length()
    q = (num << shift if shift >= 0 else num >> -shift) // den
    return _entry(-q if sign else q, exp - shift)


def _exp_digits(man, exp, w):
    """e^(man 2^exp) from one mpmath `mpf_exp` at w bits (within `_FN` units
    of 2^-w), as (m, e), m of exactly w bits."""
    _, m, e, bc = mpf_exp(from_man_exp(man, exp), w, round_nearest)
    return m << (w - bc), e - (w - bc)


@functools.lru_cache(maxsize=256)
def _pref_digits(p):
    """The lambda-free part of the `detform._Pref` ``p``, exact on Python
    integers from the inputs' digits (`_digits`): (num, den, exp, decay),
    the sign, Gamma(a) at an integer a as (a-1)!, v^k as mantissa powers and
    each Vandermonde difference y - x from its spectrum's mantissas aligned
    to the spectrum's least exponent, as num / den times 2^exp, and sum
    decay exactly as (man, exp) (None without decay).  It is the same at
    every precision, so it is computed once per prefactor."""
    num, den, exp = (-1) ** p.pairs, 1, 0
    for k, vals in p.powers:
        for v in vals:
            man, e = _digits(v)
            num, den, exp = num * man ** max(k, 0), den * man ** max(-k, 0), exp + e * k
    num *= math.prod(math.factorial(a - 1) for a in p.above)
    den *= math.prod(math.factorial(a - 1) for a in p.below)
    for vals in p.vandermonde:
        digits = [_digits(x) for x in vals]
        low = min((e for _, e in digits), default=0)
        mans = [man << e - low for man, e in digits]
        den *= math.prod(y - x for j, x in enumerate(mans) for y in mans[j + 1:])
        exp -= low * (len(mans) * (len(mans) - 1) // 2)
    decay = None
    if p.decay:
        digits = [_digits(x) for x in p.decay]
        low = min(e for _, e in digits)
        decay = sum(man << e - low for man, e in digits), low
    return num, den, exp, decay


def _pref(p, lam):
    """The `detform._Pref` ``p`` at ``lam`` as an mpf, and its ulps, 1.1.

    The lambda-free part is exact (`_pref_digits`), and so is lam^lam_power
    as a mantissa power; lam sum decay is one exact integer times a power of
    two, and e^(-lam sum decay) one `mpf_exp` of it at w = p + 8 bits,
    within `_FN` units of 2^-w.  num times it over den is rounded once by
    `_rounded`: within 1 + (_FN + 1) 2^-8 < 1.1 ulps.
    """
    num, den, exp, decay = _pref_digits(p)
    (lm, le), k = _digits(lam), p.lam_power
    num, den, exp = num * lm ** max(k, 0), den * lm ** max(-k, 0), exp + le * k
    if decay:
        total, low = decay
        em, ee = _exp_digits(-lm * total, le + low, mpmath.mp.prec + 8)
        num, exp = num * em, exp + ee
    return mpmath.mpf(_rounded(num, den, exp)), 1.1


def _gamma_row(a_lo, a_hi, x, scale):
    """E_a(x) = int_0^1 t^(a-1) e^(-x t) dt = gamma(a, x) / x^a, times
    c^a, for the orders a = a_lo..a_hi, x > 0, each an entry (`_entry`)
    within 1.1 ulps; x = m 2^e and the scale c = cm 2^ce > 0 (1 gives the
    unscaled row) come as their exact digits, (m, e) and (cm, ce)
    (`_digits`).

    E_a = e^-x S_a / a with S_a = 1F1(1; a+1; x) >= 1, on Python integers
    in fixed point with w = p + g bits (p the working precision, g =
    8 + bit_length(p + a_hi) guard bits), each step one floor division.  The top
    order S_(a_hi) comes in units of 2^(t-w), 2^t <= S_(a_hi): below
    x = a_hi + 1 (t = 0) from the series sum_j x^j / ((a+1)...(a+j)),
    a = a_hi, summed until a term floors to zero; from x = a_hi + 1 on from
    the finite sum a! x^-a (e^x - sum_(k<a) x^k / k!), e^x from mpmath at
    w + 4 bits and the sum from its top term down (each term k / x times
    the one above), whose subtraction loses at most a bit (the sum is below
    e^x / 2 there), with t set so that the quotient has w + 1 bits.  Times
    e^-x (mpmath, w bits), the lower orders follow from
    e^-x S_a = e^-x + x e^-x S_(a+1) / (a+1).  The scale gives
    c^a = cm^a 2^(a ce) on integers, as c^(a-1) times cm, each power
    truncated to w + 1 bits.  Each entry, times its power and divided by a,
    is rounded once to p bits.

    Error, relative, in units of 2^-w.  The series takes J <= 2 (w + a + 2)
    terms (those past the 2a + 4th fall by half each); each floor loses
    under a unit, carried on by ratios x / (a+j) < 1, so the terms lose at
    most J S_a and the tail past the zero term at most a + J + 1 units:
    4w + 5a + 9 in all, as S_a >= 1.  The finite sum loses about a + 2
    (its terms' floors against e^x / 2, e^x's own error, the quotient's
    floor).  e^-x is charged mpmath's `_FN`, the product's floor 2, a
    recurrence step 4 (its floor and e^-x's, against at least 2^(w-1)
    units), as x S_(a+1) / (a+1) <= S_a carries the error on without growth,
    and the division by a 2a.  A truncated power keeps at least w + 1 bits,
    so each truncation loses under 2^-w of it, and c^a, after a of them,
    under a units.  With 2^g >= 256 (p + a_hi + 1), the 4w + 12a + 15 units
    are under a tenth of an ulp at p, and the final rounding adds one, so a
    row is within 1.1 ulps, a scaled row included.
    """
    prec = mpmath.mp.prec
    w = prec + 8 + (prec + a_hi).bit_length()
    m, e = x
    mul, f = m << max(e, 0), max(-e, 0)  # x = mul / 2^f
    if mul < (a_hi + 1) << f:
        t, s = 0, 1 << w
        term, k = s, a_hi
        while term:
            k += 1
            term = (term * mul >> f) // k
            s += term
    else:
        a = a_hi
        em, ee = _exp_digits(m, e, w + 4)
        # sum_(k<a) x^k / k! in units 2^ee, from its top term down
        shift = e * (a - 1) - ee
        term = (m ** (a - 1) << shift if shift >= 0 else m ** (a - 1) >> -shift)
        term //= math.factorial(a - 1)
        head = term
        for k in range(a - 1, 0, -1):
            term = (term * k << f) // mul
            head += term
        num, den = math.factorial(a) * (em - head), m ** a
        shift = w + 1 + den.bit_length() - num.bit_length()
        s = (num << shift if shift >= 0 else num >> -shift) // den
        t = ee - e * a - shift + w
    em, ee = _exp_digits(-m, e, w)
    # e^-x S_a in units of 2^(ee + t), at least 2^(w-1) of them
    one = em >> t if t >= 0 else em << -t
    s = em * s >> w
    row = [s]
    for a in range(a_hi - 1, a_lo - 1, -1):
        s = one + (s * mul >> f) // (a + 1)
        row.append(s)
    row.reverse()
    # scale^a as pm 2^pe, truncated to w + 1 bits
    cm, ce = scale
    pm, pe, out = 1, 0, []
    for a in range(1, a_hi + 1):
        pm *= cm
        cut = max(pm.bit_length() - w - 1, 0)
        pm, pe = pm >> cut, pe + ce + cut
        if a >= a_lo:
            out.append(_entry(row[a - a_lo] * pm // a, ee + t + pe))
    return out


def _shifted_power_row(a_lo, a_hi, lam, s):
    """G_a = int_lam^inf t^(a-1) e^(-s t) dt = (a-1)! / s^a e^-x P_a, P_a =
    sum_(j<a) x^j / j! and x = lam s, for the orders a = a_lo..a_hi, each
    an entry (`_entry`) within 1.1 ulps.

    On Python integers in fixed point with w = p + g bits, g = 8 +
    2 bit_length(a_hi + 2), and x = mul 2^-f exactly from the digits of lam
    and s.  The terms t_j = 2^w x^j / j! come from t_0 = 2^w, each
    t_(j-1) mul 2^-f // j, and P_a is their running sum; c_a = (a-1)! e^-x
    / s^a from c_1 = e^-x / s (e^-x by mpmath at w bits) by c_(a+1) =
    c_a a / s, each one floor division to at least w + 1 bits.  Entry a is
    c_a P_a, rounded once to p bits.  Everything is computed from a = 1,
    so a row from a_lo > 1 is a slice of the row from 1.

    Error, relative, in units of 2^-w.  Each step's two floors lose under
    2 units, carried on by x / j, so t_i loses at most 2 t_i sum_(l<=i)
    1 / t_l.  Summed over i < a, an l with t_l >= 2^w adds at most 2 P_a
    2^-w, and one with t_l < 2^w lies past the peak of the terms (l > x),
    where they fall, and adds at most 2a units: P_a, at least 2^w, loses
    under 2a^2.  c_a loses under a + `_FN` (each floor under one, e^-x
    mpmath's `_FN`).  With 2^g >= 256 (a_hi + 2)^2 the 2a^2 + a + 4 units
    are under a tenth of an ulp at p, and the rounding adds one.
    """
    prec = mpmath.mp.prec
    w = prec + 8 + 2 * (a_hi + 2).bit_length()
    m, e = _product(lam, s)
    mul, f = m << max(e, 0), max(-e, 0)
    em, ee = _exp_digits(-m, e, w)
    sm, se = _digits(s)
    shift = 2 + sm.bit_length()
    cm, ce = (em << shift) // sm, ee - se - shift
    t = total = 1 << w
    row = []
    for a in range(1, a_hi + 1):
        if a >= a_lo:
            row.append(_entry(total * cm, ce - w))
        t = (t * mul >> f) // a
        total += t
        cm *= a
        shift = w + 1 + sm.bit_length() - cm.bit_length()
        cm = (cm << shift if shift >= 0 else cm >> -shift) // sm
        ce -= se + shift
    return row


def _g(n, m, e):
    """g_n(y) = int_0^1 (1-t)^(n-1) e^(-y t) dt = 1F1(1; n+1; -y) / n at
    y = m 2^e > 0, taken exactly, as an entry (`_entry`) within 1.1 ulps.

    On Python integers in fixed point with w = p + g bits, g = 10 +
    bit_length(n (p + 12n + 64)), and y = mul 2^-f.  Below y = 2n, from the
    positive series g_n = e^-y sum_j y^j / (j! (n + j)): the terms t_j =
    2^w y^j / j! from t_0 = 2^w, each t_(j-1) mul 2^-f // j, summed as
    t_j // (n + j) from j = 0 until one past 2y floors to zero, times e^-y
    from mpmath at w bits.  From y = 2n on, with work that does not grow
    with y, from n integrations by parts, g_n = (1/y) sum_(k<n) (-1)^k t_k +
    (-1)^n (n-1)! e^-y / y^n with t_k = (n-1)! / ((n-1-k)! y^k): t_0 = 2^w,
    each t_(k-1) (n-k) 2^f // mul, the e^-y term left out from y = w on,
    where it is under a unit, then one floor division by y.  The entry is
    rounded once to p bits.

    Error, relative, in units of 2^-w.  Series: each step's two floors lose
    under 2 units, carried on by y / j, so t_j loses at most 2 sum_(d<j)
    y^d / d! <= 2 e^y (the ratios from l to j multiply to y^(j-l) l! / j! <=
    y^(j-l) / (j-l)!); with the summand's floor the J terms lose under
    3J e^y units, and the terms past them, which fall by half each, at most
    4 e^y.  By Jensen's inequality (1 / (n + j) is convex in j, under the
    Poisson(y) weights) g_n(y) >= 1 / (n + y), so the sum is at least
    2^w e^y / (n + y) and loses under (3J + 4) 3n, with J <= max(2e y, w) +
    2 <= 12n + w + 2 terms.  e^-y adds `_FN`.  Finite sum: the ratios
    (n-k) / y are at most 1/2, so each t_k loses under 2 units; the e^-y
    term's floors and its `_FN`, or its omission, under `_FN` + 2; and as
    y g_n(y) >= y / (n + y) >= 2/3, the sum, at least 2^(w-1), under
    2 (2n + `_FN` + 2); the division adds one.  With 2^g >= 1024 n (p + 12n
    + 64), either is under a tenth of an ulp at p, and the rounding adds one.
    """
    prec = mpmath.mp.prec
    w = prec + 10 + (n * (prec + 12 * n + 64)).bit_length()
    mul, f = m << max(e, 0), max(-e, 0)
    if mul < 2 * n << f:
        em, ee = _exp_digits(-m, e, w)
        t, j, top = 1 << w, 0, 2 * mul >> f
        total = t // n
        while t or j <= top:
            j += 1
            t = (t * mul >> f) // j
            total += t // (n + j)
        return _entry(em * total, ee - w)
    t = total = 1 << w
    for k in range(1, n):
        t = (t * (n - k) << f) // mul
        total += -t if k % 2 else t
    if mul < w << f:  # (-1)^n (n-1)! e^-y / y^(n-1), in units of 2^-w
        em, ee = _exp_digits(-m, e, w)
        shift, r = ee + w + f * (n - 1), math.factorial(n - 1) * em
        r = (r << shift if shift >= 0 else r >> -shift) // mul ** (n - 1)
        total += -r if n % 2 else r
    shift = w + 1 + mul.bit_length() - total.bit_length()
    return _entry((total << shift) // mul, f - w - shift)


def _block(family, k, v, point):
    """The rows (one list per value of ``v``) of a column block of a
    `detform._Law` at the point, each entry an integer pair (`_entry`), and
    the ulps of its entries: every argument is formed exactly from the
    inputs' digits, so only the kernels round."""
    lam, prec = point[0], mpmath.mp.prec
    if family in ("g", "expr"):  # lam r v from digits read once a block
        (lm, le), rs = _digits(lam), [_digits(r) for r in k]
        ys = [[(lm * rm * xm, le + re + xe) for rm, re in rs] for xm, xe in map(_digits, v)]
        if family == "expr":  # one call, its (positive) normalized digits
            return [[mpf_exp(from_man_exp(-m, e), prec, round_nearest)[1:3] for m, e in row]
                     for row in ys], _FN
        return [[_g(len(v), m, e) for m, e in row] for row in ys], 1.1
    if family in ("pow", "exp"):
        # v^a as a mantissa power, for exp times e^(lam v) at w = p + 8 bits
        # (`_FN` units of 2^-w), each rounded once by `_rounded`
        rows, w = [], prec + 8
        for x in v:
            em, ee = _exp_digits(*_product(lam, x), w) if family == "exp" else (1, 0)
            xm, xe = _digits(x)
            rows.append([_rounded(em * xm ** max(a, 0), xm ** max(-a, 0), ee + xe * a)
                         for a in k])
        return rows, 1.1
    lo, hi = k.start, k.stop - 1
    if family == "lamE":  # lam^k E_k(lam v)
        scale = _digits(lam)
        return [_gamma_row(lo, hi, _product(lam, x), scale) for x in v], 1.1
    if len(point) == 1:  # the tail (a, inf)
        return [_shifted_power_row(lo, hi, lam, x) for x in v], 1.1
    # e^(-v a) sum_(i<k) C(k-1, i) a^(k-1-i) T_i, T_i = h^(i+1) E_(i+1)(v h), h = b - a
    # exact: with a = A 2^g exactly (A an integer, g <= 0), the row's T_i aligned
    # exactly to integers P_1^(i) (times 2^-re) and P_(c+1)^(i) = A P_c^(i) +
    # P_c^(i+1) 2^-g, entry c is P_c^(0) 2^(re + (c-1) g) times e^(-v a) (v a exact,
    # mpmath at w bits) and rounded once.  The integers grow by A's length a level, so
    # once a level's first one passes 2w bits the level is truncated, each integer by
    # the same shift, so that its least keeps w + 1 bits: every P loses under 2^-w
    # relative.  As the sums are positive, P_c^(0) keeps the T_i's 1.1 ulps and is
    # within c - 1 more units of 2^-w, and with e^(-v a)'s `_FN`, hi + 4 units are
    # under a tenth of an ulp at p (2^(w-p) >= 256 (p + hi)): with the rounding, the
    # entries are within 2.2 ulps.
    (am, ea), (bm, eb) = _digits(lam), _digits(point[1])
    low = min(ea, eb)
    hm, he = _digits((bm << eb - low) - (am << ea - low))  # h = b - a, exactly
    h, w = (hm, he + low), prec + 8 + (prec + hi).bit_length()
    g = min(ea, 0)
    A = am << ea - g
    rows = []
    for x in v:
        xm, xe = _digits(x)
        terms = _gamma_row(1, hi, (xm * hm, xe + h[1]), h)
        re = min(e for _, e in terms)
        P = [m << e - re for m, e in terms]
        em, ee = _exp_digits(-am * xm, ea + xe, w)
        row = []
        for c in range(1, hi + 1):
            if c >= lo:
                row.append(_entry(P[0] * em, re + (c - 1) * g + ee))
            P = [A * p + (q << -g) for p, q in zip(P, P[1:])]
            if P and P[0].bit_length() > 2 * w:
                cut = min(map(int.bit_length, P)) - w - 1
                if cut > 0:
                    P, re = [p >> cut for p in P], re + cut
        rows.append(row)
    return rows, 2.2


def _build(law, point):
    """The `detform._Law` ``law`` at ``point`` at the working precision:
    (prefactor, an mpf, its ulps, rows of integer pairs (`_entry`), their
    ulps), the ulps the most of any block's."""
    blocks = [_block(family, k, law.rows, point) for family, k in law.blocks]
    rows = [sum(parts, []) for parts in zip(*(rows for rows, _ in blocks))]
    return (*_pref(law.pref, point[0]), rows, max(ulps for _, ulps in blocks))

