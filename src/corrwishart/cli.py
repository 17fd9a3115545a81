"""Batch command line for the eigenvalue-distribution engine.

Subcommands:

* ``cdf``        tabulate Pr(lambda_max <= x) or Pr(lambda_min >= x) on a grid
* ``pdf``        tabulate the matching densities (or the joint min/max density)
* ``gap``        tabulate the two-sided gap probability over an (a, b) grid
* ``crosscheck`` determinant engine vs. Schur-series oracle at small sizes
* ``validate``   determinant engine vs. Monte Carlo inside the DKW band

Spectra passed with ``--spectrum``/``--r``/``--s`` are eigenvalues of the
*inverse* covariance matrix (the formulas' natural parameters), not of the
covariance itself.  To start from a covariance matrix use the
``--covariance*`` options with a JSON file of the form
``{"hermitian": [[{"re": ..., "im": ...}, ...], ...]}``.

Exit codes: 0 success, 2 argument error, 3 cancellation warning in
``--strict`` mode, 4 crosscheck/validation failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import List, Optional

import numpy as np

from . import detform, montecarlo, schur_series
from .detform import EvalConfig
from .model import (
    ColumnCorrelated,
    Dimensions,
    DoublyCorrelated,
    RowCorrelated,
    spectrum_from_covariance,
    validate_spectrum,
)
from .montecarlo import MCConfig

_ENV_PRECISION = "CORRWISHART_PRECISION"


def _parse_grid(spec: str) -> List[float]:
    parts = spec.split(":")
    if len(parts) not in (3, 4):
        raise ValueError(f"grid must be start:stop:points[:spacing], got {spec!r}")
    start, stop = float(parts[0]), float(parts[1])
    points = int(parts[2])
    spacing = parts[3] if len(parts) == 4 else "log"
    if spacing not in ("linear", "log"):
        raise ValueError(f"grid spacing must be linear or log, got {spacing!r}")
    if start <= 0:
        raise ValueError("grid start must be > 0")
    if points < 1:
        raise ValueError("grid needs at least one point")
    if points == 1:
        return [start]
    if stop <= start:
        raise ValueError("grid stop must exceed start")
    if spacing == "linear":
        return list(np.linspace(start, stop, points))
    return list(np.geomspace(start, stop, points))


def _parse_values(text: str) -> List[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def _load_covariance(path: str):
    with open(path) as fh:
        data = json.load(fh)
    rows = data["hermitian"]
    return np.array([[complex(e["re"], e.get("im", 0.0)) for e in row]
                     for row in rows])


def _build_case(args):
    kind = args.case
    if kind is None:
        raise ValueError("--case is required")
    n, m = args.n, args.m
    if n is None or m is None:
        raise ValueError("--n and --m are required")
    dims = Dimensions(int(n), int(m))
    if kind == "row":
        return RowCorrelated(dims, _case_spectrum(args))
    if kind == "column":
        return ColumnCorrelated(dims, _case_spectrum(args))
    if kind == "double":
        if args.covariance_r:
            r = spectrum_from_covariance(_load_covariance(args.covariance_r))
        elif args.r:
            r = validate_spectrum(_parse_values(args.r))
        else:
            raise ValueError("double case needs --r or --covariance-r")
        if args.covariance_s:
            s = spectrum_from_covariance(_load_covariance(args.covariance_s))
        elif args.s:
            s = validate_spectrum(_parse_values(args.s))
        else:
            raise ValueError("double case needs --s or --covariance-s")
        return DoublyCorrelated(dims, r, s)
    raise ValueError(f"unknown case kind {kind!r}")


def _case_spectrum(args):
    if args.covariance:
        return spectrum_from_covariance(_load_covariance(args.covariance))
    if args.spectrum:
        return validate_spectrum(_parse_values(args.spectrum))
    raise ValueError(f"{args.case} case needs --spectrum or --covariance")


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _emit(rows, columns, args, jobspec) -> None:
    out_fmt = args.format or "csv"
    if out_fmt == "csv":
        lines = [",".join(columns)]
        for row in rows:
            cells = []
            for col in columns:
                v = row[col]
                if col == "warnings":
                    cells.append(";".join(v).replace(",", " "))
                else:
                    cells.append(_fmt(v))
            lines.append(",".join(cells))
        text = "\n".join(lines) + "\n"
    else:
        payload = {"jobspec": jobspec, "rows": rows}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.output:
        with open(args.output, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _jobspec(args, command) -> dict:
    keys = ("case", "n", "m", "spectrum", "r", "s", "stat", "grid", "a", "b",
            "format", "precision", "samples", "seed", "confidence")
    spec = {"command": command}
    for key in keys:
        val = getattr(args, key, None)
        if val is not None:
            spec[key] = val
    return spec


def _eval_config(args) -> EvalConfig:
    precision = args.precision or os.environ.get(_ENV_PRECISION) or "double"
    return EvalConfig(precision=precision)


def _strict_rc(rows, args) -> int:
    if args.strict and any(any(w.startswith("cancellation:") for w in row["warnings"])
                           for row in rows):
        return 3
    return 0


def _emit_reports(keys, points, reports, args, command) -> int:
    """Write one row per (point, report); ``keys`` name the point's coordinates."""
    rows = []
    for point, rep in zip(points, reports):
        row = dict(zip(keys, point))
        row.update({"value": rep.value, "abs_error": rep.abs_error_estimate,
                    "cancel_digits": rep.cancellation_digits,
                    "warnings": rep.warnings})
        rows.append(row)
    _emit(rows, list(keys) + ["value", "abs_error", "cancel_digits", "warnings"],
          args, _jobspec(args, command))
    return _strict_rc(rows, args)


def _ab_points(args, what):
    if args.a is None or args.b is None:
        raise ValueError(f"{what} needs --a and --b grids")
    agrid, bgrid = _parse_grid(args.a), _parse_grid(args.b)
    return [(a, b) for a in agrid for b in bgrid if b > a]


# Each grid job is one call into the engine, which evaluates the
# determinants of all its points as one batched kernel call.


def _cmd_cdf(args) -> int:
    case = _build_case(args)
    cfg = _eval_config(args)
    grid = _parse_grid(args.grid or "0.1:10:50:log")
    fn = detform._cdf_max_grid if args.stat == "max" else detform._cdf_min_grid
    return _emit_reports(["lambda"], [(lam,) for lam in grid], fn(case, grid, cfg),
                         args, "cdf")


def _cmd_pdf(args) -> int:
    case = _build_case(args)
    cfg = _eval_config(args)
    if args.stat == "joint":
        points = _ab_points(args, "--stat joint")
        return _emit_reports(["a", "b"], points,
                             detform._pdf_joint_grid(case, points, cfg), args, "pdf")
    grid = _parse_grid(args.grid or "0.1:10:50:log")
    fn = detform._pdf_max_grid if args.stat == "max" else detform._pdf_min_grid
    return _emit_reports(["lambda"], [(lam,) for lam in grid], fn(case, grid, cfg),
                         args, "pdf")


def _cmd_gap(args) -> int:
    case = _build_case(args)
    cfg = _eval_config(args)
    points = _ab_points(args, "gap")
    return _emit_reports(["a", "b"], points, detform._prob_gap_grid(case, points, cfg),
                         args, "gap")


def _cmd_crosscheck(args) -> int:
    case = _build_case(args)
    if not isinstance(case, RowCorrelated):
        raise ValueError("crosscheck compares against the row-correlated series oracle; "
                         "use --case row")
    cfg = _eval_config(args)
    tol = args.tol
    n, m = case.dims.n, case.dims.m
    smax = max(case.s.values)
    lams = list(np.geomspace(0.15 / smax, 6.0 / smax, 12))
    worst_max = 0.0
    worst_min = 0.0
    for lam in lams:
        det_max = detform.cdf_max(case, lam, cfg).value
        oracle_max = schur_series.cdf_max_schur(lam, case.dims, case.s.values).value
        det_min = detform.cdf_min(case, lam, cfg).value
        oracle_min = schur_series.cdf_min_schur(lam, case.dims, case.s.values)
        if oracle_max > 1e-280:
            worst_max = max(worst_max, abs(det_max - oracle_max) / oracle_max)
        if oracle_min > 1e-280:
            worst_min = max(worst_min, abs(det_min - oracle_min) / oracle_min)
    print(f"crosscheck row n={n} m={m}: max-statistic rel discrepancy {worst_max:.3e}")
    print(f"crosscheck row n={n} m={m}: min-statistic rel discrepancy {worst_min:.3e}")
    ok = worst_max <= tol and worst_min <= tol
    print("crosscheck:", "PASS" if ok else "FAIL", f"(tolerance {tol:g})")
    return 0 if ok else 4


def _cmd_validate(args) -> int:
    case = _build_case(args)
    cfg = _eval_config(args)
    stat = args.stat
    if (stat == "min" and isinstance(case, DoublyCorrelated)
            and case.dims.m != case.dims.n):
        raise ValueError("the doubly correlated smallest-eigenvalue law requires m = n")
    mc = MCConfig(samples=200000 if args.samples is None else args.samples,
                  master_seed=0 if args.seed is None else args.seed,
                  confidence=0.99 if args.confidence is None else args.confidence)
    if args.grid:
        grid = _parse_grid(args.grid)
    else:
        grid = _default_validation_grid(case, stat, mc)
    emp = montecarlo.empirical_extreme_cdf(case, stat, grid, mc)
    analytic_fn = detform.cdf_max if stat == "max" else detform.cdf_min
    ok = True
    print(f"validate {args.case} n={case.dims.n} m={case.dims.m} stat={stat} "
          f"N={mc.samples} dkw_epsilon={emp.dkw_epsilon:.5f}")
    print("lambda,empirical,analytic,margin")
    for lam, frac in zip(emp.grid, emp.fractions):
        ana = analytic_fn(case, lam, cfg).value
        margin = emp.dkw_epsilon - abs(ana - frac)
        ok = ok and margin >= 0.0
        print(f"{lam:.6g},{frac:.6f},{ana:.6f},{margin:+.6f}")
    print("validate:", "PASS" if ok else "FAIL")
    return 0 if ok else 4


def _default_validation_grid(case, stat, mc, points: int = 30) -> List[float]:
    pilot_cfg = MCConfig(samples=min(2000, mc.samples), master_seed=mc.master_seed,
                         confidence=mc.confidence)
    vals = montecarlo._extreme_eigs(case, pilot_cfg, stat)
    lo, hi = np.quantile(vals, [0.02, 0.98])
    lo = max(lo, 1e-12)
    return list(np.linspace(lo, hi, points))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrwishart",
        description="Exact extreme-eigenvalue distributions of correlated "
                    "complex Wishart matrices.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, stats=("max", "min"), with_grid=True):
        p.set_defaults(parser=p)
        p.add_argument("--config", help="JSON file with defaults for these options")
        p.add_argument("--case", choices=["row", "column", "double"])
        p.add_argument("--n", type=int)
        p.add_argument("--m", type=int)
        p.add_argument("--spectrum",
                       help="comma-separated inverse-covariance eigenvalues")
        p.add_argument("--covariance", help="JSON covariance file (row/column)")
        p.add_argument("--r", help="doubly case: inverse-covariance spectrum, length m")
        p.add_argument("--s", help="doubly case: inverse-covariance spectrum, length n")
        p.add_argument("--covariance-r", dest="covariance_r")
        p.add_argument("--covariance-s", dest="covariance_s")
        if stats:
            p.add_argument("--stat", choices=stats, default=None)
        if with_grid:
            p.add_argument("--grid", help="start:stop:points[:linear|log]")
        p.add_argument("--format", choices=["csv", "json"])
        p.add_argument("--output", help="write output here instead of stdout")
        p.add_argument("--precision", choices=["double", "extended"])
        p.add_argument("--strict", action="store_true",
                       help="exit 3 when any evaluation raised a cancellation warning")

    p_cdf = sub.add_parser("cdf", help="tabulate an extreme-eigenvalue CDF")
    add_common(p_cdf)
    p_cdf.set_defaults(func=_cmd_cdf)

    p_pdf = sub.add_parser("pdf", help="tabulate an extreme-eigenvalue density")
    add_common(p_pdf, stats=("max", "min", "joint"))
    p_pdf.add_argument("--a", help="grid for the smallest eigenvalue (joint)")
    p_pdf.add_argument("--b", help="grid for the largest eigenvalue (joint)")
    p_pdf.set_defaults(func=_cmd_pdf)

    p_gap = sub.add_parser("gap", help="tabulate the two-sided gap probability")
    add_common(p_gap, stats=(), with_grid=False)
    p_gap.add_argument("--a", help="grid start:stop:points[:spacing] for a")
    p_gap.add_argument("--b", help="grid for b")
    p_gap.set_defaults(func=_cmd_gap)

    p_cc = sub.add_parser("crosscheck",
                          help="determinant engine vs. series oracle")
    add_common(p_cc, stats=(), with_grid=False)
    p_cc.add_argument("--tol", type=float, default=1e-8)
    p_cc.set_defaults(func=_cmd_crosscheck)

    p_val = sub.add_parser("validate", help="determinant engine vs. Monte Carlo")
    add_common(p_val)
    p_val.add_argument("--samples", type=int)
    p_val.add_argument("--seed", type=int)
    p_val.add_argument("--confidence", type=float)
    p_val.set_defaults(func=_cmd_validate)
    return parser


def _apply_config(args) -> None:
    if not getattr(args, "config", None):
        return
    with open(args.config) as fh:
        data = json.load(fh)
    choices = {a.dest: a.choices for a in args.parser._actions if a.choices}
    for key, value in data.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            continue
        if getattr(args, attr) in (None, False):
            if attr in choices and value not in choices[attr]:
                raise ValueError(f"config {key}: {value!r} is not one of "
                                 + ", ".join(choices[attr]))
            setattr(args, attr, value)


@functools.lru_cache(maxsize=1)
def _shared_parser() -> argparse.ArgumentParser:
    # built once per process: argparse spends ~3 ms on it, more than a
    # whole grid job; parsing never changes it (`_apply_config` edits only
    # the namespace)
    return build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        _apply_config(args)
        if hasattr(args, "stat") and args.stat is None:
            args.stat = "max"
        return args.func(args)
    except (ValueError, TypeError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
