"""Batch command line for the eigenvalue-distribution engine.

Subcommands:

* ``cdf``        tabulate Pr(lambda_max <= x) or Pr(lambda_min >= x) on a grid
* ``pdf``        tabulate the matching densities (or the joint min/max density)
* ``gap``        tabulate the two-sided gap probability over an (a, b) grid
* ``crosscheck`` determinant engine vs. Schur-series oracle at m <= 4, n <= 8,
  on the values the engine vouches for (unflagged, or escalated)
* ``validate``   determinant engine vs. Monte Carlo inside the DKW band

The gap probability and the joint density take a row case, or a square
(n = m) column case, which has the row model's eigenvalues.

Spectra passed with ``--spectrum``/``--r``/``--s`` are eigenvalues of the
*inverse* covariance matrix (the formulas' natural parameters), not of the
covariance itself.  To start from a covariance matrix use the
``--covariance*`` options with a JSON file of the form
``{"hermitian": [[{"re": ..., "im": ...}, ...], ...]}``.

The three table commands (``cdf``, ``pdf``, ``gap``) share one handler: one
batched engine call over the job's points, written as CSV or JSON rows.
Only they take ``--format``, ``--output`` and ``--strict``; ``crosscheck``
and ``validate`` print a fixed report to stdout.  ``--config FILE`` reads
defaults from a JSON object keyed by option name: a string or number is
read as on the command line, and ``--strict`` takes ``true`` or ``false``.

Exit codes: 0 success, 2 argument error, 3 cancellation warning in
``--strict`` mode, 4 crosscheck/validation failure (for crosscheck, also
no value to compare).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
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

_VALIDATION_POINTS = 30  # lambdas of a validate run without --grid
# the sizes the Schur-series oracle is documented for (`corrwishart.schur_series`)
_ORACLE_MAX_M, _ORACLE_MAX_N = 4, 8


def _parse_grid(spec: str) -> List[float]:
    parts = spec.split(":")
    if len(parts) not in (3, 4):
        raise ValueError(f"grid must be start:stop:points[:spacing], got {spec!r}")
    start, stop = float(parts[0]), float(parts[1])
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"grid start and stop must be finite, got {spec!r}")
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


def _spectrum(path, values, missing: str):
    if path:
        return spectrum_from_covariance(_load_covariance(path))
    if values:
        return validate_spectrum(_parse_values(values))
    raise ValueError(missing)


def _build_case(args):
    kind = args.case
    if kind is None:
        raise ValueError("--case is required")
    if args.n is None or args.m is None:
        raise ValueError("--n and --m are required")
    dims = Dimensions(args.n, args.m)
    if kind == "double":
        return DoublyCorrelated(
            dims, _spectrum(args.covariance_r, args.r, "double case needs --r or --covariance-r"),
            _spectrum(args.covariance_s, args.s, "double case needs --s or --covariance-s"))
    model = RowCorrelated if kind == "row" else ColumnCorrelated
    return model(dims, _spectrum(args.covariance, args.spectrum,
                                 f"{kind} case needs --spectrum or --covariance"))


def _jobspec(args) -> dict:
    keys = ("command", "case", "n", "m", "spectrum", "r", "s", "stat", "grid", "a", "b",
            "format", "precision")
    return {key: getattr(args, key) for key in keys if getattr(args, key, None) is not None}


def _ab_points(args, what):
    if args.a is None or args.b is None:
        raise ValueError(f"{what} needs --a and --b grids")
    agrid, bgrid = _parse_grid(args.a), _parse_grid(args.b)
    points = [(a, b) for a in agrid for b in bgrid if b > a]
    if not points:
        raise ValueError(f"{what}: no pair of the --a and --b grids has b > a")
    return points


def _cmd_table(args) -> int:
    """``cdf``, ``pdf`` and ``gap``: one engine call over the job's points,
    which it evaluates in batched chunks of bounded memory, written as one
    row per point."""
    case = _build_case(args)
    cfg = EvalConfig(args.precision or "double")
    if args.command == "gap" or args.stat == "joint":
        keys, stat = ["a", "b"], "gap"
        points = coords = _ab_points(args, "gap" if args.command == "gap" else "--stat joint")
    else:
        keys, stat = ["lambda"], args.stat
        points = _parse_grid(args.grid or "0.1:10:50:log")
        coords = [(lam,) for lam in points]
    reports = detform._grid(case, stat, points, cfg, density=args.command == "pdf")
    columns = keys + ["value", "abs_error", "cancel_digits", "warnings"]
    if args.format == "json":
        def number(x):  # JSON has no Infinity or NaN: null, the row's warnings say why
            return x if math.isfinite(x) else None

        rows = [dict(zip(columns, (*point, *map(number, (rep.value, rep.abs_error_estimate,
                                                         rep.cancellation_digits)),
                                   rep.warnings)))
                for point, rep in zip(coords, reports)]
        text = json.dumps({"jobspec": _jobspec(args), "rows": rows},
                          indent=2, sort_keys=True, allow_nan=False) + "\n"
    else:
        row = ",".join(["%.17g"] * (len(columns) - 1) + ["%s"])
        text = "\n".join([",".join(columns)] + [
            row % (*point, rep.value, rep.abs_error_estimate, rep.cancellation_digits,
                   ";".join(rep.warnings).replace(",", " "))
            for point, rep in zip(coords, reports)]) + "\n"
    if args.output:
        with open(args.output, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    flagged = any(w.startswith("cancellation:") for rep in reports for w in rep.warnings)
    return 3 if args.strict and flagged else 0


def _vouched(rep) -> bool:
    """Unflagged, or re-evaluated by an accepted mpmath round."""
    kinds = {w.split(":", 1)[0] for w in rep.warnings}
    return kinds <= {"cancellation", "extended"} and kinds != {"cancellation"}


def _cmd_crosscheck(args) -> int:
    """The engine against the series oracle at 12 points per statistic,
    comparing only the values that the engine vouches for (`_vouched`)."""
    case = _build_case(args)
    if not isinstance(case, RowCorrelated):
        raise ValueError("crosscheck compares against the row-correlated series oracle; "
                         "use --case row")
    n, m = case.dims.n, case.dims.m
    if m > _ORACLE_MAX_M or n > _ORACLE_MAX_N:
        raise ValueError(f"crosscheck: the series oracle covers m <= {_ORACLE_MAX_M} and "
                         f"n <= {_ORACLE_MAX_N}, got n={n} m={m}")
    cfg = EvalConfig(args.precision or "double")
    tol = args.tol
    smax = max(case.s.values)
    lams = list(np.geomspace(0.15 / smax, 6.0 / smax, 12))
    worst = {"max": 0.0, "min": 0.0}
    compared = skipped = 0
    oracles = {"max": lambda lam: schur_series.cdf_max_schur(lam, case.dims, case.s.values).value,
               "min": lambda lam: schur_series.cdf_min_schur(lam, case.dims, case.s.values)}
    for stat, oracle in oracles.items():
        for lam, rep in zip(lams, detform._grid(case, stat, lams, cfg)):
            if not _vouched(rep):
                skipped += 1
                continue
            compared += 1
            want = oracle(lam)
            if want > 1e-280:
                worst[stat] = max(worst[stat], abs(rep.value - want) / want)
    for stat, err in worst.items():
        print(f"crosscheck row n={n} m={m}: {stat}-statistic rel discrepancy {err:.3e}")
    print(f"crosscheck row n={n} m={m}: {skipped} flagged values skipped, {compared} compared")
    ok = compared > 0 and max(worst.values()) <= tol
    why = f"tolerance {tol:g}" if compared else "no value to compare"
    print("crosscheck:", "PASS" if ok else "FAIL", f"({why})")
    return 0 if ok else 4


def _cmd_validate(args) -> int:
    case = _build_case(args)
    cfg = EvalConfig(args.precision or "double")
    stat = args.stat
    detform._grid(case, stat, [], cfg)  # the engine's refusal of a law it lacks
    given = {"master_seed": args.seed, "confidence": args.confidence}
    mc = MCConfig(samples=200000 if args.samples is None else args.samples,
                  **{k: v for k, v in given.items() if v is not None})
    if args.grid:
        grid = _parse_grid(args.grid)
    else:
        grid = _default_validation_grid(case, stat, mc)
    emp = montecarlo.empirical_extreme_cdf(case, stat, grid, mc)
    analytic = detform._grid(case, stat, emp.grid, cfg)
    ok = True
    print(f"validate {args.case} n={case.dims.n} m={case.dims.m} stat={stat} "
          f"N={mc.samples} dkw_epsilon={emp.dkw_epsilon:.5f}")
    print("lambda,empirical,analytic,margin")
    for lam, frac, rep in zip(emp.grid, emp.fractions, analytic):
        ana = rep.value
        margin = emp.dkw_epsilon - abs(ana - frac)
        ok = ok and margin >= 0.0
        print(f"{lam:.6g},{frac:.6f},{ana:.6f},{margin:+.6f}")
    print("validate:", "PASS" if ok else "FAIL")
    return 0 if ok else 4


def _default_validation_grid(case, stat, mc) -> List[float]:
    pilot_cfg = dataclasses.replace(mc, samples=min(2000, mc.samples))
    vals = montecarlo._extreme_eigs(case, pilot_cfg, stat)
    lo, hi = np.quantile(vals, [0.02, 0.98])
    lo = max(lo, hi * 1e-12)
    return list(np.linspace(lo, hi, _VALIDATION_POINTS))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrwishart",
        description="Exact extreme-eigenvalue distributions of correlated "
                    "complex Wishart matrices.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, func, summary, stats=("max", "min"), with_grid=True):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(parser=p, func=func)
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
        p.add_argument("--precision", choices=["double", "extended"])
        if func is _cmd_table:
            p.add_argument("--format", choices=["csv", "json"])
            p.add_argument("--output", help="write output here instead of stdout")
            p.add_argument("--strict", action="store_true",
                           help="exit 3 when any evaluation raised a cancellation warning")
        return p

    add_command("cdf", _cmd_table, "tabulate an extreme-eigenvalue CDF")
    p_pdf = add_command("pdf", _cmd_table, "tabulate an extreme-eigenvalue density",
                        stats=("max", "min", "joint"))
    p_pdf.add_argument("--a", help="grid for the smallest eigenvalue (joint: row cases, "
                       "or square column cases)")
    p_pdf.add_argument("--b", help="grid for the largest eigenvalue (joint)")
    p_gap = add_command("gap", _cmd_table, "tabulate the two-sided gap probability "
                        "(row cases, or square column cases)",
                        stats=(), with_grid=False)
    p_gap.add_argument("--a", help="grid start:stop:points[:spacing] for a")
    p_gap.add_argument("--b", help="grid for b")
    add_command("crosscheck", _cmd_crosscheck, "determinant engine vs. series oracle",
                stats=(), with_grid=False).add_argument("--tol", type=float, default=1e-8)
    p_val = add_command("validate", _cmd_validate, "determinant engine vs. Monte Carlo")
    p_val.add_argument("--samples", type=int)
    p_val.add_argument("--seed", type=int)
    p_val.add_argument("--confidence", type=float)
    return parser


def _config_value(key: str, action, value):
    """A config file's ``value`` for ``action``, read as the command line reads it."""
    if action.nargs == 0:  # a flag
        if isinstance(value, bool):
            return value
        raise ValueError(f"config {key}: takes true or false, got {value!r}")
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ValueError(f"config {key}: takes a string or a number, got {value!r}")
    try:
        typed = (action.type or str)(str(value))
    except ValueError:
        raise ValueError(f"config {key}: invalid {action.type.__name__} value {value!r}") from None
    if action.choices and typed not in action.choices:
        raise ValueError(f"config {key}: {value!r} is not one of " + ", ".join(action.choices))
    return typed


def _apply_config(args) -> None:
    if not getattr(args, "config", None):
        return
    with open(args.config) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"config {args.config}: not a JSON object")
    # the subcommand's own options; help and config are not job settings
    actions = {a.dest: a for a in args.parser._actions if a.dest not in ("help", "config")}
    for key, value in data.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise ValueError(f"config {key}: not an option of {args.command}")
        # an option left off the command line still holds its default object
        if getattr(args, action.dest) is action.default:
            setattr(args, action.dest, _config_value(key, action, value))


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
