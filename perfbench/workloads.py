"""The three benchmark workloads, generated from a seed.

A workload is a list of jobs (one "pass").  ``generate`` makes the jobs
from the seed with the benchmark's own code only; ``bind`` turns a job into
a request against a freshly imported program, so set-up timing covers the
program's work and none of the generator's.  A request is one top-level
call: a CLI job, a public API call, or a validate-style Monte Carlo call.
The seed moves spectra and grids by a few percent around fixed base cases,
so every seed runs the same paths at the same sizes and conditioning
(``escalate``'s cases are fixed, see there); the program sees only the
generated cases and grids.

* ``tabulate``   in-process ``corrwishart.cli.main`` grid jobs in double
  precision, writing CSV: the users' main traffic.  Spends its time in the
  kernel, specfun, the entry builders and the per-column density loops,
  never in ``extended`` or ``montecarlo``.
* ``escalate``   public ``cdf_max``/``cdf_min``/``prob_gap`` calls with
  ``precision="extended"`` on ill-conditioned cases (evenly spaced spectra,
  m from 6 to 12) and a clustered row 5x3: the only traffic that reaches
  ``extended``; its double path runs the same layers as ``tabulate`` at
  other sizes and conditioning.
* ``montecarlo`` validate-style calls (empirical CDF on a 30-point grid and
  the analytic DKW comparison) for the seven (model, statistic) pairs, plus
  Haar matrix-integral estimates for n = 2 and 3: lives in sampling, the
  Gram product and the eigensolver, barely in the determinant engine.
"""

from __future__ import annotations

import csv
import importlib
import json
import math
import sys
import types
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List

import numpy as np

MC_SAMPLES = 2500            # samples per validate-style call
HAAR_SAMPLES = 20000         # samples per Haar estimate
MC_GRID_POINTS = 30
# Bands of the correctness check for the stochastic outputs.  Each run
# checks a few hundred of them, so the 0.99 band and a 3-sigma pull would
# mark a correct program wrong in a sizeable share of runs; these fail a
# correct program with negligible probability and still catch a wrong law.
DKW_ALPHA = 1e-6
HAAR_SIGMAS = 5.0


@dataclass
class Output:
    """One checked output: a value plus what the check needs."""

    key: str                 # reference key (model, quantity, point)
    value: float
    abs_err: float           # engine's abs_error_estimate, or band half-width
    flagged: bool            # engine attached a warning
    check: str = "estimate"  # "estimate" | "extended" | "dkw" | "haar"


def report_output(key: str, rep) -> Output:
    """Output of an ``EvalReport``.

    A report whose only warnings are the cancellation that triggered the
    mpmath re-evaluation and the note of that re-evaluation carries a value
    the engine vouches for at extended precision: it counts as flagged (it
    has warnings) but is checked, as an "extended" output.  Any other
    warning leaves the value unchecked.
    """
    ws = rep.warnings
    escalated = (any(w.startswith("extended:") for w in ws)
                 and all(w.startswith(("cancellation:", "extended:")) for w in ws))
    return Output(key, rep.value, rep.abs_error_estimate, bool(ws),
                  "extended" if escalated else "estimate")


@dataclass
class Request:
    kind: str                         # "cli" | "api" | "validate" | "haar"
    label: str
    call: Callable[[], object]        # the timed program call
    collect: Callable[[object], List[Output]]
    points: int                       # outputs a user asked for
    samples: int = 0


def ref_key(model: dict, quantity: str, point) -> str:
    return json.dumps([model, quantity, [float(p) for p in point]], sort_keys=True)


def parse_key(key: str):
    """(model, quantity, point) back from a reference key."""
    model, quantity, point = json.loads(key)
    return model, quantity, tuple(point)


def dkw_halfwidth(samples: int) -> float:
    """DKW band half-width at confidence 1 - DKW_ALPHA."""
    return math.sqrt(math.log(2.0 / DKW_ALPHA) / (2.0 * samples))


def _jitter(rng, base, spread):
    vals = np.asarray(base, dtype=float) * np.exp(rng.uniform(-spread, spread, len(base)))
    return sorted(float(v) for v in vals)


def _model(kind, n, m, s, r=None):
    out = {"kind": kind, "n": n, "m": m, "s": list(s)}
    if r is not None:
        out["r"] = list(r)
    return out


# ---------------------------------------------------------------------------
# tabulate

_ROW4 = [0.5, 1.0, 1.8, 3.0]
_ROW3 = [0.7, 1.5, 3.0]
_ROW6 = [0.5, 1.0, 1.7, 2.4, 3.3, 4.1]
_COL5 = [0.6, 1.1, 1.8, 2.7, 4.0]
_COL4 = [0.8, 1.6, 2.4, 4.0]
_DR3, _DS3 = [1.0, 2.0, 3.2], [0.9, 1.8, 3.1]
_DR43, _DS43 = [1.0, 1.7, 2.6], [0.8, 1.5, 2.6, 4.0]

# (command, stat, kind, n, m, s, r, grid or (a grid, b grid)); m <= 6 and
# well-separated spectra.  The row 8x6 pdf_max, column 4x2 pdf_min and
# doubly pdf_max jobs carry the known weak spots listed in README.md.
_TAB_JOBS = [
    ("cdf", "max", "row", 6, 4, _ROW4, None, (0.3, 40.0)),
    ("cdf", "min", "row", 6, 4, _ROW4, None, (0.005, 2.0)),
    ("pdf", "max", "row", 8, 6, _ROW6, None, (0.2, 30.0)),
    ("pdf", "min", "row", 5, 3, _ROW3, None, (0.005, 2.0)),
    ("cdf", "max", "column", 5, 3, _COL5, None, (0.1, 20.0)),
    ("pdf", "min", "column", 4, 2, _COL4, None, (0.01, 3.0)),
    ("cdf", "max", "double", 4, 3, _DS43, _DR43, (0.05, 10.0)),
    ("cdf", "min", "double", 3, 3, _DS3, _DR3, (0.005, 2.0)),
    ("pdf", "max", "double", 3, 3, _DS3, _DR3, (0.05, 10.0)),
    ("gap", None, "row", 5, 3, _ROW3, None, ((0.02, 0.5), (1.0, 20.0))),
    ("pdf", "joint", "row", 6, 4, _ROW4, None, ((0.02, 0.5), (1.0, 20.0))),
]


def _grid_arg(lo, hi, points):
    return f"{lo!r}:{hi!r}:{points}:log"


def _gen_tabulate(seed: int, tiny: bool) -> list:
    rng = np.random.default_rng([seed, 1])
    points_1d, points_2d = (4, 2) if tiny else (50, 8)
    jobs = []
    for idx, (cmd, stat, kind, n, m, s, r, grid) in enumerate(_TAB_JOBS):
        s = _jitter(rng, s, 0.08)
        r = _jitter(rng, r, 0.08) if r is not None else None
        argv = [cmd, "--case", kind, "--n", str(n), "--m", str(m)]
        if kind == "double":
            argv += ["--r", ",".join(map(repr, r)), "--s", ",".join(map(repr, s))]
        else:
            argv += ["--spectrum", ",".join(map(repr, s))]
        if stat is not None:
            argv += ["--stat", stat]
        scale = float(np.exp(rng.uniform(-0.08, 0.08)))
        if isinstance(grid[0], tuple):
            (alo, ahi), (blo, bhi) = grid
            argv += ["--a", _grid_arg(alo * scale, ahi * scale, points_2d),
                     "--b", _grid_arg(blo * scale, bhi * scale, points_2d)]
            points = points_2d ** 2
        else:
            argv += ["--grid", _grid_arg(grid[0] * scale, grid[1] * scale, points_1d)]
            points = points_1d
        quantity = "gap" if cmd == "gap" else "joint" if stat == "joint" else f"{cmd}_{stat}"
        jobs.append({"kind": "cli", "label": f"{idx:02d} {cmd} {stat or ''} {kind} {n}x{m}",
                     "argv": argv + ["--format", "csv"], "file": f"job{idx:02d}.csv",
                     "model": _model(kind, n, m, s, r), "quantity": quantity,
                     "points": points})
    return jobs


def _read_csv(path: Path, model, quantity) -> List[Output]:
    outs = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            point = (float(row["lambda"]),) if "lambda" in row else (float(row["a"]), float(row["b"]))
            outs.append(Output(ref_key(model, quantity, point), float(row["value"]),
                               float(row["abs_error"]), bool(row["warnings"])))
    return outs


# ---------------------------------------------------------------------------
# escalate


def _gen_escalate(seed: int, tiny: bool) -> list:
    """Fixed cases: the seed is not used.

    The cost of the mpmath re-evaluation follows its self-validation rounds,
    which flip with the last digits of the input: moving the inputs by even
    1e-6 relative doubles the time of some requests on some seeds.  Fixed
    inputs keep the workload's cost the same on every run.  25 requests put
    both the median and the 90th-percentile call in the middle of one
    request's block of times, not on the edge of two.
    """
    jobs = []

    def add(model, fn, point, label):
        jobs.append({"kind": "api", "label": f"{len(jobs):02d} {label} {fn}", "model": model,
                     "fn": fn, "point": point, "points": 1})

    def evenly(lo, hi, count):
        return [float(v) for v in np.linspace(lo, hi, count)]

    for m in (6,) if tiny else (6, 8, 10, 12):
        model = _model("row", m + 4, m, evenly(0.5, 4.0, m))
        for lam in (0.5, 2.0):
            add(model, "cdf_max", (lam,), f"row {m + 4}x{m}")
        add(model, "cdf_min", (0.2,), f"row {m + 4}x{m}")
        add(model, "prob_gap", (0.05, 2.0), f"row {m + 4}x{m}")
    if not tiny:
        for m in (6, 8):
            model = _model("column", m + 2, m, evenly(0.5, 4.0, m + 2))
            add(model, "cdf_max", (0.5,), f"column {m + 2}x{m}")
            add(model, "cdf_min", (0.05,), f"column {m + 2}x{m}")
        for n in (6, 8):
            model = _model("double", n, n, evenly(0.6, 3.0, n), evenly(0.5, 4.0, n))
            add(model, "cdf_max", (0.5,), f"double {n}x{n}")
            add(model, "cdf_min", (0.05,), f"double {n}x{n}")
    model = _model("row", 5, 3, [1.0, 1.0001, 1.0002])
    add(model, "cdf_min", (0.3,), "clustered row 5x3")
    return jobs


# ---------------------------------------------------------------------------
# montecarlo

_MC_CASES = [
    ("row", 4, 3, [0.7, 1.5, 3.0], None, "max"),
    ("row", 4, 3, [0.7, 1.5, 3.0], None, "min"),
    ("column", 6, 4, [0.6, 1.1, 1.8, 2.7, 3.4, 4.0], None, "max"),
    ("column", 6, 4, [0.6, 1.1, 1.8, 2.7, 3.4, 4.0], None, "min"),
    ("double", 3, 3, _DS3, _DR3, "max"),
    ("double", 3, 3, _DS3, _DR3, "min"),
    ("double", 4, 2, [0.8, 1.5, 2.6, 4.0], [1.0, 2.2], "max"),
]
_HAAR_CASES = [([1.0, 2.0], [1.0, 3.0], 0.7), ([1.0, 1.7, 2.6], [0.8, 1.9, 3.1], 0.5)]


def _pilot_grid(rng, model, stat, samples, points):
    """Grid over the 2%..98% range of the statistic, from the benchmark's own
    numpy sampler (independent of the program's Philox stream)."""
    n, m = model["n"], model["m"]
    row = np.ones(n)
    col = np.ones(m)
    if model["kind"] == "row":
        col = 1.0 / np.sqrt(model["s"])
    elif model["kind"] == "column":
        row = 1.0 / np.sqrt(model["s"])
    else:
        col = 1.0 / np.sqrt(model["r"])
        row = 1.0 / np.sqrt(model["s"])
    g = (rng.standard_normal((samples, n, m)) + 1j * rng.standard_normal((samples, n, m))) / math.sqrt(2)
    z = g * row[None, :, None] * col[None, None, :]
    w = np.linalg.eigvalsh(np.einsum("bij,bik->bjk", z.conj(), z))
    vals = w[:, -1] if stat == "max" else w[:, 0]
    lo, hi = np.quantile(vals, [0.02, 0.98])
    return [float(v) for v in np.linspace(max(lo, 1e-9), hi, points)]


def _gen_montecarlo(seed: int, tiny: bool) -> list:
    rng = np.random.default_rng([seed, 3])
    samples = 200 if tiny else MC_SAMPLES
    haar_samples = 200 if tiny else HAAR_SAMPLES
    grid_points = 5 if tiny else MC_GRID_POINTS
    jobs = []
    for kind, n, m, s, r, stat in _MC_CASES:
        model = _model(kind, n, m, _jitter(rng, s, 0.08),
                       _jitter(rng, r, 0.08) if r is not None else None)
        jobs.append({"kind": "validate", "label": f"{len(jobs):02d} validate {kind} {n}x{m} {stat}",
                     "model": model, "stat": stat,
                     "grid": _pilot_grid(rng, model, stat, 2000, grid_points),
                     "samples": samples, "master_seed": int(rng.integers(2 ** 63)),
                     "points": grid_points})
    for r, s, lam in _HAAR_CASES:
        r, s = _jitter(rng, r, 0.08), _jitter(rng, s, 0.08)
        jobs.append({"kind": "haar", "label": f"{len(jobs):02d} haar n={len(r)}",
                     "model": _model("double", len(r), len(r), s, r),
                     "lam": lam * float(np.exp(rng.uniform(-0.08, 0.08))),
                     "samples": haar_samples, "master_seed": int(rng.integers(2 ** 63)),
                     "points": 1})
    return jobs


GENERATORS = {"tabulate": _gen_tabulate, "escalate": _gen_escalate,
              "montecarlo": _gen_montecarlo}


# ---------------------------------------------------------------------------
# binding jobs to the program


def import_program():
    """Fresh import of the package modules the workloads use."""
    for name in [k for k in sys.modules if k == "corrwishart" or k.startswith("corrwishart.")]:
        del sys.modules[name]
    importlib.import_module("corrwishart")
    return types.SimpleNamespace(
        cli=importlib.import_module("corrwishart.cli"),
        detform=importlib.import_module("corrwishart.detform"),
        model=importlib.import_module("corrwishart.model"),
        montecarlo=importlib.import_module("corrwishart.montecarlo"),
    )


def _case(mods, model):
    md = mods.model
    dims = md.Dimensions(model["n"], model["m"])
    if model["kind"] == "row":
        return md.RowCorrelated(dims, md.validate_spectrum(model["s"]))
    if model["kind"] == "column":
        return md.ColumnCorrelated(dims, md.validate_spectrum(model["s"]))
    return md.DoublyCorrelated(dims, md.validate_spectrum(model["r"]),
                               md.validate_spectrum(model["s"]))


def bind(mods, job: dict, workdir: Path) -> Request:
    """Request for one job against the imported program ``mods``.

    Functions are looked up on the modules at call time, so the traced run
    sees the calls through its patched attributes.
    """
    kind, label, model = job["kind"], job["label"], job["model"]
    if kind == "cli":
        path = workdir / job["file"]
        argv = job["argv"] + ["--output", str(path)]

        def collect(rc):
            if rc != 0:
                raise RuntimeError(f"cli exited with {rc}")
            return _read_csv(path, model, job["quantity"])

        return Request(kind, label, lambda: mods.cli.main(argv), collect, job["points"])

    case = _case(mods, model)
    if kind == "api":
        cfg = mods.detform.EvalConfig(precision="extended")
        fn, point = job["fn"], job["point"]
        key = ref_key(model, "gap" if fn == "prob_gap" else fn, point)

        def collect(rep):
            return [report_output(key, rep)]

        return Request(kind, label, lambda: getattr(mods.detform, fn)(case, *point, cfg),
                       collect, 1)

    mc = mods.montecarlo
    cfg = mc.MCConfig(samples=job["samples"], master_seed=job["master_seed"])
    if kind == "validate":
        stat = job["stat"]

        def call():
            emp = mc.empirical_extreme_cdf(case, stat, job["grid"], cfg)
            fn = getattr(mods.detform, "cdf_" + stat)
            ana = [fn(case, g) for g in emp.grid]
            margin = min(emp.dkw_epsilon - abs(a.value - f)
                         for a, f in zip(ana, emp.fractions))
            return emp, ana, margin

        def collect(result):
            emp, ana, _margin = result
            outs = []
            for g, f, rep in zip(emp.grid, emp.fractions, ana):
                key = ref_key(model, "cdf_" + stat, (g,))
                outs.append(report_output(key, rep))
                outs.append(Output(key, f, dkw_halfwidth(emp.samples), False, "dkw"))
            return outs

        return Request(kind, label, call, collect, job["points"], job["samples"])

    lam = job["lam"]
    key = ref_key(model, "cdf_min", (lam,))

    def collect(result):
        mean, se = result
        return [Output(key, mean, se, False, "haar")]

    return Request(kind, label, lambda: mc.haar_hciz_estimate(lam, model["r"], model["s"], cfg),
                   collect, 1, job["samples"])
