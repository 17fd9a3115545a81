"""Self-test of the benchmark itself (not of the engine).

    python3 perfbench/selftest.py

* a tiny-size smoke run of every workload, traced and untraced, prints
  every metric named in BENCHMARK.json with its unit and passes its check;
* the correctness check counts a deliberately perturbed output as failed:
  a double-precision value, a value re-evaluated in extended precision
  and an empirical CDF;
* the mpmath reference agrees with the package's Schur-series oracle on
  small row cases;
* a layer whose hooked function is missing is reported absent, not fatal;
* without the package sources next to it, the benchmark exits non-zero
  without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import run  # sets the BLAS thread cap and sys.path before numpy loads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
FAILURES = []


def expect(ok: bool, what: str) -> None:
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def smoke() -> None:
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in SPEC[section]}
        for workload in (w["name"] for w in SPEC["workloads"]):
            rec = run.run(workload, seed=7, seconds=0.2, trace=bool(trace), tiny=True)
            got = {k: v["unit"] for k, v in rec["metrics"].items()}
            expect(got == wanted, f"{workload} trace={trace}: every {section} metric with its unit")
            expect(rec["correct"] and rec["attempted"] > 0,
                   f"{workload} trace={trace}: outputs correct ({rec['attempted']} checked)")
            if trace:
                m = rec["metrics"]
                if workload == "tabulate":
                    expect(m["extended.calls"]["value"] == 0, "tabulate: extended.calls is 0")
                if workload == "montecarlo":
                    expect(m["detform.dets_per_point"]["value"] == 1.0,
                           "montecarlo: one kernel call per analytic DKW point")


def _perturbed_fails(workload: str, kind: str, rel: float) -> None:
    """Serve the workload's first request; perturbing one of its checked
    outputs of check kind ``kind`` by ``rel`` must count it as failed."""
    import workloads

    mods = workloads.import_program()
    jobs = workloads.GENERATORS[workload](7, True)[:1]
    (run.OUT / "work").mkdir(parents=True, exist_ok=True)
    requests = [workloads.bind(mods, jobs[0], run.OUT / "work")]
    outputs = run.Outputs(requests)
    outputs.add(0, requests[0].call())
    clean = run.check(outputs, workload, 7, True)
    expect(clean["failed"] == 0, f"{workload}: unperturbed outputs pass")
    found = [(i, m) for i, m in outputs.counts.items()
             if i[5] == kind and (kind == "extended" or not i[4])]
    expect(bool(found), f"{workload}: the first request has a checked {kind} output")
    if not found:
        return
    ident, mult = found[0]
    k, key, value, abs_err, flagged, check = ident
    del outputs.counts[ident]
    outputs.counts[(k, key, value * (1 + rel), abs_err, flagged, check)] = mult
    bad = run.check(outputs, workload, 7, True)
    expect(bad["failed"] == mult,
           f"{workload}: a checked {kind} output perturbed by {rel:g} relative counts as failed")


def perturbed_output_fails() -> None:
    import workloads

    _perturbed_fails("tabulate", "estimate", 1e-3)
    # a re-evaluated value claims ~1e-30: an error far below 1e-6 must fail
    _perturbed_fails("escalate", "extended", 1e-12)
    key = workloads.ref_key({"kind": "row", "n": 4, "m": 3, "s": [0.7, 1.5, 3.0]},
                            "cdf_max", (1.0,))
    ref = float(run.reference.evaluate(*workloads.parse_key(key)))
    half = workloads.dkw_halfwidth(1000)
    dkw = workloads.Output(key, ref + 2 * half, half, False, "dkw")
    expect(run.verdict(dkw, ref) == (True, True), "an empirical CDF outside its band fails")


def reference_vs_series() -> None:
    import reference
    from corrwishart import Dimensions, schur_series

    worst = 0.0
    for n, m, s in ((3, 2, [1.0, 2.0]), (4, 3, [0.7, 1.5, 3.0]), (6, 3, [0.5, 1.1, 2.0])):
        for lam in (0.2, 0.9, 2.5):
            model = {"kind": "row", "n": n, "m": m, "s": s}
            ref_max = float(reference.evaluate(model, "cdf_max", (lam,)))
            ref_min = float(reference.evaluate(model, "cdf_min", (lam,)))
            ser_max = schur_series.cdf_max_schur(lam, Dimensions(n, m), s).value
            ser_min = schur_series.cdf_min_schur(lam, Dimensions(n, m), s)
            worst = max(worst, abs(ref_max - ser_max) / ref_max, abs(ref_min - ser_min) / ref_min)
    expect(worst < 1e-10, f"reference agrees with the Schur series (worst rel {worst:.1e})")


def absent_layer() -> None:
    import tracing

    import workloads

    mods = workloads.import_program()
    detform = types.SimpleNamespace(**{k: v for k, v in vars(mods.detform).items()
                                       if k != "_det_from_logs"})
    tracer = tracing.Tracer({**vars(mods), "detform": detform})
    metrics = tracer.layer_metrics(1, 0)
    expect("kernel" in tracer.absent and metrics["kernel.calls"] == 0,
           "a missing kernel hook is reported as an absent layer")


def bare_directory_fails() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tabulate",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "without the package sources the benchmark exits non-zero, no result")


def main() -> int:
    smoke()
    perturbed_output_fails()
    reference_vs_series()
    absent_layer()
    bare_directory_fails()
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.exit(main())
