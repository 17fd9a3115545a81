"""Benchmark of the corrwishart engine: one workload per invocation.

    python3 perfbench/run.py --workload {tabulate,escalate,montecarlo} \
        --seed N --seconds S --trace {0,1}

Run from anywhere; the package is imported from ``src/`` next to this
directory.  One process, one thread: BLAS threads are capped at 1 before
numpy loads, and the cap is recorded (set-up alone is timed in fresh child
interpreters, one at a time, each waited for).  The program is driven in a closed
loop, one request at a time, each issued after the previous one returns,
in whole passes over the workload's request list until ``--seconds`` have
elapsed.

``--trace 0`` measures the end-to-end metrics with tracing off; times are
scaled by a machine-speed probe (see PROBE_REFERENCE_MS).
``--trace 1`` alternates untraced and traced passes: the traced passes give
the per-layer metrics (per pass over the request list), the ratio of the
two gives the tracing overhead.  Every output is checked against the
benchmark's own mpmath reference (``reference.py``), computed after the
timed region and cached per workload and seed under ``perfbench/out/``.

The last line of standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``; a fuller record with the
environment is written to ``perfbench/out/BENCH_<workload>_<seed>_<trace>.json``
and the spans of a traced run to ``perfbench/out/spans_<workload>_<seed>.csv``.
"""

from __future__ import annotations

import os

BLAS_THREAD_CAP = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREAD_CAP)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from decimal import Decimal, localcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9
# The host's speed drifts by up to ~40% over minutes (other tenants), far
# more than a regression bound.  A fixed pure-Python loop is timed between
# passes and before each set-up; every reported time is scaled by the mean
# probe time of the timed loop (a set-up by its own probe) relative to
# PROBE_REFERENCE_MS, i.e. reported as on a machine state where the probe
# takes that long.  Raw figures stay in the record.
PROBE_REFERENCE_MS = 6.0
ACCURACY_REL = 1e-6   # stated accuracy of an unflagged double-precision value

# end-to-end metrics: name -> (unit, better); tracing off
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "points_per_s": ("points/s", "higher"),
    "call_ms_p50": ("ms", "lower"),
    "call_ms_p90": ("ms", "lower"),
}


def probe_ms() -> float:
    """Machine-speed probe: best of 3 runs of a fixed 100 000-step loop."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        x = 0
        for i in range(100_000):
            x += i * i
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def cold_setup(jobs: list, workdir: Path) -> float:
    """Seconds of one cold set-up in a fresh interpreter (``coldstart.py``)."""
    spec = json.dumps({"src": str(ROOT / "src"), "workdir": str(workdir), "jobs": jobs})
    proc = subprocess.run([sys.executable, str(HERE / "coldstart.py")], input=spec,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.splitlines()[-1])


def setup(workload: str, seed: int, tiny: bool):
    """Time SETUP_REPEATS cold set-ups, each after a speed probe, then import
    the program here and bind the workload's requests; returns (times,
    probes, modules, requests).

    The jobs are generated once beforehand: set-up times the program, not
    the benchmark's generator.
    """
    jobs = workloads.GENERATORS[workload](seed, tiny)
    workdir = OUT / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    times, probes = [], []
    for _ in range(SETUP_REPEATS):
        probes.append(probe_ms())
        times.append(cold_setup(jobs, workdir))
    mods = workloads.import_program()
    return times, probes, mods, [workloads.bind(mods, job, workdir) for job in jobs]


class Outputs:
    """Outputs of every request, collected right after each call (outside
    the timed region) and kept deduplicated, so the heap does not grow
    with the run."""
    def __init__(self, requests):
        self.requests = requests
        self.counts = {}            # (request index, output fields) -> multiplicity
        self.failed_requests = []

    def add(self, k, res):
        req = self.requests[k]
        try:
            if isinstance(res, Exception):
                raise res
            outs = req.collect(res)
        except Exception as exc:  # a failed request counts, the run goes on
            self.failed_requests.append(f"{req.label}: {exc!r}")
            return
        for o in outs:
            ident = (k, o.key, o.value, o.abs_err, o.flagged, o.check)
            self.counts[ident] = self.counts.get(ident, 0) + 1


def _run_pass(requests, outputs, tracer=None, first_id=0):
    """One closed-loop pass; returns the seconds each request took."""
    durations = []
    perf = time.perf_counter
    for k, req in enumerate(requests):
        t0 = perf()
        try:
            if tracer is None:
                res = req.call()
            else:
                res = tracer.request_span(first_id + k, req.kind, req.call)
        except Exception as exc:
            res = exc
        durations.append(perf() - t0)
        if outputs is not None:
            outputs.add(k, res)
    return durations


def measure(requests, seconds: float, trace: bool, mods, probes: list):
    """Closed loop for ``seconds`` in whole passes, after one untimed pass
    that fills the program's and mpmath's caches; a speed probe runs before
    each pass (untimed).

    Returns (durations per timed pass, outputs, tracer or None, overhead).
    """
    outputs = Outputs(requests)
    _run_pass(requests, outputs)
    gc.collect()
    passes = []
    if not trace:
        t_end = time.perf_counter() + seconds
        while True:
            probes.append(probe_ms())
            passes.append(_run_pass(requests, outputs))
            if time.perf_counter() >= t_end:
                probes.append(probe_ms())
                return passes, outputs, None, None

    tracer = tracing.Tracer(vars(mods))
    untraced = traced = 0.0
    t_end = time.perf_counter() + seconds
    while True:
        probes.append(probe_ms())
        untraced += sum(_run_pass(requests, None))
        tracer.install()
        try:
            durations = _run_pass(requests, outputs, tracer, len(passes) * len(requests))
        finally:
            tracer.remove()
        traced += sum(durations)
        passes.append(durations)
        if time.perf_counter() >= t_end:
            probes.append(probe_ms())
            return passes, outputs, tracer, traced / untraced - 1.0


def _p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


# ---------------------------------------------------------------------------
# correctness


def references(keys, workload: str, seed: int, tiny: bool):
    """Reference value per key, from the per-seed cache or computed now."""
    cache_path = OUT / "refcache" / f"{workload}-{seed}{'-tiny' if tiny else ''}.json"
    cache = {}
    if cache_path.exists():
        cache = json.loads(cache_path.read_text())
    missing = [k for k in keys if k not in cache]
    for k in missing:
        model, quantity, point = workloads.parse_key(k)
        cache[k] = reference.to_string(reference.evaluate(model, quantity, point))
    if missing:
        cache_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = cache_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(cache, sort_keys=True))
        tmp.replace(cache_path)
    return {k: cache[k] for k in keys}


def error(value: float, ref) -> float:
    """|value - ref|, with ref (a decimal string or a float) taken exactly."""
    with localcontext() as ctx:
        ctx.prec = 60
        return float(abs(Decimal(value) - Decimal(ref)))


def claimed_error(out) -> float:
    """The error bound an engine value claims.  A re-evaluated value claims
    far less than half an ulp of the double it is returned as, so its bound
    is floored there."""
    if out.check == "extended" and math.isfinite(out.value):
        return max(out.abs_err, 0.5 * math.ulp(out.value))
    return out.abs_err


def verdict(out, ref):
    """(wrong, failed) for one output against its reference (string or float).

    ``wrong``: an unflagged or re-evaluated output whose error exceeds its
    claimed error, or a stochastic output outside its band.
    ``failed``: wrong, and for an unflagged double-precision value also off
    by more than ACCURACY_REL relative -- an error the user was neither
    warned of nor within the stated accuracy; a re-evaluated value fails
    whenever it is wrong.  Other flagged engine values are neither.
    """
    if not math.isfinite(out.value):
        bad = out.check != "estimate" or not out.flagged
        return bad, bad
    err = error(out.value, ref)
    if out.check == "dkw":
        return err > out.abs_err, err > out.abs_err
    if out.check == "haar":
        bad = err > workloads.HAAR_SIGMAS * out.abs_err
        return bad, bad
    if out.check == "extended":
        bad = err > claimed_error(out)
        return bad, bad
    if out.flagged:
        return False, False
    return err > out.abs_err, err > max(out.abs_err, ACCURACY_REL * abs(float(ref)))


def check(outputs, workload, seed, tiny):
    """Check every collected output; returns a summary dict."""
    requests, counts, failed_requests = outputs.requests, outputs.counts, outputs.failed_requests
    keys = sorted({ident[1] for ident in counts})
    refs = references(keys, workload, seed, tiny)

    total = wrong = failed = flagged = estimate_outputs = 0
    digits, ratios, failed_list = [], [], []
    per_label = {}
    for (k, key, value, abs_err, flag, kind), mult in counts.items():
        o = workloads.Output(key, value, abs_err, flag, kind)
        is_wrong, is_failed = verdict(o, refs[key])
        ref = float(refs[key])
        total += mult
        lab = per_label.setdefault(requests[k].label, {"outputs": 0, "flagged": 0, "wrong": 0,
                                                        "max_rel_err": 0.0})
        lab["outputs"] += mult
        if kind in ("estimate", "extended"):
            estimate_outputs += mult
            rel = abs(value - ref) / max(abs(ref), 1e-300)
            lab["max_rel_err"] = max(lab["max_rel_err"], rel)
            if flag:
                flagged += mult
                lab["flagged"] += mult
            if (kind == "extended" or not flag) and math.isfinite(value):
                digits.append(reference.digits_agree(value, ref))
                err = max(error(value, refs[key]), abs(ref) * 1.1e-16, 1e-300)
                ratios.append(math.log10(max(claimed_error(o), 1e-300) / err))
        if is_wrong:
            wrong += mult
            lab["wrong"] += mult
        if is_failed:
            failed += mult
            if len(failed_list) < 20:
                failed_list.append({"request": requests[k].label, "key": key, "value": value,
                                    "abs_err": abs_err, "reference": ref})
    return {
        "attempted": total + len(failed_requests),
        "failed": failed + len(failed_requests),
        "wrong": wrong,
        "flagged_share": flagged / estimate_outputs if estimate_outputs else 0.0,
        "wrong_share": wrong / total if total else 0.0,
        "digits_min": min(digits) if digits else 0.0,
        "estimate_ratio_log10_p50": statistics.median(ratios) if ratios else 0.0,
        "failed_requests": failed_requests[:20],
        "failed_outputs": failed_list,
        "per_request": per_label,
    }


# ---------------------------------------------------------------------------
# environment and result


def environment() -> dict:
    import mpmath
    import numpy

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = "absent"
    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name', '?')} {deps.get('version', '')}".strip()
    except Exception:  # older numpy: no dict mode
        pass
    return {
        "nproc": os.cpu_count(),
        "nproc_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "blas": blas,
        "blas_thread_cap": BLAS_THREAD_CAP,
        "machine": platform.machine(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Set up, measure, check; returns the full record."""
    setup_times, setup_probes, mods, requests = setup(workload, seed, tiny)
    probes = []
    passes, outputs, tracer, overhead = measure(requests, seconds, trace, mods, probes)
    slowdown = statistics.mean(probes) / PROBE_REFERENCE_MS
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    summary = check(outputs, workload, seed, tiny)

    durations = [dt for pass_durations in passes for dt in pass_durations]
    points = sum(req.points for req in requests) * len(passes)
    samples = sum(req.samples for req in requests) * len(passes)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(),
        "loop": "closed, 1 client, 1 request in flight",
        "passes": len(passes), "requests": len(durations), "points": points,
        "samples": samples,
        "attempted": summary["attempted"], "failed": summary["failed"],
        "correct": summary["failed"] == 0,
        "check": summary,
        "probe_ms": probes, "slowdown": slowdown,
    }
    scaled = {}
    if not trace:
        busy = sum(durations)
        # a set-up lasts a fraction of a second, shorter than the host's
        # swings in speed: each is scaled by the probe run just before it
        scaled["setup_s"] = statistics.median(
            t * PROBE_REFERENCE_MS / p for t, p in zip(setup_times, setup_probes))
        metrics = {
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
            "points_per_s": points / busy,
            "call_ms_p50": statistics.median(durations) * 1e3,
            "call_ms_p90": _p90(durations) * 1e3,
        }
        units = END_TO_END
        record["samples_per_s"] = samples / busy
        record["call_count"] = len(durations)
        record["setup_times_s"] = setup_times
        record["setup_probe_ms"] = setup_probes
        record["request_ms_median"] = {
            req.label: statistics.median(p[k] for p in passes) * 1e3
            for k, req in enumerate(requests)}
    else:
        jobs = sum(1 for r in requests if r.kind == "cli") * len(passes)
        metrics = tracer.layer_metrics(len(passes), jobs)
        metrics.update({
            "accuracy.digits_min": summary["digits_min"],
            "accuracy.estimate_ratio_log10_p50": summary["estimate_ratio_log10_p50"],
            "accuracy.wrong_share": summary["wrong_share"],
            "accuracy.flagged_share": summary["flagged_share"],
            "trace.overhead_share": overhead,
        })
        units = tracing.PER_LAYER
        record["absent_layers"] = tracer.absent
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / f"spans_{workload}_{seed}.csv")
    record["raw_metrics"] = {name: float(metrics[name]) for name in units}
    for name in units:
        scaled.setdefault(name, _scaled(float(metrics[name]), units[name][0], slowdown))
    record["metrics"] = {name: {"value": scaled[name], "unit": units[name][0]} for name in units}
    return record


def _scaled(value: float, unit: str, slowdown: float) -> float:
    """A time or rate as on the reference machine state (see PROBE_REFERENCE_MS)."""
    if unit in ("s", "ms", "us", "s/pass"):
        return value / slowdown
    if unit == "points/s":
        return value * slowdown
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "corrwishart" / "__init__.py").is_file():
        print(f"error: no corrwishart sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"BENCH_{args.workload}_{args.seed}_{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")

    env = record["environment"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} passes={record['passes']} "
          f"requests={record['requests']} points={record['points']} samples={record['samples']}")
    print("# environment " + json.dumps(env, sort_keys=True))
    for name, m in record["metrics"].items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    chk = record["check"]
    print(f"# outputs checked={chk['attempted']} failed={chk['failed']} "
          f"wrong_share={chk['wrong_share']:.4f} flagged_share={chk['flagged_share']:.4f} "
          f"failed_requests={len(chk['failed_requests'])}")
    for w in chk["failed_outputs"][:5]:
        print("# failed: " + json.dumps(w))
    for name, why in record.get("absent_layers", {}).items():
        print(f"# layer absent: {name} ({why})")
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
