"""Traced-run mode: spans around the calls into each layer of the engine.

Spans are recorded from the benchmark's own files by replacing module
attributes at the places the engine looks them up:

* ``cli.main``, which the benchmark calls through the module;
* the public API in ``detform`` (``cli`` calls ``detform.cdf_max`` through
  the module, and the doubly finite-difference density calls the
  module-level ``cdf_max``), the entry builders, ``_finalize`` and the
  kernel ``_det_from_logs``;
* the ``specfun`` names as bound in ``detform`` at import;
* the public functions of the lazily imported ``extended`` module, plus
  ``_self_validated`` (counted, not spanned: it only counts ``raw`` rounds);
* the ``montecarlo`` stages.

A hook whose module or attribute is missing is reported as absent, and its
layer's metrics read 0, instead of failing the run.  Spans (name, start,
end, parent, request id) are kept in compact arrays and written to a CSV
file when the run ends; per-layer metrics are aggregated from them.
"""

from __future__ import annotations

import importlib
import statistics
import time
from array import array
from typing import Dict, List

# (module, attribute, span name).  The span name's prefix is the layer.
API = ("cdf_max", "cdf_min", "prob_gap", "pdf_max", "pdf_min", "pdf_joint_minmax")
ENTRIES = ("_gamma_entry", "_col_max_entry", "_doubly_g_entry", "_row_min_fsum_log")
SPECFUN_IN_DETFORM = ("log_reg_lower_gamma", "log_kummer_series", "reg_lower_gamma")
HOOKS = (
    [("cli", "main", "cli.main")]
    + [("detform", a, "api." + a) for a in API]
    + [("detform", e, "entry." + e) for e in ENTRIES]
    + [("detform", "_finalize", "finalize"),
       ("detform", "_det_from_logs", "kernel")]
    + [("detform", f, "specfun." + f) for f in SPECFUN_IN_DETFORM]
    + [("montecarlo", "_sample_batch", "mc.sample"),
       ("montecarlo", "_jacobi_batch", "mc.eig"),
       ("montecarlo", "_extreme_eigs", "mc.gram"),
       ("montecarlo", "empirical_extreme_cdf", "mc.count"),
       ("montecarlo", "_haar_unitaries", "mc.haar")]
)
EXTENDED_FUNCS = ("cdf_max_row", "cdf_min_row", "cdf_max_col", "cdf_min_col",
                  "cdf_max_doubly", "cdf_min_doubly", "prob_gap_row")

# per-layer metrics: name -> (unit, better); every traced run prints all
PER_LAYER = {
    "kernel.calls": ("calls/pass", "lower"),
    "kernel.s": ("s/pass", "lower"),
    "kernel.us_per_call_p50": ("us", "lower"),
    "kernel.flops_computed": ("flop/pass", "lower"),
    "kernel.mean_n": ("rows", "lower"),
    "specfun.calls": ("calls/pass", "lower"),
    "specfun.s": ("s/pass", "lower"),
    "detform.entry_calls": ("calls/pass", "lower"),
    "detform.entry_s": ("s/pass", "lower"),
    "detform.dets_per_point": ("dets/point", "lower"),
    "detform.fd_cdf_calls": ("calls/pass", "lower"),
    "detform.self_s": ("s/pass", "lower"),
    "detform.finalize_s": ("s/pass", "lower"),
    "cli.self_ms_per_job": ("ms", "lower"),
    "extended.calls": ("calls/pass", "lower"),
    "extended.s": ("s/pass", "lower"),
    "extended.escalation_share": ("share", "lower"),
    "extended.rounds_per_call": ("rounds", "lower"),
    "montecarlo.sample_s": ("s/pass", "lower"),
    "montecarlo.eig_s": ("s/pass", "lower"),
    "montecarlo.gram_s": ("s/pass", "lower"),
    "montecarlo.count_s": ("s/pass", "lower"),
    "montecarlo.haar_s": ("s/pass", "lower"),
    "montecarlo.analytic_s": ("s/pass", "lower"),
    "accuracy.digits_min": ("digits", "higher"),
    "accuracy.estimate_ratio_log10_p50": ("log10", "lower"),
    "accuracy.wrong_share": ("share", "lower"),
    "accuracy.flagged_share": ("share", "lower"),
    "trace.overhead_share": ("share", "lower"),
}

# which hooks a layer needs; a missing one marks the layer absent
_LAYER_OF_PREFIX = {"cli": "cli", "api": "detform", "entry": "detform",
                    "finalize": "detform", "kernel": "kernel",
                    "specfun": "specfun", "extended": "extended",
                    "mc": "montecarlo"}


class Tracer:
    """In-memory span recorder that patches and restores module attributes."""

    def __init__(self, modules: dict):
        self._modules = dict(modules)
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.kernel_n = array("i")       # N of each kernel call, in order
        self.kernel_flops = 0.0          # LU + inverse, from N (computed)
        self.rounds = 0                  # extended raw() evaluations
        self.request_kinds: Dict[int, str] = {}
        self.absent: Dict[str, str] = {}
        self._stack = [-1]
        self._req = -1
        self._wrappers: list = []
        self._build()

    # -- set-up ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _build(self):
        try:
            self._modules["extended"] = importlib.import_module("corrwishart.extended")
        except ImportError:
            self.absent["extended"] = "module corrwishart.extended not importable"
        hooks = list(HOOKS) + [("extended", f, "extended." + f) for f in EXTENDED_FUNCS]
        for mod_name, attr, span in hooks:
            mod = self._modules.get(mod_name)
            fn = getattr(mod, attr, None) if mod is not None else None
            if fn is None:
                layer = _LAYER_OF_PREFIX[span.split(".")[0]]
                self.absent.setdefault(layer, f"{mod_name}.{attr} missing")
                continue
            wrapper = self._kernel_wrapper(fn) if span == "kernel" else self._wrap(span, fn)
            self._wrappers.append((mod, attr, fn, wrapper))
        ext = self._modules.get("extended")
        sv = getattr(ext, "_self_validated", None) if ext is not None else None
        if sv is None:
            self.absent.setdefault("extended.rounds", "extended._self_validated missing")
        else:
            self._wrappers.append((ext, "_self_validated", sv, self._rounds_wrapper(sv)))

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        stack = self._stack
        perf = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_of.append(nid)
            self.parent.append(stack[-1])
            self.request.append(self._req)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1

        return traced

    def _kernel_wrapper(self, fn):
        inner = self._wrap("kernel", fn)

        def traced(log_entries, *args, **kwargs):
            n = len(log_entries)
            self.kernel_n.append(n)
            has_err = (args and args[0] is not None) or kwargs.get("entry_rel_err") is not None
            # LU 2N^3/3; inverse from the LU factors 4N^3/3 when errors propagate
            self.kernel_flops += (2.0 / 3.0) * n ** 3 + ((4.0 / 3.0) * n ** 3 if has_err else 0.0)
            return inner(log_entries, *args, **kwargs)

        return traced

    def _rounds_wrapper(self, fn):
        def traced(raw, *args, **kwargs):
            def counted(d):
                self.rounds += 1
                return raw(d)
            return fn(counted, *args, **kwargs)

        return traced

    # -- use -------------------------------------------------------------

    def install(self):
        for mod, attr, _fn, wrapper in self._wrappers:
            setattr(mod, attr, wrapper)

    def remove(self):
        for mod, attr, fn, _wrapper in self._wrappers:
            setattr(mod, attr, fn)

    def request_span(self, request_id: int, kind: str, fn):
        """Run fn() as the root span of one request."""
        self._req = request_id
        self.request_kinds[request_id] = kind
        try:
            return self._wrap("request." + kind, fn)()
        finally:
            self._req = -1

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name,start,end,parent,request\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name_of[i]]},{self.start[i]!r},"
                         f"{self.end[i]!r},{self.parent[i]},{self.request[i]}\n")

    # -- aggregation -----------------------------------------------------

    def layer_metrics(self, passes: int, jobs: int) -> Dict[str, float]:
        """Per-pass layer metrics (everything but the accuracy/overhead ones)."""
        count = len(self.start)
        names = [self.names[k] for k in self.name_of]
        dur = [self.end[i] - self.start[i] for i in range(count)]
        child = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        self_t = [dur[i] - child[i] for i in range(count)]

        def total(pred):
            return sum(self_t[i] for i in range(count) if pred(names[i]))

        def calls(pred):
            return sum(1 for nm in names if pred(nm))

        is_api = lambda nm: nm.startswith("api.")  # noqa: E731
        top_api = [i for i in range(count) if is_api(names[i])
                   and not (self.parent[i] >= 0 and is_api(names[self.parent[i]]))]
        points = len(top_api)
        per = 1.0 / max(passes, 1)

        kernel_us = [dur[i] * 1e6 for i in range(count) if names[i] == "kernel"]
        ext_idx = [i for i in range(count) if names[i].startswith("extended.")]
        top_set = set(top_api)
        escalated = set()
        for i in ext_idx:
            p = self.parent[i]
            while p >= 0 and p not in top_set:
                p = self.parent[p]
            if p >= 0:
                escalated.add(p)
        mc_requests = {r for r, k in self.request_kinds.items() if k in ("validate", "haar")}
        analytic = sum(dur[i] for i in top_api if self.request[i] in mc_requests)
        kernel_calls = calls(lambda nm: nm == "kernel")
        fd = sum(1 for i in range(count) if names[i] == "api.cdf_max"
                 and self.parent[i] >= 0 and names[self.parent[i]] == "api.pdf_max")
        return {
            "kernel.calls": kernel_calls * per,
            "kernel.s": total(lambda nm: nm == "kernel") * per,
            "kernel.us_per_call_p50": statistics.median(kernel_us) if kernel_us else 0.0,
            "kernel.flops_computed": self.kernel_flops * per,
            "kernel.mean_n": (sum(self.kernel_n) / len(self.kernel_n)) if self.kernel_n else 0.0,
            "specfun.calls": calls(lambda nm: nm.startswith("specfun.")) * per,
            "specfun.s": total(lambda nm: nm.startswith("specfun.")) * per,
            "detform.entry_calls": calls(lambda nm: nm.startswith("entry.")) * per,
            "detform.entry_s": total(lambda nm: nm.startswith("entry.")) * per,
            "detform.dets_per_point": kernel_calls / points if points else 0.0,
            "detform.fd_cdf_calls": fd * per,
            "detform.self_s": total(is_api) * per,
            "detform.finalize_s": total(lambda nm: nm == "finalize") * per,
            "cli.self_ms_per_job": (total(lambda nm: nm == "cli.main") * 1e3 / jobs) if jobs else 0.0,
            "extended.calls": len(ext_idx) * per,
            "extended.s": total(lambda nm: nm.startswith("extended.")) * per,
            "extended.escalation_share": len(escalated) / points if points else 0.0,
            "extended.rounds_per_call": self.rounds / len(ext_idx) if ext_idx else 0.0,
            "montecarlo.sample_s": total(lambda nm: nm == "mc.sample") * per,
            "montecarlo.eig_s": total(lambda nm: nm == "mc.eig") * per,
            "montecarlo.gram_s": total(lambda nm: nm == "mc.gram") * per,
            "montecarlo.count_s": total(lambda nm: nm == "mc.count") * per,
            "montecarlo.haar_s": total(lambda nm: nm == "mc.haar") * per,
            "montecarlo.analytic_s": analytic * per,
        }
