"""Per-layer tracing for the traced run only.

``Tracer.install()`` wraps public functions of the package and rebinds every
module attribute that refers to the original, so calls made through
``from .moments import central_moments`` copies are caught as well.  The
untraced runs never import this module.

Spans (name, start, end, parent, job) are kept in memory and written out
at the end.  A span's self time is its duration minus the time of the spans
(and leaf calls) inside it.  ``poly_gcd`` runs tens of thousands of
times per run, so it is a leaf counter (count and time, charged to the
enclosing span as child time) instead of a stored span; values pulled from
``SmoothFunction.values_iter`` are counted.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
from collections import Counter
from time import perf_counter


def _bernstein_name(args, kwargs):
    f = args[0] if args else kwargs["f"]
    return "operators.bernstein_exact" if f.is_polynomial else "operators.bernstein_float"


# (expasym module, attribute, span name or callable choosing it per call)
SPANS = (
    ("exactalg", "laurent_at_infinity", "exactalg.laurent"),
    ("moments", "central_moments", "moments.central_moments"),
    ("moments", "moment_expansion", "moments.moment_expansion"),
    ("expansion", "complete_coeffs", "expansion.complete_coeffs"),
    ("expansion", "derivative_terms", "expansion.derivative_terms"),
    ("expansion", "evaluate_derivative_expansion", "expansion.prediction"),
    ("expansion", "truncated_sum", "expansion.prediction"),
    ("operators", "operator_eval", "operators.operator_eval"),
    ("operators", "bernstein_eval", _bernstein_name),
    ("operators", "szasz_eval", "operators.series_szasz"),
    ("operators", "baskakov_eval", "operators.series_baskakov"),
    ("operators", "gauss_weierstrass_eval", "operators.gauss"),
    ("verify", "residual_study", "verify.study"),
    ("verify", "voronovskaja_study", "verify.study"),
    ("verify", "ode_identity_check", "verify.identity"),
    ("verify", "psi_m_derivative_identity_check", "verify.identity"),
)
LEAVES = (("exactalg", "poly_gcd", "exactalg.poly_gcd"),)
FIRST_CALL = ("operators.gauss",)


class Tracer:
    def __init__(self):
        self.job = None  # spans and counts outside a job belong to set-up or checks
        self.spans = []
        self.stack = []  # open spans: [id, name, start, child time]
        self.counts = Counter()
        self.leaf_time = Counter()
        self.first_call = {}
        self._next_id = 0

    # -- wrappers --

    def _span(self, name, fn):
        choose = name if callable(name) else None

        def wrapper(*args, **kwargs):
            span_name = choose(args, kwargs) if choose else name
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, span_name, perf_counter(), 0.0]
            parent = self.stack[-1][0] if self.stack else None
            self.stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                duration = end - frame[2]
                if self.stack:
                    self.stack[-1][3] += duration
                self.spans.append((span_id, span_name, frame[2], end, parent, self.job, duration - frame[3]))
                if span_name in FIRST_CALL and span_name not in self.first_call:
                    self.first_call[span_name] = duration

        return wrapper

    def _leaf(self, name, fn):
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                if self.stack:
                    self.stack[-1][3] += duration
                if self.job is not None:
                    self.counts[name] += 1
                    self.leaf_time[name] += duration

        return wrapper

    def _counting_values_iter(self, fn):
        tracer = self

        def values_iter(self_, step):
            for value in fn(self_, step):
                if tracer.job is not None:
                    tracer.counts["functions.values_consumed"] += 1
                yield value

        return values_iter

    def install(self):
        for targets, make in ((SPANS, self._span), (LEAVES, self._leaf)):
            for module_name, attr, name in targets:
                original = getattr(importlib.import_module(f"expasym.{module_name}"), attr)
                _rebind(original, make(name, original))
        cls = importlib.import_module("expasym.functions").SmoothFunction
        cls.values_iter = self._counting_values_iter(cls.values_iter)

    # -- results --

    def totals(self):
        """Per-name inclusive time, self time and call count over spans that
        ran inside a job, plus leaf counters and first-call times."""
        total, own, calls = Counter(), Counter(), Counter()
        for _id, name, start, end, _parent, job, self_time in self.spans:
            if job is None:
                continue
            total[name] += end - start
            own[name] += self_time
            calls[name] += 1
        return {
            "total": dict(total),
            "self": dict(own),
            "calls": dict(calls),
            "counts": dict(self.counts),
            "leaf_time": dict(self.leaf_time),
            "first_call": dict(self.first_call),
        }

    def write_spans(self, path):
        with open(path, "w") as handle:
            for span_id, name, start, end, parent, job, _self in self.spans:
                handle.write(json.dumps(
                    {"id": span_id, "name": name, "start": start, "end": end, "parent": parent, "job": job}
                ) + "\n")


def _rebind(original, wrapped):
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "expasym" and not mod_name.startswith("expasym."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def merge_totals(parts):
    """Sum totals() dicts from several processes; first-call times become
    lists so the caller can take their median."""
    out = {key: Counter() for key in ("total", "self", "calls", "counts", "leaf_time")}
    first = {}
    for part in parts:
        for key in out:
            out[key].update(part[key])
        for name, value in part["first_call"].items():
            first.setdefault(name, []).append(value)
    merged = {key: dict(value) for key, value in out.items()}
    merged["first_call"] = first
    return merged


# metric name -> (kind, source name); kinds: "self", "total", "calls",
# "count", "leaf" are divided by the number of jobs, "first" is not.
LAYER_METRICS = (
    ("exactalg.poly_gcd_calls", "count", "exactalg.poly_gcd"),
    ("exactalg.poly_gcd_s", "leaf", "exactalg.poly_gcd"),
    ("exactalg.laurent_s", "total", "exactalg.laurent"),
    ("moments.central_moments_s", "self", "moments.central_moments"),
    ("moments.moment_expansion_s", "self", "moments.moment_expansion"),
    ("expansion.complete_coeffs_s", "self", "expansion.complete_coeffs"),
    ("expansion.derivative_terms_calls", "calls", "expansion.derivative_terms"),
    ("expansion.derivative_terms_s", "total", "expansion.derivative_terms"),
    ("expansion.prediction_s", "self", "expansion.prediction"),
    ("functions.values_consumed", "count", "functions.values_consumed"),
    ("operators.evals", "calls", "operators.operator_eval"),
    ("operators.series_szasz_s", "total", "operators.series_szasz"),
    ("operators.series_baskakov_s", "total", "operators.series_baskakov"),
    ("operators.bernstein_float_s", "total", "operators.bernstein_float"),
    ("operators.gauss_s", "total", "operators.gauss"),
    ("operators.bernstein_exact_s", "total", "operators.bernstein_exact"),
    ("operators.gauss_first_call_s", "first", "operators.gauss"),
    ("verify.study_self_s", "self", "verify.study"),
    ("verify.identity_self_s", "self", "verify.identity"),
)
UNITS = {"calls": "count", "count": "count"}


def layer_metrics(totals, jobs):
    """Per-job layer figures from merge_totals(); 0 where a workload never
    enters the layer."""
    sources = {"self": "self", "total": "total", "calls": "calls", "count": "counts", "leaf": "leaf_time"}
    out = {}
    for metric, kind, name in LAYER_METRICS:
        if kind == "first":
            values = totals["first_call"].get(name, [])
            value = statistics.median(values) if values else 0.0
        else:
            value = totals[sources[kind]].get(name, 0) / jobs
        out[metric] = {"value": value, "unit": UNITS.get(kind, "s")}
    return out
