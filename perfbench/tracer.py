"""Spans around the public functions of each vibropol module.

The wrappers live here, not in the package: ``install`` replaces each
traced function in every loaded ``vibropol`` module that holds it (a
``from .tmm import stack_response`` copy included) and patches the
``epsilon`` method of each dielectric class.  A span is
``[name, start, end, parent, attrs]`` with ``parent`` the index of the
enclosing span in the same list, or -1.  ``summarize`` turns the spans of
one cycle into the per-layer metrics.
"""

from __future__ import annotations

import functools
import os
import sys
import time


class Tracer:
    """Collects spans in memory until ``take`` hands them over."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn, attrs=None):
        """fn with a span named `name`; attrs(args, kwargs, result) gives
        the counts recorded on the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            span = [name, time.perf_counter(), 0.0, parent, None]
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result

        return traced

    def extend(self, spans):
        """Append spans recorded in another process, re-basing parents."""
        offset = len(self.spans)
        for name, start, end, parent, attrs in spans:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1, attrs])

    def take(self):
        spans, self.spans = self.spans, []
        return spans

    def take_summary(self):
        """Per-layer metrics of the spans since the last take."""
        return summarize(self.take())


def _path_arg(args, kwargs):
    return kwargs["path"] if "path" in kwargs else args[0]


def _written(args, kwargs, result):
    return {"bytes": os.path.getsize(_path_arg(args, kwargs)), "files": 1}


def _size(k):
    import numpy

    return int(numpy.size(k))


def _layer_points(args, kwargs, result):
    stack = args[0] if args else kwargs["stack"]
    k = args[1] if len(args) > 1 else kwargs["k"]
    return {"layer_points": _size(k) * len(stack.layers)}


def _epsilon_points(args, kwargs, result):
    k = args[1] if len(args) > 1 else kwargs["k"]
    return {"points": _size(k)}


def _cells(args, kwargs, result):
    return {"cells": int(result.intensity.size)}


def _fit_result(args, kwargs, result):
    best = min(result.start_losses)
    converged = sum(abs(loss - best) <= 1e-6 * abs(best) for loss in result.start_losses)
    return {"nfev": int(result.n_evaluations), "converged": converged,
            "starts": len(result.start_losses)}


def install(tracer):
    """Wrap the traced vibropol functions in place.  Call after every
    vibropol module the run uses has been imported."""
    import vibropol  # noqa: F401  (loads every module but cli)
    from vibropol import config, fields, fit, io, materials, polariton, spectra, tmm

    functions = [
        ("config.load_config", config, "load_config", None),
        ("tmm.stack_response", tmm, "stack_response", _layer_points),
        ("fields.field_map", fields, "field_map", _cells),
        ("fields.field_profile", fields, "field_profile", None),
        ("spectra.find_peaks", spectra, "find_peaks", None),
        ("spectra.build_dispersion", spectra, "build_dispersion", None),
        ("fit.solve", fit, "solve", _fit_result),
        ("io.write", io, "write_spectrum_csv", _written),
        ("io.write", io, "write_field_map_csv", _written),
        ("io.write", io, "write_dispersion_csv", _written),
        ("io.write", io, "write_json", _written),
        ("io.read", io, "read_spectrum_csv", None),
        ("polariton.estimate_report", polariton, "estimate_report", None),
    ]
    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "vibropol" and m]
    for name, module, attr, attrs in functions:
        original = getattr(module, attr)
        wrapped = tracer.wrap(name, original, attrs)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
    for cls in (materials.LorentzMedium, materials.ConstantMedium, materials.DrudeLorentzMetal):
        cls.epsilon = tracer.wrap("materials.epsilon", cls.epsilon, _epsilon_points)


# Per-layer metrics of one cycle; times are seconds summed over the
# cycle, counts are exact.
TIMES = {
    "config.load_s": "config.load_config",
    "materials.epsilon_s": "materials.epsilon",
    "tmm.stack_response_s": "tmm.stack_response",
    "fields.field_map_s": "fields.field_map",
    "spectra.find_peaks_s": "spectra.find_peaks",
    "spectra.build_dispersion_s": "spectra.build_dispersion",
    "fit.solve_s": "fit.solve",
    "io.write_s": "io.write",
    "io.read_s": "io.read",
    "polariton.estimate_report_s": "polariton.estimate_report",
}
SELF_TIMES = {"tmm.self_s": "tmm.stack_response", "fit.self_s": "fit.solve"}
CALLS = {
    "config.calls": "config.load_config",
    "materials.calls": "materials.epsilon",
    "tmm.calls": "tmm.stack_response",
    "fields.field_profile_calls": "fields.field_profile",
    "spectra.find_peaks_calls": "spectra.find_peaks",
}
ATTR_SUMS = {
    "materials.points": ("materials.epsilon", "points"),
    "tmm.layer_points": ("tmm.stack_response", "layer_points"),
    "fields.cells": ("fields.field_map", "cells"),
    "fit.nfev": ("fit.solve", "nfev"),
    "io.bytes_written": ("io.write", "bytes"),
    "io.files_written": ("io.write", "files"),
}
EXACT_COUNTS = (*CALLS, *(m for m in ATTR_SUMS), "fit.model_calls")


def summarize(spans):
    """Per-layer metrics of one cycle's spans."""
    duration = [end - start for _, start, end, _, _ in spans]
    child = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            child[span[3]] += duration[i]

    def total(name, own=False):
        return sum(d - (child[i] if own else 0.0)
                   for i, d in enumerate(duration) if spans[i][0] == name)

    def attr_sum(name, key):
        return sum(s[4][key] for s in spans if s[0] == name and s[4])

    out = {metric: total(name) for metric, name in TIMES.items()}
    out.update({metric: total(name, own=True) for metric, name in SELF_TIMES.items()})
    out.update({metric: sum(s[0] == name for s in spans) for metric, name in CALLS.items()})
    out.update({metric: attr_sum(*source) for metric, source in ATTR_SUMS.items()})

    def under_solve(i):
        i = spans[i][3]
        while i >= 0:
            if spans[i][0] == "fit.solve":
                return True
            i = spans[i][3]
        return False

    out["fit.model_calls"] = sum(
        1 for i, s in enumerate(spans) if s[0] == "tmm.stack_response" and under_solve(i)
    )
    starts = attr_sum("fit.solve", "starts")
    out["fit.converged_starts_ratio"] = (
        attr_sum("fit.solve", "converged") / starts if starts else 0.0
    )
    busy = out["tmm.stack_response_s"]
    out["tmm.points_per_s"] = out["tmm.layer_points"] / busy if busy > 0 else 0.0
    return out
