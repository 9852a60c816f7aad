"""Outside-in span recorder for simhodge.

``install`` wraps the public functions of each simhodge module wherever a
``simhodge.*`` module binds them (``from .x import f`` makes a second
binding), plus two methods, so no source file changes.  Each wrapped call
records a span: id, parent id, name, start, end and size counts.  Spans stay
in memory; ``uninstall`` restores the originals.  A layer's self time is the
sum over its spans of the duration minus the durations of their direct
children; since all calls run on one thread, children nest inside parents.
"""

from __future__ import annotations

import functools
import os
import sys
from contextlib import contextmanager
from time import perf_counter

# span name -> (module, attribute) pairs it wraps
SPANS = {
    "cli.main": [("simhodge.cli", "main")],
    "io.parse_input": [("simhodge.io", "parse_input"),
                       ("simhodge.io", "parse_permutation"),
                       ("simhodge.io", "parse_vertex_function")],
    "io.payload": [("simhodge.io", n) for n in (
        "field_payload", "operator_to_json", "operator_to_triplets",
        "serialize_facets", "sha256_hex")],
    "complexes.build": [("simhodge.complexes", n) for n in (
        "whitney_complex", "downward_closure", "skeleton")],
    "complexes.f_matrix": [("simhodge.complexes", "f_matrix")],
    "complexes.refine": [("simhodge.complexes", "barycentric_refinement")],
    "operators.derivative": [("simhodge.operators", "exterior_derivative"),
                             ("simhodge.operators", "connection_derivative")],
    "operators.intersection_masks": [("simhodge.operators", "intersection_masks")],
    "operators.tuple_count": [("simhodge.operators", "connection_tuple_count")],
    "operators.dirac_hodge": [("simhodge.operators", "dirac"),
                              ("simhodge.operators", "hodge")],
    "intlinalg.exact_rank": [("simhodge.intlinalg", "exact_rank")],
    "spectral.betti": [("simhodge.spectral", "betti")],
    "spectral.spectrum_report": [("simhodge.spectral", "spectrum_report")],
    "spectral.heat_supertrace": [("simhodge.spectral", "heat_supertrace")],
    "indices.wu_characteristic": [("simhodge.indices", "wu_characteristic")],
    "indices.multilinear_curvature": [("simhodge.indices", "multilinear_curvature")],
    "indices.index_theorem_report": [("simhodge.indices", "index_theorem_report")],
    "indices.index_expectation": [("simhodge.indices", "index_expectation")],
    "indices.poincare_hopf": [("simhodge.indices", "poincare_hopf")],
    "lefschetz.lefschetz_number": [("simhodge.lefschetz", "lefschetz_number")],
    "lefschetz.heat_lefschetz": [("simhodge.lefschetz", "heat_lefschetz")],
    "lax.integrate": [("simhodge.lax", "integrate")],
    "lax.trajectory": [("simhodge.lax", "trajectory_to_json"),
                       ("simhodge.lax", "trajectory_to_csv")],
}
# span name -> (module, class, method)
METHOD_SPANS = {"operators.eigensystem": ("simhodge.operators", "GradedOperator",
                                          "eigensystem")}
# Calls that are only counted: they are too frequent or too small for a span,
# and their time stays in the enclosing span.
COUNTERS = {
    "lefschetz.induced_map": ("simhodge.lefschetz", None, "induced_map"),
    "lax.bracket_field": ("simhodge.lax", None, "bracket_field"),
    "lax.eigenvalues": ("simhodge.lax", "FlowState", "eigenvalues"),
}

# per-layer metric -> span whose summed self time it reports
TIME_METRICS = {
    "cli.self_s": "cli.main",
    "io.parse_input_s": "io.parse_input",
    "io.payload_s": "io.payload",
    "complexes.build_s": "complexes.build",
    "complexes.f_matrix_s": "complexes.f_matrix",
    "complexes.refine_s": "complexes.refine",
    "operators.derivative_s": "operators.derivative",
    "operators.intersection_masks_s": "operators.intersection_masks",
    "operators.tuple_count_s": "operators.tuple_count",
    "operators.dirac_hodge_s": "operators.dirac_hodge",
    "operators.eigensystem_s": "operators.eigensystem",
    "intlinalg.exact_rank_s": "intlinalg.exact_rank",
    "spectral.betti_s": "spectral.betti",
    "spectral.spectrum_report_s": "spectral.spectrum_report",
    "spectral.heat_supertrace_s": "spectral.heat_supertrace",
    "indices.wu_characteristic_s": "indices.wu_characteristic",
    "indices.multilinear_curvature_s": "indices.multilinear_curvature",
    "indices.index_theorem_report_s": "indices.index_theorem_report",
    "indices.index_expectation_s": "indices.index_expectation",
    "indices.poincare_hopf_s": "indices.poincare_hopf",
    "lefschetz.lefschetz_number_s": "lefschetz.lefschetz_number",
    "lefschetz.heat_lefschetz_s": "lefschetz.heat_lefschetz",
    "lax.integrate_s": "lax.integrate",
    "lax.trajectory_s": "lax.trajectory",
}
# per-layer metric -> (span, size key) summed over its spans; key None counts spans
SIZE_METRICS = {
    "io.input_bytes": ("io.parse_input", "bytes"),
    "complexes.simplices": ("complexes.build", "simplices"),
    "operators.derivative_calls": ("operators.derivative", None),
    "operators.basis_elements": ("operators.derivative", "basis_elements"),
    "operators.nnz": ("operators.derivative", "nnz"),
    "operators.eigensystem_calls": ("operators.eigensystem", "solves"),
    "intlinalg.exact_rank_calls": ("intlinalg.exact_rank", None),
    "intlinalg.dense_cells": ("intlinalg.exact_rank", "cells"),
    "spectral.betti_calls": ("spectral.betti", None),
}
COUNTER_METRICS = {
    "lefschetz.induced_map_calls": "lefschetz.induced_map",
    "lax.bracket_field_calls": "lax.bracket_field",
    "lax.eigenvalues_calls": "lax.eigenvalues",
}

ID, PARENT, NAME, START, END, SIZES = range(6)


class Recorder:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self._stack = []

    def open(self, name: str) -> list:
        parent = self._stack[-1][ID] if self._stack else None
        span = [len(self.spans), parent, name, perf_counter(), None, {}]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: list):
        span[END] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    def count(self, name: str):
        self.counters[name] = self.counters.get(name, 0) + 1

    def parent_name(self, span: list):
        return None if span[PARENT] is None else self.spans[span[PARENT]][NAME]

    def self_times(self) -> dict:
        out = {}
        for s in self.spans:
            out[s[NAME]] = out.get(s[NAME], 0.0) + s[END] - s[START]
            if s[PARENT] is not None:
                parent = self.spans[s[PARENT]][NAME]
                out[parent] = out.get(parent, 0.0) - (s[END] - s[START])
        return out

    def root_time(self) -> float:
        return sum(s[END] - s[START] for s in self.spans if s[PARENT] is None)

    def to_json(self) -> list:
        return [{"id": s[ID], "parent": s[PARENT], "name": s[NAME],
                 "start": s[START], "end": s[END], "sizes": s[SIZES]}
                for s in self.spans]


def _derivative_sizes(args, result):
    return {"basis_elements": len(result.basis), "nnz": int(result.matrix.nnz)}


def _text_bytes(args, result):
    return {"bytes": len(args[0].encode("utf-8"))}


# wrapped attribute -> sizes of one call, from its arguments and result
SIZERS = {
    "parse_input": lambda args, result: {"bytes": os.path.getsize(args[0])},
    "parse_permutation": _text_bytes,
    "parse_vertex_function": _text_bytes,
    "whitney_complex": lambda args, result: {"simplices": len(result)},
    "downward_closure": lambda args, result: {"simplices": len(result)},
    "skeleton": lambda args, result: {"simplices": len(result)},
    "exterior_derivative": _derivative_sizes,
    "connection_derivative": _derivative_sizes,
    "exact_rank": lambda args, result: {"cells": int(getattr(args[0], "size", 0))},
}


def _span_wrapper(rec: Recorder, name: str, fn):
    sizer = SIZERS.get(fn.__name__)
    eigensystem = name == "operators.eigensystem"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if eigensystem:
            op, k = args[0], args[1]
            solves = k not in op._eigs
        span = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(span)
        if eigensystem:
            if solves:
                span[SIZES] = {"solves": 1, "dim": op.basis.dimension_of(k)}
        elif sizer is not None and rec.parent_name(span) != name:
            # a nested call of the same layer (whitney_complex calls
            # downward_closure) is already counted by its caller
            span[SIZES] = sizer(args, result)
        return result

    return wrapper


def _counter_wrapper(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.count(name)
        return fn(*args, **kwargs)

    return wrapper


def _rebind(original, wrapper) -> list:
    patches = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "simhodge" or mod_name.startswith("simhodge."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    patches.append((module, attr, original))
    return patches


def install(rec: Recorder) -> list:
    """Wrap every listed function and method; return the patches to undo."""
    patches = []
    for name, targets in SPANS.items():
        for mod_name, attr in targets:
            original = getattr(sys.modules[mod_name], attr)
            patches += _rebind(original, _span_wrapper(rec, name, original))
    for table, make in ((METHOD_SPANS, _span_wrapper), (COUNTERS, _counter_wrapper)):
        for name, (mod_name, cls_name, attr) in table.items():
            module = sys.modules[mod_name]
            if cls_name is None:
                original = getattr(module, attr)
                patches += _rebind(original, make(rec, name, original))
            else:
                owner = getattr(module, cls_name)
                original = vars(owner)[attr]
                setattr(owner, attr, make(rec, name, original))
                patches.append((owner, attr, original))
    return patches


def uninstall(patches: list):
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def layer_metrics(rec: Recorder) -> dict:
    """Per-layer self times, size counts and call counts of the recorded spans."""
    self_times = rec.self_times()
    out = {metric: self_times.get(span, 0.0) for metric, span in TIME_METRICS.items()}
    for metric, (span_name, key) in SIZE_METRICS.items():
        spans = [s for s in rec.spans if s[NAME] == span_name]
        out[metric] = len(spans) if key is None else \
            sum(s[SIZES].get(key, 0) for s in spans)
    out["operators.eigh_max_dim"] = max(
        (s[SIZES].get("dim", 0) for s in rec.spans
         if s[NAME] == "operators.eigensystem"), default=0)
    for metric, counter in COUNTER_METRICS.items():
        out[metric] = rec.counters.get(counter, 0)
    return out
