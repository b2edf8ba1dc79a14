"""Spans around the calls into each pipeline layer, installed from outside.

The wrappers replace module attributes that the pipeline looks up at call
time (``report.koszul_route``, ``certify.values_block``, …), so ``src/``
stays untouched.  A name missing from the program is skipped, which leaves
its layer's counters at zero instead of breaking the benchmark.

Spans are kept in memory as ``[name, start, end, parent, tuple_id, size]``
and written out once the run ends.
"""
from __future__ import annotations

import functools
import importlib
import time


def _points(args, kwargs):
    return int(args[1].shape[0])


def _shape(args, kwargs):
    m, n = args[0].shape[-2:]
    return [int(m), int(n)]


# (module, attribute, span name, size of the call or None)
TRACE_POINTS = [
    ("polytoep.report", "gcd_reduce", "reduction", None),
    ("polytoep.report", "boundary_lower_bound", "certify", None),
    ("polytoep.report", "koszul_route", "koszul", None),
    ("polytoep.report", "common_zeros", "zeros", None),
    ("polytoep.report", "perturbed_count_details", "oracle", None),
    ("polytoep.report", "tensor_tuple_index", "tensor", None),
    ("polytoep.report", "disc_tuple_index", "tensor", None),
    ("polytoep.report", "univariate_index", "tensor", None),
    ("polytoep.koszul", "build_koszul", "koszul.build", None),
    ("polytoep.koszul", "homology_kernel_dims", "koszul.homology", None),
    ("polytoep.koszul", "ideal_codim_window", "koszul.codim", None),
    ("polytoep.koszul", "svdvals", "svd", _shape),
    ("numpy.linalg", "svd", "svd", _shape),
    ("polytoep.certify", "values_block", "kernel", _points),
    ("polytoep.certify", "sumsq_block", "kernel", _points),
    ("polytoep.certify", "minimize", "witness", None),
    ("polytoep.zeros", "quotient_basis", "zeros.quotient_basis", None),
    ("polytoep.zeros", "polydisc_lower_bound", "polydisc", None),
]


class Tracer:
    """Records nested spans for one tuple at a time (single thread)."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.tuple_id = None
        self._installed = []

    def span(self, name, fn, *args, size=None, **kwargs):
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else None,
               self.tuple_id, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()
            if size is not None:
                rec[5] = size(args, kwargs)

    def install(self):
        """Wrap every trace point whose module and attribute exist."""
        for mod_name, attr, name, size in TRACE_POINTS:
            try:
                mod = importlib.import_module(mod_name)
            except ImportError:
                continue
            orig = getattr(mod, attr, None)
            if orig is None:
                continue

            def wrapper(*args, _orig=orig, _name=name, _size=size, **kwargs):
                return self.span(_name, _orig, *args, size=_size, **kwargs)

            setattr(mod, attr, functools.wraps(orig)(wrapper))
            self._installed.append((mod, attr, orig))

    def uninstall(self):
        while self._installed:
            mod, attr, orig = self._installed.pop()
            setattr(mod, attr, orig)


def _ancestors(spans, i):
    p = spans[i][3]
    while p is not None:
        yield spans[p][0]
        p = spans[p][3]


def layer_metrics(spans, bodies):
    """Per-layer times from spans and deterministic counters from report
    bodies, for one traced pass over a workload."""
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] is not None:
            child[s[3]] += dur[i]

    def total(name, under=None):
        return sum(dur[i] for i, s in enumerate(spans) if s[0] == name
                   and (under is None or under in _ancestors(spans, i)))

    def count(name, under=None):
        return sum(1 for i, s in enumerate(spans) if s[0] == name
                   and (under is None or under in _ancestors(spans, i)))

    kernel = [i for i, s in enumerate(spans) if s[0] == "kernel"]
    kernel_s = sum(dur[i] for i in kernel)
    kernel_pts = sum(spans[i][5] for i in kernel)
    svd = [i for i, s in enumerate(spans)
           if s[0] == "svd" and "koszul" in _ancestors(spans, i)]
    certify_s = total("certify")

    certs = [c for b in bodies for c in b["certificates"]]
    cells = sum(c["cells_evaluated"] for c in certs)
    wasted = sum(c["cells_evaluated"] for c in certs if c["verdict"] != "certified")
    routes = [b["routes"] for b in bodies]
    oracle = [r["oracle"] for r in routes if "attempts" in r.get("oracle", {})]
    attempts = sum(o["attempts"] for o in oracle)
    return {
        "report.self_s": (sum(dur[i] - child[i] for i, s in enumerate(spans)
                              if s[0] == "run_index"), "s"),
        "reduction.s": (total("reduction"), "s"),
        "reduction.polydisc_cells": (sum(
            b["reduction"]["certificate"]["cells_evaluated"] for b in bodies
            if b["reduction"] and b["reduction"].get("certificate")), "count"),
        "certify.s": (certify_s, "s"),
        "certify.attempts": (len(certs), "count"),
        "certify.cells": (cells, "count"),
        "certify.cells_per_s": (cells / certify_s if certify_s else 0.0, "1/s"),
        "certify.wasted_cells_frac": (wasted / cells if cells else 0.0, "frac"),
        "certify.witness_s": (total("witness"), "s"),
        "certify.witness_calls": (count("witness"), "count"),
        "kernels.calls": (len(kernel), "count"),
        "kernels.points": (kernel_pts, "count"),
        "kernels.s": (kernel_s, "s"),
        "kernels.mpts_per_s": (kernel_pts / kernel_s / 1e6 if kernel_s else 0.0,
                               "Mpts/s"),
        "kernels.share_of_certify": (
            total("kernel", under="certify") / certify_s if certify_s else 0.0,
            "frac"),
        "koszul.s": (total("koszul"), "s"),
        "koszul.sweep_s": (total("koszul.build") + total("koszul.homology"), "s"),
        "koszul.levels": (sum(len(r["koszul"].get("per_n", ())) for r in routes
                              if "koszul" in r), "count"),
        "koszul.codim_s": (total("koszul.codim"), "s"),
        "koszul.codim_svd_calls": (count("svd", under="koszul.codim"), "count"),
        "koszul.svd_calls": (len(svd), "count"),
        "koszul.svd_s": (sum(dur[i] for i in svd), "s"),
        "koszul.svd_max_cols": (max((spans[i][5][1] for i in svd), default=0),
                                "count"),
        "koszul.svd_flops": (sum(m * n * min(m, n) for m, n in
                                 (spans[i][5] for i in svd)), "flop"),
        "koszul.unstable": (sum(1 for r in routes
                                if r.get("koszul", {}).get("index") == "unstable"),
                            "count"),
        "zeros.s": (total("zeros"), "s"),
        "zeros.quotient_basis_s": (total("zeros.quotient_basis"), "s"),
        "zeros.quotient_dim": (sum(r["algebraic"].get("quotient_dim", 0)
                                   for r in routes if "algebraic" in r), "count"),
        "oracle.s": (total("oracle"), "s"),
        "oracle.attempts": (attempts, "count"),
        "oracle.useful_frac": (sum(len(o["trial_counts"]) for o in oracle) / attempts
                               if attempts else 0.0, "frac"),
        "tensor.s": (total("tensor"), "s"),
    }
