"""Span tracing of the ``mslwave`` layers from outside the library.

``install`` replaces every public function of every ``mslwave`` module
with a wrapper that records a span (name, layer, start, end, parent),
at every module that binds it: ``solve_qep`` is patched in ``qep`` and
also in ``compose``, ``propagators``, ``solvers``, ``verify`` and the
package namespace, so calls through any of those names are seen. It
also wraps ``StructureDefinition.bind`` and counts the ``numpy.linalg``
calls. ``uninstall`` puts the originals back. A layer is the module
that defines the function; helpers of the private ``_linalg`` module
count towards their caller, and time outside every library span is
``other``.

A span's self time is its duration minus the durations of its child
spans, so the self times of all spans add up to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from collections import Counter

import numpy as np

LAYERS = ("structure_io", "media", "qep", "propagators", "compose",
          "solvers", "cli", "verify")
MODULES = ("mslwave",) + tuple(f"mslwave.{m}" for m in LAYERS)
LINALG = ("solve", "det", "eig", "eigvals", "eigh", "svd", "norm", "inv",
          "cond", "lstsq", "pinv", "qr", "slogdet", "matrix_rank")
# np.linalg.norm with these orders runs an SVD
SVD_NORM_ORDS = (2, -2, "nuc")

NAME, LAYER, START, END, PARENT, SELF, INFO = range(7)


class Tracer:
    """Keeps spans in memory; one list entry per call."""

    def __init__(self):
        self.spans: list[list] = []
        self.linalg: Counter = Counter()
        self._stack: list[int] = []
        self._child: list[float] = []

    def call(self, fn, name: str, layer: str, args, kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, layer, 0.0, 0.0, parent, 0.0, None]
        self.spans.append(span)
        self._child.append(0.0)
        self._stack.append(idx)
        span[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            span[INFO] = _info(name, result)
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            span[END] = end
            span[SELF] = end - span[START] - self._child[idx]
            if parent >= 0:
                self._child[parent] += end - span[START]

    def run(self, fn, *args):
        """Run ``fn`` under a root span of layer ``other``."""
        return self.call(fn, "workload", "other", args, {})


def _info(name: str, result):
    if name == "scan_and_refine":
        return len(result.grid), len(result.brackets), len(result.roots)
    if name == "structure_propagator":
        return len(result[1])
    return None


def _span_wrapper(tracer: Tracer, fn, name: str, layer: str):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(fn, name, layer, args, kwargs)
    return traced


def _count_wrapper(tracer: Tracer, fn, name: str):
    counts = tracer.linalg

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        counts[name] += 1
        if name == "norm" and np.ndim(args[0]) >= 2:
            ord_ = args[1] if len(args) > 1 else kwargs.get("ord")
            if ord_ in SVD_NORM_ORDS:
                counts["norm_svd"] += 1
        return fn(*args, **kwargs)
    return counted


def install(tracer: Tracer) -> list:
    """Wrap the library; return the patches for :func:`uninstall`."""
    modules = [importlib.import_module(m) for m in MODULES]
    wrappers: dict = {}
    patches = []
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if attr.startswith("_") or not isinstance(value,
                                                      types.FunctionType):
                continue
            layer = value.__module__.removeprefix("mslwave.")
            if layer not in LAYERS:  # e.g. the private _linalg helpers
                continue
            if value not in wrappers:
                wrappers[value] = _span_wrapper(tracer, value, attr, layer)
            patches.append((mod, attr, value))
            setattr(mod, attr, wrappers[value])
    structure_def = importlib.import_module("mslwave.structure_io") \
        .StructureDefinition
    patches.append((structure_def, "bind", structure_def.bind))
    structure_def.bind = _span_wrapper(tracer, structure_def.bind, "bind",
                                       "structure_io")
    for attr in LINALG:
        original = getattr(np.linalg, attr)
        patches.append((np.linalg, attr, original))
        setattr(np.linalg, attr, _count_wrapper(tracer, original, attr))
    return patches


def uninstall(patches: list) -> None:
    for obj, attr, original in reversed(patches):
        setattr(obj, attr, original)


def _outermost(spans, names) -> list:
    """Spans named in ``names`` that have no ancestor named in ``names``."""
    out = []
    for span in spans:
        if span[NAME] not in names:
            continue
        p = span[PARENT]
        while p >= 0 and spans[p][NAME] not in names:
            p = spans[p][PARENT]
        if p < 0:
            out.append(span)
    return out


def _within(spans, span_ids, names) -> int:
    """Number of spans named in ``names`` below one of ``span_ids``."""
    n = 0
    for span in spans:
        if span[NAME] not in names:
            continue
        p = span[PARENT]
        while p >= 0 and p not in span_ids:
            p = spans[p][PARENT]
        n += p >= 0
    return n


def _dur(spans) -> float:
    return sum(s[END] - s[START] for s in spans)


def _self(spans, names=None, layer=None) -> float:
    return sum(s[SELF] for s in spans
               if (names is None or s[NAME] in names)
               and (layer is None or s[LAYER] == layer))


def layer_metrics(tracer: Tracer, runs: int) -> dict:
    """Per-layer metrics, per workload run, from ``runs`` traced runs."""
    spans = tracer.spans
    calls = Counter(s[NAME] for s in spans)
    per = 1.0 / runs
    m: dict = {}

    for layer in LAYERS + ("other",):
        m[f"{layer}.self_s"] = _self(spans, layer=layer) * per
    m["trace.wall_s"] = _dur(s for s in spans if s[PARENT] < 0) * per

    m["structure_io.bind_calls"] = calls["bind"] * per
    m["structure_io.bind_s"] = _dur(_outermost(spans, {"bind"})) * per

    solves = calls["solve_qep"]
    solve_s = _dur(_outermost(spans, {"solve_qep"}))
    m["qep.solve_calls"] = solves * per
    m["qep.solve_s"] = solve_s * per
    m["qep.us_per_solve"] = 1e6 * solve_s / solves if solves else 0.0

    singles = {"t_single", "h_single_stable", "e_single_stable"}
    m["propagators.single_calls"] = sum(calls[n] for n in singles) * per
    m["propagators.single_s"] = _dur(_outermost(spans, singles)) * per
    m["propagators.basis_s"] = _dur(_outermost(
        spans, {"q_matrix", "k_matrix", "s_from_k"})) * per

    folds = [s for s in spans if s[NAME] == "structure_propagator"]
    steps = sum(s[INFO] for s in folds if s[INFO] is not None)
    fold_self = _self(spans, names={"structure_propagator", "compose_t",
                                    "compose_h", "compose_e", "star_product"})
    m["compose.fold_calls"] = len(folds) * per
    m["compose.steps"] = steps * per
    m["compose.fold_self_s"] = fold_self * per
    m["compose.us_per_step"] = 1e6 * fold_self / steps if steps else 0.0

    secular = {"escape_secular", "periodic_dispersion"}
    scans = [s for s in spans if s[NAME] == "scan_and_refine"]
    secular_calls = sum(calls[n] for n in secular)
    grid_points = sum(s[INFO][0] for s in scans if s[INFO])
    brackets = sum(s[INFO][1] for s in scans if s[INFO])
    roots = sum(s[INFO][2] for s in scans if s[INFO])
    refine = secular_calls - grid_points
    m["solvers.secular_calls"] = secular_calls * per
    m["solvers.secular_self_s"] = _self(spans, names=secular) * per
    m["solvers.grid_points"] = grid_points * per
    m["solvers.refine_evals"] = refine * per
    m["solvers.evals_per_root"] = refine / roots if roots else 0.0
    m["solvers.root_yield"] = roots / brackets if brackets else 0.0
    m["solvers.scan_self_s"] = _self(spans, names={"scan_and_refine"}) * per

    rescans = {i for i, s in enumerate(spans) if s[NAME] == "scan_and_refine"
               and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "main"}
    m["cli.rescan_s"] = _dur(spans[i] for i in rescans) * per
    m["cli.rescan_evals"] = _within(spans, rescans, secular) * per

    m["verify.report_self_s"] = _self(
        spans, names={"variant_comparison_report"}) * per
    m["verify.roundoff_bound_s"] = _dur(_outermost(
        spans, {"roundoff_bound"})) * per

    evals = secular_calls or len(folds)
    lin = tracer.linalg
    m["linalg.calls_per_eval"] = (sum(lin[n] for n in LINALG) / evals
                                  if evals else 0.0)
    m["linalg.svd_per_eval"] = ((lin["svd"] + lin["norm_svd"] + lin["cond"])
                                / evals if evals else 0.0)
    m["linalg.eig_per_eval"] = ((lin["eig"] + lin["eigvals"] + lin["eigh"])
                                / evals if evals else 0.0)
    return m
