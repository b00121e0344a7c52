"""Span tracer that wraps gfs's layer boundaries from outside the package.

Each wrap replaces one module attribute: the name through which one layer
calls a function of another (``gfs.core.solve_least_squares``), or the
defining attribute of a function a per-layer metric names
(``gfs.core.solve_elementary_symmetric``, called inside ``core``). Python
resolves a module global at call time, so replacing the attribute is seen
by every caller that goes through it, and nothing under ``src/`` changes.
Private helpers are not wrapped; their time counts as their caller's self
time.

Spans (name, start, end, parent, op id, exception, info) stay in memory and
are written out when the run ends. Self time is a span's duration minus the
durations of its direct children; calls are synchronous on one thread, so
children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

LAYERS = ("grid", "functions", "jumps", "core", "linalg", "spectral", "baselines", "bench")

# Methods reached through an instance rather than a module attribute.
METHODS = ("functions.TestFunction.analytic_jump",)

# Functions that per-layer metrics or the benchmark's ops name. Each is
# wrapped at every attribute that holds it, intra-layer calls included; a
# name missing at run time is reported as absent.
NAMED = frozenset({
    "grid.sample",
    "functions.TestFunction.analytic_jump",
    "jumps.jumps_from_analytic", "jumps.estimate_jumps", "jumps.fd_weights",
    "jumps.to_standard_jumps",
    "jumps.fd_differentiate",
    "core.gfs_decompose", "core.gfs_derivative", "core.build_aperiodic_model",
    "core.solve_elementary_symmetric", "core.modes_from_symmetric",
    "core.solve_mode_amplitudes", "core.evaluate_aperiodic",
    "linalg.solve_least_squares", "linalg.polynomial_roots",
    "linalg.solve_transposed_vandermonde", "linalg.count_distinct",
    "linalg.complex_principal_sqrt",
    "spectral.spectral_derivative_periodic",
    "baselines.fft_derivative", "baselines.roache_derivative",
    "baselines.eckhoff_derivative", "baselines.prony_fit",
    "bench.run_experiment",
})


def _n_modes(model):
    return len(model.sine_modes) + len(model.cosine_modes)


# Per-call facts taken from arguments and results, for the computed counts.
INFO = {
    "spectral.spectral_derivative_periodic": lambda args, kw, res: len(args[0]) - 1,
    "core.evaluate_aperiodic": lambda args, kw, res: _n_modes(args[0]) * getattr(args[1], "size", 1),
    "core.solve_elementary_symmetric": lambda args, kw, res: args[1],
    "core.build_aperiodic_model": lambda args, kw, res: (_n_modes(res), 2 * int(args[1])),
    "jumps.fd_weights": lambda args, kw, res: (int(args[0]), int(args[1]),
                                               args[2] if len(args) > 2 else kw.get("side", "forward")),
}


def find_targets():
    """(owner, attribute, original, qualified name) for every wrap, plus absent names."""
    modules = {}
    for layer in LAYERS:
        try:
            modules[layer] = importlib.import_module(f"gfs.{layer}")
        except ImportError:
            continue
    layer_of = {f"gfs.{layer}": layer for layer in modules}
    targets = []
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            home = layer_of.get(obj.__module__)
            if home is None:
                continue
            qual = f"{home}.{obj.__name__}"
            if obj.__module__ != mod.__name__ or qual in NAMED:
                targets.append((mod, attr, obj, qual))
    for qual in METHODS:
        layer, cls_name, meth = qual.split(".")
        cls = getattr(modules.get(layer), cls_name, None)
        fn = vars(cls).get(meth) if cls is not None else None
        if inspect.isfunction(fn):
            targets.append((cls, meth, fn, qual))
    absent = sorted(NAMED - {t[3] for t in targets})
    return targets, absent


class Tracer:
    """Wraps the targets on ``install`` and puts the originals back on ``uninstall``."""

    def __init__(self):
        self.targets, self.absent = find_targets()
        self.spans = []
        self.ops = []  # (op id, start, end)
        self.op = -1  # -1 while setting up
        self.info_errors = 0
        self._stack = []
        self._saved = []

    def install(self):
        for owner, attr, fn, qual in self.targets:
            self._saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, self._wrap(fn, qual))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def restored(self):
        """True when every target attribute holds its original object again."""
        return all(vars(owner)[attr] is fn for owner, attr, fn, _ in self.targets)

    def _wrap(self, fn, name):
        spans, stack, clock, info = self.spans, self._stack, time.perf_counter, INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op, type(exc).__name__, None)
                raise
            t1 = clock()
            stack.pop()
            facts = None
            if info is not None:
                try:
                    facts = info(args, kwargs, result)
                except Exception:
                    self.info_errors += 1
            spans[idx] = (name, t0, t1, parent, self.op, None, facts)
            return result

        return wrapper

    def write(self, path, meta):
        """All spans as JSON lines after one header line of run metadata."""
        with open(path, "w") as fh:
            fh.write(json.dumps(meta) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def summarize(tracer, first_pass_ops):
    """Per-function table and the per-layer metrics of one traced run.

    Times are means over every traced op. Counts are taken over the first
    ``first_pass_ops`` ops, one pass over the seeded input pool, so they
    repeat exactly for a given seed.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, t0, t1, parent, *_ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    op_ids = [op for op, _, _ in tracer.ops]
    n_ops = max(len(op_ids), 1)
    counted = {op for op in op_ids[:first_pass_ops]}
    n_counted = max(len(counted), 1)
    op_wall = sum(t1 - t0 for _, t0, t1 in tracer.ops)

    self_s = defaultdict(float)
    total_s = defaultdict(float)
    calls = Counter()
    layer_self = defaultdict(float)
    top_level = 0.0
    setup = defaultdict(float)
    cold_keys = set()
    fft_points = mode_points = kept = requested = ill = 0
    parity_children = defaultdict(Counter)
    for i, (name, t0, t1, parent, op, exc, info) in enumerate(spans):
        dur = t1 - t0
        if op < 0:
            setup[name] += dur
            if name == "jumps.fd_weights":
                setup["stencil_cold"] += dur
                cold_keys.add(info)
            continue
        self_s[name] += dur - child[i]
        total_s[name] += dur
        layer_self[name.split(".")[0]] += dur - child[i]
        if parent < 0:
            top_level += dur
        if op not in counted:
            continue
        calls[name] += 1
        if name == "spectral.spectral_derivative_periodic" and info is not None:
            fft_points += info
        elif name == "core.evaluate_aperiodic" and info is not None:
            mode_points += info
        elif name == "core.build_aperiodic_model" and info is not None:
            kept += info[0]
            requested += info[1]
        elif name == "core.solve_elementary_symmetric" and parent >= 0:
            parity_children[parent][info] += 1
        elif name == "baselines.prony_fit" and exc == "IllConditioned":
            ill += 1
    retries = sum(c - 1 for per in parity_children.values() for c in per.values())

    table = {name: {"calls_per_op": calls[name] / n_counted,
                    "self_ms_per_op": 1e3 * self_s[name] / n_ops,
                    "total_ms_per_op": 1e3 * total_s[name] / n_ops}
             for name in sorted(total_s)}

    def self_ms(name):
        return 1e3 * self_s[name] / n_ops

    metrics = {}
    for name in ("jumps.jumps_from_analytic", "jumps.estimate_jumps",
                 "core.build_aperiodic_model", "core.solve_elementary_symmetric",
                 "core.modes_from_symmetric", "core.solve_mode_amplitudes",
                 "core.evaluate_aperiodic", "core.gfs_decompose", "core.gfs_derivative",
                 "jumps.to_standard_jumps", "spectral.spectral_derivative_periodic",
                 "grid.sample", "baselines.eckhoff_derivative", "baselines.roache_derivative",
                 "baselines.prony_fit", "baselines.fft_derivative", "jumps.fd_differentiate",
                 "bench.run_experiment",
                 "linalg.solve_least_squares", "linalg.polynomial_roots",
                 "linalg.solve_transposed_vandermonde"):
        metrics[f"{name}.self_ms"] = (self_ms(name), "ms")
    for name in ("jumps.fd_weights", "linalg.solve_least_squares", "linalg.polynomial_roots",
                 "linalg.solve_transposed_vandermonde", "linalg.count_distinct",
                 "linalg.complex_principal_sqrt"):
        metrics[f"{name}.calls"] = (calls[name] / n_counted, "count")
    metrics["jumps.stencil_cold_ms"] = (1e3 * setup["stencil_cold"], "ms")
    metrics["jumps.stencil_keys_cold"] = (len(cold_keys), "count")
    metrics["grid.sample.setup_ms"] = (1e3 * setup["grid.sample"], "ms")
    metrics["core.family_retries"] = (retries / n_counted, "count")
    metrics["core.modes_kept_frac"] = (kept / requested if requested else 0.0, "frac")
    metrics["core.evaluate_aperiodic.mode_points"] = (mode_points / n_counted, "count")
    metrics["spectral.fft_points"] = (fft_points / n_counted, "count")
    metrics["baselines.prony_fit.ill_conditioned"] = (ill, "count")
    for layer in LAYERS:
        metrics[f"split.{layer}.self_frac"] = (layer_self[layer] / op_wall if op_wall else 0.0, "frac")
    metrics["split.op_glue.self_frac"] = ((op_wall - top_level) / op_wall if op_wall else 0.0, "frac")
    return metrics, table
