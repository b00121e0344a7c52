"""The four workloads: seeded inputs, one op each, and the check of every op.

An op is one sampled signal fully differentiated. Inputs are a pool of
cases, ordered so that each consecutive run of ``len(combos)`` ops holds
every (function, N, n) combination once; any prefix of the timed loop is
then balanced, and medians from runs of slightly different length compare.

gfs is called through its module attributes (``gfs.core.gfs_decompose``),
looked up at call time, so the tracer's wraps are seen.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

import gfs.bench
import gfs.core
import gfs.functions
import gfs.grid
import gfs.jumps
import reference
from tolerances import GFS_TOL, TABLE_TOL

PI = math.pi
FD_R = 6  # estimate_jumps extra stencil width: widths 4n+5 = 13, 17, 21
TABLE_METHODS = ("eckhoff", "fd", "fft", "gfs", "prony", "roache")


@dataclass(frozen=True)
class Spec:
    name: str
    functions: tuple
    Ns: tuple
    ns: tuple
    draws: int  # pool entries per combination
    jumps: str  # "analytic", "fd" or "table"


# Why each workload exists, and which metrics it moves: BENCHMARK.json and README.md.
WORKLOADS = {
    "fit_bound": Spec(
        "fit_bound",
        ("gaussian", "modulated_sine", "leakage_demo", "multimode", "trig_poly"),
        (64, 128), (2, 3, 4), 4, "analytic"),
    "grid_bound": Spec(
        "grid_bound",
        ("gaussian", "modulated_sine", "leakage_demo", "multimode", "trig_poly"),
        # N=16384 twice: both grids get about equal time, and p50 and p90
        # fall inside the two latency clusters instead of in the gap between.
        (16384, 16384, 32768), (2, 3, 4), 1, "analytic"),
    "fd_jumps": Spec(
        "fd_jumps",
        ("gaussian", "modulated_sine", "log_fn", "monomial"),
        (256, 1024), (2, 3, 4), 4, "fd"),
    "error_tables": Spec(
        "error_tables",
        ("gaussian", "modulated_sine", "log_fn", "multimode", "monomial", "leakage_demo", "trig_poly"),
        (32, 64, 128), (3,), 4, "table"),
}


def draw_params(name, rng):
    """Parameters near the points where tests/test_acceptance.py states a tolerance."""
    if name == "gaussian":
        return {"x0": rng.uniform(0.7 * PI, 0.8 * PI), "w": rng.uniform(0.9, 1.1)}
    if name == "modulated_sine":
        return {"a": rng.uniform(-0.4, -0.25), "b": rng.uniform(0.6, 0.9)}
    if name == "leakage_demo":
        return {"k1": rng.uniform(5.1, 5.5), "k2": rng.uniform(12.2, 12.6),
                "a1": rng.uniform(0.6, 0.8), "a2": rng.uniform(0.9, 1.1)}
    if name == "multimode":
        return {"n_modes": int(rng.integers(2, 5))}
    if name == "trig_poly":
        return {"seed": int(rng.integers(0, 2 ** 31)), "max_mode": int(rng.integers(3, 6))}
    if name == "monomial":
        return {"m": 3}
    return {}


def draw_interval(spec, rng):
    """[-pi, pi] for analytic jumps (the catalog's jumps assume it); else a drawn one."""
    if spec.jumps != "fd":
        return -PI, PI
    length = rng.uniform(4.5, 6.0)
    centre = rng.uniform(-0.4, 0.4)
    return centre - 0.5 * length, centre + 0.5 * length


@dataclass
class Case:
    function: str
    params: dict
    N: int
    n: int
    a: float
    b: float
    jumps: str
    f: object = None  # catalog TestFunction
    u: object = None  # SampledSignal
    exact: np.ndarray = None
    config: object = None  # ExperimentConfig, error_tables only
    fft_e_inf: float = math.nan  # independent plain-FFT error, error_tables only


def make_cases(spec, seed):
    """The seeded pool, interleaved so every prefix is balanced across combinations."""
    rng = np.random.default_rng(seed)
    combos = list(itertools.product(spec.functions, spec.Ns, spec.ns))
    cases = []
    for _ in range(spec.draws):
        for i in rng.permutation(len(combos)):
            name, N, n = combos[i]
            a, b = draw_interval(spec, rng)
            cases.append(Case(name, draw_params(name, rng), N, n, a, b, spec.jumps))
    return cases, len(combos)


def prepare(case):
    """Sample through gfs and compute the independent reference (setup work)."""
    if case.jumps == "table":
        case.config = gfs.bench.ExperimentConfig(
            function=case.function, params=case.params, methods=TABLE_METHODS,
            N_list=(case.N,), n_modes=case.n, q=4 * case.n)
        case.fft_e_inf = reference.fft_derivative_error(case.function, case.params, case.a, case.b, case.N)
        return case
    case.f = gfs.functions.get_function(case.function, **case.params)
    grid = gfs.grid.make_grid(case.a, case.b, case.N)
    case.u = gfs.grid.sample(case.f, grid)
    value, case.exact = reference.value_and_derivative(case.function, case.params, grid.nodes())
    scale = 1.0 + float(np.max(np.abs(value)))
    if not np.max(np.abs(case.u.values - value)) <= 1e-12 * scale:
        raise RuntimeError(f"gfs.grid.sample disagrees with the closed form of {case.function}")
    return case


def run_op(case):
    """One op: the signal differentiated by gfs, or one run_experiment row set."""
    if case.jumps == "table":
        return gfs.bench.run_experiment(case.config).rows
    if case.jumps == "analytic":
        jumps = gfs.jumps.jumps_from_analytic(case.f, 4 * case.n)
    else:
        jumps = gfs.jumps.estimate_jumps(case.u, 4 * case.n, FD_R)
    return gfs.core.gfs_derivative(gfs.core.gfs_decompose(case.u, case.n, jumps)).values


def check(case, out):
    """None when the output is right, else a short reason counted as a failure."""
    if case.jumps != "table":
        err = float(np.max(np.abs(out - case.exact)))
        return None if err <= GFS_TOL[(case.jumps, case.function, case.n, case.N)] else "ToleranceMiss"
    if sorted(r.method for r in out) != list(TABLE_METHODS) or any(r.N != case.N for r in out):
        return "WrongRows"
    l2_factor = math.sqrt((case.b - case.a) * (case.N + 1) / case.N) * (1 + 1e-12)
    for r in out:
        if r.method == "prony":
            # Criterion 9: Prony with M = N/2 is ill-conditioned on fine grids.
            # An IllConditioned row is the documented outcome, not a failure;
            # a fit that survives has no accuracy claim, only a finite error.
            if r.note == "IllConditioned" and math.isinf(r.e_inf):
                continue
            if r.note or not math.isfinite(r.e_inf):
                return "WrongRow:prony"
        elif r.note or not r.e_inf <= TABLE_TOL[(case.function, case.N, r.method)]:
            return f"ToleranceMiss:{r.method}"
        elif r.method == "fft" and not abs(r.e_inf - case.fft_e_inf) <= 1e-9 * max(1.0, case.fft_e_inf):
            return "ToleranceMiss:fft"
        if not r.e_2 <= r.e_inf * l2_factor:
            return f"NormMismatch:{r.method}"
    return None

