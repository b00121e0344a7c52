"""Experiment runner: derivative-error tables, convergence sweeps, CSV output."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from gfs.baselines import (BERNOULLI_MAX_ORDER, eckhoff_derivative, fft_derivative, prony_evaluate, prony_fit,
                            roache_derivative)
from gfs.core import gfs_decompose, gfs_derivative
from gfs.functions import get_function
from gfs.grid import integer_arg, lp_error_norm, make_grid, sample
from gfs.jumps import GridTooSmall, JumpData, estimate_jumps, fd_differentiate, jumps_from_analytic
from gfs.linalg import DegenerateNodes

PI = math.pi

KNOWN_METHODS = ("gfs", "fft", "fd", "roache", "eckhoff", "prony")

FD_ORDER = 6  # order of the "fd" method's central stencils

# The settings (method, N, n_modes, q, jump_source) this process has run
# once, untimed.
_warmed = set()


@dataclass(frozen=True)
class ExperimentConfig:
    function: str
    params: dict = field(default_factory=dict)
    methods: tuple = ("gfs",)
    N_list: tuple = (64,)
    n_modes: int = 2
    q: int = 8
    jump_source: str = "analytic"  # "analytic" or "fd:<r>"

    def __post_init__(self):
        for m in self.methods:
            if m not in KNOWN_METHODS:
                raise ValueError(f"unknown method {m!r}; choices {KNOWN_METHODS}")
        head, _, r = self.jump_source.partition(":")
        if self.jump_source != "analytic" and not (head == "fd" and r.isdecimal() and int(r) >= 1):
            raise ValueError(f"jump_source must be 'analytic' or 'fd:<r>' with an integer r >= 1, "
                             f"got {self.jump_source!r}")
        for name in ("n_modes", "q"):
            object.__setattr__(self, name, integer_arg(getattr(self, name), name, 1))
        # eckhoff's singular basis reads the Bernoulli polynomials B_1..B_q
        if "eckhoff" in self.methods and self.q > BERNOULLI_MAX_ORDER + 1:
            raise ValueError(f"eckhoff needs q <= {BERNOULLI_MAX_ORDER + 1}, got q={self.q}")

    @property
    def fd_jump_order(self):
        if self.jump_source.startswith("fd:"):
            return int(self.jump_source.split(":", 1)[1])
        return None


@dataclass(frozen=True)
class ExperimentRow:
    method: str
    function: str
    N: int
    param: str  # n for gfs, q for roache/eckhoff, M = N // 2 for prony, r for fd
    jump_source: str
    e_inf: float
    e_2: float
    wall_ms: float
    note: str = ""


@dataclass(frozen=True)
class ExperimentReport:
    rows: tuple


def _analytic_jumps(cfg, f):
    """One catalog pass for every method that takes analytic jumps, or None.

    Each J_m is computed on its own, so a leading slice of this set equals
    the set computed for the shorter length.
    """
    need = [cfg.q for m in cfg.methods if m in ("roache", "eckhoff")]
    if "gfs" in cfg.methods and cfg.fd_jump_order is None:
        need.append(4 * cfg.n_modes)
    return jumps_from_analytic(f, max(need)) if need else None


def _leading(jumps, q):
    """The first q jumps of ``jumps``."""
    if q < 1:
        raise ValueError(f"jump count {q} must be >= 1")
    return JumpData(J=jumps.J[:q], interval=jumps.interval)


def _method_param(cfg, method, N):
    if method == "gfs":
        return str(cfg.n_modes)
    if method in ("roache", "eckhoff"):
        return str(cfg.q)
    if method == "prony":
        return str(N // 2)
    if method == "fd":
        return str(FD_ORDER)
    return ""


def _derivative(cfg, method, u, analytic):
    """The first derivative of ``u`` at its nodes by ``method``."""
    if method == "gfs":
        q = 4 * cfg.n_modes
        r = cfg.fd_jump_order
        jumps = _leading(analytic, q) if r is None else estimate_jumps(u, q, r)
        return gfs_derivative(gfs_decompose(u, cfg.n_modes, jumps), 1).values
    if method == "fft":
        return fft_derivative(u).values
    if method == "fd":
        return fd_differentiate(u, FD_ORDER).values
    if method == "roache":
        return roache_derivative(u, _leading(analytic, cfg.q), cfg.q).values
    if method == "eckhoff":
        return eckhoff_derivative(u, _leading(analytic, cfg.q)).values
    if method == "prony":
        return prony_evaluate(prony_fit(u, u.grid.N // 2), u.grid.nodes(), 1)
    raise ValueError(method)  # pragma: no cover - guarded in config


def _run_single(cfg, method, u, exact, analytic):
    """(e_inf, e_2, wall_ms) of one method on one grid.

    The first time this process meets the setting, the method runs once
    untimed first, so no cache is built and no backend started in ``wall_ms``.
    """
    setting = (method, u.grid.N, cfg.n_modes, cfg.q, cfg.jump_source)
    if setting not in _warmed:
        _derivative(cfg, method, u, analytic)
        _warmed.add(setting)
    t0 = time.perf_counter()
    approx = _derivative(cfg, method, u, analytic)
    wall_ms = (time.perf_counter() - t0) * 1e3

    err = approx - exact
    return (lp_error_norm(err, math.inf, u.grid.dx),
            lp_error_norm(err, 2, u.grid.dx), wall_ms)


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Compute first-derivative errors for every (method, N) pair.

    Each grid is sampled, and its exact derivative computed, once, and
    analytic jumps come from one catalog pass per run. The first time a
    process meets a setting (method, N, n_modes, q, jump_source), the method
    runs once untimed before its timed call, so every cache and backend it
    needs is built by then and ``wall_ms`` covers the method's own work (FD
    jump estimation included).

    Method-level numerical failures (an ArithmeticError such as Prony
    ill-conditioning, a fit's realness violation, a root residual or a
    non-finite derivative; degenerate mode nodes; grids too small for the
    requested stencils), raised by the untimed or the timed call, become
    rows with infinite error and the exception's class name as their note
    rather than aborting the run.
    """
    f = get_function(cfg.function, **cfg.params)
    signals = {}
    for N in set(cfg.N_list):
        grid = make_grid(-PI, PI, N)
        signals[N] = (sample(f, grid), f.derivative(grid.nodes(), 1))
    analytic = _analytic_jumps(cfg, f)
    rows = []
    for method in sorted(cfg.methods):
        for N in sorted(cfg.N_list):
            jump_src = cfg.jump_source if method == "gfs" else (
                "analytic" if method in ("roache", "eckhoff") else "")
            try:
                e_inf, e_2, wall_ms = _run_single(cfg, method, *signals[N], analytic)
                note = ""
            except (ArithmeticError, DegenerateNodes, GridTooSmall) as exc:
                e_inf = e_2 = math.inf
                wall_ms = 0.0
                note = type(exc).__name__
            rows.append(ExperimentRow(
                method=method, function=cfg.function, N=N,
                param=_method_param(cfg, method, N), jump_source=jump_src,
                e_inf=e_inf, e_2=e_2, wall_ms=wall_ms, note=note))
    return ExperimentReport(rows=tuple(rows))


def _fmt(v):
    if math.isinf(v):
        return "inf"
    return f"{v:.5e}"


def format_csv(report: ExperimentReport):
    """The report as CSV text; floats in scientific notation, 6 significant digits."""
    lines = ["method,function,N,param,jump_source,e_inf,e_2,wall_ms,note"]
    for r in report.rows:
        lines.append(",".join([
            r.method, r.function, str(r.N), r.param, r.jump_source,
            _fmt(r.e_inf), _fmt(r.e_2), _fmt(r.wall_ms), r.note]))
    return "\n".join(lines) + "\n"


def write_report(text, path):
    """Write ``text`` to the file at ``path``; an OSError names the path."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc


def loglog_slope(Ns, errs):
    """Least-squares log-log slope over the longest decreasing segment.

    Returns NaN when no two consecutive finite, decreasing points exist.
    """
    pts = [(n, e) for n, e in sorted(zip(Ns, errs)) if np.isfinite(e) and e > 0]
    best = []
    run = [pts[0]] if pts else []
    for prev, cur in zip(pts, pts[1:]):
        if cur[1] < prev[1]:
            run.append(cur)
        else:
            run = [cur]
        if len(run) > len(best):
            best = list(run)
    if len(best) < 2:
        return float("nan")
    logN = np.log([p[0] for p in best])
    logE = np.log([p[1] for p in best])
    return float(np.polyfit(logN, logE, 1)[0])


def convergence_sweep(cfg: ExperimentConfig):
    """Run the experiment over cfg.N_list and fit per-method error slopes."""
    if len(cfg.N_list) < 3:
        raise ValueError("convergence sweep needs at least 3 grid sizes")
    report = run_experiment(cfg)
    slopes = {}
    for method in cfg.methods:
        rows = [r for r in report.rows if r.method == method]
        slopes[method] = loglog_slope([r.N for r in rows],
                                      [r.e_inf for r in rows])
    return report, slopes


@dataclass(frozen=True)
class LeakageReport:
    recovered_sine_modes: tuple  # (wavenumber, amplitude) pairs
    raw_spectrum: np.ndarray  # |DFT| of the raw samples, bins 0..N/2
    periodic_spectrum: np.ndarray  # |DFT| of the periodic remainder


def leakage_demo(N, **params):
    """Two-non-integer-mode demo: recovered modes plus DFT magnitude spectra.

    ``params`` override the catalog's leakage_demo wavenumbers and
    amplitudes (k1, k2, a1, a2).
    """
    if N < 64:
        raise ValueError("N must be >= 64")
    f = get_function("leakage_demo", **params)
    grid = make_grid(-PI, PI, N)
    u = sample(f, grid)
    jumps = jumps_from_analytic(f, 8)
    dec = gfs_decompose(u, 2, jumps)

    def half_spectrum(values):
        spec = np.abs(np.fft.rfft(values[:-1])) / (N / 2.0)
        return spec

    modes = tuple(sorted(((k, a) for k, a in dec.aperiodic.sine_modes),
                         key=lambda ka: abs(ka[0])))
    return LeakageReport(
        recovered_sine_modes=modes,
        raw_spectrum=half_spectrum(u.values),
        periodic_spectrum=half_spectrum(dec.periodic),
    )
