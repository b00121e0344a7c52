"""Experiment runner: derivative-error tables, convergence sweeps, CSV output."""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from gfs.baselines import (BERNOULLI_MAX_ORDER, bernoulli_coefficients, eckhoff_derivative, fft_derivative,
                            prony_evaluate, prony_fit, roache_derivative)
from gfs.core import gfs_decompose, gfs_derivative
from gfs.functions import get_function
from gfs.grid import integer_arg, lp_error_norm, make_grid, sample
from gfs.jumps import (GridTooSmall, JumpData, estimate_jumps, fd_differentiate, fd_stencils, jump_stencils,
                       jumps_from_analytic)
from gfs.linalg import DegenerateNodes

PI = math.pi

KNOWN_METHODS = ("gfs", "fft", "fd", "roache", "eckhoff", "prony")

FD_ORDER = 6  # order of the "fd" method's central stencils


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
    return JumpData(J=jumps.J[:q])


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


@functools.cache
def _warm_up_numpy():
    """numpy's one-off first FFT and LAPACK calls, made once.

    The first rfft/irfft, real and complex eigvals and solve (Prony's are
    real, gfs's complex), svd and lstsq of a process set up their backends;
    made here, before any timed window, they stay out of the first row's
    ``wall_ms``. The 16x16 matrix has no structure and non-real
    eigenvalues: a structured one such as the identity leaves parts of the
    general eigenvalue path cold. (No method calls the complex FFT.)
    """
    a = np.ones(4)
    np.fft.irfft(np.fft.rfft(a), n=a.size)
    real = np.sin(np.arange(256.0) ** 2).reshape(16, 16)
    cplx = real.astype(complex)
    for m in (real, cplx):
        np.linalg.eigvals(m)
        np.linalg.solve(m, m[0])
    np.linalg.svd(cplx)
    np.linalg.lstsq(cplx, cplx[0], rcond=None)


def _run_single(cfg, method, u, exact, analytic):
    grid = u.grid
    t0 = time.perf_counter()
    if method == "gfs":
        q = 4 * cfg.n_modes
        r = cfg.fd_jump_order
        jumps = _leading(analytic, q) if r is None else estimate_jumps(u, q, r)
        approx = gfs_derivative(gfs_decompose(u, cfg.n_modes, jumps), 1).values
    elif method == "fft":
        approx = fft_derivative(u).values
    elif method == "fd":
        approx = fd_differentiate(u, FD_ORDER).values
    elif method == "roache":
        approx = roache_derivative(u, _leading(analytic, cfg.q), cfg.q).values
    elif method == "eckhoff":
        approx = eckhoff_derivative(u, _leading(analytic, cfg.q)).values
    elif method == "prony":
        fit = prony_fit(u, grid.N // 2)
        approx = prony_evaluate(fit, grid.nodes(), 1)
    else:  # pragma: no cover - guarded in config
        raise ValueError(method)
    wall_ms = (time.perf_counter() - t0) * 1e3

    err = approx - exact
    return (lp_error_norm(err, math.inf, grid.dx),
            lp_error_norm(err, 2, grid.dx), wall_ms)


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Compute first-derivative errors for every (method, N) pair.

    Each grid is sampled, and its exact derivative computed, once; analytic
    jumps come from one catalog pass per run, FD jump stencils, the "fd"
    method's stencils and eckhoff's Bernoulli coefficients are built once,
    and numpy's first FFT and LAPACK calls are made once per process.
    All of it happens before any method's timed window, so ``wall_ms``
    covers the method's own work (FD jump estimation included).

    Method-level numerical failures (an ArithmeticError such as Prony
    ill-conditioning, a fit's realness violation, a root residual or a
    non-finite gfs derivative;
    degenerate mode nodes; grids too small for the requested stencils)
    become rows with infinite error and the exception's class name as
    their note rather than aborting the run.
    """
    f = get_function(cfg.function, **cfg.params)
    signals = {}
    for N in set(cfg.N_list):
        grid = make_grid(-PI, PI, N)
        signals[N] = (sample(f, grid), f.derivative(grid.nodes(), 1))
    analytic = _analytic_jumps(cfg, f)
    if "gfs" in cfg.methods and cfg.fd_jump_order is not None:
        # Build the stencil tables estimate_jumps reads (exact, then float)
        # now, so the first gfs row's wall_ms does not carry their one-off cost.
        jump_stencils(4 * cfg.n_modes - 1 + cfg.fd_jump_order)
    if "fd" in cfg.methods:
        # the same for the central and off-centre stencils fd_differentiate reads
        fd_stencils(FD_ORDER)
    if "eckhoff" in cfg.methods:
        # the same for the exact Bernoulli coefficients eckhoff's padded
        # table is derived from on each call (roache reads no table)
        for m in range(1, cfg.q + 1):
            bernoulli_coefficients(m)
    _warm_up_numpy()
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
