"""Spectral differentiation of non-periodic functions via non-harmonic modes.

Decomposes a sampled signal on a bounded interval into a periodic part
(handled by FFT) and a small aperiodic part built from complex sine/cosine
modes fitted to endpoint derivative jumps, plus the classical competitor
methods (plain FFT, finite differences, Roache, Eckhoff, Prony) and a
benchmark harness comparing them.
"""

from gfs.grid import GridSpec, SampledSignal, make_grid, sample, lp_error_norm, to_standard_interval
from gfs.functions import TestFunction, get_function, FUNCTION_CATALOG
from gfs.jumps import JumpData, fd_weights, estimate_jumps, jumps_from_analytic, fd_differentiate
from gfs.core import AperiodicModel, GFSDecomposition, build_aperiodic_model, gfs_decompose, gfs_derivative
from gfs.baselines import PronyFit, fft_derivative, eckhoff_derivative, roache_derivative, prony_fit, prony_evaluate

__all__ = [
    "GridSpec", "SampledSignal", "make_grid", "sample", "lp_error_norm",
    "to_standard_interval", "TestFunction", "get_function", "FUNCTION_CATALOG",
    "JumpData", "fd_weights", "estimate_jumps",
    "jumps_from_analytic", "fd_differentiate", "AperiodicModel",
    "GFSDecomposition", "build_aperiodic_model", "gfs_decompose",
    "gfs_derivative", "PronyFit", "fft_derivative", "eckhoff_derivative",
    "roache_derivative", "prony_fit", "prony_evaluate",
]
