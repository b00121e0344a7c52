"""Vectorized closed forms of the catalog functions, written independently of gfs.

Every op of the benchmark is checked against these arrays, never against
the package's own catalog callables, so a defect in the catalog, the
sampling or the derivative code shows up as a tolerance miss.
"""

from __future__ import annotations

import math

import numpy as np

PI = math.pi


def multimode_wavenumbers(n_modes):
    """k_j = j + 1/n + (j/n)(n-2)/(n-1), j = 0..n-1 (the paper's multimode set)."""
    j = np.arange(n_modes, dtype=float)
    return j + 1.0 / n_modes + (j / n_modes) * (n_modes - 2.0) / (n_modes - 1.0)


def trig_poly_coefficients(seed, max_mode):
    """The catalog's documented draw: sine, cosine and constant terms from one RNG."""
    rng = np.random.default_rng(int(seed))
    a = rng.uniform(-1.0, 1.0, max_mode)
    b = rng.uniform(-1.0, 1.0, max_mode)
    c0 = float(rng.uniform(-1.0, 1.0))
    return a, b, c0


def value_and_derivative(name, params, x):
    """(u(x), u'(x)) for a catalog function at the nodes x."""
    x = np.asarray(x, dtype=float)
    if name == "gaussian":
        t = (x - params["x0"]) / params["w"]
        v = np.exp(-t * t)
        return v, -2.0 * t / params["w"] * v
    if name == "modulated_sine":
        s = x + PI
        e = np.exp(params["a"] * s)
        bs = params["b"] * s
        return e * np.sin(bs), e * (params["a"] * np.sin(bs) + params["b"] * np.cos(bs))
    if name == "log_fn":
        s = x + PI + 0.5
        return np.log(s), 1.0 / s
    if name == "monomial":
        m = params["m"]
        return x ** m, m * x ** (m - 1)
    if name == "leakage_demo":
        k1, k2, a1, a2 = (params[key] for key in ("k1", "k2", "a1", "a2"))
        return (a1 * np.sin(k1 * x) + a2 * np.sin(k2 * x),
                a1 * k1 * np.cos(k1 * x) + a2 * k2 * np.cos(k2 * x))
    if name == "multimode":
        ks = multimode_wavenumbers(params["n_modes"])[:, None]
        kx = ks * x
        return (np.sum(np.sin(kx) + np.cos(kx), axis=0),
                np.sum(ks * (np.cos(kx) - np.sin(kx)), axis=0))
    if name == "trig_poly":
        a, b, c0 = trig_poly_coefficients(params["seed"], params["max_mode"])
        ks = np.arange(1, params["max_mode"] + 1, dtype=float)[:, None]
        kx = ks * x
        return (c0 + a @ np.sin(kx) + b @ np.cos(kx),
                (a[:, None] * ks * np.cos(kx) - b[:, None] * ks * np.sin(kx)).sum(axis=0))
    raise KeyError(f"no closed form for {name!r}")


def fft_derivative_error(name, params, a, b, N):
    """max |FFT derivative - exact| on the uniform grid: the plain-FFT column.

    A separate, direct numpy implementation used to check the harness's fft
    row, its sampling, its reference and its norm, all at once.
    """
    x = a + (b - a) / N * np.arange(N + 1)
    u, du = value_and_derivative(name, params, x)
    k = np.fft.fftfreq(N, d=1.0 / N)
    mult = 1j * k
    if N % 2 == 0:
        mult[N // 2] = 0.0
    d = np.fft.ifft(np.fft.fft(u[:N]) * mult).real * (2.0 * PI / (b - a))
    d = np.append(d, d[0])
    return float(np.max(np.abs(d - du)))
