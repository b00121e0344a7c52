"""Catalog of benchmark functions on [-pi, pi] with exact high-order derivatives.

Each entry supplies value(x), derivative(x, m) for m up to DERIVATIVE_ORDER_MAX,
and the endpoint jump J_m = u^(m)(pi) - u^(m)(-pi) in closed form. Closed
forms matter: jump orders up to 4n-1 = 23 appear in the experiments and a
symbolic or finite-difference fallback would dominate the error budget.

``value`` takes a float and returns a Python float, or takes a float64
array of nodes and returns a float64 array of the same shape whose every
element has the bits of the scalar call at that node; ``grid.sample`` makes
one such call per grid. Arithmetic and np.sin/np.cos give the scalar bits
on arrays. exp, log and powers go node by node through the libm scalars
(``_exp``, ``_log``, ``_pow``): numpy's array exp, log and power round
differently in the last bit at some nodes, and a fit that cancels can turn
on that bit. ``derivative`` stays scalar: it runs inside the timed jump
computation (``jumps_from_analytic``), where a per-call array dispatch
would cost time.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

PI = math.pi

# Highest derivative order the catalog guarantees exactly.
DERIVATIVE_ORDER_MAX = 31


# math.exp, math.log and math.pow applied node by node (object arrays out);
# _nodewise turns the result back into float64.
_exp = np.frompyfunc(math.exp, 1, 1)
_log = np.frompyfunc(math.log, 1, 1)
_pow = np.frompyfunc(math.pow, 2, 1)

# Nodes per formula call: keeps the (nodes, modes) temporaries and the
# object arrays near 100 kB whatever the grid size.
NODE_BLOCK = 4096


def _nodewise(formula):
    """value(x) from an array formula: a Python float for a scalar x, else float64."""

    def value(x):
        if np.ndim(x) == 0:
            return float(formula(x))
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape)
        flat_x, flat_out = x.reshape(-1), out.reshape(-1)
        for i in range(0, flat_x.size, NODE_BLOCK):
            flat_out[i:i + NODE_BLOCK] = formula(flat_x[i:i + NODE_BLOCK])
        return out

    return value


@dataclass(frozen=True)
class TestFunction:
    name: str
    params: dict
    value: Callable[[float | np.ndarray], float | np.ndarray]  # per-node bits
    derivative: Callable[[float, int], float]  # scalar only

    def analytic_jump(self, order):
        """J_m = u^(m)(pi) - u^(m)(-pi)."""
        return self.derivative(PI, order) - self.derivative(-PI, order)


def _sin_shifted(k, x, order):
    """d^m/dx^m sin(k x) = k^m sin(k x + m pi/2), valid for complex k too."""
    return k ** order * np.sin(k * x + order * PI / 2.0)


def _cos_shifted(k, x, order):
    return k ** order * np.cos(k * x + order * PI / 2.0)


def modulated_sine(a=-1.0 / PI, b=0.75):
    """u = exp(a(x+pi)) sin(b(x+pi)); derivatives via Im[(a+ib)^m e^{(a+ib)(x+pi)}]."""
    c = complex(a, b)

    def deriv(x, order):
        return (c ** order * np.exp(c * (x + PI))).imag

    return TestFunction(
        name="modulated_sine",
        params={"a": a, "b": b},
        value=_nodewise(lambda x: _exp(a * (x + PI)) * np.sin(b * (x + PI))),
        derivative=deriv,
    )


@functools.cache
def _hermite_coeffs(order):
    # Physicists' Hermite polynomial coefficients, ascending powers; a tuple,
    # so the cached value cannot be changed by a caller.
    h0 = [1.0]
    if order == 0:
        return tuple(h0)
    h1 = [0.0, 2.0]
    for m in range(1, order):
        # H_{m+1}(t) = 2 t H_m(t) - 2 m H_{m-1}(t)
        nxt = [0.0] * (m + 2)
        for i, c in enumerate(h1):
            nxt[i + 1] += 2.0 * c
        for i, c in enumerate(h0):
            nxt[i] -= 2.0 * m * c
        h0, h1 = h1, nxt
    return tuple(h1)


def gaussian(x0=3.0 * PI / 4.0, w=1.0):
    """u = exp(-((x-x0)/w)^2); derivatives via the Hermite recurrence."""

    def deriv(x, order):
        t = (x - x0) / w
        h = _hermite_coeffs(order)
        ht = sum(c * t ** i for i, c in enumerate(h))
        return (-1.0 / w) ** order * ht * math.exp(-t * t)

    return TestFunction(
        name="gaussian",
        params={"x0": x0, "w": w},
        value=_nodewise(lambda x: _exp(-_pow((x - x0) / w, 2))),
        derivative=deriv,
    )


def log_fn():
    """u = log(x + pi + 1/2); m-th derivative (-1)^(m-1) (m-1)! / (x+pi+1/2)^m."""

    def deriv(x, order):
        if order == 0:
            return math.log(x + PI + 0.5)
        return (-1.0) ** (order - 1) * math.factorial(order - 1) / (x + PI + 0.5) ** order

    return TestFunction(
        name="log_fn",
        params={},
        value=_nodewise(lambda x: _log(x + PI + 0.5)),
        derivative=deriv,
    )


def multimode_wavenumbers(n_modes):
    j = np.arange(n_modes, dtype=float)
    delta = 1.0 / n_modes + (j / n_modes) * (n_modes - 2.0) / (n_modes - 1.0)
    return j + delta


def multimode(n_modes=30):
    """Sum of sin(k_j x) + cos(k_j x) over non-integer wavenumbers k_j."""
    n_modes = int(n_modes)
    if n_modes < 2:
        raise ValueError(f"multimode needs n_modes >= 2, got {n_modes}")
    ks = multimode_wavenumbers(n_modes)

    def deriv(x, order):
        return float(np.sum(_sin_shifted(ks, x, order) + _cos_shifted(ks, x, order)))

    def value(x):
        # One row of k_j x per node, summed along the row as np.sum sums ks * x.
        kx = np.multiply.outer(x, ks)
        return np.sum(np.sin(kx) + np.cos(kx), axis=-1)

    return TestFunction(
        name="multimode",
        params={"n_modes": n_modes},
        value=_nodewise(value),
        derivative=deriv,
    )


def monomial(m=1):
    """u = x^m."""
    m = int(m)
    if m < 0:
        raise ValueError(f"monomial needs m >= 0, got {m}")

    def deriv(x, order):
        if order > m:
            return 0.0
        return math.factorial(m) / math.factorial(m - order) * x ** (m - order)

    return TestFunction(
        name="monomial",
        params={"m": m},
        value=_nodewise(lambda x: _pow(x, m)),
        derivative=deriv,
    )


def leakage_demo(k1=5.3, k2=12.4, a1=0.7, a2=1.0):
    """u = a1 sin(k1 x) + a2 sin(k2 x) with non-integer wavenumbers."""

    def deriv(x, order):
        return float(a1 * _sin_shifted(k1, x, order) + a2 * _sin_shifted(k2, x, order))

    return TestFunction(
        name="leakage_demo",
        params={"k1": k1, "k2": k2, "a1": a1, "a2": a2},
        value=_nodewise(lambda x: a1 * np.sin(k1 * x) + a2 * np.sin(k2 * x)),
        derivative=deriv,
    )


def trig_poly(seed=0, max_mode=5):
    """Random integer-mode trigonometric polynomial; periodic by construction."""
    rng = np.random.default_rng(int(seed))
    modes = np.arange(1, int(max_mode) + 1, dtype=float)
    a = rng.uniform(-1.0, 1.0, modes.size)
    b = rng.uniform(-1.0, 1.0, modes.size)
    c0 = float(rng.uniform(-1.0, 1.0))

    def value(x):
        mx = np.multiply.outer(x, modes)
        return c0 + np.sum(a * np.sin(mx) + b * np.cos(mx), axis=-1)

    def deriv(x, order):
        if order == 0:
            return c0 + float(np.sum(a * np.sin(modes * x) + b * np.cos(modes * x)))
        return float(np.sum(a * _sin_shifted(modes, x, order)
                            + b * _cos_shifted(modes, x, order)))

    return TestFunction(
        name="trig_poly",
        params={"seed": int(seed), "max_mode": int(max_mode)},
        value=_nodewise(value),
        derivative=deriv,
    )


FUNCTION_CATALOG = {
    "modulated_sine": modulated_sine,
    "gaussian": gaussian,
    "log_fn": log_fn,
    "multimode": multimode,
    "monomial": monomial,
    "leakage_demo": leakage_demo,
    "trig_poly": trig_poly,
}


def get_function(name, **params):
    """Look up a catalog function by name with keyword parameter overrides."""
    try:
        factory = FUNCTION_CATALOG[name]
    except KeyError:
        raise KeyError(f"unknown test function {name!r}; "
                       f"choices: {sorted(FUNCTION_CATALOG)}") from None
    known = inspect.signature(factory).parameters
    unknown = sorted(set(params) - set(known))
    if unknown:
        raise ValueError(f"unknown parameters {unknown} for {name!r}; "
                         f"choices: {sorted(known)}")
    return factory(**params)
