"""Catalog of benchmark functions on [-pi, pi] with exact high-order derivatives.

Each entry supplies one closed form, derivative(x, m) for m up to
DERIVATIVE_ORDER_MAX; value(x) is derivative(x, 0) and the endpoint jump
J_m = u^(m)(pi) - u^(m)(-pi) is taken from it. Closed forms matter: jump
orders up to 4n-1 = 23 appear in the experiments and a symbolic or
finite-difference fallback would dominate the error budget.

``derivative`` takes a float and returns a Python float, or takes a float64
array of nodes and returns float64 of the same shape; ``grid.sample`` makes
one such call per grid. Samples and scalar derivatives keep per-node bits:
every sample, and every array derivative except modulated_sine's at m >= 1
(a complex product, within an ulp), has the bits of the scalar call at its
node, so J_0 is the difference of the end samples of a [-pi, pi] grid.
Arithmetic and np.sin/np.cos give the scalar bits on arrays. exp, log and
powers go node by node through the libm scalars on arrays (``_exp``,
``_log``, ``_pow``): numpy's array exp, log and power round differently in
the last bit at some nodes, and a fit that cancels can turn on that bit.

``derivatives(x, q)`` gives all orders 0..q-1 at one float x, with the bits
of the q scalar calls; the analytic jumps read it at x = +-pi. multimode,
trig_poly and leakage_demo evaluate their closed form once for all orders
there, order on a leading axis; gaussian and modulated_sine take the parts
shared by all orders once; log_fn and monomial make one scalar call per
order.
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

_exp_nodes = np.frompyfunc(math.exp, 1, 1)
_log_nodes = np.frompyfunc(math.log, 1, 1)
_pow_nodes = np.frompyfunc(math.pow, 2, 1)


# math.exp, math.log and math.pow on a float; applied node by node on an
# array (object array out, which _nodewise turns back into float64).
def _exp(x):
    return _exp_nodes(x) if isinstance(x, np.ndarray) else math.exp(x)


def _log(x):
    return _log_nodes(x) if isinstance(x, np.ndarray) else math.log(x)


def _pow(x, y):
    return _pow_nodes(x, y) if isinstance(x, np.ndarray) else math.pow(x, y)


# Nodes per formula call: keeps the (nodes, modes) temporaries and the
# object arrays near 100 kB whatever the grid size.
NODE_BLOCK = 4096


def _nodewise(formula):
    """derivative(x, order) from one closed form: a Python float for a scalar
    x, else float64 of x's shape, computed in blocks of NODE_BLOCK nodes."""

    def derivative(x, order):
        if not isinstance(x, np.ndarray):
            return float(formula(x, order))
        out = np.empty(x.shape)
        flat_x, flat_out = x.reshape(-1), out.reshape(-1)
        for i in range(0, flat_x.size, NODE_BLOCK):
            flat_out[i:i + NODE_BLOCK] = formula(flat_x[i:i + NODE_BLOCK], order)
        return out

    return derivative


@dataclass(frozen=True)
class TestFunction:
    name: str
    params: dict
    derivative: Callable[[float | np.ndarray, int], float | np.ndarray]
    # The closed form of all orders 0..q-1 at one float x in one pass, where
    # an entry has its own; derivatives() falls back to one call per order.
    all_orders: Callable[[float, int], np.ndarray] | None = None

    def value(self, x):
        """u(x): derivative of order 0."""
        return self.derivative(x, 0)

    def derivatives(self, x, q):
        """u^(m)(x) for m = 0..q-1 at one float x, a float64 array.

        Entry m has the bits of ``derivative(x, m)``.
        """
        if self.all_orders is not None:
            return self.all_orders(x, q)
        return np.array([self.derivative(x, m) for m in range(q)], dtype=float)

    def analytic_jump(self, order):
        """J_m = u^(m)(pi) - u^(m)(-pi)."""
        return self.derivative(PI, order) - self.derivative(-PI, order)


def _sin_shifted(k, kx, order):
    """d^m/dx^m sin(k x) = k^m sin(k x + m pi/2), given kx = k x."""
    return k ** order * np.sin(kx + order * PI / 2.0)


def _cos_shifted(k, kx, order):
    return k ** order * np.cos(kx + order * PI / 2.0)


def _shifted_orders(k, kx, q):
    """_sin_shifted and _cos_shifted of every order 0..q-1, order on the leading axis.

    Row m has the bits of the order-m call: k ** m is taken one order at a
    time, as numpy's power with an array of exponents rounds differently
    (a float64 exponent m gives the bits of the int one, with less dispatch).
    """
    orders = np.arange(q, dtype=float)
    powers = np.empty((q, k.size))
    for m in range(q):
        powers[m] = k ** orders[m]
    phase = kx + (orders * PI / 2.0)[:, np.newaxis]
    return powers * np.sin(phase), powers * np.cos(phase)


def modulated_sine(a=-1.0 / PI, b=0.75):
    """u = exp(a(x+pi)) sin(b(x+pi)); derivatives via Im[(a+ib)^m e^{(a+ib)(x+pi)}]."""
    c = complex(a, b)

    def deriv(x, order):
        return (c ** order * np.exp(c * (x + PI))).imag

    def all_orders(x, q):
        e = np.exp(c * (x + PI))
        return np.array([(c ** m * e).imag for m in range(q)], dtype=float)

    return TestFunction(name="modulated_sine", params={"a": a, "b": b},
                        derivative=_nodewise(deriv), all_orders=all_orders)


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
    if w == 0:
        raise ValueError(f"gaussian needs w != 0, got {w}")

    def deriv(x, order):
        t = (x - x0) / w
        if order == 0:
            return _exp(-_pow(t, 2))
        # On an array, Python's ** node by node (an object array): numpy's
        # array power rounds differently, and the Hermite sum magnifies it.
        ts = t.astype(object) if isinstance(t, np.ndarray) else t
        ht = sum(c * ts ** i for i, c in enumerate(_hermite_coeffs(order)))
        return (-1.0 / w) ** order * ht * _exp(-t * t)

    def all_orders(x, q):
        # deriv's scalar steps, with the powers of t and the exponential
        # taken once for all orders
        t = (x - x0) / w
        powers = [t ** i for i in range(q)]
        e = _exp(-t * t)
        out = [deriv(x, 0)] if q else []
        for m in range(1, q):
            ht = sum(c * powers[i] for i, c in enumerate(_hermite_coeffs(m)))
            out.append((-1.0 / w) ** m * ht * e)
        return np.array(out, dtype=float)

    return TestFunction(name="gaussian", params={"x0": x0, "w": w},
                        derivative=_nodewise(deriv), all_orders=all_orders)


def log_fn():
    """u = log(x + pi + 1/2); m-th derivative (-1)^(m-1) (m-1)! / (x+pi+1/2)^m."""

    def deriv(x, order):
        if order == 0:
            return _log(x + PI + 0.5)
        return (-1.0) ** (order - 1) * math.factorial(order - 1) / _pow(x + PI + 0.5, order)

    return TestFunction(name="log_fn", params={}, derivative=_nodewise(deriv))


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
        # One row of k_j x per node, summed along the row as np.sum sums ks * x.
        kx = np.multiply.outer(x, ks)
        return np.sum(_sin_shifted(ks, kx, order) + _cos_shifted(ks, kx, order), axis=-1)

    def all_orders(x, q):
        sin, cos = _shifted_orders(ks, np.multiply.outer(x, ks), q)
        return np.sum(sin + cos, axis=-1)

    return TestFunction(name="multimode", params={"n_modes": n_modes},
                        derivative=_nodewise(deriv), all_orders=all_orders)


def monomial(m=1):
    """u = x^m."""
    m = int(m)
    if m < 0:
        raise ValueError(f"monomial needs m >= 0, got {m}")

    def deriv(x, order):
        if order > m:
            return 0.0
        return math.factorial(m) / math.factorial(m - order) * _pow(x, m - order)

    return TestFunction(name="monomial", params={"m": m}, derivative=_nodewise(deriv))


def leakage_demo(k1=5.3, k2=12.4, a1=0.7, a2=1.0):
    """u = a1 sin(k1 x) + a2 sin(k2 x) with non-integer wavenumbers."""

    def deriv(x, order):
        return a1 * _sin_shifted(k1, k1 * x, order) + a2 * _sin_shifted(k2, k2 * x, order)

    def all_orders(x, q):
        shift = np.arange(q) * PI / 2.0
        p1 = np.array([k1 ** m for m in range(q)], dtype=float)
        p2 = np.array([k2 ** m for m in range(q)], dtype=float)
        return a1 * (p1 * np.sin(k1 * x + shift)) + a2 * (p2 * np.sin(k2 * x + shift))

    return TestFunction(name="leakage_demo", params={"k1": k1, "k2": k2, "a1": a1, "a2": a2},
                        derivative=_nodewise(deriv), all_orders=all_orders)


def trig_poly(seed=0, max_mode=5):
    """Random integer-mode trigonometric polynomial; periodic by construction."""
    rng = np.random.default_rng(int(seed))
    modes = np.arange(1, int(max_mode) + 1, dtype=float)
    a = rng.uniform(-1.0, 1.0, modes.size)
    b = rng.uniform(-1.0, 1.0, modes.size)
    c0 = float(rng.uniform(-1.0, 1.0))

    def deriv(x, order):
        mx = np.multiply.outer(x, modes)
        if order == 0:
            return c0 + np.sum(a * np.sin(mx) + b * np.cos(mx), axis=-1)
        return np.sum(a * _sin_shifted(modes, mx, order) + b * _cos_shifted(modes, mx, order),
                      axis=-1)

    def all_orders(x, q):
        sin, cos = _shifted_orders(modes, np.multiply.outer(x, modes), q)
        out = np.sum(a * sin + b * cos, axis=-1)
        if q:
            out[0] = deriv(x, 0)  # order 0 adds c0 to unshifted waves
        return out

    return TestFunction(name="trig_poly", params={"seed": int(seed), "max_mode": int(max_mode)},
                        derivative=_nodewise(deriv), all_orders=all_orders)


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
