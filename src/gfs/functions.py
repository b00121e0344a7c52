"""Catalog of benchmark functions on [-pi, pi] with exact high-order derivatives.

Each entry is one closed form, ``formula(x, orders)``: u^(m)(x) for each m in
the tuple ``orders``, order on the leading axis, at a float x or a float64
array of nodes. Closed forms matter: jump orders up to 4n-1 = 23 appear in
the experiments and a symbolic or finite-difference fallback would dominate
the error budget. ``derivative(x, m)`` gives a Python float for a float x and
float64 of x's shape for an array (``grid.sample`` makes one such call per
grid); ``derivatives(x, q)`` gives the orders 0..q-1 at one float x from one
formula call (the analytic jumps read it at x = +-pi).

Row m of a formula call does not depend on the other orders asked for, and
every sample and every array derivative, except modulated_sine's at m >= 1 (a
complex product, within an ulp), has the bits of the scalar call at its node,
so J_0 is the difference of the end samples of a [-pi, pi] grid. A formula
runs one arithmetic on a float and on an array: numpy's exp, log, sin and cos
give a float the bits they give an array node. monomial's power alone goes
node by node through math.pow (``_libm_pow``): numpy's array power rounds
differently in the last bit at some nodes, and the cancelling cubic fit of
fd_jumps seed 1, case 67 misses its tolerance on that bit.
"""

from __future__ import annotations

import inspect
import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

PI = math.pi

# Highest derivative order the catalog guarantees exactly.
DERIVATIVE_ORDER_MAX = 31

_pow_nodes = np.frompyfunc(math.pow, 2, 1)


# monomial's x ** y through math.pow, node by node on an array (an object
# array): numpy's power fails fd_jumps seed 1, case 67, a cancelling cubic fit.
def _libm_pow(x, y):
    return _pow_nodes(x, y) if isinstance(x, np.ndarray) else math.pow(x, y)


def _integer_param(value, function, name):
    """An int, numpy int or integral float (``--param m=3.0`` parses to 3.0)
    as an int; ValueError naming the parameter for any other value."""
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{function} needs an integer {name}, got {value!r}") from None


# Nodes per formula call: keeps the (nodes, modes) temporaries and the
# object arrays near 100 kB whatever the grid size.
NODE_BLOCK = 4096


@dataclass(frozen=True)
class TestFunction:
    name: str
    params: dict
    # u^(m)(x) for each m in a tuple of orders, order on the leading axis
    formula: Callable[[float | np.ndarray, tuple], np.ndarray]

    def derivative(self, x, order):
        """u^(order)(x): a Python float for a scalar x, else float64 of x's
        shape, computed in blocks of NODE_BLOCK nodes."""
        if not isinstance(x, np.ndarray):
            return float(self.formula(x, (order,))[0])
        out = np.empty(x.shape)
        flat_x, flat_out = x.reshape(-1), out.reshape(-1)
        for i in range(0, flat_x.size, NODE_BLOCK):
            flat_out[i:i + NODE_BLOCK] = self.formula(flat_x[i:i + NODE_BLOCK], (order,))[0]
        return out

    def value(self, x):
        """u(x): derivative of order 0."""
        return self.derivative(x, 0)

    def derivatives(self, x, q):
        """u^(m)(x) for m = 0..q-1 at one float x, a float64 array.

        Entry m has the bits of ``derivative(x, m)``.
        """
        return self.formula(x, tuple(range(q)))

    def analytic_jump(self, order):
        """J_m = u^(m)(pi) - u^(m)(-pi)."""
        return self.derivative(PI, order) - self.derivative(-PI, order)


def _shifted(k, kx, orders):
    """k^m and the phase k x + m pi/2 for each m in orders, order on the
    leading axis, given kx = k x: d^m/dx^m sin(k x) is k^m sin(phase), and
    likewise for cos. k is a scalar or an array of wavenumbers; the powers
    get a length-1 axis for each axis of x.

    k ** m is taken one order at a time, as numpy's power with an array of
    exponents rounds differently: an array k with a float m (the int m's
    bits, less dispatch), a scalar k with the int m (an int k stays exact).
    Halving is exact, so m (pi/2) has the bits of m pi / 2.
    """
    if isinstance(k, np.ndarray):
        powers = np.array([k ** float(m) for m in orders])
    else:
        powers = np.array([k ** m for m in orders], dtype=float)
    phase = np.add.outer(np.multiply(orders, PI / 2.0), kx)
    if phase.ndim > powers.ndim:
        x_axes = (1,) * (phase.ndim - powers.ndim)
        powers = powers.reshape(powers.shape[:1] + x_axes + powers.shape[1:])
    return powers, phase


def modulated_sine(a=-1.0 / PI, b=0.75):
    """u = exp(a(x+pi)) sin(b(x+pi)); derivatives via Im[(a+ib)^m e^{(a+ib)(x+pi)}]."""
    c = complex(a, b)

    def formula(x, orders):
        e = np.exp(c * (x + PI))
        return np.array([(c ** m * e).imag for m in orders], dtype=float)

    return TestFunction(name="modulated_sine", params={"a": a, "b": b}, formula=formula)


def gaussian(x0=3.0 * PI / 4.0, w=1.0):
    """u = exp(-t^2), t = (x-x0)/w; u^(m) = (-1/w)^m H_m(t) exp(-t^2), with the
    physicists' Hermite values from H_{m+1} = 2t H_m - 2m H_{m-1}."""
    if w == 0:
        raise ValueError(f"gaussian needs w != 0, got {w}")

    def formula(x, orders):
        t = (x - x0) / w
        top = max(orders, default=0)
        h = [1.0, 2.0 * t] if top else [1.0]
        for m in range(1, top):
            h.append(2.0 * t * h[m] - 2.0 * m * h[m - 1])
        e = np.exp(-(t * t))
        return np.array([(-1.0 / w) ** m * h[m] * e for m in orders], dtype=float)

    return TestFunction(name="gaussian", params={"x0": x0, "w": w}, formula=formula)


def log_fn():
    """u = log(y), y = x + pi + 1/2 > 0; u' = 1/y and u^(m) = -(m-1) u^(m-1) / y."""

    def formula(x, orders):
        y = x + PI + 0.5
        if np.any(y <= 0.0):
            raise ValueError(f"log_fn needs x > -pi - 1/2, got x = {np.min(x)}")
        top = max(orders, default=0)
        d = [np.log(y), 1.0 / y] if top else [np.log(y)]
        for m in range(2, top + 1):
            d.append(-(m - 1) * d[m - 1] / y)
        return np.array([d[m] for m in orders], dtype=float)

    return TestFunction(name="log_fn", params={}, formula=formula)


def multimode_wavenumbers(n_modes):
    j = np.arange(n_modes, dtype=float)
    delta = 1.0 / n_modes + (j / n_modes) * (n_modes - 2.0) / (n_modes - 1.0)
    return j + delta


def multimode(n_modes=30):
    """Sum of sin(k_j x) + cos(k_j x) over non-integer wavenumbers k_j."""
    n_modes = _integer_param(n_modes, "multimode", "n_modes")
    if n_modes < 2:
        raise ValueError(f"multimode needs n_modes >= 2, got {n_modes}")
    ks = multimode_wavenumbers(n_modes)

    def formula(x, orders):
        # One row of k_j x per node, summed along the row as np.sum sums ks * x.
        powers, phase = _shifted(ks, np.multiply.outer(x, ks), orders)
        return np.sum(powers * np.sin(phase) + powers * np.cos(phase), axis=-1)

    return TestFunction(name="multimode", params={"n_modes": n_modes}, formula=formula)


def monomial(m=1):
    """u = x^m."""
    m = _integer_param(m, "monomial", "m")
    if m < 0:
        raise ValueError(f"monomial needs m >= 0, got {m}")

    def formula(x, orders):
        zero = np.zeros(x.shape) if isinstance(x, np.ndarray) else 0.0
        return np.array([math.factorial(m) / math.factorial(m - order) * _libm_pow(x, m - order)
                         if order <= m else zero for order in orders], dtype=float)

    return TestFunction(name="monomial", params={"m": m}, formula=formula)


def leakage_demo(k1=5.3, k2=12.4, a1=0.7, a2=1.0):
    """u = a1 sin(k1 x) + a2 sin(k2 x) with non-integer wavenumbers."""

    def formula(x, orders):
        p1, phase1 = _shifted(k1, k1 * x, orders)
        p2, phase2 = _shifted(k2, k2 * x, orders)
        return a1 * (p1 * np.sin(phase1)) + a2 * (p2 * np.sin(phase2))

    return TestFunction(name="leakage_demo", params={"k1": k1, "k2": k2, "a1": a1, "a2": a2},
                        formula=formula)


def trig_poly(seed=0, max_mode=5):
    """Random integer-mode trigonometric polynomial; periodic by construction."""
    seed = _integer_param(seed, "trig_poly", "seed")
    max_mode = _integer_param(max_mode, "trig_poly", "max_mode")
    rng = np.random.default_rng(seed)
    modes = np.arange(1, max_mode + 1, dtype=float)
    a = rng.uniform(-1.0, 1.0, modes.size)
    b = rng.uniform(-1.0, 1.0, modes.size)
    c0 = float(rng.uniform(-1.0, 1.0))

    def formula(x, orders):
        powers, phase = _shifted(modes, np.multiply.outer(x, modes), orders)
        out = np.sum(a * (powers * np.sin(phase)) + b * (powers * np.cos(phase)), axis=-1)
        # order 0 adds c0; its power is 1.0 and its shift +0.0, so its waves are exact
        for i, m in enumerate(orders):
            if m == 0:
                out[i] += c0
        return out

    return TestFunction(name="trig_poly", params={"seed": seed, "max_mode": max_mode},
                        formula=formula)


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
