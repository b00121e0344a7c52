"""Uniform grids on [a, b], sampled signals, and discrete L^p error norms."""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from gfs.functions import TestFunction

# Arrays that depend on N alone are kept for this many N, more than a process uses at once.
PER_N_CACHE = 8


def integer_arg(value, name, minimum=None):
    """``value`` as an int; ValueError naming ``name`` unless it is an integer (>= minimum, if given)."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


class BadSample(ValueError):
    """A test function produced a non-finite value at some grid node."""

    def __init__(self, message, node_index):
        super().__init__(message)
        self.node_index = node_index


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid with N intervals and N+1 nodes including both endpoints."""

    a: float
    b: float
    N: int

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError(f"require finite a and b, got [{self.a}, {self.b}]")
        if self.b <= self.a:
            raise ValueError("require b > a")
        object.__setattr__(self, "N", integer_arg(self.N, "N", 8))

    @property
    def dx(self):
        return (self.b - self.a) / self.N

    def nodes(self):
        return self.a + self.dx * np.arange(self.N + 1)

    @property
    def standard_step(self):
        """Spacing 2*pi/N of the standard nodes."""
        return 2.0 * math.pi / self.N

    def standard_nodes(self):
        """A fresh, writable copy of the read-only ``standard_nodes(N)`` that decompositions share."""
        return standard_nodes(self.N).copy()

    @property
    def length(self):
        return self.b - self.a


@dataclass(frozen=True)
class SampledSignal:
    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != (self.grid.N + 1,):
            raise ValueError(
                f"expected {self.grid.N + 1} values, got {values.shape}")
        if not np.all(np.isfinite(values)):
            idx = int(np.flatnonzero(~np.isfinite(values))[0])
            raise BadSample(f"non-finite sample at node {idx}", idx)


class NonFiniteDerivative(ArithmeticError):
    """A derivative overflowed or came out NaN at some grid node."""


def derivative_signal(grid, values):
    """Derivative values on ``grid`` as a signal; a non-finite one raises ``NonFiniteDerivative``."""
    try:
        return SampledSignal(grid, values)
    except BadSample as exc:
        raise NonFiniteDerivative(f"non-finite derivative at node {exc.node_index}") from None


@functools.lru_cache(maxsize=PER_N_CACHE)
def standard_nodes(N):
    """The N+1 nodes of [-pi, pi], -pi + (2*pi/N) j with node N at pi exactly: one read-only array per N."""
    x = np.arange(N + 1, dtype=float)
    x *= 2.0 * math.pi / N
    x -= math.pi
    x[-1] = math.pi
    x.flags.writeable = False
    return x


def make_grid(a, b, N):
    return GridSpec(float(a), float(b), N)


def to_standard_interval(x, grid):
    """Affine map of scattered points of [a, b] onto [-pi, pi].

    The grid's own nodes on [-pi, pi] are ``grid.standard_nodes()``.

    Derivatives transform with the chain factor 2*pi/(b-a), applied by
    callers when converting derivative values back to the original interval.
    """
    x0 = 0.5 * (grid.a + grid.b)
    return 2.0 * math.pi * (np.asarray(x, dtype=float) - x0) / grid.length


def standard_chain_factor(grid):
    """d(x*)/dx for the map of [a, b] onto [-pi, pi]."""
    return 2.0 * math.pi / grid.length


def sample(f, grid):
    """Sample a catalog function or plain callable at all N+1 grid nodes.

    A catalog function takes all nodes in one array call; a plain callable
    is called once per node.
    """
    if isinstance(f, TestFunction):
        values = f.value(grid.nodes())
    else:
        values = np.asarray([f(x) for x in grid.nodes()], dtype=float)
    return SampledSignal(grid, values)


def lp_error_norm(e, p, dx):
    """Discrete norm: max|e_i| for p=inf, (dx * sum|e_i|^p)^(1/p) otherwise."""
    e = np.asarray(e, dtype=float).ravel()
    if e.size == 0:
        raise ValueError("empty error vector")
    if p == math.inf:
        return float(np.max(np.abs(e)))
    if p <= 0:
        raise ValueError("p must be positive or inf")
    return float((dx * np.sum(np.abs(e) ** p)) ** (1.0 / p))
