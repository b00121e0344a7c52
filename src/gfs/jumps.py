"""One-sided finite-difference stencils and endpoint jump estimation.

Stencil weights are exact Fractions: the moment matrix is a Vandermonde in
the node offsets and hopeless in floating point for widths beyond ~15, while
the exact weights are rationals with small integer structure. Fornberg's
recursion yields the weights of every derivative order for one offset set in
a single pass, cached per offset tuple. ``fd_weights`` is the one exact
boundary-stencil accessor: backward (right boundary) stencils are the
forward ones times (-1)^d. The estimators read read-only float64 copies:
``jump_stencils`` for the boundary pair, ``fd_stencils`` for the central
and off-centre stencils of ``fd_differentiate``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from gfs.grid import SampledSignal, derivative_signal, integer_arg, standard_chain_factor

# Analytic jumps that are exactly zero are replaced by this value so the
# Hankel systems stay formally nonzero; FD-estimated jumps carry their own
# truncation error and are never regularized.
ZERO_JUMP_REGULARIZATION = 1e-15


class GridTooSmall(ValueError):
    pass


class IntervalMismatch(ValueError):
    """Jumps taken at the ends of one interval were given with a grid on another."""


def stencil_weights_at_offsets(d, offsets):
    """Exact weights a_m with sum_m a_m * s_m^n / n! = delta(n, d), n = 0..M.

    ``offsets`` are integer node offsets s_m relative to the evaluation
    point; the approximation is u^(d)(x) ~ dx^-d * sum a_m u(x + s_m dx).
    """
    offsets = tuple(integer_arg(s, "stencil offset") for s in offsets)
    if len(set(offsets)) != len(offsets):
        raise ValueError("stencil offsets must be distinct")
    d = integer_arg(d, "derivative order d", 0)
    if d >= len(offsets):
        raise ValueError(f"derivative order {d} outside 0..{len(offsets) - 1} "
                         f"for stencil width {len(offsets)}")
    return _fornberg_table(offsets)[d]


@functools.cache
def _fornberg_table(offsets):
    """Weights of every order 0..W-1 at 0 for the W nodes ``offsets``.

    Fornberg's recursion (Math. Comp. 51, 1988) over Fractions: adding node
    n updates the weights of nodes 0..n-1 and creates those of node n, for
    all orders at once. Row d of the result is the order-d stencil.
    """
    s = [Fraction(x) for x in offsets]
    W = len(s)
    c = [[Fraction(0)] * W for _ in range(W)]
    c[0][0] = Fraction(1)
    c1 = Fraction(1)
    for n in range(1, W):
        c2 = Fraction(1)
        for j in range(n):
            c3 = s[n] - s[j]
            c2 *= c3
            if j == n - 1:
                for k in range(n, 0, -1):
                    c[k][n] = c1 * (k * c[k - 1][n - 1] - s[n - 1] * c[k][n - 1]) / c2
                c[0][n] = -c1 * s[n - 1] * c[0][n - 1] / c2
            for k in range(n, 0, -1):
                c[k][j] = (s[n] * c[k][j] - k * c[k - 1][j]) / c3
            c[0][j] = s[n] * c[0][j] / c3
        c1 = c2
    return tuple(tuple(row) for row in c)


@functools.cache
def _float_table(offsets):
    """Read-only float64 copy of the exact stencils on ``offsets``, row d order d."""
    return _read_only([[float(w) for w in row] for row in _fornberg_table(offsets)])


def _read_only(rows):
    table = np.array(rows)
    table.flags.writeable = False
    return table


def fd_weights(d, width, side="forward"):
    """Exact one-sided stencil of the given width for the d-th derivative.

    Forward uses offsets 0..width-1 (left boundary); backward uses
    0..-(width-1) (right boundary). Mirroring the offsets multiplies the
    order-d moment conditions by (-1)^d, so the backward row is the forward
    row times (-1)^d and needs no second Fornberg pass. Returns the weights
    as a tuple of Fractions; formal accuracy is width - d.
    """
    d = integer_arg(d, "derivative order d", 0)
    width = integer_arg(width, "stencil width", d + 1)
    if side not in ("forward", "backward"):
        raise ValueError(f"side must be 'forward' or 'backward', got {side!r}")
    row = _fornberg_table(tuple(range(width)))[d]
    return tuple(-w for w in row) if side == "backward" and d % 2 else row


@functools.cache
def jump_stencils(width):
    """Forward and backward float stencil tables of one width, cached.

    Row m of each is the order-m stencil from ``fd_weights``: forward on
    offsets 0..width-1 (left boundary), backward on 0..-(width-1) (right
    boundary). Rounding to the nearest float is symmetric, so row m of the
    backward table is the forward row times (-1)^m. The arrays are read-only.
    """
    width = integer_arg(width, "stencil width", 1)
    return tuple(_read_only([[float(w) for w in fd_weights(d, width, side)] for d in range(width)])
                 for side in ("forward", "backward"))


@dataclass(frozen=True)
class JumpData:
    """Endpoint derivative jumps J_m = u^(m)(b) - u^(m)(a), m = 0..q-1.

    ``interval`` is the (a, b) they were taken on, which ``to_standard_jumps``
    checks against the grid; None (jumps built by hand) is not checked.
    """

    J: np.ndarray
    interval: tuple | None = None

    def __post_init__(self):
        J = np.asarray(self.J, dtype=float)
        object.__setattr__(self, "J", J)
        if J.ndim != 1 or J.size < 1:
            raise ValueError("J must be a nonempty vector")
        if not np.all(np.isfinite(J)):
            raise ValueError("jumps must be finite")

    @property
    def q(self):
        return self.J.size


def jumps_from_analytic(f, q):
    """Exact jumps from the catalog's closed-form derivatives.

    Each endpoint's derivatives of all orders come from one
    ``f.derivatives`` call; the jump is u^(m)(pi) - u^(m)(-pi), as
    ``TestFunction.analytic_jump`` computes it, so the jumps hold on
    [-pi, pi] only and say so in their ``interval``. Zero jumps are replaced by
    1e-15 to keep the downstream Hankel systems formally nonzero. A jump
    also counts as zero when it is pure floating point cancellation between
    two large endpoint derivatives (a periodic function evaluated near the
    seam never cancels exactly in doubles).
    """
    hi = f.derivatives(math.pi, q)
    lo = f.derivatives(-math.pi, q)
    J = hi - lo
    scale = np.maximum(np.abs(lo), np.abs(hi))
    J[(J == 0.0) | (np.abs(J) <= 1e-12 * scale)] = ZERO_JUMP_REGULARIZATION
    return JumpData(J=J, interval=(-math.pi, math.pi))


def estimate_jumps(u: SampledSignal, q, r):
    """FD-estimated jumps from samples, uniform stencil width q-1+r.

    J_0 comes straight from the endpoint samples; derivative orders
    1..q-1 use the forward stencil at the left boundary and the backward
    stencil at the right boundary, each scaled by dx^-m.
    """
    q = integer_arg(q, "q", 1)
    r = integer_arg(r, "r", 1)
    grid = u.grid
    W = q - 1 + r
    if q > 1 and grid.N + 1 < 2 * W:
        raise GridTooSmall(
            f"grid has {grid.N + 1} nodes, need {2 * W} for stencil width {W}")
    J = np.empty(q)
    J[0] = u.values[-1] - u.values[0]
    dx = grid.dx
    if q > 1:
        F, B = jump_stencils(W)
        head = u.values[:W]
        tail = u.values[-1:-W - 1:-1]
        for m in range(1, q):
            left = F[m] @ head / dx ** m
            right = B[m] @ tail / dx ** m
            J[m] = right - left
    return JumpData(J=J, interval=(grid.a, grid.b))


def to_standard_jumps(jumps: JumpData, grid):
    """Rescale jumps to derivatives w.r.t. the standard variable on [-pi, pi].

    The affine map x -> x* multiplies the m-th derivative by
    (2 pi / (b - a))^m, so jumps divide by that factor. Jumps taken on
    another interval than the grid's raise ``IntervalMismatch``.
    """
    if jumps.interval is not None and jumps.interval != (grid.a, grid.b):
        a, b = jumps.interval
        raise IntervalMismatch(f"jumps taken on [{a}, {b}] do not fit a grid on [{grid.a}, {grid.b}]")
    factor = standard_chain_factor(grid)
    if factor == 1.0:
        return jumps
    J = jumps.J / factor ** np.arange(jumps.q)
    return JumpData(J=J)


def fd_differentiate(u: SampledSignal, r=6):
    """First derivative by order-r central stencils, offset near boundaries.

    All stencils have width r+1; node i < r/2 uses the stencil anchored at
    the left boundary (offsets -i..r-i), mirrored on the right, so order r
    holds at every node.
    """
    r = integer_arg(r, "r", 2)
    if r % 2 != 0 or r > 8:
        raise ValueError(f"r must be even and in 2..8, got {r}")
    grid = u.grid
    N = grid.N
    if N + 1 < r + 1:
        raise GridTooSmall(f"grid has {N + 1} nodes, need {r + 1}")
    half = r // 2
    dx = grid.dx
    out = np.empty(N + 1)

    central, sides = fd_stencils(r)
    windows = np.lib.stride_tricks.sliding_window_view(u.values, r + 1)
    out[half:N - half + 1] = windows @ central / dx

    for i, (w_left, w_right) in enumerate(sides):
        out[i] = w_left @ u.values[:r + 1] / dx
        out[N - i] = w_right @ u.values[N - r:] / dx
    return derivative_signal(grid, out)


def fd_stencils(r):
    """The order-r stencils ``fd_differentiate`` reads: central, then (left, right) per boundary node."""
    return (_float_table(tuple(range(-(r // 2), r // 2 + 1)))[1],
            [(_float_table(tuple(range(-i, r + 1 - i)))[1], _float_table(tuple(range(i - r, i + 1)))[1])
             for i in range(r // 2)])
