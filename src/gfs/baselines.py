"""Competitor differentiation methods: plain FFT, Roache polynomial
periodization, Bernoulli-polynomial (Eckhoff) reconstruction, and Prony
exponential fitting.

All methods work on the standard interval [-pi, pi]; other grids are
handled through the affine map (jumps rescaled per derivative order, chain
factor applied to the output).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

import numpy as np

from gfs.grid import SampledSignal, derivative_signal, integer_arg, standard_chain_factor
from gfs.jumps import GridTooSmall, JumpData, to_standard_jumps
from gfs.linalg import polynomial_roots, solve_least_squares, vandermonde_matrix
from gfs.spectral import spectral_derivative_periodic

PI = math.pi
TWO_PI = 2.0 * math.pi

BERNOULLI_MAX_ORDER = 32


class IllConditioned(ArithmeticError):
    """A fit became numerically meaningless (expected for Prony at large M)."""


def fft_derivative(u: SampledSignal, order=1):
    """Raw FFT spectral derivative; Gibbs oscillations for non-periodic input."""
    dp = spectral_derivative_periodic(u.values, order)
    factor = standard_chain_factor(u.grid) ** order
    return derivative_signal(u.grid, dp * factor)


# ---------------------------------------------------------------------------
# Bernoulli polynomials and the Eckhoff singular basis


def _bernoulli_numbers(n_max):
    # B_0 .. B_{n_max} via the standard recurrence, exact rationals.
    B = [Fraction(1)]
    for m in range(1, n_max + 1):
        s = sum(Fraction(comb(m + 1, k)) * B[k] for k in range(m))
        B.append(-s / (m + 1))
    return B


@functools.cache
def bernoulli_coefficients(m):
    """Ascending coefficients of the Bernoulli polynomial B_m(x)."""
    if not 1 <= m <= BERNOULLI_MAX_ORDER + 1:
        raise ValueError(f"order {m} outside 1..{BERNOULLI_MAX_ORDER + 1}")
    nums = _bernoulli_numbers(m)
    # B_m(x) = sum_k C(m, k) B_k x^(m-k) -> ascending power j = m-k
    return tuple(float(Fraction(comb(m, m - j)) * nums[m - j]) for j in range(m + 1))


def bernoulli_polynomial(m, x):
    """B_m(x), typically evaluated for x in [0, 1]; x may be an array."""
    coeffs = bernoulli_coefficients(m)
    return np.polyval(coeffs[::-1], x)


def _horner_rows(table, x):
    """Each column of ``table`` (descending coefficients) at the vector ``x``, as rows.

    One in-place Horner pass for all columns, with ``np.polyval``'s steps
    y = y * x + c from y = 0. Through a column's zero padding at the top y
    stays an exact 0, so each row has the bits of ``np.polyval`` on its
    unpadded column.
    """
    y = np.zeros((table.shape[1], x.size))
    for row in table:
        y *= x
        y += row[:, None]
    return y


def _seam_fraction(x):
    """xi / 2 pi for xi = mod(x + pi, 2 pi), with xi = 2 pi at the right end of the period."""
    xi = np.fmod(x + PI, TWO_PI)
    xi = np.where(xi < 0.0, xi + TWO_PI, xi)
    xi = np.where((xi == 0.0) & (x > -PI), TWO_PI, xi)
    return xi / TWO_PI


def _eckhoff_bases(q, t):
    """V_0..V_{q-1} at the seam fractions ``t`` (a vector), as rows of a (q, t.size) array.

    One Horner pass over the coefficients of B_1..B_q, each zero-padded at
    the top to degree q; row m is B_{m+1} times -(2 pi)^m / (m+1)!.
    """
    table = np.zeros((q + 1, q))
    for m in range(q):
        table[q - m - 1:, m] = bernoulli_coefficients(m + 1)[::-1]
    V = _horner_rows(table, t)
    V *= np.array([-(TWO_PI ** m) / factorial(m + 1) for m in range(q)])[:, None]
    return V


def eckhoff_V(m, x):
    """Periodic singular basis V_m(x) built from B_{m+1}; x may be an array.

    V_m(x) = -(2 pi)^m / (m+1)! * B_{m+1}(xi / 2 pi) with
    xi = mod(x + pi, 2 pi). The seam sits at x = -pi: evaluation at the
    right end of the period uses xi = 2 pi (interior limit), so both
    endpoint nodes of [-pi, pi] get their one-sided values.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    V = _eckhoff_bases(m + 1, np.ravel(_seam_fraction(x)))
    return V[m].reshape(np.shape(x))[()]


def eckhoff_singular(jumps: JumpData, x):
    """(s(x), s'(x)) for s = sum_m A^m V_m with A^m = -J_m; x may be an array.

    s' uses d/dx V_m = V_{m-1}, and V_0' is the constant -1/(2 pi). Both
    sums add the orders one at a time, left to right, s starting from
    Python's 0 (which turns a -0.0 into +0.0): summing the bases as one
    combined polynomial in the seam fraction loses accuracy at high q.
    """
    shape = np.shape(x)
    V = _eckhoff_bases(jumps.q, np.ravel(_seam_fraction(x)))
    A = -jumps.J[:, None]
    s = sum(A * V)
    s_deriv = sum(A[1:] * V[:-1], np.full(V.shape[1], -jumps.J[0] * (-1.0 / TWO_PI)))
    return s.reshape(shape)[()], s_deriv.reshape(shape)[()]


def eckhoff_derivative(u: SampledSignal, jumps: JumpData):
    """Derivative via Bernoulli-polynomial jump subtraction plus FFT.

    The singular part carries all endpoint jumps up to order q-1; the
    remainder is differentiated spectrally and the singular derivative is
    added back analytically. The singular part and its derivative are
    evaluated on all nodes at once.
    """
    grid = u.grid
    sj = to_standard_jumps(jumps, grid)
    s, s_deriv = eckhoff_singular(sj, grid.standard_nodes())
    smooth_deriv = spectral_derivative_periodic(u.values - s, 1)
    return derivative_signal(grid, (smooth_deriv + s_deriv) * standard_chain_factor(grid))


# ---------------------------------------------------------------------------
# Roache polynomial periodization


def roache_coefficients(jumps: JumpData, q):
    """Coefficients a_0..a_q of the jump-matching polynomial g(x).

    Descending recursion: the top coefficient comes from J_{q-1} alone,
    then each a_k absorbs the contribution of the higher terms to the
    (k-1)-th jump. a_0 is free and set to zero. The recursion runs on
    Python floats; an integer factorial converts to float with numpy's
    rounding, so the bits are those of the same recursion on numpy scalars.
    """
    q = integer_arg(q, "q", 1)
    if jumps.q < q:
        raise ValueError(f"need {q} jumps, have {jumps.q}")
    J = jumps.J.tolist()
    fact = [factorial(j) for j in range(q + 2)]
    span = [PI ** j - (-PI) ** j for j in range(q + 2)]
    a = [0.0] * (q + 1)
    a[q] = J[q - 1] / (TWO_PI * fact[q])
    for k in range(q - 1, 0, -1):
        acc = 0.0
        for m in range(k + 1, q + 1):
            acc += a[m] * fact[m] / (fact[k] * fact[m - k + 1]) * span[m - k + 1]
        a[k] = (J[k - 1] / fact[k] - acc) / TWO_PI
    return np.array(a)


def polynomial_jump(coeffs, m):
    """g^(m)(pi) - g^(m)(-pi) for g given by ascending coefficients."""
    total = 0.0
    for k in range(m, len(coeffs)):
        span = PI ** (k - m) - (-PI) ** (k - m)
        total += coeffs[k] * factorial(k) / factorial(k - m) * span
    return total


def roache_derivative(u: SampledSignal, jumps: JumpData, q):
    """Derivative via polynomial reduction-to-periodicity plus FFT."""
    grid = u.grid
    sj = to_standard_jumps(jumps, grid)
    a = roache_coefficients(sj, q)
    xs = grid.standard_nodes()
    # g and g' = sum k a_k x^(k-1) as the two columns of one Horner pass
    table = np.zeros((q + 1, 2))
    table[:, 0] = a[::-1]
    table[1:, 1] = (a[1:] * np.arange(1, q + 1))[::-1]
    g, g_deriv = _horner_rows(table, xs)
    smooth_deriv = spectral_derivative_periodic(u.values - g, 1)
    return derivative_signal(grid, (smooth_deriv + g_deriv) * standard_chain_factor(grid))


# ---------------------------------------------------------------------------
# Prony exponential fitting


# A mode contributing more than this factor above the data scale anywhere
# in the domain is numerical garbage, not signal: huge growth rates paired
# with tiny amplitudes arise from rounding noise in the Hankel solve and
# swamp the evaluation with cancellation error.
PRONY_GROWTH_LIMIT = 1e6


@dataclass(frozen=True)
class PronyFit:
    """Exponential-sum model h(x) ~ sum_j c_j exp(phi_j (x - x0))."""

    c: np.ndarray
    phi: np.ndarray
    dx: float
    x0: float


def prony_fit(u: SampledSignal, M):
    """Fit an M-term exponential sum to the first 2M samples.

    Solves the real Hankel system for the real Prony polynomial, roots it
    for the nodes z_j (non-real ones in exact conjugate pairs), takes
    principal logs for the exponents, and solves the Vandermonde system for
    the amplitudes. Raises IllConditioned when the numbers stop meaning
    anything, which is the expected outcome for large M on smooth data.
    """
    M = integer_arg(M, "M", 1)
    h = u.values
    if h.size < 2 * M:
        raise GridTooSmall(f"need {2 * M} samples, have {h.size}")
    h = h[:2 * M]
    dx = u.grid.dx

    H = np.lib.stride_tricks.sliding_window_view(h[:2 * M - 1], M)
    rhs = -h[M:2 * M]
    # Direct solve, not a truncated pseudoinverse: the Hankel is routinely
    # near-singular on smooth data yet the unregularized solution still
    # carries the recoverable modes; truncation destroys them.
    try:
        p = np.linalg.solve(H, rhs)
    except np.linalg.LinAlgError:
        p, _ = solve_least_squares(H, rhs)
    if not np.all(np.isfinite(p)):
        raise IllConditioned("Prony polynomial coefficients are non-finite")

    coeffs = np.concatenate([p, [1.0]])  # ascending: p_0 .. p_{M-1}, p_M = 1
    try:
        z = polynomial_roots(coeffs)
    except ArithmeticError as exc:
        raise IllConditioned(f"Prony polynomial rooting failed: {exc}") from exc
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = np.log(z) / dx
    if not np.all(np.isfinite(phi)):
        raise IllConditioned("Prony exponents are non-finite")

    V = vandermonde_matrix(z)
    c = np.linalg.lstsq(V, h[:M].astype(complex), rcond=None)[0]
    if not np.all(np.isfinite(c)):
        raise IllConditioned("Prony amplitudes are non-finite")

    fit = PronyFit(c=c, phi=phi, dx=dx, x0=float(u.grid.a))
    _check_prony_growth(fit, u.grid.length, h)
    return fit


def _check_prony_growth(fit, length, h):
    """Reject fits whose modes dwarf the data anywhere in the domain."""
    scale = max(1.0, float(np.max(np.abs(h))))
    with np.errstate(over="ignore"):
        peak = np.abs(fit.c) * np.exp(np.maximum(fit.phi.real, 0.0) * length)
    worst = float(np.max(peak))
    if not math.isfinite(worst) or worst > PRONY_GROWTH_LIMIT * scale:
        raise IllConditioned(
            f"Prony mode amplification {worst:.2e} exceeds the data scale")


def prony_evaluate(fit: PronyFit, x, order=0):
    """Re[sum c_j phi_j^order exp(phi_j (x - x0))] for an integer order >= 0."""
    order = integer_arg(order, "order", 0)
    e = np.exp(np.outer(fit.phi, np.atleast_1d(x) - fit.x0))
    vals = ((fit.c * fit.phi ** order) @ e).real
    return float(vals[0]) if np.ndim(x) == 0 else vals
