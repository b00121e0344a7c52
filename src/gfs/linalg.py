"""Dense linear algebra and root-finding primitives.

Everything here operates on small systems (at most ~16x16 for gfs, N/2 for
Prony's companion), so plain LAPACK-backed numpy routines are used
throughout. The pseudoinverse solve mirrors the rank-revealing behavior
needed by the jump Hankel systems, which are legitimately rank-deficient
for simple inputs.
"""

from __future__ import annotations

import numpy as np

# Relative singular-value cutoff per matrix dimension; double-precision
# SVD noise floor for the well-scaled matrices used here.
RANK_TOL_FACTOR = 1e-13

# Two nodes closer than this (relative) make the Vandermonde solve
# meaningless in double precision.
DUPLICATE_NODE_TOL = 1e-8

# Residual bound for polynomial_roots, relative to max coefficient.
ROOT_RESIDUAL_TOL = 1e-8


class DegenerateNodes(ValueError):
    """Raised when Vandermonde nodes coincide within tolerance."""

    def __init__(self, message, n_distinct=None):
        super().__init__(message)
        self.n_distinct = n_distinct


def solve_least_squares(A, b):
    """Minimum-norm least-squares solution of A x = b via SVD.

    Singular values below ``max(rows, cols) * RANK_TOL_FACTOR * sigma_max``
    are treated as zero.

    Returns ``(x, rank)`` where rank is the numerical rank used.
    """
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    b = np.asarray(b, dtype=complex).ravel()
    if A.shape[0] != b.shape[0]:
        raise ValueError(f"dimension mismatch: A is {A.shape}, b has length {b.shape[0]}")

    U, s, Vh = np.linalg.svd(A, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros(A.shape[1], dtype=complex), 0
    keep = s >= max(A.shape) * RANK_TOL_FACTOR * s[0]
    rank = int(np.count_nonzero(keep))
    inv_s = np.zeros(s.size)
    inv_s[keep] = 1.0 / s[keep]
    x = Vh.conj().T @ (inv_s * (U.conj().T @ b))
    return x, rank


def polynomial_roots(coeffs):
    """All roots (with multiplicity) of c_0 + c_1 x + ... + c_n x^n, as complex128.

    The roots of ``numpy.roots`` on the reversed (highest-first)
    coefficients, computed as it does: the i vanishing low-order
    coefficients c_0 .. c_(i-1) give i zero roots after the eigenvalues of
    the companion matrix of the rest. The companion keeps the coefficients'
    type: real coefficients get a real companion, whose non-real roots come
    in exact conjugate pairs, and complex ones a complex companion. Degree-0
    input is rejected.
    """
    c = np.asarray(coeffs).ravel()
    c = c.astype(complex if np.iscomplexobj(c) else float, copy=False)
    if c.size < 2:
        raise ValueError("polynomial degree must be >= 1")
    if c[-1] == 0:
        raise ValueError("leading coefficient must be nonzero")
    p = c[::-1]
    zeros = 0
    while c[zeros] == 0:
        zeros += 1
    d = c.size - zeros - 1
    if d:
        companion = np.zeros((d, d), dtype=c.dtype)
        companion[0] = -p[1:d + 1] / p[0]
        companion.flat[d::d + 1] = 1.0
        # a real companion gives float roots when every root is real
        roots = np.linalg.eigvals(companion).astype(complex, copy=False)
    else:
        roots = np.empty(0, dtype=complex)
    if zeros:
        roots = np.concatenate([roots, np.zeros(zeros, dtype=complex)])
    scale = np.abs(c).max()
    # All roots are checked at once, by numpy.polyval's Horner steps. numpy's
    # array abs and power may round the last bit differently from scalar abs
    # and pow, so a per-root scalar check could only disagree on a residual
    # within an ulp of its bound.
    value = np.zeros(roots.size, dtype=complex)
    for coefficient in p.tolist():
        value = value * roots + coefficient
    residual = np.abs(value)
    bound = ROOT_RESIDUAL_TOL * scale * np.maximum(1.0, np.abs(roots)) ** (c.size - 1)
    bad = residual > bound
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise ArithmeticError(
            f"root {i} residual {residual[i]:.3e} exceeds bound {bound[i]:.3e}")
    return roots


def vandermonde_matrix(nodes):
    """Transposed Vandermonde matrix: row i holds nodes**i."""
    nodes = np.asarray(nodes, dtype=complex).ravel()
    n = nodes.size
    return np.vander(nodes, n, increasing=True).T


def solve_transposed_vandermonde(nodes, rhs):
    """Solve V w = rhs where V[i, j] = nodes[j]**i.

    Signals DegenerateNodes when two nodes coincide within relative 1e-8;
    the caller is expected to shrink the mode count. Falls back to the
    pseudoinverse if the direct solve fails.
    """
    nodes = np.asarray(nodes, dtype=complex).ravel()
    rhs = np.asarray(rhs, dtype=complex).ravel()
    if nodes.size != rhs.size:
        raise ValueError("nodes and rhs must have equal length")
    n_distinct = count_distinct(nodes)
    if n_distinct < nodes.size:
        raise DegenerateNodes(
            f"only {n_distinct} of {nodes.size} nodes are distinct",
            n_distinct=n_distinct)
    V = vandermonde_matrix(nodes)
    try:
        return np.linalg.solve(V, rhs)
    except np.linalg.LinAlgError:
        x, _ = solve_least_squares(V, rhs)
        return x


def count_distinct(values):
    """Number of values left after merging those within DUPLICATE_NODE_TOL (relative)."""
    kept = []
    for v in np.asarray(values, dtype=complex).ravel().tolist():
        if all(abs(v - u) / max(1.0, abs(v)) >= DUPLICATE_NODE_TOL for u in kept):
            kept.append(v)
    return len(kept)


def complex_principal_sqrt(z):
    """Principal complex square root, Re(w) >= 0, of a number or elementwise of an array.

    Branch: sqrt(|z|) * exp(i*theta/2) with theta in [-pi, pi]; values on
    the negative real axis map to +i*sqrt(|z|). A number gives a complex
    scalar, an array a complex array of its shape.
    """
    w = np.sqrt(np.asarray(z, dtype=complex))
    # numpy already returns the principal branch; nudge exact-negative-real
    # results onto the +i axis for deterministic behavior.
    flip = (w.real < 0.0) | ((w.real == 0.0) & (w.imag < 0.0))
    w = np.where(flip, -w, w)
    return w[()] if w.ndim == 0 else w
