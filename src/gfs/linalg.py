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
    """Minimum-norm least-squares solution of A x = b via SVD, for a matrix or a stack.

    Singular values below ``max(rows, cols) * RANK_TOL_FACTOR * sigma_max``
    are treated as zero.

    Returns ``(x, rank)`` where rank is the numerical rank used. A stack
    of matrices A (..., m, k) with right-hand sides b (..., m) gives x
    (..., k) and an integer array of ranks, each member as if solved alone.
    """
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    b = np.asarray(b, dtype=complex)
    if A.ndim == 2:
        b = b.ravel()
    if b.shape != A.shape[:-1]:
        raise ValueError(f"dimension mismatch: A is {A.shape}, b has shape {b.shape}")

    U, s, Vh = np.linalg.svd(A, full_matrices=False)
    top = s[..., :1]
    keep = (s >= max(A.shape[-2:]) * RANK_TOL_FACTOR * top) & (top > 0.0)
    rank = keep.sum(axis=-1)
    inv_s = np.divide(1.0, s, out=np.zeros(s.shape), where=keep)
    Uh = U.conj().swapaxes(-1, -2)
    V = Vh.conj().swapaxes(-1, -2)
    x = (V @ (inv_s[..., None] * (Uh @ b[..., None])))[..., 0]
    if np.count_nonzero(rank) < rank.size:
        x[rank == 0] = 0.0
    return (x, int(rank)) if A.ndim == 2 else (x, rank)


def polynomial_roots(coeffs):
    """All roots (with multiplicity) of c_0 + c_1 x + ... + c_n x^n, as complex128.

    The roots of ``numpy.roots`` on the reversed (highest-first)
    coefficients, computed as it does: the i vanishing low-order
    coefficients c_0 .. c_(i-1) give i zero roots after the eigenvalues of
    the companion matrix of the rest. The companion keeps the coefficients'
    type: real coefficients get a real companion, whose non-real roots come
    in exact conjugate pairs, and complex ones a complex companion. Degree-0
    input is rejected.

    A stack of coefficient rows (..., n + 1) gives roots (..., n), each row
    as if rooted alone: rows with as many vanishing low-order coefficients
    share one eigensolve, and a failed residual check raises the error of
    the first row that fails.
    """
    c = np.asarray(coeffs)
    c = c.astype(complex if np.iscomplexobj(c) else float, copy=False)
    if c.ndim == 0 or c.shape[-1] < 2:
        raise ValueError("polynomial degree must be >= 1")
    shape = c.shape[:-1] + (c.shape[-1] - 1,)
    c = c.reshape(-1, c.shape[-1])
    rows, n = c.shape[0], c.shape[1] - 1
    if np.count_nonzero(c[:, -1]) < rows:
        raise ValueError("leading coefficient must be nonzero")
    p = c[:, ::-1]
    # the number of vanishing low-order coefficients of each row
    zeros = np.argmax(c != 0, axis=1).tolist() if np.count_nonzero(c[:, 0]) < rows else [0] * rows
    roots = np.zeros((rows, n), dtype=complex)
    counts = set(zeros)
    for z in counts:
        d = n - z
        if d:
            group = slice(None) if len(counts) == 1 else np.equal(zeros, z)
            lead = p[group, :1]
            companion = np.zeros((len(lead), d, d), dtype=c.dtype)
            companion[:, 0] = -p[group, 1:d + 1] / lead
            companion.reshape(-1, d * d)[:, d::d + 1] = 1.0
            # a real companion gives float roots when every root is real
            roots[group, :d] = np.linalg.eigvals(companion)
    scale = np.abs(c).max(axis=1, keepdims=True)
    # All roots are checked at once, by numpy.polyval's Horner steps. numpy's
    # array abs and power may round the last bit differently from scalar abs
    # and pow, so a per-root scalar check could only disagree on a residual
    # within an ulp of its bound.
    value = np.zeros(roots.shape, dtype=complex)
    for coefficient in p.T[..., None]:
        value = value * roots + coefficient
    residual = np.abs(value)
    bound = ROOT_RESIDUAL_TOL * scale * np.maximum(1.0, np.abs(roots)) ** n
    bad = residual > bound
    if np.count_nonzero(bad):
        row, i = np.argwhere(bad)[0]
        raise ArithmeticError(
            f"root {i} residual {residual[row, i]:.3e} exceeds bound {bound[row, i]:.3e}")
    return roots.reshape(shape)


def vandermonde_matrix(nodes):
    """Transposed Vandermonde matrix: row i holds nodes**i; one per row of a stack of nodes."""
    nodes = np.atleast_1d(np.asarray(nodes, dtype=complex))
    n = nodes.shape[-1]
    V = np.empty(nodes.shape[:-1] + (n, n), dtype=complex)
    # the powers by repeated products, as numpy.vander forms them
    V[..., :1, :] = 1.0
    V[..., 1:, :] = nodes[..., None, :]
    np.multiply.accumulate(V[..., 1:, :], axis=-2, out=V[..., 1:, :])
    return V


def solve_transposed_vandermonde(nodes, rhs):
    """Solve V w = rhs where V[i, j] = nodes[j]**i, for one node vector or a stack.

    Signals DegenerateNodes when two nodes coincide within relative 1e-8;
    the caller is expected to shrink the mode count. Falls back to the
    pseudoinverse if the direct solve fails. A stack of node rows (..., n)
    and right-hand sides (..., n) is solved row by row as if alone: the
    first row with coinciding nodes raises, and only a singular row takes
    the pseudoinverse.
    """
    nodes = np.atleast_1d(np.asarray(nodes, dtype=complex))
    rhs = np.atleast_1d(np.asarray(rhs, dtype=complex))
    if nodes.shape != rhs.shape:
        raise ValueError("nodes and rhs must have equal length")
    for row in nodes.reshape(-1, nodes.shape[-1]):
        n_distinct = count_distinct(row)
        if n_distinct < row.size:
            raise DegenerateNodes(
                f"only {n_distinct} of {row.size} nodes are distinct",
                n_distinct=n_distinct)
    return _solve_or_least_squares(vandermonde_matrix(nodes), rhs)


def _solve_or_least_squares(V, rhs):
    try:
        return np.linalg.solve(V, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if V.ndim == 2:
            return solve_least_squares(V, rhs)[0]
    # one singular member fails the whole stack's solve: solve member by
    # member, so that the others keep the direct solution
    return np.stack([_solve_or_least_squares(v, r) for v, r in zip(V, rhs)])


def count_distinct(values):
    """Number of values left after merging those within DUPLICATE_NODE_TOL (relative)."""
    kept = []
    for v in np.asarray(values, dtype=complex).ravel().tolist():
        scale = max(1.0, abs(v))
        if all(abs(v - u) / scale >= DUPLICATE_NODE_TOL for u in kept):
            kept.append(v)
    return len(kept)


def complex_principal_sqrt(z):
    """Principal complex square root, Re(w) >= 0, of a number or elementwise of an array or stack.

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
