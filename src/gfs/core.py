"""Aperiodic/periodic decomposition via non-harmonic sine and cosine modes.

The two mode families (sine <- even jumps, cosine <- odd jumps) of a signal
are fitted as one stack; each stage runs once on the stack and gives every
family the bits it would get alone:

1. Solve the Hankel systems of jumps for the elementary symmetric
   polynomials of the squared wavenumbers (one SVD for the stack; a
   rank-deficient Hankel keeps the minimum-norm solution, and a family of
   rank 0 leaves the stack with no modes).
2. Root the characteristic polynomials (one eigensolve); each root is a
   squared wavenumber, mapped to a mode by the principal complex square
   root.
3. Solve the transposed Vandermonde systems in (i k)^2 for the scaled
   amplitudes (one solve), then unscale through 2 sin(k pi) (sine) or
   -2 k sin(k pi) (cosine).

Distinctness is checked once per family, on the Vandermonde nodes
-(k^2): they are the characteristic roots up to rounding. A family whose
nodes collapse shrinks to the number of distinct nodes and is fitted
again alone, as a stack of one.

Modes within floating-point distance of an integer carry no jump
information (sin(k pi) ~ 0) and are dropped; their content is
representable by the periodic FFT part.

A decomposition holds the shared read-only nodes on [-pi, pi] of its N
and, on long grids, the waves of its model's blocked mode sum
(``ModeWaves``): sin and cos of k at the block starts and inside a block,
bound to that model and those nodes. The model's exact conjugate pairs,
and so the waves, are the same at every derivative order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from gfs.grid import (GridSpec, NonFiniteDerivative, SampledSignal, derivative_signal, integer_arg,
                      standard_chain_factor, standard_nodes)
from gfs.jumps import JumpData, to_standard_jumps
from gfs.linalg import (DegenerateNodes, complex_principal_sqrt, polynomial_roots, solve_least_squares,
                        solve_transposed_vandermonde)
from gfs.spectral import spectral_derivative_periodic

PI = math.pi

# Below this, sin(k*pi) makes the amplitude map singular (k is numerically
# an integer): drop the mode.
NEAR_HARMONIC_TOL = 1e-12

# A family whose jumps are all at the regularization floor is periodic to
# machine precision; produce no modes at all.
EMPTY_FAMILY_TOL = 1e-13

# Allowed imaginary leakage when evaluating the (formally real) model.
REALNESS_TOL = 1e-10

# A decomposition makes the waves of the blocked mode product for grids of
# this many nodes on; fewer take the direct waves.
BLOCK_MIN_POINTS = 2049


class RealnessViolation(ArithmeticError):
    """The aperiodic model produced a non-negligible imaginary part."""


@dataclass(frozen=True)
class AperiodicModel:
    """Complex sine/cosine modes (k, amplitude) representing u_a(x)."""

    sine_modes: tuple = ()
    cosine_modes: tuple = ()

    @property
    def empty(self):
        return not self.sine_modes and not self.cosine_modes


def solve_elementary_symmetric(jumps: JumpData, parities, n):
    """Elementary symmetric polynomials of the squared wavenumbers, per family of a stack.

    ``parities`` is a tuple; each parity selects a jump subsequence: "even"
    (J_0, J_2, ...) feeds the sine family, "odd" (J_1, J_3, ...) the cosine
    family. Returns the stacked vectors (e_n, ..., e_1), one row per
    family, and the numerical rank of each family's Hankel matrix.
    """
    J = []
    for p in parities:
        Jp = _family_jumps(jumps, p)
        if Jp.size < 2 * n:
            raise ValueError(f"need {2 * n} {p} jumps, have {Jp.size}")
        J.append(Jp[:2 * n])
    J = np.array(J)
    # The raw Hankel entries grow like k_max^(2m); without equilibration a
    # handful of large wavenumbers swamps the singular values of the small
    # ones and the rank test misfires. Symmetric diagonal scaling by a
    # geometric estimate of that growth keeps the condition number tame and
    # leaves genuine rank deficiency (fewer actual modes than n) visible.
    c = np.array([[max(float(top), 1.0) ** (1.0 / (2 * n - 1)) if n > 1 else 1.0]
                  for top in np.abs(J).max(axis=1)])
    powers = c ** -np.arange(2 * n, dtype=float)
    r = np.arange(n)
    scaled = J * powers
    H = scaled[:, np.add.outer(r, r)].astype(complex)
    rhs = scaled[:, n:].astype(complex)
    x, rank = solve_least_squares(H, -rhs)
    e = x * c ** (n - np.arange(n, dtype=float))
    return e, rank


def _family_jumps(jumps, parity):
    if parity == "even":
        return jumps.J[0::2]
    if parity == "odd":
        return jumps.J[1::2]
    raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")


def modes_from_symmetric(e, n):
    """Wavenumbers from the characteristic polynomial of the symmetric polys.

    ``e`` is the vector (e_n, ..., e_1), or a stack of them, one per row.
    The polynomial is lambda^n - e_1 lambda^(n-1) + ... + (-1)^n e_n; each
    root lambda_j is a squared wavenumber, mapped through the principal
    square root. Roots that collapse are not checked here: the amplitude
    solve's Vandermonde in -(k^2), the same values up to rounding, raises
    DegenerateNodes for them.
    """
    e = np.asarray(e, dtype=complex)
    if e.shape[-1:] != (n,):
        raise ValueError("length of e must equal n")
    # Ascending coefficients: coefficient of lambda^j is (-1)^(n-j) e_(n-j).
    coeffs = np.empty(e.shape[:-1] + (n + 1,), dtype=complex)
    coeffs[..., n] = 1.0
    coeffs[..., :n] = np.array([(-1.0) ** (n - j) for j in range(n)]) * e
    return complex_principal_sqrt(polynomial_roots(coeffs))


def solve_mode_amplitudes(modes, jumps: JumpData, parities):
    """Amplitudes from the transposed Vandermonde system in (i k)^2, per family of a stack.

    Sine family: w_j = 2 u_j sin(k_j pi); cosine family:
    w_j = -2 u_j k_j sin(k_j pi). ``modes`` holds one row of wavenumbers
    per parity of the tuple ``parities``. The result holds the unscaled
    amplitudes u_j in the same layout (NaN marks modes dropped by the
    near-harmonic, zero-wavenumber or denominator overflow guards). The
    first row whose nodes -(k^2) collapse raises DegenerateNodes with
    their number of distinct values.
    """
    modes = np.asarray(modes, dtype=complex).reshape(len(parities), -1)
    n = modes.shape[1]
    J = [_family_jumps(jumps, p) for p in parities]
    if any(Jp.size < n for Jp in J):
        raise ValueError("not enough jumps for the amplitude system")
    nodes = -(modes ** 2)  # (i k)^2
    w = solve_transposed_vandermonde(nodes, np.array([Jp[:n] for Jp in J]))
    cosine = [i for i, p in enumerate(parities) if p == "odd"]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        s = np.sin(modes * PI)
        den = 2.0 * s
        for i in cosine:
            # scalar products: numpy's array complex multiply may fuse
            # (FMA) and round differently from the scalar one
            den[i] = [2.0 * k * s_j for k, s_j in zip(modes[i], s[i])]
            w[i] = -w[i]
        amps = w / den
    # |Im k| pi near or beyond ~710 overflows sin(k pi) or the denominator
    # 2 sin(k pi) / 2 k sin(k pi); such a mode would also overflow at the
    # ends of [-pi, pi], so drop it. A near-harmonic mode carries no jump
    # content, and the k=0 cosine is a constant, periodic: drop them too.
    drop = ~np.isfinite(den) | (np.abs(s) < NEAR_HARMONIC_TOL)
    for i in cosine:
        drop[i] |= np.abs(modes[i]) < NEAR_HARMONIC_TOL
    amps[drop] = np.nan
    return amps


def _pair_conjugates(modes, amps):
    """Symmetrize conjugate mode pairs so the model is exactly real.

    Roots of a real-coefficient polynomial come as reals or conjugate
    pairs; floating-point asymmetry in the amplitude solve otherwise leaks
    imaginary parts into u_a.
    """
    modes = modes.copy()
    amps = amps.copy()
    used = np.zeros(modes.size, dtype=bool)
    for i in range(modes.size):
        if used[i] or abs(modes[i].imag) < 1e-12 or abs(modes[i].real) < 1e-12:
            continue
        lam_i = modes[i] ** 2
        for j in range(i + 1, modes.size):
            if used[j]:
                continue
            lam_j = modes[j] ** 2
            if abs(lam_j - np.conj(lam_i)) <= 1e-8 * max(1.0, abs(lam_i)):
                modes[j] = np.conj(modes[i])
                a = 0.5 * (amps[i] + np.conj(amps[j]))
                amps[i] = a
                amps[j] = np.conj(a)
                used[i] = used[j] = True
                break
    return modes, amps


def _fit_stack(jumps, parities, n):
    """The (k, amplitude) pairs of each family of a stack, all fitted at n.

    One Hankel solve, one rooting and one amplitude solve serve every
    family of the stack. A family whose Hankel has rank 0 leaves the stack
    with no modes. A rank-deficient Hankel solve keeps the full n and relies
    on the minimum-norm solution: consistent deficient systems (fewer true
    modes than n, or regularized zero jumps) then yield n distinct roots
    whose spurious members carry negligible amplitude.
    """
    e, rank = solve_elementary_symmetric(jumps, parities, n)
    fits = [()] * len(parities)
    live = [i for i, r in enumerate(rank.tolist()) if r]
    if len(live) < len(parities):
        e, parities = e[live], tuple(parities[i] for i in live)
    if live:
        modes = modes_from_symmetric(e, n)
        amps = solve_mode_amplitudes(modes, jumps, parities)
        keep = ~np.isnan(amps)
        for i, k, a, kept in zip(live, modes, amps, keep):
            fits[i] = tuple(zip(*_pair_conjugates(k[kept], a[kept])))
    return fits


def _fit_family(jumps, parity, n):
    """One family as a stack of one, shrinking n when its nodes collapse.

    The family only shrinks when the Vandermonde nodes -(k^2) actually
    collapse, which is the one case the amplitude Vandermonde cannot
    absorb; it is then fitted again at the number of distinct nodes.
    """
    while True:
        try:
            return _fit_stack(jumps, (parity,), n)[0]
        except DegenerateNodes as exc:
            if exc.n_distinct is None or exc.n_distinct >= n:
                raise
            n = exc.n_distinct


def build_aperiodic_model(jumps: JumpData, n):
    """Fit sine and cosine mode families to 4n endpoint jumps.

    Both families are fitted as one stack of two. A family whose jumps all
    sit at the regularization floor is periodic to machine precision and
    gets no modes; a lone live family is a stack of one. When the stack
    fails numerically (collapsing nodes that shrink a family, a failed root
    check, a failed linear solve), each family is fitted again alone, sine
    first: the families shrink independently, and what is raised is the
    first failing family's error. Any other error propagates at once. The
    worst case is an empty (pure-periodic) model.
    """
    n = integer_arg(n, "mode count n", 1)
    if jumps.q < 4 * n:
        raise ValueError(f"need q = 4n = {4 * n} jumps, have {jumps.q}")
    # the largest |J| of each family: the columns of (J_0, J_1), (J_2, J_3), ...
    tops = np.abs(jumps.J[:4 * n].reshape(2 * n, 2)).max(axis=0).tolist()
    live = tuple(p for p, top in zip(("even", "odd"), tops) if top > EMPTY_FAMILY_TOL)
    fits = None
    if len(live) == 2:
        try:
            fits = _fit_stack(jumps, live, n)
        except (ArithmeticError, DegenerateNodes, np.linalg.LinAlgError):
            # the families are fitted again one at a time below, sine
            # first: a family whose nodes collapsed shrinks, and the error
            # raised is that of the first family that fails
            pass
    if fits is None:
        fits = [_fit_family(jumps, p, n) for p in live]
    modes = dict(zip(live, fits))
    return AperiodicModel(sine_modes=modes.get("even", ()), cosine_modes=modes.get("odd", ()))


def _mode_terms(model):
    """The mode sum's terms as columns k, a, cos (a cosine mode's) and paired, formed once per model.

    A mode whose (k, a) is exactly (conj k_i, conj a_i) of an earlier mode
    i of the same family folds into i, which then adds 2 Re of its term
    (paired_i set): exact pairs leave no imaginary part, however large their
    terms. numpy's scalar complex power and product are conjugate-symmetric,
    so the partner's term is exactly conj of i's at every order.
    """
    k, a, cos, paired = [], [], [], []
    unpaired = {}  # (cos, k, a) -> index of a term still without a partner
    for odd, modes in enumerate((model.sine_modes, model.cosine_modes)):
        for k_j, a_j in modes:
            if (i := unpaired.pop((odd, np.conj(k_j), np.conj(a_j)), None)) is not None:
                paired[i] = True
                continue
            unpaired[(odd, k_j, a_j)] = len(k)
            k.append(k_j)
            a.append(a_j)
            cos.append(odd == 1)
            paired.append(False)
    return k, a, cos, paired


def _order_terms(terms, order):
    """The columns c and cos of the order-th derivative of the terms: each is c Q_t(k x).

    Q_0..Q_3 are sin, cos, -sin, -cos; a sine mode's term takes
    t = order mod 4 and a cosine mode's one turn more, so each term is
    c sin(k x) or c cos(k x) with c = +-a k^order, doubled for a pair.
    """
    c, cos = [], []
    for k, a, odd, paired in zip(*terms):
        turn = order + odd
        c_j = a * k ** order
        if turn % 4 >= 2:
            c_j = -c_j
        c.append(c_j * 2.0 if paired else c_j)
        cos.append(turn % 2 == 1)
    return c, cos


def _mode_loop(terms, order, x):
    """The mode sum at any x, one direct wave per term; float when every term is a pair."""
    total = np.zeros(x.shape, dtype=float if all(terms[3]) else complex)
    for k, c, cos, paired in zip(terms[0], *_order_terms(terms, order), terms[3]):
        wave = np.cos if cos else np.sin
        # a real wavenumber takes the float wave: the same real part
        term = c * (wave(k.real * x) if k.imag == 0.0 else wave(k * x))
        total += term.real if paired else term
    return total


@dataclass(frozen=True)
class ModeWaves:
    """The order-independent factors of the blocked sum of ``model`` at the array ``nodes``.

    They serve that model object at that array alone; a decomposition's are
    the shared nodes ``standard_nodes(N)`` of its N, step h, which fall into
    blocks of B points, x_(mB+r) ~ x_(mB) + r h. For the wavenumbers k of
    ``terms``, the model's ``_mode_terms`` pairs-first as tuples,
    ``sin_start`` and ``cos_start`` hold sin and cos of k x_(mB) at every
    block start (a last row starts the points after the whole blocks), and
    ``inner`` holds cos(k r h) and sin(k r h), r < B, two rows per term,
    with the 2 ``pairs`` leading rows of exact pairs folded to (Re, -Im).
    Every order takes them (``_order_terms``). All arrays are read-only.
    """

    model: AperiodicModel
    nodes: np.ndarray
    terms: tuple
    pairs: int
    block: int
    sin_start: np.ndarray
    cos_start: np.ndarray
    inner: np.ndarray


def _block_waves(model, x, h):
    """The waves of the blocked sum of the model's terms at uniform nodes x, step h, or None.

    One B serves all terms: isqrt(x.size), cut so that max|Im k| B h <= 1/2,
    which bounds how far the cancelling products outgrow the waves. Fewer
    than BLOCK_MIN_POINTS nodes, a non-1-D x, no terms, or B <= 1 give
    None: the sum then takes one direct wave per term.
    """
    if x.ndim != 1 or x.size < BLOCK_MIN_POINTS:
        return None
    terms = _mode_terms(model)
    if not terms[0]:
        return None
    B = math.isqrt(x.size)
    im = max(abs(k.imag) for k in terms[0]) * h
    if im * B > 0.5:
        B = int(0.5 / im)
    if B <= 1:
        return None
    pairs_first = sorted(range(len(terms[0])), key=lambda i: not terms[3][i])
    terms = tuple(tuple(column[i] for i in pairs_first) for column in terms)
    k = np.asarray(terms[0])
    start = np.multiply.outer(x[::B], k)
    inner = np.multiply.outer(k, h * np.arange(B))
    inner = np.stack([np.cos(inner), np.sin(inner)], axis=1).reshape(-1, B)
    n = 2 * sum(terms[3])
    if n:
        # a paired term adds Re(P Q) = (Re P, Im P) @ (Re Q, -Im Q); the
        # waves are float when every term is paired
        inner = np.concatenate([inner.real[:n], -inner.imag[:n]] + ([inner[n:]] if n < len(inner) else []))
    waves = ModeWaves(model, x, terms, n // 2, B, np.sin(start), np.cos(start), inner)
    for a in (waves.sin_start, waves.cos_start, inner):
        a.flags.writeable = False
    return waves


def _mode_product(c, cos, waves):
    """The mode sum at the waves' nodes as one product, for the pairs-first columns c and cos.

    By the addition theorem the sum over all J terms at the M whole blocks
    is A @ W, with W = ``waves.inner`` (2J x B) and A (M x 2J) holding
    c sin(k x_(mB)) and c cos(k x_(mB)) for a sine term, c cos(k x_(mB))
    and -c sin(k x_(mB)) for a cosine term. The points after the last whole
    block are one more block start's row of A against the first columns of
    W. A paired term enters as (Re A, Im A) against W's folded rows, so it
    adds exactly nothing to the imaginary part, and a sum of pairs alone is
    a float array.
    """
    s, co, W, B = waves.sin_start, waves.cos_start, waves.inner, waves.block
    size = waves.nodes.size
    M = size // B
    # the columns of A run the two of the first term, then of the next:
    # the exact pairs fill the first 2 * pairs
    A = np.stack([c * np.where(cos, co, s), c * np.where(cos, -s, co)], axis=-1).reshape(len(s), -1)
    n = 2 * waves.pairs
    if n:
        A = np.hstack([A.real[:, :n], A.imag[:, :n]] + ([A[:, n:]] if n < A.shape[1] else []))
    total = np.empty(size, dtype=A.dtype)
    np.matmul(A[:M], W, out=total[:M * B].reshape(M, B))
    total[M * B:] = (A[M:] @ W[:, :size - M * B]).ravel()
    return total


def evaluate_aperiodic(model: AperiodicModel, x, order=0, *, waves=None):
    """u_a or its analytic order-th derivative at x (scalar or array) on [-pi, pi].

    Every mode's term is c Q_t(k x) (``_order_terms``): exact quarter turns
    of sin, no rounded phase. An exact conjugate pair adds 2 Re of its first
    member's term; any other imaginary part must stay below the realness
    tolerance, else RealnessViolation is raised.

    Without ``waves`` every term takes one direct wave. Given the
    ``ModeWaves`` of a decomposition (``GFSDecomposition.waves``), model
    and x must be the very objects they were made for, else ValueError is
    raised; the whole sum is then one matrix product (``_mode_product``)
    over blocks of B points: the waves of every term at the block starts
    times cos and sin of k r h (r < B). The product matches the direct sum
    within about 16 eps sum |c| (1 + |k| pi) cosh(Im k pi).
    """
    order = integer_arg(order, "order", 0)
    x = np.asarray(x, dtype=float)
    if waves is None:
        total = _mode_loop(_mode_terms(model), order, x)
    elif waves.model is model and waves.nodes is x:
        total = _mode_product(*map(np.asarray, _order_terms(waves.terms, order)), waves)
    else:
        raise ValueError("the waves belong to another model or other nodes than x")
    if np.iscomplexobj(total) and total.size:
        max_imag = np.max(np.abs(total.imag))
        # the scale 1 + max|real| is at least 1: below the bare tolerance no check fires
        if max_imag > REALNESS_TOL and max_imag > (tol := REALNESS_TOL * (1.0 + np.max(np.abs(total.real)))):
            raise RealnessViolation(f"imaginary residual {max_imag:.3e} exceeds {tol:.3e}")
    out = total.real
    return float(out) if out.ndim == 0 else out


def model_jump(model: AperiodicModel, order):
    """Endpoint jump of the model's order-th derivative (forward formula)."""
    return evaluate_aperiodic(model, PI, order) - evaluate_aperiodic(model, -PI, order)


@dataclass(frozen=True)
class GFSDecomposition:
    """Sampled signal split into a periodic vector and an aperiodic model.

    The aperiodic model lives on the standard interval [-pi, pi]; grids on
    other intervals are handled through the affine map, with jump values
    rescaled by the chain factor per derivative order.

    It holds the read-only nodes on [-pi, pi] that every grid of its N
    shares (``grid.standard_nodes(N)``) and, where the mode sum takes the
    blocked product, the ``ModeWaves`` of its own model at those nodes (None
    on the direct path: fewer than BLOCK_MIN_POINTS nodes, an empty model,
    or B <= 1). Both serve every order; the waves no other model or nodes.
    """

    grid: GridSpec
    periodic: np.ndarray
    aperiodic: AperiodicModel
    nodes: np.ndarray
    waves: ModeWaves | None


def gfs_decompose(u: SampledSignal, n, jumps: JumpData):
    """Split samples into periodic values and an aperiodic mode model."""
    grid = u.grid
    model = build_aperiodic_model(to_standard_jumps(jumps, grid), n)
    nodes = standard_nodes(grid.N)
    waves = _block_waves(model, nodes, grid.standard_step)
    ua = evaluate_aperiodic(model, nodes, waves=waves)
    return GFSDecomposition(grid=grid, periodic=u.values - ua, aperiodic=model,
                            nodes=nodes, waves=waves)


def gfs_derivative(dec: GFSDecomposition, order=1):
    """Derivative of the decomposed signal at all grid nodes.

    Periodic part by FFT (nodes 0..N-1, node N from periodic extension),
    aperiodic part analytically from the decomposition's nodes and waves;
    both in standard coordinates, then the chain factor maps back to the
    original interval. A non-finite value raises ``NonFiniteDerivative``.
    """
    order = integer_arg(order, "order", 1)
    grid = dec.grid
    du = spectral_derivative_periodic(dec.periodic, order)
    du += evaluate_aperiodic(dec.aperiodic, dec.nodes, order, waves=dec.waves)
    if (factor := standard_chain_factor(grid) ** order) != 1.0:
        du *= factor
    return derivative_signal(grid, du)
