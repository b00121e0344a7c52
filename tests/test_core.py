import cmath
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gfs.baselines import fft_derivative
from gfs.core import (
    EMPTY_FAMILY_TOL,
    NEAR_HARMONIC_TOL,
    REALNESS_TOL,
    AperiodicModel,
    GFSDecomposition,
    NonFiniteDerivative,
    RealnessViolation,
    _block_waves,
    _mode_product,
    _mode_terms,
    _order_terms,
    build_aperiodic_model,
    evaluate_aperiodic,
    gfs_decompose,
    gfs_derivative,
    model_jump,
    modes_from_symmetric,
    solve_elementary_symmetric,
    solve_mode_amplitudes,
)
from gfs.functions import FUNCTION_CATALOG, get_function
from gfs.grid import SampledSignal, make_grid, sample, standard_chain_factor, standard_nodes, to_standard_interval
from gfs.jumps import JumpData, estimate_jumps, jumps_from_analytic, to_standard_jumps
from gfs.linalg import (DUPLICATE_NODE_TOL, RANK_TOL_FACTOR, ROOT_RESIDUAL_TOL, DegenerateNodes,
                        complex_principal_sqrt, count_distinct)
from gfs.spectral import _multiplier, spectral_derivative_periodic

PI = math.pi
EPS = np.finfo(float).eps


def sine_sum_jumps(ks, amps, q):
    """Endpoint jumps of sum_j a_j sin(k_j x) on [-pi, pi], all orders < q."""
    J = np.zeros(q)
    for m in range(q):
        for k, a in zip(ks, amps):
            if m % 2 == 0:
                J[m] += a * (-k * k) ** (m // 2) * 2 * math.sin(k * PI)
    return JumpData(J=np.where(J == 0.0, 1e-15, J))


# ---------------------------------------------------------------------------
# Independent closed-form solutions for one and two modes per family.


def one_mode_oracle(J):
    k2 = -J[2] / J[0]
    k = complex_principal_sqrt(k2)
    u = J[0] / (2 * cmath.sin(k * PI))
    return k, u


def two_mode_oracle(J):
    den = J[2] ** 2 - J[0] * J[4]
    e1 = (J[0] * J[6] - J[2] * J[4]) / den
    e2 = (J[4] ** 2 - J[2] * J[6]) / den
    disc = cmath.sqrt(e1 * e1 - 4 * e2)
    k1sq, k2sq = (e1 + disc) / 2, (e1 - disc) / 2
    k1, k2 = complex_principal_sqrt(k1sq), complex_principal_sqrt(k2sq)
    u1 = (k2sq * J[0] + J[2]) / (2 * (k2sq - k1sq) * cmath.sin(k1 * PI))
    u2 = (k1sq * J[0] + J[2]) / (2 * (k1sq - k2sq) * cmath.sin(k2 * PI))
    return (k1, u1), (k2, u2)


class TestElementarySymmetric:
    def test_two_sine_even_family(self):
        jumps = sine_sum_jumps([0.5, 1.2], [1.0, 1.0], 8)
        (e,), (rank,) = solve_elementary_symmetric(jumps, ("even",), 2)
        assert rank == 2
        np.testing.assert_allclose(e.real, [0.36, 1.69], atol=1e-10)

    def test_single_sine(self):
        jumps = sine_sum_jumps([0.5], [1.0], 4)
        (e,), _ = solve_elementary_symmetric(jumps, ("even",), 1)
        assert e[0].real == pytest.approx(0.25, abs=1e-12)

    def test_all_regularized_rank(self):
        jumps = JumpData(J=np.full(8, 1e-15))
        (e,), (rank,) = solve_elementary_symmetric(jumps, ("even",), 2)
        assert rank <= 1 or np.max(np.abs(e)) < 1e-6


class TestModesFromSymmetric:
    def test_single(self):
        np.testing.assert_allclose(modes_from_symmetric([0.25], 1), [0.5])

    def test_pair(self):
        ks = np.sort(modes_from_symmetric([0.36, 1.69], 2).real)
        np.testing.assert_allclose(ks, [0.5, 1.2], atol=1e-12)

    def test_negative_root_becomes_imaginary(self):
        k = modes_from_symmetric([-1.0], 1)
        np.testing.assert_allclose(k, [1j])


class TestModeAmplitudes:
    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_overflowing_sine_drops_the_mode_quietly(self, parity):
        # sin(300i pi) overflows; the mode is dropped (NaN), no warning
        jumps = JumpData(J=np.array([1.0, 0.5, 0.25, 0.125]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (amps,) = solve_mode_amplitudes([300j, 0.4 + 0j], jumps, (parity,))
        assert np.isnan(amps[0])
        assert np.isfinite(amps[1])

    @pytest.mark.parametrize("parity, k", [("odd", 0.5 + 225j), ("even", 0.5 + 226j)])
    def test_overflowing_denominator_drops_the_mode_quietly(self, parity, k):
        # sin(k pi) is finite, but 2 k sin(k pi) (cosine family) or
        # 2 sin(k pi) (sine family) overflows: dropped (NaN), no warning
        assert np.isfinite(np.sin(k * PI))
        jumps = JumpData(J=np.array([1.0, 0.5, 0.25, 0.125]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (amps,) = solve_mode_amplitudes([k, 0.4 + 0j], jumps, (parity,))
        assert np.isnan(amps[0])
        assert np.isfinite(amps[1])


class TestBuildModel:
    def test_regularized_jumps_give_empty_model(self):
        jumps = JumpData(J=np.full(8, 1e-15))
        model = build_aperiodic_model(jumps, 2)
        assert model.empty

    def test_trig_poly_empty(self):
        f = get_function("trig_poly", seed=5)
        model = build_aperiodic_model(jumps_from_analytic(f, 8), 2)
        assert model.empty

    def test_two_sine_recovery(self):
        jumps = sine_sum_jumps([0.5, 1.2], [1.0, 1.0], 8)
        model = build_aperiodic_model(jumps, 2)
        got = sorted(((k.real, a.real) for k, a in model.sine_modes))
        assert got[0][0] == pytest.approx(0.5, abs=1e-9)
        assert got[1][0] == pytest.approx(1.2, abs=1e-9)
        assert got[0][1] == pytest.approx(1.0, abs=1e-9)
        assert got[1][1] == pytest.approx(1.0, abs=1e-9)
        assert not model.cosine_modes

    def test_requires_enough_jumps(self):
        jumps = JumpData(J=np.ones(4))
        with pytest.raises(ValueError):
            build_aperiodic_model(jumps, 2)

    def test_realness_and_conjugate_pairing(self):
        f = get_function("gaussian")
        model = build_aperiodic_model(jumps_from_analytic(f, 12), 3)
        assert not model.empty
        xs = np.linspace(-PI, PI, 101)
        vals = evaluate_aperiodic(model, xs)
        assert np.all(np.isreal(vals)) or np.max(np.abs(np.imag(vals))) < 1e-10
        # every mode is real, purely imaginary, or half of a conjugate pair
        for fam in (model.sine_modes, model.cosine_modes):
            ks = [k for k, _ in fam]
            for k in ks:
                partner = any(abs(np.conj(k) - k2) < 1e-6 * (1 + abs(k))
                              for k2 in ks)
                assert (abs(k.imag) < 1e-9 or abs(k.real) < 1e-9 or partner)

    def test_distinct_squared_wavenumbers(self):
        f = get_function("multimode", n_modes=30)
        model = build_aperiodic_model(jumps_from_analytic(f, 16), 4)
        for fam in (model.sine_modes, model.cosine_modes):
            lams = np.array([k * k for k, _ in fam])
            for i in range(len(lams)):
                for j in range(i + 1, len(lams)):
                    assert abs(lams[i] - lams[j]) > 1e-8 * max(1, abs(lams[i]))


class TestSmallNOracles:
    def test_one_mode_equivalence(self):
        for k_true in (0.5, 2.7, 0.31):
            jumps = sine_sum_jumps([k_true], [1.4], 4)
            model = build_aperiodic_model(jumps, 1)
            k_or, u_or = one_mode_oracle(jumps.J)
            (k, a), = model.sine_modes
            assert k == pytest.approx(k_or, rel=1e-9)
            assert a == pytest.approx(u_or, rel=1e-9)

    def test_two_mode_equivalence(self):
        jumps = sine_sum_jumps([0.7, 2.3], [1.0, -0.6], 8)
        model = build_aperiodic_model(jumps, 2)
        oracle = sorted(two_mode_oracle(jumps.J), key=lambda p: abs(p[0]))
        got = sorted(model.sine_modes, key=lambda p: abs(p[0]))
        for (k_o, u_o), (k, a) in zip(oracle, got):
            assert k == pytest.approx(k_o, rel=1e-9)
            assert a == pytest.approx(u_o, rel=1e-9)

    @given(st.floats(0.2, 0.8), st.floats(1.3, 3.7), st.floats(1.3, 3.7),
           st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2))
    @settings(max_examples=30, deadline=None)
    def test_three_mode_equivalence(self, k1, dk2, dk3, a1, a2, a3):
        # independent route: direct Hankel solve + numpy roots
        ks = [k1, k1 + dk2, k1 + dk2 + dk3]
        # an integer k has sin(k pi) = 0, hence no jump content, and the
        # core drops it by design; test_integer_mode_is_dropped pins that
        assume(all(abs(k - round(k)) >= 1e-3 for k in ks))
        amps = [a1 + 2.5, a2 + 2.5, a3 + 2.5]  # keep away from zero
        jumps = sine_sum_jumps(ks, amps, 12)
        J = jumps.J[0::2]
        H = np.array([[J[i + j] for j in range(3)] for i in range(3)])
        e = np.linalg.solve(H, -J[3:6])
        lams = np.sort(np.roots([1.0, -e[2], e[1], -e[0]]))
        model = build_aperiodic_model(jumps, 3)
        got = np.sort([(k * k).real for k, _ in model.sine_modes])
        np.testing.assert_allclose(got, lams, rtol=1e-6)
        got_k = np.sort([k.real for k, _ in model.sine_modes])
        np.testing.assert_allclose(got_k, np.sort(ks), rtol=1e-6)

    def test_integer_mode_is_dropped(self):
        # k = 2 carries no jumps: only the other two modes keep an amplitude
        jumps = sine_sum_jumps([0.7, 2.0, 3.5], [2.5, 2.5, 2.5], 12)
        model = build_aperiodic_model(jumps, 3)
        kept = sorted((k.real, a.real) for k, a in model.sine_modes if abs(a) > 1e-8)
        np.testing.assert_allclose(kept, [(0.7, 2.5), (3.5, 2.5)], rtol=1e-6)


# ---------------------------------------------------------------------------
# Inline copy of the earlier mode fit, which rooted through numpy.roots and
# numpy.polyval, took one scalar square root and one scalar amplitude per
# mode and compared roots as numpy scalars. build_aperiodic_model must
# reproduce it bit for bit, and raise the same exception with the same
# message where it raised.


def _old_solve_least_squares(A, b):
    U, s, Vh = np.linalg.svd(A, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros(A.shape[1], dtype=complex), 0
    keep = s >= max(A.shape) * RANK_TOL_FACTOR * s[0]
    inv_s = np.zeros_like(s)
    inv_s[keep] = 1.0 / s[keep]
    return Vh.conj().T @ (inv_s * (U.conj().T @ b)), int(np.count_nonzero(keep))


def _old_polynomial_roots(c):
    roots = np.roots(c[::-1])
    residual = np.abs(np.polyval(c[::-1], roots))
    bound = ROOT_RESIDUAL_TOL * np.max(np.abs(c)) * np.maximum(1.0, np.abs(roots)) ** (c.size - 1)
    bad = np.flatnonzero(residual > bound)
    if bad.size:
        i = bad[0]
        raise ArithmeticError(
            f"root {i} residual {residual[i]:.3e} exceeds bound {bound[i]:.3e}")
    return roots


def _old_count_distinct(values):
    kept = []
    for v in values:
        if all(abs(v - u) / max(1.0, abs(v)) >= DUPLICATE_NODE_TOL for u in kept):
            kept.append(v)
    return len(kept)


def _old_principal_sqrt(z):
    w = np.sqrt(complex(z))
    if w.real < 0.0 or (w.real == 0.0 and w.imag < 0.0):
        w = -w
    return w


def _old_modes(J, n):
    c = max(float(np.max(np.abs(J[:2 * n]))), 1.0) ** (1.0 / (2 * n - 1)) if n > 1 else 1.0
    powers = c ** -np.arange(2 * n, dtype=float)
    r = np.arange(n)
    H = (J[:2 * n] * powers)[np.add.outer(r, r)].astype(complex)
    rhs = (J[n:2 * n] * powers[n:2 * n]).astype(complex)
    x, rank = _old_solve_least_squares(H, -rhs)
    if rank == 0:
        return None
    e = x * c ** (n - np.arange(n, dtype=float))
    coeffs = np.empty(n + 1, dtype=complex)
    coeffs[n] = 1.0
    for j in range(n):
        coeffs[j] = (-1.0) ** (n - j) * e[j]
    lams = _old_polynomial_roots(coeffs)
    n_distinct = _old_count_distinct(lams)
    if n_distinct < n:
        raise DegenerateNodes(
            f"characteristic roots collapse to {n_distinct} distinct values",
            n_distinct=n_distinct)
    return np.array([_old_principal_sqrt(lam) for lam in lams])


def _old_amplitudes(modes, J, parity):
    n = modes.size
    nodes = -(modes ** 2)
    n_distinct = _old_count_distinct(nodes)
    if n_distinct < n:
        raise DegenerateNodes(f"only {n_distinct} of {n} nodes are distinct",
                              n_distinct=n_distinct)
    V = np.vander(nodes, n, increasing=True).T
    try:
        w = np.linalg.solve(V, J[:n].astype(complex))
    except np.linalg.LinAlgError:
        w, _ = _old_solve_least_squares(V, J[:n].astype(complex))
    amps = np.empty(n, dtype=complex)
    for j, (k, wj) in enumerate(zip(modes, w)):
        with np.errstate(over="ignore", invalid="ignore"):
            s = np.sin(k * PI)
            den = 2.0 * s if parity == "even" else 2.0 * k * s
        if not np.isfinite(den) or abs(s) < NEAR_HARMONIC_TOL:
            amps[j] = np.nan
        elif parity == "even":
            amps[j] = wj / (2.0 * s)
        elif abs(k) < NEAR_HARMONIC_TOL:
            amps[j] = np.nan
        else:
            amps[j] = -wj / (2.0 * k * s)
    return amps


def _old_pair_conjugates(modes, amps):
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


def _old_family(J, parity, n):
    if np.max(np.abs(J[:2 * n])) <= EMPTY_FAMILY_TOL:
        return ()
    while n >= 1:
        try:
            modes = _old_modes(J, n)
            if modes is None:
                return ()
            amps = _old_amplitudes(modes, J, parity)
        except DegenerateNodes as exc:
            if exc.n_distinct is None or exc.n_distinct >= n:
                raise
            n = exc.n_distinct
            continue
        keep = ~np.isnan(amps)
        modes, amps = _old_pair_conjugates(modes[keep], amps[keep])
        return tuple(zip(modes, amps))
    return ()


def _old_build_aperiodic_model(jumps, n):
    n = int(n)
    if n < 1:
        raise ValueError(f"mode count n must be >= 1, got {n}")
    if jumps.q < 4 * n:
        raise ValueError(f"need q = 4n = {4 * n} jumps, have {jumps.q}")
    return AperiodicModel(sine_modes=_old_family(jumps.J[0::2], "even", n),
                          cosine_modes=_old_family(jumps.J[1::2], "odd", n))


def fit_outcome(fit, jumps, n):
    """Every (k, a) of both families as bytes, or the exception's type and message."""
    try:
        model = fit(jumps, n)
    except Exception as exc:
        return type(exc), str(exc)
    return tuple(tuple((type(k), type(a), np.complex128(k).tobytes(), np.complex128(a).tobytes())
                       for k, a in family)
                 for family in (model.sine_modes, model.cosine_modes))


def assert_same_fit(jumps, n):
    assert fit_outcome(build_aperiodic_model, jumps, n) == \
        fit_outcome(_old_build_aperiodic_model, jumps, n), (jumps.J.tolist(), n)


def draw_catalog_params(name, rng):
    if name == "gaussian":
        return {"x0": rng.uniform(0.5 * PI, 0.9 * PI), "w": rng.uniform(0.8, 1.2)}
    if name == "modulated_sine":
        return {"a": rng.uniform(-0.5, -0.2), "b": rng.uniform(0.5, 1.0)}
    if name == "leakage_demo":
        return {"k1": rng.uniform(5.0, 5.6), "k2": rng.uniform(12.1, 12.7),
                "a1": rng.uniform(0.5, 0.9), "a2": rng.uniform(0.8, 1.2)}
    if name == "multimode":
        return {"n_modes": int(rng.integers(2, 31))}
    if name == "trig_poly":
        return {"seed": int(rng.integers(0, 2 ** 31)), "max_mode": int(rng.integers(3, 8))}
    if name == "monomial":
        return {"m": int(rng.integers(1, 6))}
    return {}


def double_root_jumps(lam_even, lam_odd, n):
    """Jumps J_m = (m + 1) lam^m of each family: a double characteristic root."""
    J = np.empty(4 * n)
    m = np.arange(2 * n)
    J[0::2] = (m + 1) * lam_even ** m
    J[1::2] = 0.5 * (m + 1) * lam_odd ** m
    return JumpData(J=J)


def family_jumps(even, odd):
    """Interleave the even (sine) and odd (cosine) family jumps."""
    J = np.empty(2 * len(even))
    J[0::2], J[1::2] = even, odd
    return JumpData(J=J)


# Six even-order jumps whose characteristic roots fail the residual check at n = 3
# (root 1 residual 4.4e55, bound 4.4e47), with no RuntimeWarning on the way.
FAILING_ROOTS = [6.734377484196043e-299, -4.5702312948110327e-181, 6.066665064020923e+241,
                 -4.633285994507761e+278, -8.306934118455917e-47, 2.683387503507062e+297]
# Six jumps (m + 1) lam^m: a double root, which collapses at n = 3
DOUBLE_ROOT = [(m + 1) * (-0.3) ** m for m in range(6)]
# Six jumps C(m + 2, 2) lam^m: a triple root, whose rooting spreads it into
# three distinct values at n = 3
TRIPLE_ROOT = [math.comb(m + 2, 2) * (-0.33) ** m for m in range(6)]


HAND_BUILT_JUMPS = {
    # collapsing characteristic roots: both families shrink, n -> n-1 -> ...
    "double_root_n2": (double_root_jumps(-0.3, -0.33, 2), 2),
    "double_root_n3": (double_root_jumps(-0.3, -0.33, 3), 3),
    # a zero Hankel matrix under a nonzero right-hand side: rank 0
    "rank_zero": (JumpData(J=np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 3.0, -2.0])), 2),
    # the sine family below EMPTY_FAMILY_TOL, the cosine family not
    "empty_sine_family": (JumpData(J=np.array([1e-14, 0.3, -1e-14, -0.2, 5e-14, 0.4,
                                               1e-15, -0.1])), 2),
    "empty_cosine_family": (JumpData(J=np.array([0.3, 1e-14, -0.2, -1e-14, 0.4, 5e-14,
                                                 -0.1, 1e-15])), 2),
    # the stack of two breaks up: the sine family shrinks to n = 2, the
    # cosine family keeps n = 3 (double_root_n3 shrinks both, to 2 and 1)
    "sine_shrinks_cosine_keeps_n": (family_jumps(DOUBLE_ROOT, TRIPLE_ROOT), 3),
    # the sine roots fail their residual check while the cosine family
    # would shrink: the sine family's ArithmeticError is raised
    "sine_roots_fail_cosine_shrinks": (family_jumps(FAILING_ROOTS, DOUBLE_ROOT), 3),
    # the sine family shrinks and fits; then the cosine roots fail
    "cosine_roots_fail_sine_shrinks": (family_jumps(DOUBLE_ROOT, FAILING_ROOTS), 3),
    # both families fail, each with its own message: the sine family's is raised
    "both_families_fail": (family_jumps(FAILING_ROOTS, [0.1 * J for J in FAILING_ROOTS]), 3),
    "all_regularized": (JumpData(J=np.full(12, 1e-15)), 3),
    "too_few_jumps": (JumpData(J=np.ones(6)), 2),
    "no_modes": (JumpData(J=np.ones(8)), 0),
}


class TestFitSameBitsAsBefore:
    def test_analytic_jumps(self):
        rng = np.random.default_rng(20)
        for name in sorted(FUNCTION_CATALOG):
            for draw in range(6):
                f = get_function(name, **(draw_catalog_params(name, rng) if draw else {}))
                for n in (1, 2, 3, 4):
                    assert_same_fit(jumps_from_analytic(f, 4 * n), n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_estimated_jumps_on_drawn_intervals(self, n):
        rng = np.random.default_rng(n)
        width = 4 * n + 5
        for name in sorted(FUNCTION_CATALOG):
            for N in (2 * width, 64, 257):
                a = rng.uniform(-3.0, -2.0)  # log_fn needs x > -pi - 1/2
                grid = make_grid(a, a + rng.uniform(4.0, 6.0), N)
                f = get_function(name, **draw_catalog_params(name, rng))
                jumps = to_standard_jumps(estimate_jumps(sample(f, grid), 4 * n, 6), grid)
                assert_same_fit(jumps, n)

    @pytest.mark.parametrize("name", sorted(HAND_BUILT_JUMPS))
    def test_hand_built_jumps(self, name):
        assert_same_fit(*HAND_BUILT_JUMPS[name])

    def test_hand_built_jumps_reach_their_branch(self, monkeypatch):
        # the double roots make both families retry with a smaller n; the
        # zero Hankel matrices end both families at rank 0. A stacked solve
        # records one entry per family.
        import gfs.core
        solves = []

        def recording(jumps, parities, n):
            e, rank = solve_elementary_symmetric(jumps, parities, n)
            solves.extend((p, n, r) for p, r in zip(parities, rank.tolist()))
            return e, rank

        monkeypatch.setattr(gfs.core, "solve_elementary_symmetric", recording)
        build_aperiodic_model(*HAND_BUILT_JUMPS["double_root_n3"])
        assert {(p, n) for p, n, _ in solves} >= {("even", 3), ("even", 2), ("odd", 3), ("odd", 2)}
        solves.clear()
        assert build_aperiodic_model(*HAND_BUILT_JUMPS["rank_zero"]).empty
        assert solves == [("even", 2, 0), ("odd", 2, 0)]
        solves.clear()
        model = build_aperiodic_model(*HAND_BUILT_JUMPS["sine_shrinks_cosine_keeps_n"])
        assert (len(model.sine_modes), len(model.cosine_modes)) == (2, 3)
        assert ("even", 2) in {(p, n) for p, n, _ in solves}
        assert ("odd", 2) not in {(p, n) for p, n, _ in solves}
        for name in ("sine_roots_fail_cosine_shrinks", "cosine_roots_fail_sine_shrinks",
                     "both_families_fail"):
            with pytest.raises(ArithmeticError) as exc:
                build_aperiodic_model(*HAND_BUILT_JUMPS[name])
            assert str(exc.value) == "root 1 residual 4.423e+55 exceeds bound 4.423e+47"
        # the cosine family alone shrinks, so the raise above is the sine family's
        jumps, n = HAND_BUILT_JUMPS["sine_roots_fail_cosine_shrinks"]
        solves.clear()
        build_aperiodic_model(JumpData(J=np.where(np.arange(jumps.q) % 2, jumps.J, 0.0)), n)
        assert ("odd", 2) in {(p, n) for p, n, _ in solves}

    def test_vandermonde_singular_in_one_family(self, monkeypatch):
        # numpy's stacked solve raises when any member is singular; here the
        # cosine family's Vandermonde (positive nodes: imaginary k) reports
        # singular, so that family alone takes the pseudoinverse, before and
        # after the families were stacked
        solve = np.linalg.solve
        singular = []

        def reporting_solve(a, b):
            nodes = np.asarray(a)[..., 1, :]
            if np.any(np.all(nodes.real > 0.0, axis=-1)):
                singular.append(nodes)
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", reporting_solve)
        # J_m = sum w nu^m: nodes nu = -0.25, -1.44 (sine), 0.36, 2.25 (cosine)
        m = np.arange(4)
        jumps = family_jumps(1.0 * (-0.25) ** m + 0.7 * (-1.44) ** m,
                             0.8 * 0.36 ** m - 0.5 * 2.25 ** m)
        assert_same_fit(jumps, 2)
        # the stacked solve and the lone cosine solve both reported singular
        assert {nodes.ndim for nodes in singular} == {1, 2}
        model = build_aperiodic_model(jumps, 2)
        assert len(model.sine_modes) == len(model.cosine_modes) == 2


    def test_random_jumps(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            n = int(rng.integers(1, 6))
            J = rng.standard_normal(4 * n) * rng.uniform(0.05, 40.0) ** np.arange(4 * n)
            J[rng.integers(0, 4 * n, int(rng.integers(0, 3)))] = 0.0
            assert_same_fit(JumpData(J=J), n)


class TestStackedFit:
    def test_one_call_per_linalg_routine_when_both_families_are_live(self, monkeypatch):
        calls = {}
        for name in ("svd", "eigvals", "solve"):
            def counting(*args, _name=name, _f=getattr(np.linalg, name), **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _f(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counting)
        model = build_aperiodic_model(jumps_from_analytic(get_function("gaussian"), 12), 3)
        assert len(model.sine_modes) == len(model.cosine_modes) == 3
        assert calls == {"svd": 1, "eigvals": 1, "solve": 1}

    @pytest.mark.parametrize("name, rows", [("gaussian", 2), ("empty_sine_family", 1)])
    def test_one_distinctness_check_per_family_row(self, name, rows, monkeypatch):
        # a fit checks each family's Vandermonde nodes, not its
        # characteristic roots too: a stack of two takes two checks, a lone
        # live family one
        import gfs.core
        import gfs.linalg
        checked = []

        def spy(values):
            checked.append(len(values))
            return count_distinct(values)

        for module in (gfs.core, gfs.linalg):
            if hasattr(module, "count_distinct"):
                monkeypatch.setattr(module, "count_distinct", spy)
        if name == "gaussian":
            jumps, n = jumps_from_analytic(get_function("gaussian"), 12), 3
        else:
            jumps, n = HAND_BUILT_JUMPS[name]
        build_aperiodic_model(jumps, n)
        assert len(checked) == rows, checked

    def test_programming_errors_are_not_refitted(self, monkeypatch):
        # only numerical failures of the stack of two send each family to
        # be fitted again alone: a TypeError is raised from the one call
        import gfs.core
        calls = []

        def broken(modes, jumps, parities):
            calls.append(parities)
            if len(parities) == 2:
                raise TypeError("broken stage")
            return solve_mode_amplitudes(modes, jumps, parities)

        monkeypatch.setattr(gfs.core, "solve_mode_amplitudes", broken)
        with pytest.raises(TypeError, match="broken stage"):
            build_aperiodic_model(jumps_from_analytic(get_function("gaussian"), 12), 3)
        assert calls == [("even", "odd")]


# Q_0..Q_3 = sin, cos, -sin, -cos as (sign, wave): the order-m derivative of
# a sin(k x) is a k^m Q_(m mod 4)(k x), and a cosine mode sits one turn later
QUARTER_TURNS = ((1, np.sin), (1, np.cos), (-1, np.sin), (-1, np.cos))


def loop_evaluate(model, x, order):
    """evaluate_aperiodic as a plain loop of quarter turns, a complex wave for every mode."""
    x = np.asarray(x, dtype=float)
    total = np.zeros(x.shape, dtype=complex)
    for turn, modes in enumerate((model.sine_modes, model.cosine_modes), start=order):
        sign, wave = QUARTER_TURNS[turn % 4]
        for k, a in modes:
            c = a * k ** order
            total += (c if sign > 0 else -c) * wave(k * x)
    scale = 1.0 + np.max(np.abs(total.real)) if total.size else 1.0
    max_imag = np.max(np.abs(total.imag)) if total.size else 0.0
    if max_imag > REALNESS_TOL * scale:
        raise RealnessViolation(
            f"imaginary residual {max_imag:.3e} exceeds {REALNESS_TOL * scale:.3e}")
    out = total.real
    return float(out) if out.ndim == 0 else out


def term_scale(model, x, order):
    """sum |c wave(k x)| over the modes: the size of the terms a sum of order ``order`` adds."""
    x = np.asarray(x, dtype=float)
    scale = np.zeros(x.shape)
    for turn, modes in enumerate((model.sine_modes, model.cosine_modes), start=order):
        wave = QUARTER_TURNS[turn % 4][1]
        for k, a in modes:
            scale += np.abs(a * k ** order * wave(k * x))
    return scale


def has_exact_pair(model):
    """Whether some mode is (conj k, conj a) of an earlier mode of its family."""
    for modes in (model.sine_modes, model.cosine_modes):
        seen = set()
        for k, a in modes:
            if (k.conjugate(), a.conjugate()) in seen:
                return True
            seen.add((k, a))
    return False


def fitted_models():
    cases = [("gaussian", {}), ("multimode", {"n_modes": 4}), ("multimode", {}),
             ("leakage_demo", {}),
             # trig_poly draws whose cancelling jumps leave non-empty models:
             # conjugate pairs, pure-imaginary and nearly real wavenumbers
             ("trig_poly", {"seed": 1394609703, "max_mode": 5}),
             ("trig_poly", {"seed": 17790420, "max_mode": 5}),
             ("trig_poly", {"seed": 552547096, "max_mode": 4}),
             ("trig_poly", {"seed": 1640795442, "max_mode": 4})]
    for name, params in cases:
        jumps = jumps_from_analytic(get_function(name, **params), 16)
        for n in (2, 3, 4):
            yield f"{name}{params} n={n}", build_aperiodic_model(jumps, n)


HAND_BUILT = {
    # real wavenumbers with complex amplitudes whose imaginary parts cancel
    "real_k_complex_amplitude": AperiodicModel(
        sine_modes=((2.3 + 0j, 0.5 + 0.25j), (0.6, 1.5), (2.3 + 0j, 0.5 - 0.25j)),
        cosine_modes=((1.7, -0.4 + 0.1j), (1.7, -0.4 - 0.1j))),
    "conjugate_pair_apart": AperiodicModel(
        sine_modes=((1.3 + 0.4j, 0.8 - 0.3j), (2.6 + 0j, 0.5 + 0j),
                    (1.3 - 0.4j, 0.8 + 0.3j)),
        cosine_modes=((0.9 - 1.2j, 0.2 + 0.7j), (3.1 + 0j, -0.3 + 0j),
                      (0.9 + 1.2j, 0.2 - 0.7j))),
    "pair_not_conjugate": AperiodicModel(
        sine_modes=((1.3 + 0.4j, 0.8 - 0.3j), (1.3 - 0.4j, 0.8 + (0.3 + 1e-15) * 1j))),
    "pure_imaginary_k": AperiodicModel(
        sine_modes=((0.9j, 0.7j),),
        cosine_modes=((1.1j, 0.4 + 0j), (-1.1j, 0.4 + 0j))),
}


def assert_same_bits(got, want):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestEvaluateSameBits:
    """Models without an exact conjugate pair keep the bits of the quarter-turn loop.

    An exact pair adds 2 Re of one member's term instead, within
    16 eps sum |c wave| of the loop. Arrays given without waves keep the
    direct waves whatever their length: a 2048-point array and a 4097-point
    grid are here too.
    """

    POINTS = [make_grid(-PI, PI, 64).nodes(), make_grid(-PI, PI, 1024).nodes(),
              np.linspace(-PI, PI, 2048),
              make_grid(-PI, PI, 4096).standard_nodes(), PI, -PI]

    def check(self, model):
        paired = has_exact_pair(model)
        for x in self.POINTS:
            for order in range(4):
                try:
                    want = loop_evaluate(model, x, order)
                except RealnessViolation as exc:
                    with pytest.raises(RealnessViolation) as got:
                        evaluate_aperiodic(model, x, order)
                    assert str(got.value) == str(exc)
                    continue
                got = evaluate_aperiodic(model, x, order)
                assert type(got) is type(want)
                if paired:
                    assert np.all(np.abs(got - want) <= 16 * EPS * term_scale(model, x, order))
                else:
                    assert_same_bits(got, want)

    def test_fitted_models(self):
        for label, model in fitted_models():
            try:
                self.check(model)
            except AssertionError as exc:
                raise AssertionError(label) from exc

    @pytest.mark.parametrize("name", sorted(HAND_BUILT))
    def test_hand_built_models(self, name):
        self.check(HAND_BUILT[name])

    def test_broken_pair_raises_the_same_message(self):
        model = AperiodicModel(
            sine_modes=((1.3 + 0.4j, 0.8 - 0.3j), (2.0 + 0j, 1.0 + 0j),
                        (1.3 - 0.4j, 0.8 + 0.1j)))
        x = make_grid(-PI, PI, 64).nodes()
        with pytest.raises(RealnessViolation) as want:
            loop_evaluate(model, x, 1)
        with pytest.raises(RealnessViolation) as got:
            evaluate_aperiodic(model, x, 1)
        assert str(got.value) == str(want.value)


def draw_wavenumbers(kind, rng, count):
    if kind == "real":
        return rng.uniform(-40, 40, count) + 0j
    if kind == "complex":
        return rng.uniform(-40, 40, count) + 1j * rng.uniform(-40, 40, count)
    if kind == "imaginary":
        return 1j * rng.uniform(-220, 220, count)
    return rng.uniform(-1e-6, 1e-6, count) + 1j * rng.uniform(-1e-6, 1e-6, count)


def grid_waves(model, grid):
    """The grid's nodes and the waves a decomposition of the model keeps there (None: direct)."""
    x = grid.standard_nodes()
    x.flags.writeable = False
    return x, _block_waves(model, x, grid.standard_step)


def evaluate_on_grid(model, grid, order):
    """evaluate_aperiodic at the grid's nodes with the order-0 waves a decomposition keeps."""
    x, waves = grid_waves(model, grid)
    return evaluate_aperiodic(model, x, order, waves=waves)


class TestBlockwiseWaves:
    """Long grids take blocked waves: close to the direct ones."""

    @pytest.mark.parametrize("a, b", [(-PI, PI), (0.0, 1.0), (1000.0, 1006.0), (36.364, 134.484)])
    def test_only_size_chooses_the_path(self, a, b, monkeypatch):
        # grid calls block from 2049 nodes on, on any interval; arrays given
        # without waves never block, and no waves are made for 2-D arrays or
        # fewer nodes; both orders of a decomposition take its one set of waves
        used = []

        def spy(c, cos, waves):
            used.append(waves)
            return _mode_product(c, cos, waves)

        monkeypatch.setattr("gfs.core._mode_product", spy)
        jumps = sine_sum_jumps([0.45], [1.3], 4)
        for N, blocked in ((2047, False), (2048, True), (32768, True)):
            grid = make_grid(a, b, N)
            used.clear()
            dec = gfs_decompose(SampledSignal(grid, np.zeros(N + 1)), 1, jumps)
            gfs_derivative(dec)
            assert (dec.waves is not None) == blocked, N
            assert len(used) == (2 if blocked else 0) and all(w is dec.waves for w in used), N
        model = build_aperiodic_model(jumps, 1)
        grid = make_grid(a, b, 4096)
        x, waves = grid_waves(model, grid)
        used.clear()
        evaluate_aperiodic(model, x)
        assert used == []
        assert _block_waves(model, x.reshape(1, -1), grid.standard_step) is None
        assert _block_waves(model, x[:2048], grid.standard_step) is None
        with pytest.raises(ValueError, match="other nodes"):
            evaluate_aperiodic(model, x.reshape(1, -1), waves=waves)

    @pytest.mark.parametrize("kind", ["real", "complex", "imaginary", "tiny"])
    @pytest.mark.parametrize("N", [2048, 4096, 32768])
    def test_blocked_waves_match_direct_waves(self, kind, N):
        # one real mode per model: a real k, an imaginary k with the
        # amplitude that makes its wave real, or a complex k with its
        # conjugate partner (a lone complex mode is not real, so the product
        # itself is checked on it); each of its terms stays within
        # 16 eps (1 + |k| pi) |k|^order max|wave| of the direct loop's
        grid = make_grid(-PI, PI, N)
        x, h = grid.standard_nodes(), grid.standard_step
        rng = np.random.default_rng(N + len(kind))
        for k in draw_wavenumbers(kind, rng, 6):
            for order in range(4):
                for turn, family in enumerate(("sine_modes", "cosine_modes"), start=order):
                    sign, wave = QUARTER_TURNS[turn % 4]
                    if kind == "real":
                        modes = ((k.real + 0j, 1.0 + 0j),)
                    elif kind == "imaginary":
                        modes = ((k, -1j if family == "sine_modes" else 1.0 + 0j),)
                    else:
                        modes = ((k, 1.0 + 0j), (k.conjugate(), 1.0 + 0j))
                    model = AperiodicModel(**{family: modes})
                    want = loop_evaluate(model, x, order)
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        got = evaluate_on_grid(model, grid, order)
                    bound = 16 * EPS * (1 + abs(k) * PI) * len(modes) * abs(k) ** order * max(
                        1.0, np.max(np.abs(wave(k * x))))
                    assert np.max(np.abs(got - want)) <= bound, (k, order, family)
                    if kind in ("complex", "tiny"):
                        # the lone mode, imaginary part and all, straight from the product
                        lone = AperiodicModel(**{family: modes[:1]})
                        waves = _block_waves(lone, x, h)
                        assert waves.block == min(math.isqrt(N + 1), int(0.5 / (abs(k.imag) * h)))
                        got = _mode_product(*map(np.asarray, _order_terms(waves.terms, order)), waves)
                        want = sign * k ** order * wave(k * x)
                        assert np.max(np.abs(got - want)) <= bound / 2, (k, order, family)

    def test_fitted_models_match_the_direct_loop(self):
        grid = make_grid(-PI, PI, 32768)
        x = grid.standard_nodes()
        for label, model in fitted_models():
            for order in range(4):
                try:
                    want = loop_evaluate(model, x, order)
                except RealnessViolation:
                    with pytest.raises(RealnessViolation):
                        evaluate_on_grid(model, grid, order)
                    continue
                got = evaluate_on_grid(model, grid, order)
                scale = max((abs(k) for k, _ in model.sine_modes + model.cosine_modes),
                            default=1.0) ** order
                assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, scale), label

    # x^3 on this interval with FD jumps (stencil width 4n+5) of its N=256
    # grid and n=2 fits a cancelling model: the cosine mode k = 1.2e-5i
    # carries |a| = 3.8e9, |a k| = 4.7e4, against an O(1) function.
    CUBIC_INTERVAL = (-2.685170396248899, 2.9262462836083394)
    CANCELLING_MODEL = AperiodicModel(
        sine_modes=((0.2882965618014804 + 0.3403697647961487j, 17.567387632948275 + 14.379844387542413j),
                    (0.2882965618014804 - 0.3403697647961487j, 17.567387632948275 - 14.379844387542413j)),
        cosine_modes=((67.29584003630917j, -1.396211513695034e-103 - 0j),
                      (1.2264258614055646e-05j, 3835109159.0507197 + 0j)))

    @staticmethod
    def assert_matches_loop_to_mode_scale(model, grid, order):
        """Blocked sum vs the direct loop, within 16 eps of sum |a k^order| (1+|k| pi) max|wave|.

        Returns that sum.
        """
        x = grid.standard_nodes()
        want = loop_evaluate(model, x, order)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = evaluate_on_grid(model, grid, order)
        scale = sum(abs(a * k ** order) * (1 + abs(k) * PI) * math.cosh(k.imag * PI)
                    for k, a in model.sine_modes + model.cosine_modes)
        assert np.max(np.abs(got - want)) <= 16 * EPS * max(1.0, scale), order
        return scale

    @pytest.mark.parametrize("N", [4096, 32768])
    def test_cancelling_fit_matches_the_direct_loop(self, N):
        grid = make_grid(*self.CUBIC_INTERVAL, N)
        for order in range(4):
            self.assert_matches_loop_to_mode_scale(self.CANCELLING_MODEL, grid, order)

    @pytest.mark.parametrize("N", [4096, 32768])
    def test_fd_fit_of_a_cubic_meets_its_tolerance(self, N):
        # the same cubic, n=2, FD jumps of the long grid itself: blocked
        # waves stay at the direct loop's accuracy and the derivative within
        # 1e-4, the tolerance of the cubic n=2 FD-jump benchmark cases
        grid = make_grid(*self.CUBIC_INTERVAL, N)
        u = sample(get_function("monomial", m=3), grid)
        dec = gfs_decompose(u, 2, estimate_jumps(u, 8, 6))
        for order in range(2):
            self.assert_matches_loop_to_mode_scale(dec.aperiodic, grid, order)
        err = np.max(np.abs(gfs_derivative(dec).values - 3.0 * grid.nodes() ** 2))
        assert err <= 1e-4

    @pytest.mark.parametrize("im", [5.0, 30.0, 100.0])
    def test_cancelling_pair_stays_real(self, im):
        # sin(i y x) + sin(-i y x) and i cos(i y x) - i cos(-i y x) are
        # exactly 0, and so are their derivatives: terms of size cosh(y pi)
        # cancel exactly on the blocked grid and at direct nodes alike
        grid = make_grid(-PI, PI, 4096)
        for family, a in (("sine_modes", 1.0 + 0j), ("cosine_modes", 1j)):
            model = AperiodicModel(**{family: ((im * 1j, a), (-im * 1j, a.conjugate()))})
            for order in range(4):
                blocked = evaluate_on_grid(model, grid, order)
                direct = evaluate_aperiodic(model, np.linspace(-PI, PI, 100), order)
                assert not blocked.any() and not direct.any(), (family, order)

    @staticmethod
    def draw_model(rng, h):
        """Real modes, exact conjugate pairs, unpaired complex modes and wide modes.

        Unpaired modes are real on their own (an imaginary k whose amplitude
        makes the wave real) or pairs off by 1e-15 in one amplitude; wide
        modes are exact pairs whose |Im k| <= 220 cuts the block to 8 points
        or fewer, down to B <= 1 (to 11-17 points at N = 32768, where a
        shorter block needs a wave that overflows). Amplitudes carry
        1/cosh(Im k pi), so these terms stay O(1) on [-pi, pi]. Cancelling
        pairs do not: an imaginary k, |Im k| <= 100, with an O(1) amplitude
        whose two terms, of size up to cosh(100 pi), sum to 0.
        """
        families = ([], [])
        for _ in range(rng.integers(1, 7)):
            family = families[rng.integers(2)]
            kind = rng.integers(5)
            if kind == 4:
                a = rng.uniform(-2, 2) * (1.0 if family is families[0] else 1j)
                k = complex(0.0, rng.uniform(-100, 100))
                family.extend([(k, a + 0j), (k.conjugate(), np.conj(a) + 0j)])
                continue
            im = rng.uniform(min(0.0625 / h, 150.0), 220.0) if kind == 3 else rng.uniform(-40, 40)
            k = complex(rng.uniform(-40, 40), im)
            a = complex(*rng.uniform(-2, 2, 2)) / math.cosh(k.imag * PI)
            if kind == 0:
                family.append((k.real + 0j, a.real + 0j))
            elif kind == 2 and rng.integers(2):
                k = complex(0.0, k.imag)
                family.append((k, a.real * (-1j if family is families[0] else 1.0)))
            else:
                near = 1e-15j * abs(a) if kind == 2 else 0.0
                family.extend([(k, a), (k.conjugate(), a.conjugate() + near)])
        return AperiodicModel(sine_modes=tuple(families[0]), cosine_modes=tuple(families[1]))

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([2048, 4097, 32768]))
    @settings(max_examples=30, deadline=None)
    def test_random_models_match_the_direct_loop(self, seed, N):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-50, 50)
        grid = make_grid(a, a + rng.uniform(0.01, 100), N)
        model = self.draw_model(rng, grid.standard_step)
        scale = 1.0
        for order in range(4):
            scale = max(scale, self.assert_matches_loop_to_mode_scale(model, grid, order))
        # a pair broken at the size of the model's terms
        broken = AperiodicModel(
            sine_modes=model.sine_modes + ((1.3 + 0.4j, (0.8 - 0.3j) * scale),
                                           (1.3 - 0.4j, (0.8 + 0.1j) * scale)),
            cosine_modes=model.cosine_modes)
        for order in range(4):
            with pytest.raises(RealnessViolation):
                evaluate_on_grid(broken, grid, order)

    def test_broken_pair_still_raises(self):
        model = AperiodicModel(
            sine_modes=((1.3 + 0.4j, 0.8 - 0.3j), (2.0 + 0j, 1.0 + 0j),
                        (1.3 - 0.4j, 0.8 + 0.1j)))
        grid = make_grid(-PI, PI, 4096)
        with pytest.raises(RealnessViolation):
            evaluate_on_grid(model, grid, 1)

    @pytest.mark.parametrize("family", ["sine_modes", "cosine_modes"])
    def test_mode_at_the_amplitude_guard_edge(self, family):
        # |Im k| pi = 710.3: the wave at x = +-pi is within 15% of overflow
        k = 0.3 + 226.1j
        model = AperiodicModel(**{family: ((k, 1e-300 + 0j), (k.conjugate(), 1e-300 + 0j))})
        grid = make_grid(-PI, PI, 32768)
        for order in range(4):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out = evaluate_on_grid(model, grid, order)
            assert np.all(np.isfinite(out))


class TestSharedWaves:
    """A decomposition's nodes and waves serve every order with the bits of waves made afresh.

    The reference is the derivative as (dp + da) * factor, with da evaluated
    from waves made again at the grid's nodes for each order.
    """

    @staticmethod
    def decompose(model, grid, rng):
        """gfs_decompose of random samples on the grid, with ``model`` as its fit."""
        u = SampledSignal(grid, rng.standard_normal(grid.N + 1))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("gfs.core.build_aperiodic_model", lambda jumps, n: model)
            return gfs_decompose(u, 1, JumpData(J=np.ones(4)))

    @staticmethod
    def fresh(dec, order):
        x = dec.grid.standard_nodes()
        waves = _block_waves(dec.aperiodic, x, dec.grid.standard_step)
        da = evaluate_aperiodic(dec.aperiodic, x, order, waves=waves)
        return (spectral_derivative_periodic(dec.periodic, order) + da) * standard_chain_factor(dec.grid) ** order

    def check(self, model, grid, rng):
        """Returns the decomposition, or None when order 0 raises (as it does with fresh waves)."""
        try:
            dec = self.decompose(model, grid, rng)
        except RealnessViolation as exc:
            x = grid.standard_nodes()
            with pytest.raises(RealnessViolation) as want:
                evaluate_aperiodic(model, x, waves=_block_waves(model, x, grid.standard_step))
            assert str(want.value) == str(exc)
            return None
        for order in (1, 2, 3):
            try:
                want = self.fresh(dec, order)
            except RealnessViolation as exc:
                with pytest.raises(RealnessViolation) as got:
                    gfs_derivative(dec, order)
                assert str(got.value) == str(exc)
                continue
            assert_same_bits(gfs_derivative(dec, order).values, want)
        return dec

    @staticmethod
    def draw_grid(rng, N):
        a = rng.uniform(-50, 50)
        return make_grid(a, a + rng.uniform(0.01, 100), N)

    @pytest.mark.parametrize("N", [2049, 4097, 16384, 32768])
    def test_fitted_models(self, N):
        rng = np.random.default_rng(N)
        decs = []
        for label, model in fitted_models():
            for grid in (make_grid(-PI, PI, N), self.draw_grid(rng, N)):
                try:
                    decs.append(self.check(model, grid, rng))
                except AssertionError as exc:
                    raise AssertionError(label) from exc
        # most take the product path; the others are empty or raise at order 0
        assert sum(dec is not None and dec.waves is not None for dec in decs) > len(decs) // 2

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([2049, 4097, 16384, 32768]))
    @settings(max_examples=30, deadline=None)
    def test_drawn_models(self, seed, N):
        # exact pairs, unpaired complex and imaginary k, wide modes down to
        # B <= 1 and cancelling pairs (TestBlockwiseWaves.draw_model)
        rng = np.random.default_rng(seed)
        grid = self.draw_grid(rng, N)
        self.check(TestBlockwiseWaves.draw_model(rng, grid.standard_step), grid, rng)

    @pytest.mark.parametrize("N, im, B", [(4097, 150.0, 2), (4097, 40.0, 8), (32768, 150.0, 17)])
    def test_short_blocks(self, N, im, B):
        # wide exact pairs in both families cut the block to B points
        rng = np.random.default_rng(N)
        k = complex(2.5, im)
        a = complex(0.6, -1.1) / math.cosh(im * PI)
        model = AperiodicModel(sine_modes=((k, a), (k.conjugate(), a.conjugate()), (1.7 + 0j, 0.3 + 0j)),
                               cosine_modes=((k.conjugate(), a), (k, a.conjugate())))
        for grid in (make_grid(-PI, PI, N), self.draw_grid(rng, N)):
            assert self.check(model, grid, rng).waves.block == B

    @pytest.mark.parametrize("N", [4097, 32768])
    def test_cancelling_pairs_give_exact_zeros(self, N):
        model = AperiodicModel(sine_modes=((30j, 1.0 + 0j), (-30j, 1.0 + 0j)),
                               cosine_modes=((100j, 1j), (-100j, -1j)))
        dec = self.check(model, make_grid(-PI, PI, N), np.random.default_rng(N))
        assert dec.waves is not None
        for order in range(4):
            assert not evaluate_aperiodic(model, dec.nodes, order, waves=dec.waves).any(), order

    def test_broken_pair_raises_the_same_message_at_every_order(self):
        model = AperiodicModel(
            sine_modes=((1.3 + 0.4j, 0.8 - 0.3j), (2.0 + 0j, 1.0 + 0j),
                        (1.3 - 0.4j, 0.8 + 0.1j)))
        grid = make_grid(-PI, PI, 4096)
        x, waves = grid_waves(model, grid)
        for order in range(4):
            with pytest.raises(RealnessViolation) as want:
                evaluate_aperiodic(model, x, order, waves=_block_waves(model, x, grid.standard_step))
            with pytest.raises(RealnessViolation) as got:
                evaluate_aperiodic(model, x, order, waves=waves)
            assert str(got.value) == str(want.value), order

    def test_empty_model_takes_the_direct_path(self):
        # no terms, no waves: the derivative is the periodic part's alone
        grid = make_grid(0.0, 1.0, 32768)
        dec = self.check(AperiodicModel(), grid, np.random.default_rng(0))
        assert dec.waves is None
        for order in (1, 2):
            assert_same_bits(gfs_derivative(dec, order).values, spectral_derivative_periodic(
                dec.periodic, order) * standard_chain_factor(grid) ** order)

    def test_nodes_and_waves_are_read_only(self):
        f = get_function("gaussian")
        dec = gfs_decompose(sample(f, make_grid(0.0, 1.0, 4096)), 3, JumpData(J=jumps_from_analytic(f, 12).J))
        assert dec.waves.nodes is dec.nodes and dec.waves.model is dec.aperiodic
        for name in ("nodes", "sin_start", "cos_start", "inner"):
            array = getattr(dec.waves, name)
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        assert all(isinstance(column, tuple) for column in dec.waves.terms)
        small = gfs_decompose(sample(f, make_grid(0.0, 1.0, 64)), 3, JumpData(J=jumps_from_analytic(f, 12).J))
        assert small.waves is None and not small.nodes.flags.writeable


def per_order_terms(model, order):
    """The terms of the order-th derivative, each order pairing the model's modes anew.

    Columns k, c, cos and paired, as ``_mode_terms`` and ``_order_terms``
    formed them before the pairs were set once per model.
    """
    k, c, cos, paired = [], [], [], []
    unpaired = {}
    for turn, modes in enumerate((model.sine_modes, model.cosine_modes), start=order):
        odd = turn % 2 == 1
        for k_j, a in modes:
            if (i := unpaired.pop((odd, np.conj(k_j), np.conj(a)), None)) is not None:
                c[i] *= 2.0
                paired[i] = True
                continue
            c_j = a * k_j ** order
            if turn % 4 >= 2:
                c_j = -c_j
            unpaired[(odd, k_j, a)] = len(k)
            k.append(k_j)
            c.append(c_j)
            cos.append(odd)
            paired.append(False)
    return k, c, cos, paired


class TestPairsOfEveryOrder:
    """The exact pairs are set once per model: every order's columns are those of pairing at that order.

    So the terms and waves a decomposition makes serve every order: the
    waves' terms are the model's, exact pairs first, with the wavenumbers
    of the block-start waves.
    """

    @staticmethod
    def check(model, grid):
        terms = _mode_terms(model)
        x, waves = grid_waves(model, grid)
        for order in range(6):
            k, c, cos, paired = per_order_terms(model, order)
            got_c, got_cos = _order_terms(terms, order)
            assert np.array(terms[0], dtype=complex).tobytes() == np.array(k, dtype=complex).tobytes(), order
            assert np.array(got_c, dtype=complex).tobytes() == np.array(c, dtype=complex).tobytes(), order
            assert got_cos == cos and terms[3] == paired, order
        if waves is not None:
            first = sorted(range(len(paired)), key=lambda i: not paired[i])
            assert waves.terms[3] == (True,) * waves.pairs + (False,) * (len(paired) - waves.pairs)
            for got, column in zip(waves.terms, terms):
                assert np.array(got, dtype=complex).tobytes() == np.array(column, dtype=complex)[first].tobytes()
            assert_same_bits(waves.sin_start.view(float),
                             np.sin(np.multiply.outer(x[::waves.block], np.array(waves.terms[0]))).view(float))

    def test_fitted_and_hand_built_models(self):
        grid = make_grid(-PI, PI, 4097)
        models = list(fitted_models()) + sorted(HAND_BUILT.items()) + [
            ("underflowing", AperiodicModel(sine_modes=((1e-200 + 0j, 1.0 + 0j), (1e-200 + 0j, 2.0 + 0j))))]
        for label, model in models:
            try:
                self.check(model, grid)
            except AssertionError as exc:
                raise AssertionError(label) from exc

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([2049, 4097, 32768]))
    @settings(max_examples=30, deadline=None)
    def test_drawn_models(self, seed, N):
        rng = np.random.default_rng(seed)
        grid = make_grid(-PI, PI, N)
        self.check(TestBlockwiseWaves.draw_model(rng, grid.standard_step), grid)


class TestWavesOfOtherNodesOrModels:
    """Waves given any model or node array but their own raise, equal copies included."""

    MODEL = AperiodicModel(sine_modes=((1.3 + 0j, 0.7 + 0j),))

    def test_scattered_points_take_the_direct_waves(self):
        # a grid's spacing applied to sorted random points of the same count
        # was off by 0.024 here; without waves they take the direct waves,
        # and a grid's waves are refused
        x = np.sort(np.random.default_rng(7).uniform(-PI, PI, 4096))
        got = evaluate_aperiodic(self.MODEL, x)
        assert_same_bits(got, loop_evaluate(self.MODEL, x, 0))
        assert np.max(np.abs(got - 0.7 * np.sin(1.3 * x))) <= 4 * EPS
        _, waves = grid_waves(self.MODEL, make_grid(-PI, PI, 4095))
        with pytest.raises(ValueError, match="other nodes"):
            evaluate_aperiodic(self.MODEL, x, waves=waves)

    def test_waves_of_another_grid_raise(self):
        _, waves = grid_waves(self.MODEL, make_grid(-PI, PI, 4096))
        for N in (4095, 4097, 8192):
            with pytest.raises(ValueError, match="other nodes"):
                evaluate_aperiodic(self.MODEL, make_grid(-PI, PI, N).standard_nodes(), 1, waves=waves)
        # equal nodes of another grid or array raise too; the waves' own serve
        x, own = grid_waves(self.MODEL, make_grid(-PI, PI, 4096))
        for other in (make_grid(3.0, 7.0, 4096).standard_nodes(), x.copy(), x):
            assert np.array_equal(other, x)
            with pytest.raises(ValueError, match="other nodes"):
                evaluate_aperiodic(self.MODEL, other, 1, waves=waves)
        got = evaluate_aperiodic(self.MODEL, x, 1, waves=own)
        assert np.max(np.abs(got - loop_evaluate(self.MODEL, x, 1))) <= 16 * EPS * (1 + 1.3 * PI)

    def test_waves_of_another_model_raise(self):
        models = [model for _, model in fitted_models()][:6] + [self.MODEL]
        grid = make_grid(-1.0, 2.0, 16384)
        rng = np.random.default_rng(3)
        decs = [TestSharedWaves.decompose(model, grid, rng) for model in models]
        for dec, model in zip(decs, models[1:] + models[:1]):
            wrong = dataclasses.replace(dec, aperiodic=model)
            for order in (1, 2):
                with pytest.raises(ValueError, match="another model"):
                    gfs_derivative(wrong, order)
        # a model of the same wavenumbers but other amplitudes raises too
        same_k = dataclasses.replace(decs[-1], aperiodic=AperiodicModel(sine_modes=((1.3 + 0j, -2.0 + 0j),)))
        with pytest.raises(ValueError, match="another model"):
            gfs_derivative(same_k, 1)
        # the same wavenumber as a cancelling exact pair and as a lone mode:
        # the pair's folded waves would double the lone mode's sinh
        pair = AperiodicModel(sine_modes=((3j, 0.5 + 0j), (-3j, 0.5 + 0j)))
        lone = AperiodicModel(sine_modes=((3j, -1j),))
        x, waves = grid_waves(pair, make_grid(-PI, PI, 4096))
        for order in range(4):
            with pytest.raises(ValueError, match="another model"):
                evaluate_aperiodic(lone, x, order, waves=waves)

    def test_terms_that_underflow_to_zero_stay_unpaired(self):
        # two real modes of one tiny k: a k^m underflows to 0 from order 2
        # on, but the amplitudes differ, so the two terms are never a pair
        # and the order-0 waves serve every order
        model = AperiodicModel(sine_modes=((1e-200 + 0j, 1.0 + 0j), (1e-200 + 0j, 2.0 + 0j)))
        x, waves = grid_waves(model, make_grid(-PI, PI, 4096))
        assert waves.pairs == 0 and waves.terms[3] == (False, False)
        for order in range(4):
            c, _ = _order_terms(waves.terms, order)
            got = evaluate_aperiodic(model, x, order, waves=waves)
            if order >= 2:
                assert c == [0.0, 0.0] and not got.any(), order
            assert np.max(np.abs(got - loop_evaluate(model, x, order))) <= 16 * EPS, order

    def test_equal_copies_of_a_decompositions_nodes_or_model_raise(self):
        # the waves serve the decomposition's own objects alone, not equal copies
        f = get_function("gaussian")
        dec = gfs_decompose(sample(f, make_grid(0.0, 1.0, 4096)), 3, JumpData(J=jumps_from_analytic(f, 12).J))
        assert dec.waves is not None
        model = AperiodicModel(sine_modes=dec.aperiodic.sine_modes, cosine_modes=dec.aperiodic.cosine_modes)
        assert model == dec.aperiodic and model is not dec.aperiodic
        for wrong, match in ((dataclasses.replace(dec, nodes=dec.nodes.copy()), "other nodes"),
                             (dataclasses.replace(dec, aperiodic=model), "another model")):
            for order in (1, 2):
                with pytest.raises(ValueError, match=match):
                    gfs_derivative(wrong, order)
        # the decomposition itself still takes its waves
        gfs_derivative(dec, 1)


@pytest.mark.parametrize("N", [8, 9, 64, 65, 1023, 4096, 32768])
def test_spectral_derivative_writes_the_concatenated_bits(N):
    values = np.random.default_rng(N).standard_normal(N + 1)
    ik = 1j * np.arange(N // 2 + 1)
    for order in range(5):
        du = np.fft.irfft(np.fft.rfft(values[:N]) * (ik if order == 1 else ik ** order), n=N)
        assert_same_bits(spectral_derivative_periodic(values, order), np.concatenate([du, du[:1]]))


@pytest.mark.parametrize("N", [8, 9, 64, 4095, 4096, 32768])
def test_shared_multipliers_keep_the_bits_and_are_read_only(N):
    ik = 1j * np.arange(N // 2 + 1)
    for order in range(4):
        shared = _multiplier(N, order)
        want = ik if order == 1 else ik ** order
        np.testing.assert_array_equal(shared.view(np.uint64), want.view(np.uint64))
        assert _multiplier(N, order) is shared
        with pytest.raises(ValueError, match="read-only"):
            shared[0] = 0.0


class TestRealnessCheck:
    """The check compares max|Im| with REALNESS_TOL (1 + max|Re|) as before, on the direct path.

    The scale 1 + max|Re| is only formed for a residual above the bare
    tolerance; the raise, its message, and NaN and inf pass as before.
    """

    @staticmethod
    def model(imag):
        return AperiodicModel(sine_modes=((1.0 + 0j, complex(1.0, imag)),))

    @pytest.mark.parametrize("x", [PI / 2, make_grid(-PI, PI, 64).standard_nodes()])
    def test_a_residual_just_above_the_scaled_tolerance_raises(self, x):
        s = np.sin(np.asarray(x))
        tol = REALNESS_TOL * (1.0 + np.max(np.abs(1.0 * s)))
        imag = tol / np.max(np.abs(s))
        while np.max(np.abs(imag * s)) <= tol:
            imag = np.nextafter(imag, math.inf)
        residual = np.max(np.abs(imag * s))
        with pytest.raises(RealnessViolation) as got:
            evaluate_aperiodic(self.model(imag), x)
        assert str(got.value) == f"imaginary residual {residual:.3e} exceeds {tol:.3e}"
        below = np.nextafter(imag, 0.0)
        while np.max(np.abs(below * s)) > tol:
            below = np.nextafter(below, 0.0)
        # at the scaled tolerance, between it and the bare one, and below both: no raise
        for imag in (below, 1.5 * REALNESS_TOL, 0.5 * REALNESS_TOL):
            assert_same_bits(evaluate_aperiodic(self.model(imag), x), 1.0 * s)

    def test_nan_and_inf_pass_as_before(self):
        x = make_grid(-PI, PI, 64).standard_nodes()
        for a in (complex(1.0, math.nan), complex(math.inf, 1e-3), complex(math.nan, 1.0)):
            model = AperiodicModel(sine_modes=((1.0 + 0j, a),))
            with np.errstate(invalid="ignore"):
                got = evaluate_aperiodic(model, x)
                assert_same_bits(got, loop_evaluate(model, x, 0))


class TestSharedNodesAndMultipliers:
    """Decompositions of one N share its nodes and multipliers and give the bits they give alone."""

    SIGNALS = (("gaussian", -PI, PI), ("multimode", -1.0, 2.0))

    @staticmethod
    def run(name, a, b, N):
        f = get_function(name)
        dec = gfs_decompose(sample(f, make_grid(a, b, N)), 3, JumpData(J=jumps_from_analytic(f, 12).J))
        return dec, [gfs_derivative(dec, order).values for order in (1, 2)]

    @pytest.mark.parametrize("N", [64, 4096])
    def test_interleaved_signals_keep_their_bits(self, N):
        standard_nodes.cache_clear()
        _multiplier.cache_clear()
        alone = [self.run(*signal, N) for signal in self.SIGNALS]
        f, g = (get_function(name) for name, _, _ in self.SIGNALS)
        u = sample(f, make_grid(-PI, PI, N))
        v = sample(g, make_grid(-1.0, 2.0, N))
        decs = [gfs_decompose(u, 3, jumps_from_analytic(f, 12)), gfs_decompose(v, 3, JumpData(J=jumps_from_analytic(g, 12).J))]
        assert decs[0].nodes is decs[1].nodes is standard_nodes(N)
        assert decs[0].aperiodic != decs[1].aperiodic
        got = [[], []]
        for order in (1, 2):
            for i, dec in enumerate(decs):
                got[i].append(gfs_derivative(dec, order).values)
        for (dec_alone, derivs_alone), dec, derivs in zip(alone, decs, got):
            assert (dec.waves is not None) == (N == 4096)
            assert_same_bits(dec.periodic, dec_alone.periodic)
            for d, d_alone in zip(derivs, derivs_alone):
                assert_same_bits(d, d_alone)

    @pytest.mark.parametrize("N", [64, 4096])
    def test_unit_chain_factor_keeps_the_bits(self, N):
        # on [0, 2 pi] the chain factor is exactly 1.0, and the product by it is skipped
        f = get_function("gaussian")
        grid = make_grid(0.0, 2 * PI, N)
        assert standard_chain_factor(grid) == 1.0
        dec = gfs_decompose(sample(f, grid), 3, JumpData(J=jumps_from_analytic(f, 12).J))
        for order in (1, 2, 3):
            want = spectral_derivative_periodic(dec.periodic, order)
            want += evaluate_aperiodic(dec.aperiodic, dec.nodes, order, waves=dec.waves)
            want *= standard_chain_factor(grid) ** order
            assert_same_bits(gfs_derivative(dec, order).values, want)


class TestEvaluate:
    def test_empty_model_is_zero(self):
        m = AperiodicModel(sine_modes=(), cosine_modes=())
        assert evaluate_aperiodic(m, 1.3) == 0.0
        assert evaluate_aperiodic(m, 1.3, order=2) == 0.0

    def test_single_sine_value(self):
        m = AperiodicModel(sine_modes=((0.5 + 0j, 1.0 + 0j),), cosine_modes=())
        assert evaluate_aperiodic(m, PI) == pytest.approx(1.0)

    def test_single_sine_derivative(self):
        m = AperiodicModel(sine_modes=((0.5 + 0j, 1.0 + 0j),), cosine_modes=())
        assert evaluate_aperiodic(m, 0.0, order=1) == pytest.approx(0.5)

    def test_jump_matching(self):
        # the fitted model carries exactly the jumps it was built from
        f = get_function("gaussian")
        jumps = jumps_from_analytic(f, 12)
        model = build_aperiodic_model(jumps, 3)
        for m in range(12):
            assert model_jump(model, m) == pytest.approx(jumps.J[m], rel=1e-7,
                                                         abs=1e-9)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3))
    @settings(max_examples=50, deadline=None)
    def test_jump_matching_random_mode_sums(self, seed, n):
        rng = np.random.default_rng(seed)
        ks = np.sort(rng.uniform(0.3, 8.0, size=n))
        if np.min(np.diff(ks, prepend=0.0)) < 0.15:
            ks = np.cumsum(np.full(n, 1.0)) + rng.uniform(0.1, 0.5)
        # keep clear of integers where sin(k pi) degenerates
        ks = np.floor(ks) + np.clip(ks - np.floor(ks), 0.15, 0.85)
        amps = rng.uniform(0.5, 2.0, size=n)
        jumps = sine_sum_jumps(ks, amps, 4 * n)
        model = build_aperiodic_model(jumps, n)
        for m in range(4 * n):
            scale = max(1.0, max(abs(a) * abs(k) ** m
                                 for k, a in model.sine_modes))
            assert abs(model_jump(model, m) - jumps.J[m]) <= 1e-6 * scale


class TestDerivativeOrder:
    """Derivative orders are integers: a fraction or a negative order is rejected, not rounded."""

    @staticmethod
    def calls(order):
        grid = make_grid(-PI, PI, 64)
        u = sample(get_function("gaussian"), grid)
        dec = gfs_decompose(u, 2, jumps_from_analytic(get_function("gaussian"), 8))
        return {
            "evaluate_aperiodic": lambda: evaluate_aperiodic(dec.aperiodic, grid.standard_nodes(), order),
            "gfs_derivative": lambda: gfs_derivative(dec, order).values,
            "spectral_derivative_periodic": lambda: spectral_derivative_periodic(u.values, order),
            "fft_derivative": lambda: fft_derivative(u, order).values,
        }

    @pytest.mark.parametrize("name", ["evaluate_aperiodic", "gfs_derivative",
                                      "spectral_derivative_periodic", "fft_derivative"])
    @pytest.mark.parametrize("order", [1.5, 2.7, -1])
    def test_bad_order_raises(self, order, name):
        with pytest.raises(ValueError, match="^order must be "):
            self.calls(order)[name]()

    def test_zeroth_derivative_is_not_a_gfs_derivative(self):
        with pytest.raises(ValueError, match="^order must be >= 1, got 0"):
            self.calls(0)["gfs_derivative"]()

    def test_numpy_integer_order(self):
        want = {name: call() for name, call in self.calls(2).items()}
        for name, call in self.calls(np.int64(2)).items():
            assert_same_bits(call(), want[name])


class TestDecompose:
    def test_trig_poly_passthrough(self):
        f = get_function("trig_poly", seed=7)
        g = make_grid(-PI, PI, 64)
        u = sample(f, g)
        dec = gfs_decompose(u, 2, jumps_from_analytic(f, 8))
        assert dec.aperiodic.empty
        np.testing.assert_allclose(dec.periodic, u.values)

    def test_splitting_is_exact(self):
        f = get_function("log_fn")
        g = make_grid(-PI, PI, 64)
        u = sample(f, g)
        dec = gfs_decompose(u, 3, jumps_from_analytic(f, 12))
        ua = evaluate_aperiodic(dec.aperiodic, g.standard_nodes())
        scale = np.max(np.abs(u.values))
        np.testing.assert_allclose(dec.periodic + ua, u.values,
                                   atol=1e-12 * scale)

    def test_periodic_part_continuous_at_seam(self):
        f = get_function("gaussian")
        g = make_grid(-PI, PI, 64)
        u = sample(f, g)
        dec = gfs_decompose(u, 3, jumps_from_analytic(f, 12))
        assert abs(dec.periodic[0] - dec.periodic[-1]) <= 1e-10

    def test_modulated_sine_fully_aperiodic(self):
        f = get_function("modulated_sine")
        g = make_grid(-PI, PI, 64)
        u = sample(f, g)
        dec = gfs_decompose(u, 2, jumps_from_analytic(f, 8))
        assert np.max(np.abs(dec.periodic)) <= 1e-12

    def test_ramp_aperiodic_part_is_ramp(self):
        f = get_function("monomial", m=1)
        g = make_grid(-PI, PI, 64)
        u = sample(f, g)
        dec = gfs_decompose(u, 1, jumps_from_analytic(f, 4))
        ua = evaluate_aperiodic(dec.aperiodic, g.standard_nodes())
        np.testing.assert_allclose(ua.real, g.nodes(), atol=1e-8)

    @pytest.mark.parametrize("n", [0, -1])
    def test_mode_count_below_one(self, n):
        f = get_function("gaussian")
        u = sample(f, make_grid(-PI, PI, 64))
        with pytest.raises(ValueError, match="mode count n must be >= 1"):
            gfs_decompose(u, n, jumps_from_analytic(f, 8))


class TestAffineInvariance:
    """On any [a, b], f(T(x)) with T onto [-pi, pi] differentiates to T' times f' on [-pi, pi]."""

    @given(st.sampled_from(["gaussian", "modulated_sine"]), st.integers(1, 3),
           st.sampled_from([32, 64, 256, 1024]), st.floats(-50, 50), st.floats(0.01, 100))
    @settings(max_examples=60, deadline=None)
    def test_derivative_on_a_drawn_interval(self, name, n, N, a, length):
        f = get_function(name)
        jumps = jumps_from_analytic(f, 4 * n)
        want = gfs_derivative(gfs_decompose(sample(f, make_grid(-PI, PI, N)), n, jumps)).values
        grid = make_grid(a, a + length, N)
        factor = standard_chain_factor(grid)
        u = SampledSignal(grid, f.value(to_standard_interval(grid.nodes(), grid)))
        drawn = JumpData(J=jumps.J * factor ** np.arange(4 * n), interval=(grid.a, grid.b))
        got = gfs_derivative(gfs_decompose(u, n, drawn)).values
        # T(x) rounds like the nodes, eps * max(|a|, |b|) / (b - a) relative
        # to the period, and the derivative lifts that by about N
        bound = 64 * N * EPS * (1 + max(abs(grid.a), abs(grid.b)) / grid.length)
        assert np.max(np.abs(got - factor * want)) <= bound * factor * np.max(np.abs(want))


class TestDerivative:
    def test_non_finite_derivative_is_a_numerical_failure(self):
        # the sine mode (3.5, 1e308) overflows at order 1: an ArithmeticError,
        # not BadSample, the ValueError of a function that cannot be sampled
        g = make_grid(-PI, PI, 64)
        dec = GFSDecomposition(grid=g, periodic=np.zeros(65),
                               aperiodic=AperiodicModel(sine_modes=((3.5, 1e308),)),
                               nodes=g.standard_nodes(), waves=None)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteDerivative, match="^non-finite derivative at node 0$"):
                gfs_derivative(dec, 1)
        assert issubclass(NonFiniteDerivative, ArithmeticError)

    def test_pure_harmonic(self):
        g = make_grid(-PI, PI, 64)
        u = sample(lambda x: math.sin(3 * x), g)
        jumps = JumpData(J=np.full(8, 1e-15))
        d = gfs_derivative(gfs_decompose(u, 2, jumps))
        np.testing.assert_allclose(d.values, 3 * np.cos(3 * g.nodes()),
                                   atol=1e-11)

    def test_gaussian_accuracy(self):
        f = get_function("gaussian")
        g = make_grid(-PI, PI, 64)
        u = sample(f, g)
        d = gfs_derivative(gfs_decompose(u, 3, jumps_from_analytic(f, 12)))
        exact = f.derivative(g.nodes(), 1)
        assert np.max(np.abs(d.values - exact)) <= 1e-12

    def test_multimode_accuracy(self):
        f = get_function("multimode", n_modes=30)
        g = make_grid(-PI, PI, 128)
        u = sample(f, g)
        d = gfs_derivative(gfs_decompose(u, 4, jumps_from_analytic(f, 16)))
        exact = f.derivative(g.nodes(), 1)
        assert np.max(np.abs(d.values - exact)) <= 1e-10

    def test_general_interval(self):
        # same function squeezed onto [0, 1]: errors stay spectral
        g = make_grid(0.0, 1.0, 64)
        f = lambda x: math.exp(-((x - 0.6) / 0.3) ** 2)
        u = sample(f, g)
        from gfs.jumps import estimate_jumps
        jumps = estimate_jumps(u, 8, 6)
        d = gfs_derivative(gfs_decompose(u, 2, jumps))
        exact = np.array([-2 * (x - 0.6) / 0.3 ** 2 * f(x) for x in g.nodes()])
        assert np.max(np.abs(d.values - exact)) <= 1e-3

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_periodic_fallback_equals_fft(self, seed):
        from gfs.baselines import fft_derivative
        f = get_function("trig_poly", seed=seed)
        g = make_grid(-PI, PI, 64)
        u = sample(f, g)
        d_gfs = gfs_derivative(gfs_decompose(u, 2, jumps_from_analytic(f, 8)))
        d_fft = fft_derivative(u)
        np.testing.assert_allclose(d_gfs.values, d_fft.values, atol=1e-12)
