import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gfs.baselines import (
    IllConditioned,
    bernoulli_coefficients,
    bernoulli_polynomial,
    eckhoff_V,
    eckhoff_derivative,
    eckhoff_singular,
    fft_derivative,
    polynomial_jump,
    prony_evaluate,
    prony_fit,
    roache_coefficients,
    roache_derivative,
)
from gfs.functions import FUNCTION_CATALOG, get_function
from gfs.grid import NonFiniteDerivative, SampledSignal, make_grid, sample, standard_chain_factor
from gfs.jumps import JumpData, estimate_jumps, fd_differentiate, jumps_from_analytic, to_standard_jumps
from gfs.spectral import spectral_derivative_periodic

PI = math.pi


def deriv_error(f, d, grid):
    exact = f.derivative(grid.nodes(), 1)
    return np.max(np.abs(d.values - exact))


class TestFftDerivative:
    def test_harmonic(self):
        g = make_grid(-PI, PI, 64)
        u = sample(lambda x: math.cos(2 * x), g)
        d = fft_derivative(u)
        np.testing.assert_allclose(d.values, -2 * np.sin(2 * g.nodes()),
                                   atol=1e-11)

    def test_gaussian_gibbs_error(self):
        f = get_function("gaussian")
        g = make_grid(-PI, PI, 64)
        err = deriv_error(f, fft_derivative(sample(f, g)), g)
        assert 3.4 <= err <= 5.1

    def test_ramp_gibbs_error(self):
        f = get_function("monomial", m=1)
        g = make_grid(-PI, PI, 64)
        err = deriv_error(f, fft_derivative(sample(f, g)), g)
        assert 35 <= err <= 55

    def test_periodic_extension_node(self):
        g = make_grid(-PI, PI, 64)
        u = sample(lambda x: math.sin(5 * x), g)
        d = fft_derivative(u)
        assert d.values[0] == pytest.approx(d.values[-1])


def test_an_overflowing_derivative_is_a_numerical_failure():
    # finite samples whose derivative overflows: an ArithmeticError, not the
    # BadSample of a function that cannot be sampled
    alternating = SampledSignal(make_grid(-PI, PI, 32), 1e308 * (-1.0) ** np.arange(33))
    f = get_function("modulated_sine", a=112)
    u = sample(f, make_grid(-PI, PI, 64))
    with np.errstate(over="ignore", invalid="ignore"):
        jumps = jumps_from_analytic(f, 8)
        for derivative in (lambda: fft_derivative(alternating), lambda: fd_differentiate(alternating),
                           lambda: roache_derivative(u, jumps, 8), lambda: eckhoff_derivative(u, jumps)):
            with pytest.raises(NonFiniteDerivative, match="^non-finite derivative at node 0$"):
                derivative()


def _complex_fft_derivative(values, order):
    """The complex fft/ifft form spectral_derivative_periodic had before rfft."""
    N = values.size - 1
    k = np.fft.fftfreq(N, d=1.0 / N)
    mult = (1j * k) ** order
    if N % 2 == 0 and order % 2 == 1:
        mult[N // 2] = 0.0
    du = np.fft.ifft(np.fft.fft(values[:N]) * mult).real
    return np.concatenate([du, du[:1]])


class TestRealFft:
    @pytest.mark.parametrize("N", [8, 9, 64, 65, 1000, 1023, 4096])
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_matches_the_complex_fft_form(self, N, order):
        rng = np.random.default_rng(N * 10 + order)
        values = rng.standard_normal(N + 1)
        values[N] = values[0]
        want = _complex_fft_derivative(values, order)
        got = spectral_derivative_periodic(values, order)
        assert got.shape == want.shape and got[-1] == got[0]
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_nyquist_mode(self, order):
        # an odd derivative of the Nyquist mode cos(N x / 2) is zeroed; an
        # even one is (-1)^(order/2) (N/2)^order times the mode
        N = 16
        x = make_grid(-PI, PI, N).nodes()
        nyquist = np.cos(N / 2 * x)
        got = spectral_derivative_periodic(nyquist, order)
        want = 0.0 * x if order % 2 else (-1) ** (order // 2) * (N / 2) ** order * nyquist
        np.testing.assert_allclose(got, want, atol=1e-9)


class TestBernoulli:
    def test_b1_midpoint(self):
        assert bernoulli_polynomial(1, 0.5) == pytest.approx(0.0)

    def test_b2_at_zero(self):
        assert bernoulli_polynomial(2, 0.0) == pytest.approx(1 / 6)

    def test_b1_endpoint_difference(self):
        assert (bernoulli_polynomial(1, 1.0)
                - bernoulli_polynomial(1, 0.0)) == pytest.approx(1.0)

    @given(st.integers(2, 12))
    @settings(max_examples=20, deadline=None)
    def test_endpoint_periodicity(self, n):
        diff = bernoulli_polynomial(n, 1.0) - bernoulli_polynomial(n, 0.0)
        assert diff == pytest.approx(0.0, abs=1e-12)


class TestSingularBasis:
    def test_midpoint_of_lowest(self):
        assert eckhoff_V(0, 0.0) == pytest.approx(0.0)

    def test_second_at_left_limit(self):
        # xi -> 0+ for the order-1 term gives -(2 pi)/2! * B_2(0) = -pi/6
        val = eckhoff_V(1, -PI + 1e-12)
        assert val == pytest.approx(-PI / 6, abs=1e-9)

    def test_periodicity_in_x(self):
        for m in (0, 1, 2):
            assert eckhoff_V(m, 0.7) == pytest.approx(eckhoff_V(m, 0.7 + 2 * PI))


class TestEckhoffDerivative:
    def test_ramp_interior_exact(self):
        g = make_grid(-PI, PI, 64)
        u = sample(lambda x: x, g)
        jumps = JumpData(J=np.array([2 * PI]))
        d = eckhoff_derivative(u, jumps)
        assert np.max(np.abs(d.values[1:-1] - 1.0)) <= 1e-10

    def test_gaussian_between_fft_and_gfs(self):
        from gfs.core import gfs_decompose, gfs_derivative
        f = get_function("gaussian")
        g = make_grid(-PI, PI, 128)
        u = sample(f, g)
        jumps = jumps_from_analytic(f, 12)
        e_eck = deriv_error(f, eckhoff_derivative(u, jumps), g)
        e_fft = deriv_error(f, fft_derivative(u), g)
        e_gfs = deriv_error(f, gfs_derivative(gfs_decompose(u, 3, jumps)), g)
        assert e_gfs < e_eck < e_fft

    @given(st.floats(-50, 50), st.floats(0.01, 100), st.integers(8, 2000))
    @settings(max_examples=100, deadline=None)
    def test_last_node_error_is_interior_sized(self, a, L, N):
        # the last node sits on the seam at pi: a node rounded above pi
        # would take the left-end branch of V_m and an O(J) error
        assume(N >= 21)  # two stencils of width q - 1 + r = 11
        f = get_function("gaussian", x0=a + 0.7 * L, w=0.3 * L)
        g = make_grid(a, a + L, N)
        u = sample(f, g)
        d = eckhoff_derivative(u, estimate_jumps(u, 6, 6))
        err = np.abs(d.values - f.derivative(g.nodes(), 1))
        assert err[-1] <= 100 * np.max(err[:-1])

    def test_zero_jumps_reduce_to_fft(self):
        f = get_function("trig_poly", seed=11)
        g = make_grid(-PI, PI, 64)
        u = sample(f, g)
        jumps = jumps_from_analytic(f, 8)
        d = eckhoff_derivative(u, jumps)
        np.testing.assert_allclose(d.values, fft_derivative(u).values,
                                   atol=1e-12)


def _bernoulli_ref(m, x):
    return float(np.polyval(bernoulli_coefficients(m)[::-1], x))


def _eckhoff_V_ref(m, x):
    # per-node scalar definition: math.fmod and the two seam rules
    xi = math.fmod(x + PI, 2 * PI)
    if xi < 0.0:
        xi += 2 * PI
    if xi == 0.0 and x > -PI:
        xi = 2 * PI
    return -((2 * PI) ** m) / math.factorial(m + 1) * _bernoulli_ref(m + 1, xi / (2 * PI))


def _eckhoff_singular_ref(jumps, xs):
    # per node and per order: each sum starts from Python's 0
    s = np.array([sum(-jumps.J[m] * _eckhoff_V_ref(m, x) for m in range(jumps.q)) for x in xs])
    s_deriv = []
    for x in xs:
        total = -jumps.J[0] * (-1.0 / (2 * PI))
        for m in range(1, jumps.q):
            total += -jumps.J[m] * _eckhoff_V_ref(m - 1, x)
        s_deriv.append(total)
    return s, np.array(s_deriv)


def _eckhoff_derivative_ref(u, jumps):
    grid = u.grid
    sj = to_standard_jumps(jumps, grid)
    s, s_deriv = _eckhoff_singular_ref(sj, grid.standard_nodes())
    smooth_deriv = spectral_derivative_periodic(u.values - s, 1)
    return (smooth_deriv + s_deriv) * standard_chain_factor(grid)


def _roache_coefficients_ref(jumps, q):
    # the recursion on numpy scalars, with the factorials of each term
    a = np.zeros(q + 1)
    a[q] = jumps.J[q - 1] / (2 * PI * math.factorial(q))
    for k in range(q - 1, 0, -1):
        acc = 0.0
        for m in range(k + 1, q + 1):
            span = PI ** (m - k + 1) - (-PI) ** (m - k + 1)
            acc += a[m] * math.factorial(m) / (math.factorial(k) * math.factorial(m - k + 1)) * span
        a[k] = (jumps.J[k - 1] / math.factorial(k) - acc) / (2 * PI)
    return a


def _roache_derivative_ref(u, jumps, q):
    # g and g' by one np.polyval each
    grid = u.grid
    a = _roache_coefficients_ref(to_standard_jumps(jumps, grid), q)
    xs = grid.standard_nodes()
    g = np.polyval(a[::-1], xs)
    da = a[1:] * np.arange(1, a.size)
    g_deriv = np.polyval(da[::-1], xs)
    smooth_deriv = spectral_derivative_periodic(u.values - g, 1)
    return (smooth_deriv + g_deriv) * standard_chain_factor(grid)


def _seeded_jumps(q, seed):
    # magnitudes from 1e-15 to 1e15, both signs, and a zero jump (a -0.0
    # term) among three or more
    rng = np.random.default_rng(seed)
    J = rng.choice([-1.0, 1.0], q) * 10.0 ** rng.uniform(-15, 15, q)
    if q >= 3:
        J[q // 2] = 0.0
    return JumpData(J=J)


def assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


ARRAY_INTERVALS = [(-PI, PI), (0.0, 1.0), (-1.0, 2.5)]


SEAM_NODES = np.array([-PI, PI, -PI - 1e-12, -PI + 1e-12, PI - 1e-12, PI + 1e-12])


class TestArrayEqualsScalar:
    """Array evaluation gives the per-node scalar values bit for bit."""

    @pytest.mark.parametrize("a, b", ARRAY_INTERVALS)
    @pytest.mark.parametrize("N", [32, 64, 128])
    def test_bernoulli_polynomial(self, a, b, N):
        t = (make_grid(a, b, N).nodes() - a) / (b - a)
        t = np.concatenate([t, [0.0, 1.0, -1e-12, 1e-12, 1 - 1e-12, 1 + 1e-12]])
        for m in range(1, 14):
            got = bernoulli_polynomial(m, t)
            np.testing.assert_array_equal(got, [_bernoulli_ref(m, x) for x in t])

    @pytest.mark.parametrize("a, b", ARRAY_INTERVALS)
    @pytest.mark.parametrize("N", [32, 64, 128])
    def test_eckhoff_V(self, a, b, N):
        x = np.concatenate([make_grid(a, b, N).nodes(), SEAM_NODES])
        for m in range(13):
            np.testing.assert_array_equal(eckhoff_V(m, x), [_eckhoff_V_ref(m, v) for v in x])

    @pytest.mark.parametrize("a, b", ARRAY_INTERVALS)
    @pytest.mark.parametrize("N", [32, 64, 128])
    def test_eckhoff_derivative(self, a, b, N):
        f = get_function("gaussian")
        u = sample(f, make_grid(a, b, N))
        jumps = JumpData(J=jumps_from_analytic(f, 12).J)  # the [-pi, pi] values, as inputs on [a, b]
        assert_same_bits(eckhoff_derivative(u, jumps).values, _eckhoff_derivative_ref(u, jumps))
        for q in (1, 2, 5, 12, 33):
            jumps = _seeded_jumps(q, seed=N * q)
            assert_same_bits(eckhoff_derivative(u, jumps).values, _eckhoff_derivative_ref(u, jumps))

    @pytest.mark.parametrize("q", [1, 2, 5, 12, 33])
    def test_eckhoff_singular_at_the_seam(self, q):
        # at the midpoint 0 every even order's V_m is a signed zero: for
        # q = 1 the sum over orders turns a -0.0 into +0.0
        x = np.append(SEAM_NODES, 0.0)
        J = _seeded_jumps(q, seed=q).J
        for jumps in (JumpData(J=J), JumpData(J=-J)):
            for got, want in zip(eckhoff_singular(jumps, x), _eckhoff_singular_ref(jumps, x)):
                assert_same_bits(got, want)

    def test_singular_parts_of_one_jump(self):
        # q = 1: the singular derivative is a constant, still one per node
        jumps = JumpData(J=np.array([2 * PI]))
        x = make_grid(-PI, PI, 32).nodes()
        s, s_deriv = eckhoff_singular(jumps, x)
        np.testing.assert_array_equal(s_deriv, np.ones(33))
        np.testing.assert_array_equal(s, [-2 * PI * _eckhoff_V_ref(0, v) for v in x])


class TestRoacheBits:
    """The float recursion and the two-row Horner pass keep the numpy-scalar recursion's
    and np.polyval's bits."""

    @pytest.mark.parametrize("q", range(1, 35))
    def test_coefficients(self, q):
        for seed in range(20):
            jumps = _seeded_jumps(q, seed=1000 * q + seed)
            assert_same_bits(roache_coefficients(jumps, q), _roache_coefficients_ref(jumps, q))

    @pytest.mark.parametrize("a, b", ARRAY_INTERVALS)
    @pytest.mark.parametrize("N", [32, 64, 128])
    def test_derivative(self, a, b, N):
        f = get_function("gaussian")
        u = sample(f, make_grid(a, b, N))
        for q in (1, 2, 5, 12, 24):
            for jumps in (JumpData(J=jumps_from_analytic(f, q).J), _seeded_jumps(q, seed=N * q)):
                assert_same_bits(roache_derivative(u, jumps, q).values, _roache_derivative_ref(u, jumps, q))


class TestRoache:
    def test_ramp_single_term(self):
        jumps = JumpData(J=np.array([2 * PI]))
        a = roache_coefficients(jumps, 1)
        np.testing.assert_allclose(a, [0.0, 1.0], atol=1e-14)

    def test_ramp_derivative(self):
        g = make_grid(-PI, PI, 64)
        u = sample(lambda x: x, g)
        jumps = JumpData(J=np.array([2 * PI]))
        d = roache_derivative(u, jumps, 1)
        np.testing.assert_allclose(d.values, 1.0, atol=1e-12)

    def test_cubic(self):
        f = get_function("monomial", m=3)
        g = make_grid(-PI, PI, 64)
        u = sample(f, g)
        d = roache_derivative(u, jumps_from_analytic(f, 4), 4)
        assert deriv_error(f, d, g) <= 1e-8

    def test_multimode_high_q_ill_conditioned(self):
        f = get_function("multimode", n_modes=30)
        g = make_grid(-PI, PI, 512)
        u = sample(f, g)
        d = roache_derivative(u, jumps_from_analytic(f, 24), 24)
        assert deriv_error(f, d, g) >= 1e-2

    @given(st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_jump_matching(self, q, seed):
        rng = np.random.default_rng(seed)
        J = rng.uniform(-3, 3, size=q)
        jumps = JumpData(J=J)
        a = roache_coefficients(jumps, q)
        for m in range(q):
            assert polynomial_jump(a, m) == pytest.approx(J[m], abs=1e-8)

    @given(st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_eckhoff_jump_matching(self, q, seed):
        # the Bernoulli singular part reproduces the prescribed jumps:
        # each basis element differentiates to the next-lower one, so the
        # m-th derivative of s has endpoint jump sum_j -J_j [V_{j-m}] and
        # only the j = m term survives (Bernoulli endpoint periodicity),
        # contributing exactly J_m.
        rng = np.random.default_rng(seed)
        J = rng.uniform(-3, 3, size=q)
        for m in range(q):
            jump = sum(-J[j] * (eckhoff_V(j - m, PI) - eckhoff_V(j - m, -PI))
                       for j in range(m, q))
            assert jump == pytest.approx(J[m], abs=1e-10)

    @given(st.sampled_from(sorted(FUNCTION_CATALOG)), st.integers(0, 2 ** 31 - 1),
           st.integers(16, 512), st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_eckhoff_and_roache_differ_by_a_constant(self, name, seed, N, q):
        # both subtract a degree-q polynomial fixed by the same q jumps, so
        # their difference has no jump in orders 0..q-1 and is a constant.
        f = get_function(name, **{"trig_poly": {"seed": seed}, "monomial": {"m": 3}}.get(name, {}))
        jumps = jumps_from_analytic(f, q)
        xs = make_grid(-PI, PI, N).standard_nodes()
        s, _ = eckhoff_singular(jumps, xs)
        g = np.polyval(roache_coefficients(jumps, q)[::-1], xs)
        scale = max(np.max(np.abs(s)), np.max(np.abs(g)))
        assert np.ptp(s - g) <= 1e-13 * scale


class TestProny:
    def test_constant(self):
        g = make_grid(-PI, PI, 8)
        u = SampledSignal(g, np.full(9, 3.0))
        fit = prony_fit(u, 1)
        assert fit.phi[0] == pytest.approx(0.0, abs=1e-12)
        assert fit.c[0] == pytest.approx(3.0)

    def test_single_exponential(self):
        g = make_grid(-PI, PI, 8)
        xs = g.nodes()
        u = SampledSignal(g, 2 * np.exp(0.5 * (xs - xs[0])))
        fit = prony_fit(u, 1)
        assert fit.phi[0] == pytest.approx(0.5, abs=1e-10)
        assert fit.c[0] == pytest.approx(2.0, rel=1e-10)
        assert prony_evaluate(fit, xs[0], 1) == pytest.approx(1.0, rel=1e-9)

    def test_cosine_pair(self):
        g = make_grid(-PI, PI, 8)
        xs = g.nodes()
        u = SampledSignal(g, 2 * np.cos(xs - xs[0]))
        fit = prony_fit(u, 2)
        np.testing.assert_allclose(np.sort(fit.phi.imag), [-1, 1], atol=1e-9)
        np.testing.assert_allclose(fit.phi.real, 0, atol=1e-9)
        np.testing.assert_allclose(np.abs(fit.c), 1, atol=1e-9)
        assert prony_evaluate(fit, xs[0], 1) == pytest.approx(0.0, abs=1e-9)

    def test_three_term_recovery(self):
        g = make_grid(-PI, PI, 16)
        xs = g.nodes()
        phi = np.array([-0.5 + 2j, -0.5 - 2j, 0.3])
        c = np.array([1 + 0.5j, 1 - 0.5j, 0.7])
        vals = np.real(c @ np.exp(np.outer(phi, xs - xs[0])))
        fit = prony_fit(SampledSignal(g, vals), 3)
        np.testing.assert_allclose(np.sort_complex(fit.phi),
                                   np.sort_complex(phi), atol=1e-8)
        recon = prony_evaluate(fit, xs)
        np.testing.assert_allclose(recon, vals, atol=1e-8)
        # real data give a real Prony polynomial, rooted by a real companion:
        # the exponents come in exact conjugate pairs
        assert np.count_nonzero(fit.phi.imag) == 2
        np.testing.assert_array_equal(np.sort_complex(fit.phi), np.sort_complex(fit.phi.conj()))

    def test_gaussian_fails_at_fine_grids(self):
        f = get_function("gaussian")
        for N in (128, 256):
            g = make_grid(-PI, PI, N)
            with pytest.raises(IllConditioned):
                prony_fit(sample(f, g), N // 2)

    def test_gaussian_succeeds_at_coarse_grids(self):
        f = get_function("gaussian")
        for N in (32, 64):
            g = make_grid(-PI, PI, N)
            fit = prony_fit(sample(f, g), N // 2)
            d = prony_evaluate(fit, g.nodes(), 1)
            exact = f.derivative(g.nodes(), 1)
            assert np.max(np.abs(d - exact)) <= 1.0

    def test_empty_fit_derivative(self):
        from gfs.baselines import PronyFit
        fit = PronyFit(c=np.zeros(0, dtype=complex),
                       phi=np.zeros(0, dtype=complex), dx=0.1, x0=0.0)
        assert prony_evaluate(fit, 1.0, 1) == 0.0

    def test_negative_derivative_order_is_rejected(self):
        from gfs.baselines import PronyFit
        fit = PronyFit(c=np.ones(1, dtype=complex), phi=np.zeros(1, dtype=complex), dx=0.1, x0=0.0)
        with pytest.raises(ValueError, match="^order must be >= 0, got -1$"):
            prony_evaluate(fit, 0.0, -1)
