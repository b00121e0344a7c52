import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfs.baselines import eckhoff_derivative, roache_derivative
from gfs.core import gfs_decompose
from gfs.functions import DERIVATIVE_ORDER_MAX, FUNCTION_CATALOG, get_function
from gfs.grid import make_grid, sample
from gfs.jumps import (
    GridTooSmall,
    IntervalMismatch,
    JumpData,
    ZERO_JUMP_REGULARIZATION,
    _float_table,
    _fornberg_table,
    estimate_jumps,
    fd_differentiate,
    fd_weights,
    jump_stencils,
    jumps_from_analytic,
    stencil_weights_at_offsets,
    to_standard_jumps,
)

PI = math.pi


def floats(weights):
    return np.array([float(w) for w in weights])


class TestStencilWeights:
    def test_two_point_forward(self):
        w = fd_weights(1, 2, "forward")
        assert floats(w) == pytest.approx([-1.0, 1.0])

    def test_three_point_forward_first_derivative(self):
        w = fd_weights(1, 3, "forward")
        assert w == (Fraction(-3, 2), Fraction(2), Fraction(-1, 2))

    def test_three_point_forward_second_derivative(self):
        w = fd_weights(2, 3, "forward")
        assert w == (Fraction(1), Fraction(-2), Fraction(1))

    def test_backward_mirrors_forward(self):
        for d in (1, 2, 3):
            fw = floats(fd_weights(d, d + 3, "forward"))
            bw = floats(fd_weights(d, d + 3, "backward"))
            assert bw == pytest.approx([(-1) ** d * w for w in fw])

    @given(st.lists(st.integers(-15, 15), min_size=1, max_size=12, unique=True),
           st.data())
    @settings(max_examples=40, deadline=None)
    def test_mirrored_offsets_flip_odd_orders(self, offsets, data):
        # Mirror symmetry: negating every offset multiplies the order-d
        # stencil by (-1)^d exactly. fd_weights builds its backward rows on it.
        d = data.draw(st.integers(0, len(offsets) - 1))
        mirrored = stencil_weights_at_offsets(d, [-s for s in offsets])
        assert mirrored == tuple((-1) ** d * w for w in stencil_weights_at_offsets(d, offsets))
        assert all(isinstance(w, Fraction) for w in mirrored)

    @given(st.integers(1, 23), st.integers(0, 5))
    @settings(max_examples=30, deadline=None)
    def test_moment_conditions_exact(self, d, extra):
        # The defining moment system holds exactly in rational arithmetic.
        width = d + 1 + extra
        if width > 29:
            width = 29
        offsets = list(range(width))
        w = stencil_weights_at_offsets(d, offsets)
        for n in range(width):
            acc = sum(c * Fraction(s) ** n for c, s in zip(w, offsets))
            expected = Fraction(math.factorial(d)) if n == d else Fraction(0)
            assert acc == expected

    @given(st.lists(st.integers(-15, 15), min_size=1, max_size=12, unique=True),
           st.data())
    @settings(max_examples=40, deadline=None)
    def test_moment_conditions_arbitrary_offsets(self, offsets, data):
        # Negative, unsorted and non-contiguous offsets, as fd_differentiate
        # uses them off-centre, satisfy the moment system exactly.
        d = data.draw(st.integers(0, len(offsets) - 1))
        w = stencil_weights_at_offsets(d, offsets)
        for n in range(len(offsets)):
            acc = sum(c * Fraction(s) ** n for c, s in zip(w, offsets))
            assert acc == (Fraction(math.factorial(d)) if n == d else 0)

    @pytest.mark.parametrize("width", [13, 21, 29])
    def test_backward_moment_conditions_exact(self, width):
        offsets = range(0, -width, -1)
        for d in range(1, min(width, 24)):
            w = fd_weights(d, width, "backward")
            for n in range(width):
                acc = sum(c * Fraction(s) ** n for c, s in zip(w, offsets))
                assert acc == (Fraction(math.factorial(d)) if n == d else 0)

    @pytest.mark.parametrize("d, offsets", [
        (1, [0, 1, 1]), (2, [0, 1]), (-1, [0, 1, 2])])
    def test_invalid_stencil_rejected(self, d, offsets):
        with pytest.raises(ValueError):
            stencil_weights_at_offsets(d, offsets)
        if len(set(offsets)) == len(offsets):
            with pytest.raises(ValueError):
                fd_weights(d, len(offsets), "backward")

    def test_polynomial_exactness(self):
        # A width-w stencil differentiates polynomials below degree w exactly.
        w = fd_weights(3, 7, "forward")
        dx = 0.1
        xs = np.arange(7) * dx

        def p(x):
            return 2 * x ** 5 - x ** 3 + 4 * x - 1

        approx = np.dot(floats(w), p(xs)) / dx ** 3
        assert approx == pytest.approx(-6.0, abs=1e-8)


class TestEstimateJumps:
    def test_periodic_function_has_tiny_jumps(self):
        g = make_grid(-PI, PI, 64)
        u = sample(math.sin, g)
        J = estimate_jumps(u, 4, 6)
        for m in range(4):
            assert abs(J.J[m]) <= 1e-6

    def test_ramp_jumps(self):
        g = make_grid(-PI, PI, 64)
        u = sample(lambda x: x, g)
        J = estimate_jumps(u, 2, 6)
        assert J.J[0] == pytest.approx(2 * PI, abs=1e-14)
        assert abs(J.J[1]) <= 1e-10

    def test_sign_convention(self):
        f = get_function("log_fn")
        g = make_grid(-PI, PI, 256)
        u = sample(f.value, g)
        J = estimate_jumps(u, 3, 6)
        for m in range(3):
            expected = f.derivative(PI, m) - f.derivative(-PI, m)
            assert J.J[m] == pytest.approx(expected, rel=1e-4)

    def test_grid_too_small(self):
        g = make_grid(-PI, PI, 8)
        u = sample(math.sin, g)
        with pytest.raises(GridTooSmall):
            estimate_jumps(u, 12, 6)

    @pytest.mark.parametrize("r", [0, -2])
    def test_stencil_order_below_one(self, r):
        # width q - 1 + r would leave the order-(q-1) stencil without a row
        u = sample(math.sin, make_grid(-PI, PI, 64))
        with pytest.raises(ValueError, match="r must be >= 1"):
            estimate_jumps(u, 8, r)


class TestAnalyticJumps:
    def test_ramp_regularization(self):
        f = get_function("monomial", m=1)
        J = jumps_from_analytic(f, 4)
        assert J.J[0] == pytest.approx(2 * PI)
        for m in (1, 2, 3):
            assert J.J[m] == ZERO_JUMP_REGULARIZATION

    def test_trig_poly_all_regularized(self):
        f = get_function("trig_poly", seed=2)
        J = jumps_from_analytic(f, 8)
        assert all(abs(v) <= 1e-9 for v in J.J)

    def test_modulated_sine_first_jump(self):
        f = get_function("modulated_sine")
        a, b = -1 / PI, 0.75
        J = jumps_from_analytic(f, 4)
        expected = math.exp(2 * a * PI) * math.sin(2 * b * PI)
        assert J.J[0] == pytest.approx(expected, abs=1e-12)


class TestStandardJumps:
    def test_identity_on_standard_interval(self):
        f = get_function("gaussian")
        g = make_grid(-PI, PI, 64)
        J = jumps_from_analytic(f, 4)
        Js = to_standard_jumps(J, g)
        np.testing.assert_allclose(Js.J, J.J)

    def test_chain_rule_scaling(self):
        g = make_grid(0.0, 1.0, 64)
        J = JumpData(J=np.array([2.0, 3.0, 5.0]))
        Js = to_standard_jumps(J, g)
        # m-th derivative in standard coordinates picks up (L / 2 pi)^m.
        for m in range(3):
            assert Js.J[m] == pytest.approx(J.J[m] * (1 / (2 * PI)) ** m)


class TestJumpInterval:
    def test_jumps_record_their_interval(self):
        f = get_function("gaussian")
        assert jumps_from_analytic(f, 4).interval == (-PI, PI)
        assert estimate_jumps(sample(f, make_grid(-1.0, 2.0, 64)), 4, 2).interval == (-1.0, 2.0)
        assert JumpData(J=np.ones(4)).interval is None

    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (-1.0, 2.0), (0.0, 2 * PI)])
    def test_jumps_of_another_interval_raise(self, a, b):
        # [-pi, pi] jumps on [0, 2 pi] too: the chain factor is 1 there, the ends differ
        f = get_function("gaussian")
        u = sample(f, make_grid(a, b, 128))
        jumps = jumps_from_analytic(f, 12)
        for call in (lambda: to_standard_jumps(jumps, u.grid), lambda: gfs_decompose(u, 3, jumps),
                     lambda: roache_derivative(u, jumps, 12), lambda: eckhoff_derivative(u, jumps)):
            with pytest.raises(IntervalMismatch, match=r"^jumps taken on \[-3.14159"):
                call()
        assert issubclass(IntervalMismatch, ValueError)
        # the grid's own FD jumps, and jumps built by hand, pass
        for own in (estimate_jumps(u, 12, 2), JumpData(J=jumps.J)):
            assert to_standard_jumps(own, u.grid).q == 12


class TestFdDifferentiate:
    def test_linear_exact(self):
        g = make_grid(-PI, PI, 64)
        u = sample(lambda x: x, g)
        d = fd_differentiate(u, 6)
        np.testing.assert_allclose(d.values, 1.0, atol=1e-12)

    def test_cubic_high_accuracy(self):
        f = get_function("monomial", m=3)
        g = make_grid(-PI, PI, 64)
        u = sample(f.value, g)
        d = fd_differentiate(u, 6)
        exact = 3 * g.nodes() ** 2
        assert np.max(np.abs(d.values - exact)) <= 1e-11

    def test_gaussian_sixth_order_error(self):
        f = get_function("gaussian")
        g = make_grid(-PI, PI, 64)
        u = sample(f.value, g)
        d = fd_differentiate(u, 6)
        exact = f.derivative(g.nodes(), 1)
        err = np.max(np.abs(d.values - exact))
        assert 4e-6 <= err <= 4e-4

    def test_sixth_order_convergence(self):
        f = get_function("gaussian")
        errs = []
        for N in (64, 128, 256):
            g = make_grid(-PI, PI, N)
            u = sample(f.value, g)
            exact = f.derivative(g.nodes(), 1)
            errs.append(np.max(np.abs(fd_differentiate(u, 6).values - exact)))
        slope = np.polyfit(np.log([64, 128, 256]), np.log(errs), 1)[0]
        assert -7 <= slope <= -5


# Inline copies of the earlier implementations, which evaluated every
# endpoint derivative twice and converted the exact stencils to floats on
# every call. The current code must reproduce them bit for bit.

def _old_jumps_from_analytic(f, q):
    J = np.empty(q)
    for m in range(q):
        jm = f.analytic_jump(m)
        scale = max(abs(f.derivative(-PI, m)), abs(f.derivative(PI, m)))
        if jm == 0.0 or abs(jm) <= 1e-12 * scale:
            jm = ZERO_JUMP_REGULARIZATION
        J[m] = jm
    return J


def _old_estimate_jumps(u, q, r):
    W = q - 1 + r
    J = np.empty(q)
    J[0] = u.values[-1] - u.values[0]
    dx = u.grid.dx
    for m in range(1, q):
        fw = floats(fd_weights(m, W, "forward"))
        bw = floats(fd_weights(m, W, "backward"))
        left = fw @ u.values[:W] / dx ** m
        right = bw @ u.values[-1:-W - 1:-1] / dx ** m
        J[m] = right - left
    return J


def _old_fd_differentiate(u, r):
    N = u.grid.N
    half = r // 2
    dx = u.grid.dx
    out = np.empty(N + 1)
    central = np.array([float(w) for w in
                        stencil_weights_at_offsets(1, range(-half, half + 1))])
    windows = np.lib.stride_tricks.sliding_window_view(u.values, r + 1)
    out[half:N - half + 1] = windows @ central / dx
    for i in range(half):
        w_left = np.array([float(c) for c in
                           stencil_weights_at_offsets(1, range(-i, r + 1 - i))])
        out[i] = w_left @ u.values[:r + 1] / dx
        w_right = np.array([float(c) for c in
                            stencil_weights_at_offsets(1, range(-(r - i), i + 1))])
        out[N - i] = w_right @ u.values[N - r:] / dx
    return out


def assert_same_bits(got, expected):
    got = np.ascontiguousarray(got, dtype=np.float64)
    expected = np.ascontiguousarray(expected, dtype=np.float64)
    assert got.shape == expected.shape
    np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


def _drawn_params(name, rng):
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


def _catalog_functions(seed):
    rng = np.random.default_rng(seed)
    fs = []
    for name in sorted(FUNCTION_CATALOG):
        fs.append(get_function(name))
        for _ in range(3):
            fs.append(get_function(name, **_drawn_params(name, rng)))
    return fs


def _clear_stencil_caches():
    jump_stencils.cache_clear()
    _float_table.cache_clear()
    _fornberg_table.cache_clear()


class TestSameBitsAsBefore:
    @pytest.mark.parametrize("q", [1, 2, 7, 12, 16, 24, DERIVATIVE_ORDER_MAX + 1])
    def test_analytic_jumps(self, q):
        for f in _catalog_functions(1):
            assert_same_bits(jumps_from_analytic(f, q).J, _old_jumps_from_analytic(f, q))

    @settings(max_examples=200, deadline=None)
    @given(name=st.sampled_from(sorted(FUNCTION_CATALOG)), seed=st.integers(0, 2 ** 32 - 1),
           x=st.one_of(st.sampled_from([PI, -PI]), st.floats(-PI, PI)),
           q=st.integers(0, DERIVATIVE_ORDER_MAX + 1))
    def test_all_orders_have_the_bits_of_one_order(self, name, seed, x, q):
        f = get_function(name, **_drawn_params(name, np.random.default_rng(seed)))
        got = f.derivatives(x, q)
        assert got.dtype == np.float64
        assert_same_bits(got, [f.derivative(x, m) for m in range(q)])

    def _signals(self, width, seed):
        # zero, random and catalog samples on drawn intervals; the first
        # grid is the smallest estimate_jumps accepts at this width
        rng = np.random.default_rng(seed)
        signals = []
        for N in (2 * width, 64, 257):
            a = rng.uniform(-3.0, -2.0)  # log_fn needs x > -pi - 1/2
            grid = make_grid(a, a + rng.uniform(4.0, 6.0), N)
            signals.append(sample(lambda x: 0.0, grid))
            signals.append(type(signals[-1])(grid, rng.standard_normal(N + 1)))
            for f in _catalog_functions(seed)[::4]:
                signals.append(sample(f.value, grid))
        return signals

    @pytest.mark.parametrize("width", range(13, 30))
    def test_estimate_jumps_cold_and_warm(self, width):
        r = 6
        q = width + 1 - r
        signals = self._signals(width, width)
        _clear_stencil_caches()
        cold = [estimate_jumps(u, q, r).J for u in signals]
        for u, J in zip(signals, cold):
            expected = _old_estimate_jumps(u, q, r)
            assert_same_bits(J, expected)
            assert_same_bits(estimate_jumps(u, q, r).J, expected)

    @pytest.mark.parametrize("r", [2, 4, 6, 8])
    def test_fd_differentiate(self, r):
        signals = self._signals(8, r)
        _clear_stencil_caches()
        cold = [fd_differentiate(u, r).values for u in signals]
        for u, du in zip(signals, cold):
            expected = _old_fd_differentiate(u, r)
            assert_same_bits(du, expected)
            assert_same_bits(fd_differentiate(u, r).values, expected)


class TestStencilCacheIsReadOnly:
    def test_jump_stencils_reject_writes(self):
        F, B = jump_stencils(13)
        assert F.shape == B.shape == (13, 13)
        for table in (F, B):
            with pytest.raises(ValueError):
                table[1, 0] = 0.0
            with pytest.raises(ValueError):
                table[1] *= 2.0
        assert jump_stencils(13)[0] is F

    def test_rows_match_the_exact_stencils(self):
        F, B = jump_stencils(17)
        for d in range(17):
            assert_same_bits(F[d], floats(fd_weights(d, 17, "forward")))
            assert_same_bits(B[d], floats(fd_weights(d, 17, "backward")))
            assert_same_bits(B[d], floats(stencil_weights_at_offsets(d, range(0, -17, -1))))
            assert_same_bits(B[d], (-1.0) ** d * F[d])

    def test_off_centre_tables_reject_writes(self):
        table = _float_table((-1, 0, 1, 2, 3))
        with pytest.raises(ValueError):
            table[1, 1] = 0.0


def test_cold_build_goes_through_fd_weights(monkeypatch):
    # A wrap of the module attribute (as a tracer installs) sees every row
    # of a cold jump_stencils build, and no call once the tables are cached.
    import gfs.jumps

    _clear_stencil_caches()
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return fd_weights(*args, **kwargs)

    monkeypatch.setattr(gfs.jumps, "fd_weights", counting)
    jump_stencils(13)
    assert sorted(calls) == sorted((d, 13, side) for d in range(13)
                                   for side in ("forward", "backward"))
    calls.clear()
    jump_stencils(13)
    assert calls == []
