import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfs.functions import get_function
from gfs.grid import make_grid, sample
from gfs.jumps import (
    GridTooSmall,
    ZERO_JUMP_REGULARIZATION,
    estimate_jumps,
    fd_differentiate,
    fd_weights,
    jumps_from_analytic,
    stencil_weights_at_offsets,
    to_standard_jumps,
)

PI = math.pi


class TestStencilWeights:
    def test_two_point_forward(self):
        w = fd_weights(1, 2, "forward")
        assert w.as_floats() == pytest.approx([-1.0, 1.0])

    def test_three_point_forward_first_derivative(self):
        w = fd_weights(1, 3, "forward")
        assert list(w.weights) == [Fraction(-3, 2), Fraction(2), Fraction(-1, 2)]

    def test_three_point_forward_second_derivative(self):
        w = fd_weights(2, 3, "forward")
        assert list(w.weights) == [Fraction(1), Fraction(-2), Fraction(1)]

    def test_backward_mirrors_forward(self):
        for d in (1, 2, 3):
            fw = fd_weights(d, d + 3, "forward").as_floats()
            bw = fd_weights(d, d + 3, "backward").as_floats()
            assert bw == pytest.approx([(-1) ** d * w for w in fw])

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
            w = fd_weights(d, width, "backward").weights
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

        approx = np.dot(w.as_floats(), p(xs)) / dx ** 3
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
        from gfs.jumps import JumpData

        g = make_grid(0.0, 1.0, 64)
        J = JumpData(J=np.array([2.0, 3.0, 5.0]), source="analytic")
        Js = to_standard_jumps(J, g)
        # m-th derivative in standard coordinates picks up (L / 2 pi)^m.
        for m in range(3):
            assert Js.J[m] == pytest.approx(J.J[m] * (1 / (2 * PI)) ** m)


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
        exact = np.array([f.derivative(x, 1) for x in g.nodes()])
        err = np.max(np.abs(d.values - exact))
        assert 4e-6 <= err <= 4e-4

    def test_sixth_order_convergence(self):
        f = get_function("gaussian")
        errs = []
        for N in (64, 128, 256):
            g = make_grid(-PI, PI, N)
            u = sample(f.value, g)
            exact = np.array([f.derivative(x, 1) for x in g.nodes()])
            errs.append(np.max(np.abs(fd_differentiate(u, 6).values - exact)))
        slope = np.polyfit(np.log([64, 128, 256]), np.log(errs), 1)[0]
        assert -7 <= slope <= -5
