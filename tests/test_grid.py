import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfs.grid import (
    GridSpec,
    SampledSignal,
    lp_error_norm,
    make_grid,
    sample,
    to_standard_interval,
)

PI = math.pi


class TestGridSpec:
    def test_standard_dx(self):
        assert make_grid(-PI, PI, 64).dx == pytest.approx(2 * PI / 64)

    def test_non_power_of_two(self):
        assert make_grid(-PI, PI, 30).dx == pytest.approx(2 * PI / 30)

    def test_unit_interval(self):
        g = make_grid(0.0, 1.0, 128)
        assert g.dx == pytest.approx(1.0 / 128)

    def test_node_count_and_endpoints(self):
        g = make_grid(-PI, PI, 16)
        xs = g.nodes()
        assert xs.size == 17
        assert xs[0] == pytest.approx(-PI)
        assert xs[-1] == pytest.approx(PI)

    def test_rejects_small_or_inverted(self):
        with pytest.raises(ValueError):
            make_grid(-PI, PI, 4)
        with pytest.raises(ValueError):
            make_grid(PI, -PI, 64)

    @pytest.mark.parametrize("a, b", [(math.nan, 1.0), (0.0, math.nan),
                                      (0.0, math.inf), (-math.inf, 0.0)])
    def test_rejects_non_finite_endpoints(self, a, b):
        with pytest.raises(ValueError, match="require finite a and b"):
            make_grid(a, b, 64)


class TestStandardInterval:
    def test_endpoints_and_midpoint(self):
        g = make_grid(0.0, 1.0, 8)
        assert to_standard_interval(0.0, g) == pytest.approx(-PI)
        assert to_standard_interval(0.5, g) == pytest.approx(0.0)
        assert to_standard_interval(0.75, g) == pytest.approx(PI / 2)

    @given(st.floats(-5, 5), st.floats(0.1, 10), st.floats(0, 1))
    @settings(max_examples=50, deadline=None)
    def test_affine_and_in_range(self, a, length, t):
        g = make_grid(a, a + length, 8)
        x = a + t * length
        y = to_standard_interval(x, g)
        assert -PI - 1e-9 <= y <= PI + 1e-9


class TestSampledSignal:
    def test_ramp_values(self):
        g = make_grid(-PI, PI, 8)
        u = sample(lambda x: x, g)
        np.testing.assert_allclose(u.values, g.nodes())

    def test_rejects_wrong_length(self):
        g = make_grid(-PI, PI, 8)
        with pytest.raises(ValueError):
            SampledSignal(g, np.zeros(8))

    def test_rejects_nonfinite(self):
        g = make_grid(-PI, PI, 8)
        vals = np.zeros(9)
        vals[3] = np.nan
        with pytest.raises(ValueError):
            SampledSignal(g, vals)


class TestNorms:
    def test_zero_error(self):
        assert lp_error_norm(np.zeros(65), math.inf, 0.1) == 0.0
        assert lp_error_norm(np.zeros(65), 2, 0.1) == 0.0

    def test_max_norm_picks_peak(self):
        e = np.zeros(65)
        e[-1] = 5.0
        assert lp_error_norm(e, math.inf, 0.1) == 5.0

    def test_l2_of_ones(self):
        g = make_grid(-PI, PI, 64)
        e = np.ones(65)
        assert lp_error_norm(e, 2, g.dx) == pytest.approx(math.sqrt(2 * PI * 65 / 64))

    @given(st.lists(st.floats(-10, 10), min_size=9, max_size=65))
    @settings(max_examples=50, deadline=None)
    def test_l2_bounded_by_scaled_max(self, vals):
        e = np.array(vals)
        n = e.size
        dx = 2 * PI / (n - 1)
        l2 = lp_error_norm(e, 2, dx)
        linf = lp_error_norm(e, math.inf, dx)
        assert l2 <= linf * math.sqrt(dx * n) + 1e-12
