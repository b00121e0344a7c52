import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfs.baselines import PronyFit, prony_evaluate, prony_fit, roache_coefficients
from gfs.bench import ExperimentConfig
from gfs.core import build_aperiodic_model
from gfs.functions import FUNCTION_CATALOG, NODE_BLOCK, get_function, multimode_wavenumbers
from gfs.functions import TestFunction as CatalogFunction
from gfs.grid import (
    BadSample,
    GridSpec,
    SampledSignal,
    lp_error_norm,
    make_grid,
    sample,
    standard_nodes,
    to_standard_interval,
)
from gfs.jumps import (
    estimate_jumps,
    fd_differentiate,
    fd_weights,
    jump_stencils,
    jumps_from_analytic,
    stencil_weights_at_offsets,
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


    @pytest.mark.parametrize("call, name", [
        pytest.param(lambda: make_grid(-1.0, 1.0, 64.9), "N", id="make_grid"),
        pytest.param(lambda: GridSpec(-PI, PI, 64.5), "N", id="GridSpec"),
        pytest.param(lambda: estimate_jumps(sample(get_function("gaussian"), make_grid(-PI, PI, 64)),
                                            4.7, 2), "q", id="estimate_jumps-q"),
        pytest.param(lambda: estimate_jumps(sample(get_function("gaussian"), make_grid(-PI, PI, 64)),
                                            4, 2.2), "r", id="estimate_jumps-r"),
        pytest.param(lambda: build_aperiodic_model(jumps_from_analytic(get_function("gaussian"), 12),
                                                   2.5), "mode count n", id="build_aperiodic_model"),
        pytest.param(lambda: prony_fit(sample(get_function("gaussian"), make_grid(-PI, PI, 32)), 2.5),
                     "M", id="prony_fit-M"),
        pytest.param(lambda: prony_evaluate(PronyFit(np.ones(1, complex), np.zeros(1, complex), 0.1, 0.0), 0.0, 1.5),
                     "order", id="prony_evaluate-order"),
        pytest.param(lambda: roache_coefficients(jumps_from_analytic(get_function("gaussian"), 4), 2.5),
                     "q", id="roache_coefficients-q"),
        pytest.param(lambda: fd_differentiate(sample(get_function("gaussian"), make_grid(-PI, PI, 32)), 6.5),
                     "r", id="fd_differentiate-r"),
        pytest.param(lambda: fd_weights(1.5, 5), "derivative order d", id="fd_weights-d"),
        pytest.param(lambda: fd_weights(1, 5.9), "stencil width", id="fd_weights-width"),
        pytest.param(lambda: stencil_weights_at_offsets(1.7, [0, 1, 2]), "derivative order d",
                     id="stencil_weights_at_offsets-d"),
        pytest.param(lambda: stencil_weights_at_offsets(1, [0, 1.5, 2]), "stencil offset",
                     id="stencil_weights_at_offsets-offset"),
        pytest.param(lambda: jump_stencils(5.5), "stencil width", id="jump_stencils-width"),
        pytest.param(lambda: ExperimentConfig(function="gaussian", q=8.5), "q", id="ExperimentConfig-q"),
        pytest.param(lambda: ExperimentConfig(function="gaussian", n_modes=2.5), "n_modes",
                     id="ExperimentConfig-n_modes"),
    ])
    def test_rejects_non_integral_sizes(self, call, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            call()

    def test_numpy_integer_size_is_an_int(self):
        grid = GridSpec(-PI, PI, np.int64(64))
        assert type(grid.N) is int and grid == make_grid(-PI, PI, 64)


class TestStandardNodes:
    @given(st.floats(-50, 50), st.floats(0.01, 100), st.integers(8, 2000))
    @settings(max_examples=100, deadline=None)
    def test_end_on_pi_and_increase(self, a, L, N):
        g = make_grid(a, a + L, N)
        x = g.standard_nodes()
        assert x.shape == (N + 1,)
        assert (x[0], x[-1]) == (-PI, PI)
        assert np.all(np.diff(x) > 0)
        assert g.standard_step == 2 * PI / N

    @pytest.mark.parametrize("N", [8, 9, 64, 4095, 4096, 32768])
    def test_shared_nodes_keep_the_bits_and_are_read_only(self, N):
        # one read-only array per N, bit for bit the nodes each grid made for itself
        want = np.arange(N + 1, dtype=float)
        want *= 2.0 * math.pi / N
        want -= math.pi
        want[-1] = math.pi
        shared = standard_nodes(N)
        np.testing.assert_array_equal(shared.view(np.uint64), want.view(np.uint64))
        assert standard_nodes(N) is shared
        with pytest.raises(ValueError, match="read-only"):
            shared[0] = 0.0
        for a, b in ((-PI, PI), (-1.0, 2.0)):
            np.testing.assert_array_equal(make_grid(a, b, N).standard_nodes().view(np.uint64), want.view(np.uint64))

    def test_grid_nodes_are_a_fresh_writable_array_on_every_call(self):
        g = make_grid(-1.0, 2.0, 64)
        first, second = g.standard_nodes(), g.standard_nodes()
        assert first is not second and first is not standard_nodes(64)
        assert first.flags.writeable and second.flags.writeable
        first[0] = 5.0
        assert second[0] == standard_nodes(64)[0] == g.standard_nodes()[0] == -PI


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


# Parameters in the ranges the benchmark draws from.
CATALOG_PARAMS = {
    "gaussian": st.fixed_dictionaries({"x0": st.floats(0.7 * PI, 0.8 * PI),
                                       "w": st.floats(0.9, 1.1)}),
    "modulated_sine": st.fixed_dictionaries({"a": st.floats(-0.4, -0.25),
                                             "b": st.floats(0.6, 0.9)}),
    "log_fn": st.just({}),
    "multimode": st.fixed_dictionaries({"n_modes": st.integers(2, 4)}),
    "monomial": st.just({"m": 3}),
    "leakage_demo": st.fixed_dictionaries({"k1": st.floats(5.1, 5.5), "k2": st.floats(12.2, 12.6),
                                           "a1": st.floats(0.6, 0.8), "a2": st.floats(0.9, 1.1)}),
    "trig_poly": st.fixed_dictionaries({"seed": st.integers(0, 2 ** 31 - 1),
                                        "max_mode": st.integers(3, 5)}),
}


def trig_poly_coefficients(p):
    rng = np.random.default_rng(p["seed"])
    modes = np.arange(1, p["max_mode"] + 1, dtype=float)
    a = rng.uniform(-1.0, 1.0, modes.size)
    b = rng.uniform(-1.0, 1.0, modes.size)
    return modes, a, b, float(rng.uniform(-1.0, 1.0))


def scalar_value(f):
    """The catalog's value as it was when sample called it once per node,
    with numpy's exp and log on the float for gaussian and log_fn."""
    p = f.params
    if f.name == "modulated_sine":
        return lambda x: math.exp(p["a"] * (x + PI)) * math.sin(p["b"] * (x + PI))
    if f.name == "gaussian":
        def gaussian_value(x):
            t = (x - p["x0"]) / p["w"]
            return float(np.exp(-(t * t)))
        return gaussian_value
    if f.name == "log_fn":
        return lambda x: float(np.log(x + PI + 0.5))
    if f.name == "multimode":
        ks = multimode_wavenumbers(p["n_modes"])
        return lambda x: float(np.sum(np.sin(ks * x) + np.cos(ks * x)))
    if f.name == "monomial":
        return lambda x: float(x) ** p["m"]
    if f.name == "leakage_demo":
        return lambda x: p["a1"] * math.sin(p["k1"] * x) + p["a2"] * math.sin(p["k2"] * x)
    modes, a, b, c0 = trig_poly_coefficients(p)
    return lambda x: c0 + float(np.sum(a * np.sin(modes * x) + b * np.cos(modes * x)))


def scalar_derivative(f):
    """The catalog's scalar derivative of order m >= 1 as it was written
    before value and derivative became one closed form; gaussian's and
    log_fn's as recurrences over the orders."""
    p = f.params

    def shifted(wave, k, x, m):
        return k ** m * wave(k * x + m * PI / 2.0)

    if f.name == "modulated_sine":
        c = complex(p["a"], p["b"])
        return lambda x, m: (c ** m * np.exp(c * (x + PI))).imag
    if f.name == "gaussian":
        def gaussian(x, m):
            t = (x - p["x0"]) / p["w"]
            h0, h1 = 1.0, 2.0 * t  # H_{k-1}(t), H_k(t)
            for k in range(1, m):
                h0, h1 = h1, 2.0 * t * h1 - 2.0 * k * h0
            return (-1.0 / p["w"]) ** m * h1 * float(np.exp(-(t * t)))
        return gaussian
    if f.name == "log_fn":
        def log_derivative(x, m):
            y = x + PI + 0.5
            d = 1.0 / y
            for k in range(2, m + 1):
                d = -(k - 1) * d / y
            return d
        return log_derivative
    if f.name == "multimode":
        ks = multimode_wavenumbers(p["n_modes"])
        return lambda x, m: float(np.sum(shifted(np.sin, ks, x, m) + shifted(np.cos, ks, x, m)))
    if f.name == "monomial":
        n = p["m"]
        return lambda x, m: (0.0 if m > n else
                             math.factorial(n) / math.factorial(n - m) * x ** (n - m))
    if f.name == "leakage_demo":
        return lambda x, m: float(p["a1"] * shifted(np.sin, p["k1"], x, m)
                                  + p["a2"] * shifted(np.sin, p["k2"], x, m))
    modes, a, b, _ = trig_poly_coefficients(p)  # trig_poly
    return lambda x, m: float(np.sum(a * shifted(np.sin, modes, x, m)
                                     + b * shifted(np.cos, modes, x, m)))


class TestSampleCatalog:
    def test_every_catalog_function_is_covered(self):
        assert set(CATALOG_PARAMS) == set(FUNCTION_CATALOG)

    @pytest.mark.parametrize("name", sorted(CATALOG_PARAMS))
    @given(data=st.data(), centre=st.floats(-0.4, 0.4), length=st.floats(4.5, 2 * PI),
           N=st.integers(8, 2048))
    @settings(max_examples=30, deadline=None)
    def test_one_array_call_keeps_every_nodes_bits(self, name, data, centre, length, N):
        f = get_function(name, **data.draw(CATALOG_PARAMS[name]))
        grid = make_grid(centre - 0.5 * length, centre + 0.5 * length, N)
        nodes = grid.nodes()
        got = sample(f, grid).values.tobytes()
        assert got == np.array([f.value(x) for x in nodes]).tobytes()
        assert got == np.array([scalar_value(f)(x) for x in nodes]).tobytes()
        for x in (nodes[0], float(nodes[N // 2]), nodes[-1]):
            assert type(f.value(x)) is float

    @pytest.mark.parametrize("name", sorted(CATALOG_PARAMS))
    def test_blocks_of_a_large_grid_keep_every_nodes_bits(self, name):
        # three formula calls, the last one short; any array shape is kept.
        # Default parameters: multimode sums 30 modes per node.
        f = get_function(name, **({"m": 3} if name == "monomial" else {}))
        nodes = make_grid(-3.0, 3.2, 2 * NODE_BLOCK + 7).nodes()
        values = f.value(nodes)
        assert values.tobytes() == np.array([scalar_value(f)(x) for x in nodes]).tobytes()
        square = f.value(nodes.reshape(2, -1))
        assert square.shape == (2, nodes.size // 2)
        assert square.tobytes() == values.tobytes()

    def test_catalog_function_is_sampled_in_one_call(self):
        calls = []

        def formula(x, orders):
            calls.append((x, orders))
            return np.zeros((len(orders),) + x.shape)

        grid = make_grid(-PI, PI, 16)
        u = sample(CatalogFunction("zero", {}, formula), grid)
        assert len(calls) == 1 and calls[0][1] == (0,)
        assert calls[0][0].tobytes() == grid.nodes().tobytes()
        assert u.values.tobytes() == np.zeros(17).tobytes()


class TestCatalogDerivative:
    @pytest.mark.parametrize("name", sorted(CATALOG_PARAMS))
    @given(data=st.data(), centre=st.floats(-0.4, 0.4), length=st.floats(4.5, 2 * PI),
           N=st.integers(8, 512))
    @settings(max_examples=10, deadline=None)
    def test_scalar_calls_keep_every_bit(self, name, data, centre, length, N):
        # order 0 is the sample formula, orders >= 1 the former scalar derivative,
        # at both endpoints of the catalog interval and at interior nodes taken
        # as Python floats and as numpy float64
        f = get_function(name, **data.draw(CATALOG_PARAMS[name]))
        nodes = make_grid(centre - 0.5 * length, centre + 0.5 * length, N).nodes()
        xs = [PI, -PI, float(nodes[1]), float(nodes[N // 2]), nodes[N // 3], nodes[-2]]
        value, derivative = scalar_value(f), scalar_derivative(f)
        for m in range(32):
            for x in xs:
                got = f.derivative(x, m)
                want = value(x) if m == 0 else derivative(x, m)
                assert type(got) is float
                assert np.float64(got).tobytes() == np.float64(want).tobytes(), (m, x)

    @pytest.mark.parametrize("name", sorted(CATALOG_PARAMS))
    @given(data=st.data(), centre=st.floats(-0.4, 0.4), length=st.floats(4.5, 2 * PI),
           N=st.integers(8, 256))
    @settings(max_examples=5, deadline=None)
    def test_array_call_matches_the_scalar_calls(self, name, data, centre, length, N):
        f = get_function(name, **data.draw(CATALOG_PARAMS[name]))
        nodes = make_grid(centre - 0.5 * length, centre + 0.5 * length, N).nodes()
        for m in range(32):
            got = f.derivative(nodes, m)
            want = np.array([f.derivative(x, m) for x in nodes])
            assert got.dtype == np.float64 and got.shape == nodes.shape
            if name == "modulated_sine" and m >= 1:
                # the complex product rounds differently on arrays, by an ulp
                scale = np.max(np.abs(want))
                assert np.max(np.abs(got - want)) <= 4 * np.spacing(scale), m
            else:
                assert got.tobytes() == want.tobytes(), m

    @pytest.mark.parametrize("k1, k2", [(9, 17), (10, 20), (34, 36)])
    def test_integer_wavenumbers_keep_exact_powers(self, k1, k2):
        # an int k's powers are exact ints; pow(float(k), m) is an ulp off at
        # some of these (k, m)
        f = get_function("leakage_demo", k1=k1, k2=k2)
        derivative = scalar_derivative(f)
        for x in (PI, -PI, 0.3):
            got = f.derivatives(x, 32)
            want = [f.value(x)] + [derivative(x, m) for m in range(1, 32)]
            assert got.tobytes() == np.array(want).tobytes()
            assert got.tobytes() == np.array([f.derivative(x, m) for m in range(32)]).tobytes()
        nodes = make_grid(-PI, PI, 16).nodes()
        for m in (13, 17, 23):
            assert f.derivative(nodes, m).tobytes() == np.array([derivative(x, m) for x in nodes]).tobytes()


class TestSamplePlainCallable:
    def test_constant_lambda_is_called_per_node(self):
        u = sample(lambda x: 0.0, make_grid(-PI, PI, 16))
        assert u.values.tobytes() == np.zeros(17).tobytes()

    def test_math_sin_is_called_per_node(self):
        grid = make_grid(-1.0, 2.0, 33)
        expected = np.array([math.sin(x) for x in grid.nodes()])
        assert sample(math.sin, grid).values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("bad", [0, 5, 16])
    def test_non_finite_value_names_its_node(self, bad):
        grid = make_grid(-PI, PI, 16)
        x_bad = grid.nodes()[bad]
        with pytest.raises(BadSample, match=f"node {bad}") as exc:
            sample(lambda x: math.nan if x == x_bad else x, grid)
        assert exc.value.node_index == bad


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
