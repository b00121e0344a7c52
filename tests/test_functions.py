import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfs.functions import (
    DERIVATIVE_ORDER_MAX,
    FUNCTION_CATALOG,
    get_function,
    multimode_wavenumbers,
)

PI = math.pi


def finite_diff(f, x, order, h=1e-5):
    """Central-difference check of an analytic derivative."""
    if order == 0:
        return f.value(x)
    return (finite_diff(f, x + h, order - 1, h)
            - finite_diff(f, x - h, order - 1, h)) / (2 * h)


@pytest.mark.parametrize("name,params", [
    ("modulated_sine", {}),
    ("gaussian", {}),
    ("log_fn", {}),
    ("multimode", {"n_modes": 5}),
    ("monomial", {"m": 3}),
    ("leakage_demo", {}),
    ("trig_poly", {"seed": 1}),
])
def test_low_order_derivatives_match_finite_differences(name, params):
    f = get_function(name, **params)
    for x in (-2.0, 0.3, 1.7):
        for m in (1, 2):
            approx = finite_diff(f, x, m)
            exact = f.derivative(x, m)
            assert exact == pytest.approx(approx, rel=1e-4, abs=1e-4)


@pytest.mark.parametrize("name,params", [
    ("modulated_sine", {}),
    ("gaussian", {}),
    ("log_fn", {}),
    ("monomial", {"m": 3}),
])
def test_analytic_jump_consistency(name, params):
    f = get_function(name, **params)
    for m in range(4):
        expected = f.derivative(PI, m) - f.derivative(-PI, m)
        assert f.analytic_jump(m) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("name", sorted(FUNCTION_CATALOG))
@pytest.mark.parametrize("q", [0, 16])
def test_all_orders_take_one_formula_call(name, q):
    f = get_function(name, **({"m": 3} if name == "monomial" else {}))
    calls = []

    def counted(x, orders):
        calls.append((x, orders))
        return f.formula(x, orders)

    got = dataclasses.replace(f, formula=counted).derivatives(0.3, q)
    assert calls == [(0.3, tuple(range(q)))]
    assert got.dtype == np.float64 and got.shape == (q,)
    assert got.tobytes() == f.derivatives(0.3, q).tobytes()


def test_gaussian_peak():
    f = get_function("gaussian")
    assert f.value(3 * PI / 4) == pytest.approx(1.0)


def test_log_left_endpoint():
    f = get_function("log_fn")
    assert f.value(-PI) == pytest.approx(math.log(0.5))


def test_monomial_values():
    f = get_function("monomial", m=3)
    assert f.value(2.0) == pytest.approx(8.0)
    assert f.derivative(2.0, 1) == pytest.approx(12.0)
    assert f.derivative(2.0, 3) == pytest.approx(6.0)
    assert f.derivative(2.0, 4) == 0.0


def test_multimode_wavenumbers_non_integer():
    ks = multimode_wavenumbers(30)
    assert ks.size == 30
    fracs = ks - np.floor(ks)
    assert np.all(fracs >= 1 / 30 - 1e-12)
    assert np.all(fracs <= 1 - 1 / 30 + 1e-12)


def test_leakage_demo_is_two_mode_sum():
    f = get_function("leakage_demo")
    x = 0.37
    assert f.value(x) == pytest.approx(0.7 * math.sin(5.3 * x) + math.sin(12.4 * x))


def test_trig_poly_is_periodic():
    f = get_function("trig_poly", seed=3)
    for m in range(6):
        assert f.derivative(PI, m) == pytest.approx(f.derivative(-PI, m), abs=1e-10)


def test_unknown_name_raises():
    with pytest.raises(KeyError):
        get_function("no_such_function")


def test_catalog_names_stable():
    assert {"modulated_sine", "gaussian", "log_fn", "multimode",
            "monomial", "leakage_demo", "trig_poly"} <= set(FUNCTION_CATALOG)


@given(st.integers(1, DERIVATIVE_ORDER_MAX), st.floats(-3, 3))
@settings(max_examples=60, deadline=None)
def test_high_order_derivatives_finite(order, x):
    f = get_function("modulated_sine")
    assert math.isfinite(f.derivative(x, order))


def test_modulated_sine_high_order_against_mpmath():
    mp = pytest.importorskip("mpmath")
    f = get_function("modulated_sine")
    a, b = -1 / PI, 0.75

    def g(x):
        return mp.im(mp.exp((a + 1j * b) * (x + mp.pi)))

    for order in (5, 11, 17):
        exact = float(mp.diff(g, 0.4, order))
        assert f.derivative(0.4, order) == pytest.approx(exact, rel=1e-9)


def exact_hermite(t, m):
    """The physicists' H_m(t) in rationals at the float t: exact."""
    t = Fraction(t)
    h0, h1 = Fraction(1), 2 * t  # H_{k-1}(t), H_k(t)
    for k in range(1, m):
        h0, h1 = h1, 2 * t * h1 - 2 * k * h0
    return h1 if m else h0


@pytest.mark.parametrize("x0, w", [(3.0 * PI / 4.0, 1.0), (2.3, 0.9), (-1.1, 1.3)])
def test_gaussian_against_exact_hermite(x0, w):
    # (-1/w)^m H_m(t) exp(-t^2) at the float t, with the scale and H_m(t)
    # exact; a power-basis Hermite sum is off by up to 5e-9 here.
    f = get_function("gaussian", x0=x0, w=w)
    for x in (-PI, -0.7, 0.0, 1.9, PI):
        t = (x - x0) / w
        e = Fraction(math.exp(-t * t))
        for m in range(DERIVATIVE_ORDER_MAX + 1):
            exact = (-1) ** m * exact_hermite(t, m) / Fraction(w) ** m * e
            assert abs(Fraction(f.derivative(x, m)) - exact) <= Fraction(1e-13) * abs(exact), (x, m)


def test_log_fn_below_its_domain_raises_value_error():
    f = get_function("log_fn")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (-4.0, -PI - 0.5, np.array([-3.0, -4.0])):
            for m in (0, 1, 5):
                with pytest.raises(ValueError, match=r"log_fn needs x > -pi - 1/2"):
                    f.derivative(x, m)
        with pytest.raises(ValueError, match=r"log_fn needs x > -pi - 1/2"):
            f.derivatives(-4.0, 8)


@pytest.mark.parametrize("name, param", [
    ("multimode", "n_modes"), ("monomial", "m"), ("trig_poly", "seed"), ("trig_poly", "max_mode")])
def test_integer_params_take_ints_numpy_ints_and_integral_floats(name, param):
    want = get_function(name, **{param: 3})
    nodes = np.linspace(-PI, PI, 9)
    for value in (np.int64(3), 3.0, np.float64(3.0)):
        f = get_function(name, **{param: value})
        assert f.params == want.params and type(f.params[param]) is int
        assert f.value(nodes).tobytes() == want.value(nodes).tobytes()


@pytest.mark.parametrize("name, param", [
    ("multimode", "n_modes"), ("monomial", "m"), ("trig_poly", "seed"), ("trig_poly", "max_mode")])
@pytest.mark.parametrize("value", [2.5, 3.7, np.float64(4.2), math.nan, math.inf, "3"])
def test_non_integral_params_raise_naming_the_parameter(name, param, value):
    with pytest.raises(ValueError, match=f"^{name} needs an integer {param}, got "):
        get_function(name, **{param: value})
