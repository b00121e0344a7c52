"""End-to-end accuracy contract for the whole package.

Each test reproduces one headline result at its stated tolerance, so a
plain ``pytest tests/test_acceptance.py -v`` reads as a pass/fail line per
criterion. Tolerances are deliberately looser than the typical observed
errors to absorb round-off variation across platforms, never to hide a
broken method.
"""

import math

import numpy as np
import pytest

from gfs.baselines import IllConditioned, fft_derivative, prony_fit
from gfs.core import gfs_decompose, gfs_derivative
from gfs.functions import get_function
from gfs.grid import make_grid, sample
from gfs.jumps import estimate_jumps, fd_differentiate, jumps_from_analytic

PI = math.pi


def gfs_error(name, n, N, params=None, jump="analytic", r=6):
    f = get_function(name, **(params or {}))
    g = make_grid(-PI, PI, N)
    u = sample(f, g)
    if jump == "analytic":
        jumps = jumps_from_analytic(f, 4 * n)
    else:
        jumps = estimate_jumps(u, 4 * n, r)
    d = gfs_derivative(gfs_decompose(u, n, jumps))
    exact = f.derivative(g.nodes(), 1)
    return float(np.max(np.abs(d.values - exact)))


def method_error(name, method, N, params=None, r=6):
    f = get_function(name, **(params or {}))
    g = make_grid(-PI, PI, N)
    u = sample(f, g)
    if method == "fft":
        d = fft_derivative(u).values
    elif method == "fd":
        d = fd_differentiate(u, r).values
    exact = f.derivative(g.nodes(), 1)
    return float(np.max(np.abs(d - exact)))


class TestCriterion1ModulatedSine:
    def test_two_modes_analytic(self):
        assert gfs_error("modulated_sine", 2, 64) <= 1e-12

    def test_one_mode_analytic(self):
        assert 2e-6 <= gfs_error("modulated_sine", 1, 64) <= 4e-5


class TestCriterion2Gaussian:
    def test_analytic_jumps(self):
        assert gfs_error("gaussian", 3, 64) <= 1e-12

    def test_fd_jumps_fine_grid(self):
        assert gfs_error("gaussian", 3, 256, jump="fd") <= 1e-10

    def test_fft_column(self):
        assert method_error("gaussian", "fft", 64) == pytest.approx(4.24, rel=0.2)

    def test_fd_column(self):
        err = method_error("gaussian", "fd", 64)
        assert 4.18e-6 <= err <= 4.18e-4


class TestCriterion3Log:
    def test_headline_error(self):
        assert gfs_error("log_fn", 3, 128) <= 2e-10

    def test_convergence_factor_per_doubling(self):
        errs = [gfs_error("log_fn", 3, N) for N in (32, 64, 128)]
        assert errs[0] / errs[1] >= 100
        assert errs[1] / errs[2] >= 100


class TestCriterion4Multimode:
    PARAMS = {"n_modes": 30}

    def test_four_modes(self):
        assert gfs_error("multimode", 4, 128, self.PARAMS) <= 1e-10

    def test_six_modes(self):
        assert gfs_error("multimode", 6, 80, self.PARAMS) <= 1e-7

    def test_underresolved_two_modes(self):
        err = gfs_error("multimode", 2, 64, self.PARAMS)
        assert 7.34e-2 / 5 <= err <= 7.34e-2 * 5

    def test_three_points_per_wavelength(self):
        assert gfs_error("multimode", 6, 96, self.PARAMS) <= 1e-9


class TestCriterion5Ramp:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_regularized_jumps(self, n):
        assert gfs_error("monomial", n, 64, {"m": 1}) <= 1e-11

    def test_fft_column(self):
        err = method_error("monomial", "fft", 64, {"m": 1})
        assert err == pytest.approx(44.3, rel=0.2)


class TestCriterion6Cubic:
    def test_analytic_jumps(self):
        assert gfs_error("monomial", 3, 64, {"m": 3}) <= 1e-7

    def test_fd_jumps(self):
        assert gfs_error("monomial", 2, 64, {"m": 3}, jump="fd") <= 1e-9


class TestCriterion7Leakage:
    def test_mode_and_amplitude_recovery(self):
        from gfs.core import gfs_decompose
        f = get_function("leakage_demo")
        g = make_grid(-PI, PI, 128)
        u = sample(f, g)
        dec = gfs_decompose(u, 2, jumps_from_analytic(f, 8))
        modes = sorted(dec.aperiodic.sine_modes, key=lambda p: p[0].real)
        ks = [k.real for k, _ in modes]
        amps = [a.real for _, a in modes]
        np.testing.assert_allclose(ks, [5.3, 12.4], atol=1e-8)
        np.testing.assert_allclose(amps, [0.7, 1.0], atol=1e-8)
        assert all(abs(k.imag) <= 1e-8 for k, _ in modes)


class TestCriterion8Properties:
    """The detailed property suites live in the per-module test files;
    these entries assert they are present and re-run one representative
    instance each so the acceptance report stays self-contained."""

    def test_jump_matching_invariant(self):
        from gfs.core import build_aperiodic_model, model_jump
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = rng.integers(1, 4)
            ks = np.sort(rng.uniform(0.3, 6.0, size=n))
            ks = np.floor(ks) + np.clip(ks - np.floor(ks), 0.2, 0.8)
            while np.any(np.diff(ks) < 0.3):
                ks = ks + np.arange(n) * 0.5
            amps = rng.uniform(0.5, 2.0, size=n)
            from test_core import sine_sum_jumps
            jumps = sine_sum_jumps(ks, amps, 4 * n)
            model = build_aperiodic_model(jumps, int(n))
            for m in range(4 * int(n)):
                scale = max(1.0, max(abs(a) * abs(k) ** m
                                     for k, a in model.sine_modes))
                assert abs(model_jump(model, m) - jumps.J[m]) <= 1e-6 * scale

    def test_closed_form_oracle_equivalence(self):
        from test_core import (one_mode_oracle, sine_sum_jumps,
                                     two_mode_oracle)
        from gfs.core import build_aperiodic_model
        jumps = sine_sum_jumps([0.45], [1.3], 4)
        model = build_aperiodic_model(jumps, 1)
        k_o, u_o = one_mode_oracle(jumps.J)
        (k, a), = model.sine_modes
        assert abs(k - k_o) <= 1e-9 * abs(k_o)
        assert abs(a - u_o) <= 1e-9 * abs(u_o)
        jumps = sine_sum_jumps([0.8, 2.1], [1.0, 0.7], 8)
        model = build_aperiodic_model(jumps, 2)
        oracle = sorted(two_mode_oracle(jumps.J), key=lambda p: abs(p[0]))
        got = sorted(model.sine_modes, key=lambda p: abs(p[0]))
        for (k_o, u_o), (k, a) in zip(oracle, got):
            assert abs(k - k_o) <= 1e-9 * abs(k_o)
            assert abs(a - u_o) <= 1e-9 * abs(u_o)

    def test_periodic_fallback(self):
        for seed in range(20):
            f = get_function("trig_poly", seed=seed)
            g = make_grid(-PI, PI, 64)
            u = sample(f, g)
            d_gfs = gfs_derivative(gfs_decompose(u, 2, jumps_from_analytic(f, 8)))
            d_fft = fft_derivative(u)
            np.testing.assert_allclose(d_gfs.values, d_fft.values, atol=1e-12)

    def test_stencil_polynomial_exactness(self):
        from fractions import Fraction
        from gfs.jumps import stencil_weights_at_offsets
        for d, width in [(1, 3), (5, 9), (12, 17), (23, 29)]:
            w = stencil_weights_at_offsets(d, list(range(width)))
            for n in range(width):
                acc = sum(c * Fraction(s) ** n
                          for c, s in zip(w, range(width)))
                assert acc == (Fraction(math.factorial(d)) if n == d
                               else Fraction(0))

    def test_prony_three_term_recovery(self):
        from gfs.grid import SampledSignal
        g = make_grid(-PI, PI, 16)
        xs = g.nodes()
        phi = np.array([-0.4 + 1.5j, -0.4 - 1.5j, 0.2])
        c = np.array([0.8 + 0.3j, 0.8 - 0.3j, 1.1])
        vals = np.real(c @ np.exp(np.outer(phi, xs - xs[0])))
        fit = prony_fit(SampledSignal(g, vals), 3)
        np.testing.assert_allclose(np.sort_complex(fit.phi),
                                   np.sort_complex(phi), atol=1e-8)

    def test_jump_matching_corrections(self):
        from gfs.baselines import polynomial_jump, roache_coefficients
        from gfs.jumps import JumpData
        rng = np.random.default_rng(7)
        for q in range(1, 9):
            J = rng.uniform(-2, 2, size=q)
            a = roache_coefficients(JumpData(J=J), q)
            for m in range(q):
                assert polynomial_jump(a, m) == pytest.approx(J[m], abs=1e-8)


class TestCriterion9FailureModes:
    @pytest.mark.parametrize("N", [128, 256])
    def test_prony_ill_conditioned_on_fine_grids(self, N):
        f = get_function("gaussian")
        g = make_grid(-PI, PI, N)
        with pytest.raises(IllConditioned):
            prony_fit(sample(f, g), N // 2)

    def test_prony_inf_rows_in_harness(self):
        from gfs.bench import ExperimentConfig, run_experiment
        cfg = ExperimentConfig(function="gaussian", methods=("prony",), N_list=(128, 256))
        for row in run_experiment(cfg).rows:
            assert math.isinf(row.e_inf)

    def test_multimode_fd_jump_blowup(self):
        err = gfs_error("multimode", 6, 64, {"n_modes": 30}, jump="fd")
        assert err >= 1e3
