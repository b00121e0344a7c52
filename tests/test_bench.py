import math
import time
import warnings

import numpy as np
import pytest

import gfs.bench
from gfs.bench import (
    ExperimentConfig,
    ExperimentReport,
    ExperimentRow,
    _warm_up_numpy,
    convergence_sweep,
    format_csv,
    leakage_demo,
    loglog_slope,
    run_experiment,
    write_report,
)
from gfs.baselines import bernoulli_coefficients
from gfs.cli import main as cli_main
from gfs.core import AperiodicModel, GFSDecomposition
from gfs.jumps import _fornberg_table, jump_stencils
from gfs.linalg import DegenerateNodes

HEADER = "method,function,N,param,jump_source,e_inf,e_2,wall_ms,note"
# a trig_poly draw whose n=4 gfs fit raises RealnessViolation at N=64
TRIG_POLY_BROKEN_PAIR = {"seed": 1729147489, "max_mode": 5}


def read_rows(path):
    lines = path.read_text().strip().split("\n")
    assert lines[0] == HEADER
    return [line.split(",") for line in lines[1:]]


class TestRunExperiment:
    def test_gaussian_gfs_row(self):
        cfg = ExperimentConfig(function="gaussian", methods=("gfs",),
                               N_list=(64,), n_modes=3)
        report = run_experiment(cfg)
        (row,) = report.rows
        assert row.method == "gfs"
        assert row.e_inf <= 1e-12
        assert row.e_2 <= row.e_inf * math.sqrt(2 * math.pi * 65 / 64)

    def test_gaussian_fft_row(self):
        cfg = ExperimentConfig(function="gaussian", methods=("fft",),
                               N_list=(64,))
        (row,) = run_experiment(cfg).rows
        assert row.e_inf == pytest.approx(4.24, rel=0.2)

    def test_log_gfs_row(self):
        cfg = ExperimentConfig(function="log_fn", methods=("gfs",),
                               N_list=(128,), n_modes=3)
        (row,) = run_experiment(cfg).rows
        assert row.e_inf <= 2e-10

    def test_prony_failure_becomes_inf_row(self):
        cfg = ExperimentConfig(function="gaussian", methods=("prony",), N_list=(128,))
        (row,) = run_experiment(cfg).rows
        assert row.param == "64"  # M = N/2
        assert math.isinf(row.e_inf)
        assert math.isinf(row.e_2)
        assert row.note == "IllConditioned"

    def test_realness_violation_becomes_inf_row(self):
        # this draw's n=4 cosine family cancels to O(1) from amplitudes near
        # 4.7e6, and its mode k ~ 6.9e-4i has no conjugate partner and a
        # complex amplitude: the first derivative's imaginary part exceeds
        # the realness tolerance; the fft row survives
        cfg = ExperimentConfig(function="trig_poly", params=TRIG_POLY_BROKEN_PAIR,
                               methods=("fft", "gfs"), N_list=(64,), n_modes=4, q=16)
        fft, failed = run_experiment(cfg).rows
        assert (failed.method, failed.note, failed.e_inf, failed.e_2) == (
            "gfs", "RealnessViolation", math.inf, math.inf)
        assert (fft.method, fft.note) == ("fft", "") and math.isfinite(fft.e_inf)

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 4: the regularized zero jump J_3 of x^2 fits one cosine mode "
        "k = 8.9e-9i, a = 2.5e16; it is exactly real, but its constant cancels against "
        "the samples and leaves e_inf 2.1e2"))
    def test_quadratic_with_one_mode_is_accurate_or_raises(self):
        """x^2 with n=1 and analytic jumps is within 1e-6 or raises."""
        cfg = ExperimentConfig(function="monomial", params={"m": 2}, methods=("gfs",),
                               N_list=(128,), n_modes=1, q=4)
        (row,) = run_experiment(cfg).rows
        assert row.note or row.e_inf <= 1e-6

    @pytest.mark.parametrize("exc", [ArithmeticError("root residual"), ZeroDivisionError(),
                                     DegenerateNodes("repeated nodes")])
    def test_numerical_failure_becomes_inf_row(self, exc, monkeypatch):
        def fail(*args):
            raise exc
        monkeypatch.setattr(gfs.bench, "gfs_decompose", fail)
        cfg = ExperimentConfig(function="gaussian", methods=("fft", "gfs"), N_list=(64,))
        fft, failed = run_experiment(cfg).rows
        assert (failed.note, failed.e_inf, failed.e_2) == (type(exc).__name__, math.inf, math.inf)
        assert fft.note == "" and math.isfinite(fft.e_inf)

    def test_rows_sorted_by_method_then_N(self):
        cfg = ExperimentConfig(function="gaussian",
                               methods=("fft", "gfs"), N_list=(128, 64),
                               n_modes=3)
        report = run_experiment(cfg)
        keys = [(r.method, r.N) for r in report.rows]
        assert keys == sorted(keys)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(function="gaussian", methods=("magic",))


class TestEmitCsv:
    def test_empty_report(self, tmp_path):
        out = tmp_path / "empty.csv"
        write_report(format_csv(ExperimentReport(rows=())), out)
        assert out.read_text() == HEADER + "\n"

    def test_one_row(self, tmp_path):
        cfg = ExperimentConfig(function="gaussian", methods=("gfs",),
                               N_list=(64,), n_modes=3)
        out = tmp_path / "one.csv"
        write_report(format_csv(run_experiment(cfg)), out)
        rows = read_rows(out)
        assert len(rows) == 1
        method, function, N, param, src, e_inf, e_2, wall, note = rows[0]
        assert (method, function, N, param, src, note) == ("gfs", "gaussian", "64",
                                                           "3", "analytic", "")
        assert float(e_inf) <= 1e-12
        # 6 significant digits, scientific
        assert "e" in e_inf and len(e_inf.split("e")[0].replace("-", "").replace(".", "")) == 6

    def test_inf_sentinel(self, tmp_path):
        cfg = ExperimentConfig(function="gaussian", methods=("prony",),
                               N_list=(256,))
        out = tmp_path / "inf.csv"
        write_report(format_csv(run_experiment(cfg)), out)
        row = read_rows(out)[0]
        assert row[5] == "inf" and row[6] == "inf"

    def test_failures_differ_by_note(self, tmp_path):
        # two failed rows with the same inf errors differ in the last column
        rows = tuple(ExperimentRow(method="gfs", function="monomial", N=128, param="1",
                                   jump_source="analytic", e_inf=math.inf, e_2=math.inf,
                                   wall_ms=0.0, note=note)
                     for note in ("RealnessViolation", "IllConditioned"))
        out = tmp_path / "notes.csv"
        write_report(format_csv(ExperimentReport(rows=rows)), out)
        realness, ill = read_rows(out)
        assert realness[:8] == ill[:8]
        assert (realness[8], ill[8]) == ("RealnessViolation", "IllConditioned")

    def test_determinism_excluding_wall_time(self, tmp_path):
        cfg = ExperimentConfig(function="log_fn", methods=("gfs", "fft"),
                               N_list=(32, 64), n_modes=3)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_report(format_csv(run_experiment(cfg)), a)
        write_report(format_csv(run_experiment(cfg)), b)
        strip = lambda p: [r[:7] for r in read_rows(p)]
        assert strip(a) == strip(b)


class TestConvergence:
    def test_requires_three_sizes(self):
        cfg = ExperimentConfig(function="gaussian", N_list=(64, 128))
        with pytest.raises(ValueError):
            convergence_sweep(cfg)

    def test_fd_slope_near_minus_six(self):
        cfg = ExperimentConfig(function="gaussian", methods=("fd",),
                               N_list=(64, 128, 256))
        _, slopes = convergence_sweep(cfg)
        assert -7 <= slopes["fd"] <= -5

    def test_gfs_slope_steep_on_log(self):
        cfg = ExperimentConfig(function="log_fn", methods=("gfs",),
                               N_list=(32, 64, 128), n_modes=3)
        _, slopes = convergence_sweep(cfg)
        assert slopes["gfs"] <= -9

    def test_fft_not_convergent(self):
        cfg = ExperimentConfig(function="gaussian", methods=("fft",),
                               N_list=(64, 128, 256))
        _, slopes = convergence_sweep(cfg)
        assert math.isnan(slopes["fft"]) or slopes["fft"] >= -0.5

    def test_slope_helper_ignores_inf(self):
        s = loglog_slope([32, 64, 128], [1e-2, math.inf, 1e-6])
        assert math.isnan(s) or s < 0


def _row_fields(rows):
    return [(r.method, r.N, r.param, r.jump_source, r.e_inf, r.e_2, r.note) for r in rows]


@pytest.mark.parametrize("function, jump_source, q", [
    ("gaussian", "analytic", 12), ("log_fn", "analytic", 12), ("trig_poly", "analytic", 12),
    ("gaussian", "fd:6", 12), ("gaussian", "analytic", 8),
])
def test_shared_samples_and_jumps_change_no_row(function, jump_source, q):
    # one run of six methods shares samples, exact derivatives and analytic
    # jumps (q = 8 takes a slice of the 4n = 12 gfs needs); six one-method
    # runs prepare their own
    methods = ("eckhoff", "fd", "fft", "gfs", "prony", "roache")
    common = dict(function=function, N_list=(32, 64, 128), n_modes=3, q=q,
                  jump_source=jump_source)
    joint = run_experiment(ExperimentConfig(methods=methods, **common)).rows
    single = [row for m in methods
              for row in run_experiment(ExperimentConfig(methods=(m,), **common)).rows]
    assert _row_fields(joint) == _row_fields(single)


def test_fd_stencils_are_built_before_the_first_timed_window(monkeypatch):
    # the first gfs row's wall_ms must not carry the one-off construction of
    # the exact stencil table or of the float tables estimate_jumps reads,
    # nor numpy's first FFT and LAPACK calls
    _fornberg_table.cache_clear()
    jump_stencils.cache_clear()
    _warm_up_numpy.cache_clear()
    sizes = []
    clock = time.perf_counter

    def recording_clock():
        sizes.append((_fornberg_table.cache_info().currsize,
                       jump_stencils.cache_info().currsize,
                       _warm_up_numpy.cache_info().currsize))
        return clock()

    monkeypatch.setattr(time, "perf_counter", recording_clock)
    cfg = ExperimentConfig(function="gaussian", methods=("gfs",),
                           N_list=(64, 128), n_modes=3, jump_source="fd:6")
    run_experiment(cfg)
    # the exact table and the forward and backward float tables of width
    # 4 * 3 - 1 + 6 exist before the first timed window
    assert sizes and sizes[0][0] >= 1 and sizes[0][1] == 1
    assert jump_stencils.cache_info().misses == 1
    # the numpy warm-up ran before the first timed window
    assert sizes[0][2] == 1
    # and no table is built inside a timed window
    assert sizes[-1] == sizes[0]


def test_bernoulli_coefficients_are_built_before_the_first_timed_window(monkeypatch):
    # eckhoff's first row must not carry the one-off exact construction of
    # B_1..B_q, from which it derives its padded table on each call; roache
    # reads no cached table. At the largest eckhoff q, no cache grows
    # inside a timed window of either method.
    bernoulli_coefficients.cache_clear()
    caches = (bernoulli_coefficients, _fornberg_table, jump_stencils, _warm_up_numpy)
    sizes = []
    clock = time.perf_counter

    def recording_clock():
        sizes.append(tuple(c.cache_info().currsize for c in caches))
        return clock()

    monkeypatch.setattr(time, "perf_counter", recording_clock)
    rows = run_experiment(ExperimentConfig(function="gaussian", methods=("eckhoff", "roache"),
                                           N_list=(32, 33), q=33)).rows
    assert [(r.method, r.note) for r in rows] == [("eckhoff", ""), ("eckhoff", ""),
                                                   ("roache", ""), ("roache", "")]
    assert len(sizes) == 8 and sizes[0][0] == 33
    assert set(sizes) == {sizes[0]}


def test_a_non_finite_gfs_derivative_becomes_a_noted_row(monkeypatch):
    # the sine mode (3.5, 1e308) overflows at order 1: the table keeps the
    # row, as for any numerical failure, instead of aborting
    def overflowing_decomposition(u, n, jumps):
        model = AperiodicModel(sine_modes=((3.5, 1e308),))
        return GFSDecomposition(grid=u.grid, periodic=np.zeros(u.grid.N + 1), aperiodic=model,
                                nodes=u.grid.standard_nodes(), waves=None)

    monkeypatch.setattr(gfs.bench, "gfs_decompose", overflowing_decomposition)
    with np.errstate(over="ignore", invalid="ignore"):
        rows = run_experiment(ExperimentConfig(function="gaussian", methods=("gfs",), N_list=(64,))).rows
    assert [(r.e_inf, r.note) for r in rows] == [(math.inf, "NonFiniteDerivative")]


class TestLeakageDemo:
    def test_mode_recovery(self):
        rep = leakage_demo(128)
        ks = [k.real for k, _ in rep.recovered_sine_modes]
        amps = [a.real for _, a in rep.recovered_sine_modes]
        np.testing.assert_allclose(ks, [5.3, 12.4], atol=1e-8)
        np.testing.assert_allclose(amps, [0.7, 1.0], atol=1e-8)

    def test_raw_spectrum_has_side_lobes(self):
        rep = leakage_demo(128)
        # non-integer modes leak into neighbouring bins
        near5 = rep.raw_spectrum[3:9]
        assert np.count_nonzero(near5 > 1e-3) >= 3

    def test_periodic_variant_two_clean_bins(self):
        rep = leakage_demo(128, k1=5.0, k2=12.0)
        spec = rep.periodic_spectrum
        big = np.flatnonzero(spec > 1e-8)
        assert set(big) == {5, 12}


class TestCli:
    def test_basic_run(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        rc = cli_main(["--function", "gaussian", "--method", "gfs",
                       "--N", "64", "--n-modes", "3", "--out", str(out)])
        assert rc == 0
        rows = read_rows(out)
        assert rows[0][0] == "gfs"

    def test_repeatable_flags(self, tmp_path):
        out = tmp_path / "multi.csv"
        rc = cli_main(["--function", "gaussian", "--method", "gfs",
                       "--method", "fft", "--N", "64", "--N", "128",
                       "--n-modes", "3", "--jumps", "analytic",
                       "--out", str(out)])
        assert rc == 0
        assert len(read_rows(out)) == 4

    def test_param_flag(self, tmp_path):
        out = tmp_path / "param.csv"
        rc = cli_main(["--function", "multimode", "--param", "n_modes=10",
                       "--method", "gfs", "--N", "64", "--n-modes", "2",
                       "--out", str(out)])
        assert rc == 0

    def test_fd_jump_source(self, tmp_path):
        out = tmp_path / "fd.csv"
        rc = cli_main(["--function", "gaussian", "--method", "gfs",
                       "--N", "256", "--n-modes", "3", "--jumps", "fd:6",
                       "--out", str(out)])
        assert rc == 0
        row = read_rows(out)[0]
        assert row[4] == "fd:6"
        assert float(row[5]) <= 1e-10

    def test_config_file(self, tmp_path):
        # an @file holds flags one per line; flags after it override its
        # single-valued ones, and repeatable ones add to its lists
        cfg = tmp_path / "run.args"
        cfg.write_text("--function=gaussian\n"
                       "--method=gfs\n"
                       "--method=fft\n"
                       "--N=64\n"
                       "--n-modes=2\n")
        out = tmp_path / "cfg.csv"
        rc = cli_main([f"@{cfg}", "--n-modes", "3", "--method", "fd", "--out", str(out)])
        assert rc == 0
        rows = read_rows(out)
        assert [(r[0], r[2], r[3]) for r in rows] == [
            ("fd", "64", "6"), ("fft", "64", ""), ("gfs", "64", "3")]

    def test_missing_function_is_config_error(self, capsys):
        rc = cli_main(["--method", "gfs"])
        assert rc != 0

    def test_bad_config_file(self, tmp_path, capsys):
        # argparse rejects a bad or missing @file like a bad flag: usage and exit 2
        cfg = tmp_path / "bad.args"
        cfg.write_text("function = gaussian\n")
        for argv in ([f"@{cfg}"], [f"@{tmp_path / 'missing.args'}"]):
            with pytest.raises(SystemExit) as exc:
                cli_main(argv)
            assert exc.value.code == 2
            assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["fd:0", "fd:-2", "fd:x"])
    def test_degenerate_fd_jump_order(self, source, capsys):
        rc = cli_main(["--function", "gaussian", "--method", "gfs", "--N", "64",
                       "--n-modes", "2", "--jumps", source])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: jump_source must be")

    @pytest.mark.parametrize("function, param", [
        ("multimode", "n_modes=1"), ("multimode", "n_modes=0"), ("monomial", "m=-1"),
        ("gaussian", "w=0")])
    def test_unevaluable_catalog_param(self, function, param, capsys):
        # rejected by the catalog factory, before any closed form is evaluated
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli_main(["--function", function, "--param", param,
                           "--method", "gfs", "--N", "64"])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {function} needs")

    @pytest.mark.parametrize("function, param", [
        ("monomial", "m=3.7"), ("multimode", "n_modes=2.5"), ("trig_poly", "seed=1.5"),
        ("trig_poly", "max_mode=4.2")])
    def test_non_integral_catalog_param(self, function, param, capsys):
        name, _, value = param.partition("=")
        rc = cli_main(["--function", function, "--param", param, "--method", "fft", "--N", "32"])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {function} needs an integer {name}, got {value}\n"

    def test_integral_float_catalog_param_is_the_integer(self, tmp_path):
        tables = []
        for m in ("3", "3.0"):
            out = tmp_path / f"monomial_{m}.csv"
            assert cli_main(["--function", "monomial", "--param", f"m={m}", "--method", "fft",
                             "--method", "gfs", "--N", "32", "--out", str(out)]) == 0
            rows = [line.split(",") for line in out.read_text().splitlines()]
            tables.append([row[:7] + row[8:] for row in rows])  # all but wall_ms
        assert tables[0] == tables[1]

    @pytest.mark.parametrize("flag, name", [("--n-modes", "n_modes"), ("--q", "q")])
    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_count_below_one_is_config_error(self, flag, name, count, capsys, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("sampled before the config was checked")
        monkeypatch.setattr(gfs.bench, "sample", no_sampling)
        rc = cli_main(["--function", "gaussian", "--method", "gfs", "--method", "roache",
                       "--N", "64", flag, count])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {name} must be >= 1, got {count}\n"

    def test_eckhoff_q_above_the_bernoulli_limit_is_config_error(self, tmp_path, capsys, monkeypatch):
        # B_1..B_q must exist: q = 33 runs, q = 34 is rejected before sampling
        out = tmp_path / "eckhoff.csv"
        argv = ["--function", "gaussian", "--method", "eckhoff", "--N", "32"]
        assert cli_main(argv + ["--q", "33", "--out", str(out)]) == 0
        assert [(r[0], r[3], r[8]) for r in read_rows(out)] == [("eckhoff", "33", "")]

        def no_sampling(*args):
            raise AssertionError("sampled before the config was checked")
        monkeypatch.setattr(gfs.bench, "sample", no_sampling)
        assert cli_main(argv + ["--q", "34"]) == 2
        assert capsys.readouterr().err == "error: eckhoff needs q <= 33, got q=34\n"
        # without eckhoff, q is not bounded by the Bernoulli table
        ExperimentConfig(function="gaussian", methods=("roache",), q=34)

    def test_unwritable_output_is_io_error(self):
        rc = cli_main(["--function", "gaussian", "--method", "gfs",
                       "--N", "64", "--n-modes", "3",
                       "--out", "/no/such/dir/out.csv"])
        assert rc != 0

    def test_sweep(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = cli_main(["--function", "log_fn", "--method", "gfs",
                       "--N", "32", "--N", "64", "--N", "128",
                       "--n-modes", "3", "--sweep", "--out", str(out)])
        assert rc == 0
        assert "slope gfs" in capsys.readouterr().err

    @pytest.mark.parametrize("sweep", [[], ["--N", "64", "--N", "128", "--sweep"]])
    def test_no_out_writes_to_standard_output(self, sweep, capsys):
        # without --out the table goes through sys.stdout, after whatever it
        # already holds; reopening /dev/stdout for writing truncated a
        # redirected file
        print("earlier line")
        rc = cli_main(["--function", "gaussian", "--method", "fft", "--N", "32"] + sweep)
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == ["earlier line", "method,function,N,param,jump_source,e_inf,e_2,wall_ms,note"]
        assert [line.split(",")[:3] for line in lines[2:]] == \
            [["fft", "gaussian", N] for N in (["32", "64", "128"] if sweep else ["32"])]

    def test_leakage_mode(self, tmp_path):
        out = tmp_path / "leak.csv"
        rc = cli_main(["leakage", "--N", "128", "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert "mode_wavenumber" in text

    @pytest.mark.parametrize("mode", [["leakage"], ["--function", "gaussian", "--method", "fft"]])
    def test_unwritable_output_names_the_path(self, mode, capsys):
        # both modes write --out through one writer, with one error line
        out = "/no/such/dir/out.csv"
        assert cli_main(mode + ["--N", "64", "--out", out]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write report to {out}: ")

    def test_leakage_params(self, tmp_path):
        out = tmp_path / "leak.csv"
        rc = cli_main(["leakage", "--N", "128", "--param", "k1=5.0",
                       "--param", "k2=12.0", "--out", str(out)])
        assert rc == 0
        # integer wavenumbers are periodic: the remainder holds them in two
        # clean bins carrying the catalog amplitudes a1=0.7, a2=1.0
        spec = {int(i): float(v) for q, i, v in
                (line.split(",") for line in out.read_text().splitlines())
                if q == "periodic_spectrum" and float(v) > 1e-8}
        assert set(spec) == {5, 12}
        assert spec[5] == pytest.approx(0.7, abs=1e-5)
        assert spec[12] == pytest.approx(1.0, abs=1e-5)

    def test_leakage_reports_imaginary_wavenumbers(self, tmp_path):
        # integer wavenumbers leave only placeholder jumps; one of the modes
        # fitted to them has a purely imaginary wavenumber
        out = tmp_path / "leak.csv"
        rc = cli_main(["leakage", "--N", "128", "--param", "k1=5.0",
                       "--param", "k2=12.0", "--out", str(out)])
        assert rc == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        got = {(q, int(i)): float(v) for q, i, v in rows if q.startswith("mode_")}
        modes = leakage_demo(128, k1=5.0, k2=12.0).recovered_sine_modes
        assert len(got) == 4 * len(modes)
        for j, (k, a) in enumerate(modes):
            for name, value in (("mode_wavenumber", k), ("mode_amplitude", a)):
                assert got[(name, j)] == pytest.approx(value.real, rel=1e-8)
                assert got[(name + "_imag", j)] == pytest.approx(value.imag, rel=1e-8)
        assert max(abs(got[("mode_wavenumber_imag", j)]) for j in range(len(modes))) > 1.0

    @pytest.mark.parametrize("argv", [
        ["leakage", "--N", "128", "--param", "k3=1.5"],
        ["--function", "gaussian", "--method", "gfs", "--param", "k3=1.5"],
    ])
    def test_unknown_param_is_input_error(self, argv, capsys):
        assert cli_main(argv) == 2
        assert capsys.readouterr().err.startswith("error: unknown parameters ['k3']")

    @pytest.mark.parametrize("argv, message", [
        (["--function", "gaussian", "--param", "x0=abc", "--N", "32"],
         "error: --param x0 must be a number, got 'abc'\n"),
        (["leakage", "--N", "64", "--param", "k1="], "error: --param k1 must be a number, got ''\n"),
        (["--function", "gaussian", "--param", "x0", "--N", "32"],
         "error: --param expects key=value, got 'x0'\n"),
    ])
    def test_non_numeric_param_is_input_error(self, argv, message, capsys):
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == message

    def test_numerical_failure_is_a_row_not_an_abort(self, tmp_path):
        out = tmp_path / "trig_poly.csv"
        assert cli_main(["--function", "trig_poly", "--param", "seed=1729147489",
                         "--param", "max_mode=5", "--n-modes", "4", "--q", "16",
                         "--N", "64", "--method", "gfs", "--method", "fft",
                         "--out", str(out)]) == 0
        rows = {r[0]: r[5:7] + r[8:] for r in read_rows(out)}
        assert rows["gfs"] == ["inf", "inf", "RealnessViolation"]
        assert all(math.isfinite(float(e)) for e in rows["fft"][:2]) and rows["fft"][2] == ""
