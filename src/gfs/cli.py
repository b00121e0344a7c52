"""Command line front end for the benchmark harness.

Examples:

    gfs-bench --function gaussian --method gfs --method fft --N 64 --N 128 \
        --n-modes 3 --jumps analytic --out gaussian.csv
    gfs-bench @run.args --N 256   # run.args: saved flags, one per line
    gfs-bench --function gaussian --method gfs --N 32 --N 64 --N 128 --sweep
    gfs-bench leakage --N 128 --out leakage.csv
    gfs-bench leakage --N 128 --param k1=5.0 --param k2=12.0
"""

from __future__ import annotations

import argparse
import sys

from gfs.bench import (ExperimentConfig, convergence_sweep, format_csv, leakage_demo, run_experiment,
                       write_report)


def _parse_param(text):
    """key=value with a numeric value: an int where it parses as one, else a float."""
    key, sep, raw = text.partition("=")
    if not sep:
        raise ValueError(f"--param expects key=value, got {text!r}")
    for cast in (int, float):
        try:
            return key, cast(raw)
        except ValueError:
            continue
    raise ValueError(f"--param {key} must be a number, got {raw!r}")


def _build_parser():
    p = argparse.ArgumentParser(
        prog="gfs-bench",
        description="Spectral-derivative accuracy benchmarks.",
        epilog="@FILE inserts the flags in FILE, one per line (--n-modes=3); "
               "a flag given later overrides an earlier one.",
        fromfile_prefix_chars="@")
    p.add_argument("mode", nargs="?", default="bench", choices=["bench", "leakage"],
                   help="bench (default) runs error tables; leakage runs the "
                        "two-mode spectrum demo")
    p.add_argument("--function", help="catalog function name")
    p.add_argument("--param", action="append", default=[], metavar="K=V",
                   help="function parameter override (repeatable)")
    p.add_argument("--method", action="append", default=[],
                   help="method to run: gfs, fft, fd, roache, eckhoff, prony "
                        "(repeatable)")
    p.add_argument("--N", action="append", default=[], type=int,
                   help="grid size (repeatable)")
    p.add_argument("--n-modes", type=int, default=2,
                   help="non-harmonic modes per family for gfs")
    p.add_argument("--q", type=int, default=8,
                   help="jump count for roache/eckhoff")
    p.add_argument("--jumps", default="analytic",
                   help="jump source for gfs: analytic or fd:<r>")
    p.add_argument("--out", help="CSV output path (default: stdout)")
    p.add_argument("--sweep", action="store_true",
                   help="also report log-log convergence slopes (needs >= 3 N)")
    return p


def _config_from_args(args):
    params = dict(_parse_param(s) for s in args.param)
    return ExperimentConfig(
        function=args.function,
        params=params,
        methods=tuple(args.method) if args.method else ("gfs",),
        N_list=tuple(args.N) if args.N else (64,),
        n_modes=args.n_modes,
        q=args.q,
        jump_source=args.jumps,
    )


def _leakage_text(args):
    N = args.N[0] if args.N else 128
    rep = leakage_demo(N, **dict(_parse_param(s) for s in args.param))
    lines = ["quantity,index,value"]
    for j, (k, a) in enumerate(rep.recovered_sine_modes):
        lines.append(f"mode_wavenumber,{j},{k.real:.8e}")
        lines.append(f"mode_wavenumber_imag,{j},{k.imag:.8e}")
        lines.append(f"mode_amplitude,{j},{a.real:.8e}")
        lines.append(f"mode_amplitude_imag,{j},{a.imag:.8e}")
    for i, v in enumerate(rep.raw_spectrum):
        lines.append(f"raw_spectrum,{i},{v:.5e}")
    for i, v in enumerate(rep.periodic_spectrum):
        lines.append(f"periodic_spectrum,{i},{v:.5e}")
    return "\n".join(lines) + "\n"


def _emit(text, out):
    """The text to the --out file, else appended to standard output as it stands."""
    if out:
        write_report(text, out)
    else:
        sys.stdout.write(text)


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.mode == "leakage":
            _emit(_leakage_text(args), args.out)
            return 0
        if not args.function:
            raise ValueError("--function is required")
        cfg = _config_from_args(args)
        if args.sweep:
            report, slopes = convergence_sweep(cfg)
            _emit(format_csv(report), args.out)
            for method in sorted(slopes):
                sys.stderr.write(f"slope {method}: {slopes[method]:.3f}\n")
        else:
            _emit(format_csv(run_experiment(cfg)), args.out)
    except (OSError, ValueError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
