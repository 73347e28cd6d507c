"""Command-line front end: distribution, SER, and outage sweeps as CSV,
plus a scalar summary of the high-SNR analysis.

Exit status: 0 on success, 2 on flag validation problems and on a file
that cannot be read or written, 1 on numerical failure. CSV output uses
a header row, comma delimiters, LF line endings and 17-significant-digit
values.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import correlation, eigdist, montecarlo, performance
from .errors import NumericalError, ValidationError, checked_points


def _parse_sweep(text: str) -> np.ndarray:
    """start:stop:points as the inclusive linear grid over the sweep axis."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("sweep must be start:stop:points")
    try:
        start, stop, points = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad sweep value: {exc}") from None
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise argparse.ArgumentTypeError(f"sweep start and stop must be finite, got {text!r}")
    if not (start < stop):
        raise argparse.ArgumentTypeError("sweep start must be below stop")
    if points < 2:
        raise argparse.ArgumentTypeError("sweep needs at least 2 points")
    return np.linspace(start, stop, points)


def _add_common(parser: argparse.ArgumentParser, modulation: bool) -> None:
    parser.add_argument("--nr", type=int, required=True, help="receive antennas")
    parser.add_argument("--nt", type=int, required=True, help="transmit antennas")
    parser.add_argument("--rho-rx", type=float, default=None,
                        help="receive-side exponential correlation coefficient")
    parser.add_argument("--rho-tx", type=float, default=None,
                        help="transmit-side exponential correlation coefficient")
    parser.add_argument("--corr-rx-file", default=None,
                        help="receive correlation matrix CSV (excludes --rho-rx)")
    parser.add_argument("--corr-tx-file", default=None,
                        help="transmit correlation matrix CSV (excludes --rho-tx)")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    if modulation:
        parser.add_argument("--mod", choices=sorted(performance.MODULATIONS),
                            default="bpsk", help="modulation preset")
        parser.add_argument("--a", type=float, default=None,
                            help="custom error-rate constant a (with --b)")
        parser.add_argument("--b", type=float, default=None,
                            help="custom error-rate constant b (with --a)")


def _build_model(parser: argparse.ArgumentParser, args) -> eigdist.EigDistModel:
    if args.nr < 1 or args.nt < 1:
        parser.error("--nr and --nt must be positive")
    matrices = {}
    for side, size, rho_flag, file_flag in (
        ("rx", args.nr, args.rho_rx, args.corr_rx_file),
        ("tx", args.nt, args.rho_tx, args.corr_tx_file),
    ):
        if file_flag is not None and rho_flag is not None:
            parser.error(f"--rho-{side} and --corr-{side}-file are mutually exclusive")
        if file_flag is not None:
            mat = correlation.load_matrix_csv(file_flag)
            if mat.shape != (size, size):
                parser.error(
                    f"--corr-{side}-file matrix is {mat.shape[0]}x{mat.shape[1]}, "
                    f"expected {size}x{size}"
                )
        else:
            rho = 0.0 if rho_flag is None else rho_flag
            if not (0.0 <= rho < 1.0):
                parser.error(f"--rho-{side} must lie in [0, 1)")
            mat = correlation.exp_correlation(rho, size)
        matrices[side] = mat
    pair = correlation.make_pair(matrices["rx"], matrices["tx"])
    return eigdist.build_model(pair)


def _modulation(parser: argparse.ArgumentParser, args) -> performance.Modulation:
    if (args.a is None) != (args.b is None):
        parser.error("--a and --b must be given together")
    if args.a is not None:
        return performance.Modulation("custom", a=args.a, b=args.b)
    return performance.modulation_preset(args.mod)


def _with_mc(args, model, header, columns, estimate, *points):
    """Append the Monte-Carlo estimate and its standard error columns.

    One set of channel draws, from the matrices the model was built on,
    serves every sweep point (common random numbers); the per-point
    standard error is still exact. ``estimate(cfg, *points)``, ``mc_ser``
    or ``mc_outage``, gives every row's result in one call per sweep.
    """
    if not args.with_mc:
        return header, columns
    cfg = montecarlo.McConfig(n_rx=args.nr, n_tx=args.nt, rx_corr=model.pair.rx_corr,
                              tx_corr=model.pair.tx_corr, trials=args.trials, seed=args.seed)
    results = estimate(cfg, *points)
    return header + ["mc", "mc_stderr"], [
        *columns, [r.estimate for r in results], [r.std_error for r in results]
    ]


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _write(args, text: str) -> None:
    """The command's output, to ``--out`` or else to stdout."""
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(args, header, columns) -> None:
    """Write the columns as CSV rows under ``header``."""
    lines = [",".join(header), *(",".join(map(_fmt, row)) for row in zip(*columns))]
    _write(args, "".join(line + "\n" for line in lines))


def _cmd_cdf(parser, args) -> int:
    model = _build_model(parser, args)
    xs = args.sweep
    if xs[0] < 0.0:
        parser.error("cdf sweep must start at or above 0")
    _emit(args, ["x", "exact", "asymptotic"],
          [xs, eigdist.cdf(model, xs), eigdist.asymptotic_cdf(model, xs)])
    return 0


def _cmd_ser(parser, args) -> int:
    model = _build_model(parser, args)
    mod = _modulation(parser, args)
    hs = performance.high_snr_ser(model, mod)
    snrs_db = args.sweep
    # a plain list, because the benchmark's tracer records this argument as JSON
    columns = [snrs_db, performance.exact_ser(model, mod, snrs_db.tolist()),
               performance.ser_asymptote_eval(hs, snrs_db)]
    header, columns = _with_mc(args, model, ["snr_db", "exact", "asymptote"], columns,
                               montecarlo.mc_ser, mod, snrs_db)
    _emit(args, header, columns)
    return 0


def _cmd_outage(parser, args) -> int:
    model = _build_model(parser, args)
    gammas_db = args.sweep
    gammas = checked_points(gammas_db, "outage threshold", db=True)
    columns = [gammas_db, performance.exact_outage(model, args.snr_db, gammas),
               performance.asymptotic_outage(model, args.snr_db, gammas)]
    header, columns = _with_mc(args, model, ["gamma_th_db", "exact", "asymptotic"], columns,
                               montecarlo.mc_outage, args.snr_db, gammas)
    _emit(args, header, columns)
    return 0


def _cmd_summary(parser, args) -> int:
    model = _build_model(parser, args)
    mod = _modulation(parser, args)
    hs = performance.high_snr_ser(model, mod)
    lines = [
        ("n", model.n_min),
        ("m", model.n_max),
        ("diversity_order", hs.diversity_order),
        ("array_gain", hs.array_gain),
        ("leading_coeff", model.alpha),
        ("det_minor", model.det_minor),
        ("det_major", model.det_major),
        ("correlation_penalty", correlation.correlation_penalty(model.pair)),
        ("crossover", model.crossover),
    ]
    _write(args, "".join(
        f"{key}={value if isinstance(value, int) else _fmt(value)}\n" for key, value in lines
    ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mimomrc",
        description="Performance analysis of MIMO maximum-ratio combining "
        "in doubly correlated Rayleigh fading",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cdf = sub.add_parser("cdf", help="largest-eigenvalue c.d.f. sweep")
    _add_common(p_cdf, modulation=False)
    p_cdf.add_argument("--sweep", type=_parse_sweep, required=True,
                       help="start:stop:points over the eigenvalue axis")

    p_ser = sub.add_parser("ser", help="symbol-error-rate sweep over SNR")
    _add_common(p_ser, modulation=True)
    p_ser.add_argument("--sweep", type=_parse_sweep, required=True,
                       help="start:stop:points over SNR in dB")
    p_ser.add_argument("--with-mc", action="store_true", help="add Monte-Carlo columns")
    p_ser.add_argument("--trials", type=int, default=100_000)
    p_ser.add_argument("--seed", type=int, default=12345)

    p_out = sub.add_parser("outage", help="outage-probability sweep over threshold")
    _add_common(p_out, modulation=False)
    p_out.add_argument("--snr-db", type=float, required=True, help="average SNR in dB")
    p_out.add_argument("--sweep", type=_parse_sweep, required=True,
                       help="start:stop:points over the threshold in dB")
    p_out.add_argument("--with-mc", action="store_true", help="add Monte-Carlo columns")
    p_out.add_argument("--trials", type=int, default=100_000)
    p_out.add_argument("--seed", type=int, default=12345)

    p_sum = sub.add_parser("summary", help="scalar summary (key=value lines)")
    _add_common(p_sum, modulation=True)

    return parser


_COMMANDS = {
    "cdf": _cmd_cdf,
    "ser": _cmd_ser,
    "outage": _cmd_outage,
    "summary": _cmd_summary,
}


def _join_sweep_values(argv):
    """Fold '--sweep -10:10:5' into '--sweep=-10:10:5'.

    argparse would otherwise read a negative sweep start as an option.
    """
    out = []
    for tok in argv:
        if out and out[-1] == "--sweep" and tok.startswith("-"):
            out[-1] = f"--sweep={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_join_sweep_values(list(argv)))
    try:
        return _COMMANDS[args.command](parser, args)
    except (ValidationError, OSError) as exc:  # a bad flag, or a file it cannot use
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
