"""Command-line front end: distribution, SER, and outage sweeps as CSV,
plus a scalar summary of the high-SNR analysis.

The flags describe the link as one :class:`~mimomrc.montecarlo.McConfig`,
which checks them; the model is built from its correlation pair, and
``--with-mc`` draws from the same config. A refused value prints one
``error: ...`` line naming the config field (``n_rx`` for ``--nr``,
``rx_corr`` for ``--corr-rx-file``, and so on).

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
    for side, word in (("rx", "receive"), ("tx", "transmit")):
        correlation_flags = parser.add_mutually_exclusive_group()
        correlation_flags.add_argument(f"--rho-{side}", type=float, default=0.0,
                                       help=f"{word}-side exponential correlation coefficient")
        correlation_flags.add_argument(f"--corr-{side}-file", default=None,
                                       help=f"{word} correlation matrix CSV")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    if modulation:
        parser.add_argument("--mod", choices=sorted(performance.MODULATIONS),
                            default="bpsk", help="modulation preset")
        parser.add_argument("--a", type=float, default=None,
                            help="custom error-rate constant a (with --b)")
        parser.add_argument("--b", type=float, default=None,
                            help="custom error-rate constant b (with --a)")


def _config(args) -> montecarlo.McConfig:
    """The link the flags describe, as the config that checks them. The
    Monte-Carlo flags are read only with ``--with-mc``."""
    files = {"rx_corr": args.corr_rx_file, "tx_corr": args.corr_tx_file}
    matrices = {field: correlation.load_matrix_csv(path)
                for field, path in files.items() if path is not None}
    mc = {"trials": args.trials, "seed": args.seed} if getattr(args, "with_mc", False) else {}
    return montecarlo.McConfig(n_rx=args.nr, n_tx=args.nt, rho_rx=args.rho_rx,
                               rho_tx=args.rho_tx, **matrices, **mc)


def _modulation(args) -> performance.Modulation:
    if (args.a is None) != (args.b is None):
        raise ValidationError("--a and --b must be given together")
    if args.a is not None:
        return performance.Modulation("custom", a=args.a, b=args.b)
    return performance.modulation_preset(args.mod)


def _with_mc(args, cfg, header, columns, estimate, *points):
    """Append the Monte-Carlo estimate and its standard error columns.

    One set of channel draws, from the config the model was built on,
    serves every sweep point (common random numbers); the per-point
    standard error is still exact. ``estimate(cfg, *points)``, ``mc_ser``
    or ``mc_outage``, gives every row's result in one call per sweep.
    """
    if not args.with_mc:
        return header, columns
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


def _cmd_cdf(args, cfg, model) -> int:
    xs = args.sweep
    _emit(args, ["x", "exact", "asymptotic"],
          [xs, eigdist.cdf(model, xs), eigdist.asymptotic_cdf(model, xs)])
    return 0


def _cmd_ser(args, cfg, model) -> int:
    mod = _modulation(args)
    hs = performance.high_snr_ser(model, mod)
    snrs_db = args.sweep
    # a plain list, because the benchmark's tracer records this argument as JSON
    columns = [snrs_db, performance.exact_ser(model, mod, snrs_db.tolist()),
               performance.ser_asymptote_eval(hs, snrs_db)]
    header, columns = _with_mc(args, cfg, ["snr_db", "exact", "asymptote"], columns,
                               montecarlo.mc_ser, mod, snrs_db)
    _emit(args, header, columns)
    return 0


def _cmd_outage(args, cfg, model) -> int:
    gammas_db = args.sweep
    gammas = checked_points(gammas_db, "outage threshold", db=True)
    columns = [gammas_db, performance.exact_outage(model, args.snr_db, gammas),
               performance.asymptotic_outage(model, args.snr_db, gammas)]
    header, columns = _with_mc(args, cfg, ["gamma_th_db", "exact", "asymptotic"], columns,
                               montecarlo.mc_outage, args.snr_db, gammas)
    _emit(args, header, columns)
    return 0


def _cmd_summary(args, cfg, model) -> int:
    mod = _modulation(args)
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
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_join_sweep_values(list(argv)))
    try:
        cfg = _config(args)
        return _COMMANDS[args.command](args, cfg, eigdist.build_model(montecarlo.to_pair(cfg)))
    except (ValidationError, OSError) as exc:  # a bad flag, or a file it cannot use
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
