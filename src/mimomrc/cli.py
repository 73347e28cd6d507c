"""Command-line front end: distribution, SER, and outage sweeps as CSV,
plus a scalar summary of the high-SNR analysis.

Exit status: 0 on success, 2 on flag validation problems, 1 on numerical
failure. CSV output uses a header row, comma delimiters, LF line endings
and 17-significant-digit values.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import correlation, eigdist, montecarlo, performance
from .errors import NumericalError, ValidationError


@dataclass(frozen=True)
class SweepSpec:
    """Inclusive linear grid over the sweep axis."""

    start: float
    stop: float
    points: int

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.points)


def _parse_sweep(text: str) -> SweepSpec:
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
    return SweepSpec(start, stop, points)


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


def _with_mc(args, model, header, rows, points, estimate):
    """Append the Monte-Carlo estimate and its standard error to each row.

    One set of channel draws, from the matrices the model was built on,
    serves every sweep point (common random numbers); the per-point
    standard error is still exact. ``estimate(samples, point)`` gives the
    :class:`~mimomrc.montecarlo.McResult` of one row.
    """
    if not args.with_mc:
        return header, rows
    cfg = montecarlo.McConfig(
        n_rx=args.nr,
        n_tx=args.nt,
        rx_corr=model.pair.rx_corr,
        tx_corr=model.pair.tx_corr,
        trials=args.trials,
        seed=args.seed,
    )
    lam = montecarlo.simulate_lambda_max(cfg)
    results = [estimate(lam, point) for point in points]
    return header + ["mc", "mc_stderr"], [
        row + (r.estimate, r.std_error) for row, r in zip(rows, results)
    ]


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _emit(args, header, rows) -> None:
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    finally:
        if args.out:
            out.close()


def _cmd_cdf(parser, args) -> int:
    model = _build_model(parser, args)
    if args.sweep.start < 0.0:
        parser.error("cdf sweep must start at or above 0")
    xs = args.sweep.values()
    rows = [
        (x, exact, eigdist.asymptotic_cdf(model, x))
        for x, exact in zip(xs, eigdist.cdf(model, xs))
    ]
    _emit(args, ["x", "exact", "asymptotic"], rows)
    return 0


def _cmd_ser(parser, args) -> int:
    model = _build_model(parser, args)
    mod = _modulation(parser, args)
    hs = performance.high_snr_ser(model, mod)
    snrs_db = args.sweep.values()
    # one quadrature for the whole sweep; a plain list, because the
    # benchmark's tracer records this argument as JSON
    exact = performance.exact_ser(model, mod, snrs_db.tolist())
    rows = [
        (snr_db, value, performance.ser_asymptote_eval(hs, snr_db))
        for snr_db, value in zip(snrs_db, exact)
    ]
    header, rows = _with_mc(
        args, model, ["snr_db", "exact", "asymptote"], rows, snrs_db,
        lambda lam, snr_db: montecarlo.ser_estimate(lam, mod, snr_db),
    )
    _emit(args, header, rows)
    return 0


def _cmd_outage(parser, args) -> int:
    model = _build_model(parser, args)
    gammas_db = args.sweep.values()
    gammas = 10.0 ** (gammas_db / 10.0)
    rows = [
        (gamma_th_db, exact, performance.asymptotic_outage(model, args.snr_db, gamma_th))
        for gamma_th_db, gamma_th, exact in zip(
            gammas_db, gammas, performance.exact_outage(model, args.snr_db, gammas)
        )
    ]
    header, rows = _with_mc(
        args, model, ["gamma_th_db", "exact", "asymptotic"], rows, gammas,
        lambda lam, gamma_th: montecarlo.outage_estimate(lam, args.snr_db, gamma_th),
    )
    _emit(args, header, rows)
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
    text = "".join(
        f"{key}={value if isinstance(value, int) else _fmt(value)}\n" for key, value in lines
    )
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
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
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok == "--sweep" and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"--sweep={argv[i + 1]}")
            skip = True
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
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
