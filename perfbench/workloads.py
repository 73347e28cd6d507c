"""The benchmark's workloads and the checks that judge their outputs.

A workload is a fixed list of operations: CLI commands run in-process
through ``cli.main(argv)``, or calls into the public functions of
``performance``, ``montecarlo`` and ``eigdist``. Every operation returns text (the
CLI's stdout, or the ``repr`` of a library result), so two runs of an
operation can be compared byte for byte.

Each check applies one documented accuracy claim of the library and
compares against ``reference.json``, the outputs stored from the seed
commit by ``make_reference.py``. The reference carries the same error as
the output under test, so every tolerance below is twice the claim.
"""

from __future__ import annotations

import csv
import io
import json
import math
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from mimomrc import cli, eigdist, montecarlo, performance

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Documented claims (see performance.exact_ser and eigdist.exact_cdf_stable).
SER_ABS_TOL = 1e-12
SER_REL_TOL = 1e-8  # untied models; tied ones carry model.noise_floor instead
CDF_ABS_TOL = 1.5e-4  # eigdist._SCAN_TOP_CDF
# Closed-form columns (leading-order c.d.f., SER asymptote, determinants,
# array gain) are a few floating-point operations from the model.
CLOSED_FORM_REL_TOL = 1e-9
# The crossover is the first point of a geometric scan with ratio 0.85
# (eigdist._SCAN_STEP) where two curves part, so it is known to one step.
CROSSOVER_REL_TOL = 0.15
# The reference stores c.d.f. values rounded to this many decimals.
CDF_DECIMALS = 9
# Criteria 8 and 9: Monte-Carlo within 3 standard errors of the exact value.
MC_GATE_SIGMAS = 3.0

CDF_SWEEP = (0.0, 10.0, 101)
MC_TRIALS = 1_000_000
MC_SNRS_DB = (0, 10, 20, 30)


@dataclass(frozen=True)
class Failure:
    op: str
    check: str
    detail: str
    # A statistical gate misses by chance (about 0.3% per point, so in a
    # few percent of runs of the 23 gated points of mc_crosscheck) and
    # systematically where the estimator's standard error is known to be
    # dishonest. Its misses depend on the seed, so they are printed and
    # counted in the per-layer metric montecarlo.gate_misses, not in
    # `failed`, which must repeat between runs of the same code.
    statistical: bool = False


@dataclass
class Op:
    key: str  # unique within a workload; names the reference entry
    run: Callable[[], str]
    # (key, output, reference entry, outputs of the pass by key) -> failures
    check: Callable[[str, str, dict, dict], list]
    argv: list[str] | None = None  # CLI arguments without Monte-Carlo flags


def run_cli(argv) -> str:
    """Run one CLI command in-process; raise if it exits nonzero."""
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"exit status {code}")
    return buffer.getvalue()


def parse_csv(text: str, header: list[str]) -> list[list[float]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        raise ValueError(f"header {rows[0] if rows else None} != {header}")
    return [[float(v) for v in row] for row in rows[1:]]


def sweep_grid(sweep) -> list[float]:
    start, stop, points = sweep
    return [start + (stop - start) * i / (points - 1) for i in range(points)]


def parse_summary(text: str) -> dict:
    return dict(line.split("=", 1) for line in text.splitlines())


def _rel(got: float, want: float) -> float:
    return abs(got - want) / abs(want) if want else abs(got)


class _Checker:
    """Collects the failures of one operation's output."""

    def __init__(self, key: str):
        self.key = key
        self.failures: list[Failure] = []

    def fail(self, check: str, detail: str, statistical: bool = False) -> None:
        self.failures.append(Failure(self.key, check, detail, statistical))

    def column(self, name, got, want, tol: Callable[[float], float]) -> None:
        """Every value of a column within ``tol(reference)`` of the reference."""
        if len(got) != len(want):
            self.fail(name, f"{len(got)} values, reference has {len(want)}")
            return
        worst, at = 0.0, None
        for i, (g, w) in enumerate(zip(got, want)):
            excess = abs(g - w) / tol(w) if math.isfinite(g) else math.inf
            if excess > worst:
                worst, at = excess, i
        if worst > 1.0:
            self.fail(name, f"row {at}: {got[at]!r} vs reference {want[at]!r} "
                            f"({worst:.3g}x the tolerance)")

    def unit_interval(self, name, values, monotone=False) -> None:
        if any(not 0.0 <= v <= 1.0 for v in values):
            self.fail(name, "probability outside [0, 1]")
        if monotone and any(b < a for a, b in zip(values, values[1:])):
            self.fail(name, "c.d.f. decreases")

    def gate(self, name, mc, stderr, exact) -> None:
        z = abs(mc - exact) / max(stderr, 1e-12)
        if z > MC_GATE_SIGMAS:
            self.fail(name, f"|mc - exact| = {z:.3g} standard errors "
                            f"(limit {MC_GATE_SIGMAS:g}; mc {mc!r}, exact {exact!r})",
                      statistical=True)


def _ser_tol(rel_tol):
    return lambda ref: 2.0 * max(SER_ABS_TOL, rel_tol * abs(ref))


def _closed_form_tol(ref):
    return 2.0 * CLOSED_FORM_REL_TOL * max(abs(ref), 1e-300)


def _cdf_tol(_ref):
    return 2.0 * CDF_ABS_TOL + 0.5 * 10.0 ** -CDF_DECIMALS


def _checked(check):
    """Turn a parse error in an output into a failure of that operation."""
    def wrapper(key, text, ref, outputs):
        c = _Checker(key)
        try:
            check(c, text, ref, outputs)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            c.fail("parse", f"{type(exc).__name__}: {exc}")
        return c.failures
    return wrapper


@_checked
def check_ser(c, text, ref, _outputs):
    rows = parse_csv(text, ["snr_db", "exact", "asymptote"])
    c.column("snr_db", [r[0] for r in rows], ref["snr_db"], lambda w: 1e-12)
    exact = [r[1] for r in rows]
    c.column("exact", exact, ref["exact"], _ser_tol(ref["rel_tol"]))
    c.unit_interval("exact", exact)
    c.column("asymptote", [r[2] for r in rows], ref["asymptote"], _closed_form_tol)


@_checked
def check_summary(c, text, ref, _outputs):
    got = parse_summary(text)
    if list(got) != list(ref):
        c.fail("keys", f"{list(got)} != {list(ref)}")
        return
    for key in ("n", "m", "diversity_order"):
        if not got[key].isdigit() or int(got[key]) != ref[key]:
            c.fail(key, f"{got[key]!r} is not the integer {ref[key]}")
    if got["diversity_order"].isdigit() and int(got["diversity_order"]) != ref["n"] * ref["m"]:
        c.fail("diversity_order", "is not n*m")
    for key, want in ref.items():
        if key in ("n", "m", "diversity_order"):
            continue
        tol = CROSSOVER_REL_TOL if key == "crossover" else 2.0 * CLOSED_FORM_REL_TOL
        if not _rel(float(got[key]), want) <= tol:
            c.fail(key, f"{got[key]} vs reference {want!r} (rel tol {tol:g})")


@_checked
def check_cdf(c, text, ref, _outputs):
    rows = parse_csv(text, ["x", "exact", "asymptotic"])
    xs = [r[0] for r in rows]
    c.column("x", xs, sweep_grid(CDF_SWEEP), lambda w: 1e-12)
    exact = [r[1] for r in rows]
    c.column("exact", exact, ref["exact"], _cdf_tol)
    c.unit_interval("exact", exact, monotone=True)
    leading = [ref["leading_coeff"] * x ** ref["mn"] for x in xs]
    c.column("asymptotic", [r[2] for r in rows], leading, _closed_form_tol)


@_checked
def check_outage(c, text, ref, _outputs):
    rows = parse_csv(text, ["gamma_th_db", "exact", "asymptotic", "mc", "mc_stderr"])
    c.column("gamma_th_db", [r[0] for r in rows], ref["gamma_th_db"], lambda w: 1e-12)
    exact = [r[1] for r in rows]
    c.column("exact", exact, ref["exact"], _cdf_tol)
    c.unit_interval("exact", exact, monotone=True)
    c.column("asymptotic", [r[2] for r in rows], ref["asymptotic"], _closed_form_tol)
    c.unit_interval("mc", [r[3] for r in rows], monotone=True)
    for r in rows:
        c.gate(f"mc at gamma_th {r[0]:g} dB", r[3], r[4], r[1])


@_checked
def check_exact_ser(c, text, ref, _outputs):
    c.column("exact", [float(text)], [ref["exact"]], _ser_tol(ref["rel_tol"]))


@_checked
def check_mc_ser(c, text, _ref, outputs):
    estimate, stderr, trials = (float(v) for v in text.split(","))
    if trials != MC_TRIALS:
        c.fail("trials", f"{trials:g} trials, asked for {MC_TRIALS}")
    exact_key = c.key.replace("mc_ser", "exact_ser")
    c.gate("mc", estimate, stderr, float(outputs[exact_key]))


def _no_check(key, text, ref, outputs):
    return []


def _corr_flags(rho_rx, rho_tx):
    return ["--rho-rx", str(rho_rx), "--rho-tx", str(rho_tx)]


def _cli_op(argv, check, mc_flags=()) -> Op:
    """A CLI op keyed by its argv; Monte-Carlo flags stay out of the key so
    the analytic columns are checked against one seed-free reference."""
    return Op(" ".join(argv), lambda: run_cli([*argv, *mc_flags]), check, list(argv))


def ser_analytic(seed: int) -> list[Op]:
    del seed  # analytic: the outputs must not depend on it
    return [
        _cli_op(["ser", "--nr", "2", "--nt", "3", *_corr_flags(0.5, 0.5),
                 "--mod", "8psk", "--sweep", "0:40:41"], check_ser),
        # Identity correlation: fully tied, guard order 12.
        _cli_op(["ser", "--nr", "4", "--nt", "4", "--mod", "qpsk",
                 "--sweep", "0:30:16"], check_ser),
    ]


OUTAGE_ARGV = ["outage", "--nr", "3", "--nt", "3", *_corr_flags(0.9, 0.9),
               "--snr-db", "0", "--sweep", "3:12:19"]


def mc_2x2_config(seed: int) -> montecarlo.McConfig:
    return montecarlo.McConfig(n_rx=2, n_tx=2, rho_rx=0.5, rho_tx=0.5,
                               trials=MC_TRIALS, seed=seed)


EIGHT_PSK = performance.modulation_preset("8psk")


def exact_ser_key(snr_db) -> str:
    return f"exact_ser 2x2 8psk {snr_db} dB"


def mc_crosscheck(seed: int) -> list[Op]:
    cfg = mc_2x2_config(seed)
    state = {}

    def build():
        state["model"] = eigdist.build_model(montecarlo.to_pair(cfg))
        return repr((state["model"].crossover, state["model"].saturation))

    def exact(snr):
        return lambda: repr(float(performance.exact_ser(state["model"], EIGHT_PSK, snr)))

    def mc(snr):
        def run():
            r = montecarlo.mc_ser(cfg, EIGHT_PSK, snr)
            return f"{r.estimate!r},{r.std_error!r},{r.trials}"
        return run

    mc_flags = ["--with-mc", "--trials", str(MC_TRIALS), "--seed", str(seed)]
    ops = [_cli_op(OUTAGE_ARGV, check_outage, mc_flags), Op("build_model 2x2", build, _no_check)]
    for snr in MC_SNRS_DB:
        ops.append(Op(exact_ser_key(snr), exact(snr), check_exact_ser))
        ops.append(Op(exact_ser_key(snr).replace("exact_ser", "mc_ser"), mc(snr), check_mc_ser))
    return ops


SCAN_RHOS = (0.0, 0.5, 0.9)


def config_scan(seed: int) -> list[Op]:
    del seed  # analytic: the outputs must not depend on it
    cdf_sweep = "{:g}:{:g}:{}".format(*CDF_SWEEP)
    ops = []
    for nr in range(1, 5):
        for nt in range(1, 5):
            for rho_rx in SCAN_RHOS:
                for rho_tx in SCAN_RHOS:
                    geo = ["--nr", str(nr), "--nt", str(nt), *_corr_flags(rho_rx, rho_tx)]
                    ops.append(_cli_op(["summary", *geo, "--mod", "8psk"], check_summary))
                    ops.append(_cli_op(["cdf", *geo, "--sweep", cdf_sweep], check_cdf))
    return ops


WORKLOADS = {
    "ser_analytic": ser_analytic,
    "mc_crosscheck": mc_crosscheck,
    "config_scan": config_scan,
}


def warm_up(seed: int) -> list:
    """Pay first-call costs (lazy imports in numpy.linalg and scipy.special,
    the first thread pool) outside the timed phase, and check on a small
    Monte-Carlo sweep that the analytic columns do not depend on the seed."""
    run_cli(["summary", "--nr", "2", "--nt", "2", "--mod", "8psk"])
    run_cli(["cdf", "--nr", "2", "--nt", "2", "--sweep", "0:4:9"])
    run_cli(["ser", "--nr", "1", "--nt", "2", "--sweep", "0:10:9"])
    columns = []
    for s in (seed, seed + 1):
        text = run_cli([*OUTAGE_ARGV, "--with-mc", "--trials", "1000", "--seed", str(s)])
        columns.append([line.split(",")[:3] for line in text.splitlines()])
    if columns[0] != columns[1]:
        return [Failure(" ".join(OUTAGE_ARGV), "seed", "analytic columns change with --seed")]
    return []


def load_reference() -> dict:
    """Reference entries by operation key."""
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)["ops"]
