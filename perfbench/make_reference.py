"""Regenerate ``reference.json``, the outputs the benchmark checks against.

    python3 perfbench/make_reference.py

The reference must come from a trusted commit (it was made at the seed
commit of the benchmark); regenerating it from a commit under test would
make the checks compare that commit with itself. It holds only analytic
outputs, which do not depend on the Monte-Carlo seed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mimomrc import cli, correlation, eigdist, montecarlo, performance  # noqa: E402
from workloads import (  # noqa: E402
    CDF_DECIMALS, EIGHT_PSK, MC_SNRS_DB, REFERENCE_PATH, SER_REL_TOL, WORKLOADS,
    exact_ser_key, mc_2x2_config, parse_csv, parse_summary, run_cli,
)


def model_for(argv) -> eigdist.EigDistModel:
    args = cli.build_parser().parse_args(argv)
    return eigdist.build_model(correlation.make_pair(
        correlation.exp_correlation(args.rho_rx or 0.0, args.nr),
        correlation.exp_correlation(args.rho_tx or 0.0, args.nt),
    ))


def ser_rel_tol(model) -> float:
    return max(SER_REL_TOL, model.noise_floor)


def reference_entry(argv) -> dict:
    text = run_cli(argv)
    model = model_for(argv)
    kind = argv[0]
    if kind == "ser":
        rows = parse_csv(text, ["snr_db", "exact", "asymptote"])
        return {"snr_db": [r[0] for r in rows], "exact": [r[1] for r in rows],
                "asymptote": [r[2] for r in rows], "rel_tol": ser_rel_tol(model)}
    if kind == "summary":
        return {key: int(value) if value.isdigit() and key in ("n", "m", "diversity_order")
                else float(value) for key, value in parse_summary(text).items()}
    if kind == "cdf":
        rows = parse_csv(text, ["x", "exact", "asymptotic"])
        return {"exact": [round(r[1], CDF_DECIMALS) for r in rows],
                "leading_coeff": model.alpha, "mn": model.n_min * model.n_max}
    if kind == "outage":
        rows = parse_csv(text, ["gamma_th_db", "exact", "asymptotic"])
        return {"gamma_th_db": [r[0] for r in rows], "exact": [r[1] for r in rows],
                "asymptotic": [r[2] for r in rows]}
    raise ValueError(f"no reference format for {kind!r}")


def main() -> int:
    ops = {}
    for make_ops in WORKLOADS.values():
        for op in make_ops(0):
            if op.argv is not None:
                ops[op.key] = reference_entry(op.argv)
    model = eigdist.build_model(montecarlo.to_pair(mc_2x2_config(0)))
    for snr in MC_SNRS_DB:
        ops[exact_ser_key(snr)] = {"exact": performance.exact_ser(model, EIGHT_PSK, snr),
                                   "rel_tol": ser_rel_tol(model)}
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                            capture_output=True, text=True).stdout.strip()
    # One operation per line keeps the file diffable.
    lines = ",\n".join(f"{json.dumps(key)}: {json.dumps(entry)}" for key, entry in ops.items())
    with open(REFERENCE_PATH, "w") as fh:
        fh.write(f'{{"generated_from": {json.dumps(commit or "unknown")},\n"ops": {{\n{lines}\n}}}}\n')
    return 0


if __name__ == "__main__":
    sys.exit(main())
