"""Write ``tests/data/oracle.json``: reference values of the largest-eigenvalue
c.d.f. F, of 1 - F and of the SER, from the independent oracle of
``tests/oracle.py``.

The table covers every analytic point of the benchmark's three workloads
(the two ``ser`` sweeps of ``ser_analytic``; the outage sweep and the four
``exact_ser`` calls of ``mc_crosscheck``; the 144 ``cdf`` sweeps of
``config_scan``) and the regimes the exact evaluator is least sure of:
3x3 rho .9/.9 8PSK at 20, 30 and 40 dB, 2x3 rho .5/.5 8PSK at 5 dB, and
4x4 rho .5/.5 8PSK at -5 and 0 dB. Every correlation is the exponential
model rho^|i-j|.

Run from the repository root (about a minute on two CPUs):

    PYTHONPATH=src python tests/make_oracle.py [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

import oracle  # noqa: E402
from mimomrc import correlation, montecarlo, performance  # noqa: E402

TABLE_PATH = Path(__file__).parent / "data" / "oracle.json"

SCAN_RHOS = (0.0, 0.5, 0.9)
SCAN_X = np.linspace(0.0, 10.0, 101)  # config_scan's cdf --sweep 0:10:101
OUTAGE_GAMMA_DB = np.linspace(3.0, 12.0, 19)  # mc_crosscheck's outage at 0 dB

# (source, n_rx, n_tx, rho_rx, rho_tx, modulation, SNRs in dB)
SER_CASES = [
    ("ser_analytic", 2, 3, 0.5, 0.5, "8psk", np.linspace(0.0, 40.0, 41)),
    ("ser_analytic", 4, 4, 0.0, 0.0, "qpsk", np.linspace(0.0, 30.0, 16)),
    ("mc_crosscheck", 2, 2, 0.5, 0.5, "8psk", np.array([0.0, 10.0, 20.0, 30.0])),
    ("high SNR", 3, 3, 0.9, 0.9, "8psk", np.array([20.0, 30.0, 40.0])),
    ("low SNR", 4, 4, 0.5, 0.5, "8psk", np.array([-5.0, 0.0])),
]
# 2x3 rho .5/.5 8PSK at 5 dB is a point of the first sweep.

# (source, n_rx, n_tx, rho_rx, rho_tx, points)
CDF_CASES = [("mc_crosscheck", 3, 3, 0.9, 0.9, 10.0 ** (OUTAGE_GAMMA_DB / 10.0))] + [
    ("config_scan", nr, nt, rho_rx, rho_tx, SCAN_X)
    for nr in range(1, 5)
    for nt in range(1, 5)
    for rho_rx in SCAN_RHOS
    for rho_tx in SCAN_RHOS
]


def case_oracle(nr, nt, rho_rx, rho_tx) -> oracle.Oracle:
    """The oracle of the exponential model with these antennas and rhos."""
    return oracle.Oracle(correlation.exp_correlation(rho_rx, nr),
                         correlation.exp_correlation(rho_tx, nt))


def _cdf_task(case):
    source, nr, nt, rho_rx, rho_tx, xs = case
    o = case_oracle(nr, nt, rho_rx, rho_tx)
    pairs = [o.cdf_pair(x) for x in xs.tolist()]
    return {"source": source, "nr": nr, "nt": nt, "rho_rx": rho_rx, "rho_tx": rho_tx,
            "x": xs.tolist(), "F": [p[0] for p in pairs], "Fc": [p[1] for p in pairs]}


def _ser_task(task):
    nr, nt, rho_rx, rho_tx, name, snr_db = task
    mod = performance.modulation_preset(name)
    return case_oracle(nr, nt, rho_rx, rho_tx).ser_points(mod.a, mod.b, snr_db)


def build() -> dict:
    ser_tasks = [
        (nr, nt, rho_rx, rho_tx, name, snr)
        for _, nr, nt, rho_rx, rho_tx, name, snrs in SER_CASES
        for snr in snrs.tolist()
    ]
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=montecarlo._worker_count(), mp_context=spawn) as pool:
        ser_results = iter(list(pool.map(_ser_task, ser_tasks)))
        cdf = list(pool.map(_cdf_task, CDF_CASES))
    ser = []
    for source, nr, nt, rho_rx, rho_tx, name, snrs in SER_CASES:
        results = [next(ser_results) for _ in snrs]
        mod = performance.modulation_preset(name)
        ser.append({"source": source, "nr": nr, "nt": nt, "rho_rx": rho_rx, "rho_tx": rho_tx,
                    "mod": name, "a": mod.a, "b": mod.b, "snr_db": snrs.tolist(),
                    "ser": [r[0] for r in results], "steps": [r[1] for r in results]})
    return {
        "about": "Independent references for F, 1 - F (Fc) and the SER, written by "
                 "tests/make_oracle.py from tests/oracle.py; every correlation is "
                 "exponential, rho^|i-j|, and each value is good to about 1e-15 relative.",
        "method": {"base_digits": oracle.BASE_DIGITS, "tied_digits": oracle.TIED_DIGITS,
                   "check_digits": oracle.CHECK_DIGITS, "tie_spread": oracle.TIE_SPREAD,
                   "agree": oracle.AGREE, "ser_agree": oracle.SER_AGREE},
        "ser": ser,
        "cdf": cdf,
    }


def dump(table: dict) -> str:
    """The table as JSON with one case per line."""
    lines = ["{"]
    head = [k for k in table if k not in ("ser", "cdf")]
    for key in head:
        lines.append(f"{json.dumps(key)}: {json.dumps(table[key])},")
    for key in ("ser", "cdf"):
        rows = [json.dumps(row, separators=(",", ":")) for row in table[key]]
        lines.append(f"{json.dumps(key)}: [")
        lines.append(",\n".join(rows))
        lines.append("]," if key == "ser" else "]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=TABLE_PATH)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    table = build()
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(dump(table))
    points = sum(len(c["x"]) for c in table["cdf"]) + sum(len(c["ser"]) for c in table["ser"])
    print(f"wrote {points} values to {args.out} in {time.perf_counter() - started:.0f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
