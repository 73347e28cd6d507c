"""The committed oracle table ``data/oracle.json``, written by
``make_oracle.py`` from ``oracle.py``: a seeded subset recomputed, and the
package checked against it.

The SER is checked relative to the table: to 1e-8 for untied models and
to the model's noise floor for tied ones. ``exact_ser`` states an absolute
1e-12 as well, but every SER below 1e-12 would meet that whatever its
value, so it is not used here. Each point that misses today is a strict
expected failure, so a point that starts to pass fails the suite until
its mark goes.
"""

import functools
import json
import random
from pathlib import Path

import numpy as np
import pytest

from mimomrc import correlation, eigdist, performance

TABLE = json.loads((Path(__file__).parent / "data" / "oracle.json").read_text())

# Picks the recomputed subset; fixed before the subset was first run.
SEED = 1101
# Recomputed values must repeat the table to this relative difference.
RECOMPUTE_REL = 1e-14


def case_name(case) -> str:
    name = f"{case['nr']}x{case['nt']}_rho{case['rho_rx']:g}_{case['rho_tx']:g}"
    return f"{name}_{case['mod']}" if "mod" in case else name


@functools.lru_cache(maxsize=None)
def model_for(nr, nt, rho_rx, rho_tx):
    return eigdist.build_model(correlation.make_pair(
        correlation.exp_correlation(rho_rx, nr), correlation.exp_correlation(rho_tx, nt)
    ))


def model_of(case):
    return model_for(case["nr"], case["nt"], case["rho_rx"], case["rho_tx"])


# Today's misses: for each case, the SNRs (dB) whose SER misses its
# relative tolerance against the table, and what the table shows
# (exact_ser / table - 1 unless given as a ratio).
SER_MISSES = {
    "2x3_rho0.5_0.5_8psk": (
        range(0, 41),
        "crossover floor and saturation: +9.8e-6 at 0 dB, +6.3e-5 at 5 dB, "
        "+1.0e-3 at 10 dB, +54% at 20 dB, +66% at 22 dB, +10.7% at 30 dB, +1.0% at 40 dB",
    ),
    "4x4_rho0_0_qpsk": (
        range(4, 31, 2),
        "tie guard and crossover floor, beyond the noise floor of 0.05: +7.1% at 4 dB, "
        "17.9 times at 10 dB, 23.6 times at 12 dB, +90% at 20 dB, +6.8% at 30 dB",
    ),
    "2x2_rho0.5_0.5_8psk": (
        (0, 10, 20, 30),
        "crossover floor and saturation: +1.9e-6 at 0 dB, +9.5e-5 at 10 dB, "
        "+4.3% at 20 dB, +5.6% at 30 dB",
    ),
    "3x3_rho0.9_0.9_8psk": (
        (20, 30, 40),
        "crossover floor: +319% at 20 dB, 17.2 times at 30 dB, +51% at 40 dB",
    ),
    "4x4_rho0.5_0.5_8psk": (
        (-5, 0),
        "saturation and crossover floor: +9.8e-5 at -5 dB, +1.9e-4 at 0 dB",
    ),
}


def ser_params():
    for case in TABLE["ser"]:
        name = case_name(case)
        missed, reason = SER_MISSES.get(name, ((), ""))
        for j, snr in enumerate(case["snr_db"]):
            marks = []
            if snr in missed:
                marks = [pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)]
            yield pytest.param(case, j, id=f"{name}_{snr:g}dB", marks=marks)


@pytest.mark.parametrize("case, j", ser_params())
def test_exact_ser_matches_table(case, j):
    model = model_of(case)
    mod = performance.modulation_preset(case["mod"])
    want = case["ser"][j]
    got = performance.exact_ser(model, mod, case["snr_db"][j])
    tol = model.noise_floor if model.degenerate else 1e-8
    assert abs(got / want - 1.0) <= tol, (got, want, got / want - 1.0)


def test_table_covers_the_benchmark_points():
    # the two ser sweeps, the four exact_ser SNRs and the outage sweep of
    # the benchmark, and the 144 cdf sweeps over 1-4 antennas a side
    names = {case_name(case): case for case in TABLE["ser"]}
    assert names["2x3_rho0.5_0.5_8psk"]["snr_db"] == list(np.linspace(0.0, 40.0, 41))
    assert names["4x4_rho0_0_qpsk"]["snr_db"] == list(np.linspace(0.0, 30.0, 16))
    assert names["2x2_rho0.5_0.5_8psk"]["snr_db"] == [0.0, 10.0, 20.0, 30.0]
    assert 5.0 in names["2x3_rho0.5_0.5_8psk"]["snr_db"]
    assert names["3x3_rho0.9_0.9_8psk"]["snr_db"] == [20.0, 30.0, 40.0]
    assert names["4x4_rho0.5_0.5_8psk"]["snr_db"] == [-5.0, 0.0]
    scans = {case_name(c) for c in TABLE["cdf"] if c["source"] == "config_scan"}
    assert len(scans) == 144
    outage = [c for c in TABLE["cdf"] if c["source"] == "mc_crosscheck"]
    assert [case_name(c) for c in outage] == ["3x3_rho0.9_0.9"]
    assert outage[0]["x"] == list(10.0 ** (np.linspace(3.0, 12.0, 19) / 10.0))


def test_cdf_within_stated_bound():
    # exact_cdf_stable's absolute bound, max(_SCAN_TOP_CDF, theta(mn)) plus
    # the model's noise floor, at every c.d.f. point of the table (the
    # largest use of it is 0.76, on 2x4 rho .9/.5 at x = 0.4)
    worst = []
    for case in TABLE["cdf"]:
        model = model_of(case)
        bound = max(eigdist._SCAN_TOP_CDF, eigdist._saturation_theta(model.n_min * model.n_max))
        bound += model.noise_floor
        err = np.abs(eigdist.cdf(model, np.array(case["x"])) - case["F"])
        worst.append((float(err.max()) / bound, case_name(case)))
    ratio, name = max(worst)
    assert ratio <= 1.0, (name, ratio)


def test_untied_determinant_form_within_1e8():
    # between crossover and saturation the untied evaluator is the
    # determinant form itself; its worst relative error on the table is
    # 5.7e-11 (2x4 and 3x4 at rho .9/.9, near x = 10)
    checked = 0
    for case in TABLE["cdf"]:
        model = model_of(case)
        if model.degenerate:
            continue
        xs = np.array(case["x"])
        inside = (xs >= model.crossover) & (xs < model.saturation)
        if not inside.any():
            continue
        got = eigdist._cdf_raw(model, xs[inside])
        want = np.array(case["F"])[inside]
        rel = np.abs(got / want - 1.0)
        assert rel.max() <= 1e-8, (case_name(case), float(rel.max()))
        checked += inside.sum()
    assert checked >= 3000


def test_recomputed_subset_matches():
    # a seeded sample of the table from the oracle: 12 c.d.f. points (F and
    # 1 - F), two untied SER points and one tied SER point at 0-10 dB
    pytest.importorskip("mpmath")
    from oracle import Oracle

    rng = random.Random(SEED)
    cdf_points = rng.sample(
        [(case, j) for case in TABLE["cdf"] for j in range(len(case["x"]))], 12
    )
    untied = [(case, j) for case in TABLE["ser"] for j in range(len(case["ser"]))
              if not model_of(case).degenerate]
    tied = [(case, j) for case in TABLE["ser"] for j, snr in enumerate(case["snr_db"])
            if model_of(case).degenerate and snr <= 10.0]
    ser_points = rng.sample(untied, 2) + rng.sample(tied, 1)

    def oracle_of(case):
        return Oracle(correlation.exp_correlation(case["rho_rx"], case["nr"]),
                      correlation.exp_correlation(case["rho_tx"], case["nt"]))

    for case, j in cdf_points:
        got = oracle_of(case).cdf_pair(case["x"][j])
        for value, want in zip(got, (case["F"][j], case["Fc"][j])):
            assert abs(value - want) <= RECOMPUTE_REL * abs(want), (case_name(case), j, got)
    for case, j in ser_points:
        got = oracle_of(case).ser(case["a"], case["b"], case["snr_db"][j])
        want = case["ser"][j]
        assert abs(got - want) <= RECOMPUTE_REL * abs(want), (case_name(case), j, got, want)
