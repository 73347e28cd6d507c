"""SER and outage analytics: closed-form oracles, power-law structure,
correlation penalties, Monte-Carlo agreement."""

import math

import numpy as np
import pytest

from mimomrc import correlation, eigdist, montecarlo, performance
from mimomrc.errors import ValidationError


def model_for(rho_rx, n_rx, rho_tx, n_tx):
    return eigdist.build_model(
        correlation.make_pair(
            correlation.exp_correlation(rho_rx, n_rx),
            correlation.exp_correlation(rho_tx, n_tx),
        )
    )


def siso_bpsk_ser(gbar):
    # classical flat-Rayleigh BPSK closed form
    return 0.5 * (1.0 - math.sqrt(gbar / (1.0 + gbar)))


class TestModulation:
    def test_presets(self):
        assert performance.modulation_preset("bpsk") == performance.Modulation("bpsk", 1.0, 1.0)
        assert performance.modulation_preset("qpsk").b == 0.5
        eight = performance.modulation_preset("8psk")
        assert (eight.a, eight.b) == (2.0, 0.146)

    def test_unknown_preset(self):
        with pytest.raises(ValidationError):
            performance.modulation_preset("64qam")

    def test_rejects_bad_constants(self):
        with pytest.raises(ValidationError):
            performance.Modulation("x", a=0.0, b=1.0)
        with pytest.raises(ValidationError):
            performance.Modulation("x", a=1.0, b=-1.0)


class TestExactSer:
    def test_siso_closed_form(self):
        model = model_for(0, 1, 0, 1)
        bpsk = performance.modulation_preset("bpsk")
        got = performance.exact_ser(model, bpsk, 10.0)
        assert got == pytest.approx(siso_bpsk_ser(10.0), rel=1e-10)

    def test_bounded_and_positive_at_high_snr(self):
        model = model_for(0.5, 2, 0.5, 2)
        ser = performance.exact_ser(model, performance.modulation_preset("8psk"), 60.0)
        assert 0.0 < ser < 1e-9

    def test_strictly_decreasing_in_snr(self):
        model = model_for(0.3, 2, 0.0, 2)
        mod = performance.modulation_preset("qpsk")
        values = [performance.exact_ser(model, mod, db) for db in np.linspace(-5, 35, 9)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_monotone_in_correlation(self):
        # high-SNR degradation grows with either correlation coefficient
        mod = performance.modulation_preset("8psk")
        grid = [0.0, 0.3, 0.5, 0.7, 0.9]
        table = {
            (r1, r2): performance.exact_ser(model_for(r1, 2, r2, 2), mod, 25.0)
            for r1 in grid
            for r2 in grid
        }
        for r1 in grid:
            row = [table[(r1, r2)] for r2 in grid]
            assert all(b >= a for a, b in zip(row, row[1:])), row
        for r2 in grid:
            col = [table[(r1, r2)] for r1 in grid]
            assert all(b >= a for a, b in zip(col, col[1:])), col

    def test_matches_semianalytic_monte_carlo(self):
        model = model_for(0.5, 2, 0.5, 2)
        mod = performance.modulation_preset("8psk")
        cfg = montecarlo.McConfig(n_rx=2, n_tx=2, rho_rx=0.5, rho_tx=0.5,
                                  trials=400_000, seed=31)
        for snr_db in [5.0, 12.0, 20.0]:
            mc = montecarlo.mc_ser(cfg, mod, snr_db)
            exact = performance.exact_ser(model, mod, snr_db)
            assert abs(exact - mc.estimate) <= 3.0 * mc.std_error


class TestHighSnr:
    def test_siso_bpsk_gains(self):
        hs = performance.high_snr_ser(model_for(0, 1, 0, 1), performance.modulation_preset("bpsk"))
        assert hs.diversity_order == 1
        assert hs.array_gain == pytest.approx(4.0, rel=1e-12)

    def test_diversity_order_ignores_correlation(self):
        mod = performance.modulation_preset("8psk")
        for rho_rx in [0.0, 0.5, 0.9]:
            for rho_tx in [0.0, 0.5, 0.9]:
                hs = performance.high_snr_ser(model_for(rho_rx, 2, rho_tx, 2), mod)
                assert hs.diversity_order == 4

    def test_diversity_order_is_antenna_product(self):
        mod = performance.modulation_preset("bpsk")
        for n_rx, n_tx in [(1, 3), (2, 3), (3, 4)]:
            hs = performance.high_snr_ser(model_for(0.4, n_rx, 0.2, n_tx), mod)
            assert hs.diversity_order == n_rx * n_tx

    def test_array_gain_ratio_is_penalty(self):
        mod = performance.modulation_preset("8psk")
        base = performance.high_snr_ser(model_for(0, 2, 0, 3), mod)
        corr_model = model_for(0.9, 2, 0.5, 3)
        corr = performance.high_snr_ser(corr_model, mod)
        penalty = correlation.correlation_penalty(corr_model.pair)
        assert corr.array_gain / base.array_gain == pytest.approx(penalty, rel=1e-12)


class TestAsymptoteEval:
    def test_siso_30db(self):
        hs = performance.high_snr_ser(model_for(0, 1, 0, 1), performance.modulation_preset("bpsk"))
        assert performance.ser_asymptote_eval(hs, 30.0) == pytest.approx(2.5e-4, rel=1e-12)

    def test_power_law_halving(self):
        hs = performance.high_snr_ser(model_for(0.5, 2, 0, 2), performance.modulation_preset("qpsk"))
        shift = 10.0 * math.log10(2.0)
        for snr_db in [10.0, 20.0]:
            ratio = performance.ser_asymptote_eval(hs, snr_db) / performance.ser_asymptote_eval(
                hs, snr_db + shift
            )
            assert ratio == pytest.approx(2.0 ** hs.diversity_order, rel=1e-10)

    def test_correlated_curve_shifts_right_by_penalty(self):
        mod = performance.modulation_preset("8psk")
        base_model = model_for(0, 2, 0, 2)
        corr_model = model_for(0.9, 2, 0.5, 2)
        base = performance.high_snr_ser(base_model, mod)
        corr = performance.high_snr_ser(corr_model, mod)
        penalty = correlation.correlation_penalty(corr_model.pair)
        shift_db = 10.0 * math.log10(1.0 / penalty)
        for snr_db in [15.0, 25.0]:
            assert performance.ser_asymptote_eval(corr, snr_db + shift_db) == pytest.approx(
                performance.ser_asymptote_eval(base, snr_db), rel=1e-10
            )

    def test_asymptote_converges_to_exact(self):
        # relative gap below 10% at the SNR where the exact SER is 1e-8
        mod = performance.modulation_preset("8psk")
        for args in [(0, 2, 0, 2), (0.5, 2, 0.5, 3)]:
            model = model_for(*args)
            hs = performance.high_snr_ser(model, mod)
            lo, hi = 0.0, 70.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if performance.exact_ser(model, mod, mid) > 1e-8:
                    lo = mid
                else:
                    hi = mid
            snr_db = 0.5 * (lo + hi)
            exact = performance.exact_ser(model, mod, snr_db)
            asym = performance.ser_asymptote_eval(hs, snr_db)
            assert abs(exact / asym - 1.0) < 0.10


class TestQuadratureFailure:
    def test_error_carries_estimate_and_bound(self):
        # an oscillation far beyond any refinement budget
        f = lambda v: np.sin(1e9 * v)
        with pytest.raises(performance.QuadratureError) as excinfo:
            performance._adaptive(
                f, 0.0, 1.0, performance._gl_panel(f, 0.0, 1.0),
                tol=1e-300, floor=0.0, noise_rate=0.0, depth=3,
            )
        err = excinfo.value
        assert math.isfinite(err.estimate)
        assert err.error_bound > 0.0


class TestOutage:
    def test_tiny_threshold(self):
        model = model_for(0.5, 2, 0.5, 2)
        assert performance.exact_outage(model, 10.0, 1e-9) < 1e-20

    def test_siso_exponential(self):
        model = model_for(0, 1, 0, 1)
        assert performance.exact_outage(model, 0.0, 1.0) == pytest.approx(
            1.0 - math.exp(-1.0), rel=1e-12
        )

    def test_matches_stable_cdf(self):
        model = model_for(0.5, 3, 0.5, 3)
        for snr_db, gamma_th in [(0.0, 0.5), (10.0, 2.0), (-3.0, 0.2)]:
            want = eigdist.exact_cdf_stable(model, gamma_th / 10 ** (snr_db / 10))
            assert performance.exact_outage(model, snr_db, gamma_th) == want

    def test_asymptotic_outage_is_leading_cdf(self):
        model = model_for(0.9, 3, 0.5, 3)
        for snr_db, gamma_th in [(0.0, 0.5), (7.0, 1.0), (20.0, 4.0)]:
            want = eigdist.asymptotic_cdf(model, gamma_th / 10 ** (snr_db / 10))
            assert performance.asymptotic_outage(model, snr_db, gamma_th) == want

    def test_correlation_outage_ratio(self):
        base = model_for(0, 3, 0, 3)
        corr = model_for(0.9, 3, 0.5, 3)
        want = corr.det_minor ** (-3) * corr.det_major ** (-3)
        got = performance.asymptotic_outage(corr, 0.0, 0.3) / performance.asymptotic_outage(
            base, 0.0, 0.3
        )
        assert got == pytest.approx(want, rel=1e-10)

    def test_monte_carlo_agreement(self):
        model = model_for(0.5, 3, 0.5, 3)
        cfg = montecarlo.McConfig(n_rx=3, n_tx=3, rho_rx=0.5, rho_tx=0.5,
                                  trials=300_000, seed=17)
        for gamma_th in [1.0, 3.0, 8.0]:
            mc = montecarlo.mc_outage(cfg, 0.0, gamma_th)
            exact = performance.exact_outage(model, 0.0, gamma_th)
            assert abs(exact - mc.estimate) <= 3.0 * mc.std_error + 1e-12

    def test_rejects_bad_threshold(self):
        model = model_for(0, 1, 0, 1)
        for bad in [0.0, -1.0, math.inf]:
            with pytest.raises(ValidationError):
                performance.exact_outage(model, 0.0, bad)
            with pytest.raises(ValidationError):
                performance.asymptotic_outage(model, 0.0, bad)
