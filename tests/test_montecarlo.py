"""Simulator tests: channel statistics, determinism, estimator sanity."""

import math

import numpy as np
import pytest

from mimomrc import correlation, linalg, montecarlo, performance
from mimomrc.errors import NumericalError, ValidationError


class TestConfigValidation:
    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValidationError):
            montecarlo.McConfig(n_rx=0, n_tx=1)
        with pytest.raises(ValidationError):
            montecarlo.McConfig(n_rx=1, n_tx=-2)

    def test_rejects_bad_trials(self):
        with pytest.raises(ValidationError):
            montecarlo.McConfig(n_rx=1, n_tx=1, trials=0)

    def test_rejects_bad_rho(self):
        with pytest.raises(ValidationError):
            montecarlo.McConfig(n_rx=2, n_tx=2, rho_rx=1.0)

    def test_rejects_bad_seed(self):
        with pytest.raises(ValidationError):
            montecarlo.McConfig(n_rx=1, n_tx=1, seed=-1)

    def test_rejects_mismatched_matrix(self):
        with pytest.raises(ValidationError):
            montecarlo.McConfig(n_rx=2, n_tx=2, rx_corr=np.eye(3))

    def test_explicit_matrices_take_precedence(self):
        mat = correlation.exp_correlation(0.7, 2)
        cfg = montecarlo.McConfig(n_rx=2, n_tx=2, rho_rx=0.1, rx_corr=mat)
        rx, tx = montecarlo.corr_matrices(cfg)
        np.testing.assert_allclose(rx, mat)
        np.testing.assert_allclose(tx, np.eye(2))


class TestDrawChannel:
    def test_uncorrelated_is_white(self):
        cfg = montecarlo.McConfig(n_rx=2, n_tx=3, trials=1)
        rng = np.random.Generator(np.random.Philox(5))
        h = montecarlo.draw_channel(cfg, rng)
        rng2 = np.random.Generator(np.random.Philox(5))
        white = montecarlo._draw_white(rng2, 1, 2, 3)[0]
        np.testing.assert_allclose(h, white, atol=1e-14)

    def test_unit_entry_power(self):
        cfg = montecarlo.McConfig(n_rx=2, n_tx=2, rho_rx=0.9, rho_tx=0.5,
                                  trials=100_000, seed=2)
        rx, tx = montecarlo.corr_matrices(cfg)
        rx_root = linalg.herm_sqrt(rx)
        tx_root = linalg.herm_sqrt(tx)
        rng = np.random.Generator(np.random.Philox(2))
        white = montecarlo._draw_white(rng, cfg.trials, 2, 2)
        h = rx_root @ white @ tx_root
        powers = np.abs(h) ** 2
        mean = powers.mean(axis=0)
        se = powers.std(axis=0) / math.sqrt(cfg.trials)
        assert np.all(np.abs(mean - 1.0) <= 3.0 * se)

    def test_kronecker_covariance(self):
        # sample covariance of the column-stacked channel approaches
        # transpose(tx_corr) kron rx_corr
        for rho_rx, rho_tx in [(0.0, 0.0), (0.9, 0.5), (0.5, 0.3)]:
            n_rx, n_tx = 2, 3
            trials = 100_000
            cfg = montecarlo.McConfig(n_rx=n_rx, n_tx=n_tx, rho_rx=rho_rx,
                                      rho_tx=rho_tx, trials=trials, seed=8)
            rx, tx = montecarlo.corr_matrices(cfg)
            rx_root = linalg.herm_sqrt(rx)
            tx_root = linalg.herm_sqrt(tx)
            rng = np.random.Generator(np.random.Philox(8))
            white = montecarlo._draw_white(rng, trials, n_rx, n_tx)
            h = rx_root @ white @ tx_root
            vec = h.transpose(0, 2, 1).reshape(trials, n_rx * n_tx)  # column stacking
            prods = vec[:, :, None] * vec.conj()[:, None, :]
            cov = prods.mean(axis=0)
            se = np.sqrt(prods.real.var(axis=0) + prods.imag.var(axis=0)) / math.sqrt(trials)
            want = np.kron(tx.T, rx)
            assert np.all(np.abs(cov - want) <= 3.0 * se + 1e-12)


class TestMaxEigSnr:
    def test_identity(self):
        lam, gamma = montecarlo.max_eig_snr(np.eye(2), 0.0)
        assert lam == pytest.approx(1.0, rel=1e-12)
        assert gamma == pytest.approx(1.0, rel=1e-12)

    def test_rank_one(self):
        u = np.array([2.0, 0.0])
        v = np.array([0.0, 3.0, 0.0])
        h = np.outer(u, v)
        lam, gamma = montecarlo.max_eig_snr(h, 10.0, check=True)
        assert lam == pytest.approx(36.0, rel=1e-12)
        assert gamma == pytest.approx(360.0, rel=1e-12)

    def test_exceeds_mean_eigenvalue(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            h = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
            lam, _ = montecarlo.max_eig_snr(h, 0.0, check=True)
            assert lam >= np.sum(np.abs(h) ** 2) / 2 - 1e-12

    def test_snr_scaling(self):
        h = np.eye(3)
        _, gamma = montecarlo.max_eig_snr(h, 20.0)
        assert gamma == pytest.approx(100.0, rel=1e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            montecarlo.max_eig_snr(np.array([[np.inf, 0.0], [0.0, 1.0]]), 0.0)

    def test_check_failures_raise_numerical_error(self, monkeypatch):
        # typed errors, so the checks survive python -O
        eigvalsh, eigh = np.linalg.eigvalsh, np.linalg.eigh
        h = np.array([[2.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        # an eigenvalue the beamformer does not attain
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: 2.0 * eigvalsh(a))
        with pytest.raises(NumericalError, match="Rayleigh quotient"):
            montecarlo.max_eig_snr(h, 0.0, check=True)
        # the smallest eigenpair passed off as the largest: attained, but
        # beaten by probe directions
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: eigvalsh(a)[::-1])
        monkeypatch.setattr(
            np.linalg, "eigh", lambda a: tuple(v[..., ::-1] for v in eigh(a))
        )
        with pytest.raises(NumericalError, match="probe direction"):
            montecarlo.max_eig_snr(h, 0.0, check=True)


class TestEmpiricalCdf:
    def test_endpoints(self):
        cfg = montecarlo.McConfig(n_rx=2, n_tx=2, trials=5_000, seed=1)
        grid = np.array([0.0, 1e9])
        values = montecarlo.empirical_cdf(cfg, grid)
        assert values[0] == 0.0
        assert values[1] == 1.0

    def test_nondecreasing(self):
        cfg = montecarlo.McConfig(n_rx=2, n_tx=3, rho_rx=0.5, trials=20_000, seed=6)
        values = montecarlo.empirical_cdf(cfg, np.linspace(0, 20, 100))
        assert np.all(np.diff(values) >= 0.0)

    def test_siso_exponential_point(self):
        cfg = montecarlo.McConfig(n_rx=1, n_tx=1, trials=200_000, seed=12)
        value = montecarlo.empirical_cdf(cfg, np.array([1.0]))[0]
        want = 1.0 - math.exp(-1.0)
        se = math.sqrt(want * (1.0 - want) / cfg.trials)
        assert abs(value - want) <= 3.0 * se

    def test_rejects_descending_grid(self):
        cfg = montecarlo.McConfig(n_rx=1, n_tx=1, trials=10, seed=0)
        with pytest.raises(ValidationError):
            montecarlo.empirical_cdf(cfg, np.array([2.0, 1.0]))


class TestMcSer:
    def test_zero_snr_limit(self):
        cfg = montecarlo.McConfig(n_rx=2, n_tx=2, trials=2_000, seed=3)
        mod = performance.modulation_preset("8psk")
        result = montecarlo.mc_ser(cfg, mod, -100.0)
        assert result.estimate == pytest.approx(mod.a / 2.0, rel=1e-4)

    def test_bounded_by_half_a(self):
        cfg = montecarlo.McConfig(n_rx=2, n_tx=3, rho_rx=0.9, trials=5_000, seed=9)
        mod = performance.modulation_preset("qpsk")
        for snr_db in [-10.0, 0.0, 15.0]:
            result = montecarlo.mc_ser(cfg, mod, snr_db)
            assert 0.0 <= result.estimate <= mod.a / 2.0

    def test_siso_bpsk_closed_form(self):
        cfg = montecarlo.McConfig(n_rx=1, n_tx=1, trials=300_000, seed=23)
        result = montecarlo.mc_ser(cfg, performance.modulation_preset("bpsk"), 10.0)
        want = 0.5 * (1.0 - math.sqrt(10.0 / 11.0))
        assert abs(result.estimate - want) <= 3.0 * result.std_error

    def test_std_error_scaling(self):
        mod = performance.modulation_preset("bpsk")
        small = montecarlo.mc_ser(
            montecarlo.McConfig(n_rx=1, n_tx=1, trials=10_000, seed=7), mod, 5.0
        )
        large = montecarlo.mc_ser(
            montecarlo.McConfig(n_rx=1, n_tx=1, trials=160_000, seed=7), mod, 5.0
        )
        assert large.std_error < small.std_error


class TestMcOutage:
    def test_extremes(self):
        cfg = montecarlo.McConfig(n_rx=2, n_tx=2, trials=2_000, seed=2)
        assert montecarlo.mc_outage(cfg, 0.0, 1e-12).estimate == 0.0
        assert montecarlo.mc_outage(cfg, 0.0, 1e6 * 4).estimate == 1.0

    def test_median_self_consistency(self):
        # threshold at the analytic median comes out near one half
        cfg = montecarlo.McConfig(n_rx=3, n_tx=3, trials=200_000, seed=14)
        model_pair = montecarlo.to_pair(cfg)
        from mimomrc import eigdist, performance as perf

        model = eigdist.build_model(model_pair)
        lo, hi = 0.1, 50.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if perf.exact_outage(model, 0.0, mid) < 0.5:
                lo = mid
            else:
                hi = mid
        median = 0.5 * (lo + hi)
        result = montecarlo.mc_outage(cfg, 0.0, median)
        assert abs(result.estimate - 0.5) <= 3.0 * result.std_error

    def test_rejects_bad_threshold(self):
        cfg = montecarlo.McConfig(n_rx=1, n_tx=1, trials=10, seed=0)
        with pytest.raises(ValidationError):
            montecarlo.mc_outage(cfg, 0.0, 0.0)


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        mod = performance.modulation_preset("8psk")
        cfg = montecarlo.McConfig(n_rx=2, n_tx=2, rho_rx=0.5, rho_tx=0.5,
                                  trials=150_000, seed=77)
        a = montecarlo.mc_ser(cfg, mod, 12.0)
        b = montecarlo.mc_ser(cfg, mod, 12.0)
        assert (a.estimate, a.std_error) == (b.estimate, b.std_error)
        grid = np.linspace(0, 10, 50)
        np.testing.assert_array_equal(
            montecarlo.empirical_cdf(cfg, grid), montecarlo.empirical_cdf(cfg, grid)
        )

    def test_different_seed_differs(self):
        mod = performance.modulation_preset("8psk")
        a = montecarlo.mc_ser(
            montecarlo.McConfig(n_rx=2, n_tx=2, trials=10_000, seed=1), mod, 10.0
        )
        b = montecarlo.mc_ser(
            montecarlo.McConfig(n_rx=2, n_tx=2, trials=10_000, seed=2), mod, 10.0
        )
        assert a.estimate != b.estimate

    def test_worker_count_invariance(self):
        # spans several batches so the reduction order matters
        cfg = montecarlo.McConfig(n_rx=2, n_tx=2, rho_rx=0.3, trials=200_000, seed=55)
        mod = performance.modulation_preset("bpsk")
        serial = montecarlo.mc_ser(cfg, mod, 8.0, workers=1)
        threaded = montecarlo.mc_ser(cfg, mod, 8.0, workers=4)
        assert (serial.estimate, serial.std_error) == (threaded.estimate, threaded.std_error)
        np.testing.assert_array_equal(
            montecarlo.simulate_lambda_max(cfg, workers=1),
            montecarlo.simulate_lambda_max(cfg, workers=3),
        )
