"""Simulator tests: channel statistics, determinism, estimator sanity, and
the eigenbasis draw against the full-matrix one."""

import contextlib
import dataclasses
import hashlib
import itertools
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from mimomrc import cli, correlation, montecarlo, performance, specfun
from mimomrc.errors import NumericalError, ValidationError


def _herm_sqrt(a):
    """Hermitian square root V diag(sqrt(w)) V^H of a correlation matrix
    that the simulator accepts (Hermitian, positive definite)."""
    a = np.asarray(a, dtype=np.complex128)
    w, v = np.linalg.eigh(0.5 * (a + a.conj().T))
    root = (v * np.sqrt(w)) @ v.conj().T
    return 0.5 * (root + root.conj().T)


def _draw_white(rng, count, n_rx, n_tx, std=math.sqrt(0.5)):
    """``count`` complex Gaussian matrices; ``std`` (a scalar or an
    (n_rx, n_tx) array) is the standard deviation of the real and of the
    imaginary part of each entry, unit variance by default. Draws a whole
    real block, then a whole imaginary block: the stream order that the
    simulator's block-wise draw keeps."""
    h = np.empty((count, n_rx, n_tx), dtype=np.complex128)
    h.real = rng.standard_normal((count, n_rx, n_tx))
    h.imag = rng.standard_normal((count, n_rx, n_tx))
    h *= std
    return h


def full_matrix_channels(cfg, rng, count):
    """``count`` channels drawn as corr_rx^{1/2} * white * corr_tx^{1/2}:
    the route the simulator's eigenbasis draw replaces, kept here as its
    reference."""
    pair = montecarlo.to_pair(cfg)
    rx, tx = pair.rx_corr, pair.tx_corr
    white = _draw_white(rng, count, cfg.n_rx, cfg.n_tx)
    return _herm_sqrt(rx) @ white @ _herm_sqrt(tx)


def eigvalsh_lambda_max(h):
    """Largest eigenvalue of the Gram matrix on the smaller side of each
    channel in a batch, by eigvalsh."""
    if h.shape[1] <= h.shape[2]:
        gram = np.einsum("bij,bkj->bik", h, h.conj())
    else:
        gram = np.einsum("bji,bjk->bik", h.conj(), h)
    return np.linalg.eigvalsh(gram)[:, -1]


def batches(cfg):
    """The stream and trial count of each of the config's batches."""
    for index, start in enumerate(range(0, cfg.trials, montecarlo._BATCH)):
        yield montecarlo._batch_rng(cfg.seed, index), min(montecarlo._BATCH, cfg.trials - start)


def full_matrix_lambda_max(cfg):
    """Largest eigenvalues of the full-matrix route in the simulator's batches."""
    return np.concatenate([
        eigvalsh_lambda_max(full_matrix_channels(cfg, rng, count)) for rng, count in batches(cfg)
    ])


def batch_channels(cfg):
    """Each batch's channels as the simulator draws them, but whole and on
    the calling thread: the batch's real block, then its imaginary block,
    scaled by the standard deviations of the eigenbasis draw."""
    pair = montecarlo.to_pair(cfg)
    rx, tx = pair.rx_corr, pair.tx_corr
    std = np.sqrt(0.5 * np.outer(
        correlation.correlation_eigenvalues(rx, "receive"),
        correlation.correlation_eigenvalues(tx, "transmit"),
    ))
    for rng, count in batches(cfg):
        yield _draw_white(rng, count, cfg.n_rx, cfg.n_tx, std)


def gram_entries(h):
    """The re parts of a batch's Gram entries on and below the diagonal,
    then the im parts of those below it, by ``montecarlo._gram_entries``."""
    h = h.transpose(montecarlo._plane_axes(*h.shape[1:]))
    n = h.shape[0]
    sums = montecarlo._gram_entries(
        np.array((h.real, h.imag), order="C"), montecarlo._planar_work(n, h.shape[2])[0]
    )
    return np.concatenate((sums[0], sums[1, n:]))


@contextlib.contextmanager
def switching_often():
    """Switch threads often, so that a lost or misplaced write would show."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def linear(snr_db):
    """The checked linear SNRs that ``montecarlo._ser_estimate`` takes."""
    return montecarlo._sweep(snr_db, "SNR", db=True)


def serial_ser_estimate(samples, mod, snr_db):
    """The SER estimator on the calling thread: a*Q(sqrt(2 b snr lambda))
    by ``specfun.gauss_q``, then each batch's size, mean and sum of
    squared deviations, merged pairwise in batch order. Returns
    (estimate, std_error, trials)."""
    gbar = 10.0 ** (snr_db / 10.0)
    stats = []
    for start in range(0, samples.size, montecarlo._BATCH):
        part = samples[start : start + montecarlo._BATCH]
        values = mod.a * specfun.gauss_q(np.sqrt(2.0 * mod.b * gbar * part))
        mean = float(values.mean())
        stats.append((values.size, mean, float(((values - mean) ** 2).sum())))
    while len(stats) > 1:
        merged = []
        for (n_a, mean_a, m2_a), (n_b, mean_b, m2_b) in zip(stats[::2], stats[1::2]):
            n = n_a + n_b
            delta = mean_b - mean_a
            merged.append(
                (n, mean_a + delta * n_b / n, m2_a + m2_b + delta * delta * n_a * n_b / n)
            )
        if len(stats) % 2:
            merged.append(stats[-1])
        stats = merged
    n, mean, m2 = stats[0]
    return mean, math.sqrt(m2 / (n - 1) / n) if n > 1 else 0.0, n


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

    @pytest.mark.parametrize("field", ["rho_rx", "rho_tx"])
    @pytest.mark.parametrize("rho", ["0.5", False])
    def test_rho_must_be_a_real_number(self, field, rho):
        # with a matrix on that side too: the rule does not depend on it
        for mat in (None, np.eye(2)):
            sides = {"rx_corr" if field == "rho_rx" else "tx_corr": mat}
            with pytest.raises(ValidationError, match=field):
                montecarlo.McConfig(n_rx=2, n_tx=2, **{field: rho}, **sides)

    def test_rejects_bad_seed(self):
        with pytest.raises(ValidationError):
            montecarlo.McConfig(n_rx=1, n_tx=1, seed=-1)

    @pytest.mark.parametrize("field", ["n_rx", "n_tx", "trials", "seed"])
    @pytest.mark.parametrize("flag", [True, False])
    def test_rejects_booleans(self, field, flag):
        fields = {"n_rx": 2, "n_tx": 2, "trials": 10, "seed": 0, field: flag}
        with pytest.raises(ValidationError, match=field):
            montecarlo.McConfig(**fields)

    def test_keeps_read_only_copies_of_the_matrices(self):
        mat = correlation.exp_correlation(0.5, 2)
        cfg = montecarlo.McConfig(n_rx=2, n_tx=2, rx_corr=mat, tx_corr=mat.tolist())
        mat[0, 1] = mat[1, 0] = 0.9
        for kept in (cfg.rx_corr, cfg.tx_corr):
            assert kept[0, 1] == 0.5
            with pytest.raises(ValueError):
                kept[0, 1] = 0.2

    def test_rejects_mismatched_matrix(self):
        with pytest.raises(ValidationError):
            montecarlo.McConfig(n_rx=2, n_tx=2, rx_corr=np.eye(3))

    @pytest.mark.parametrize("mat", [
        [[1.0, 0.5], [0.5]],
        [[1.0, "x"], ["x", 1.0]],
        [[1.0, np.nan], [np.nan, 1.0]],
        [["1", "0.5"], ["0.5", "1"]],
        [[True, False], [False, True]],
        np.eye(2, dtype=bool),
    ], ids=["ragged", "string", "nan", "numeric-strings", "bools", "bool-array"])
    @pytest.mark.parametrize("side", ["rx_corr", "tx_corr"])
    def test_malformed_matrix_refused_when_built(self, side, mat):
        with pytest.raises(ValidationError, match=side):
            montecarlo.McConfig(n_rx=2, n_tx=2, **{side: mat})

    def test_explicit_matrices_take_precedence(self):
        mat = correlation.exp_correlation(0.7, 2)
        cfg = montecarlo.McConfig(n_rx=2, n_tx=2, rho_rx=0.1, rx_corr=mat)
        pair = montecarlo.to_pair(cfg)
        rx, tx = pair.rx_corr, pair.tx_corr
        np.testing.assert_allclose(rx, mat)
        np.testing.assert_allclose(tx, np.eye(2))


class TestDrawChannel:
    def test_uncorrelated_is_white(self):
        cfg = montecarlo.McConfig(n_rx=2, n_tx=3, trials=1)
        rng = np.random.Generator(np.random.Philox(5))
        h = full_matrix_channels(cfg, rng, 1)[0]
        rng2 = np.random.Generator(np.random.Philox(5))
        white = _draw_white(rng2, 1, 2, 3)[0]
        np.testing.assert_allclose(h, white, atol=1e-14)

    def test_unit_entry_power(self):
        cfg = montecarlo.McConfig(n_rx=2, n_tx=2, rho_rx=0.9, rho_tx=0.5,
                                  trials=100_000, seed=2)
        h = full_matrix_channels(cfg, np.random.Generator(np.random.Philox(2)), cfg.trials)
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
            pair = montecarlo.to_pair(cfg)
            rx, tx = pair.rx_corr, pair.tx_corr
            h = full_matrix_channels(cfg, np.random.Generator(np.random.Philox(8)), trials)
            vec = h.transpose(0, 2, 1).reshape(trials, n_rx * n_tx)  # column stacking
            prods = vec[:, :, None] * vec.conj()[:, None, :]
            cov = prods.mean(axis=0)
            se = np.sqrt(prods.real.var(axis=0) + prods.imag.var(axis=0)) / math.sqrt(trials)
            want = np.kron(tx.T, rx)
            assert np.all(np.abs(cov - want) <= 3.0 * se + 1e-12)


class TestHermSqrt:
    """The square root of the full-matrix reference draw."""

    def test_identity(self):
        np.testing.assert_allclose(_herm_sqrt(np.eye(3)), np.eye(3), atol=1e-14)

    def test_diagonal(self):
        root = _herm_sqrt(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(root, np.diag([2.0, 3.0]), atol=1e-12)

    def test_squares_back(self):
        a = np.array([[1.0, 0.5], [0.5, 1.0]])
        root = _herm_sqrt(a)
        np.testing.assert_allclose(root @ root, a, atol=1e-12)

    def test_random_squares_back(self):
        rng = np.random.RandomState(7)
        for n in range(1, 9):
            b = rng.randn(n, n) + 1j * rng.randn(n, n)
            a = b @ b.conj().T + 0.1 * np.eye(n)
            root = _herm_sqrt(a)
            assert np.linalg.norm(root @ root - a) <= 1e-10 * np.linalg.norm(a)
            assert np.max(np.abs(root - root.conj().T)) <= 1e-12


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

    def test_grid_in_any_order_and_shape(self):
        # each point gives the value it has in the ascending grid
        cfg = montecarlo.McConfig(n_rx=2, n_tx=2, trials=2_000, seed=5)
        grid = np.linspace(-1.0, 6.0, 8)
        want = montecarlo.empirical_cdf(cfg, grid)
        got = montecarlo.empirical_cdf(cfg, grid[::-1])
        assert got.tolist() == want[::-1].tolist()
        got = montecarlo.empirical_cdf(cfg, grid[[3, 0, 7, 5, 1, 6]].reshape(2, 3))
        assert got.tolist() == want[[3, 0, 7, 5, 1, 6]].reshape(2, 3).tolist()


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

    def test_threshold_array_equals_one_call_per_threshold(self):
        cfg = montecarlo.McConfig(n_rx=2, n_tx=3, rho_rx=0.5, trials=70_001, seed=15)
        gammas = 10.0 ** (np.linspace(-10.0, 12.0, 19) / 10.0)
        for snr_db in (0.0, 7.5):
            want = [montecarlo.mc_outage(cfg, snr_db, g) for g in gammas]
            for got in (
                montecarlo.mc_outage(cfg, snr_db, gammas),
                montecarlo.mc_outage(cfg, snr_db, gammas.tolist()),
            ):
                assert [(r.estimate, r.std_error, r.trials) for r in got] == [
                    (r.estimate, r.std_error, r.trials) for r in want
                ]
        assert montecarlo.mc_outage(cfg, 7.5, gammas[:1]) == want[:1]
        assert montecarlo.mc_outage(cfg, 0.0, np.array([])) == []

    def test_samples_checked_once_per_call(self, monkeypatch, capsys):
        # a draw is checked once, when it is drawn, and no estimate over it
        # checks it again; the SER estimator's batches run in one pool for
        # every SNR
        calls = []
        for name in ("_checked_samples", "_run_batches"):
            real = getattr(montecarlo, name)

            def counting(*args, name=name, real=real):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(montecarlo, name, counting)
        cfg = montecarlo.McConfig(n_rx=2, n_tx=2, trials=1000, seed=8)
        assert len(montecarlo.mc_outage(cfg, 0.0, np.geomspace(0.1, 10.0, 19))) == 19
        assert calls == ["_run_batches", "_checked_samples"]
        assert len(montecarlo.mc_ser(cfg, EIGHT_PSK, np.linspace(0.0, 40.0, 9))) == 9
        assert calls == ["_run_batches", "_checked_samples", "_run_batches"]
        # the benchmark's crosscheck pass, a CLI outage sweep and then four
        # mc_ser calls on one config, checks two draws
        calls.clear()
        flags = ["--nr", "3", "--nt", "3", "--with-mc", "--trials", "5000", "--seed", "3"]
        assert cli.main(["outage", *flags, "--snr-db", "0", "--sweep", "3:12:19"]) == 0
        assert calls.count("_checked_samples") == 1
        cfg = montecarlo.McConfig(n_rx=2, n_tx=2, rho_rx=0.5, rho_tx=0.5, trials=5000, seed=3)
        for snr in (0.0, 10.0, 20.0, 30.0):
            montecarlo.mc_ser(cfg, EIGHT_PSK, snr)
        assert calls.count("_checked_samples") == 2
        montecarlo.mc_outage(cfg, 0.0, np.geomspace(0.1, 10.0, 19))
        montecarlo.empirical_cdf(cfg, np.linspace(0.0, 8.0, 9))
        montecarlo.simulate_lambda_max(cfg)
        assert calls.count("_checked_samples") == 2
        assert len(capsys.readouterr().out.splitlines()) == 20

    def test_snr_array_refused_before_any_draw(self, drawn):
        # the outage estimator takes one SNR
        cfg = montecarlo.McConfig(n_rx=2, n_tx=2, trials=1000, seed=9)
        for call in (
            lambda: montecarlo.mc_outage(cfg, [0.0, 1.0], 2.0),
            lambda: montecarlo.mc_outage(cfg, np.zeros((1, 1)), [2.0, 3.0]),
        ):
            with pytest.raises(ValidationError, match="SNR must be a number, got shape"):
                call()
        assert drawn == []

    @pytest.mark.parametrize("gammas, bad", [
        ([1.0, 0.0, 2.0], "0.0"),
        ([1.0, 2.0, -3.0], "-3.0"),
        ([math.nan, 1.0], "nan"),
        ([1.0, math.inf], "inf"),
    ])
    def test_bad_threshold_anywhere_refused_before_counting(self, gammas, bad, monkeypatch, drawn):
        cfg = montecarlo.McConfig(n_rx=2, n_tx=2, trials=1000, seed=9)
        counts = []
        count_nonzero = np.count_nonzero

        def counting(*args, **kwargs):
            counts.append(1)
            return count_nonzero(*args, **kwargs)

        monkeypatch.setattr(np, "count_nonzero", counting)
        for thresholds in (gammas, np.array(gammas)):
            with pytest.raises(ValidationError, match=f"threshold must be positive, got {bad}"):
                montecarlo.mc_outage(cfg, 0.0, thresholds)
        assert counts == [] and drawn == []

    def test_threshold_matrix_refused(self, drawn):
        cfg = montecarlo.McConfig(n_rx=2, n_tx=2, trials=10, seed=9)
        with pytest.raises(ValidationError, match="1-D array"):
            montecarlo.mc_outage(cfg, 0.0, np.ones((2, 2)))
        assert drawn == []


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        # a fresh config per call: calls on one config share its draw
        mod = performance.modulation_preset("8psk")

        def cfg():
            return montecarlo.McConfig(n_rx=2, n_tx=2, rho_rx=0.5, rho_tx=0.5,
                                       trials=150_000, seed=77)

        a = montecarlo.mc_ser(cfg(), mod, 12.0)
        b = montecarlo.mc_ser(cfg(), mod, 12.0)
        assert (a.estimate, a.std_error) == (b.estimate, b.std_error)
        grid = np.linspace(0, 10, 50)
        np.testing.assert_array_equal(
            montecarlo.empirical_cdf(cfg(), grid), montecarlo.empirical_cdf(cfg(), grid)
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
        # spans several batches so the reduction order matters; one
        # geometry per lambda_max branch, and a fresh config per draw
        mod = performance.modulation_preset("bpsk")
        for n_rx, n_tx in [(2, 2), (3, 3), (4, 4), (4, 1)]:
            def cfg():
                return montecarlo.McConfig(
                    n_rx=n_rx, n_tx=n_tx, rho_rx=0.3, trials=200_000, seed=55
                )

            serial_samples = montecarlo._draw(cfg(), 1)
            serial = montecarlo._ser_estimate(serial_samples, mod, linear(8.0), 1)
            # batches write disjoint slices of one array
            with switching_often():
                threaded = montecarlo.mc_ser(cfg(), mod, 8.0)
                threaded_samples = [montecarlo._draw(cfg(), workers) for workers in (2, 3, 4)]
                threaded_samples.append(montecarlo.simulate_lambda_max(cfg()))
            assert (serial.estimate, serial.std_error) == (threaded.estimate, threaded.std_error)
            for samples in threaded_samples:
                np.testing.assert_array_equal(serial_samples, samples)


class TestWorkers:
    BATCH = montecarlo._BATCH
    BLOCK = montecarlo._BLOCK

    @pytest.mark.parametrize("n_rx, n_tx", itertools.product(range(1, 5), range(1, 5)))
    def test_pooled_blocks_equal_the_reference_draw(self, n_rx, n_tx):
        # the pooled draw, _BLOCK rows at a time, gives every sample the bits
        # of lambda_max on each whole batch drawn on the calling thread
        for trials in (1, self.BLOCK - 1, self.BLOCK + 1, 70_001, 150_001):
            cfg = montecarlo.McConfig(
                n_rx=n_rx, n_tx=n_tx, rho_rx=0.5, rho_tx=0.3, trials=trials, seed=1799
            )
            want = np.concatenate([montecarlo.lambda_max(h) for h in batch_channels(cfg)])
            for workers in (1, 2):
                got = montecarlo._draw(cfg, workers)
                assert got.tobytes() == want.tobytes(), (trials, workers)

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        # a worker thread's error is raised again by the draw, and the
        # config keeps no draw, so the next call draws it whole
        cfg = montecarlo.McConfig(n_rx=2, n_tx=2, trials=3 * self.BATCH, seed=11)
        want = montecarlo._draw(cfg, 1)
        kernel = montecarlo._planar_lambda_max

        for draw in (lambda: montecarlo._draw(cfg, 2), lambda: montecarlo.simulate_lambda_max(cfg)):
            calls = itertools.count()

            def failing(*args):
                if next(calls) == 8:  # the ninth block, whichever worker draws it
                    raise NumericalError("injected")
                return kernel(*args)

            with monkeypatch.context() as patch:
                patch.setattr(montecarlo, "_planar_lambda_max", failing)
                with pytest.raises(NumericalError, match="injected"):
                    draw()
        got = montecarlo.simulate_lambda_max(cfg)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n, nbytes", [(2, 1_966_080), (3, 3_735_552), (4, 8_126_464)])
    def test_draw_buffers_are_as_documented(self, n, nbytes, monkeypatch):
        # simulate_lambda_max states each worker's buffers: the real normals,
        # n_rx·n_tx·0.5 MiB, and beyond them 1.9 MiB on 2x2, 3.6 MiB on 3x3
        # and 7.8 MiB on 4x4
        cfg = montecarlo.McConfig(n_rx=n, n_tx=n, trials=self.BATCH + 1, seed=5)
        allocated = []
        run_batches = montecarlo._run_batches

        def recording(batches, workers, allocate, run):
            def recorded():
                real, *rest = allocate()
                allocated.append((real.nbytes, sum(b.nbytes for b in rest)))
                return (real, *rest)

            return run_batches(batches, workers, recorded, run)

        monkeypatch.setattr(montecarlo, "_run_batches", recording)
        montecarlo._draw(cfg, 2)
        assert allocated == [(n * n * self.BATCH * 8, nbytes)] * 2

    @pytest.mark.parametrize("size", [1, BATCH - 1, BATCH + 1, 3 * BATCH + 7])
    def test_pooled_estimator_equals_the_serial_reference(self, size):
        samples = np.random.default_rng(size).exponential(2.0, size)
        mod = performance.modulation_preset("8psk")
        snrs = (0.0, 30.0)
        want = [serial_ser_estimate(samples, mod, snr_db) for snr_db in snrs]
        with switching_often():
            got = [montecarlo._ser_estimate(samples, mod, linear(snrs), w) for w in (1, 2, 3, 4)]
        for workers, results in zip((1, 2, 3, 4), got):
            assert [(r.estimate, r.std_error, r.trials) for r in results] == want, workers

    def test_estimator_worker_error_reaches_the_caller(self, monkeypatch):
        samples = np.random.default_rng(12).exponential(1.0, 3 * self.BATCH)
        mod = performance.modulation_preset("qpsk")
        want = montecarlo._ser_estimate(samples, mod, linear(10.0), 1)
        kernel = montecarlo.gauss_q_upper_into
        calls = itertools.count()

        def failing(*args):
            if next(calls) == 2:  # the third batch, whichever worker takes it
                raise NumericalError("injected")
            return kernel(*args)

        with monkeypatch.context() as patch:
            patch.setattr(montecarlo, "gauss_q_upper_into", failing)
            with pytest.raises(NumericalError, match="injected"):
                montecarlo._ser_estimate(samples, mod, linear(10.0), 2)
        assert montecarlo._ser_estimate(samples, mod, linear(10.0), 2) == want

    def test_memory_bounded_by_the_buffers(self, monkeypatch):
        # Beyond the output, each drawing worker holds one batch's real
        # normals and _BLOCK rows of imaginary normals, channels and
        # lambda_max temporaries, together less than two batches' real
        # normals. The estimating workers compute in the buffers that the
        # calling thread allocates, four batches' worth each, and nothing
        # else of batch size.
        cfg = montecarlo.McConfig(n_rx=3, n_tx=3, rho_rx=0.5, trials=1 << 20, seed=3)
        workers = 2
        batch = 8 * self.BATCH
        plane = batch * cfg.n_rx * cfg.n_tx
        allocated = []
        run_batches = montecarlo._run_batches

        def recording(batches, workers, allocate, run):
            def recorded():
                buffers = allocate()
                allocated.append((threading.get_ident(), sum(b.nbytes for b in buffers)))
                return buffers

            return run_batches(batches, workers, recorded, run)

        monkeypatch.setattr(montecarlo, "_run_batches", recording)
        tracemalloc.start()
        try:
            samples = montecarlo._draw(cfg, workers)
            peak = tracemalloc.get_traced_memory()[1]
            allocated.clear()
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            montecarlo._ser_estimate(
                samples, performance.modulation_preset("8psk"), linear(10.0), workers
            )
            growth = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 8 * cfg.trials + 2 * workers * plane, peak / plane
        assert allocated == [(threading.get_ident(), 4 * batch)] * workers
        assert growth <= workers * 4 * batch + batch // 8, growth / batch


class TestCorrelationChecks:
    """The simulator and the analytic model refuse the same matrices, with
    the same keyword in the message, through
    correlation.correlation_eigenvalues."""

    # eigvalsh reads one triangle, so each of the first two would pass it silently
    NON_HERMITIAN = np.array([[1.0, 0.5], [0.1, 1.0]])
    SYMMETRIC_COMPLEX = np.array([[1.0, 0.5j], [0.5j, 1.0]])
    INDEFINITE = np.array([[1.0, 1.2], [1.2, 1.0]])
    NON_UNIT_DIAGONAL = np.array([[1.1, 0.0], [0.0, 1.0]])
    NON_SQUARE = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    EMPTY = np.zeros((0, 0))
    NON_FINITE = np.array([[1.0, np.nan], [np.nan, 1.0]])
    CASES = [
        (NON_HERMITIAN, "Hermitian"),
        (SYMMETRIC_COMPLEX, "Hermitian"),
        (INDEFINITE, "positive-definite"),
        (NON_UNIT_DIAGONAL, "unit diagonal"),
        (NON_SQUARE, "square"),
        (EMPTY, "square"),
        (NON_FINITE, "finite"),
    ]

    @pytest.mark.parametrize("side", ["rx_corr", "tx_corr"])
    @pytest.mark.parametrize("mat, match", CASES)
    def test_refused_by_every_entry_point(self, side, mat, match):
        other = np.eye(2)
        with pytest.raises(ValidationError, match=match):
            correlation.make_pair(*((mat, other) if side == "rx_corr" else (other, mat)))

        def cfg():
            # a non-square matrix is refused by the config itself
            return montecarlo.McConfig(n_rx=2, n_tx=2, trials=10, seed=0, **{side: mat})

        mod = performance.modulation_preset("bpsk")
        for call in (
            lambda: montecarlo.simulate_lambda_max(cfg()),
            lambda: montecarlo.mc_ser(cfg(), mod, 10.0),
            lambda: montecarlo.mc_outage(cfg(), 0.0, 1.0),
            lambda: montecarlo.empirical_cdf(cfg(), np.array([1.0])),
        ):
            with pytest.raises(ValidationError, match=match):
                call()

    def test_rounding_within_tolerance_accepted(self):
        tol = correlation._INPUT_TOL
        mat = np.array([[1.0 + 0.5 * tol, 0.5 + 0.5 * tol], [0.5, 1.0]])
        correlation.make_pair(mat, np.eye(2))
        cfg = montecarlo.McConfig(n_rx=2, n_tx=2, rx_corr=mat, trials=10, seed=0)
        assert montecarlo.simulate_lambda_max(cfg).shape == (10,)


class TestClosedForms:
    """lambda_max against eigvalsh of the Gram matrix of the same channels."""

    @staticmethod
    def special_pairs(m):
        """Two-row channels: tied (orthogonal rows of equal norm) and
        near rank one (the second row a multiple of the first plus a
        perturbation down to 1e-12), at scales 1e-3 to 1e3."""
        rng = np.random.default_rng(31)
        rows = []
        for _ in range(20):
            u = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            v -= (u.conj() @ v) / (u.conj() @ u) * u
            v *= np.linalg.norm(u) / np.linalg.norm(v)
            rows.append((u, v))  # tied
            for eps in (1e-4, 1e-8, 1e-12):
                rows.append((u, (0.3 - 0.7j) * u + eps * v))
            rows.append((u, np.zeros(m)))  # rank one
        scales = np.repeat(np.geomspace(1e-3, 1e3, 4), len(rows))
        h = np.array([np.stack(pair) for pair in rows] * 4)
        return h * scales[:, None, None]

    def assert_close(self, h):
        got = montecarlo.lambda_max(h)
        want = eigvalsh_lambda_max(h)
        assert np.max(np.abs(got / want - 1.0)) <= 1e-13

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_one_antenna_both_orientations(self, m):
        rng = np.random.Generator(np.random.Philox(41))
        h = _draw_white(rng, 5000, 1, m) * np.geomspace(1e-3, 1e3, 5000)[:, None, None]
        self.assert_close(h)
        self.assert_close(h.transpose(0, 2, 1).copy())

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_two_antennas_both_orientations(self, m):
        rng = np.random.Generator(np.random.Philox(43))
        random = _draw_white(rng, 5000, 2, m)
        for h in (random, self.special_pairs(m)):
            self.assert_close(h)
            self.assert_close(h.transpose(0, 2, 1).copy())

    def test_tied_pair_is_exact(self):
        h = np.array([[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]], dtype=np.complex128)
        assert montecarlo.lambda_max(h)[0] == 1.0

    # Gram spectra of three-row channels. The closed form cannot resolve
    # the first group (a tied or nearly tied top pair, down to a relative
    # gap of 1e-12, and the triple tie) and must hand it to eigvalsh; the
    # second keeps a well separated top.
    TIED_TOP = [
        (1.0, 1.0, 0.3),
        *((1.0, 1.0 - gap, 0.3) for gap in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12)),
        (1.0, 1.0, 1.0),
        (1.0, 1.0, 0.0),  # rank two with a tie
    ]
    SEPARATED_TOP = [(1.0, 0.3, 0.3), (1.0, 0.0, 0.0)]  # tied bottom; rank one

    @staticmethod
    def special_triples(m, spectra):
        """Three-row channels U diag(sqrt(spectrum)) V with Haar unitary U
        (3x3) and the first three rows of a Haar unitary V (m x m), so the
        Gram matrix has the given spectrum, at scales 1e-3 to 1e3."""
        rng = np.random.default_rng(37)

        def haar(n):
            q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            return q * (np.diag(r) / np.abs(np.diag(r)))

        rows = [
            haar(3) @ np.diag(np.sqrt(spectrum)) @ haar(m)[:3]
            for spectrum in spectra
            for _ in range(20)
        ]
        scales = np.repeat(np.geomspace(1e-3, 1e3, 4), len(rows))
        return np.array(rows * 4) * scales[:, None, None]

    @staticmethod
    def recomputed_rows(h, monkeypatch):
        """How many rows of h the simulator's kernel hands to eigvalsh."""
        seen = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a):
            seen.append(len(a))
            return eigvalsh(a)

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigvalsh", counting)
            montecarlo.lambda_max(h)
        return sum(seen)

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_three_antennas_both_orientations(self, m):
        rng = np.random.Generator(np.random.Philox(47))
        random = _draw_white(rng, 5000, 3, m)
        special = self.special_triples(m, self.TIED_TOP + self.SEPARATED_TOP)
        for h in (random, special):
            self.assert_close(h)
            self.assert_close(h.transpose(0, 2, 1).copy())

    def test_three_antennas_at_extreme_scales(self):
        # unscaled, p^3 would lose digits to underflow near 1e-52
        rng = np.random.Generator(np.random.Philox(59))
        h = _draw_white(rng, 1000, 3, 4)
        for scale in (1e-150, 1e-52, 1e52, 1e150):
            self.assert_close(h * scale)

    @pytest.mark.parametrize("m", [3, 4])
    def test_only_unresolved_rows_take_eigvalsh(self, m, monkeypatch):
        rng = np.random.Generator(np.random.Philox(53))
        random = _draw_white(rng, 5000, 3, m)
        tied = self.special_triples(m, self.TIED_TOP)
        separated = self.special_triples(m, self.SEPARATED_TOP)
        assert self.recomputed_rows(random, monkeypatch) == 0
        assert self.recomputed_rows(tied, monkeypatch) == len(tied)
        assert self.recomputed_rows(separated, monkeypatch) == 0

    def test_zero_channel(self):
        assert np.array_equal(montecarlo.lambda_max(np.zeros((2, 3, 4), complex)), [0.0, 0.0])


class TestLambdaMaxInput:
    """lambda_max takes any numeric (count, n_rx, n_tx) array as complex128."""

    @pytest.mark.parametrize("shape", [(5, 3, 3), (5, 3, 4), (5, 4, 3)])
    @pytest.mark.parametrize("dtype", [np.float64, np.int64, np.complex64])
    def test_non_complex128_input(self, shape, dtype):
        rng = np.random.default_rng(61)
        h = rng.standard_normal(shape) * 4.0
        if dtype == np.complex64:
            h = h + 1j * rng.standard_normal(shape)
        h = h.astype(dtype)
        got = montecarlo.lambda_max(h)
        assert got.tobytes() == montecarlo.lambda_max(h.astype(np.complex128)).tobytes()
        want = eigvalsh_lambda_max(h.astype(np.complex128))
        assert np.max(np.abs(got / want - 1.0)) <= 1e-13

    @pytest.mark.parametrize("shape", [(), (3,), (3, 3), (2, 3, 3, 3), (5, 0, 3), (5, 3, 0)])
    def test_refuses_anything_but_channels(self, shape):
        with pytest.raises(ValidationError, match="channels must be"):
            montecarlo.lambda_max(np.ones(shape))

    @pytest.mark.parametrize("n, bad", [
        *itertools.product(range(1, 5), [math.nan, math.inf, -math.inf, 1e200, 1e-160]),
        (2, 1e100),  # the closed form would square Gram entries of 1e200
    ])
    @pytest.mark.parametrize("part", ["re", "im"])
    def test_refuses_what_it_cannot_compute(self, n, bad, part):
        # refused before any kernel runs: no numpy warning, no LinAlgError
        h = np.ones((3, n, n), dtype=np.complex128)
        if abs(bad) < 1.0:  # a channel of tiny entries, whose squares are subnormal
            h[1] *= bad
        h[1, n - 1, 0] = complex(bad, 0.0) if part == "re" else complex(0.0, bad)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="squared magnitudes must sum below"):
                montecarlo.lambda_max(h)

    @pytest.mark.parametrize("n_rx, n_tx", [(1, 2), (2, 2), (3, 2), (3, 3), (3, 4), (4, 4)])
    def test_largest_accepted_channels(self, n_rx, n_tx):
        # just below the power bound every kernel computes without a warning
        h = _draw_white(np.random.default_rng(67), 200, n_rx, n_tx)
        limit = montecarlo._MAX_POWER ** (0.5 if min(n_rx, n_tx) == 2 else 1.0)
        h *= math.sqrt(0.999 * limit) / np.linalg.norm(h, axis=(1, 2))[:, None, None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = montecarlo.lambda_max(h)
        assert np.max(np.abs(got / eigvalsh_lambda_max(h) - 1.0)) <= 1e-13

    @pytest.mark.parametrize("n_rx, n_tx", [(1, 2), (2, 2), (3, 2), (3, 3), (3, 4), (4, 4)])
    def test_smallest_accepted_channels(self, n_rx, n_tx):
        # just above the power floor every kernel computes without a warning,
        # near-tied pairs too, whose squared half gap underflows in the 2x2
        # closed form; a zero channel gives 0
        h = np.zeros((237, n_rx, n_tx), dtype=np.complex128)
        h[:200] = _draw_white(np.random.default_rng(71), 200, n_rx, n_tx)
        h[200:236, 0, 0] = 1.0
        if min(n_rx, n_tx) > 1:
            h[200:236, 1, 1] = 1.0 + 2.0 ** -np.arange(5.0, 41.0)
        floor = montecarlo._MIN_POWER_PAIR if min(n_rx, n_tx) == 2 else montecarlo._MIN_POWER
        h[:236] *= math.sqrt(1.001 * floor) / np.linalg.norm(h[:236], axis=(1, 2))[:, None, None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = montecarlo.lambda_max(h)
        assert np.max(np.abs(got[:236] / eigvalsh_lambda_max(h[:236]) - 1.0)) <= 1e-13
        assert got[236] == 0.0


# Declared before the first run: (n_rx, n_tx, rho_rx, rho_tx) at
# 2 * _BATCH + 7 trials and seed 1601, with the SHA-256 of the samples'
# bytes for n_min <= 2 and of the Gram entries' bytes, batch by batch,
# from 3.
DIGESTS = [
    ((1, 3, 0.0, 0.0), "6c9457739290ecddd498cad5708819aa2a5183793b6b9125347b9a206375ae45"),
    ((2, 2, 0.5, 0.5), "fcf26fd5ecbd2468a4121d085f26171b5cf468118ea369708ac027399c57a7fc"),
    ((2, 4, 0.3, 0.9), "c12b50a5c7cb05598e8baa3d7da18fe707fe9e70eae3fdc5df1fdb0586609340"),
    ((4, 2, 0.9, 0.3), "37764569c9ee461b4bb94e00638c8f3f93f7792f17e299fa37b57c40fbaae319"),
    ((3, 3, 0.9, 0.9), "a025889890b4080b4801d66e303253bc69c30ef582a71fa9d5a84f9c39dcc949"),
    ((3, 4, 0.5, 0.5), "58dcae88e2087094630245169e23ef16b00a436486d3146fc173078bba95a57e"),
    ((4, 4, 0.5, 0.5), "7413406c2a643b74f5358af9656dea42ccb0d3646a1976e6d99618bc34bc7d5a"),
]


class TestDigests:
    """Declared draws keep their bits; they are bit-identical for a
    (config, seed) at any worker count, not across versions. Up to two
    antennas on the smaller side the samples take only IEEE products,
    sums and square roots, and are pinned; for three they pass through
    libm's arccos and cos, from four through LAPACK's eigvalsh, so there
    the Gram entries that feed them are pinned. All rest on numpy's
    normal generator and on eigvalsh's eigenvalues of the correlation
    matrices, which set the entries' standard deviations."""

    @pytest.mark.parametrize("geometry, digest", DIGESTS, ids=[
        "{}x{}-{}-{}".format(*geometry) for geometry, _ in DIGESTS
    ])
    def test_declared_draws_keep_their_bits(self, geometry, digest):
        n_rx, n_tx, rho_rx, rho_tx = geometry
        cfg = montecarlo.McConfig(n_rx=n_rx, n_tx=n_tx, rho_rx=rho_rx, rho_tx=rho_tx,
                                  trials=2 * montecarlo._BATCH + 7, seed=1601)
        if min(n_rx, n_tx) <= 2:
            got = hashlib.sha256(montecarlo.simulate_lambda_max(cfg).tobytes())
        else:
            got = hashlib.sha256()
            for h in batch_channels(cfg):
                got.update(gram_entries(h).tobytes())
        assert got.hexdigest() == digest


# Fixed before any run: one seed per case for each route.
COMPLEX_RX = np.array([[1.0, 0.4 + 0.3j, 0.1 - 0.25j],
                       [0.4 - 0.3j, 1.0, 0.5j],
                       [0.1 + 0.25j, -0.5j, 1.0]])
COMPLEX_TX = np.array([[1.0, 0.7 - 0.5j], [0.7 + 0.5j, 1.0]])
ROUTE_CASES = [
    # (n_rx, n_tx, config keywords, eigenbasis seed, full-matrix seed)
    (1, 4, dict(rho_tx=0.9), 4101, 4201),
    (4, 1, dict(rho_rx=0.9), 4102, 4202),
    (2, 2, dict(rho_rx=0.5, rho_tx=0.9), 4103, 4203),
    (2, 3, dict(rho_rx=0.9, rho_tx=0.5), 4104, 4204),
    (3, 2, dict(rho_rx=0.5, rho_tx=0.9), 4105, 4205),
    (3, 3, dict(rho_rx=0.9, rho_tx=0.5), 4106, 4206),
    (3, 2, dict(rx_corr=COMPLEX_RX, tx_corr=COMPLEX_TX), 4107, 4207),
    (4, 3, dict(rho_rx=0.5, rho_tx=0.9), 4108, 4208),
]


class TestEigenbasisRoute:
    TRIALS = 200_000
    # Two-sample bound from the one-sample DKW inequality (Massart's
    # constant): each empirical c.d.f. is within eps of the true one except
    # with probability 2 exp(-2 n eps^2), so the two are within 2 eps of
    # each other except with probability ALPHA, dependent or not.
    ALPHA = 1e-6

    @pytest.mark.parametrize("n_rx, n_tx, corr, seed, full_seed", ROUTE_CASES)
    def test_same_law_as_full_matrix_route(self, n_rx, n_tx, corr, seed, full_seed):
        cfg = montecarlo.McConfig(n_rx=n_rx, n_tx=n_tx, trials=self.TRIALS, seed=seed, **corr)
        full_cfg = montecarlo.McConfig(
            n_rx=n_rx, n_tx=n_tx, trials=self.TRIALS, seed=full_seed, **corr
        )
        a = np.sort(montecarlo.simulate_lambda_max(cfg))
        b = np.sort(full_matrix_lambda_max(full_cfg))
        both = np.concatenate([a, b])
        sup = np.max(np.abs(
            np.searchsorted(a, both, side="right") - np.searchsorted(b, both, side="right")
        )) / self.TRIALS
        bound = 2.0 * math.sqrt(math.log(4.0 / self.ALPHA) / (2.0 * self.TRIALS))
        assert sup <= bound, (n_rx, n_tx, sup, bound)


class TestEstimators:
    def test_library_and_cli_share_the_estimators(self, capsys):
        cfg = montecarlo.McConfig(n_rx=2, n_tx=3, rho_rx=0.5, trials=150_000, seed=19)
        flags = ["--nr", "2", "--nt", "3", "--rho-rx", "0.5", "--with-mc",
                 "--trials", "150000", "--seed", "19"]
        mod = performance.modulation_preset("qpsk")
        assert cli.main(["ser", *flags, "--mod", "qpsk", "--sweep", "0:20:3"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        for row in rows:
            r = montecarlo.mc_ser(cfg, mod, float(row[0]))
            assert (float(row[3]), float(row[4])) == (r.estimate, r.std_error)
        assert cli.main(["outage", *flags, "--snr-db", "5", "--sweep", "0:10:3"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        for row in rows:
            r = montecarlo.mc_outage(cfg, 5.0, 10.0 ** (float(row[0]) / 10.0))
            assert (float(row[3]), float(row[4])) == (r.estimate, r.std_error)

    def test_cli_estimates_each_sweep_in_one_call(self, capsys, monkeypatch):
        calls = []
        for name in ("mc_outage", "mc_ser"):
            estimate = getattr(montecarlo, name)

            def counting(*args, name=name, estimate=estimate):
                calls.append(name)
                return estimate(*args)

            monkeypatch.setattr(montecarlo, name, counting)
        flags = ["--nr", "2", "--nt", "2", "--with-mc", "--trials", "5000", "--seed", "3"]
        assert cli.main(["outage", *flags, "--snr-db", "5", "--sweep", "0:10:7"]) == 0
        assert calls == ["mc_outage"]
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 7 and all(len(row.split(",")) == 5 for row in rows)
        assert cli.main(["ser", *flags, "--mod", "8psk", "--sweep", "0:40:9"]) == 0
        assert calls == ["mc_outage", "mc_ser"]
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 9 and all(len(row.split(",")) == 5 for row in rows)

    def test_snr_array_equals_one_call_per_snr(self):
        cfg = montecarlo.McConfig(n_rx=2, n_tx=3, rho_rx=0.5, trials=70_001, seed=15)
        snrs = np.linspace(-10.0, 40.0, 11)
        want = [montecarlo.mc_ser(cfg, EIGHT_PSK, snr) for snr in snrs]
        for got in (
            montecarlo.mc_ser(cfg, EIGHT_PSK, snrs),
            montecarlo.mc_ser(cfg, EIGHT_PSK, snrs.tolist()),
        ):
            assert got == want
        assert montecarlo.mc_ser(cfg, EIGHT_PSK, snrs[3:4]) == want[3:4]
        assert montecarlo.mc_ser(cfg, EIGHT_PSK, np.array([])) == []

    @pytest.mark.parametrize("snrs, match", [
        ([10.0, math.nan], "finite, got nan"),
        ([math.inf, 0.0], "finite, got inf"),
        (-math.inf, "finite, got -inf"),
        ([[0.0, 10.0]], "1-D array"),
        (4000.0, "3082.5 dB, .*got 4000.0 dB"),
        ([0.0, -4000.0], "-3076.5 .*got -4000.0 dB"),
    ])
    def test_bad_snr_refused_before_any_work(self, snrs, match, monkeypatch, drawn):
        cfg = montecarlo.McConfig(n_rx=2, n_tx=2, trials=1000, seed=9)
        calls = []
        monkeypatch.setattr(montecarlo, "gauss_q_upper_into", lambda *args: calls.append(1))
        for points in (snrs, np.array(snrs)):
            with pytest.raises(ValidationError, match=match):
                montecarlo.mc_ser(cfg, EIGHT_PSK, points)
        assert calls == [] and drawn == []

    BAD_SAMPLES = {
        "empty": np.array([]),
        "scalar": np.float64(1.0),
        "2-D": np.ones((2, 3)),
        "NaN": np.array([1.0, math.nan]),
        "+inf": np.array([1.0, math.inf]),
        "-inf": np.array([-math.inf, 1.0]),
        "negative": np.array([1.0, -1e-300]),
    }

    @pytest.mark.parametrize("samples", BAD_SAMPLES.values(), ids=BAD_SAMPLES.keys())
    def test_bad_samples_refused(self, samples):
        # by the draw's check, the one place samples are checked
        with pytest.raises(ValidationError, match="samples must be"):
            montecarlo._checked_samples(samples)

    def test_zero_samples_accepted(self):
        samples = montecarlo._checked_samples(np.array([0.0, -0.0, 2.0]))
        assert montecarlo._ser_estimate(samples, EIGHT_PSK, linear(10.0), 1).trials == 3
        assert montecarlo._fractions(samples, np.array([1.0])).tolist() == [2 / 3]

    def test_estimates_are_python_floats(self):
        cfg = montecarlo.McConfig(n_rx=2, n_tx=2, trials=1000, seed=6)
        for result in (
            montecarlo.mc_ser(cfg, EIGHT_PSK, 10.0),
            montecarlo.mc_outage(cfg, 0.0, 1.0),
        ):
            assert type(result.estimate) is float and type(result.std_error) is float
            assert type(result.trials) is int

    def test_one_draw_serves_every_point(self):
        # every estimate is over the config's kept samples, here counted
        # and averaged by the test's own routes
        cfg = montecarlo.McConfig(n_rx=3, n_tx=2, rho_tx=0.5, trials=70_000, seed=4)
        samples = montecarlo.simulate_lambda_max(cfg)
        mod = performance.modulation_preset("8psk")
        for snr_db in (0.0, 15.0):
            r = montecarlo.mc_ser(cfg, mod, snr_db)
            assert (r.estimate, r.std_error, r.trials) == serial_ser_estimate(samples, mod, snr_db)
            p = np.count_nonzero(samples <= 2.0 / float(linear(snr_db))) / cfg.trials
            assert montecarlo.mc_outage(cfg, snr_db, 2.0).estimate == p
        grid = np.linspace(0.0, 12.0, 7)
        want = [np.count_nonzero(samples <= x) / cfg.trials for x in grid]
        assert montecarlo.empirical_cdf(cfg, grid).tolist() == want

    @pytest.mark.parametrize("snr_db", [-5.0, 0.0, 7.5, 20.0])
    def test_outage_is_the_empirical_cdf_at_gamma_over_gbar(self, snr_db):
        # bit for bit, with the binomial standard error, from thresholds
        # below every sample's output SNR to above every one
        cfg = montecarlo.McConfig(n_rx=2, n_tx=3, rho_rx=0.5, trials=70_001, seed=21)
        samples = montecarlo.simulate_lambda_max(cfg)
        gbar = float(linear(snr_db))
        gammas = gbar * np.concatenate((
            [0.5 * samples.min()], np.geomspace(0.1, 10.0, 17), [2.0 * samples.max()]
        ))
        got = montecarlo.mc_outage(cfg, snr_db, gammas)
        want = montecarlo.empirical_cdf(cfg, gammas / gbar).tolist()
        assert [r.estimate for r in got] == want
        assert [r.std_error for r in got] == [math.sqrt(p * (1.0 - p) / cfg.trials) for p in want]
        assert (want[0], want[-1], got[0].std_error, got[-1].std_error) == (0.0, 1.0, 0.0, 0.0)
        assert 0.0 < want[9] < 1.0  # λmax = 1


EIGHT_PSK = performance.modulation_preset("8psk")


@pytest.fixture
def drawn(monkeypatch):
    """The batch index of every stream the simulator opens, in order."""
    indices = []
    real = montecarlo._batch_rng

    def counting(seed, index):
        indices.append(index)
        return real(seed, index)

    monkeypatch.setattr(montecarlo, "_batch_rng", counting)
    return indices


class TestReuse:
    """Every call on one config shares one draw, returned read-only and
    freed with the config."""

    @staticmethod
    def make():
        return montecarlo.McConfig(n_rx=2, n_tx=2, rho_rx=0.5, rho_tx=0.5,
                                   trials=150_000, seed=31)

    # the four mc_ser calls of the benchmark's crosscheck, then the rest
    CALLS = [
        *(
            lambda cfg, snr=snr: montecarlo.mc_ser(cfg, EIGHT_PSK, snr)
            for snr in (0.0, 10.0, 20.0, 30.0)
        ),
        lambda cfg: montecarlo.mc_outage(cfg, 10.0, 2.0),
        lambda cfg: montecarlo.empirical_cdf(cfg, np.linspace(0.0, 8.0, 9)),
        montecarlo.simulate_lambda_max,
    ]

    def test_one_draw_per_config(self, drawn):
        cfg = self.make()
        batches = math.ceil(cfg.trials / montecarlo._BATCH)
        shared = [call(cfg) for call in self.CALLS]
        assert sorted(drawn) == list(range(batches))
        # each call alone on a fresh config draws again, to the same bits
        fresh = [call(self.make()) for call in self.CALLS]
        assert len(drawn) == batches * (1 + len(self.CALLS))
        for got, want in zip(shared, fresh):
            if isinstance(got, np.ndarray):
                assert got.tobytes() == want.tobytes()
            else:
                assert (got.estimate, got.std_error, got.trials) == (
                    want.estimate, want.std_error, want.trials
                )

    def test_equal_config_draws_again(self, drawn):
        cfg = self.make()
        a = montecarlo.simulate_lambda_max(cfg)
        assert montecarlo.simulate_lambda_max(cfg) is a
        b = montecarlo.simulate_lambda_max(dataclasses.replace(cfg))
        assert b is not a and b.tobytes() == a.tobytes()
        assert len(drawn) == 2 * math.ceil(cfg.trials / montecarlo._BATCH)

    def test_samples_are_read_only(self):
        samples = montecarlo.simulate_lambda_max(self.make())
        assert not samples.flags.writeable
        with pytest.raises(ValueError):
            samples[0] = 1.0
        with pytest.raises(ValueError):
            samples.sort()

    def test_draw_freed_with_its_config(self):
        cfg = self.make()
        samples = weakref.ref(montecarlo.simulate_lambda_max(cfg))
        assert samples() is not None
        del cfg
        assert samples() is None

    def test_estimators_import_no_scipy(self):
        code = (
            "import sys\n"
            "import mimomrc as mm\n"
            "cfg = mm.McConfig(n_rx=2, n_tx=2, rho_rx=0.5, trials=70_000, seed=1)\n"
            "for snr in (0.0, 10.0, 20.0, 30.0):\n"
            "    mm.mc_ser(cfg, mm.modulation_preset('8psk'), snr)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(montecarlo.__file__).parents[1])}
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"
