"""Simulator tests: channel statistics, determinism, estimator sanity, and
the eigenbasis draw against the full-matrix one."""

import math
import sys
import tracemalloc

import numpy as np
import pytest

from mimomrc import cli, correlation, linalg, montecarlo, performance, specfun
from mimomrc.errors import NumericalError, ValidationError


def full_matrix_channels(cfg, rng, count):
    """``count`` channels drawn as corr_rx^{1/2} * white * corr_tx^{1/2}:
    the route the simulator's eigenbasis draw replaces, kept here as its
    reference."""
    rx, tx = montecarlo.corr_matrices(cfg)
    white = montecarlo._draw_white(rng, count, cfg.n_rx, cfg.n_tx)
    return linalg.herm_sqrt(rx) @ white @ linalg.herm_sqrt(tx)


def eigvalsh_lambda_max(h):
    """Largest eigenvalue of the Gram matrix on the smaller side of each
    channel in a batch, by eigvalsh."""
    if h.shape[1] <= h.shape[2]:
        gram = np.einsum("bij,bkj->bik", h, h.conj())
    else:
        gram = np.einsum("bji,bjk->bik", h.conj(), h)
    return np.linalg.eigvalsh(gram)[:, -1]


def full_matrix_lambda_max(cfg):
    """Largest eigenvalues of the full-matrix route in the simulator's batches."""
    out = []
    for index, start in enumerate(range(0, cfg.trials, montecarlo._BATCH)):
        count = min(montecarlo._BATCH, cfg.trials - start)
        h = full_matrix_channels(cfg, montecarlo._batch_rng(cfg.seed, index), count)
        out.append(eigvalsh_lambda_max(h))
    return np.concatenate(out)


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
            rx, tx = montecarlo.corr_matrices(cfg)
            h = full_matrix_channels(cfg, np.random.Generator(np.random.Philox(8)), trials)
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
        # spans several batches so the reduction order matters; one
        # geometry per lambda_max branch
        mod = performance.modulation_preset("bpsk")
        for n_rx, n_tx in [(2, 2), (3, 3), (4, 4), (4, 1)]:
            cfg = montecarlo.McConfig(n_rx=n_rx, n_tx=n_tx, rho_rx=0.3, trials=200_000, seed=55)
            serial = montecarlo.mc_ser(cfg, mod, 8.0, workers=1)
            serial_samples = montecarlo.simulate_lambda_max(cfg, workers=1)
            # batches write disjoint slices of one array; switch threads
            # often so that a lost or misplaced write would show
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threaded = montecarlo.mc_ser(cfg, mod, 8.0, workers=4)
                threaded_samples = [
                    montecarlo.simulate_lambda_max(cfg, workers=workers) for workers in (3, None)
                ]
            finally:
                sys.setswitchinterval(interval)
            assert (serial.estimate, serial.std_error) == (threaded.estimate, threaded.std_error)
            for samples in threaded_samples:
                np.testing.assert_array_equal(serial_samples, samples)


class TestWorkers:
    BATCH = montecarlo._BATCH
    BLOCK = montecarlo._BLOCK

    @pytest.mark.parametrize("workers", [0, -3, 2.5, "2", True, False])
    def test_bad_worker_count_refused(self, workers):
        cfg = montecarlo.McConfig(n_rx=2, n_tx=2, trials=10, seed=0)
        mod = performance.modulation_preset("bpsk")
        for call in (
            lambda: montecarlo.simulate_lambda_max(cfg, workers=workers),
            lambda: montecarlo.mc_ser(cfg, mod, 10.0, workers=workers),
            lambda: montecarlo.mc_outage(cfg, 0.0, 1.0, workers=workers),
            lambda: montecarlo.empirical_cdf(cfg, np.array([1.0]), workers=workers),
        ):
            with pytest.raises(ValidationError, match="workers"):
                call()

    @pytest.mark.parametrize("n_rx, n_tx", [
        (1, 4), (4, 1), (2, 3), (3, 2), (3, 3), (3, 4), (4, 3), (4, 4),
    ])
    def test_pooled_blocks_equal_the_reference_draw(self, n_rx, n_tx):
        # the reference draws each batch whole with _draw_white, real
        # block then imaginary block; the pooled, block-wise draw must give
        # every sample the same bits at any worker count
        for trials in (1, self.BLOCK - 1, self.BLOCK + 1, 70_001, 150_001):
            cfg = montecarlo.McConfig(
                n_rx=n_rx, n_tx=n_tx, rho_rx=0.5, rho_tx=0.3, trials=trials, seed=1799
            )
            rx, tx = montecarlo.corr_matrices(cfg)
            std = np.sqrt(0.5 * np.outer(
                correlation.correlation_eigenvalues(rx, "receive"),
                correlation.correlation_eigenvalues(tx, "transmit"),
            ))
            want = []
            for index, start in enumerate(range(0, trials, self.BATCH)):
                count = min(self.BATCH, trials - start)
                rng = montecarlo._batch_rng(cfg.seed, index)
                h = montecarlo._draw_white(rng, count, n_rx, n_tx, std)
                want.append(montecarlo.lambda_max(h))
            want = np.concatenate(want)
            for workers in (1, 2, 3, None):
                got = montecarlo.simulate_lambda_max(cfg, workers=workers)
                assert got.tobytes() == want.tobytes(), (trials, workers)

    def test_memory_bounded_by_the_buffers(self):
        # Beyond the output, each worker holds one batch's real normals
        # and _BLOCK rows of imaginary normals, channels and lambda_max
        # temporaries, together less than two batches' real normals.
        cfg = montecarlo.McConfig(n_rx=3, n_tx=3, rho_rx=0.5, trials=1 << 20, seed=3)
        workers = 2
        plane = 8 * self.BATCH * cfg.n_rx * cfg.n_tx
        specfun.scipy_special()  # a first multi-batch call imports it
        tracemalloc.start()
        try:
            montecarlo.simulate_lambda_max(cfg, workers=workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * cfg.trials + 2 * workers * plane, peak / plane


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
        h = montecarlo._draw_white(rng, 5000, 1, m) * np.geomspace(1e-3, 1e3, 5000)[:, None, None]
        self.assert_close(h)
        self.assert_close(h.transpose(0, 2, 1).copy())

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_two_antennas_both_orientations(self, m):
        rng = np.random.Generator(np.random.Philox(43))
        random = montecarlo._draw_white(rng, 5000, 2, m)
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
        """How many rows of h lambda_max hands to eigvalsh."""
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
        random = montecarlo._draw_white(rng, 5000, 3, m)
        special = self.special_triples(m, self.TIED_TOP + self.SEPARATED_TOP)
        for h in (random, special):
            self.assert_close(h)
            self.assert_close(h.transpose(0, 2, 1).copy())

    def test_three_antennas_at_extreme_scales(self):
        # unscaled, p^3 would lose digits to underflow near 1e-52
        rng = np.random.Generator(np.random.Philox(59))
        h = montecarlo._draw_white(rng, 1000, 3, 4)
        for scale in (1e-150, 1e-52, 1e52, 1e150):
            self.assert_close(h * scale)

    @pytest.mark.parametrize("m", [3, 4])
    def test_only_unresolved_rows_take_eigvalsh(self, m, monkeypatch):
        rng = np.random.Generator(np.random.Philox(53))
        random = montecarlo._draw_white(rng, 5000, 3, m)
        tied = self.special_triples(m, self.TIED_TOP)
        separated = self.special_triples(m, self.SEPARATED_TOP)
        assert self.recomputed_rows(random, monkeypatch) == 0
        assert self.recomputed_rows(tied, monkeypatch) == len(tied)
        assert self.recomputed_rows(separated, monkeypatch) == 0

    def test_zero_channel(self):
        assert np.array_equal(montecarlo.lambda_max(np.zeros((2, 3, 4), complex)), [0.0, 0.0])


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

    def test_one_draw_serves_every_point(self):
        cfg = montecarlo.McConfig(n_rx=3, n_tx=2, rho_tx=0.5, trials=70_000, seed=4)
        samples = montecarlo.simulate_lambda_max(cfg)
        mod = performance.modulation_preset("8psk")
        for snr_db in (0.0, 15.0):
            assert montecarlo.ser_estimate(samples, mod, snr_db) == montecarlo.mc_ser(cfg, mod, snr_db)
            assert montecarlo.outage_estimate(samples, snr_db, 2.0) == montecarlo.mc_outage(cfg, snr_db, 2.0)
        grid = np.linspace(0.0, 12.0, 7)
        want = [montecarlo.outage_estimate(samples, 0.0, x).estimate for x in grid[1:]]
        np.testing.assert_array_equal(montecarlo.empirical_cdf(cfg, grid)[1:], want)
