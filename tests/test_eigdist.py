"""Distribution tests: closed-form collapses, leading-coefficient
identities, guard behavior, monotonicity, and Monte-Carlo agreement."""

import itertools
import math
import warnings

import numpy as np
import pytest

from mimomrc import correlation, eigdist, montecarlo
from mimomrc.errors import NumericalError, ValidationError


def model_for(rho_rx, n_rx, rho_tx, n_tx):
    return eigdist.build_model(
        correlation.make_pair(
            correlation.exp_correlation(rho_rx, n_rx),
            correlation.exp_correlation(rho_tx, n_tx),
        )
    )


def erlang_cdf(m, x):
    total = 1.0
    term = 1.0
    for k in range(1, m):
        term *= x / k
        total += term
    return 1.0 - math.exp(-x) * total


class TestAlpha:
    def test_siso(self):
        assert model_for(0, 1, 0, 1).alpha == pytest.approx(1.0, rel=1e-14)

    def test_one_by_two(self):
        assert model_for(0, 1, 0, 2).alpha == pytest.approx(0.5, rel=1e-14)

    def test_two_by_two_uncorrelated(self):
        assert model_for(0, 2, 0, 2).alpha == pytest.approx(1.0 / 12.0, rel=1e-13)

    def test_two_by_two_half_correlated(self):
        # det 0.75 on the minor side only: 1 / (0.75^2 * 12)
        assert model_for(0.5, 2, 0, 2).alpha == pytest.approx(0.14814814814814814, rel=1e-12)

    def test_identity_reduces_to_gamma_ratio(self):
        from mimomrc.specfun import multivariate_gamma_norm

        for n, m in [(1, 1), (1, 3), (2, 2), (2, 4), (3, 3)]:
            want = multivariate_gamma_norm(n, n) / multivariate_gamma_norm(n, m + n)
            assert model_for(0, n, 0, m).alpha == pytest.approx(want, rel=1e-12)

    def test_correlation_ratio_identity(self):
        base = model_for(0, 2, 0, 3)
        corr = model_for(0.9, 2, 0.5, 3)
        want = corr.det_minor ** (-3) * corr.det_major ** (-2)
        assert corr.alpha / base.alpha == pytest.approx(want, rel=1e-10)

    def test_alpha_coefficient_matches_model(self):
        pair = correlation.make_pair(
            correlation.exp_correlation(0.7, 3), correlation.exp_correlation(0.4, 2)
        )
        assert eigdist.alpha_coefficient(pair) == eigdist.build_model(pair).alpha

    def test_log_alpha_consistent(self):
        model = model_for(0.9, 3, 0.9, 3)
        assert math.exp(model.log_alpha) == pytest.approx(model.alpha, rel=1e-13)


class TestExactCdf:
    def test_zero_is_zero(self):
        assert eigdist.exact_cdf(model_for(0, 2, 0.5, 2), 0.0) == 0.0

    def test_siso_exponential(self):
        model = model_for(0, 1, 0, 1)
        assert eigdist.exact_cdf(model, 1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)

    def test_one_by_two_erlang(self):
        model = model_for(0, 1, 0, 2)
        want = 1.0 - math.exp(-0.1) * 1.1  # about 4.6788e-3
        assert eigdist.exact_cdf(model, 0.1) == pytest.approx(want, rel=1e-9)

    def test_erlang_collapse_to_1e8(self):
        # identity correlations against the closed-form order statistics
        for n, m in [(1, 1), (1, 2), (1, 3)]:
            model = model_for(0, n, 0, m)
            for x in np.geomspace(0.05, 12.0, 40):
                got = eigdist.exact_cdf(model, float(x))
                assert got == pytest.approx(erlang_cdf(m, float(x)), abs=1e-8)

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            eigdist.exact_cdf(model_for(0, 1, 0, 1), -0.5)

    def test_range(self):
        model = model_for(0.5, 3, 0.9, 2)
        for x in np.linspace(0.0, 40.0, 200):
            assert 0.0 <= eigdist.exact_cdf(model, float(x)) <= 1.0

    def test_out_of_range_raw_value_raises(self, monkeypatch):
        # a typed error, not an assert that python -O strips, in the scalar
        # and the array path alike
        model = model_for(0.5, 2, 0.5, 2)
        x = math.sqrt(model.crossover * model.saturation)
        monkeypatch.setattr(eigdist, "_cdf_raw", lambda model, xs: np.full(len(xs), 1.5))
        with pytest.raises(NumericalError, match="out of range"):
            eigdist.exact_cdf(model, x)
        with pytest.raises(NumericalError, match="out of range"):
            eigdist.cdf(model, [0.5 * model.crossover, x])
        # outside [crossover, saturation] the raw value is only clamped
        assert eigdist.exact_cdf(model, 2.0 * model.saturation) == 1.0


class TestAsymptotic:
    def test_siso_linear(self):
        model = model_for(0, 1, 0, 1)
        assert eigdist.asymptotic_cdf(model, 0.01) == pytest.approx(0.01, rel=1e-14)

    def test_one_by_two_value(self):
        model = model_for(0, 1, 0, 2)
        assert eigdist.asymptotic_cdf(model, 0.1) == pytest.approx(0.005, rel=1e-13)

    def test_pdf_siso_constant(self):
        model = model_for(0, 1, 0, 1)
        for x in [0.0, 0.3, 1.0]:
            assert eigdist.asymptotic_pdf(model, x) == pytest.approx(1.0, rel=1e-13)

    def test_pdf_value_2x2(self):
        model = model_for(0.5, 2, 0, 2)
        assert eigdist.asymptotic_pdf(model, 0.1) == pytest.approx(5.925925925925926e-4, rel=1e-12)

    def test_pdf_is_cdf_derivative(self):
        model = model_for(0.5, 2, 0.9, 3)
        h = 1e-6
        for x in [0.05, 0.2, 0.7]:
            central = (
                eigdist.asymptotic_cdf(model, x + h) - eigdist.asymptotic_cdf(model, x - h)
            ) / (2 * h)
            assert eigdist.asymptotic_pdf(model, x) == pytest.approx(central, rel=1e-7)

    def test_unclamped(self):
        model = model_for(0, 2, 0, 2)
        assert eigdist.asymptotic_cdf(model, 10.0) > 1.0


class TestStable:
    def test_saturates_to_one(self):
        for rho_rx, n, rho_tx, m in [(0, 1, 0, 1), (0.5, 2, 0.5, 2), (0, 3, 0.9, 3)]:
            model = model_for(rho_rx, n, rho_tx, m)
            x = 50.0 * model.n_min * model.n_max
            assert eigdist.exact_cdf_stable(model, x) == pytest.approx(1.0, abs=1e-6)

    def test_matches_leading_term_below_crossover(self):
        for args in [(0, 1, 0, 1), (0.5, 2, 0.5, 2), (0, 3, 0, 3)]:
            model = model_for(*args)
            x = model.crossover * 0.5
            if x <= 0:
                continue
            assert eigdist.exact_cdf_stable(model, x) == eigdist.asymptotic_cdf(model, x)

    def test_monotone_on_grid(self):
        # 2000-point grid out to 20 * (antenna product), sizes up to 4x4
        for n in [1, 2, 3, 4]:
            for rho in [0.0, 0.3, 0.5, 0.9]:
                m_side = max(n, 2) if n == 1 else n
                model = model_for(rho, n, rho, m_side)
                grid = np.linspace(0.0, 20.0 * model.n_min * model.n_max, 2000)
                values = np.array([eigdist.exact_cdf_stable(model, float(x)) for x in grid])
                drops = np.diff(values)
                assert np.min(drops, initial=0.0) >= -1e-9, (n, rho, np.min(drops))

    def test_continuity_at_crossover(self):
        # the switch is exactly continuous by the floor construction
        for args in [(0, 2, 0, 2), (0.9, 3, 0.9, 3), (0, 1, 0, 2)]:
            model = model_for(*args)
            x = model.crossover
            if x <= 0:
                continue
            below = eigdist.exact_cdf_stable(model, x * (1.0 - 1e-9))
            above = eigdist.exact_cdf_stable(model, x * (1.0 + 1e-9))
            assert above >= below
            assert above - below <= 0.02 * max(below, 1e-300) + 1e-12

    def test_mid_range_against_monte_carlo(self):
        # quick empirical-c.d.f. check; the full 1e6-trial version is in
        # the acceptance suite
        model = model_for(0, 2, 0, 2)
        cfg = montecarlo.McConfig(n_rx=2, n_tx=2, trials=200_000, seed=99)
        grid = np.linspace(0.01, 25.0, 400)
        emp = montecarlo.empirical_cdf(cfg, grid)
        ana = np.array([eigdist.exact_cdf_stable(model, float(x)) for x in grid])
        assert np.max(np.abs(emp - ana)) < 1.63 / math.sqrt(cfg.trials)


class TestFitRecovery:
    def test_slope_and_intercept_2x2(self):
        # log-log fit over the deep tail recovers the leading power law
        model = model_for(0.5, 2, 0.5, 2)
        mn = model.n_min * model.n_max
        targets = np.geomspace(1e-8, 1e-5, 12)
        xs, ys = [], []
        for target in targets:
            lo, hi = 1e-12, 10.0
            for _ in range(200):
                mid = math.sqrt(lo * hi)
                if eigdist.exact_cdf_stable(model, mid) < target:
                    lo = mid
                else:
                    hi = mid
            x = math.sqrt(lo * hi)
            xs.append(math.log(x))
            ys.append(math.log(eigdist.exact_cdf_stable(model, x)))
        slope, intercept = np.polyfit(xs, ys, 1)
        assert slope == pytest.approx(mn, rel=0.02)
        assert abs(intercept - model.log_alpha) <= math.log(1.05)


class TestAsymptoticConsistency:
    def test_deep_configs_raw(self):
        # configurations whose determinant form stays significant deep
        # enough are checked in raw form against the leading term
        for args in [(0, 1, 0, 1), (0, 1, 0, 2)]:
            model = model_for(*args)
            mn = model.n_min * model.n_max
            x = (1e-6 / model.alpha) ** (1.0 / mn)
            ratio = eigdist.exact_cdf(model, x) / eigdist.asymptotic_cdf(model, x)
            assert abs(ratio - 1.0) < 0.05

    def test_all_configs_stable(self):
        # heavier configurations report the leading term itself there
        for args in [(0, 2, 0, 2), (0.9, 3, 0.5, 3), (0.5, 2, 0.3, 3)]:
            model = model_for(*args)
            mn = model.n_min * model.n_max
            x = (1e-6 / model.alpha) ** (1.0 / mn)
            ratio = eigdist.exact_cdf_stable(model, x) / eigdist.asymptotic_cdf(model, x)
            assert abs(ratio - 1.0) < 0.05


class TestPsiMatrix:
    def test_structure(self):
        minor = [0.5, 1.5]
        major = [0.2, 1.0, 1.8]
        x = 0.7
        psi = eigdist.psi_matrix(minor, major, x)
        assert psi.shape == (3, 3)
        # row above the dimension gap: inverse powers of the major side
        for j, sj in enumerate(major):
            assert psi[0, j] == pytest.approx((1.0 / sj) ** 2, rel=1e-14)
        # kernel rows: exponential minus its truncated series
        for i, w in enumerate(minor):
            for j, sj in enumerate(major):
                t = x / (w * sj)
                want = math.exp(-t) - (1.0 - t + t * t / 2.0)
                assert psi[1 + i, j] == pytest.approx(want, rel=1e-10, abs=1e-16)

    def test_kernel_tail_series_matches_subtracted_form(self):
        # same function on both sides of the internal switch at t = m + 1,
        # with points from both sides in one array
        for m in [2, 3, 4]:
            ts = [0.5, 1.0, float(m), float(m + 2), 30.0]
            got = eigdist._exp_tail(np.array(ts), m)
            assert got.shape == (len(ts),)
            for t, value in zip(ts, got):
                term = 1.0
                partial = 1.0
                for k in range(1, m):
                    term *= -t / k
                    partial += term
                want = math.exp(-t) - partial
                assert value == pytest.approx(want, rel=1e-10, abs=1e-15)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValidationError):
            eigdist.psi_matrix([1.0, 2.0], [1.0], 0.5)
        with pytest.raises(ValidationError):
            eigdist.psi_matrix([1.0], [1.0, 2.0], -1.0)


class TestDegeneracyGuard:
    def test_tied_eigenvalues_flagged(self):
        assert model_for(0, 2, 0, 2).degenerate
        assert model_for(0, 1, 0.5, 3).degenerate is False
        assert model_for(0, 3, 0.9, 3).degenerate  # one side tied

    def test_spread_preserves_product(self):
        values = np.array([1.0, 1.0, 1.0, 1.0])
        clusters = eigdist._cluster(values, 1e-6)
        spread = eigdist._spread_clusters(values, clusters, 0.05)
        assert np.prod(spread) == pytest.approx(1.0, rel=1e-12)
        assert len(np.unique(spread)) == 4

    def test_partial_tie_spreads_only_cluster(self):
        values = np.array([0.25, 1.0, 1.0])
        clusters = eigdist._cluster(values, 1e-6)
        spread = eigdist._spread_clusters(values, clusters, 0.01)
        assert spread[0] == 0.25
        assert spread[1] != spread[2]
        assert spread[1] * spread[2] == pytest.approx(1.0, rel=1e-12)

    def test_refuses_extreme_degeneracy(self):
        # 5x5 identity on both sides: vanishing order 20, beyond what the
        # spread guard can resolve in double precision
        pair = correlation.make_pair(np.eye(5), np.eye(5))
        with pytest.raises(NumericalError, match="vanishing order"):
            eigdist.build_model(pair)

    def test_accepted_models_build_without_warnings(self):
        # the crossover scan divides by a leading term that underflows to
        # 0 at the bottom of the scan for large antenna products
        rhos = (0.0, 0.3, 0.5, 0.9, 0.99)
        built = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for n_rx, n_tx, rho_rx, rho_tx in itertools.product(
                range(1, 6), range(1, 6), rhos, rhos
            ):
                pair = correlation.make_pair(
                    correlation.exp_correlation(rho_rx, n_rx),
                    correlation.exp_correlation(rho_tx, n_tx),
                )
                try:
                    eigdist.build_model(pair)
                except NumericalError:
                    continue
                built += 1
        assert built > 500

    def test_four_by_four_identity_supported(self):
        model = eigdist.build_model(correlation.make_pair(np.eye(4), np.eye(4)))
        assert model.degenerate
        assert 0.0 < eigdist.exact_cdf_stable(model, 10.0) < 1.0

    def test_user_matrix_with_tie(self):
        # a non-exponential correlation with an exactly repeated eigenvalue
        mat = np.array(
            [
                [1.0, 0.5, 0.0],
                [0.5, 1.0, 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        pair = correlation.make_pair(mat, np.eye(2))
        model = eigdist.build_model(pair)
        assert model.degenerate
        cfg = montecarlo.McConfig(n_rx=3, n_tx=2, rx_corr=mat, trials=200_000, seed=5)
        grid = np.linspace(0.01, 20.0, 200)
        emp = montecarlo.empirical_cdf(cfg, grid)
        ana = np.array([eigdist.exact_cdf_stable(model, float(x)) for x in grid])
        assert np.max(np.abs(emp - ana)) < 1.63 / math.sqrt(cfg.trials)
