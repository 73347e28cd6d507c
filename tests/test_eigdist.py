"""Distribution tests: closed-form collapses, leading-coefficient
identities, guard behavior, monotonicity, and Monte-Carlo agreement."""

import itertools
import math
import warnings
from fractions import Fraction

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


def determinant_cdf(model, x):
    """The determinant form at one point, clamped to [0, 1]: 0 at x = 0.

    Inside [crossover, saturation) this is the evaluator itself, which
    takes the form there; elsewhere the raw form, clamped here.
    """
    if x == 0.0:
        return 0.0
    if model.crossover <= x < model.saturation:
        return eigdist.cdf(model, float(x))
    return float(np.clip(eigdist._cdf_raw(model, np.array([float(x)]))[0], 0.0, 1.0))


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
        assert eigdist.exact_cdf_stable(model_for(0, 2, 0.5, 2), 0.0) == 0.0

    def test_siso_exponential(self):
        model = model_for(0, 1, 0, 1)
        assert determinant_cdf(model, 1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)

    def test_one_by_two_erlang(self):
        model = model_for(0, 1, 0, 2)
        want = 1.0 - math.exp(-0.1) * 1.1  # about 4.6788e-3
        assert determinant_cdf(model, 0.1) == pytest.approx(want, rel=1e-9)

    def test_erlang_collapse_to_1e8(self):
        # identity correlations against the closed-form order statistics
        for n, m in [(1, 1), (1, 2), (1, 3)]:
            model = model_for(0, n, 0, m)
            for x in np.geomspace(0.05, 12.0, 40):
                got = determinant_cdf(model, float(x))
                assert got == pytest.approx(erlang_cdf(m, float(x)), abs=1e-8)

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            eigdist.exact_cdf_stable(model_for(0, 1, 0, 1), -0.5)

    def test_range(self):
        model = model_for(0.5, 3, 0.9, 2)
        for x in np.linspace(0.0, 40.0, 200):
            assert 0.0 <= determinant_cdf(model, float(x)) <= 1.0

    def test_out_of_range_raw_value_raises(self, monkeypatch):
        # a typed error, not an assert that python -O strips, in the scalar
        # and the array path alike
        model = model_for(0.5, 2, 0.5, 2)
        x = math.sqrt(model.crossover * model.saturation)
        monkeypatch.setattr(eigdist, "_cdf_raw", lambda model, xs: np.full(len(xs), 1.5))
        with pytest.raises(NumericalError, match="out of range"):
            determinant_cdf(model, x)
        with pytest.raises(NumericalError, match="out of range"):
            eigdist.cdf(model, [0.5 * model.crossover, x])


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


# The grid models: 1-4 antennas a side, rho 0, .5 and .9 on each side.
GRID_RHOS = (0.0, 0.5, 0.9)
GRID_GEOMETRIES = list(itertools.product(GRID_RHOS, range(1, 5), GRID_RHOS, range(1, 5)))


@pytest.fixture(scope="module")
def grid_models():
    return [model_for(*args) for args in GRID_GEOMETRIES]


def regime_points(model):
    """Points below the crossover, in [crossover, saturation) and from
    saturation on: both bounds and their neighbouring doubles, and points
    well inside each regime."""
    c, s = model.crossover, model.saturation
    below = [0.0, 1e-3 * c, 0.5 * c, np.nextafter(c, 0.0)]
    inside = [c, np.nextafter(c, np.inf), math.sqrt(c * s), np.nextafter(s, 0.0)]
    above = [s, np.nextafter(s, np.inf), 2.0 * s]
    return [np.array(points, dtype=float) for points in (below, inside, above)]


class TestRegimes:
    """``cdf`` decides each point's regime once, bit for bit."""

    def test_leading_term_below_crossover(self, grid_models):
        for args, model in zip(GRID_GEOMETRIES, grid_models):
            below = regime_points(model)[0]
            assert np.array_equal(eigdist.cdf(model, below),
                                  eigdist.asymptotic_cdf(model, below)), args

    def test_clipped_snapped_floored_form_inside(self, grid_models):
        for args, model in zip(GRID_GEOMETRIES, grid_models):
            inside = regime_points(model)[1]
            want = np.clip(eigdist._cdf_raw(model, inside), 0.0, 1.0)
            want[want >= 1.0 - eigdist._ONE_SNAP] = 1.0
            want = np.maximum(want, eigdist.asymptotic_cdf(model, model.crossover))
            assert np.array_equal(eigdist.cdf(model, inside), want), args

    def test_one_from_saturation(self, grid_models):
        for args, model in zip(GRID_GEOMETRIES, grid_models):
            above = regime_points(model)[2]
            assert eigdist.cdf(model, above).tolist() == [1.0] * above.size, args

    def test_sweep_equals_scalar_calls(self, grid_models):
        for args, model in zip(GRID_GEOMETRIES, grid_models):
            xs = np.concatenate(regime_points(model))
            scalars = [eigdist.cdf(model, float(x)) for x in xs]
            assert eigdist.cdf(model, xs).tolist() == scalars, args

    def test_form_sees_only_its_regime(self, grid_models, monkeypatch):
        seen = []
        raw = eigdist._cdf_raw

        def recorder(model, xs):
            seen.append((model, xs.copy()))
            return raw(model, xs)

        monkeypatch.setattr(eigdist, "_cdf_raw", recorder)
        for model in grid_models:
            xs = np.concatenate(regime_points(model))
            eigdist.cdf(model, xs)
            for x in xs:
                eigdist.cdf(model, float(x))
        # per model, the sweep's one block and the four inside points alone
        assert len(seen) == 5 * len(grid_models)
        for model, xs in seen:
            assert np.all((model.crossover <= xs) & (xs < model.saturation))


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
            ratio = determinant_cdf(model, x) / eigdist.asymptotic_cdf(model, x)
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

    def test_series_coefficients_correctly_rounded(self):
        # c_j = 1/((m+1)...(m+j)), each the double nearest the exact
        # rational, cut at the first term below 1e-19 of the leading one at
        # the switch point t = m + 1; the package divides ints, which
        # CPython rounds correctly, and the exact rationals check that here
        for m in range(1, 31):
            coefficients = eigdist._series_coefficients(m)
            exact = [Fraction(1, math.prod(range(m + 1, m + j + 1))) for j in range(len(coefficients))]
            assert coefficients == tuple(float(c) for c in exact), m
            terms = [c * (m + 1) ** j for j, c in enumerate(exact)]
            assert terms[-1] <= Fraction(1e-19) < terms[-2], m

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValidationError):
            eigdist.psi_matrix([1.0, 2.0], [1.0], 0.5)
        with pytest.raises(ValidationError):
            eigdist.psi_matrix([1.0], [1.0, 2.0], -1.0)


def stack_det(matrices):
    """The evaluator's determinants of a list of matrices, stacked points
    innermost."""
    return eigdist._det_stack(np.stack([np.asarray(a, dtype=float) for a in matrices], axis=-1))


class TestStackDeterminant:
    """The evaluator's pivoted elimination across the points axis."""

    @pytest.mark.parametrize("m", range(1, 7))
    def test_matches_numpy_det(self, m):
        # random matrices whose determinant the rounding cannot move by
        # more than about cond * eps, shuffled among each other
        a = np.random.default_rng(m).standard_normal((3000, m, m))
        a = a[np.linalg.cond(a) < 100.0]
        got = eigdist._det_stack(a.transpose(1, 2, 0).copy())
        np.testing.assert_allclose(got, np.linalg.det(a), rtol=1e-13, atol=0.0)
        if m == 1:
            assert np.array_equal(got, a[:, 0, 0])

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_row_swaps_keep_the_sign(self, m):
        # scaled permutation matrices: a zero leading entry in all but one,
        # the pivot of each column in every row, odd and even permutations
        # side by side in one stack, every step exact
        scale = np.arange(2.0, m + 2.0)
        perms = list(itertools.permutations(range(m)))
        matrices = [np.eye(m)[list(p)] * scale for p in perms]
        signs = [round(np.linalg.det(np.eye(m)[list(p)])) for p in perms]
        assert sorted(set(signs)) == [-1, 1]
        assert stack_det(matrices).tolist() == [s * math.prod(scale) for s in signs]

    def test_largest_entry_below_is_swapped_up(self):
        # [[1, 2], [3, 4]] pivots on 3: l = 1/3 and det = -(3 * (2 - 4/3))
        got = stack_det([[[1.0, 2.0], [3.0, 4.0]], [[3.0, 4.0], [1.0, 2.0]]])
        assert got.tolist() == [-(3.0 * (2.0 - 1.0 / 3.0 * 4.0)), 3.0 * (2.0 - 1.0 / 3.0 * 4.0)]

    def test_singular_stack_is_zero_without_warning(self):
        singular = [
            [[0.0, 1.0], [0.0, 2.0]],  # a zero first column
            [[1.0, 0.0, 2.0], [3.0, 0.0, 4.0], [5.0, 0.0, 6.0]],  # a zero middle column
            [[1.0, 2.0], [1.0, 2.0]],  # equal rows: the last pivot cancels to 0
            [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 1.0, 1.0]],  # rank 2
            np.zeros((3, 3)),
        ]
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            for a in singular:
                # alone, and beside a regular matrix that keeps its value
                assert stack_det([a]).tolist() == [0.0]
                regular = np.eye(len(a)) * 2.0
                assert stack_det([a, regular]).tolist() == [0.0, 2.0 ** len(a)]

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    def test_non_finite_entries_give_non_finite_values(self, value):
        # the value in each position of a regular matrix in turn
        for m in range(1, 5):
            base = np.random.default_rng(m).standard_normal((m, m)) + 3.0 * np.eye(m)
            matrices = []
            for i, j in itertools.product(range(m), repeat=2):
                a = base.copy()
                a[i, j] = value
                matrices.append(a)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = stack_det(matrices)
            assert not np.isfinite(got).any(), (m, got)

    @pytest.mark.parametrize("m", range(1, 5))
    def test_empty_stack(self, m):
        got = eigdist._det_stack(np.empty((m, m, 0)))
        assert got.shape == (0,) and got.dtype == np.float64


# Square exponential geometries (n, rho on both sides) that double
# precision cannot support: alpha overflows on the first two and
# underflows to 0 on the third.
ALPHA_OUT_OF_RANGE = [(10, 0.999), (16, 0.99), (20, 0.5)]


class TestOutOfRangeRefused:
    @pytest.mark.parametrize("n, rho", ALPHA_OUT_OF_RANGE)
    def test_alpha_out_of_range(self, n, rho):
        pair = correlation.make_pair(
            correlation.exp_correlation(rho, n), correlation.exp_correlation(rho, n)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (eigdist.alpha_coefficient, eigdist.build_model):
                with pytest.raises(NumericalError, match="leading coefficient"):
                    call(pair)

    def test_non_finite_scan_value(self):
        # 12x12 rho .99/.99: the determinant overflows, and the form is NaN
        # from x = 4.58 in the saturation scan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="value nan"):
                model_for(0.99, 12, 0.99, 12)


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
