"""Independent references for the array c.d.f. evaluator: a 50-digit
mpmath evaluation of the determinant form, the scalar psi-matrix +
``linalg.det`` route the evaluator replaced, and batch independence."""

import math

import numpy as np
import pytest

from mimomrc import correlation, eigdist, linalg
from mimomrc.specfun import multivariate_gamma_norm

mp = pytest.importorskip("mpmath").mp

SIZES = [(n_rx, n_tx) for n_rx in range(1, 5) for n_tx in range(1, 5)]
RHOS = [(rho_rx, rho_tx) for rho_rx in (0.0, 0.5, 0.9) for rho_tx in (0.0, 0.5, 0.9)]


def model_for(n_rx, n_tx, rho_rx, rho_tx):
    return eigdist.build_model(
        correlation.make_pair(
            correlation.exp_correlation(rho_rx, n_rx),
            correlation.exp_correlation(rho_tx, n_tx),
        )
    )


def determinant_points(model, count=9):
    """Points spread over the determinant regime [crossover, saturation)."""
    return np.geomspace(model.crossover, model.saturation, count + 1)[:-1]


# --- scalar route: one psi matrix per point, in-house determinant ---------


def scalar_exp_tail(t, m):
    """Term-by-term tail series / subtracted form, one point at a time."""
    if t < m + 1.0:
        term = (-t) ** m / math.factorial(m)
        total = term
        k = m + 1
        while k < m + 200:
            term *= -t / k
            total += term
            if abs(term) <= 1e-18 * abs(total):
                break
            k += 1
        return total
    term = 1.0
    partial = 1.0
    for k in range(1, m):
        term *= -t / k
        partial += term
    return math.exp(-t) - partial


def scalar_psi(minor, major, x):
    n, m = len(minor), len(major)
    gap = m - n
    psi = np.empty((m, m))
    for j, sj in enumerate(major):
        inv = 1.0 / sj
        for i in range(gap):
            psi[i, j] = inv ** (m - 1 - i)
        for i in range(gap, m):
            psi[i, j] = scalar_exp_tail(x * inv / minor[i - gap], m)
    return psi


def scalar_cdf_raw(model, x):
    n, m = model.n_min, model.n_max
    half_exp = n * (n - 1) // 2
    sign = -1.0 if (n + half_exp) % 2 else 1.0
    gamma_nn = float(multivariate_gamma_norm(n, n))
    common = sign * gamma_nn * model.det_minor ** (n - 1) * model.det_major ** (m - 1)
    value = 0.0
    for s in model.eval_sets:
        det_psi = linalg.det(scalar_psi(s.minor, s.major, x)).real
        value += s.weight * common * det_psi / (s.vand_minor * s.vand_major * x**half_exp)
    return value


# --- 50-digit route --------------------------------------------------------


def mp_exp_tail(t, m):
    """sum_{k>=m} (-t)^k / k! to working precision: the series below t = 1,
    where the subtracted form would cancel, the subtracted form above it,
    where the alternating series would."""
    if t >= 1:
        return mp.exp(-t) - mp.fsum((-t) ** k / mp.factorial(k) for k in range(m))
    term = (-t) ** m / mp.factorial(m)
    total = term
    k = m + 1
    while abs(term) > mp.eps * abs(total):
        term *= -t / k
        total += term
        k += 1
    return total


def mp_cdf_raw(model, x, dps=50):
    """The determinant form at x in ``dps``-digit arithmetic, from the
    double-precision evaluation sets of the model."""
    n, m = model.n_min, model.n_max
    gap = m - n
    half_exp = n * (n - 1) // 2
    sign = -1 if (n + half_exp) % 2 else 1
    with mp.workdps(dps):
        x = mp.mpf(float(x))
        det_minor = mp.fprod(mp.mpf(float(v)) for v in model.pair.minor_eigs)
        det_major = mp.fprod(mp.mpf(float(v)) for v in model.pair.major_eigs)
        common = sign * multivariate_gamma_norm(n, n) * det_minor ** (n - 1) * det_major ** (m - 1)
        value = mp.mpf(0)
        for s in model.eval_sets:
            minor = [mp.mpf(v) for v in s.minor]
            major = [mp.mpf(v) for v in s.major]
            psi = mp.matrix(m, m)
            for j, sj in enumerate(major):
                for i in range(gap):
                    psi[i, j] = sj ** -(m - 1 - i)
                for i in range(gap, m):
                    psi[i, j] = mp_exp_tail(x / (minor[i - gap] * sj), m)
            vand = mp.fprod(
                v[j] - v[i] for v in (minor, major) for i in range(len(v)) for j in range(i + 1, len(v))
            )
            value += mp.mpf(s.weight) * common * mp.det(psi) / (vand * x**half_exp)
        return float(value)


class TestMpmathOracle:
    def test_tail_series_to_a_few_ulp(self):
        # both sides of the switch at t = m + 1, against the 50-digit series
        for m in range(1, 9):
            ts = np.concatenate([np.geomspace(1e-8, m + 1, 40), np.linspace(0.2, 3 * (m + 1), 40)])
            got = eigdist._exp_tail(ts, m)
            with mp.workdps(50):
                want = np.array([float(mp_exp_tail(mp.mpf(float(t)), m)) for t in ts])
            assert np.max(np.abs(got / want - 1.0)) <= 2e-15, m

    def test_untied_models_match_to_1e8(self):
        # every untied model of the grid, across its determinant regime
        worst = 0.0
        checked = 0
        for n_rx, n_tx in SIZES:
            for rho_rx, rho_tx in RHOS:
                model = model_for(n_rx, n_tx, rho_rx, rho_tx)
                if model.degenerate:
                    continue
                xs = determinant_points(model)
                got = eigdist._cdf_raw(model, xs)
                for x, value in zip(xs, got):
                    want = mp_cdf_raw(model, x)
                    worst = max(worst, abs(value / want - 1.0))
                    checked += 1
        assert checked >= 200
        assert worst <= 1e-8, worst

    def test_oracle_reproduces_closed_forms(self):
        # the reference itself: SISO exponential and 1x3 Erlang
        for n_tx, cdf in [
            (1, lambda x: -math.expm1(-x)),
            (3, lambda x: 1.0 - math.exp(-x) * (1.0 + x + x * x / 2.0)),
        ]:
            model = model_for(1, n_tx, 0.0, 0.0)
            if model.degenerate:
                # tied eigenvalues: the spread sets carry the guard's error
                tol = model.noise_floor
            else:
                tol = 1e-15
            for x in [0.05, 0.7, 3.0]:
                assert mp_cdf_raw(model, x) == pytest.approx(cdf(x), rel=tol)


class TestScalarRoute:
    def test_untied_models_match_scalar_route_to_1e8(self):
        for n_rx, n_tx in SIZES:
            for rho_rx, rho_tx in RHOS:
                model = model_for(n_rx, n_tx, rho_rx, rho_tx)
                if model.degenerate:
                    continue
                xs = determinant_points(model)
                got = eigdist._cdf_raw(model, xs)
                want = np.array([scalar_cdf_raw(model, float(x)) for x in xs])
                rel = np.max(np.abs(got / want - 1.0))
                assert rel <= 1e-8, (n_rx, n_tx, rho_rx, rho_tx, rel)

    def test_tied_models_no_noisier_than_scalar_route(self):
        # Against the 50-digit value of the same spread sets, each route's
        # rounding noise stays within the noise floor over most of the
        # distribution but grows past it in the upper tail of some models
        # (2x4 at rho 0/0.9: about 1e-7 against a floor of 1e-9, on both
        # routes). So the array evaluator must stay within the floor or
        # within ten times the scalar route's worst error on that model.
        for n_rx, n_tx in SIZES:
            for rho_rx, rho_tx in RHOS:
                model = model_for(n_rx, n_tx, rho_rx, rho_tx)
                if not model.degenerate:
                    continue
                xs = determinant_points(model)
                want = np.array([mp_cdf_raw(model, x) for x in xs])
                new = np.max(np.abs(eigdist._cdf_raw(model, xs) - want))
                old = np.max(np.abs([scalar_cdf_raw(model, float(x)) for x in xs] - want))
                assert new <= max(model.noise_floor, 10.0 * old), (
                    n_rx, n_tx, rho_rx, rho_tx, new, old, model.noise_floor
                )

    def test_psi_matrix_matches_scalar_route(self):
        minor = [0.3, 1.1, 1.6]
        major = [0.05, 0.4, 1.2, 2.35]
        for x in [1e-4, 0.3, 2.0, 9.0, 60.0]:
            np.testing.assert_allclose(
                eigdist.psi_matrix(minor, major, x), scalar_psi(minor, major, x),
                rtol=1e-13, atol=0.0,
            )


class TestBatchIndependence:
    MODELS = [(2, 2, 0.5, 0.5), (3, 2, 0.9, 0.0), (4, 4, 0.0, 0.0), (1, 3, 0.0, 0.9)]

    def test_array_equals_scalar_bit_for_bit(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        models = [model_for(*args) for args in self.MODELS]

        @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
        @hypothesis.given(
            index=st.integers(0, len(models) - 1),
            xs=st.lists(st.floats(0.0, 80.0), min_size=1, max_size=40),
        )
        def check(index, xs):
            model = models[index]
            values = eigdist.cdf(model, np.array(xs))
            for x, value in zip(xs, values):
                assert value == eigdist.exact_cdf_stable(model, x)
            assert np.all((values >= 0.0) & (values <= 1.0))

        check()

    def test_shape_is_kept(self):
        model = model_for(*self.MODELS[0])
        grid = np.linspace(0.0, 20.0, 12).reshape(3, 4)
        values = eigdist.cdf(model, grid)
        assert values.shape == (3, 4)
        assert values[0, 0] == 0.0
        assert np.all(np.diff(values.ravel()) >= 0.0)


class TestStableBound:
    """exact_cdf_stable within max(_SCAN_TOP_CDF, theta(mn)) of the
    50-digit determinant form, across the floor and past saturation."""

    # (n_rx, n_tx, rho_rx, rho_tx): the largest errors seen on the grid of
    # 1-4 antennas a side, near the floor (2x4 at rho 0.9/0.9) and past
    # saturation (3x4 and 4x4), and one small model
    MODELS = [(3, 4, 0.0, 0.9), (4, 3, 0.9, 0.0), (4, 4, 0.9, 0.9), (2, 4, 0.9, 0.9), (3, 3, 0.5, 0.5)]

    @staticmethod
    def bound(model):
        mn = model.n_min * model.n_max
        return max(eigdist._SCAN_TOP_CDF, eigdist._saturation_theta(mn))

    def test_near_saturation(self):
        # the form is 0.998156 at 37.5, near where the evaluator starts
        # reporting 1
        model = model_for(3, 4, 0.0, 0.9)
        err = abs(eigdist.exact_cdf_stable(model, 37.5) - mp_cdf_raw(model, 37.5))
        assert err <= self.bound(model)

    @pytest.mark.parametrize("args", MODELS)
    def test_bound_holds(self, args):
        model = model_for(*args)
        xs = np.concatenate([
            np.geomspace(model.crossover * 0.5, model.crossover * 2.0, 6),
            np.geomspace(model.saturation * 0.8, model.saturation * 1.6, 10),
        ])
        got = eigdist.cdf(model, xs)
        err = max(abs(g - mp_cdf_raw(model, x)) for g, x in zip(got, xs))
        assert err <= self.bound(model), (args, err, self.bound(model))
