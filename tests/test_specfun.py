"""Special-function tests: direct values, identities, limits."""

import math

import mpmath as mp
import numpy as np
import pytest

from mimomrc import specfun
from mimomrc.errors import ValidationError


class TestMultivariateGammaNorm:
    def test_small_values(self):
        assert specfun.multivariate_gamma_norm(1, 1) == 1
        assert specfun.multivariate_gamma_norm(2, 2) == 1
        assert specfun.multivariate_gamma_norm(2, 4) == 12

    def test_product_of_factorials(self):
        # direct product definition
        for n in range(1, 5):
            for m in range(n, n + 5):
                want = 1
                for i in range(1, n + 1):
                    want *= math.factorial(m - i)
                assert specfun.multivariate_gamma_norm(n, m) == want

    def test_log_version_consistent(self):
        for n, m in [(1, 1), (2, 4), (3, 6), (4, 12)]:
            want = math.log(specfun.multivariate_gamma_norm(n, m))
            assert specfun.log_multivariate_gamma_norm(n, m) == pytest.approx(want, rel=1e-13)

    def test_rejects_nonpositive_gamma_argument(self):
        with pytest.raises(ValidationError):
            specfun.multivariate_gamma_norm(3, 2)
        with pytest.raises(ValidationError):
            specfun.multivariate_gamma_norm(0, 2)


class TestDoubleFactorialOdd:
    def test_values(self):
        assert specfun.double_factorial_odd(1) == 1
        assert specfun.double_factorial_odd(2) == 3
        assert specfun.double_factorial_odd(4) == 105

    def test_factorial_identity(self):
        # (2k-1)!! * 2^k * k! = (2k)!
        for k in range(1, 11):
            lhs = specfun.double_factorial_odd(k) * 2**k * math.factorial(k)
            assert lhs == math.factorial(2 * k)

    def test_rejects_zero(self):
        with pytest.raises(ValidationError):
            specfun.double_factorial_odd(0)


class TestGaussQ:
    def test_symmetry_point(self):
        assert specfun.gauss_q(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_known_value(self):
        # 0.5*erfc(1/sqrt(2)) to 30 digits: 0.158655253931457051...
        assert specfun.gauss_q(1.0) == pytest.approx(0.15865525393145705, rel=1e-12)

    def test_far_tail_underflows_cleanly(self):
        value = specfun.gauss_q(40.0)
        assert 0.0 <= value < 1e-300

    def test_complement_identity(self):
        for x in np.linspace(-6.0, 6.0, 121):
            assert specfun.gauss_q(x) + specfun.gauss_q(-x) == pytest.approx(1.0, abs=1e-12)

    def test_vectorized(self):
        xs = np.array([0.0, 1.0, -1.0])
        values = specfun.gauss_q(xs)
        assert values.shape == (3,)
        assert values[0] == pytest.approx(0.5)
        assert values[1] + values[2] == pytest.approx(1.0, abs=1e-12)

    def test_shape_kept(self):
        xs = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        values = specfun.gauss_q(xs)
        assert values.shape == (3, 4)
        np.testing.assert_array_equal(values.ravel(), specfun.gauss_q(xs.ravel()))


def relative_error(got, x):
    """|got / Q(x) - 1| with Q(x) and the ratio in 40 digits."""
    with mp.workdps(40):
        want = mp.erfc(mp.mpf(float(x)) / mp.sqrt(2)) / 2
        return float(abs(mp.mpf(float(got)) / want - 1))


class TestGaussQAccuracy:
    """Q(x) against 40-digit mpmath, and the inputs at its edges."""

    @pytest.mark.parametrize("lo, hi, bound", [
        (0.0, 1.0, 1e-15),
        (1.0, 10.0, 2e-14),
        (10.0, 37.5, 2.5e-13),
    ])
    def test_relative_error_per_band(self, lo, hi, bound):
        rng = np.random.default_rng(20061)
        xs = np.concatenate([[lo, np.nextafter(hi, lo)], rng.uniform(lo, hi, 2000)])
        got = specfun.gauss_q(xs)
        worst = max(relative_error(g, x) for g, x in zip(got, xs))
        assert worst <= bound, worst

    def test_negative_arguments(self):
        xs = np.linspace(0.05, 9.0, 180)
        np.testing.assert_array_equal(specfun.gauss_q(-xs), 1.0 - specfun.gauss_q(xs))
        for x, got in zip(-xs, specfun.gauss_q(-xs)):
            assert relative_error(got, x) <= 2.5e-16

    def test_infinities_and_nan(self):
        assert specfun.gauss_q(math.inf) == 0.0
        assert specfun.gauss_q(-math.inf) == 1.0
        assert math.isnan(specfun.gauss_q(math.nan))
        values = specfun.gauss_q(np.array([math.inf, -math.inf, math.nan, 1e300, -1e300]))
        np.testing.assert_array_equal(values, [0.0, 1.0, math.nan, 0.0, 1.0])

    def test_scalar_and_zero_dimensional_inputs(self):
        want = specfun.gauss_q(np.array([2.0]))[0]
        for x in (2.0, 2, np.float64(2.0), np.array(2.0)):
            got = specfun.gauss_q(x)
            assert type(got) is float
            assert got == want

    def test_underflow_at_the_tail(self):
        # Q(37.5) is about 1e-307, still normal; from _Q_ZERO = 37.519...,
        # where the formula would give a subnormal, Q is exactly 0
        tiny = np.finfo(float).tiny
        edge = specfun._Q_ZERO
        assert specfun.gauss_q(37.5) > tiny
        assert specfun.gauss_q(np.nextafter(edge, 0.0)) >= tiny
        assert specfun.gauss_q(edge) == 0.0
        xs = np.linspace(37.0, 41.0, 40_001)
        tail = specfun.gauss_q(xs)
        assert not np.any((tail > 0.0) & (tail < tiny))
        assert np.all(np.diff(tail) <= 0.0)
        assert np.all(tail[xs >= edge] == 0.0)

    def test_coefficients_recomputed(self):
        # g(t) = exp(z^2) erfc(z) (z + K), z = K (1 + t) / (1 - t), fitted by
        # Chebyshev coefficients at 64 nodes of the first kind with 40
        # digits, kept to 24 terms and rewritten in powers of t
        nodes = 64
        kept = len(specfun._Q_POLY)
        # integer coefficients of T_j in powers of t, lowest first
        cheb_powers = [[1], [0, 1]]
        for j in range(2, kept):
            row = [0, *(2 * c for c in cheb_powers[-1])]
            for i, c in enumerate(cheb_powers[-2]):
                row[i] -= c
            cheb_powers.append(row)
        with mp.workdps(40):
            k = mp.mpf(specfun._Q_K)
            angles = [mp.pi * (i + mp.mpf(1) / 2) / nodes for i in range(nodes)]
            values = []
            for angle in angles:
                t = mp.cos(angle)
                z = k * (1 + t) / (1 - t)
                values.append(mp.exp(z * z) * mp.erfc(z) * (z + k))
            cheb = [
                (1 if j else mp.mpf(1) / 2) * 2 / nodes
                * mp.fsum(v * mp.cos(j * a) for v, a in zip(values, angles))
                for j in range(nodes)
            ]
            powers = [
                mp.fsum(cheb[j] * cheb_powers[j][i] for j in range(i, kept))
                for i in range(kept)
            ]
            assert max(abs(c) for c in cheb[kept:]) < 1e-17
            # no cancellation at t = -1, where g = K is largest
            assert abs(mp.fsum(abs(p) for p in powers) / k - 1) < 1e-3
        assert specfun._Q_POLY == tuple(float(p) for p in powers)

    def test_blocks_do_not_change_the_values(self):
        # a long array gives each point the value it has alone
        xs = np.random.default_rng(5).uniform(-12.0, 40.0, 65_543)
        lone = np.array([specfun.gauss_q(np.array([x]))[0] for x in xs[::97]])
        np.testing.assert_array_equal(specfun.gauss_q(xs)[::97], lone)
