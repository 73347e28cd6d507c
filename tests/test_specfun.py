"""Special-function tests: direct values, identities, limits."""

import math

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
