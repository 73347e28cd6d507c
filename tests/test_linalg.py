"""Matrix kernel tests: hand-computable cases plus seeded random sweeps
against numpy.linalg as the reference."""

import numpy as np
import pytest

from mimomrc import linalg
from mimomrc.errors import ValidationError


class TestHermEig:
    def test_identity(self):
        eig = linalg.herm_eig(np.eye(2))
        np.testing.assert_allclose(eig.eigenvalues, [1.0, 1.0])

    def test_diagonal(self):
        eig = linalg.herm_eig(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(eig.eigenvalues, [1.0, 3.0])

    def test_complex_2x2(self):
        # characteristic polynomial x^2 - 4x + 3 -> roots 1 and 3
        eig = linalg.herm_eig([[2.0, 1j], [-1j, 2.0]])
        np.testing.assert_allclose(eig.eigenvalues, [1.0, 3.0], atol=1e-12)

    def test_ascending_order(self):
        rng = np.random.RandomState(3)
        a = rng.randn(5, 5) + 1j * rng.randn(5, 5)
        h = a @ a.conj().T
        eig = linalg.herm_eig(h)
        assert np.all(np.diff(eig.eigenvalues) >= 0.0)

    def test_random_reconstruction_and_unitarity(self):
        # 100 seeded trials, sizes 1..8
        rng = np.random.RandomState(42)
        for _ in range(100):
            n = rng.randint(1, 9)
            a = rng.randn(n, n) + 1j * rng.randn(n, n)
            h = a @ a.conj().T + np.eye(n)
            eig = linalg.herm_eig(h)
            recon = eig.eigenvectors @ np.diag(eig.eigenvalues) @ eig.eigenvectors.conj().T
            assert np.linalg.norm(recon - h) <= 1e-10 * np.linalg.norm(h)
            gram = eig.eigenvectors.conj().T @ eig.eigenvectors
            assert np.max(np.abs(gram - np.eye(n))) <= 1e-10

    def test_matches_numpy(self):
        rng = np.random.RandomState(11)
        for n in range(1, 9):
            a = rng.randn(n, n) + 1j * rng.randn(n, n)
            h = a @ a.conj().T
            ours = linalg.herm_eig(h).eigenvalues
            np.testing.assert_allclose(ours, np.linalg.eigvalsh(h), rtol=1e-9, atol=1e-9)

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            linalg.herm_eig(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            linalg.herm_eig([[1.0, 2.0], [0.5, 1.0]])

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            linalg.herm_eig([[np.nan, 0.0], [0.0, 1.0]])


class TestDet:
    def test_scalar(self):
        assert linalg.det([[1.0]]) == 1.0

    def test_2x2_closed_form(self):
        assert linalg.det([[1.0, 0.5], [0.5, 1.0]]) == pytest.approx(0.75, rel=1e-15)

    def test_3x3_vs_eigenvalue_product(self):
        rho = 0.5
        idx = np.arange(3)
        a = rho ** np.abs(idx[:, None] - idx[None, :])
        want = np.prod(linalg.herm_eig(a).eigenvalues)
        assert linalg.det(a).real == pytest.approx(want, rel=1e-12)

    def test_random_hermitian_eig_product(self):
        rng = np.random.RandomState(5)
        for n in range(1, 9):
            b = rng.randn(n, n) + 1j * rng.randn(n, n)
            a = b @ b.conj().T + np.eye(n)
            want = np.prod(linalg.herm_eig(a).eigenvalues)
            assert abs(linalg.det(a).real - want) <= 1e-8 * abs(want)

    def test_singular(self):
        assert abs(linalg.det([[1.0, 2.0], [2.0, 4.0]])) <= 1e-14

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            linalg.det(np.ones((3, 2)))


class TestVandermonde:
    def test_single(self):
        assert linalg.vandermonde([5.0]) == 1.0

    def test_pair(self):
        assert linalg.vandermonde([1.0, 3.0]) == 2.0

    def test_triple(self):
        assert linalg.vandermonde([1.0, 2.0, 4.0]) == 6.0

    def test_matches_bruteforce_after_sorting(self):
        rng = np.random.RandomState(9)
        for _ in range(50):
            n = rng.randint(1, 7)
            values = np.sort(rng.randn(n))
            brute = 1.0
            for i in range(n):
                for j in range(i + 1, n):
                    brute *= values[j] - values[i]
            assert linalg.vandermonde(values) == pytest.approx(brute, rel=1e-12, abs=1e-300)

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            linalg.vandermonde([])
