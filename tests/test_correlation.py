"""Correlation-matrix construction, role assignment, penalty, CSV I/O."""

import numpy as np
import pytest

from mimomrc import correlation, linalg, montecarlo
from mimomrc.errors import ValidationError


class TestExpCorrelation:
    def test_zero_rho_is_identity(self):
        np.testing.assert_allclose(correlation.exp_correlation(0.0, 3), np.eye(3))

    def test_definition(self):
        np.testing.assert_allclose(
            correlation.exp_correlation(0.5, 2).real, [[1.0, 0.5], [0.5, 1.0]]
        )

    def test_size3_determinant(self):
        # exponential model determinant: (1 - rho^2)^(size-1)
        a = correlation.exp_correlation(0.5, 3)
        np.testing.assert_allclose(
            a.real, [[1.0, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 1.0]]
        )
        assert linalg.det(a).real == pytest.approx(0.5625, rel=1e-12)
        eig_product = np.prod(linalg.herm_eig(a).eigenvalues)
        assert eig_product == pytest.approx(0.5625, rel=1e-10)

    def test_rejects_bad_rho(self):
        for rho in [-0.1, 1.0, 1.5]:
            with pytest.raises(ValidationError):
                correlation.exp_correlation(rho, 2)

    def test_rejects_bad_size(self):
        with pytest.raises(ValidationError):
            correlation.exp_correlation(0.5, 0)

    @pytest.mark.parametrize("size", [True, 2.0])
    def test_size_must_be_an_integer(self, size):
        with pytest.raises(ValidationError, match="size must be an integer"):
            correlation.exp_correlation(0.5, size)

    @pytest.mark.parametrize("rho", ["0.5", False, None, np.array(0.5), 0.5j])
    def test_rho_must_be_a_real_number(self, rho):
        with pytest.raises(ValidationError, match="rho must be a real number"):
            correlation.exp_correlation(rho, 2)

    @pytest.mark.parametrize("rho", [0, 0.5, np.float32(0.25), np.float64(0.9), np.int64(0)])
    def test_rho_of_any_real_type(self, rho):
        want = [[1.0, float(rho)], [float(rho), 1.0]]
        np.testing.assert_array_equal(correlation.exp_correlation(rho, 2), want)


class TestMakePair:
    def test_role_assignment_small_receive(self):
        pair = correlation.make_pair(
            correlation.exp_correlation(0.5, 2), correlation.exp_correlation(0.3, 3)
        )
        assert (pair.n_min, pair.n_max) == (2, 3)
        # receive side is the smaller dimension -> its eigenvalues are minor
        want = np.linalg.eigvalsh(correlation.exp_correlation(0.5, 2).real)
        np.testing.assert_allclose(pair.minor_eigs, want, rtol=1e-10)

    def test_role_swap(self):
        a = correlation.exp_correlation(0.5, 2)
        b = correlation.exp_correlation(0.3, 3)
        forward = correlation.make_pair(a, b)
        swapped = correlation.make_pair(b, a)
        np.testing.assert_allclose(forward.minor_eigs, swapped.minor_eigs, rtol=1e-12)
        np.testing.assert_allclose(forward.major_eigs, swapped.major_eigs, rtol=1e-12)

    def test_identity_pair(self):
        pair = correlation.make_pair(np.eye(2), np.eye(2))
        np.testing.assert_allclose(pair.minor_eigs, [1.0, 1.0])
        assert correlation.det_minor(pair) == pytest.approx(1.0)
        assert correlation.det_major(pair) == pytest.approx(1.0)

    def test_two_by_two_determinants(self):
        pair = correlation.make_pair(
            correlation.exp_correlation(0.9, 2), correlation.exp_correlation(0.5, 2)
        )
        assert correlation.det_minor(pair) == pytest.approx(0.19, rel=1e-12)
        assert correlation.det_major(pair) == pytest.approx(0.75, rel=1e-12)

    def test_eigs_ascending_positive(self):
        pair = correlation.make_pair(
            correlation.exp_correlation(0.9, 3), correlation.exp_correlation(0.7, 4)
        )
        for eigs in (pair.minor_eigs, pair.major_eigs):
            assert np.all(eigs > 0.0)
            assert np.all(np.diff(eigs) >= 0.0)

    def test_trace_equals_dimension(self):
        pair = correlation.make_pair(
            correlation.exp_correlation(0.9, 3), correlation.exp_correlation(0.7, 4)
        )
        assert np.sum(pair.minor_eigs) == pytest.approx(pair.n_min, rel=1e-12)
        assert np.sum(pair.major_eigs) == pytest.approx(pair.n_max, rel=1e-12)

    def test_rejects_non_unit_diagonal(self):
        bad = np.array([[1.1, 0.0], [0.0, 1.0]])
        with pytest.raises(ValidationError, match="receive"):
            correlation.make_pair(bad, np.eye(2))
        with pytest.raises(ValidationError, match="transmit"):
            correlation.make_pair(np.eye(2), bad)

    def test_rejects_non_hermitian(self):
        bad = np.array([[1.0, 0.5], [0.1, 1.0]])
        with pytest.raises(ValidationError, match="Hermitian"):
            correlation.make_pair(bad, np.eye(2))

    @pytest.mark.parametrize("mat", [
        [[1, 0.5], [0.5]],
        [[1, "x"], ["x", 1]],
        [["1", "0.5"], ["0.5", "1"]],
        [[True, False], [False, True]],
        np.eye(2, dtype=bool),
        np.array([["1", "0"], ["0", "1"]]),
    ], ids=["ragged", "string", "numeric-strings", "bools", "bool-array", "string-array"])
    def test_rejects_malformed(self, mat):
        # refused naming the side, not as numpy's bare ValueError, and not
        # converted: numpy would read "0.5" as 0.5 and True as 1
        with pytest.raises(ValidationError, match="receive"):
            correlation.make_pair(mat, np.eye(2))
        with pytest.raises(ValidationError, match="transmit"):
            correlation.make_pair(np.eye(2), mat)

    def test_rejects_indefinite(self):
        bad = np.array([[1.0, 1.2], [1.2, 1.0]])  # unit diagonal, eigenvalue -0.2
        with pytest.raises(ValidationError, match="positive-definite"):
            correlation.make_pair(bad, np.eye(2))


class TestPenalty:
    def test_identity_is_one(self):
        pair = correlation.make_pair(np.eye(3), np.eye(2))
        assert correlation.correlation_penalty(pair) == pytest.approx(1.0, abs=1e-14)

    def test_known_value(self):
        # sqrt(0.19) * sqrt(0.75) = sqrt(0.1425)
        pair = correlation.make_pair(
            correlation.exp_correlation(0.9, 2), correlation.exp_correlation(0.5, 2)
        )
        assert correlation.correlation_penalty(pair) == pytest.approx(
            0.3774917217635375, rel=1e-12
        )

    def test_random_pairs_in_range(self):
        rng = np.random.RandomState(21)
        ones = 0
        for _ in range(1000):
            n_rx = rng.randint(1, 5)
            n_tx = rng.randint(1, 5)
            rho_rx = rng.uniform(0.0, 0.95) if rng.rand() > 0.1 else 0.0
            rho_tx = rng.uniform(0.0, 0.95) if rng.rand() > 0.1 else 0.0
            pair = correlation.make_pair(
                correlation.exp_correlation(rho_rx, n_rx),
                correlation.exp_correlation(rho_tx, n_tx),
            )
            penalty = correlation.correlation_penalty(pair)
            assert 0.0 < penalty <= 1.0 + 1e-12
            uncorrelated = (rho_rx == 0.0 or n_rx == 1) and (rho_tx == 0.0 or n_tx == 1)
            if abs(penalty - 1.0) <= 1e-12:
                assert uncorrelated
                ones += 1
        assert ones > 0

    def test_eig_product_matches_det(self):
        rng = np.random.RandomState(4)
        for _ in range(100):
            n = rng.randint(1, 5)
            rho = rng.uniform(0.0, 0.95)
            mat = correlation.exp_correlation(rho, n)
            pair = correlation.make_pair(mat, np.eye(1))
            det_direct = linalg.det(mat).real
            assert correlation.det_major(pair) == pytest.approx(det_direct, rel=1e-8)


class TestCsvRoundTrip:
    def test_real_matrix(self, tmp_path):
        path = tmp_path / "corr.csv"
        mat = correlation.exp_correlation(0.5, 3)
        correlation.save_matrix_csv(path, mat)
        loaded = correlation.load_matrix_csv(path)
        np.testing.assert_allclose(loaded, mat, rtol=0, atol=0)

    def test_complex_matrix(self, tmp_path):
        path = tmp_path / "corr.csv"
        mat = np.array([[1.0, 0.3 + 0.4j], [0.3 - 0.4j, 1.0]])
        correlation.save_matrix_csv(path, mat)
        loaded = correlation.load_matrix_csv(path)
        np.testing.assert_allclose(loaded, mat, rtol=0, atol=0)
        text = path.read_text()
        assert "j" in text

    def test_plain_real_entries_accepted(self, tmp_path):
        path = tmp_path / "corr.csv"
        path.write_text("1,0.5\n0.5,1\n")
        loaded = correlation.load_matrix_csv(path)
        np.testing.assert_allclose(loaded.real, [[1.0, 0.5], [0.5, 1.0]])

    def test_rejects_ragged(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,0.5\n0.5\n")
        with pytest.raises(ValidationError):
            correlation.load_matrix_csv(path)

    def test_rejects_non_square(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,0.5,0\n0.5,1,0\n")
        with pytest.raises(ValidationError):
            correlation.load_matrix_csv(path)

    @pytest.mark.parametrize("mat, match", [
        ([[1.0, 0.5, 0.2]], "must be square and nonempty"),
        (np.zeros((0, 0)), "must be square and nonempty"),
        ([[1, 0.5], [0.5]], "numeric matrix"),
        ([[1, "x"], ["x", 1]], "numeric matrix"),
        ([["1", "0.5"], ["0.5", "1"]], "numeric matrix"),
        ([[True, False], [False, True]], "numeric matrix"),
    ], ids=["1x3", "0x0", "ragged", "string", "numeric-strings", "bools"])
    def test_save_refuses_what_load_refuses(self, tmp_path, mat, match):
        path = tmp_path / "bad.csv"
        with pytest.raises(ValidationError, match=match):
            correlation.save_matrix_csv(path, mat)
        assert not path.exists()

    def test_one_shape_rule(self, tmp_path):
        # the pair, both CSV routes and the Monte-Carlo config refuse a
        # matrix's shape in the same words
        wide = [[1.0, 0.5, 0.2]]
        path = tmp_path / "wide.csv"
        path.write_text("1,0.5,0.2\n")
        calls = [
            lambda: correlation.make_pair(wide, np.eye(2)),
            lambda: correlation.save_matrix_csv(tmp_path / "out.csv", wide),
            lambda: correlation.load_matrix_csv(path),
            lambda: montecarlo.McConfig(n_rx=2, n_tx=2, rx_corr=wide),
            lambda: montecarlo.McConfig(n_rx=2, n_tx=2, rx_corr=np.eye(3)),
        ]
        for call in calls:
            with pytest.raises(ValidationError, match="must be square and nonempty"):
                call()

    def test_any_numeric_entries_round_trip(self, tmp_path):
        # integers, floats and complex numbers of Python or numpy, as the
        # file gives them back
        path = tmp_path / "corr.csv"
        mat = [[1, np.float32(0.5), 0.25 + 0.125j], [0.5, np.int8(1), 0.0],
               [0.25 - 0.125j, 0.0, np.complex64(1.0)]]
        correlation.save_matrix_csv(path, mat)
        loaded = correlation.load_matrix_csv(path)
        assert loaded.tolist() == np.array(mat, dtype=np.complex128).tolist()
        correlation.save_matrix_csv(path, loaded)
        assert correlation.load_matrix_csv(path).tobytes() == loaded.tobytes()

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,frog\nfrog,1\n")
        with pytest.raises(ValidationError):
            correlation.load_matrix_csv(path)
