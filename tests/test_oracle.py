"""Independent references: 50-digit mpmath eigenvalues of the correlation
matrices, and for the array c.d.f. evaluator a 50-digit mpmath evaluation
of the determinant form (both from ``oracle.py``), the scalar psi-matrix
route with LAPACK's determinant (``linalg.det``), an algorithm apart from
the evaluator's elimination, the (points, m, m) stack whose bits the
evaluator's in-place stack keeps, a per-point copy of its elimination, and
batch independence."""

import math

import numpy as np
import pytest

from mimomrc import correlation, eigdist, linalg
from mimomrc.errors import NumericalError
from mimomrc.specfun import multivariate_gamma_norm

mp = pytest.importorskip("mpmath").mp

from oracle import Oracle, mp_cdf_raw, mp_eigenvalues, mp_exp_tail  # noqa: E402

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


# --- (points, m, m) route: every step a new array --------------------------


def reference_ipow(x, k):
    out = 1.0
    while k:
        if k & 1:
            out = out * x
        k >>= 1
        if k:
            x = x * x
    return out


def reference_exp_tail(t, m):
    neg = -np.asarray(t, dtype=float)
    series = neg > -(m + 1.0)
    out = np.empty_like(neg)
    coefficients = eigdist._series_coefficients(m)
    s = neg[series]
    sums = coefficients[-1] * s
    for c in coefficients[-2:0:-1]:
        sums += c
        sums *= s
    sums += coefficients[0]
    out[series] = reference_ipow(s, m) / math.factorial(m) * sums
    f = neg[~series]
    partial = np.ones_like(f)
    for k in range(m - 1, 0, -1):
        partial *= f
        partial /= k
        partial += 1.0
    out[~series] = np.exp(f) - partial
    return out


def reference_psi_stack(minor, major, xs):
    """The (len(xs), m, m) stack of evaluation matrices, one per point."""
    minor = np.asarray(minor, dtype=float)
    major = np.asarray(major, dtype=float)
    n, m = len(minor), len(major)
    gap = m - n
    inv = 1.0 / major
    psi = np.empty((len(xs), m, m))
    for i in range(gap):
        psi[:, i, :] = reference_ipow(inv, m - 1 - i)
    psi[:, gap:, :] = reference_exp_tail(xs[:, None, None] * inv / minor[:, None], m)
    return psi


def reference_det(matrix):
    """Determinant of one matrix by the evaluator's elimination, one point
    at a time: in each column the first row of largest magnitude is the
    pivot and is swapped with the top row, a zero pivot leaves its
    multipliers (the zeros under it) as they are, each row update is
    entry - multiplier * pivot-row entry, and the result is the signed
    product of the pivots, left to right."""
    a = [[float(v) for v in row] for row in matrix]
    m = len(a)
    odd = False
    for k in range(m - 1):
        pivot = k
        for i in range(k + 1, m):
            if abs(a[i][k]) > abs(a[pivot][k]):
                pivot = i
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            odd = not odd
        for i in range(k + 1, m):
            multiplier = a[i][k] / a[k][k] if a[k][k] != 0.0 else a[i][k]
            for j in range(k + 1, m):
                a[i][j] -= multiplier * a[k][j]
    det = a[0][0]
    for k in range(1, m):
        det *= a[k][k]
    return -det if odd else det


def reference_cdf_raw(model, xs):
    n, m = model.n_min, model.n_max
    half_exp = n * (n - 1) // 2
    sign = -1.0 if (n + half_exp) % 2 else 1.0
    gamma_nn = float(multivariate_gamma_norm(n, n))
    common = sign * gamma_nn * model.det_minor ** (n - 1) * model.det_major ** (m - 1)
    x_pow = reference_ipow(xs, half_exp)
    value = 0.0
    for s in model.eval_sets:
        det_psi = np.array([reference_det(psi) for psi in reference_psi_stack(s.minor, s.major, xs)])
        value = value + s.weight * common * det_psi / (s.vand_minor * s.vand_major * x_pow)
    return value


def bits(a):
    """The float64 bit patterns of ``a``: equal bits, signed zeros included."""
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


TIED_RX = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]])
COMPLEX_RX = np.array([[1.0, 0.4 + 0.3j, 0.1 - 0.25j],
                       [0.4 - 0.3j, 1.0, 0.5j],
                       [0.1 + 0.25j, -0.5j, 1.0]])
COMPLEX_TX = np.array([[1.0, 0.7 - 0.5j], [0.7 + 0.5j, 1.0]])
# (rx, tx): exponential matrices on both sides, the complex pair of the
# simulator tests, and the 3x3 user matrix of the eigdist tie test
EIG_PAIRS = [
    (correlation.exp_correlation(rho, n), correlation.exp_correlation(rho, n))
    for rho in (0.0, 0.5, 0.9, 0.99)
    for n in range(1, 5)
] + [(COMPLEX_RX, COMPLEX_TX), (TIED_RX, np.eye(2))]


class TestCorrelationEigenvalues:
    @pytest.mark.parametrize("rx, tx", EIG_PAIRS)
    def test_make_pair_matches_50_digits(self, rx, tx):
        # LAPACK is backward stable: each eigenvalue is within a few eps of
        # the matrix norm (the largest eigenvalue), not of itself; at
        # rho 0.99, 4x4 the smallest is off by 3.7e-14 of its own size
        pair = correlation.make_pair(rx, tx)
        minor, major = (rx, tx) if len(rx) <= len(tx) else (tx, rx)
        for got, mat in ((pair.minor_eigs, minor), (pair.major_eigs, major)):
            want = mp_eigenvalues(mat)
            assert np.max(np.abs(got - want)) <= 1e-14 * want[-1], (mat, got - want)

    @pytest.mark.parametrize("rx, tx", EIG_PAIRS)
    def test_ties_and_guard_order_kept(self, rx, tx):
        # the clusters of the 50-digit eigenvalues fix the degenerate flag
        # and the guard order (through its noise floor)
        model = eigdist.build_model(correlation.make_pair(rx, tx))
        minor, major = (rx, tx) if len(rx) <= len(tx) else (tx, rx)
        order = sum(
            len(c) * (len(c) - 1) // 2
            for mat in (minor, major)
            for c in eigdist._cluster(mp_eigenvalues(mat), eigdist.DEGENERACY_TOL)
        )
        assert model.degenerate == (order > 0)
        assert model.noise_floor == eigdist._noise_floor(order)


class TestOracle:
    """The table's oracle against closed forms: i.i.d. branches, so the
    1xL cases below are fully tied and take the spread at 250 digits."""

    @pytest.mark.parametrize("branches", [1, 3])
    def test_cdf_and_complement_are_erlang(self, branches):
        # F = 1 - exp(-x) sum_{k<L} x^k/k!, and 1 - F to relative accuracy
        # where it is far below 1e-16
        o = Oracle(np.eye(1), np.eye(branches))
        assert o.tied == (branches > 1)
        for x in (1e-3, 0.7, 5.0, 60.0):
            with mp.workdps(60):
                head = mp.exp(-x) * mp.fsum(mp.mpf(x) ** k / mp.factorial(k) for k in range(branches))
                want = (float(1 - head), float(head))
            got = o.cdf_pair(x)
            assert got[0] == pytest.approx(want[0], rel=1e-14, abs=0.0), (x, got, want)
            assert got[1] == pytest.approx(want[1], rel=1e-14, abs=0.0), (x, got, want)

    @pytest.mark.parametrize("branches, snr_db", [(1, 10.0), (3, 0.0), (3, 15.0)])
    def test_ser_is_the_bpsk_mrc_closed_form(self, branches, snr_db):
        # BPSK over L i.i.d. Rayleigh branches: ((1-mu)/2)^L sum_k
        # C(L-1+k, k) ((1+mu)/2)^k with mu = sqrt(g/(1+g))
        with mp.workdps(40):
            g = mp.mpf(10) ** (mp.mpf(snr_db) / 10)
            mu = mp.sqrt(g / (1 + g))
            want = float(((1 - mu) / 2) ** branches * mp.fsum(
                mp.binomial(branches - 1 + k, k) * ((1 + mu) / 2) ** k for k in range(branches)
            ))
        got = Oracle(np.eye(1), np.eye(branches)).ser(1.0, 1.0, snr_db)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)


class TestMpmathOracle:
    def test_tail_series_to_a_few_ulp(self):
        # both sides of the switch at t = m + 1, against the 50-digit series
        for m in range(1, 9):
            ts = np.concatenate([np.geomspace(1e-8, m + 1, 40), np.linspace(0.2, 3 * (m + 1), 40)])
            got = eigdist._exp_tail(ts.copy(), m)  # the kernel is written over its argument
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

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="accepted untied model whose determinant form is off by up to 9e-5 "
        "below saturation: ROADMAP item 2",
    )
    def test_strongly_correlated_2x5_matches_or_is_refused(self):
        # 2x5 at rho_rx 0.99, rho_tx 0.3 builds with a clean noise floor
        # (1e-13), but its c.d.f. dips below saturation and leaves [0, 1] by
        # 7e-5 at x = 31.1 (where a SER sweep then fails). Either the model
        # is refused when it is built, or it meets the untied tolerance.
        try:
            model = model_for(2, 5, 0.99, 0.3)
        except NumericalError:
            return
        for x in (8.48, 20.0):
            got = eigdist.exact_cdf_stable(model, x)
            want = mp_cdf_raw(model, x)
            assert abs(got / want - 1.0) <= 1e-8, (x, got, want)

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


class TestStackLayout:
    """The points-innermost stack, filled in place, against the
    (points, m, m) stack built from new arrays, and the raw form against
    the per-point elimination over that stack: the same bits."""

    # gap rows (2x3, 1x4), square (3x3, 4x4), and two evaluation sets
    # each on the tied 2x3 and 4x4 identities
    MODELS = [(2, 3, 0.5, 0.5), (4, 1, 0.0, 0.9), (3, 3, 0.9, 0.9), (4, 4, 0.5, 0.5),
              (2, 3, 0.0, 0.0), (4, 4, 0.0, 0.0)]

    @staticmethod
    def blocks(minor, major):
        # t = x / (minor * major) below m + 1 everywhere (series only),
        # above it everywhere (far only), and on both sides, shuffled
        m = len(major)
        low = (m + 1.0) * minor[0] * major[0]
        high = (m + 1.0) * minor[-1] * major[-1]
        return {
            "series": np.concatenate([[0.0], np.geomspace(1e-9 * low, 0.999 * low, 300)]),
            "far": np.geomspace(1.001 * high, 1e3 * high, 300),
            "mixed": np.random.default_rng(26).permutation(np.geomspace(1e-3 * low, 10 * high, 700)),
        }

    @pytest.mark.parametrize("args", MODELS, ids=lambda a: "{}x{}-rho{}-{}".format(*a))
    def test_stack_and_raw_form_keep_their_bits(self, args):
        model = model_for(*args)
        assert len(model.eval_sets) == (2 if model.degenerate else 1)
        for s in model.eval_sets:
            for kind, xs in self.blocks(s.minor, s.major).items():
                got = eigdist._psi_stack(s.minor, s.major, xs)
                assert got.shape == (model.n_max, model.n_max, len(xs)), kind
                want = reference_psi_stack(s.minor, s.major, xs)
                np.testing.assert_array_equal(bits(got.transpose(2, 0, 1)), bits(want), kind)
        xs = determinant_points(model, 200)
        np.testing.assert_array_equal(bits(eigdist._cdf_raw(model, xs)),
                                      bits(reference_cdf_raw(model, xs)))

    @pytest.mark.parametrize("m", range(1, 6))
    def test_elimination_keeps_its_bits_on_ties(self, m):
        # small integers: magnitudes tie in most columns, so only the
        # first-row pivot rule gives these bits, and singular matrices
        # (signed zeros included) are common
        a = np.random.default_rng(m).integers(-3, 4, (m, m, 2000)).astype(float)
        want = [reference_det(a[:, :, k]) for k in range(a.shape[2])]
        np.testing.assert_array_equal(bits(eigdist._det_stack(a.copy())), bits(want))


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

    @pytest.mark.parametrize("args", [(2, 3, 0.5, 0.5), (3, 3, 0.9, 0.9), (4, 4, 0.0, 0.0)],
                             ids=["2x3-rho0.5", "3x3-rho0.9", "4x4-identity"])
    def test_blocks_are_invisible(self, args):
        # determinant-regime points in a shuffled order, around and past
        # whole evaluator blocks, against one call per point; the identity
        # model takes two evaluation sets
        model = model_for(*args)
        block = eigdist._EVAL_BLOCK
        xs = np.geomspace(model.crossover, model.saturation, 3 * block + 8)[:-1]
        xs = np.random.default_rng(7).permutation(xs)
        points = np.array([eigdist.cdf(model, x) for x in xs])
        for count in (block - 1, block, block + 1, 3 * block + 7):
            assert np.array_equal(eigdist.cdf(model, xs[:count]), points[:count]), count

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
