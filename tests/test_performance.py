"""SER and outage analytics: closed-form oracles, power-law structure,
correlation penalties, Monte-Carlo agreement."""

import itertools
import math
import os
import re
import resource
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mimomrc import correlation, eigdist, montecarlo, performance
from mimomrc.errors import ValidationError


def model_for(rho_rx, n_rx, rho_tx, n_tx):
    return eigdist.build_model(
        correlation.make_pair(
            correlation.exp_correlation(rho_rx, n_rx),
            correlation.exp_correlation(rho_tx, n_tx),
        )
    )


def siso_bpsk_ser(gbar):
    # classical flat-Rayleigh BPSK closed form
    return 0.5 * (1.0 - math.sqrt(gbar / (1.0 + gbar)))


class TestModulation:
    def test_presets(self):
        assert performance.modulation_preset("bpsk") == performance.Modulation("bpsk", 1.0, 1.0)
        assert performance.modulation_preset("qpsk").b == 0.5
        eight = performance.modulation_preset("8psk")
        assert (eight.a, eight.b) == (2.0, 0.146)

    def test_unknown_preset(self):
        with pytest.raises(ValidationError):
            performance.modulation_preset("64qam")

    def test_preset_name_must_be_a_string(self):
        with pytest.raises(ValidationError, match="choose from"):
            performance.modulation_preset(None)

    def test_rejects_bad_constants(self):
        with pytest.raises(ValidationError):
            performance.Modulation("x", a=0.0, b=1.0)
        with pytest.raises(ValidationError):
            performance.Modulation("x", a=1.0, b=-1.0)

    @pytest.mark.parametrize("value", ["2", None, 1j, np.array([1.0, 2.0]), True, math.nan])
    @pytest.mark.parametrize("label", ["a", "b"])
    def test_constants_must_be_real_numbers(self, label, value):
        with pytest.raises(ValidationError, match=f"constant {label}"):
            performance.Modulation("x", **{"a": 2.0, "b": 1.0, label: value})

    def test_constants_of_any_real_type(self):
        mod = performance.Modulation("x", a=np.float32(2.0), b=np.int64(1))
        assert (mod.a, mod.b) == (2.0, 1)


class TestExactSer:
    def test_gauss_legendre_table_is_leggauss(self):
        # the written-out rule, bit for bit, so that the package need not
        # import numpy.polynomial
        nodes, weights = np.polynomial.legendre.leggauss(31)
        for got, want in ((performance._GL_NODES, nodes), (performance._GL_WEIGHTS, weights)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_siso_closed_form(self):
        # a/2 (1 - sqrt(b snr / (1 + b snr))), also where b snr leaves the
        # double range, with no RuntimeWarning (the suite makes them errors):
        # 1e-330 underflows to 0, where the c.d.f. is 1 and the SER a/2, and
        # 1e600 overflows to inf, where the c.d.f. is 0 and the SER 0 (the
        # closed form cancels to NaN there)
        model = model_for(0, 1, 0, 1)
        for mod, snr_db, want in (
                (performance.modulation_preset("bpsk"), 10.0, siso_bpsk_ser(10.0)),
                (performance.Modulation("tiny-b", 2.0, 1e-40), 0.0, 2.0 * siso_bpsk_ser(1e-40)),
                (performance.Modulation("b-snr-underflows", 2.0, 1e-30), -3000.0, 1.0),
                (performance.Modulation("b-snr-overflows", 2.0, 1e300), 3000.0, 0.0)):
            got = performance.exact_ser(model, mod, snr_db)
            assert got == pytest.approx(want, rel=1e-10, abs=0.0), mod

    @pytest.mark.parametrize("b", [1e-300, 1e-40, 0.146, 1.0, 1e300])
    def test_truncation_rule_fires_by_block_28(self, b):
        # exp(-k^2) underflows to 0 at k = 28, so the rule counts at most 28
        # of the 32 sized blocks whatever b and the SNR, and the blocks it
        # counts are all exact_ser integrates
        mod = performance.Modulation("x", 2.0, b)
        snrs = np.array([-3000.0, -50.0, 0.0, 50.0, 300.0, 3000.0])
        with np.errstate(over="ignore"):
            bg = b * 10.0 ** (snrs / 10.0)
        for model in (model_for(0, 1, 0, 1), model_for(0.5, 2, 0.5, 3)):

            def integrand(u, g):
                return np.exp(-u * u) * eigdist.cdf(model, performance._cdf_argument(u * u, g))

            _, counts = performance._size_blocks(integrand, bg)
            assert ((1 <= counts) & (counts <= 28)).all(), counts
            ser = performance.exact_ser(model, mod, snrs)
            assert ((0.0 <= ser) & (ser <= 1.0)).all(), ser

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="the c.d.f. rises near u ~ sqrt(b snr), below block 0's first node "
        "(u ~ 1.5e-3), so every node of a panel and of both its halves sees F = 1 and "
        "bisection accepts: ROADMAP item 4",
    )
    def test_small_b_resolves_the_cdf_rise(self):
        # SISO, b = 1e-8 at 0 dB: exact_ser is 1.0e-4 relative above the
        # closed form; an integral of the same c.d.f. on panels that
        # resolve u ~ 1e-4 meets it to 1.5e-11
        model = model_for(0, 1, 0, 1)
        mod = performance.Modulation("small-b", 2.0, 1e-8)
        got = performance.exact_ser(model, mod, 0.0)
        assert got == pytest.approx(mod.a * siso_bpsk_ser(mod.b), rel=1e-8)

    def test_large_b_keeps_a_normal_ser(self):
        # SISO, b = 1e300: the SER is about 2.5e-296 at -50 dB and 2.5e-301
        # at 0 dB, and the integral in u is at the SER's own scale
        model = model_for(0, 1, 0, 1)
        mod = performance.Modulation("large-b", 1.0, 1e300)
        snrs = np.array([-50.0, 0.0])
        got = performance.exact_ser(model, mod, snrs)
        x = mod.b * 10.0 ** (snrs / 10.0)
        # a/2 (1 - sqrt(x/(1+x))) without the cancellation
        want = mod.a / 2.0 / ((1.0 + x) * (1.0 + np.sqrt(x / (1.0 + x))))
        np.testing.assert_allclose(got, want, rtol=1e-8, atol=0.0)

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="the c.d.f. reports exactly 1 once 1 - F falls to 1e-6 (the upper-tail "
        "snap, then saturation), which at b*snr = 0.1 lifts the SER by 1.5e-8 relative; "
        "neither the crossover floor nor the quadrature moves it: ROADMAP item 3",
    )
    def test_siso_bpsk_at_minus_10_db(self):
        # 1.5e-8 relative above the closed form; the same integral with
        # F = 1 - exp(-x) set to 1 from 1 - F = 1e-6 (x = 13.8155) gives the
        # same 1.52e-8, with F exact it meets the closed form to 1e-15, and
        # the crossover (1.5e-18) is too low to matter
        model = model_for(0, 1, 0, 1)
        got = performance.exact_ser(model, performance.modulation_preset("bpsk"), -10.0)
        assert got == pytest.approx(siso_bpsk_ser(0.1), rel=1e-8)

    def test_bounded_and_positive_at_high_snr(self):
        model = model_for(0.5, 2, 0.5, 2)
        ser = performance.exact_ser(model, performance.modulation_preset("8psk"), 60.0)
        assert 0.0 < ser < 1e-9

    def test_strictly_decreasing_in_snr(self):
        model = model_for(0.3, 2, 0.0, 2)
        mod = performance.modulation_preset("qpsk")
        values = [performance.exact_ser(model, mod, db) for db in np.linspace(-5, 35, 9)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_monotone_in_correlation(self):
        # high-SNR degradation grows with either correlation coefficient
        mod = performance.modulation_preset("8psk")
        grid = [0.0, 0.3, 0.5, 0.7, 0.9]
        table = {
            (r1, r2): performance.exact_ser(model_for(r1, 2, r2, 2), mod, 25.0)
            for r1 in grid
            for r2 in grid
        }
        for r1 in grid:
            row = [table[(r1, r2)] for r2 in grid]
            assert all(b >= a for a, b in zip(row, row[1:])), row
        for r2 in grid:
            col = [table[(r1, r2)] for r1 in grid]
            assert all(b >= a for a, b in zip(col, col[1:])), col

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="blocks are not split where the c.d.f. has kinks, and the error "
        "estimate misses there: ROADMAP item 4",
    )
    def test_meets_tolerance_where_the_cdf_has_kinks(self):
        # 2x3 rho .5/.5 8PSK at 5 dB: the integrand has kinks at the
        # crossover, where the determinant form rises above the crossover
        # floor (x = 0.4438), and at saturation. The reference is a composite
        # 31-point Gauss-Legendre rule on 20,000 equal panels over v in
        # [0, 16], which a quadrature split at the three kinks matches to
        # 1e-15 (0.0629887790453784); exact_ser gives 0.06298876111598156,
        # 2.85e-7 low.
        model = model_for(0.5, 2, 0.5, 3)
        mod = performance.modulation_preset("8psk")
        gbar = 10.0 ** (5.0 / 10.0)
        nodes, weights = np.polynomial.legendre.leggauss(31)
        edges = np.linspace(0.0, 16.0, 20_001)
        half = 0.5 * np.diff(edges)
        v = 0.5 * (edges[1:] + edges[:-1])[:, None] + half[:, None] * nodes
        f = np.exp(-mod.b * v * v) * eigdist.cdf(model, (v * v / gbar).ravel()).reshape(v.shape)
        want = mod.a * math.sqrt(mod.b / math.pi) * float(half @ (f @ weights))
        got = performance.exact_ser(model, mod, 5.0)
        assert abs(got / want - 1.0) <= 1e-8, (got, want)

    def test_matches_semianalytic_monte_carlo(self):
        model = model_for(0.5, 2, 0.5, 2)
        mod = performance.modulation_preset("8psk")
        cfg = montecarlo.McConfig(n_rx=2, n_tx=2, rho_rx=0.5, rho_tx=0.5,
                                  trials=400_000, seed=31)
        for snr_db in [5.0, 12.0, 20.0]:
            mc = montecarlo.mc_ser(cfg, mod, snr_db)
            exact = performance.exact_ser(model, mod, snr_db)
            assert abs(exact - mc.estimate) <= 3.0 * mc.std_error


class TestSerSweep:
    """exact_ser over an array of SNRs: one quadrature, scalar-call values."""

    CASES = [
        # 2x3 untied; 4x4 identity, fully tied (two evaluation sets); SISO
        ((0.5, 2, 0.5, 3), "8psk", np.linspace(0.0, 40.0, 41)),
        ((0.0, 4, 0.0, 4), "qpsk", np.linspace(0.0, 30.0, 16)),
        ((0.0, 1, 0.0, 1), "bpsk", np.linspace(-5.0, 30.0, 8)),
    ]

    @pytest.mark.parametrize("args, mod, snrs", CASES)
    def test_sweep_equals_its_points_bit_for_bit(self, args, mod, snrs):
        model = model_for(*args)
        mod = performance.modulation_preset(mod)
        sweep = performance.exact_ser(model, mod, snrs)
        assert sweep.shape == snrs.shape
        for i, snr_db in enumerate(snrs.tolist()):
            assert sweep[i] == performance.exact_ser(model, mod, snr_db), snr_db

    def test_tied_case_has_two_evaluation_sets(self):
        assert len(model_for(*self.CASES[1][0]).eval_sets) == 2

    def test_evaluator_points_per_sweep(self, monkeypatch):
        # Each SNR sizes its tolerance from the blocks its stop rule needs,
        # and the bisection's acceptance decisions fix every later call: the
        # exact calls and points pin both. The 4x4 sweep has SNRs sized in
        # one round and in two, which the bit-for-bit test above covers.
        calls = []

        def counting_cdf(model, x):
            calls.append(np.size(x))
            return eigdist.cdf(model, x)

        monkeypatch.setattr(performance, "cdf", counting_cdf)
        cases = [*self.CASES[:2], ((0.5, 2, 0.5, 2), "8psk", [0.0, 10.0, 20.0, 30.0])]
        for (args, mod, snrs), want in zip(cases, ((21, 85_250), (3, 15_190), (17, 8_804))):
            calls.clear()
            performance.exact_ser(model_for(*args), performance.modulation_preset(mod), snrs)
            assert (len(calls), sum(calls)) == want, args

    def test_shapes(self):
        model = model_for(0.5, 2, 0.5, 2)
        mod = performance.modulation_preset("qpsk")
        for scalar in (10.0, np.float64(10.0), np.array(10.0)):
            assert type(performance.exact_ser(model, mod, scalar)) is float
        grid = np.array([[0.0, 5.0, 10.0], [15.0, 20.0, 25.0]])
        values = performance.exact_ser(model, mod, grid)
        assert values.shape == (2, 3)
        assert np.array_equal(values.ravel(), performance.exact_ser(model, mod, grid.ravel()))
        assert np.array_equal(values[0], performance.exact_ser(model, mod, [0.0, 5.0, 10.0]))
        empty = performance.exact_ser(model, mod, np.array([]))
        assert isinstance(empty, np.ndarray) and empty.shape == (0,)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_refused_before_any_evaluation(self, monkeypatch, bad):
        model = model_for(0.5, 2, 0.5, 2)
        mod = performance.modulation_preset("8psk")
        calls = []

        def counting_cdf(*args):
            calls.append(1)
            return eigdist.cdf(*args)

        monkeypatch.setattr(performance, "cdf", counting_cdf)
        for snr_db in (bad, [0.0, 10.0, bad, 20.0], np.array([[5.0], [bad]])):
            with pytest.raises(ValidationError):
                performance.exact_ser(model, mod, snr_db)
        assert calls == []
        performance.exact_ser(model, mod, [0.0, 10.0])
        assert calls  # the counter sees the evaluator calls

    def test_memory_does_not_follow_the_evaluator_work(self):
        # Beyond its sizing rounds' node arrays (at most 32 panels x 31 nodes
        # per SNR), which a sweep holds a few of, the evaluator works in blocks of
        # eigdist._EVAL_BLOCK points, whatever the sweep's size. So the extra
        # peak of 401 SNRs over 41 stays below six node arrays per extra SNR;
        # evaluating all points at once instead costs about 25.
        model = model_for(0.5, 2, 0.5, 3)
        mod = performance.modulation_preset("8psk")
        performance.exact_ser(model, mod, 10.0)
        peaks = {}
        for count in (41, 401):
            tracemalloc.start()
            try:
                performance.exact_ser(model, mod, np.linspace(0.0, 40.0, count))
                peaks[count] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        node_array = 32 * 31 * 8
        assert peaks[401] - peaks[41] <= 6 * node_array * (401 - 41), peaks


class TestHighSnr:
    def test_siso_bpsk_gains(self):
        hs = performance.high_snr_ser(model_for(0, 1, 0, 1), performance.modulation_preset("bpsk"))
        assert hs.diversity_order == 1
        assert hs.array_gain == pytest.approx(4.0, rel=1e-12)

    def test_diversity_order_ignores_correlation(self):
        mod = performance.modulation_preset("8psk")
        for rho_rx in [0.0, 0.5, 0.9]:
            for rho_tx in [0.0, 0.5, 0.9]:
                hs = performance.high_snr_ser(model_for(rho_rx, 2, rho_tx, 2), mod)
                assert hs.diversity_order == 4

    def test_diversity_order_is_antenna_product(self):
        mod = performance.modulation_preset("bpsk")
        for n_rx, n_tx in [(1, 3), (2, 3), (3, 4)]:
            hs = performance.high_snr_ser(model_for(0.4, n_rx, 0.2, n_tx), mod)
            assert hs.diversity_order == n_rx * n_tx

    @pytest.mark.parametrize("n_rx", range(1, 5))
    @pytest.mark.parametrize("n_tx", range(1, 5))
    def test_array_gain_from_gammas_and_penalty(self, n_rx, n_tx):
        # the gain written out from the multivariate gammas, the determinant
        # penalty (exponential-model determinants (1 - rho^2)^(size - 1))
        # and (2mn - 1)!!, against the one read off alpha
        n, m = sorted((n_rx, n_tx))
        mn = n * m

        def log_gamma_norm(k):
            return sum(math.lgamma(k - i + 1) for i in range(1, n + 1))

        for rho_rx, rho_tx in itertools.product([0.0, 0.5, 0.9], repeat=2):
            model = model_for(rho_rx, n_rx, rho_tx, n_tx)
            penalty = ((1.0 - rho_rx**2) ** ((n_rx - 1) / n_rx)
                       * (1.0 - rho_tx**2) ** ((n_tx - 1) / n_tx))
            for mod in performance.MODULATIONS.values():
                log_inner = (math.log(mod.a) + log_gamma_norm(n) - math.log(2.0)
                             - log_gamma_norm(m + n) + math.log(math.prod(range(1, 2 * mn, 2))))
                want = penalty * 2.0 * mod.b * math.exp(-log_inner / mn)
                got = performance.high_snr_ser(model, mod).array_gain
                assert got == pytest.approx(want, rel=4e-15, abs=0.0), (rho_rx, rho_tx, mod.name)

    def test_array_gain_ratio_is_penalty(self):
        mod = performance.modulation_preset("8psk")
        base = performance.high_snr_ser(model_for(0, 2, 0, 3), mod)
        corr_model = model_for(0.9, 2, 0.5, 3)
        corr = performance.high_snr_ser(corr_model, mod)
        penalty = correlation.correlation_penalty(corr_model.pair)
        assert corr.array_gain / base.array_gain == pytest.approx(penalty, rel=1e-12)


class TestAsymptoteEval:
    def test_siso_30db(self):
        hs = performance.high_snr_ser(model_for(0, 1, 0, 1), performance.modulation_preset("bpsk"))
        assert performance.ser_asymptote_eval(hs, 30.0) == pytest.approx(2.5e-4, rel=1e-12)

    def test_power_law_halving(self):
        hs = performance.high_snr_ser(model_for(0.5, 2, 0, 2), performance.modulation_preset("qpsk"))
        shift = 10.0 * math.log10(2.0)
        for snr_db in [10.0, 20.0]:
            ratio = performance.ser_asymptote_eval(hs, snr_db) / performance.ser_asymptote_eval(
                hs, snr_db + shift
            )
            assert ratio == pytest.approx(2.0 ** hs.diversity_order, rel=1e-10)

    def test_correlated_curve_shifts_right_by_penalty(self):
        mod = performance.modulation_preset("8psk")
        base_model = model_for(0, 2, 0, 2)
        corr_model = model_for(0.9, 2, 0.5, 2)
        base = performance.high_snr_ser(base_model, mod)
        corr = performance.high_snr_ser(corr_model, mod)
        penalty = correlation.correlation_penalty(corr_model.pair)
        shift_db = 10.0 * math.log10(1.0 / penalty)
        for snr_db in [15.0, 25.0]:
            assert performance.ser_asymptote_eval(corr, snr_db + shift_db) == pytest.approx(
                performance.ser_asymptote_eval(base, snr_db), rel=1e-10
            )

    def test_asymptote_converges_to_exact(self):
        # relative gap below 10% at the SNR where the exact SER is 1e-8
        mod = performance.modulation_preset("8psk")
        for args in [(0, 2, 0, 2), (0.5, 2, 0.5, 3)]:
            model = model_for(*args)
            hs = performance.high_snr_ser(model, mod)
            lo, hi = 0.0, 70.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if performance.exact_ser(model, mod, mid) > 1e-8:
                    lo = mid
                else:
                    hi = mid
            snr_db = 0.5 * (lo + hi)
            exact = performance.exact_ser(model, mod, snr_db)
            asym = performance.ser_asymptote_eval(hs, snr_db)
            assert abs(exact / asym - 1.0) < 0.10


class TestQuadratureFailure:
    def test_error_carries_estimate_and_bound(self, monkeypatch):
        # 2x3 rho .5/.5 8PSK: 5 dB converges within 3 bisections, 20 dB does
        # not; the refusal reports 20 dB's SER, and the first interval still
        # open, which has the last level's width and lies inside one block
        model = model_for(0.5, 2, 0.5, 3)
        mod = performance.modulation_preset("8psk")
        want = performance.exact_ser(model, mod, 20.0)
        monkeypatch.setattr(performance, "_MAX_BISECTIONS", 3)
        assert performance.exact_ser(model, mod, 5.0) > 0.0
        with pytest.raises(performance.QuadratureError) as excinfo:
            performance.exact_ser(model, mod, [5.0, 20.0])
        err = excinfo.value
        lo, hi = map(float, re.search(r"on \[(.+), (.+)\]$", str(err)).groups())
        assert hi - lo == 2.0**-3
        assert math.floor(lo) <= lo < hi <= math.floor(lo) + 1.0
        assert err.estimate == pytest.approx(want, rel=1e-4)
        assert 0.0 < err.error_bound < 1e-3 * want


# A quadrature that does not converge must fail with a typed error, not take
# the host's memory: each run gets a 1 GB address-space cap and a timeout.
_AS_LIMIT = 1 << 30


def run_capped(args):
    env = {
        **os.environ,
        "PYTHONPATH": str(Path(performance.__file__).parents[1]),
        # one BLAS thread, whose buffers fit under the cap on any core count
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
    }

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (_AS_LIMIT, _AS_LIMIT))

    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=cap,
    )


def capped_ser(rho_tx, snr_db):
    # 8PSK on 2x4, identity receive correlation, exponential transmit
    code = textwrap.dedent(f"""
        from mimomrc import correlation, eigdist, performance
        from mimomrc.errors import QuadratureError
        model = eigdist.build_model(correlation.make_pair(
            correlation.exp_correlation(0.0, 2), correlation.exp_correlation({rho_tx!r}, 4)))
        try:
            print(repr(performance.exact_ser(
                model, performance.modulation_preset("8psk"), {snr_db!r})))
        except QuadratureError as exc:
            print("QuadratureError", repr(exc.estimate), repr(exc.error_bound))
    """)
    result = run_capped(["-c", code])
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


class TestRunawayBisection:
    """An integrand whose noise sits above its floor keeps every split open;
    the per-block bound on open intervals refuses it within seconds."""

    def test_noisy_integrand_refused(self):
        # rho_tx 0.9: before the bound, MemoryError after 100 s under a
        # 2.5 GB cap. The estimate is the refused SNR's SER (the accepted
        # and open halves of all its blocks, scaled by a / sqrt(pi)).
        kind, estimate, bound = capped_ser(0.9, -5.0)
        assert kind == "QuadratureError"
        assert 0.0 < float(bound) < math.inf
        cfg = montecarlo.McConfig(n_rx=2, n_tx=4, rho_rx=0.0, rho_tx=0.9,
                                  trials=400_000, seed=31)
        mc = montecarlo.mc_ser(cfg, performance.modulation_preset("8psk"), -5.0)
        assert abs(float(estimate) - mc.estimate) <= 4.0 * mc.std_error + float(bound)

    def test_cli_exits_with_numerical_error(self):
        result = run_capped(
            ["-m", "mimomrc.cli", "ser", "--nr", "2", "--nt", "4", "--rho-tx", "0.9",
             "--mod", "8psk", "--sweep", "-5:5:3"]
        )
        assert result.returncode == 1
        assert result.stderr.startswith("numerical error:")
        assert result.stdout == ""

    def test_largest_converging_fanout_kept(self):
        # rho_tx 0.5 needs 1,508 intervals of one block at one level, the
        # most on the 1-4 x 1-4 grid, and converges to the value it had
        # before the bound (the model is tied: noise floor 1e-9)
        (value,) = capped_ser(0.5, -5.0)
        assert float(value) == pytest.approx(0.4560133684878448, rel=1e-9)


class TestOutage:
    def test_tiny_threshold(self):
        model = model_for(0.5, 2, 0.5, 2)
        assert performance.exact_outage(model, 10.0, 1e-9) < 1e-20

    def test_siso_exponential(self):
        model = model_for(0, 1, 0, 1)
        assert performance.exact_outage(model, 0.0, 1.0) == pytest.approx(
            1.0 - math.exp(-1.0), rel=1e-12
        )

    def test_matches_stable_cdf(self):
        model = model_for(0.5, 3, 0.5, 3)
        for snr_db, gamma_th in [(0.0, 0.5), (10.0, 2.0), (-3.0, 0.2)]:
            want = eigdist.exact_cdf_stable(model, gamma_th / 10 ** (snr_db / 10))
            assert performance.exact_outage(model, snr_db, gamma_th) == want

    def test_asymptotic_outage_is_leading_cdf(self):
        model = model_for(0.9, 3, 0.5, 3)
        for snr_db, gamma_th in [(0.0, 0.5), (7.0, 1.0), (20.0, 4.0)]:
            want = eigdist.asymptotic_cdf(model, gamma_th / 10 ** (snr_db / 10))
            assert performance.asymptotic_outage(model, snr_db, gamma_th) == want

    def test_correlation_outage_ratio(self):
        base = model_for(0, 3, 0, 3)
        corr = model_for(0.9, 3, 0.5, 3)
        want = corr.det_minor ** (-3) * corr.det_major ** (-3)
        got = performance.asymptotic_outage(corr, 0.0, 0.3) / performance.asymptotic_outage(
            base, 0.0, 0.3
        )
        assert got == pytest.approx(want, rel=1e-10)

    def test_monte_carlo_agreement(self):
        model = model_for(0.5, 3, 0.5, 3)
        cfg = montecarlo.McConfig(n_rx=3, n_tx=3, rho_rx=0.5, rho_tx=0.5,
                                  trials=300_000, seed=17)
        for gamma_th in [1.0, 3.0, 8.0]:
            mc = montecarlo.mc_outage(cfg, 0.0, gamma_th)
            exact = performance.exact_outage(model, 0.0, gamma_th)
            assert abs(exact - mc.estimate) <= 3.0 * mc.std_error + 1e-12

    def test_rejects_bad_threshold(self):
        model = model_for(0, 1, 0, 1)
        for bad in [0.0, -1.0, math.inf]:
            with pytest.raises(ValidationError):
                performance.exact_outage(model, 0.0, bad)
            with pytest.raises(ValidationError):
                performance.asymptotic_outage(model, 0.0, bad)
