"""One convention for every point-wise public function.

A number gives a float, and an array gives an array of its shape whose
elements are bit for bit the number calls; the Monte-Carlo estimators
give one ``McResult`` for a number and a list for a 1-D array. A bad
value anywhere is refused with ``ValidationError`` before any
evaluation or draw.
"""

import math
import re

import numpy as np
import pytest

import mimomrc as mm
from mimomrc import eigdist, montecarlo

MODEL = mm.build_model(mm.make_pair(mm.exp_correlation(0.5, 2), mm.exp_correlation(0.5, 3)))
MOD = mm.modulation_preset("8psk")
HS = mm.high_snr_ser(MODEL, MOD)

# Every regime of the c.d.f. (leading, determinant, saturated) and an
# asymptote past the double range.
X_GOOD = [0.0, 1e-3, 0.3, 1.0, 4.0, 60.0, 1e200]
X_BAD = [math.nan, math.inf, -math.inf, -1e-300]
# Down to where the SER integrand's argument leaves the double range, up
# to where the SER underflows; the ends of the range of linear SNRs that
# are positive normal doubles (about -3076.5 to 3082.5 dB).
SNR_GOOD = [-3076.5, -1000.0, -5.0, 0.0, 12.5, 30.0, 3082.5]
SNR_BAD = [math.nan, math.inf, -math.inf, 4000.0, -4000.0, 3082.6, -3076.6]
GAMMA_GOOD = [1e-3, 0.5, 1.0, 10.0, 1e300]
GAMMA_BAD = [math.nan, math.inf, -math.inf, 0.0, -1.0]
# The empirical c.d.f. is 0 below every sample, down to the most negative double.
GRID_GOOD = [-1.7976931348623157e308, -1.0, *X_GOOD]
GRID_BAD = [math.nan, math.inf, -math.inf]


def config():
    """A fresh config per call: a config keeps its draw."""
    return mm.McConfig(n_rx=2, n_tx=3, rho_rx=0.5, rho_tx=0.5, trials=3000, seed=17)


# name: (call of (point, config), good points, bad points); the
# Monte-Carlo estimators take a 1-D array and give a list of results.
CASES = {
    "cdf": (lambda p, c: mm.cdf(MODEL, p), X_GOOD, X_BAD),
    "asymptotic_cdf": (lambda p, c: mm.asymptotic_cdf(MODEL, p), X_GOOD, X_BAD),
    "asymptotic_pdf": (lambda p, c: mm.asymptotic_pdf(MODEL, p), X_GOOD, X_BAD),
    "exact_ser": (lambda p, c: mm.exact_ser(MODEL, MOD, p), SNR_GOOD, SNR_BAD),
    "ser_asymptote_eval": (lambda p, c: mm.ser_asymptote_eval(HS, p), SNR_GOOD, SNR_BAD),
    "exact_outage-gamma_th": (lambda p, c: mm.exact_outage(MODEL, 3.0, p),
                              GAMMA_GOOD, GAMMA_BAD),
    "exact_outage-snr_db": (lambda p, c: mm.exact_outage(MODEL, p, 2.0), SNR_GOOD, SNR_BAD),
    "asymptotic_outage-gamma_th": (lambda p, c: mm.asymptotic_outage(MODEL, 3.0, p),
                                   GAMMA_GOOD, GAMMA_BAD),
    "asymptotic_outage-snr_db": (lambda p, c: mm.asymptotic_outage(MODEL, p, 2.0),
                                 SNR_GOOD, SNR_BAD),
    "mc_ser": (lambda p, c: mm.mc_ser(c, MOD, p), SNR_GOOD, SNR_BAD),
    "mc_outage": (lambda p, c: mm.mc_outage(c, 3.0, p), GAMMA_GOOD, GAMMA_BAD),
    "empirical_cdf": (lambda p, c: mm.empirical_cdf(c, p), GRID_GOOD, GRID_BAD),
    # the outage estimator's SNR is a number
    "mc_outage-snr_db": (lambda p, c: mm.mc_outage(c, p, 2.0), None, SNR_BAD),
}
# Neither an integer nor a float, whatever its value: alone, in a list, as
# an array's dtype, or a ragged nest.
NOT_REAL = [True, np.bool_(False), "1", "x", 1j, None, object()]
NOT_REAL_ARRAYS = [np.array([True, False]), np.array(["1"]), np.array([1j])]


@pytest.fixture
def evaluations(monkeypatch):
    """Every evaluation and draw that starts: the c.d.f. and its leading
    term (``_ipow``), the SER integrand and asymptote (``exp``, ``log``),
    Q, the outage counts and the simulator's streams."""
    calls = []

    def spy(owner, name):
        real = getattr(owner, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)

    for owner, name in [(eigdist, "_ipow"), (np, "exp"), (np, "log"), (np, "count_nonzero"),
                        (montecarlo, "gauss_q_upper_into"), (montecarlo, "_batch_rng")]:
        spy(owner, name)
    return calls


@pytest.mark.parametrize("name", CASES)
def test_one_convention(name, evaluations):
    call, good, bad = CASES[name]
    monte_carlo = name.startswith("mc_")
    if good is not None:
        numbers = [call(p, config()) for p in good]
        for p, want in zip(good, numbers):
            if monte_carlo:
                assert isinstance(want, mm.McResult)
            else:
                for number in (p, np.float64(p), np.array(p)):
                    got = call(number, config())
                    assert type(got) is float and got == want, (p, got, want)
        for points in (good, np.array(good), np.array(good[::-1])):
            got = call(points, config())
            want = [numbers[good.index(p)] for p in points]
            if monte_carlo:
                assert got == want
            else:
                assert isinstance(got, np.ndarray) and got.shape == (len(good),)
                assert got.tolist() == want
        if not monte_carlo:
            grid = np.array(good[:4]).reshape(2, 2)
            want = np.reshape(numbers[:4], (2, 2)).tolist()
            assert call(grid, config()).tolist() == want
    fine = good[0] if good is not None else 0.0
    evaluations.clear()
    for b in bad:
        for points in (b, [fine, b], [b, fine, fine]):
            with pytest.raises(mm.ValidationError, match=re.escape(f"got {b!r}")):
                call(points, config())
    assert evaluations == []


@pytest.mark.parametrize("name", CASES)
def test_only_integers_and_floats(name, evaluations):
    call, good, _ = CASES[name]
    fine = good[0] if good is not None else 0.0
    evaluations.clear()
    wrong = [*NOT_REAL_ARRAYS, [[fine, fine], [fine]]]
    for b in NOT_REAL:
        wrong += [b, [fine, b], [b, fine, fine]]
    for points in wrong:
        with pytest.raises(mm.ValidationError, match="must be an integer or a float"):
            call(points, config())
    assert evaluations == []
