"""Independent high-precision references for the largest-eigenvalue c.d.f.
F, its complement 1 - F, and the average SER, in mpmath.

Nothing here calls the package under test except to read a model's own
evaluation sets (:func:`mp_cdf_raw`, which checks the evaluator's
arithmetic). :class:`Oracle` starts from the correlation matrices alone:
eigenvalues by mpmath's Hermitian QR iteration, the determinant form in
as many digits as its cancellation needs, and the SER by the trapezoidal
rule.

* **Precision.** The determinant form cancels about mn*log10(1/x) digits
  at small x, and at large t = x/(l_min m_min) its polynomial entries
  (up to t^(m-1)) cancel down to an O(1) result, about m^2*log10(t)
  digits. Each point takes ``base`` digits plus both, and a value counts
  only when a second evaluation ``CHECK_DIGITS`` digits finer agrees with
  it.
* **Ties.** Numerically tied correlation eigenvalues make the form 0/0.
  Each tied cluster is spread about its centre, neighbours ``TIE_SPREAD``
  apart relative (centred, so the first-order effect cancels), and the
  form is evaluated at ``TIED_DIGITS`` digits. On 4x4 identity, spreads
  of 1e-12 and 1e-15 give the same doubles at x = 0.5, 5, 10 and 20.
* **SER.** With u = v^2 the SER is a sqrt(b/pi) * int_0^inf f(v) dv with
  f(v) = exp(-b v^2) F(v^2 / snr), which is even and entire in v. The
  trapezoidal rule on [0, v_max] therefore converges geometrically in
  the step (Trefethen & Weideman, SIAM Review 2014). ``v_max`` is sized
  so that the Gaussian tail beyond it is below 1e-20 of the SER; steps
  are halved until the h and h/2 sums agree, and the h/2 sum is then
  recomputed ``CHECK_DIGITS`` digits finer.
"""

from __future__ import annotations

import math

import numpy as np
from mpmath import mp

# Digits for untied and tied models before the cancellation allowances.
BASE_DIGITS = 40
TIED_DIGITS = 250
# The second, finer evaluation that a value must agree with.
CHECK_DIGITS = 20
# Relative gap below which two eigenvalues count as one tied value, and the
# relative gap between neighbours of a spread cluster.
TIE_GAP = 1e-9
TIE_SPREAD = 1e-12
# Relative agreement required between the two precisions, and between the
# trapezoidal sums at h and h/2.
AGREE = 1e-15
SER_AGREE = 1e-14
# Trapezoidal steps on [0, v_max] of the first sum, and the most allowed.
SER_START_STEPS = 24
SER_MAX_STEPS = 6144


class OracleError(ArithmeticError):
    """A reference value failed its own agreement check."""


# --- the determinant form ---------------------------------------------------


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


def _vandermonde(v):
    return mp.fprod(v[j] - v[i] for i in range(len(v)) for j in range(i + 1, len(v)))


def _form(minor, major, x, det_minor, det_major):
    """The determinant form of F at x > 0, in the working precision, from
    ascending mpf eigenvalue lists (n minor, m major, n <= m)."""
    n, m = len(minor), len(major)
    gap = m - n
    half_exp = n * (n - 1) // 2
    sign = -1 if (n + half_exp) % 2 else 1
    gamma_nn = math.prod(math.factorial(n - i) for i in range(1, n + 1))
    psi = mp.matrix(m, m)
    for j, sj in enumerate(major):
        for i in range(gap):
            psi[i, j] = sj ** -(m - 1 - i)
        for i in range(gap, m):
            psi[i, j] = mp_exp_tail(x / (minor[i - gap] * sj), m)
    common = sign * gamma_nn * det_minor ** (n - 1) * det_major ** (m - 1)
    return common * mp.det(psi) / (_vandermonde(minor) * _vandermonde(major) * x**half_exp)


def mp_cdf_raw(model, x, dps=50):
    """The determinant form at x in ``dps``-digit arithmetic, from the
    double-precision evaluation sets of the model (Richardson-combined
    under ties, as the model combines them)."""
    with mp.workdps(dps):
        x = mp.mpf(float(x))
        det_minor = mp.fprod(mp.mpf(float(v)) for v in model.pair.minor_eigs)
        det_major = mp.fprod(mp.mpf(float(v)) for v in model.pair.major_eigs)
        value = mp.mpf(0)
        for s in model.eval_sets:
            minor = [mp.mpf(v) for v in s.minor]
            major = [mp.mpf(v) for v in s.major]
            value += mp.mpf(s.weight) * _form(minor, major, x, det_minor, det_major)
        return float(value)


# --- correlation eigenvalues ------------------------------------------------


def mp_eigenvalues(mat, dps=50):
    """Ascending eigenvalues of a Hermitian matrix in ``dps``-digit
    arithmetic (mpmath's own Hermitian QR iteration)."""
    return np.array([float(v) for v in _mp_eigenvalues(mat, dps)])


def _mp_eigenvalues(mat, dps):
    with mp.workdps(dps):
        a = mp.matrix([[mp.mpc(complex(z).real, complex(z).imag) for z in row] for row in mat])
        values, _ = mp.eighe(a)
        return sorted(mp.re(v) for v in values)


def _spread(values):
    """Ascending values with each cluster of numerically tied ones spread
    about its centre, TIE_SPREAD apart; and whether any cluster was found."""
    clusters = [[values[0]]]
    for v in values[1:]:
        if v - clusters[-1][-1] <= TIE_GAP * v:
            clusters[-1].append(v)
        else:
            clusters.append([v])
    out = []
    for cluster in clusters:
        centre = mp.fsum(cluster) / len(cluster)
        offset = (len(cluster) - 1) / mp.mpf(2)
        out.extend(centre * (1 + (k - offset) * mp.mpf(TIE_SPREAD)) for k in range(len(cluster)))
    return out, len(clusters) < len(values)


# --- the oracle -------------------------------------------------------------


class Oracle:
    """F, 1 - F and the SER of the model of two correlation matrices."""

    def __init__(self, rx, tx):
        minor, major = (rx, tx) if len(rx) <= len(tx) else (tx, rx)
        self.n, self.m = len(minor), len(major)
        self.minor, tied_minor = _spread(_mp_eigenvalues(minor, 60))
        self.major, tied_major = _spread(_mp_eigenvalues(major, 60))
        self.tied = tied_minor or tied_major
        self.base = TIED_DIGITS if self.tied else BASE_DIGITS
        self._t_scale = 1 / (self.minor[0] * self.major[0])

    def digits(self, x) -> int:
        """Working digits for the form at x > 0 (see the module docstring)."""
        x = mp.mpf(x)
        small = self.n * self.m * max(0.0, float(mp.log10(1 / x)))
        large = self.m * self.m * max(0.0, float(mp.log10(x * self._t_scale)))
        return self.base + int(math.ceil(small + large))

    def _form_at(self, x, dps):
        with mp.workdps(dps):
            minor = [+v for v in self.minor]
            major = [+v for v in self.major]
            return _form(minor, major, mp.mpf(x), mp.fprod(minor), mp.fprod(major))

    def cdf_pair(self, x) -> tuple[float, float]:
        """(F(x), 1 - F(x)) as doubles, each to about 1e-15 relative.

        1 - F below 1e-k takes k more digits, found from the value itself.
        """
        x = float(x)
        if x == 0.0:
            return 0.0, 1.0
        extra = 0
        while True:
            dps = self.digits(x) + extra
            coarse = self._form_at(x, dps)
            fine = self._form_at(x, dps + CHECK_DIGITS)
            with mp.workdps(dps + CHECK_DIGITS):
                head = 1 - fine
                needed = int(-float(mp.log10(head))) if head > 0 else extra + 40
                if needed > extra and extra < 1000:
                    extra = needed
                    continue
                for name, c, f in (("F", coarse, fine), ("1 - F", 1 - coarse, head)):
                    if abs(c - f) > AGREE * abs(f):
                        raise OracleError(
                            f"{name} at x={x!r}: {dps} and {dps + CHECK_DIGITS} digits disagree"
                        )
                return float(fine), float(head)

    def ser(self, a, b, snr_db) -> float:
        """SER of a*Q(sqrt(2*b*snr)) at average SNR ``snr_db`` dB."""
        return self.ser_points(a, b, snr_db)[0]

    def ser_points(self, a, b, snr_db) -> tuple[float, int]:
        """The SER and the number of trapezoidal steps of the accepted sum."""
        with mp.workdps(60):
            gbar = mp.mpf(10) ** (mp.mpf(snr_db) / 10)
            b = mp.mpf(b)
            scale = a * mp.sqrt(b / mp.pi)
        # The tail past v_max is below exp(-b v_max^2) / (2 b v_max), less
        # than exp(-b v_max^2) itself here. Start where that is 1e-40, and
        # widen the range if it is not below 1e-20 of the SER found.
        v_max = float(mp.sqrt(40 * mp.log(10) / b))
        while True:
            total, points = self._trapezoid(b, gbar, v_max)
            with mp.workdps(60):
                ser = scale * total
                if mp.exp(-b * v_max**2) <= 1e-20 * ser:
                    return float(ser), points
                v_max = float(mp.sqrt((mp.log(1 / ser) + 20 * mp.log(10)) / b)) + 1.0

    def _trapezoid(self, b, gbar, v_max):
        """Halve the step until the h and h/2 sums agree; the h/2 sum
        recomputed CHECK_DIGITS finer must agree with it too."""
        values = {}

        def f(k, points, extra):
            with mp.workdps(60):
                v = mp.mpf(v_max) * k / points
                x = v * v / gbar
            if x == 0:
                return mp.mpf(0)
            dps = self.digits(x) + extra
            with mp.workdps(dps):
                return mp.exp(-b * v * v) * self._form_at(x, dps)

        def trapezoid(points, extra, cache):
            # the points of a step are among those of its half: keyed by k/points
            terms = []
            for k in range(points + 1):
                g = math.gcd(k, points)
                key = (k // g, points // g)
                if key not in cache:
                    cache[key] = f(k, points, extra)
                terms.append(cache[key])
            with mp.workdps(60):
                return mp.mpf(v_max) / points * (mp.fsum(terms) - (terms[0] + terms[-1]) / 2)

        points = SER_START_STEPS
        previous = trapezoid(points, 0, values)
        while True:
            points *= 2
            if points > SER_MAX_STEPS:
                raise OracleError(f"trapezoidal sums not converged in {SER_MAX_STEPS} steps")
            current = trapezoid(points, 0, values)
            with mp.workdps(60):
                if abs(current - previous) <= SER_AGREE * abs(current):
                    break
            previous = current
        check = trapezoid(points, CHECK_DIGITS, {})
        with mp.workdps(60):
            if abs(check - current) > AGREE * abs(check):
                raise OracleError("trapezoidal sum changes with the working precision")
        return check, points
