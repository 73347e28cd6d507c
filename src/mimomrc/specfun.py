"""Special functions for the eigenvalue-distribution and error-rate formulas.

Everything here is exact integer arithmetic or numpy: the Gaussian tail
:func:`gauss_q` is a polynomial fit of its own, so the package needs no
special-function library. Its kernel, :func:`gauss_q_upper_into`,
computes in buffers the caller passes and allocates nothing, so the
Monte-Carlo SER estimator runs it on its worker threads over whole
65,536-point batches: two threads calling it on 8192-point passes
convoy on the interpreter lock (see ``montecarlo._ser_estimate``).
:func:`gauss_q` runs the same kernel in one pass over its whole input.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError


def multivariate_gamma_norm(n: int, m: int) -> int:
    """Normalized complex multivariate gamma: product_{i=1}^{n} Gamma(m - i + 1).

    All arguments are positive integers here, so the result is the exact
    integer product of factorials (m - i)!.
    """
    _check_gamma_args(n, m)
    out = 1
    for i in range(1, n + 1):
        out *= math.factorial(m - i)
    return out


def log_multivariate_gamma_norm(n: int, m: int) -> float:
    """log of ``multivariate_gamma_norm``, safe for large arguments."""
    _check_gamma_args(n, m)
    return sum(math.lgamma(m - i + 1) for i in range(1, n + 1))


def _check_gamma_args(n: int, m: int) -> None:
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValidationError(f"n must be an integer >= 1, got {n!r}")
    if not isinstance(m, (int, np.integer)) or m - n + 1 < 1:
        raise ValidationError(
            f"m must satisfy m - n + 1 >= 1 so every gamma argument is positive, got n={n}, m={m}"
        )


def double_factorial_odd(k: int) -> int:
    """(2k - 1)!! = 1 * 3 * ... * (2k - 1) for k >= 1."""
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValidationError(f"k must be an integer >= 1, got {k!r}")
    return math.prod(range(1, 2 * k, 2))


# Q(x) = exp(-x^2/2) g(t) / (2 (z + K)) with z = x / sqrt(2) and
# t = (z - K) / (z + K), which maps z in [0, inf) onto t in [-1, 1), where
# g(t) = exp(z^2) erfc(z) (z + K) is smooth (Schonfelder, Math. Comp. 1978).
# g is fitted by a Chebyshev series of 24 terms at 64 Chebyshev nodes of
# the first kind, in 40-digit mpmath; the next term is 6.2e-18. _Q_POLY
# holds that series rewritten in powers of t (in 40 digits, then rounded
# once), lowest power first, and the tests recompute it. Its coefficients
# alternate in sign and their magnitudes sum to 3.75 = g(-1), so Horner's
# rule (two passes per term, against three for Clenshaw's recurrence on
# the Chebyshev coefficients) cancels nothing where g is largest; the two
# measured equally accurate.
_Q_K = 3.75
_Q_POLY = (
    1.0919229095627891,
    -0.9587415766529095,
    0.7363189252217537,
    -0.49047029120768826,
    0.2790620490336852,
    -0.13195540117824336,
    0.04911877861720606,
    -0.012535880044978472,
    0.000986338060145727,
    0.0007948231282476774,
    -0.00034864674071764747,
    1.0593866720431546e-05,
    3.7471310663113975e-05,
    -8.903626741464975e-06,
    -3.288570958593065e-06,
    1.6555849395166649e-06,
    2.7865722181858276e-07,
    -2.633749968411953e-07,
    -2.592284333798498e-08,
    4.020787513306164e-08,
    2.774844499122888e-09,
    -5.368814293951196e-09,
    -2.299114056507738e-10,
    4.4046755782598165e-10,
)
# From _Q_ZERO on (and not below it), the formula gives Q below the
# smallest normal double, 2.2e-308. gauss_q returns 0 there, and clamps
# x to _Q_ZERO first, so exp never returns a subnormal: libm's path for
# those took 347 ns a point at x = 37.8, against 22 ns at x = 1.
_Q_ZERO = 37.5193793471445


def gauss_q(x):
    """Gaussian tail probability Q(x) = 0.5 erfc(x / sqrt(2)).

    Accepts a scalar (answered with a float) or an array (answered with
    an array of its shape). Q(|x|) is exp(-x^2/2) times a degree-23
    polynomial in t = (z - 3.75) / (z + 3.75), z = |x| / sqrt(2), over
    2 (z + 3.75): a 24-term Chebyshev fit of exp(z^2) erfc(z) (z + 3.75),
    summed by Horner's rule in numpy, in one pass of
    :func:`gauss_q_upper_into` over the whole array. A negative x gives
    1 - Q(|x|).
    Against 40-digit mpmath the worst relative error measured on a dense
    grid is below 1e-15 on [0, 1), 2e-14 on [1, 10) and 2.5e-13 on
    [10, 37.5], where Q reaches 1e-307 (the error there is that of x^2
    rounded inside the exponential). Q is exactly 0 from x = 37.519...,
    where it would fall below the smallest normal double (2.2e-308), so
    no value is subnormal. Q(+inf) = 0, Q(-inf) = 1, and NaN gives NaN.
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    q = gauss_q_upper_into(np.abs(flat), np.empty(flat.size), np.empty((2, flat.size)))
    negative = flat < 0.0
    if negative.any():
        q[negative] = 1.0 - q[negative]
    return float(q[0]) if x.ndim == 0 else q.reshape(x.shape)


def gauss_q_upper_into(ax: np.ndarray, out: np.ndarray, work) -> np.ndarray:
    """Q at each point of ``ax``, a 1-D array of nonnegative (or NaN)
    points, written into ``out`` and returned.

    ``work`` is two scratch arrays of ``ax``'s size; they and ``ax`` are
    overwritten, and nothing is allocated, so a caller that runs this on
    several threads can hand each its own buffers.
    """
    den, t = work
    np.minimum(ax, _Q_ZERO, out=ax)
    np.multiply(ax, math.sqrt(0.5), out=den)  # z
    np.subtract(den, _Q_K, out=t)
    den += _Q_K
    t /= den
    np.multiply(t, _Q_POLY[-1], out=out)
    out += _Q_POLY[-2]
    for c in _Q_POLY[-3::-1]:
        out *= t
        out += c
    den *= 2.0
    out /= den
    np.multiply(ax, ax, out=t)
    t *= -0.5
    # a factor of 1.0, or 0.0 from _Q_ZERO on: a masked write would branch
    # on every point, and a 2x2 sweep at 30 dB puts 1 in 4 past _Q_ZERO
    np.less(ax, _Q_ZERO, out=ax)
    out *= ax
    out *= np.exp(t, out=t)
    return out
