"""Special functions for the eigenvalue-distribution and error-rate formulas."""

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


def scipy_special():
    """The ``scipy.special`` module, imported on first call.

    It adds about 24 MB to the process, and only the Monte-Carlo
    estimators need it (through :func:`gauss_q`), so the analytic paths
    never load it.
    """
    import scipy.special

    return scipy.special


def gauss_q(x):
    """Gaussian tail probability Q(x) = 0.5 erfc(x / sqrt(2)).

    Accepts scalars or numpy arrays. Relative accuracy is that of the
    library erfc (a few ulp, far below the 1e-12 needed by the error-rate
    integrals); underflows cleanly to 0 in the far tail.
    """
    erfc = scipy_special().erfc
    if np.isscalar(x):
        return 0.5 * float(erfc(float(x) / math.sqrt(2.0)))
    return 0.5 * erfc(np.asarray(x, dtype=float) / math.sqrt(2.0))
