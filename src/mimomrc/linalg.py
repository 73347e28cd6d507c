"""Small dense complex-matrix helpers.

Input coercion, a checked Hermitian eigendecomposition and a checked
determinant (both LAPACK through numpy), and Vandermonde products for
the handful-of-antennas matrices used by the library. The correlation
eigenvalues of the analytic model and of the simulator come from
``correlation.correlation_eigenvalues``, not from here. Nothing in the
library calls :func:`det` or :func:`herm_eig`: they are the tests'
scalar reference routes, and the benchmark's traced mode times them as
spans.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, checked_numbers

# Hermitian-ness is checked entrywise against this absolute tolerance.
HERMITIAN_ATOL = 1e-12


def as_matrix(a) -> np.ndarray:
    """Coerce input to a 2-D complex128 array, rejecting entries that are
    not integers, floats or complex numbers (a bool, a string, a ragged
    nest: the type rule of :func:`~mimomrc.errors.checked_numbers`) and
    non-finite entries."""
    raw = checked_numbers(a, "expected a numeric matrix of integers, floats or complex numbers",
                          complex_ok=True)
    m = np.array(raw, dtype=np.complex128)
    if m.ndim != 2:
        raise ValidationError(f"expected a 2-D matrix, got {m.ndim} dimension(s)")
    if not np.all(np.isfinite(m)):
        raise ValidationError("entries must be finite")
    return m


def _require_square(m: np.ndarray, op: str) -> None:
    if m.shape[0] != m.shape[1]:
        raise ValidationError(f"{op} requires a square matrix, got shape {m.shape}")


def _require_hermitian(m: np.ndarray, op: str, atol: float = HERMITIAN_ATOL) -> None:
    if m.size and np.max(np.abs(m - m.conj().T)) > atol:
        raise ValidationError(f"{op} requires a Hermitian matrix (tolerance {atol:g})")


@dataclass(frozen=True)
class HermitianEig:
    """Spectral decomposition A = V diag(w) V† with w ascending.

    ``eigenvalues[k]`` pairs with the unit-norm column ``eigenvectors[:, k]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def herm_eig(a) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix by LAPACK
    (``numpy.linalg.eigh`` of its Hermitian part).

    Refuses a matrix that is not Hermitian within ``HERMITIAN_ATOL``
    entrywise: ``eigh`` alone reads one triangle, so it would take a
    non-Hermitian matrix for a different Hermitian one.
    """
    m = as_matrix(a)
    _require_square(m, "herm_eig")
    _require_hermitian(m, "herm_eig")
    vals, vecs = np.linalg.eigh(0.5 * (m + m.conj().T))
    return HermitianEig(eigenvalues=vals, eigenvectors=vecs)


def det(a) -> complex:
    """Determinant by LAPACK (``numpy.linalg.det``)."""
    m = as_matrix(a)
    _require_square(m, "det")
    return complex(np.linalg.det(m))


def vandermonde(values) -> float:
    """Pairwise product prod_{i<j} (v_j - v_i); 1 for a single value."""
    vals = [float(v) for v in values]
    if len(vals) == 0:
        raise ValidationError("vandermonde requires at least one value")
    out = 1.0
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            out *= vals[j] - vals[i]
    return out
