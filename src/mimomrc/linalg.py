"""Small dense complex-matrix helpers.

Input coercion, a checked Hermitian eigendecomposition and square root
(LAPACK through numpy), a determinant and Vandermonde products for the
handful-of-antennas matrices used by the library. The correlation
eigenvalues of the analytic model and of the simulator come from
``correlation.correlation_eigenvalues``, not from here. The determinant
is the tests' scalar reference route; nothing in the library calls it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# Hermitian-ness is checked entrywise against this absolute tolerance.
HERMITIAN_ATOL = 1e-12


def as_matrix(a) -> np.ndarray:
    """Coerce input to a 2-D complex128 array, rejecting non-finite entries."""
    m = np.array(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValidationError(f"expected a 2-D matrix, got {m.ndim} dimension(s)")
    if not np.all(np.isfinite(m)):
        raise ValidationError("matrix entries must be finite")
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


def herm_sqrt(a) -> np.ndarray:
    """Hermitian square root B of a Hermitian positive-definite A (B·B = A).

    Computed spectrally, B = V diag(sqrt(w)) V†. The Hermitian (rather
    than Cholesky) root is used so channel draws are reproducible
    independent of factorization conventions.
    """
    eig = herm_eig(a)
    if np.min(eig.eigenvalues) <= 0.0:
        raise ValidationError(
            "herm_sqrt requires a positive-definite matrix "
            f"(min eigenvalue {np.min(eig.eigenvalues):.3e})"
        )
    v = eig.eigenvectors
    root = (v * np.sqrt(eig.eigenvalues)) @ v.conj().T
    return 0.5 * (root + root.conj().T)


def det(a) -> complex:
    """Determinant by pivoted Gaussian elimination; closed form for sizes 1-2."""
    m = as_matrix(a)
    _require_square(m, "det")
    n = m.shape[0]
    if n == 0:
        return complex(1.0)
    if n == 1:
        return complex(m[0, 0])
    if n == 2:
        return complex(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
    work = m.copy()
    sign = 1.0
    for k in range(n - 1):
        piv = k + int(np.argmax(np.abs(work[k:, k])))
        if piv != k:
            work[[k, piv], :] = work[[piv, k], :]
            sign = -sign
        pivot = work[k, k]
        if pivot == 0.0:
            return complex(0.0)
        factors = work[k + 1 :, k] / pivot
        work[k + 1 :, k:] -= np.outer(factors, work[k, k:])
    return complex(sign * np.prod(np.diag(work)))


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
