"""Construction and validation of transmit/receive correlation matrices.

A validated pair carries the eigenvalues of both matrices with the
smaller-dimension side ("minor") and larger-dimension side ("major")
roles already assigned, which is the form the distribution code needs.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ValidationError, check_count

# Unit-diagonal / Hermitian tolerance for user-supplied matrices. Files may
# carry rounding; beyond this we hard-fail rather than silently renormalize.
_INPUT_TOL = 1e-10


def checked_rho(rho, name: str = "rho") -> float:
    """``rho`` as a float, if it is a real number (not a bool) in [0, 1),
    the range of the exponential model; else ``ValidationError`` names
    ``name``. :func:`exp_correlation` and the Monte-Carlo config share it."""
    if isinstance(rho, numbers.Real) and not isinstance(rho, bool) and 0.0 <= rho < 1.0:
        return float(rho)
    raise ValidationError(f"{name} must be a real number in [0, 1), got {rho!r}")


def exp_correlation(rho: float, size: int) -> np.ndarray:
    """Exponential correlation matrix: entry (i, j) is rho^|i-j|.

    Real symmetric Toeplitz with unit diagonal; positive-definite for
    0 <= rho < 1.
    """
    rho = checked_rho(rho)
    check_count(size, "size")
    idx = np.arange(size)
    return (rho ** np.abs(idx[:, None] - idx[None, :])).astype(np.complex128)


@dataclass(frozen=True)
class CorrelationPair:
    """Validated receive/transmit correlation matrices with assigned roles.

    ``minor_eigs`` are the eigenvalues of whichever matrix sits on the
    smaller dimension of the link (receive side when n_rx <= n_tx,
    transmit side otherwise); ``major_eigs`` belong to the other matrix.
    Both lists are ascending and strictly positive.
    """

    rx_corr: np.ndarray
    tx_corr: np.ndarray
    n_min: int
    n_max: int
    minor_eigs: np.ndarray
    major_eigs: np.ndarray


def correlation_eigenvalues(mat, label: str) -> np.ndarray:
    """Ascending eigenvalues of a correlation matrix, after checking it.

    This is the one definition of a valid correlation matrix, shared by
    :func:`make_pair` and the Monte-Carlo simulator: finite, square,
    Hermitian and unit-diagonal within ``_INPUT_TOL`` entrywise, and
    positive-definite. Otherwise ``ValidationError`` is raised, naming
    ``label`` (the side). The eigenvalues are ``numpy.linalg.eigvalsh`` of
    the Hermitian part: ``eigvalsh`` alone reads one triangle, so it would
    take a non-Hermitian matrix for a different Hermitian one. For an
    exactly Hermitian matrix the Hermitian part is the matrix itself.
    """
    m = linalg.as_matrix(mat)
    if m.shape[0] != m.shape[1] or m.size == 0:
        raise ValidationError(f"{label} correlation matrix must be square and nonempty, got shape {m.shape}")
    if np.max(np.abs(m - m.conj().T)) > _INPUT_TOL:
        raise ValidationError(f"{label} correlation matrix is not Hermitian (tolerance {_INPUT_TOL:g})")
    if np.max(np.abs(np.diag(m) - 1.0)) > _INPUT_TOL:
        raise ValidationError(f"{label} correlation matrix must have unit diagonal (tolerance {_INPUT_TOL:g})")
    eigs = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    if not eigs[0] > 0.0:
        raise ValidationError(
            f"{label} correlation matrix is not positive-definite (min eigenvalue {eigs[0]:.3e})"
        )
    return eigs


def make_pair(rx_corr, tx_corr) -> CorrelationPair:
    """Validate the two matrices and assign minor/major roles by dimension.

    The receive matrix takes the minor role when the receive side is the
    smaller (or equal) dimension, otherwise the transmit matrix does.
    """
    rx, tx = linalg.as_matrix(rx_corr), linalg.as_matrix(tx_corr)
    rx_eigs = correlation_eigenvalues(rx, "receive")
    tx_eigs = correlation_eigenvalues(tx, "transmit")
    n_rx, n_tx = rx_eigs.size, tx_eigs.size
    minor_eigs, major_eigs = (rx_eigs, tx_eigs) if n_rx <= n_tx else (tx_eigs, rx_eigs)
    return CorrelationPair(
        rx_corr=rx,
        tx_corr=tx,
        n_min=min(n_rx, n_tx),
        n_max=max(n_rx, n_tx),
        minor_eigs=minor_eigs,
        major_eigs=major_eigs,
    )


def det_minor(pair: CorrelationPair) -> float:
    """Determinant of the minor-side matrix (product of its eigenvalues)."""
    return float(np.prod(pair.minor_eigs))


def det_major(pair: CorrelationPair) -> float:
    """Determinant of the major-side matrix (product of its eigenvalues)."""
    return float(np.prod(pair.major_eigs))


def correlation_penalty(pair: CorrelationPair) -> float:
    """Array-gain reduction factor det_minor^{1/n_min} * det_major^{1/n_max}.

    Equals 1 exactly when both matrices are identity; strictly below 1
    otherwise (Hadamard's inequality with unit diagonals).
    """
    return det_minor(pair) ** (1.0 / pair.n_min) * det_major(pair) ** (1.0 / pair.n_max)


def _format_entry(z: complex) -> str:
    if z.imag == 0.0:
        return f"{z.real:.17g}"
    return f"{z.real:.17g}{z.imag:+.17g}j"


def save_matrix_csv(path, matrix) -> None:
    """Write a square matrix as CSV, one row per line.

    Real entries are written plain; complex entries as ``re+imj``. The
    same format is accepted by :func:`load_matrix_csv`, so any matrix that
    it would refuse (one that is not square, or empty) raises
    ``ValidationError`` before the file is opened.
    """
    m = linalg.as_matrix(matrix)
    if m.shape[0] != m.shape[1] or m.size == 0:
        raise ValidationError(f"matrix must be square and nonempty, got shape {m.shape}")
    with open(path, "w", newline="\n") as fh:
        for row in m:
            fh.write(",".join(_format_entry(complex(z)) for z in row) + "\n")


def load_matrix_csv(path) -> np.ndarray:
    """Read a square numeric grid written by :func:`save_matrix_csv`.

    Accepts plain reals or ``re+imj`` complex entries; raises
    ``ValidationError`` naming ``path`` for anything else, or for bytes
    that are not text.
    """
    rows = []
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    rows.append([complex(tok.strip()) for tok in line.split(",")])
    except ValueError as exc:  # UnicodeDecodeError is one too
        raise ValidationError(f"unparseable matrix file {path}: {exc}") from exc
    if not rows:
        raise ValidationError(f"no matrix rows found in {path}")
    width = len(rows[0])
    if any(len(r) != width for r in rows) or width != len(rows):
        raise ValidationError(f"matrix in {path} is not a square grid")
    return linalg.as_matrix(rows)
