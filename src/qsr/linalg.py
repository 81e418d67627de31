"""Hermitian eigenvalues for the small matrices of single-qubit channels.

Covers the 1x1 to 6x6 matrices that appear in single-qubit channel
calculations: the Hermitian residual and the spectrum, checked for shape,
size and finiteness. No function mutates its arguments.
"""

from __future__ import annotations

import numpy as np

MAX_DIM = 6


def _as_complex_matrix(entries) -> np.ndarray:
    """Coerce to a square complex matrix of dimension 1..6 with finite entries."""
    mat = np.asarray(entries, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if not 1 <= mat.shape[0] <= MAX_DIM:
        raise ValueError(
            f"dimension {mat.shape[0]} outside supported range 1..{MAX_DIM}"
        )
    if not np.isfinite(mat).all():
        raise ValueError("matrix entries must be finite")
    return mat


def hermitian_residual(a) -> float:
    """Largest |m[i][j] - conj(m[j][i])|; zero for an exactly Hermitian matrix."""
    mat = _as_complex_matrix(a)
    return float(np.abs(mat - mat.conj().T).max())


def hermitian_eigenvalues(mat, tol: float = 1e-10) -> list[float]:
    """All eigenvalues of a Hermitian matrix, sorted ascending.

    Solved by LAPACK (``numpy.linalg.eigvalsh``) on the exactly Hermitian
    part ``(a + a^dag) / 2`` of the input, whose residual is within ``tol``.

    Args:
        mat: square complex matrix of dimension 1..6 with finite entries,
            Hermitian up to ``tol``.
        tol: largest acceptable Hermitian residual of the input.

    Raises:
        ValueError: input not square, outside 1..6, not finite, or not
            Hermitian within ``tol``.
    """
    a = _as_complex_matrix(mat)
    adj = a.conj().T
    residual = float(np.abs(a - adj).max())
    if residual > tol:
        raise ValueError(
            f"matrix is not Hermitian: residual {residual:.3e} exceeds {tol:.3e}"
        )
    return np.linalg.eigvalsh(0.5 * (a + adj)).tolist()
