"""Hermitian eigenvalues for the small matrices of single-qubit channels.

Covers the 1x1 to 6x6 matrices that appear in single-qubit channel
calculations, one at a time or as a stack along a leading axis: the
Hermitian residual and the spectrum, checked for shape, size and
finiteness. No function mutates its arguments.
"""

from __future__ import annotations

import numpy as np

MAX_DIM = 6


def _as_complex_matrices(entries) -> np.ndarray:
    """Coerce to one square complex matrix, or a stack of them, of
    dimension 1..6 with finite entries."""
    mat = np.asarray(entries, dtype=complex)
    if mat.ndim not in (2, 3) or mat.shape[-1] != mat.shape[-2]:
        raise ValueError(
            f"expected a square matrix or a stack of them, got shape {mat.shape}"
        )
    if not 1 <= mat.shape[-1] <= MAX_DIM:
        raise ValueError(
            f"dimension {mat.shape[-1]} outside supported range 1..{MAX_DIM}"
        )
    finite = np.isfinite(mat).all(axis=(-2, -1))
    if not finite.all():
        where = ""
        if mat.ndim == 3:
            where = f" in matrix {int(np.argmax(~finite))} of the stack"
        raise ValueError(f"matrix entries must be finite{where}")
    return mat


def hermitian_residual(a) -> float:
    """Largest |m[i][j] - conj(m[j][i])| over a matrix or a stack of them;
    zero when every matrix is exactly Hermitian."""
    mat = _as_complex_matrices(a)
    return float(np.abs(mat - mat.conj().swapaxes(-1, -2)).max(initial=0.0))


def hermitian_eigenvalues(mat, tol: float = 1e-10):
    """All eigenvalues of a Hermitian matrix, or of each matrix in a stack,
    sorted ascending.

    Solved by LAPACK (``numpy.linalg.eigvalsh``) on the exactly Hermitian
    part ``(a + a^dag) / 2`` of the input, whose residual is within ``tol``.
    A stack is solved in one call, and every matrix in it passes the same
    checks as a single one.

    Args:
        mat: square complex matrix of dimension 1..6 with finite entries,
            Hermitian up to ``tol``; or an ``(m, n, n)`` stack of them.
        tol: largest acceptable Hermitian residual of each input matrix.

    Returns:
        A list of the n eigenvalues for one matrix; an ``(m, n)`` array,
        one ascending row per matrix, for a stack.

    Raises:
        ValueError: input not square, outside 1..6, not finite, or some
            matrix not Hermitian within ``tol``.
    """
    a = _as_complex_matrices(mat)
    adj = a.conj().swapaxes(-1, -2)
    gap = np.abs(a - adj)
    residual = float(gap.max(initial=0.0))
    if residual > tol:
        where = ""
        if a.ndim == 3:
            where = f" in matrix {int(gap.max(axis=(1, 2)).argmax())} of the stack"
        raise ValueError(
            f"matrix is not Hermitian: residual {residual:.3e} exceeds {tol:.3e}{where}"
        )
    values = np.linalg.eigvalsh(0.5 * (a + adj))
    return values.tolist() if a.ndim == 2 else values
