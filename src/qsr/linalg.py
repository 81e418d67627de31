"""Hermitian eigenvalues for the small matrices of single-qubit channels.

Covers the 1x1 to 6x6 matrices that appear in single-qubit channel
calculations, one at a time or as a stack along a leading axis: the
Hermitian residual and the spectrum, checked for shape, size and
finiteness. A stack's results carry its leading axis, as numpy's do. No
function mutates its arguments.
"""

from __future__ import annotations

import numpy as np

#: Largest dimension accepted; it also bounds a channel's Kraus operators.
MAX_DIM = 6

#: Largest Hermitian residual `hermitian_eigenvalues` accepts in a matrix.
HERMITIAN_TOL = 1e-10


def _where(flagged, item: str = "matrix") -> str:
    """' in matrix i of the stack' at the first flagged (or largest) entry
    of a per-matrix array; '' for one matrix, whose ``flagged`` is 0-d."""
    if np.ndim(flagged) == 0:
        return ""
    return f" in {item} {int(np.argmax(flagged))} of the stack"


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
    # One reduction; the per-matrix flags only to name the first failure.
    if not np.isfinite(mat).all():
        finite = np.isfinite(mat).all(axis=(-2, -1))
        raise ValueError("matrix entries must be finite" + _where(~finite))
    return mat


def _skew_gap(a: np.ndarray) -> np.ndarray:
    """The largest |entry| of a - a^dag in each matrix."""
    return np.abs(a - a.conj().swapaxes(-1, -2)).max(axis=(-2, -1))


def hermitian_residual(a) -> float:
    """Largest |m[i][j] - conj(m[j][i])| over a matrix or a stack of them;
    zero when every matrix is exactly Hermitian."""
    return float(_skew_gap(_as_complex_matrices(a)).max(initial=0.0))


def hermitian_eigenvalues(mat):
    """All eigenvalues of a Hermitian matrix, sorted ascending, as an
    ``(n,)`` array; for an ``(m, n, n)`` stack, an ``(m, n)`` array with one
    row per matrix.

    Solved by LAPACK (``numpy.linalg.eigvalsh``) on the exactly Hermitian
    part ``(a + a^dag) / 2`` of the input; a stack is solved in one call.
    Raises ValueError unless every matrix is square of dimension 1..6,
    finite, and Hermitian within HERMITIAN_TOL.
    """
    a = _as_complex_matrices(mat)
    gap = _skew_gap(a)
    residual = float(gap.max(initial=0.0))
    if residual > HERMITIAN_TOL:
        raise ValueError(
            f"matrix is not Hermitian: residual {residual:.3e} exceeds {HERMITIAN_TOL:.3e}"
            + _where(gap)
        )
    return np.linalg.eigvalsh(0.5 * (a + a.conj().swapaxes(-1, -2)))
