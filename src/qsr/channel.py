"""Single-qubit noisy channels built from Kraus operators.

Provides Bloch-vector / density-matrix conversions, channel application,
the exchange matrix and its entropy (the noise handed to the environment),
coherent information, entangled fidelity, and an explicit
system-environment dilation that serves as an independent cross-check of
the exchange matrix.

A state has one form: a checked float array of Bloch rows, (3,) for one
state and (m, 3) for a stack, checked in one array pass. A `BlochVector`
is the checked input record of one state, read as its (3,) row. Every
function of the generic route takes rho as one 2x2 density matrix or as
an (m, 2, 2) stack of them (as `bloch_to_density` makes from a stack of
states), and a `KrausChannel` of one channel, (k, 2, 2) operators, or of
a stack of n channels, (n, k, 2, 2); it evaluates every pairing in one
pass, `apply_channel` as explicit products added in a fixed order.
The result follows numpy's leading-axis rule: one matrix and one
channel give the per-matrix shape (a numpy scalar, a (3,) Bloch array or
a (k, k) matrix), and the stacks' leading axes broadcast against each
other, so an (n, 2, 2) rho pairs row by row with n channels and one rho
is shared by all of them; a rho stack of another length is refused with
both lengths named. Every check applies to each matrix and each
channel of a stack, and an error names the first that fails it.

All entropies are in bits (base-2 logarithms).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import MAX_DIM, _as_complex_matrices, _where, hermitian_eigenvalues

IDENTITY = np.array([[1, 0], [0, 1]], dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULI_STACK = np.stack((PAULI_X, PAULI_Y, PAULI_Z))

COMPLETENESS_TOL = 1e-10
BLOCH_NORM_TOL = 1e-12

# Spectrum values in [_EIG_FLOOR, 0) are rounding noise on an analytically
# positive semidefinite matrix and are clamped to 0; anything below is a
# genuine violation.
_EIG_FLOOR = -1e-10

_FIDELITY_IMAG_TOL = 1e-12


@dataclass(frozen=True)
class BlochVector:
    """Real 3-vector (a1, a2, a3) with |a| <= 1; unit length means pure."""

    a1: float
    a2: float
    a3: float

    def __post_init__(self):
        components = _bloch_rows(np.array((self.a1, self.a2, self.a3), dtype=float), "state")
        for name, value in zip(("a1", "a2", "a3"), components.tolist()):
            object.__setattr__(self, name, value)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.a1, self.a2, self.a3)


def _bloch_rows(rows: np.ndarray, item: str) -> np.ndarray:
    """Check a float array of Bloch rows, (3,) or (m, 3): every row must be
    finite, of width 3 and of |a|^2 <= 1 within BLOCH_NORM_TOL. An error
    names the first row that fails, as ``item i of the stack``."""
    if rows.shape[-1] != 3:  # every row is as wide, so the first is named
        raise ValueError(f"expected 3 Bloch components, got {rows.shape[-1]}"
                         + _where(np.ones(rows.shape[:-1]), item))
    # A huge finite component squares to inf, which the bound refuses.
    with np.errstate(over="ignore"):
        norm_squared = (rows * rows).sum(axis=-1)
    # One comparison, which NaN and inf fail too; the per-row flags only
    # to name the first failure.
    if not (norm_squared <= 1.0 + BLOCH_NORM_TOL).all():
        finite = np.isfinite(rows).all(axis=-1)
        if not finite.all():
            raise ValueError("Bloch components must be finite" + _where(~finite, item))
        unphysical = norm_squared > 1.0 + BLOCH_NORM_TOL
        worst = norm_squared.flat[int(np.argmax(unphysical))]
        raise ValueError(f"unphysical Bloch vector: |a|^2 = {worst:.12g} > 1"
                         + _where(unphysical, item))
    return rows


def _as_states(state) -> np.ndarray:
    """One state (a BlochVector or three reals) as a checked float (3,)
    array, or an (m, 3) stack of them as a checked float copy; no other
    shape. Callers take ``shape[:-1]`` as the leading shape, and the
    components as columns that broadcast over rates."""
    if isinstance(state, BlochVector):
        state = state.as_tuple()
    rows = np.array(state, dtype=float)
    if rows.ndim not in (1, 2):
        raise ValueError(f"expected a Bloch vector or an (m, 3) stack, got shape {rows.shape}")
    if rows.ndim == 2 and not len(rows):
        raise ValueError("a stack of states needs at least one row")
    return _bloch_rows(rows, "state")


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Ordered 2x2 Kraus operators defining rho -> sum_i A_i rho A_i^dag,
    or a stack of n such channels with k operators each.

    Construction checks shapes and finiteness only and stores the
    operators as the complex array ``operators`` that every function of
    the generic route evaluates: (k, 2, 2) for one channel, (n, k, 2, 2)
    for a stack, whose checks apply to each channel and name the first
    that fails. Completeness (sum_i A_i^dag A_i = I) is checked where it
    matters, on first use, so deliberately broken operator sets can still
    be built and diagnosed with `completeness_residual`.
    """

    operators: np.ndarray
    label: str = ""

    def __post_init__(self):
        operators = np.asarray(self.operators, dtype=complex)
        stacked = operators.ndim == 4
        if stacked and not len(operators):
            raise ValueError("a stack of channels needs at least one channel")
        # Every channel of a stack has the same shape, so a shape error names the first.
        each = np.ones(len(operators)) if stacked else 0
        k = operators.shape[1] if stacked else len(operators)
        # k operators give a k x k exchange matrix, which the eigensolver must take.
        if not 1 <= k <= MAX_DIM:
            raise ValueError(f"channel needs 1..{MAX_DIM} Kraus operators, got {k}"
                             + _where(each, "channel"))
        if stacked:
            if operators.shape[2:] != (2, 2):
                raise ValueError(f"Kraus operators must be 2x2, got {operators.shape[2:]}"
                                 + _where(each, "channel"))
            finite = np.isfinite(operators).all(axis=(1, 2, 3))
            if not finite.all():
                raise ValueError("matrix entries must be finite" + _where(~finite, "channel"))
        else:
            operators = _as_complex_matrices(operators)
            if operators.shape[1:] != (2, 2):
                raise ValueError(f"Kraus operators must be 2x2, got {operators.shape[1:]}")
        object.__setattr__(self, "operators", operators)

    @cached_property
    def _residual(self):
        return completeness_residual(self)


def completeness_residual(channel: KrausChannel):
    """Max-norm of sum_i A_i^dag A_i - I; zero for a trace-preserving set.
    A float for one channel, an (n,) array for a stack of n."""
    # Summed in operator order: an einsum contraction would round differently.
    gram = (channel.operators.conj().swapaxes(-1, -2) @ channel.operators).sum(axis=-3)
    residual = np.abs(gram - IDENTITY).max(axis=(-2, -1))
    return float(residual) if residual.ndim == 0 else residual


def _require_complete(channel: KrausChannel) -> None:
    residual = np.asarray(channel._residual)
    broken = residual > COMPLETENESS_TOL
    if broken.any():
        name = channel.label or "channel"
        raise ValueError(
            f"{name} violates the completeness relation: "
            f"residual {residual.flat[int(np.argmax(broken))]:.3e}" + _where(broken, "channel")
        )


def bloch_to_density(state) -> np.ndarray:
    """Density matrix (I + a . sigma) / 2 for a Bloch vector of length <= 1;
    for an (m, 3) stack, an (m, 2, 2) stack equal to the one-state calls."""
    a1, a2, a3 = _as_states(state).T[..., None, None]
    return 0.5 * (IDENTITY + a1 * PAULI_X + a2 * PAULI_Y + a3 * PAULI_Z)


def _density_matrices(rho) -> np.ndarray:
    """rho as a complex 2x2 matrix or (m, 2, 2) stack with finite entries."""
    shape = np.shape(rho)
    if len(shape) not in (2, 3) or shape[-2:] != (2, 2):
        raise ValueError(
            f"expected a 2x2 density matrix or an (m, 2, 2) stack, got shape {shape}"
        )
    return _as_complex_matrices(rho)


def _paired(channel: KrausChannel, rho) -> tuple[np.ndarray, np.ndarray]:
    """The channel's operators and rho as `_density_matrices` checks it; a
    stack of n channels pairs only with one rho or a stack of n."""
    rho = _density_matrices(rho)
    ops = channel.operators
    if ops.ndim == 4 and rho.ndim == 3 and len(ops) != len(rho):
        raise ValueError(f"a stack of {len(ops)} channels needs one density matrix "
                         f"or a stack of {len(ops)}, got a stack of {len(rho)}")
    return ops, rho


def density_to_bloch(rho):
    """Bloch components a_i = Tr(rho sigma_i); inverse of bloch_to_density.

    A (3,) array for one matrix; an (m, 3) array, one row per matrix, for
    a stack. Every row must satisfy |a|^2 <= 1 within 1e-12.
    """
    rho = _density_matrices(rho)
    return _bloch_rows(np.einsum("...ab,iba->...i", rho, _PAULI_STACK).real, "matrix")


def spectrum_entropy(values):
    """Entropy in bits of a probability-like spectrum, or of each row of a
    stack of spectra (the last axis).

    0 log 0 is taken as 0. Values in [-1e-10, 0) are clamped to 0 as
    rounding noise; anything more negative, and any value that is not
    finite, is rejected. One spectrum gives a numpy scalar, a stack gives
    an array with one entropy per row.
    """
    p = np.asarray(values, dtype=float)
    finite = np.isfinite(p)
    if not finite.all():
        raise ValueError(
            "spectrum values must be finite" + _where(~finite.all(axis=-1), "row")
        )
    lowest = p.min(initial=0.0)
    if lowest < _EIG_FLOOR:
        raise ValueError(f"not positive semidefinite: eigenvalue {lowest:.3e}")
    # Clamped and zero values become 1, whose term 1 log 1 is exactly 0.
    q = np.where(p > 0.0, p, 1.0)
    total = 0.0 - (q * np.log2(q)).sum(axis=-1)
    return total


def von_neumann_entropy(rho):
    """Entropy in bits of a density matrix, from its eigenvalues; an array
    of entropies for a stack of them."""
    return spectrum_entropy(hermitian_eigenvalues(rho))


def apply_channel(channel: KrausChannel, rho) -> np.ndarray:
    """Push a density matrix, or each of a stack, through the channel:
    sum_i A_i rho A_i^dag.

    The operator set must satisfy completeness within 1e-10, which is what
    guarantees the output trace stays 1.
    """
    _require_complete(channel)
    ops, rho = _paired(channel, rho)
    # A_k rho, then (A_k rho) A_k^dag, each adding its b = 0 term and then
    # its b = 1 term, then the operators in k order, whatever the leading axes.
    rho = rho[..., None, None, :, :]
    left = ops[..., 0, None] * rho[..., 0, :] + ops[..., 1, None] * rho[..., 1, :]
    adjoint = ops.conj()[..., None, :, :]
    terms = left[..., 0, None] * adjoint[..., 0] + left[..., 1, None] * adjoint[..., 1]
    return terms.sum(axis=-3)


def exchange_matrix(channel: KrausChannel, rho) -> np.ndarray:
    """k x k matrix W with W[i][j] = Tr(A_i rho A_j^dag); an (m, k, k)
    stack for a stack of density matrices.

    Hermitian, unit trace and positive semidefinite for a valid channel
    and state; its spectrum carries the entropy exchanged with the
    environment.
    """
    ops, rho = _paired(channel, rho)
    return np.einsum("...iab,...bc,...jac->...ij", ops, rho, ops.conj())


def entropy_exchange(channel: KrausChannel, rho):
    """Entropy in bits of the exchange matrix: the channel's noise measure."""
    _require_complete(channel)
    return von_neumann_entropy(exchange_matrix(channel, rho))


def _normalized_output(channel: KrausChannel, rho) -> np.ndarray:
    out = apply_channel(channel, rho)
    return out / np.trace(out, axis1=-2, axis2=-1).real[..., None, None]


def coherent_information(channel: KrausChannel, rho):
    """Output entropy minus entropy exchange, in bits; may be negative.

    The output is renormalized by its trace before taking the entropy so
    rounding in the Kraus sum cannot skew the balance.
    """
    out = _normalized_output(channel, rho)
    return von_neumann_entropy(out) - entropy_exchange(channel, rho)


def entangled_fidelity(channel: KrausChannel, rho):
    """sum_mu Tr(rho A_mu) Tr(rho A_mu^dag), in [0, 1].

    Measures how well the channel preserves the state together with any
    entanglement it carries. The sum is real up to rounding; an imaginary
    residue above 1e-12 is an error, below it is discarded. One matrix
    gives a numpy scalar, a stack an array with one fidelity per matrix.
    """
    ops, rho = _paired(channel, rho)
    # Tr(rho A_mu) sums rho[a, b] (A_mu^T)[a, b]. With A^T copied in C order,
    # as rho is, einsum adds the four products in the same order whatever
    # the leading axes; over a transposed view it may not, and a stack's
    # row would round apart from its channel alone.
    traces = np.einsum("...ab,...kab->...k", rho, ops.swapaxes(-1, -2).copy())
    # (A^dag)[b, a] = conj(A[a, b]), so this is Tr(rho A_mu^dag).
    adjoint_traces = np.einsum("...ab,...kab->...k", rho, ops.conj())
    total = (traces * adjoint_traces).sum(axis=-1)
    non_real = np.abs(total.imag) > _FIDELITY_IMAG_TOL
    if non_real.any():
        imag = total.imag.flat[int(np.argmax(non_real))]
        raise ValueError(
            f"entangled fidelity came out non-real: imaginary part {imag:.3e}"
            + _where(non_real)
        )
    return total.real


def environment_output(channel: KrausChannel, rho) -> np.ndarray:
    """Environment state after routing rho through the channel's dilation.

    The channel is embedded in a joint system-environment evolution with
    the environment starting in a pure state: the Stinespring isometry
    V = sum_i |i> (x) A_i, a (2k, 2) array, takes rho to the joint state
    V rho V^dag, and tracing out the system leaves the environment's
    reduced k x k density matrix (an (m, k, k) stack for a stack of rho).
    Its spectrum must match the exchange matrix spectrum; it is computed
    through this separate route precisely so the two can cross-check.
    """
    ops, rho = _paired(channel, rho)
    k = ops.shape[-3]
    isometry = ops.reshape(ops.shape[:-3] + (2 * k, 2))
    joint = np.einsum("...xa,...ab,...yb->...xy", isometry, rho, isometry.conj())
    return np.einsum("...iaja->...ij", joint.reshape(joint.shape[:-2] + (k, 2, k, 2)))
