"""Single-qubit noisy channels built from Kraus operators.

Provides Bloch-vector / density-matrix conversions, channel application,
the exchange matrix and its entropy (the noise handed to the environment),
coherent information, entangled fidelity, and an explicit
system-environment dilation that serves as an independent cross-check of
the exchange matrix.

Every function of the generic route takes rho as one 2x2 density matrix
or as an (m, 2, 2) stack of them, and evaluates a stack in one pass over
the stacked Kraus operators. One matrix gives a float, a BlochVector or a
matrix; a stack gives an array with one row per matrix. Every check
applies to each matrix of a stack, and an error names the first matrix
that fails it.

All entropies are in bits (base-2 logarithms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import hermitian_eigenvalues

IDENTITY = np.array([[1, 0], [0, 1]], dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)
_PAULI_STACK = np.stack(PAULIS)

#: Most Kraus operators a channel may carry (keeps the eigensolver small).
MAX_OPERATORS = 6

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
        for name in ("a1", "a2", "a3"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"Bloch component {name} must be finite")
            object.__setattr__(self, name, value)
        if self.norm_squared > 1.0 + BLOCH_NORM_TOL:
            raise ValueError(
                f"unphysical Bloch vector: |a|^2 = {self.norm_squared:.12g} > 1"
            )

    @property
    def norm_squared(self) -> float:
        return self.a1 * self.a1 + self.a2 * self.a2 + self.a3 * self.a3

    @property
    def norm(self) -> float:
        return math.sqrt(self.norm_squared)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.a1, self.a2, self.a3)


def as_bloch(state) -> BlochVector:
    """Coerce a BlochVector or a 3-sequence of reals into a BlochVector."""
    if isinstance(state, BlochVector):
        return state
    values = tuple(state)
    if len(values) != 3:
        raise ValueError(f"expected 3 Bloch components, got {len(values)}")
    return BlochVector(*values)


@dataclass(frozen=True)
class KrausChannel:
    """Ordered 2x2 Kraus operators defining rho -> sum_i A_i rho A_i^dag.

    Construction checks shapes and finiteness only and stacks the
    operators into the (k, 2, 2) array ``stack`` that every function of
    the generic route evaluates. Completeness (sum_i A_i^dag A_i = I) is
    checked where it matters, on first use, so deliberately broken
    operator sets can still be built and diagnosed with
    `completeness_residual`.
    """

    operators: tuple
    label: str = ""
    stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ops = tuple(np.array(op, dtype=complex) for op in self.operators)
        if not 1 <= len(ops) <= MAX_OPERATORS:
            raise ValueError(
                f"channel needs 1..{MAX_OPERATORS} Kraus operators, got {len(ops)}"
            )
        for op in ops:
            if op.shape != (2, 2):
                raise ValueError(f"Kraus operators must be 2x2, got {op.shape}")
            if not np.isfinite(op).all():
                raise ValueError("Kraus operator entries must be finite")
        object.__setattr__(self, "operators", ops)
        object.__setattr__(self, "stack", np.stack(ops))

    @cached_property
    def _residual(self) -> float:
        return completeness_residual(self)


@dataclass(frozen=True)
class ChannelMetrics:
    """A channel's figures of merit over a 1-D array of control settings x.

    Every field is an array with one entry per rate; output_bloch is an
    (n, 3) array, one row per rate. noise, output_entropy and
    coherent_info are in bits; coherent_info is stored as exactly
    output_entropy - noise.
    """

    x: np.ndarray
    noise: np.ndarray
    output_entropy: np.ndarray
    coherent_info: np.ndarray
    fidelity: np.ndarray
    output_bloch: np.ndarray


def completeness_residual(channel: KrausChannel) -> float:
    """Max-norm of sum_i A_i^dag A_i - I; zero for a trace-preserving set."""
    acc = np.zeros((2, 2), dtype=complex)
    for op in channel.operators:
        acc += op.conj().T @ op
    return float(np.abs(acc - IDENTITY).max())


def _require_complete(channel: KrausChannel) -> None:
    residual = channel._residual
    if residual > COMPLETENESS_TOL:
        name = channel.label or "channel"
        raise ValueError(
            f"{name} violates the completeness relation: residual {residual:.3e}"
        )


def bloch_to_density(state) -> np.ndarray:
    """Density matrix (I + a . sigma) / 2 for a Bloch vector of length <= 1."""
    state = as_bloch(state)
    return 0.5 * (
        IDENTITY + state.a1 * PAULI_X + state.a2 * PAULI_Y + state.a3 * PAULI_Z
    )


def _where(mat: np.ndarray, flagged) -> str:
    """Where a check failed: the first flagged matrix of a stack, or ''."""
    if mat.ndim == 2:
        return ""
    return f" in matrix {int(np.argmax(flagged))} of the stack"


def _density_matrices(rho) -> np.ndarray:
    """rho as a complex 2x2 matrix or (m, 2, 2) stack with finite entries."""
    mat = np.asarray(rho, dtype=complex)
    if mat.ndim not in (2, 3) or mat.shape[-2:] != (2, 2):
        raise ValueError(
            f"expected a 2x2 density matrix or an (m, 2, 2) stack, got shape {mat.shape}"
        )
    finite = np.isfinite(mat).all(axis=(-2, -1))
    if not finite.all():
        raise ValueError("density matrix entries must be finite" + _where(mat, ~finite))
    return mat


def density_to_bloch(rho):
    """Bloch components a_i = Tr(rho sigma_i); inverse of bloch_to_density.

    A BlochVector for one matrix; an (m, 3) array, one row per matrix, for
    a stack. Every row must satisfy |a|^2 <= 1 within 1e-12.
    """
    rho = _density_matrices(rho)
    bloch = np.einsum("...ab,iba->...i", rho, _PAULI_STACK).real
    if rho.ndim == 2:
        return BlochVector(*bloch)
    norm_squared = (bloch * bloch).sum(axis=-1)
    unphysical = norm_squared > 1.0 + BLOCH_NORM_TOL
    if unphysical.any():
        worst = norm_squared[int(np.argmax(unphysical))]
        raise ValueError(
            f"unphysical Bloch vector: |a|^2 = {worst:.12g} > 1" + _where(rho, unphysical)
        )
    return bloch


def spectrum_entropy(values):
    """Entropy in bits of a probability-like spectrum, or of each row of a
    stack of spectra (the last axis).

    0 log 0 is taken as 0. Values in [-1e-10, 0) are clamped to 0 as
    rounding noise; anything more negative, and any value that is not
    finite, is rejected. One spectrum gives a float, a stack gives an
    array with one entropy per row.
    """
    p = np.asarray(values, dtype=float)
    if not np.isfinite(p).all():
        where = ""
        if p.ndim > 1:
            where = f" in row {int(np.argmax(~np.isfinite(p).all(axis=-1)))} of the stack"
        raise ValueError(f"spectrum values must be finite{where}")
    lowest = p.min(initial=0.0)
    if lowest < _EIG_FLOOR:
        raise ValueError(f"not positive semidefinite: eigenvalue {lowest:.3e}")
    # Clamped and zero values become 1, whose term 1 log 1 is exactly 0.
    q = np.where(p > 0.0, p, 1.0)
    total = 0.0 - (q * np.log2(q)).sum(axis=-1)
    return float(total) if p.ndim <= 1 else total


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
    rho = _density_matrices(rho)
    return np.einsum("kab,...bc,kdc->...ad", channel.stack, rho, channel.stack.conj())


def exchange_matrix(channel: KrausChannel, rho) -> np.ndarray:
    """k x k matrix W with W[i][j] = Tr(A_i rho A_j^dag); an (m, k, k)
    stack for a stack of density matrices.

    Hermitian, unit trace and positive semidefinite for a valid channel
    and state; its spectrum carries the entropy exchanged with the
    environment.
    """
    rho = _density_matrices(rho)
    return np.einsum("iab,...bc,jac->...ij", channel.stack, rho, channel.stack.conj())


def entropy_exchange(channel: KrausChannel, rho):
    """Entropy in bits of the exchange matrix: the channel's noise measure."""
    _require_complete(channel)
    w = exchange_matrix(channel, rho)
    return spectrum_entropy(hermitian_eigenvalues(w))


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
    residue above 1e-12 is an error, below it is discarded.
    """
    rho = _density_matrices(rho)
    traces = np.einsum("...ab,kba->...k", rho, channel.stack)
    # (A^dag)[b, a] = conj(A[a, b]), so this is Tr(rho A_mu^dag).
    adjoint_traces = np.einsum("...ab,kab->...k", rho, channel.stack.conj())
    total = (traces * adjoint_traces).sum(axis=-1)
    non_real = np.abs(total.imag) > _FIDELITY_IMAG_TOL
    if non_real.any():
        imag = total.imag.flat[int(np.argmax(non_real))]
        raise ValueError(
            f"entangled fidelity came out non-real: imaginary part {imag:.3e}"
            + _where(rho, non_real)
        )
    return float(total.real) if rho.ndim == 2 else total.real


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
    rho = _density_matrices(rho)
    k = len(channel.operators)
    isometry = channel.stack.reshape(2 * k, 2)
    joint = np.einsum("xa,...ab,yb->...xy", isometry, rho, isometry.conj())
    return np.einsum("...iaja->...ij", joint.reshape(rho.shape[:-2] + (k, 2, k, 2)))
