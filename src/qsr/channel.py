"""Single-qubit noisy channels built from Kraus operators.

Provides Bloch-vector / density-matrix conversions, channel application,
the exchange matrix and its entropy (the noise handed to the environment),
coherent information, quantum mutual information, entangled fidelity, and
an explicit system-environment dilation that serves as an independent
cross-check of the exchange matrix.

All entropies are in bits (base-2 logarithms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import hermitian_eigenvalues

IDENTITY = np.array([[1, 0], [0, 1]], dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)

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

    def as_array(self) -> np.ndarray:
        return np.array(self.as_tuple())


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

    Construction checks shapes and finiteness only. Completeness
    (sum_i A_i^dag A_i = I) is checked where it matters, so deliberately
    broken operator sets can still be built and diagnosed with
    `completeness_residual`.
    """

    operators: tuple
    label: str = ""

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

    def __len__(self) -> int:
        return len(self.operators)


@dataclass(frozen=True)
class ChannelMetrics:
    """A channel's figures of merit at control setting x.

    For one rate x every field is a float and output_bloch a BlochVector;
    for a 1-D array of rates every field is an array of that length and
    output_bloch an (n, 3) array, one row per rate. noise, output_entropy,
    coherent_info and mutual_info are in bits; coherent_info is stored as
    exactly output_entropy - noise.
    """

    x: float | np.ndarray
    noise: float | np.ndarray
    output_entropy: float | np.ndarray
    coherent_info: float | np.ndarray
    mutual_info: float | np.ndarray
    fidelity: float | np.ndarray
    output_bloch: BlochVector | np.ndarray


def completeness_residual(channel: KrausChannel) -> float:
    """Max-norm of sum_i A_i^dag A_i - I; zero for a trace-preserving set."""
    acc = np.zeros((2, 2), dtype=complex)
    for op in channel.operators:
        acc += op.conj().T @ op
    return float(np.abs(acc - IDENTITY).max())


def _require_complete(channel: KrausChannel) -> None:
    residual = completeness_residual(channel)
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


def density_to_bloch(rho) -> BlochVector:
    """Bloch components a_i = Tr(rho sigma_i); inverse of bloch_to_density."""
    rho = np.asarray(rho, dtype=complex)
    return BlochVector(*(np.trace(rho @ pauli).real for pauli in PAULIS))


def spectrum_entropy(values):
    """Entropy in bits of a probability-like spectrum, or of each row of a
    stack of spectra (the last axis).

    0 log 0 is taken as 0. Values in [-1e-10, 0) are clamped to 0 as
    rounding noise; anything more negative is rejected. One spectrum gives
    a float, a stack gives an array with one entropy per row.
    """
    p = np.asarray(values, dtype=float)
    lowest = p.min(initial=0.0)
    if lowest < _EIG_FLOOR:
        raise ValueError(f"not positive semidefinite: eigenvalue {lowest:.3e}")
    # Clamped and zero values become 1, whose term 1 log 1 is exactly 0.
    q = np.where(p > 0.0, p, 1.0)
    total = 0.0 - (q * np.log2(q)).sum(axis=-1)
    return float(total) if p.ndim <= 1 else total


def von_neumann_entropy(rho, herm_tol: float = 1e-10) -> float:
    """Entropy in bits of a density matrix, from its eigenvalues."""
    return spectrum_entropy(hermitian_eigenvalues(rho, tol=herm_tol))


def apply_channel(channel: KrausChannel, rho) -> np.ndarray:
    """Push a density matrix through the channel: sum_i A_i rho A_i^dag.

    The operator set must satisfy completeness within 1e-10, which is what
    guarantees the output trace stays 1.
    """
    _require_complete(channel)
    rho = np.asarray(rho, dtype=complex)
    out = np.zeros((2, 2), dtype=complex)
    for op in channel.operators:
        out += op @ rho @ op.conj().T
    return out


def exchange_matrix(channel: KrausChannel, rho) -> np.ndarray:
    """k x k matrix W with W[i][j] = Tr(A_i rho A_j^dag).

    Hermitian, unit trace and positive semidefinite for a valid channel
    and state; its spectrum carries the entropy exchanged with the
    environment.
    """
    rho = np.asarray(rho, dtype=complex)
    ops = channel.operators
    k = len(ops)
    propagated = [op @ rho for op in ops]
    w = np.empty((k, k), dtype=complex)
    for i in range(k):
        for j in range(k):
            # vdot conjugates its first argument, so this is Tr(A_i rho A_j^dag).
            w[i, j] = np.vdot(ops[j], propagated[i])
    return w


def entropy_exchange(channel: KrausChannel, rho) -> float:
    """Entropy in bits of the exchange matrix: the channel's noise measure."""
    _require_complete(channel)
    w = exchange_matrix(channel, rho)
    return spectrum_entropy(hermitian_eigenvalues(w))


def _normalized_output(channel: KrausChannel, rho) -> np.ndarray:
    out = apply_channel(channel, rho)
    return out / np.trace(out).real


def coherent_information(channel: KrausChannel, rho) -> float:
    """Output entropy minus entropy exchange, in bits; may be negative.

    The output is renormalized by its trace before taking the entropy so
    rounding in the Kraus sum cannot skew the balance.
    """
    out = _normalized_output(channel, rho)
    return von_neumann_entropy(out) - entropy_exchange(channel, rho)


def quantum_mutual_information(channel: KrausChannel, rho) -> float:
    """Input entropy plus output entropy minus entropy exchange, in bits."""
    out = _normalized_output(channel, rho)
    return (
        von_neumann_entropy(rho)
        + von_neumann_entropy(out)
        - entropy_exchange(channel, rho)
    )


def entangled_fidelity(channel: KrausChannel, rho) -> float:
    """sum_mu Tr(rho A_mu) Tr(rho A_mu^dag), in [0, 1].

    Measures how well the channel preserves the state together with any
    entanglement it carries. The sum is real up to rounding; an imaginary
    residue above 1e-12 is an error, below it is discarded.
    """
    rho = np.asarray(rho, dtype=complex)
    total = 0j
    for op in channel.operators:
        total += np.trace(rho @ op) * np.trace(rho @ op.conj().T)
    if abs(total.imag) > _FIDELITY_IMAG_TOL:
        raise ValueError(
            f"entangled fidelity came out non-real: imaginary part {total.imag:.3e}"
        )
    return float(total.real)


def environment_output(channel: KrausChannel, rho) -> np.ndarray:
    """Environment state after routing rho through the channel's dilation.

    The channel is embedded in a joint system-environment evolution with
    the environment starting in a pure state: the joint output is the
    block matrix with (i, j) block A_i rho A_j^dag, and the environment's
    reduced k x k density matrix is obtained by tracing out the system.
    Its spectrum must match the exchange matrix spectrum; it is computed
    through this separate route precisely so the two can cross-check.
    """
    rho = np.asarray(rho, dtype=complex)
    ops = channel.operators
    k = len(ops)
    joint = np.zeros((2 * k, 2 * k), dtype=complex)
    for i in range(k):
        for j in range(k):
            joint[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = ops[i] @ rho @ ops[j].conj().T
    env = np.empty((k, k), dtype=complex)
    for i in range(k):
        for j in range(k):
            block = joint[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
            env[i, j] = block[0, 0] + block[1, 1]
    return env
