"""The two-Pauli channel family and its closed forms.

A single rate x in [0, 1] is the probability of leaving the qubit alone;
otherwise one of sigma_x, sigma_y is applied with probability (1 - x)/2
each. Every quantity here has a closed form as well as a generic route
through `qsr.channel`, so the two paths can cross-validate each other.
The closed forms take a 1-D array of rates, or one rate as an array of
length 1, and evaluate every rate in one pass; `two_pauli_metrics`
gathers them into one `SweepCurve`, which is how a sweep is computed.

The state is one Bloch vector (a `BlochVector` or three reals) or an
``(m, 3)`` float array of them, one state per row; the array is the one
form of a stack, checked in one array pass, and an error names the first
row that fails. Results follow numpy's leading-axis rule: a stack puts a
leading axis of length m in front of the one-state shape, so row i equals
the call on state i alone, bit for bit.

Only the exchange-matrix spectra are solved in fixed blocks of at most
_BLOCK matrices: whole rows of ``max(1, _BLOCK // n)`` states by
``min(n, _BLOCK)`` of the n rates, so one state is solved in runs of
_BLOCK rates. The output entropy, fidelity and output state run over all
states and rates at once, so their temporaries grow with the stack and
the sweep's length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    BlochVector,
    IDENTITY,
    KrausChannel,
    PAULI_X,
    PAULI_Y,
    _as_states,
    spectrum_entropy,
)
from .linalg import hermitian_eigenvalues

#: Exchange matrices per block solved at once in `two_pauli_metrics`,
#: and rows per write of the CLI's CSV files: large enough that the
#: per-block overhead does not show, small enough that a block's (3, 3)
#: complex stack and its temporaries stay under a megabyte.
_BLOCK = 2048


def _check_rate(x) -> np.ndarray:
    """x as a non-empty 1-D float array (one rate gives length 1); every
    rate must be in [0, 1]."""
    rates = np.atleast_1d(np.asarray(x, dtype=float))
    if rates.ndim > 1 or not rates.size:
        raise ValueError(f"flipping rates must be a non-empty 1-D array, got shape {rates.shape}")
    bad = rates[~((rates >= 0.0) & (rates <= 1.0))]
    if bad.size:
        raise ValueError(f"flipping rate must be in [0, 1], got {float(bad[0])!r}")
    return rates


def make_two_pauli(x: float) -> KrausChannel:
    """Kraus channel: identity with probability x, else sigma_x or sigma_y.

    Operator order is fixed as (identity term, sigma_x term, sigma_y term)
    and the sigma_y operator carries a -i phase. Both conventions are load
    bearing: the closed-form exchange matrix in this module matches this
    layout entry for entry, not just spectrally.
    """
    x = float(x)
    _check_rate(x)
    amp = math.sqrt(0.5 * (1.0 - x))
    ops = (
        math.sqrt(x) * IDENTITY,
        amp * PAULI_X,
        (-1j * amp) * PAULI_Y,
    )
    return KrausChannel(ops, label=f"two-pauli(x={x:g})")


def analytic_exchange_matrix(state, x) -> np.ndarray:
    """Closed-form 3x3 exchange matrix for the two-Pauli channel.

    Matches `qsr.channel.exchange_matrix` on the channel from
    `make_two_pauli` entrywise, including the off-diagonal phases that the
    -i convention on the sigma_y operator produces. Returns an (n, 3, 3)
    stack, one matrix per rate; an (m, n, 3, 3) one for m states.
    """
    _, lead, (a1, a2, a3) = _as_states(state)
    x = _check_rate(x)
    root = np.sqrt(0.5 * x * (1.0 - x))
    half = 0.5 * (1.0 - x)
    w = np.zeros(lead + x.shape + (3, 3), dtype=complex)
    w[..., 0, 0] = x
    w[..., 0, 1] = w[..., 1, 0] = a1 * root
    w[..., 0, 2] = 1j * a2 * root
    w[..., 2, 0] = -1j * a2 * root
    w[..., 1, 1] = w[..., 2, 2] = half
    w[..., 1, 2] = w[..., 2, 1] = a3 * half
    return w


def analytic_output_entropy(state, x) -> np.ndarray:
    """Output entropy in bits from the output Bloch length |b|.

    The output eigenvalues are (1 +- |b|)/2 with
    |b|^2 = (a1^2 + a2^2) x^2 + a3^2 (1 - 2x)^2. One entropy per rate; an
    (m, n) array for m states.
    """
    _, _, (a1, a2, a3) = _as_states(state)
    x = _check_rate(x)
    planar = a1 * a1 + a2 * a2
    axial = 1.0 - 2.0 * x
    r = np.sqrt(planar * x * x + a3 * a3 * axial * axial)
    return spectrum_entropy(np.stack((0.5 * (1.0 + r), 0.5 * (1.0 - r)), axis=-1))


@dataclass(frozen=True, eq=False)
class SweepCurve:
    """The two-Pauli figures of merit of one input state as columns over a
    1-D array of rates ``x``.

    Every column holds one entry per rate; ``output_bloch`` is an (n, 3)
    array, one output Bloch vector per rate. Entropies are in bits and
    ``coherent_info`` is exactly ``output_entropy - noise``. For a stack
    of m states, ``state`` is their checked (m, 3) float array, which
    `two_pauli_metrics` takes back, and every column gains a leading axis
    of length m.
    """

    state: BlochVector | np.ndarray
    x: np.ndarray
    noise: np.ndarray
    coherent_info: np.ndarray
    fidelity: np.ndarray
    output_entropy: np.ndarray
    output_bloch: np.ndarray

    def __post_init__(self):
        shape = (len(self.x),)
        if not isinstance(self.state, BlochVector):
            shape = (len(self.state),) + shape
        columns = (self.noise, self.coherent_info, self.fidelity, self.output_entropy)
        if any(np.shape(c) != shape for c in columns) or np.shape(self.output_bloch) != shape + (3,):
            raise ValueError("every sweep column needs one entry per rate (and per state)")


def two_pauli_metrics(state, x) -> SweepCurve:
    """All figures of merit as columns over a 1-D array of rates (one rate
    gives columns of length 1), for one state or, with a leading axis, for
    each state of an (m, 3) stack.

    The noise is the entropy of the closed-form exchange matrix spectrum,
    built and solved in the blocks of the module docstring, each in one
    eigensolve with every check of the one-pass route. Each 3x3 matrix is
    solved on its own, so the noise does not depend on the block size.
    Coherent information is stored as output entropy minus noise. The
    entangled fidelity is (a1^2 + a2^2)(1 - x)/2 + x and the output Bloch
    vector is (a1 x, a2 x, a3 (2x - 1)), one row per rate.
    """
    state, lead, (a1, a2, a3) = _as_states(state)
    x = _check_rate(x)
    noise = np.empty(lead + x.shape)
    rows = noise.reshape(-1, len(x))  # a view: one row per state
    per_block = max(1, _BLOCK // len(x))
    for top in range(0, len(rows), per_block):
        states = state[top : top + per_block] if lead else state
        for start in range(0, len(x), _BLOCK):
            out = rows[top : top + per_block, start : start + _BLOCK]
            # Unnamed, so a block's matrices are freed once they are solved.
            out[...] = spectrum_entropy(hermitian_eigenvalues(
                analytic_exchange_matrix(states, x[start : start + _BLOCK]).reshape(-1, 3, 3)
            )).reshape(out.shape)
    output_entropy = analytic_output_entropy(state, x)
    planar = a1 * a1 + a2 * a2
    return SweepCurve(
        state=state,
        x=x,
        noise=noise,
        output_entropy=output_entropy,
        coherent_info=output_entropy - noise,
        fidelity=0.5 * planar * (1.0 - x) + x,
        output_bloch=np.stack((a1 * x, a2 * x, a3 * (2.0 * x - 1.0)), axis=-1),
    )
