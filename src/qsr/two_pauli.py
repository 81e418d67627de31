"""The two-Pauli channel family and its closed forms.

A single rate x in [0, 1] is the probability of leaving the qubit alone;
otherwise one of sigma_x, sigma_y is applied with probability (1 - x)/2
each. Every quantity here has a closed form as well as a generic route
through `qsr.channel`, so the two paths can cross-validate each other.
The closed forms take a 1-D array of rates, or one rate as an array of
length 1, and evaluate every rate in one pass, which is how a sweep is
computed.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import (
    ChannelMetrics,
    IDENTITY,
    KrausChannel,
    PAULI_X,
    PAULI_Y,
    as_bloch,
    spectrum_entropy,
)
from .linalg import hermitian_eigenvalues


def _check_rate(x) -> np.ndarray:
    """x as a 1-D float array (one rate gives length 1); every rate must be
    in [0, 1]."""
    rates = np.atleast_1d(np.asarray(x, dtype=float))
    if rates.ndim > 1:
        raise ValueError(f"flipping rates must form a 1-D array, got shape {rates.shape}")
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


def analytic_output_bloch(state, x) -> np.ndarray:
    """Channel action on the Bloch vector: (a1 x, a2 x, a3 (2x - 1)), as an
    (n, 3) array with one row per rate."""
    state = as_bloch(state)
    x = _check_rate(x)
    components = (state.a1 * x, state.a2 * x, state.a3 * (2.0 * x - 1.0))
    return np.stack(components, axis=-1)


def analytic_exchange_matrix(state, x) -> np.ndarray:
    """Closed-form 3x3 exchange matrix for the two-Pauli channel.

    Matches `qsr.channel.exchange_matrix` on the channel from
    `make_two_pauli` entrywise, including the off-diagonal phases that the
    -i convention on the sigma_y operator produces. Returns an (n, 3, 3)
    stack, one matrix per rate.
    """
    state = as_bloch(state)
    x = _check_rate(x)
    root = np.sqrt(0.5 * x * (1.0 - x))
    half = 0.5 * (1.0 - x)
    w = np.zeros(x.shape + (3, 3), dtype=complex)
    w[..., 0, 0] = x
    w[..., 0, 1] = w[..., 1, 0] = state.a1 * root
    w[..., 0, 2] = 1j * state.a2 * root
    w[..., 2, 0] = -1j * state.a2 * root
    w[..., 1, 1] = w[..., 2, 2] = half
    w[..., 1, 2] = w[..., 2, 1] = state.a3 * half
    return w


def analytic_output_entropy(state, x) -> np.ndarray:
    """Output entropy in bits from the output Bloch length |b|.

    The output eigenvalues are (1 +- |b|)/2 with
    |b|^2 = (a1^2 + a2^2) x^2 + a3^2 (1 - 2x)^2.
    """
    state = as_bloch(state)
    x = _check_rate(x)
    planar = state.a1 * state.a1 + state.a2 * state.a2
    axial = 1.0 - 2.0 * x
    r = np.sqrt(planar * x * x + state.a3 * state.a3 * axial * axial)
    return spectrum_entropy(np.stack((0.5 * (1.0 + r), 0.5 * (1.0 - r)), axis=-1))


def analytic_fidelity(state, x) -> np.ndarray:
    """Entangled fidelity (a1^2 + a2^2)(1 - x)/2 + x."""
    state = as_bloch(state)
    x = _check_rate(x)
    planar = state.a1 * state.a1 + state.a2 * state.a2
    return 0.5 * planar * (1.0 - x) + x


def two_pauli_metrics(state, x) -> ChannelMetrics:
    """All figures of merit as columns over a 1-D array of rates (one rate
    gives columns of length 1).

    The noise is the entropy of the closed-form exchange matrix spectrum;
    all spectra come from one eigensolve of the stacked matrices. Output
    entropy, fidelity and the output state come from their closed forms;
    coherent information is stored as output entropy minus noise.
    """
    state = as_bloch(state)
    x = _check_rate(x)
    noise = spectrum_entropy(hermitian_eigenvalues(analytic_exchange_matrix(state, x)))
    output_entropy = analytic_output_entropy(state, x)
    return ChannelMetrics(
        x=x,
        noise=noise,
        output_entropy=output_entropy,
        coherent_info=output_entropy - noise,
        fidelity=analytic_fidelity(state, x),
        output_bloch=analytic_output_bloch(state, x),
    )
