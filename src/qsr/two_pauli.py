"""The two-Pauli channel family and its closed forms.

A single rate x in [0, 1] is the probability of leaving the qubit alone;
otherwise one of sigma_x, sigma_y is applied with probability (1 - x)/2
each. Every quantity here has a closed form as well as a generic route
through `qsr.channel`, so the two paths can cross-validate each other.
The closed forms take one rate or a 1-D array of rates; an array is
evaluated elementwise in one pass, which is how a sweep is computed.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import (
    BlochVector,
    ChannelMetrics,
    IDENTITY,
    KrausChannel,
    PAULI_X,
    PAULI_Y,
    as_bloch,
    spectrum_entropy,
)
from .linalg import hermitian_eigenvalues


def _check_rate(x):
    """x as a float, or as a 1-D float array; every rate must be in [0, 1]."""
    rates = np.asarray(x, dtype=float)
    if rates.ndim > 1:
        raise ValueError(f"flipping rates must form a 1-D array, got shape {rates.shape}")
    bad = rates[~((rates >= 0.0) & (rates <= 1.0))]
    if bad.size:
        raise ValueError(f"flipping rate must be in [0, 1], got {float(bad[0])!r}")
    return float(rates) if rates.ndim == 0 else rates


def make_two_pauli(x: float) -> KrausChannel:
    """Kraus channel: identity with probability x, else sigma_x or sigma_y.

    Operator order is fixed as (identity term, sigma_x term, sigma_y term)
    and the sigma_y operator carries a -i phase. Both conventions are load
    bearing: the closed-form exchange matrix in this module matches this
    layout entry for entry, not just spectrally.
    """
    x = _check_rate(x)
    amp = math.sqrt(0.5 * (1.0 - x))
    ops = (
        math.sqrt(x) * IDENTITY,
        amp * PAULI_X,
        (-1j * amp) * PAULI_Y,
    )
    return KrausChannel(ops, label=f"two-pauli(x={x:g})")


def analytic_output_bloch(state, x):
    """Channel action on the Bloch vector: (a1 x, a2 x, a3 (2x - 1)).

    A BlochVector for one rate; an (n, 3) array, one row per rate, for a
    1-D array of rates.
    """
    state = as_bloch(state)
    x = _check_rate(x)
    components = (state.a1 * x, state.a2 * x, state.a3 * (2.0 * x - 1.0))
    if isinstance(x, float):
        return BlochVector(*components)
    return np.stack(components, axis=-1)


def analytic_exchange_matrix(state, x) -> np.ndarray:
    """Closed-form 3x3 exchange matrix for the two-Pauli channel.

    Matches `qsr.channel.exchange_matrix` on the channel from
    `make_two_pauli` entrywise, including the off-diagonal phases that the
    -i convention on the sigma_y operator produces. A 1-D array of rates
    gives an (n, 3, 3) stack.
    """
    state = as_bloch(state)
    x = _check_rate(x)
    root = np.sqrt(0.5 * x * (1.0 - x))
    half = 0.5 * (1.0 - x)
    w = np.zeros(np.shape(x) + (3, 3), dtype=complex)
    w[..., 0, 0] = x
    w[..., 0, 1] = w[..., 1, 0] = state.a1 * root
    w[..., 0, 2] = 1j * state.a2 * root
    w[..., 2, 0] = -1j * state.a2 * root
    w[..., 1, 1] = w[..., 2, 2] = half
    w[..., 1, 2] = w[..., 2, 1] = state.a3 * half
    return w


def analytic_output_entropy(state, x):
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


def analytic_fidelity(state, x):
    """Entangled fidelity (a1^2 + a2^2)(1 - x)/2 + x."""
    state = as_bloch(state)
    x = _check_rate(x)
    planar = state.a1 * state.a1 + state.a2 * state.a2
    return 0.5 * planar * (1.0 - x) + x


def two_pauli_metrics(state, x) -> ChannelMetrics:
    """All figures of merit for one rate, or for a 1-D array of rates.

    The noise is the entropy of the closed-form exchange matrix spectrum;
    for an array of rates all spectra come from one eigensolve of the
    stacked matrices. Output entropy, fidelity and the output state come
    from their closed forms; coherent information is stored as output
    entropy minus noise. A float rate gives float fields, an array gives
    array fields (see `ChannelMetrics`).
    """
    state = as_bloch(state)
    x = _check_rate(x)
    noise = spectrum_entropy(hermitian_eigenvalues(analytic_exchange_matrix(state, x)))
    output_entropy = analytic_output_entropy(state, x)
    norm = state.norm
    input_entropy = spectrum_entropy((0.5 * (1.0 + norm), 0.5 * (1.0 - norm)))
    return ChannelMetrics(
        x=x,
        noise=noise,
        output_entropy=output_entropy,
        coherent_info=output_entropy - noise,
        mutual_info=input_entropy + output_entropy - noise,
        fidelity=analytic_fidelity(state, x),
        output_bloch=analytic_output_bloch(state, x),
    )
