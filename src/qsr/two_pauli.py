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

The noise is the entropy of the exchange-matrix spectrum, solved in
closed form. That spectrum is the root set of the cubic
p(l) = l^3 - l^2 + e2 l - D, with e2 = x h (2 - P) + h^2 (1 - a3^2),
D = x h^2 delta, h = (1 - x)/2, P = a1^2 + a2^2 and delta = 1 - |a|^2.
Newton's method finds the smallest root from l = 0, where p(0) = -D <= 0;
it climbs monotonically, because that root is at most 1/3 and p is
concave below 1/3. The cubic is evaluated in l near 0 and, shifted to
the cluster centre mu = l - h, as q(mu) = mu^3 - c mu^2 - K mu + c w^2
elsewhere, with c = (3x - 1)/2, K = P x h + a3^2 h^2 and w^2 = a3^2 h^2:
each form keeps its terms small where the other cancels. Deflation gives
the other two roots, mu = ((c - mu0) +- s)/2 with
s^2 = c^2 + 2 c mu0 - 3 mu0^2 + 4K, so the three sum to 1. A
pure input (delta <= 0) has the spectrum {0, (1 +- |b|)/2}, whose
entropy is the output entropy, so its coherent information is exactly 0.
`analytic_exchange_matrix` and LAPACK stay as the oracle, and every
`two_pauli_metrics` call checks the first and last sample of each of its
states against them.

The noise and the output entropy are computed in fixed blocks of at most
_BLOCK samples: whole rows of ``max(1, _BLOCK // n)`` states by
``min(n, _BLOCK)`` of the n rates, so one state is solved in runs of
_BLOCK rates. The fidelity and output state run over all states and
rates at once.
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

#: Samples per block of the noise and output-entropy solve in
#: `two_pauli_metrics`, and rows per write of the CLI's CSV files: large
#: enough that the per-block overhead does not show, small enough that a
#: block's columns and their temporaries stay well under a megabyte.
_BLOCK = 2048

#: Newton steps on a root stop once a step is below this fraction of the
#: root. Near a simple root the error left is about the square of that
#: step; near a double or triple root it is about one step, but the
#: entropy of the pair moves only with its square.
_NEWTON_RTOL = 1e-8

#: Most Newton steps on a root. Left of every root, a step shrinks the gap
#: to the smallest by at least a third, and the first gap is at most 1/3,
#: so 64 steps leave at most (2/3)^64 / 3, or 1.8e-12, at the triple root
#: of (0, 0, 0) at x = 1/3; a double root halves the gap each step. The
#: stop comes first: after 44 steps at that triple root, and after at most
#: 12 on 2,000 random mixed states at 2,001 rates each.
_NEWTON_STEPS = 64

#: Largest gap, in bits, between the closed-form noise and LAPACK's on
#: the samples that `two_pauli_metrics` checks.
_SPOT_TOL = 1e-12


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


def _lowest_root(e2, d, c, k, cw2, h) -> tuple[np.ndarray, int]:
    """The smallest root of the module docstring's cubic, for flat arrays
    of its coefficients, by Newton's method from l = 0; and the most steps
    any root took. A root stops once its step falls below _NEWTON_RTOL of
    it, or once p is no longer below 0 with a positive slope (rounding has
    reached the root); none takes more than _NEWTON_STEPS steps."""
    roots = np.zeros(len(e2))
    live = np.arange(len(e2))
    steps = 0
    while live.size and steps < _NEWTON_STEPS:
        steps += 1
        t, centre = roots[live], h[live]
        mu = t - centre
        near = t < 0.5 * centre
        cc, kk, ee = c[live], k[live], e2[live]
        p = np.where(near, ((t - 1.0) * t + ee) * t - d[live],
                     ((mu - cc) * mu - kk) * mu + cw2[live])
        dp = np.where(near, (3.0 * t - 2.0) * t + ee, (3.0 * mu - 2.0 * cc) * mu - kk)
        below = (p < 0.0) & (dp > 0.0)
        live, t = live[below], t[below]
        new = t - p[below] / dp[below]
        roots[live] = new
        live = live[new - t > _NEWTON_RTOL * new]
    return roots, steps


def _exchange_spectrum(a1, a2, a3, x) -> np.ndarray:
    """The exchange-matrix spectrum in closed form, ascending along a last
    axis of length 3, for components that broadcast against the rates x."""
    planar = a1 * a1 + a2 * a2
    axial = a3 * a3
    h = 0.5 * (1.0 - x)
    c = 0.5 * (3.0 * x - 1.0)
    w2 = axial * h * h
    k = planar * x * h + w2
    e2 = x * h * (2.0 - planar) + h * h * (1.0 - axial)
    d = x * h * h * (1.0 - (planar + axial))
    c, k, cw2, h, e2, d = (a.ravel() for a in np.broadcast_arrays(c, k, c * w2, h, e2, d))
    low, _ = _lowest_root(e2, d, c, k, cw2, h)
    mu = low - h
    s = np.sqrt(np.maximum(c * c + 2.0 * c * mu - 3.0 * mu * mu + 4.0 * k, 0.0))
    mid = h + 0.5 * (c - mu)
    shape = np.broadcast_shapes(np.shape(a1), np.shape(x)) + (3,)
    return np.stack((low, mid - 0.5 * s, mid + 0.5 * s), axis=-1).reshape(shape)


def _spot_check(state, x, noise) -> None:
    """Raise ValueError unless the noise of the first and the last sample
    of every state is within _SPOT_TOL of the entropy of LAPACK's exchange
    spectrum, all solved in one call."""
    ends = [0, -1]
    w = analytic_exchange_matrix(state, x[ends])
    want = spectrum_entropy(hermitian_eigenvalues(w.reshape(-1, 3, 3)))
    gap = float(np.abs(noise[..., ends].reshape(-1) - want).max())
    if not gap <= _SPOT_TOL:
        raise ValueError(
            f"closed-form noise is {gap:.3e} bits from the eigensolver's, more than {_SPOT_TOL:g}")


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

    The noise is the entropy of the closed-form exchange spectrum of the
    module docstring, and a pure state's noise is its output entropy.
    Both are computed in the blocks of the module docstring, sample by
    sample, so they do not depend on the block size. The first and the
    last sample's noise of every state are checked against LAPACK's
    eigensolve of `analytic_exchange_matrix`, in one batched call; a gap
    over _SPOT_TOL raises ValueError.
    Coherent information is stored as output entropy minus noise. The
    entangled fidelity is (a1^2 + a2^2)(1 - x)/2 + x and the output Bloch
    vector is (a1 x, a2 x, a3 (2x - 1)), one row per rate.
    """
    state, lead, (a1, a2, a3) = _as_states(state)
    x = _check_rate(x)
    planar = a1 * a1 + a2 * a2
    pure = 1.0 - (planar + a3 * a3) <= 0.0
    noise = np.empty(lead + x.shape)
    output_entropy = np.empty_like(noise)
    noise_rows = noise.reshape(-1, len(x))  # views: one row per state
    entropy_rows = output_entropy.reshape(-1, len(x))
    per_block = max(1, _BLOCK // len(x))
    for top in range(0, len(noise_rows), per_block):
        rows = slice(top, top + per_block)
        if lead:
            states, (b1, b2, b3, is_pure) = state[rows], (a[rows] for a in (a1, a2, a3, pure))
        else:
            states, b1, b2, b3, is_pure = state, a1, a2, a3, pure
        for start in range(0, len(x), _BLOCK):
            cols = slice(start, start + _BLOCK)
            entropy = analytic_output_entropy(states, x[cols])
            entropy_rows[rows, cols] = entropy
            noise_rows[rows, cols] = np.where(
                is_pure, entropy, spectrum_entropy(_exchange_spectrum(b1, b2, b3, x[cols])))
    _spot_check(state, x, noise)
    # Written a column at a time: np.stack would hold three more columns.
    output_bloch = np.empty(lead + x.shape + (3,))
    output_bloch[..., 0] = a1 * x
    output_bloch[..., 1] = a2 * x
    output_bloch[..., 2] = a3 * (2.0 * x - 1.0)
    return SweepCurve(
        state=state,
        x=x,
        noise=noise,
        output_entropy=output_entropy,
        coherent_info=output_entropy - noise,
        fidelity=0.5 * planar * (1.0 - x) + x,
        output_bloch=output_bloch,
    )
