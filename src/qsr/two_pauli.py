"""The two-Pauli channel family and its closed forms.

A single rate x in [0, 1] is the probability of leaving the qubit alone;
otherwise one of sigma_x, sigma_y is applied with probability (1 - x)/2
each. Every quantity here has a closed form as well as a generic route
through `qsr.channel`, so the two paths can cross-validate each other.
The closed forms take a 1-D array of rates, or one rate as an array of
length 1, and evaluate every rate in one pass; `two_pauli_metrics`
gathers them into one `SweepCurve`, which is how a sweep is computed.

A state is a checked float array of Bloch rows: ``(3,)`` for one state
(given as a `BlochVector` or three reals) and ``(m, 3)`` for a stack,
checked in one array pass; an error names the first row that fails.
Results follow numpy's leading-axis rule: a stack puts a leading axis of
length m in front of the one-state shape, so row i equals the call on
state i alone, bit for bit.

The noise is the entropy of the exchange-matrix spectrum, solved in
closed form. That spectrum is the root set of the cubic
p(l) = l^3 - l^2 + e2 l - D, with e2 = x h (2 - P) + h^2 (1 - a3^2),
D = x h^2 delta, h = (1 - x)/2, P = a1^2 + a2^2 and delta = 1 - |a|^2.
Newton's method finds the smallest root from Viete's trigonometric root,
clipped to [0, 1/3]. The root is at most 1/3 and p is concave below 1/3,
so a first step from a seed right of the root lands left of it, and every
later step climbs monotonically; a seed where the slope is not positive
(near the clusters at x -> 1) restarts from l = 0, where p(0) = -D <= 0.
On the z axis (P = 0), where the smallest root is repeated and Newton
would only halve its error, the cubic factors as
(l - x)(l^2 - 2 h l + h^2 (1 - a3^2)), and the spectrum
{x, h (1 -+ |a3|)} is taken as it is. The cubic is evaluated in l near 0
and, shifted to the cluster centre mu = l - h, as
q(mu) = mu^3 - c mu^2 - K mu + c w^2 elsewhere, with c = (3x - 1)/2,
K = P x h + a3^2 h^2 and w^2 = a3^2 h^2: each form keeps its terms small
where the other cancels. Deflation gives the other two roots,
mu = ((c - mu0) +- s)/2 with s^2 = c^2 + 2 c mu0 - 3 mu0^2 + 4K, so the
three sum to 1. A pure input (delta <= 0) has the spectrum
{0, (1 +- |b|)/2}, whose entropy is the output entropy, so its coherent
information is exactly 0; its rows do not solve the cubic.
`analytic_exchange_matrix` and LAPACK stay as the oracle, and every
`two_pauli_metrics` call checks the first and last sample of each of its
states against them.

The output entropy, the fidelity and the output state run over all
states and rates in one pass. Only the mixed rows' cubic is solved in
fixed blocks of at most _SOLVE_BLOCK samples: whole rows of
``max(1, _SOLVE_BLOCK // n)`` mixed states by ``min(n, _SOLVE_BLOCK)``
of the n rates, so one state is solved in runs of _SOLVE_BLOCK rates,
and a block's temporaries do not grow with n. `resonance.state_scan`'s
sweep stacks and the agreement oracle's chunks of rates take whole rows
by the same rule, `_row_blocks`, so each is one solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    IDENTITY,
    KrausChannel,
    PAULI_X,
    PAULI_Y,
    _as_states,
    spectrum_entropy,
)
from .linalg import hermitian_eigenvalues

#: Most samples solved at once: the mixed rows' cubic in
#: `two_pauli_metrics`, and the whole rows of one scan stack or oracle
#: chunk (`_row_blocks`), so each is one solve. Its columns and
#: temporaries stay near a megabyte: one stack of all 33 pairs of the 9^3
#: grid raised the scan benchmark's peak process memory by 7 % (33.8 to
#: 36.2 MB), and this bound by less than 1 %.
_SOLVE_BLOCK = 4096

#: Newton steps on a root stop once a step is below this fraction of the
#: root. Near a simple root the error left is about the square of that
#: step; near a double or triple root it is about one step, but the
#: entropy of the pair moves only with its square.
_NEWTON_RTOL = 1e-8

#: Most Newton steps on a root. Left of every root, a step shrinks the gap
#: to the smallest by at least a third, and a gap is at most 1/3, so 64
#: steps leave at most (2/3)^64 / 3, or 1.8e-12, even at a triple root; a
#: double root halves the gap each step. The z axis, where the repeated
#: roots are, skips Newton, and the stop comes long before the bound: on
#: 2,000 random mixed states at 2,001 rates each, within 2 steps on
#: [0, 1] and within 11 on [1 - 1e-6, 1], where seeds restart from 0.
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


def _row_blocks(rows: int, samples: int) -> list[slice]:
    """Slices that cover ``range(rows)`` in order, each of at most
    ``max(1, _SOLVE_BLOCK // samples)`` whole rows of ``samples`` samples:
    the rows that one solve block holds."""
    per_block = max(1, _SOLVE_BLOCK // samples)
    return [slice(top, top + per_block) for top in range(0, rows, per_block)]


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
    state = _as_states(state)
    a1, a2, a3 = state.T[..., None]
    x = _check_rate(x)
    root = np.sqrt(0.5 * x * (1.0 - x))
    half = 0.5 * (1.0 - x)
    w = np.zeros(state.shape[:-1] + x.shape + (3, 3), dtype=complex)
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
    a1, a2, a3 = _as_states(state).T[..., None]
    x = _check_rate(x)
    planar = a1 * a1 + a2 * a2
    axial = 1.0 - 2.0 * x
    r = np.sqrt(planar * x * x + a3 * a3 * axial * axial)
    return spectrum_entropy(np.stack((0.5 * (1.0 + r), 0.5 * (1.0 - r)), axis=-1))


def _lowest_root(e2, d, c, k, cw2, h, roots, live) -> tuple[np.ndarray, int]:
    """The smallest root of the module docstring's cubic, for flat arrays
    of its coefficients, by Newton's method from the seeds ``roots`` at the
    indices ``live`` (the other entries are exact); and the most steps any
    root took. The first step goes from the seed, on either side of the
    root, or from l = 0 where the seed's slope is not positive; later steps
    climb from the left. A root stops once its step falls below
    _NEWTON_RTOL of it, or once p is no longer below 0 with a positive
    slope (rounding has reached the root); none takes more than
    _NEWTON_STEPS steps."""
    steps = 0
    while live.size and steps < _NEWTON_STEPS:
        steps += 1
        t, centre = roots[live], h[live]
        mu = t - centre
        near = t < 0.5 * centre
        cc, kk, ee, dd = c[live], k[live], e2[live], d[live]
        p = np.where(near, ((t - 1.0) * t + ee) * t - dd,
                     ((mu - cc) * mu - kk) * mu + cw2[live])
        dp = np.where(near, (3.0 * t - 2.0) * t + ee, (3.0 * mu - 2.0 * cc) * mu - kk)
        if steps == 1:
            restart = ~(dp > 0.0)
            if restart.any():  # p(0) = -D and p'(0) = e2, with no evaluation
                t = np.where(restart, 0.0, t)
                p = np.where(restart, -dd, p)
                dp = np.where(restart, ee, dp)
                roots[live] = t
            go = (p != 0.0) & (dp > 0.0)
        else:
            go = (p < 0.0) & (dp > 0.0)
        live, t = live[go], t[go]
        # A step lands left of the root, which is never below 0.
        new = np.maximum(t - p[go] / dp[go], 0.0)
        roots[live] = new
        live = live[np.abs(new - t) > _NEWTON_RTOL * new]
    return roots, steps


def _viete_root(e2, d) -> np.ndarray:
    """Viete's trigonometric smallest root of the module docstring's cubic,
    clipped to [0, 1/3]: the seed of `_lowest_root`."""
    # l = t + 1/3 gives t^3 + g t + r, with three real roots since g <= 0.
    g = e2 - 1.0 / 3.0
    r = e2 / 3.0 - 2.0 / 27.0 - d
    m = np.sqrt(np.maximum(-g / 3.0, 0.0))
    cos3 = np.clip(-r / np.maximum(2.0 * m * m * m, np.finfo(float).tiny), -1.0, 1.0)
    return np.clip(1.0 / 3.0 + 2.0 * m * np.cos(np.arccos(cos3) / 3.0 + 2.0 * np.pi / 3.0),
                   0.0, 1.0 / 3.0)


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
    # On the z axis (P = 0) the cubic is (l - x)(l^2 - 2 h l + h^2 (1 - a3^2)),
    # with roots x and h (1 -+ |a3|): the smallest root and the gap s between
    # the other two are exact there.
    lower = h * (1.0 - np.abs(a3))
    z_root, z_gap = np.minimum(x, lower), np.abs(h * (1.0 + np.abs(a3)) - np.maximum(x, lower))
    c, k, cw2, h, e2, d, z_root, z_gap, off_axis = (a.ravel() for a in np.broadcast_arrays(
        c, k, c * w2, h, e2, d, z_root, z_gap, planar != 0.0))
    seed = np.where(off_axis, _viete_root(e2, d), z_root)
    low, _ = _lowest_root(e2, d, c, k, cw2, h, seed, np.flatnonzero(off_axis))
    mu = low - h
    s2 = c * c + 2.0 * c * mu - 3.0 * mu * mu + 4.0 * k
    s = np.where(off_axis, np.sqrt(np.maximum(s2, 0.0)), z_gap)
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
    ``coherent_info`` is exactly ``output_entropy - noise``. ``state`` is
    the checked float array of the input, (3,) for one state and (m, 3)
    for a stack, which `two_pauli_metrics` takes back; for a stack, every
    column gains a leading axis of length m.
    """

    state: np.ndarray
    x: np.ndarray
    noise: np.ndarray
    coherent_info: np.ndarray
    fidelity: np.ndarray
    output_entropy: np.ndarray
    output_bloch: np.ndarray

    def __post_init__(self):
        shape = np.shape(self.state)[:-1] + (len(self.x),)
        columns = (self.noise, self.coherent_info, self.fidelity, self.output_entropy)
        if any(np.shape(c) != shape for c in columns) or np.shape(self.output_bloch) != shape + (3,):
            raise ValueError("every sweep column needs one entry per rate (and per state)")


def two_pauli_metrics(state, x) -> SweepCurve:
    """All figures of merit as columns over a 1-D array of rates (one rate
    gives columns of length 1), for one state or, with a leading axis, for
    each state of an (m, 3) stack.

    The output entropy is one pass over every state and rate; it is also
    the noise of a pure state, and of every state at x = 0, where both are
    h2((1 + |a3|)/2). Other noise is the entropy of the closed-form exchange
    spectrum of the module docstring, solved in its blocks sample by
    sample, so it does not depend on the block size. The first and the
    last sample's noise of every state are checked against LAPACK's
    eigensolve of `analytic_exchange_matrix`, in one batched call; a gap
    over _SPOT_TOL raises ValueError.
    Coherent information is stored as output entropy minus noise. The
    entangled fidelity is (a1^2 + a2^2)(1 - x)/2 + x and the output Bloch
    vector is (a1 x, a2 x, a3 (2x - 1)), one row per rate.
    """
    state = _as_states(state)
    a1, a2, a3 = state.T[..., None]
    lead = state.shape[:-1]
    x = _check_rate(x)
    planar = a1 * a1 + a2 * a2
    output_entropy = analytic_output_entropy(state, x)
    # A pure row's noise is its output entropy; only the mixed rows solve the cubic.
    noise = output_entropy.copy()
    noise_rows = noise.reshape(-1, len(x))  # a view: one row per state
    columns = [np.reshape(a, (-1, 1)) for a in (a1, a2, a3)]
    mixed = np.flatnonzero(1.0 - (planar + a3 * a3) > 0.0)
    for rows in _row_blocks(len(mixed), len(x)):
        solve = mixed[rows]
        for start in range(0, len(x), _SOLVE_BLOCK):
            cols = slice(start, start + _SOLVE_BLOCK)
            noise_rows[solve, cols] = spectrum_entropy(
                _exchange_spectrum(*(a[solve] for a in columns), x[cols]))
    # At x = 0 the output entropy replaces the solved noise, so C(0) is exactly 0.
    noise[..., x == 0.0] = output_entropy[..., x == 0.0]
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
