"""Self-check suite for the channel machinery, runnable from the CLI.

Covers completeness of the two-Pauli family, exchange-matrix properties,
agreement between the closed forms and the generic Kraus route, the
system-environment dilation cross-check, and the collapse of coherent
information on pure states. A deliberately broken operator set is included
as a negative control to prove the completeness detector actually fires.

The checks batch their linear algebra and leave the functions under test
and the random-number stream alone. The random-channel checks draw every
trial as a per-trial loop would (the Kraus count, the operators, then the
state) and call `exchange_matrix` and `environment_output` once per
trial, but solve the spectra once per Kraus count in each chunk of
_TRIAL_CHUNK trials; the worst gap, residual and lowest eigenvalue are
maxima and minima, so they do not depend on the grouping. The
closed-form checks pass states as (m, 3) stacks, one call per block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    BlochVector,
    IDENTITY,
    KrausChannel,
    apply_channel,
    bloch_to_density,
    completeness_residual,
    density_to_bloch,
    entangled_fidelity,
    entropy_exchange,
    environment_output,
    exchange_matrix,
    von_neumann_entropy,
)
from .linalg import MAX_DIM, hermitian_eigenvalues, hermitian_residual
from .resonance import bloch_ball_grid
from .two_pauli import analytic_exchange_matrix, make_two_pauli, two_pauli_metrics

DEFAULT_SEED = 20240117

#: Sizes of the fixed checks: rates for completeness, random channels for
#: the exchange matrix, and pure states and rates for the collapse check.
COMPLETENESS_RATES = 101
EXCHANGE_TRIALS = 50
COLLAPSE_STATES = 50
COLLAPSE_RATES = 101

# Ball-grid states per pass of the generic route in the agreement check:
# each block's density stack goes through the route once per rate, and its
# states through the closed forms as one stack. One stack of the whole
# grid would hold every (state, rate) sample at once.
_AGREEMENT_BLOCK = 32

# Random-channel trials drawn before their spectra are solved, one
# eigensolve per Kraus count among them.
_TRIAL_CHUNK = 256


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def random_bloch_vector(rng, pure: bool = False) -> BlochVector:
    """Random direction; radius 1 if pure, else uniform in the ball."""
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    if not pure:
        v *= rng.uniform() ** (1.0 / 3.0)
    return BlochVector(*v)


def _inverse_sqrt_2x2(mat: np.ndarray) -> np.ndarray:
    """Inverse square root of a 2x2 Hermitian positive definite matrix."""
    t = np.trace(mat).real
    d = (mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]).real
    if d <= 0.0 or t <= 0.0:
        raise ValueError("matrix is not positive definite")
    s = math.sqrt(d)
    root = (mat + s * IDENTITY) / math.sqrt(t + 2.0 * s)
    det = root[0, 0] * root[1, 1] - root[0, 1] * root[1, 0]
    return (
        np.array([[root[1, 1], -root[0, 1]], [-root[1, 0], root[0, 0]]], dtype=complex)
        / det
    )


def random_kraus_channel(rng, num_operators: int | None = None) -> KrausChannel:
    """Random trace-preserving channel with 1..6 Kraus operators.

    Draws Gaussian complex matrices and right-multiplies by the inverse
    square root of their Gram sum, which enforces completeness exactly
    (up to rounding).
    """
    k = int(num_operators) if num_operators is not None else int(rng.integers(1, MAX_DIM + 1))
    # One draw: per operator, the real then the imaginary 2x2 part.
    draws = rng.normal(size=(k, 2, 2, 2))
    raw = draws[:, 0] + 1j * draws[:, 1]
    # Matrix products summed over operators, as the per-operator sum did:
    # an einsum contraction rounds differently, by up to 4.4e-16.
    gram = (raw.conj().swapaxes(-1, -2) @ raw).sum(axis=0)
    whitener = _inverse_sqrt_2x2(gram)
    return KrausChannel(raw @ whitener, label=f"random(k={k})")


def _random_trials(rng, trials: int, evaluate):
    """Draw `trials` random (channel, state) pairs, in trial order the
    channel and then its state, and yield per chunk of _TRIAL_CHUNK trials
    and per Kraus count k in it the stack of ``evaluate(channel, rho)``
    over that chunk's trials with k operators."""
    for start in range(0, trials, _TRIAL_CHUNK):
        groups = {}
        for _ in range(min(_TRIAL_CHUNK, trials - start)):
            channel = random_kraus_channel(rng)
            rho = bloch_to_density(random_bloch_vector(rng))
            groups.setdefault(len(channel.operators), []).append(evaluate(channel, rho))
        yield from (np.stack(group) for group in groups.values())


def _dilation_pair(channel: KrausChannel, rho) -> np.ndarray:
    """The exchange matrix and the dilation's environment state, stacked."""
    return np.stack((exchange_matrix(channel, rho), environment_output(channel, rho)))


def check_two_pauli_completeness() -> CheckResult:
    worst = max(
        completeness_residual(make_two_pauli(x))
        for x in np.linspace(0.0, 1.0, COMPLETENESS_RATES)
    )
    return CheckResult(
        name="two-pauli completeness",
        passed=worst <= 1e-12,
        detail=f"max residual {worst:.3e} over {COMPLETENESS_RATES} rates (limit 1e-12)",
    )


def check_broken_channel_detected() -> CheckResult:
    broken = KrausChannel((math.sqrt(0.5) * IDENTITY,), label="broken")
    residual = completeness_residual(broken)
    try:
        apply_channel(broken, bloch_to_density(BlochVector(0.0, 0.0, 0.0)))
    except ValueError:
        rejected = True
    else:
        rejected = False
    passed = rejected and abs(residual - 0.5) < 1e-12
    return CheckResult(
        name="broken-channel negative control",
        passed=passed,
        detail=f"completeness violation detected (residual {residual:.3e})"
        if passed
        else "completeness violation was NOT detected",
    )


def check_exchange_matrix_properties(rng) -> CheckResult:
    worst_herm = worst_trace = 0.0
    lowest_eig = 0.0
    for w in _random_trials(rng, EXCHANGE_TRIALS, exchange_matrix):
        worst_herm = max(worst_herm, hermitian_residual(w))
        trace = np.trace(w, axis1=-2, axis2=-1).real
        worst_trace = max(worst_trace, float(np.abs(trace - 1.0).max()))
        lowest_eig = min(lowest_eig, float(hermitian_eigenvalues(w)[:, 0].min()))
    passed = worst_herm <= 1e-12 and worst_trace <= 1e-12 and lowest_eig >= -1e-10
    return CheckResult(
        name="exchange matrix is Hermitian, unit trace, PSD",
        passed=passed,
        detail=(
            f"hermitian residual {worst_herm:.3e}, trace error {worst_trace:.3e}, "
            f"lowest eigenvalue {lowest_eig:.3e} over {EXCHANGE_TRIALS} random channels"
        ),
    )


def check_analytic_generic_agreement(
    grid_resolution: int = 7, x_samples: int = 21
) -> CheckResult:
    worst = 0.0
    xs = np.linspace(0.0, 1.0, x_samples)
    channels = [make_two_pauli(float(x)) for x in xs]
    grid = bloch_ball_grid(grid_resolution)
    for start in range(0, len(grid), _AGREEMENT_BLOCK):
        states = grid[start : start + _AGREEMENT_BLOCK]
        rho = bloch_to_density(states)
        # The closed forms for the whole block in one stacked call each;
        # axis 0 is the state, axis 1 the rate.
        w = analytic_exchange_matrix(states, xs)
        m = two_pauli_metrics(states, xs)
        for k, channel in enumerate(channels):
            out = apply_channel(channel, rho)
            # np.max, unlike max, carries a NaN deviation through to the verdict.
            worst = float(np.max([
                worst,
                np.abs(w[:, k] - exchange_matrix(channel, rho)).max(),
                np.abs(m.output_bloch[:, k] - density_to_bloch(out)).max(),
                np.abs(m.output_entropy[:, k] - von_neumann_entropy(out)).max(),
                np.abs(m.noise[:, k] - entropy_exchange(channel, rho)).max(),
                np.abs(m.fidelity[:, k] - entangled_fidelity(channel, rho)).max(),
            ]))
    return CheckResult(
        name="closed forms match generic Kraus route",
        passed=worst < 1e-12,
        detail=(
            f"max deviation {worst:.3e} over {grid_resolution}^3 ball grid "
            f"x {x_samples} rates (limit 1e-12)"
        ),
    )


def check_dilation_oracle(rng, trials: int = 100) -> CheckResult:
    worst = 0.0
    for pairs in _random_trials(rng, trials, _dilation_pair):
        # Both k x k spectra of every trial in the group from one eigensolve.
        k = pairs.shape[-1]
        spectra = hermitian_eigenvalues(pairs.reshape(-1, k, k)).reshape(-1, 2, k)
        worst = max(worst, float(np.abs(spectra[:, 0] - spectra[:, 1]).max()))
    return CheckResult(
        name="dilation environment matches exchange spectrum",
        passed=worst <= 1e-10,
        detail=f"max spectral gap {worst:.3e} over {trials} random pairs (limit 1e-10)",
    )


def check_pure_state_collapse(rng) -> CheckResult:
    xs = np.linspace(0.0, 1.0, COLLAPSE_RATES)
    # Only draws that two_pauli_metrics takes as pure, 1 - |a|^2 <= 0 as it
    # computes it: a normalised draw can land one ulp below |a|^2 = 1, and
    # then takes the mixed route instead of the exact pure one.
    pure = []
    while len(pure) < COLLAPSE_STATES:
        a1, a2, a3 = random_bloch_vector(rng, pure=True).as_tuple()
        if 1.0 - (a1 * a1 + a2 * a2 + a3 * a3) <= 0.0:
            pure.append((a1, a2, a3))
    worst = float(np.abs(two_pauli_metrics(np.array(pure), xs).coherent_info).max())
    return CheckResult(
        name="pure-state coherent information collapses to zero",
        passed=worst <= 1e-9,
        detail=f"max |C| {worst:.3e} over {COLLAPSE_STATES} pure states (limit 1e-9)",
    )


def run_all(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Run every check with a fixed seed; deterministic across runs."""
    rng = np.random.default_rng(seed)
    return [
        check_two_pauli_completeness(),
        check_broken_channel_detected(),
        check_exchange_matrix_properties(rng),
        check_analytic_generic_agreement(),
        check_dilation_oracle(rng),
        check_pure_state_collapse(rng),
    ]
