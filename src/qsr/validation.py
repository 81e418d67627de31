"""Self-check suite for the channel machinery, runnable from the CLI.

Covers completeness of the two-Pauli family, exchange-matrix properties,
agreement between the closed forms and the generic Kraus route, the
system-environment dilation cross-check, and the collapse of coherent
information on pure states. A deliberately broken operator set is included
as a negative control to prove the completeness detector actually fires.

The checks leave the random-number stream alone. The random-channel checks
draw each trial's values as a per-trial loop would (the Kraus count, the
operators' normals, the state's direction and radius), in one normal draw
per trial, but group the trials of each chunk of _TRIAL_CHUNK by Kraus
count: per group the operators are whitened and the states scaled in one
pass (`_ball_points`, which `random_bloch_vector` shares), and the
functions under test take the group as one (n, k, 2, 2) channel stack and
(n, 2, 2) state stack, bit for bit as one trial at a time. The worst gap,
residual and lowest eigenvalue are maxima and minima, so they do not
depend on the grouping. The agreement check takes the whole ball grid as
one stack and the rates in chunks of at most _AGREEMENT_SAMPLES samples:
the closed forms take one call per chunk, in which `two_pauli_metrics`
takes the output entropy in one pass and blocks only the mixed rows'
cubic, and the generic route one call per rate.
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

# Random-channel trials drawn before their spectra are solved, one
# eigensolve per Kraus count among them.
_TRIAL_CHUNK = 256

# Most (state, rate) samples the agreement check gives the closed forms in
# one call: whole rates, at least one.
_AGREEMENT_SAMPLES = 2048


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _ball_points(normals: np.ndarray, radii) -> np.ndarray:
    """Each row of an (n, 3) normal draw scaled to unit length, then by its
    radius. The squared length comes from matmul, which adds as v.dot(v),
    np.linalg.norm's own formula for a real vector, bit for bit."""
    return normals / np.sqrt(normals[:, None, :] @ normals[:, :, None])[:, 0] * radii


def random_bloch_vector(rng, pure: bool = False) -> np.ndarray:
    """Bloch components as a (3,) array: a random direction, radius 1 if
    pure, else uniform in the ball."""
    normals = rng.normal(size=(1, 3))
    return _ball_points(normals, 1.0 if pure else rng.uniform() ** (1.0 / 3.0))[0]


def _det(m: np.ndarray) -> np.ndarray:
    """Determinants of an (n, 2, 2) complex stack. Each product is formed
    from real parts, as numpy's scalar complex multiply forms it: its SIMD
    loop over a stack rounds differently."""
    a, b, c, e = m[:, 0, 0], m[:, 1, 1], m[:, 0, 1], m[:, 1, 0]
    det = np.empty(len(m), dtype=complex)
    det.real = (a.real * b.real - a.imag * b.imag) - (c.real * e.real - c.imag * e.imag)
    det.imag = (a.real * b.imag + a.imag * b.real) - (c.real * e.imag + c.imag * e.real)
    return det


def _whiteners(gram: np.ndarray) -> np.ndarray:
    """Inverse square roots of an (n, 2, 2) stack of Hermitian positive
    definite matrices, from the closed-form square root."""
    t = (gram[:, 0, 0] + gram[:, 1, 1]).real
    d = _det(gram).real
    if ((d <= 0.0) | (t <= 0.0)).any():
        raise ValueError("matrix is not positive definite")
    s = np.sqrt(d)[:, None, None]
    root = (gram + s * IDENTITY) / np.sqrt(t[:, None, None] + 2.0 * s)
    adjugate = -root
    adjugate[:, 0, 0], adjugate[:, 1, 1] = root[:, 1, 1], root[:, 0, 0]
    return adjugate / _det(root)[:, None, None]


def _kraus_stacks(draws: np.ndarray) -> np.ndarray:
    """`random_kraus_channel`'s operators from each (k, 2, 2, 2) draw of an
    (n, k, 2, 2, 2) stack: per operator, the real then the imaginary part."""
    raw = draws[:, :, 0] + 1j * draws[:, :, 1]
    # Matrix products summed over operators, as the per-operator sum did:
    # an einsum contraction rounds differently, by up to 4.4e-16.
    gram = (raw.conj().swapaxes(-1, -2) @ raw).sum(axis=1)
    return raw @ _whiteners(gram)[:, None]


def random_kraus_channel(rng, num_operators: int | None = None) -> KrausChannel:
    """Random trace-preserving channel with 1..6 Kraus operators.

    Draws Gaussian complex matrices and right-multiplies by the inverse
    square root of their Gram sum, which enforces completeness exactly
    (up to rounding).
    """
    k = int(num_operators) if num_operators is not None else int(rng.integers(1, MAX_DIM + 1))
    (operators,) = _kraus_stacks(rng.normal(size=(1, k, 2, 2, 2)))
    return KrausChannel(operators, label=f"random(k={k})")


def _random_trials(rng, trials: int):
    """Draw `trials` random (channel, state) pairs, in trial order the
    channel and then its state, and yield per chunk of _TRIAL_CHUNK trials
    and per Kraus count k in it one ``(channels, rho)`` pair: the (n, k, 2, 2)
    channel stack and (n, 2, 2) state stack of that chunk's n trials with k
    operators, in trial order. Only the draws run per trial: the Kraus
    count, one normal draw of the operators' 8k values and the state's 3,
    and the state's radius."""
    for start in range(0, trials, _TRIAL_CHUNK):
        groups = {}
        for _ in range(min(_TRIAL_CHUNK, trials - start)):
            k = int(rng.integers(1, MAX_DIM + 1))
            # random() is uniform() on [0, 1) bit for bit, for less call overhead.
            draw = (rng.normal(size=8 * k + 3), rng.random() ** (1.0 / 3.0))
            groups.setdefault(k, []).append(draw)
        for k, group in groups.items():
            normals, radii = zip(*group)
            normals = np.array(normals)
            channels = KrausChannel(_kraus_stacks(normals[:, :-3].reshape(-1, k, 2, 2, 2)),
                                    label=f"random(k={k})")
            yield channels, bloch_to_density(_ball_points(normals[:, -3:], np.array(radii)[:, None]))


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
    for channels, rho in _random_trials(rng, EXCHANGE_TRIALS):
        w = exchange_matrix(channels, rho)
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
    states = bloch_ball_grid(grid_resolution)
    rho = bloch_to_density(states)
    per_chunk = max(1, _AGREEMENT_SAMPLES // len(states))
    for top in range(0, x_samples, per_chunk):
        rates = slice(top, top + per_chunk)
        # The closed forms for the chunk's rates in one stacked call each;
        # axis 0 is the state, axis 1 the rate.
        w = analytic_exchange_matrix(states, xs[rates])
        m = two_pauli_metrics(states, xs[rates])
        for k, channel in enumerate(channels[rates]):
            out = apply_channel(channel, rho)
            exchange = exchange_matrix(channel, rho)
            # np.max, unlike max, carries a NaN deviation through to the verdict.
            worst = float(np.max([
                worst,
                np.abs(w[:, k] - exchange).max(),
                np.abs(m.output_bloch[:, k] - density_to_bloch(out)).max(),
                np.abs(m.output_entropy[:, k] - von_neumann_entropy(out)).max(),
                np.abs(m.noise[:, k] - von_neumann_entropy(exchange)).max(),
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
    for channels, rho in _random_trials(rng, trials):
        # Both k x k spectra of every trial in the group from one eigensolve.
        spectra = hermitian_eigenvalues(
            np.concatenate((exchange_matrix(channels, rho), environment_output(channels, rho))))
        n = len(rho)
        worst = max(worst, float(np.abs(spectra[:n] - spectra[n:]).max()))
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
        a1, a2, a3 = random_bloch_vector(rng, pure=True).tolist()
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
