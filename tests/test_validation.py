import dataclasses

import numpy as np
import pytest

from qsr import validation
from qsr.channel import bloch_to_density, environment_output, exchange_matrix
from qsr.linalg import hermitian_eigenvalues, hermitian_residual
from qsr.resonance import bloch_ball_grid
from qsr.validation import (
    _TRIAL_CHUNK,
    _inverse_sqrt_2x2,
    check_analytic_generic_agreement,
    check_dilation_oracle,
    check_exchange_matrix_properties,
    random_bloch_vector,
    random_kraus_channel,
)


def old_random_kraus_operators(rng, k):
    """The per-operator draw that random_kraus_channel replaced."""
    raw = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(k)]
    gram = sum(b.conj().T @ b for b in raw)
    whitener = _inverse_sqrt_2x2(gram)
    return tuple(b @ whitener for b in raw)


def test_random_kraus_channel_keeps_the_stream():
    for seed in range(20):
        for k in range(1, 7):
            old_rng, new_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            want = old_random_kraus_operators(old_rng, k)
            got = random_kraus_channel(new_rng, num_operators=k).operators
            assert len(got) == k
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
            assert new_rng.normal() == old_rng.normal()


def test_agreement_reaches_the_last_sample_of_a_partial_block(monkeypatch):
    # The last call is the partial block's stack; only its last state's
    # last rate is skewed.
    grid = bloch_ball_grid(7)
    partial = len(grid) % validation._AGREEMENT_BLOCK
    assert partial != 0
    closed_form = validation.two_pauli_metrics
    stacks = []

    def skewed(states, x):
        metrics = closed_form(states, x)
        stacks.append(metrics.state)
        if np.array_equal(metrics.state[-1], grid[-1]):
            fidelity = metrics.fidelity.copy()
            fidelity[-1, -1] += 1e-11
            metrics = dataclasses.replace(metrics, fidelity=fidelity)
        return metrics

    monkeypatch.setattr(validation, "two_pauli_metrics", skewed)
    result = check_analytic_generic_agreement(7, 21)
    assert not result.passed, result.detail
    assert len(stacks[-1]) == partial and np.array_equal(stacks[-1][-1], grid[-1])
    assert sum(map(len, stacks)) == len(grid)
    assert np.array_equal(np.concatenate(stacks), grid)


def test_agreement_fails_on_a_nan_deviation(monkeypatch):
    closed_form = validation.two_pauli_metrics

    def with_nan(state, x):
        metrics = closed_form(state, x)
        fidelity = metrics.fidelity.copy()
        fidelity[3] = np.nan
        return dataclasses.replace(metrics, fidelity=fidelity)

    monkeypatch.setattr(validation, "two_pauli_metrics", with_nan)
    result = check_analytic_generic_agreement(7, 21)
    assert not result.passed, result.detail


def old_check_exchange_matrix_properties(rng, trials):
    """The per-trial loop that the chunked check replaced: its detail."""
    worst_herm = worst_trace = 0.0
    lowest_eig = 0.0
    for _ in range(trials):
        channel = random_kraus_channel(rng)
        rho = bloch_to_density(random_bloch_vector(rng))
        w = exchange_matrix(channel, rho)
        worst_herm = max(worst_herm, hermitian_residual(w))
        worst_trace = max(worst_trace, abs(np.trace(w).real - 1.0))
        lowest_eig = min(lowest_eig, hermitian_eigenvalues(w)[0])
    return (
        f"hermitian residual {worst_herm:.3e}, trace error {worst_trace:.3e}, "
        f"lowest eigenvalue {lowest_eig:.3e} over {trials} random channels"
    )


def old_check_dilation_oracle(rng, trials):
    """The per-trial loop that the chunked check replaced: its detail."""
    worst = 0.0
    for _ in range(trials):
        channel = random_kraus_channel(rng)
        rho = bloch_to_density(random_bloch_vector(rng))
        spectrum_w, spectrum_env = hermitian_eigenvalues(
            np.stack((exchange_matrix(channel, rho), environment_output(channel, rho)))
        )
        worst = max(worst, float(np.abs(spectrum_w - spectrum_env).max()))
    return f"max spectral gap {worst:.3e} over {trials} random pairs (limit 1e-10)"


@pytest.mark.parametrize("trials", [1, _TRIAL_CHUNK, _TRIAL_CHUNK + 1, 2000])
def test_dilation_check_matches_the_per_trial_loop(trials):
    for seed in range(3 if trials < 2000 else 1):
        old_rng, new_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        result = check_dilation_oracle(new_rng, trials)
        assert result.passed
        assert result.detail == old_check_dilation_oracle(old_rng, trials)
        assert new_rng.normal() == old_rng.normal()


@pytest.mark.parametrize("trials", [1, validation.EXCHANGE_TRIALS, _TRIAL_CHUNK + 1])
def test_exchange_matrix_check_matches_the_per_trial_loop(monkeypatch, trials):
    monkeypatch.setattr(validation, "EXCHANGE_TRIALS", trials)
    for seed in range(3):
        old_rng, new_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        result = check_exchange_matrix_properties(new_rng)
        assert result.passed
        assert result.detail == old_check_exchange_matrix_properties(old_rng, trials)
        assert new_rng.normal() == old_rng.normal()


def _perturb_one_call(monkeypatch, name, index, offset):
    """Replace validation.<name> by the original, except that call number
    ``index`` gets ``offset`` times the identity added to its result."""
    original = getattr(validation, name)
    calls = [0]

    def perturbed(channel, rho):
        out = original(channel, rho)
        if calls[0] == index:
            out = out + offset * np.eye(len(out))
        calls[0] += 1
        return out

    monkeypatch.setattr(validation, name, perturbed)
    return calls


@pytest.mark.parametrize("index", [0, _TRIAL_CHUNK, _TRIAL_CHUNK + 1])
def test_dilation_check_fails_on_one_perturbed_environment(monkeypatch, index):
    calls = _perturb_one_call(monkeypatch, "environment_output", index, 1e-8)
    result = check_dilation_oracle(np.random.default_rng(5), _TRIAL_CHUNK + 2)
    assert calls[0] == _TRIAL_CHUNK + 2
    assert not result.passed, result.detail


@pytest.mark.parametrize("index", [0, validation.EXCHANGE_TRIALS - 1])
def test_exchange_matrix_check_fails_on_one_non_hermitian_matrix(monkeypatch, index):
    # 1e-11j on the diagonal: a Hermitian residual of 2e-11, above the
    # check's 1e-12 and below the eigensolver's 1e-10, so the solve runs.
    calls = _perturb_one_call(monkeypatch, "exchange_matrix", index, 1e-11j)
    result = check_exchange_matrix_properties(np.random.default_rng(5))
    assert calls[0] == validation.EXCHANGE_TRIALS
    assert not result.passed, result.detail
    assert result.detail.startswith("hermitian residual 2.000e-11"), result.detail


@pytest.mark.parametrize("seed", [0, 4, validation.DEFAULT_SEED])
def test_pure_state_collapse_takes_the_exact_pure_route(monkeypatch, seed):
    # A normalised draw lands one ulp below |a|^2 = 1 about a third of the
    # time; such a state takes the mixed route and leaves |C| near 3e-15.
    stacks = []

    def recorded(states, x, _original=validation.two_pauli_metrics):
        stacks.append(states)
        return _original(states, x)

    monkeypatch.setattr(validation, "two_pauli_metrics", recorded)
    result = validation.check_pure_state_collapse(np.random.default_rng(seed))
    (states,) = stacks
    a1, a2, a3 = states.T
    assert states.shape == (validation.COLLAPSE_STATES, 3)
    assert (1.0 - (a1 * a1 + a2 * a2 + a3 * a3) <= 0.0).all()
    assert result.passed and result.detail.startswith("max |C| 0.000e+00 over 50 pure states")
