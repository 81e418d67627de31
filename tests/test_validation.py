import dataclasses

import numpy as np

from qsr import validation
from qsr.channel import as_bloch
from qsr.resonance import bloch_ball_grid
from qsr.validation import (
    _inverse_sqrt_2x2,
    check_analytic_generic_agreement,
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
    grid = bloch_ball_grid(7)
    assert len(grid) % validation._AGREEMENT_BLOCK != 0
    last = grid[-1]
    closed_form = validation.two_pauli_metrics

    def skewed(state, x):
        metrics = closed_form(state, x)
        if as_bloch(state) == last:
            fidelity = metrics.fidelity.copy()
            fidelity[-1] += 1e-11
            metrics = dataclasses.replace(metrics, fidelity=fidelity)
        return metrics

    monkeypatch.setattr(validation, "two_pauli_metrics", skewed)
    result = check_analytic_generic_agreement(7, 21)
    assert not result.passed, result.detail


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
