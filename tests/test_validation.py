import collections
import dataclasses
import math

import numpy as np
import pytest

from qsr import validation
from qsr.channel import IDENTITY, bloch_to_density, environment_output, exchange_matrix
from qsr.linalg import MAX_DIM, hermitian_eigenvalues, hermitian_residual
from qsr.resonance import bloch_ball_grid
from qsr.validation import (
    _TRIAL_CHUNK,
    _whiteners,
    check_analytic_generic_agreement,
    check_dilation_oracle,
    check_exchange_matrix_properties,
    random_bloch_vector,
    random_kraus_channel,
)


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


@pytest.mark.parametrize("size", [1, 40])
def test_whiteners_match_the_scalar_inverse_square_root(size):
    for seed in range(20):
        for k in range(1, 7):
            draws = np.random.default_rng(seed).normal(size=(size, k, 2, 2, 2))
            raw = draws[:, :, 0] + 1j * draws[:, :, 1]
            gram = (raw.conj().swapaxes(-1, -2) @ raw).sum(axis=1)
            want = [_inverse_sqrt_2x2(matrix) for matrix in gram]
            assert np.array_equal(_whiteners(gram), want)
            assert np.array_equal(validation._kraus_stacks(draws),
                                  [operators @ w for operators, w in zip(raw, want)])


@pytest.mark.parametrize("bad", [np.zeros((2, 2)), np.diag([1.0, -1.0]), -np.eye(2)])
def test_whiteners_refuse_a_matrix_that_is_not_positive_definite(bad):
    with pytest.raises(ValueError, match="matrix is not positive definite"):
        _whiteners(np.stack((np.eye(2), bad, np.eye(2))).astype(complex))


@pytest.mark.parametrize("trials", [1, _TRIAL_CHUNK, 2 * _TRIAL_CHUNK + 1])
def test_random_trials_whiten_once_per_kraus_count_in_a_chunk(monkeypatch, trials):
    calls = []

    def counted(gram, _original=_whiteners):
        calls.append(len(gram))
        return _original(gram)

    monkeypatch.setattr(validation, "_whiteners", counted)
    shapes = []
    for channels, rho in validation._random_trials(np.random.default_rng(3), trials):
        # One channel stack and one state stack per group, read from their shapes.
        size, k = channels.operators.shape[:2]
        assert channels.operators.shape == (size, k, 2, 2) and rho.shape == (size, 2, 2)
        shapes.append((size, k))
    # One whitening per group, of the whole group: its trials with k operators.
    assert calls == [size for size, _ in shapes] and sum(calls) == trials
    # The groups fill the chunks in turn, each Kraus count once per chunk.
    chunks = []
    for size, k in shapes:
        if not chunks or sum(n for n, _ in chunks[-1]) == _TRIAL_CHUNK:
            chunks.append([])
        chunks[-1].append((size, k))
    assert len(chunks) == -(-trials // _TRIAL_CHUNK)
    for chunk in chunks:
        assert len({k for _, k in chunk}) == len(chunk)


def test_agreement_reaches_the_last_sample_of_a_partial_block(monkeypatch):
    # The last call is a partial chunk of rates: the 123 states take 16
    # rates at a time and then 5 under the default bound, and 4 at a time
    # and then 1 under a bound of 500. Only the last state at x = 1 is skewed.
    grid = bloch_ball_grid(7)
    rates = np.linspace(0.0, 1.0, 21)
    closed_form = validation.two_pauli_metrics
    calls = []

    def skewed(states, x):
        metrics = closed_form(states, x)
        calls.append((metrics.state, metrics.x))
        if np.array_equal(metrics.state[-1], grid[-1]) and metrics.x[-1] == 1.0:
            fidelity = metrics.fidelity.copy()
            fidelity[-1, -1] += 1e-11
            metrics = dataclasses.replace(metrics, fidelity=fidelity)
        return metrics

    monkeypatch.setattr(validation, "two_pauli_metrics", skewed)
    for bound in (validation._AGREEMENT_SAMPLES, 500):
        monkeypatch.setattr(validation, "_AGREEMENT_SAMPLES", bound)
        calls.clear()
        result = check_analytic_generic_agreement(7, 21)
        assert not result.passed, result.detail
        states, x = calls[-1]
        assert len(states) == len(grid)
        assert len(x) < bound // len(states) and x[-1] == 1.0
        # The calls cover every (state, rate) sample of the grid exactly once.
        covered = collections.Counter((tuple(state), rate) for states, x in calls
                                      for state in states.tolist() for rate in x.tolist())
        assert covered == collections.Counter(
            (tuple(state), rate) for state in grid.tolist() for rate in rates.tolist())


def test_agreement_detail_does_not_depend_on_the_block(monkeypatch):
    default = check_analytic_generic_agreement(7, 21)
    monkeypatch.setattr(validation, "_AGREEMENT_SAMPLES", 16)
    assert check_analytic_generic_agreement(7, 21) == default


def test_agreement_calls_the_generic_route_once_per_rate(monkeypatch):
    # The 257 states of the 9^3 grid are one stack, so each generic-route
    # function runs once per rate over all of them, and each closed form
    # once per chunk of 2048 // 257 = 7 rates. The exchange matrix is
    # contracted once per rate: the noise is the entropy of that same
    # matrix, so two entropies are taken per rate.
    generic = ("apply_channel", "exchange_matrix", "density_to_bloch", "entangled_fidelity")
    counts = collections.Counter()
    for name in generic + ("von_neumann_entropy", "analytic_exchange_matrix",
                           "two_pauli_metrics"):
        def counted(*args, _name=name, _original=getattr(validation, name)):
            counts[_name] += 1
            return _original(*args)
        monkeypatch.setattr(validation, name, counted)
    assert check_analytic_generic_agreement(9, 41).passed
    assert counts == dict.fromkeys(generic, 41) | {
        "von_neumann_entropy": 82, "analytic_exchange_matrix": 6, "two_pauli_metrics": 6}


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


def _trial_keys(seed, trials):
    """Each trial's operators and density matrix as bytes, mapped to its
    index in stream order, as the per-trial loop draws them."""
    rng = np.random.default_rng(seed)
    keys = {}
    for index in range(trials):
        operators = random_kraus_channel(rng).operators
        keys[operators.tobytes() + bloch_to_density(random_bloch_vector(rng)).tobytes()] = index
    return keys


def _perturb_one_call(monkeypatch, name, seed, trials, index, offset):
    """Replace validation.<name> by the original, except that in the call
    that holds trial ``index`` (of `trials` drawn from ``seed``) that
    trial's row gets ``offset`` times the identity added. Returns, per call,
    the indices of the trials its rows hold."""
    keys = _trial_keys(seed, trials)
    original = getattr(validation, name)
    seen = []

    def perturbed(channels, rho):
        out = original(channels, rho)
        rows = [keys[operators.tobytes() + matrix.tobytes()]
                for operators, matrix in zip(channels.operators, rho)]
        seen.append(rows)
        if index in rows:
            out[rows.index(index)] += offset * np.eye(out.shape[-1])
        return out

    monkeypatch.setattr(validation, name, perturbed)
    return seen


def _assert_every_trial_seen_once(seen, trials):
    assert sorted(index for rows in seen for index in rows) == list(range(trials))
    # One call per Kraus count in each chunk, not one per trial.
    assert len(seen) <= MAX_DIM * -(-trials // _TRIAL_CHUNK)


@pytest.mark.parametrize("index", [0, _TRIAL_CHUNK, _TRIAL_CHUNK + 1])
def test_dilation_check_fails_on_one_perturbed_environment(monkeypatch, index):
    trials = _TRIAL_CHUNK + 2
    seen = _perturb_one_call(monkeypatch, "environment_output", 5, trials, index, 1e-8)
    result = check_dilation_oracle(np.random.default_rng(5), trials)
    _assert_every_trial_seen_once(seen, trials)
    assert not result.passed, result.detail


@pytest.mark.parametrize("index", [0, validation.EXCHANGE_TRIALS - 1])
def test_exchange_matrix_check_fails_on_one_non_hermitian_matrix(monkeypatch, index):
    # 1e-11j on the diagonal: a Hermitian residual of 2e-11, above the
    # check's 1e-12 and below the eigensolver's 1e-10, so the solve runs.
    trials = validation.EXCHANGE_TRIALS
    seen = _perturb_one_call(monkeypatch, "exchange_matrix", 5, trials, index, 1e-11j)
    result = check_exchange_matrix_properties(np.random.default_rng(5))
    _assert_every_trial_seen_once(seen, trials)
    assert not result.passed, result.detail
    assert result.detail.startswith("hermitian residual 2.000e-11"), result.detail


def old_bloch_draw(rng, pure):
    """The draw that random_bloch_vector replaced, normalised by np.linalg.norm."""
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    if not pure:
        v *= rng.uniform() ** (1.0 / 3.0)
    return v


@pytest.mark.parametrize("pure", [False, True])
def test_bloch_draw_normalises_as_linalg_norm(pure):
    # np.linalg.norm of a real vector is sqrt(v.dot(v)); the stacked helper
    # must add as it does, where (v * v).sum(axis=1) rounds apart on about a
    # tenth of the draws.
    for seed in range(4):
        old_rng, new_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = np.array([random_bloch_vector(new_rng, pure) for _ in range(10**4)])
        want = np.array([old_bloch_draw(old_rng, pure) for _ in range(10**4)])
        assert got.tobytes() == want.tobytes()
        assert new_rng.normal() == old_rng.normal()


def per_trial_draws(rng, trials):
    """The per-trial loop that _random_trials replaced: each trial's Kraus
    count, its operators' normals and its state, in stream order."""
    draws = []
    for _ in range(trials):
        k = int(rng.integers(1, MAX_DIM + 1))
        normals = rng.normal(size=(k, 2, 2, 2))
        v = rng.normal(size=3)
        v /= math.sqrt(v.dot(v))
        v *= rng.uniform() ** (1.0 / 3.0)
        draws.append((k, normals, v))
    return draws


@pytest.mark.parametrize("trials", [1, _TRIAL_CHUNK, _TRIAL_CHUNK + 1, 600])
def test_random_trials_draw_the_per_trial_stream(trials):
    for seed in (0, 1, validation.DEFAULT_SEED):
        old_rng, new_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        draws = per_trial_draws(old_rng, trials)
        want = []
        for start in range(0, trials, _TRIAL_CHUNK):
            groups = {}
            for k, normals, v in draws[start : start + _TRIAL_CHUNK]:
                groups.setdefault(k, []).append((normals, v))
            for group in groups.values():
                normals, states = zip(*group)
                want.append((validation._kraus_stacks(np.array(normals)),
                             bloch_to_density(np.array(states))))
        got = list(validation._random_trials(new_rng, trials))
        assert len(got) == len(want)
        for (channels, rho), (operators, matrices) in zip(got, want):
            assert channels.operators.tobytes() == operators.tobytes()
            assert rho.tobytes() == matrices.tobytes()
        assert new_rng.normal() == old_rng.normal()


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
