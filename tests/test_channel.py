import itertools
import math

import numpy as np
import pytest

from qsr.channel import (
    BlochVector,
    IDENTITY,
    KrausChannel,
    _as_states,
    _normalized_output,
    apply_channel,
    bloch_to_density,
    coherent_information,
    completeness_residual,
    density_to_bloch,
    entangled_fidelity,
    entropy_exchange,
    environment_output,
    exchange_matrix,
    spectrum_entropy,
    von_neumann_entropy,
)
from qsr.linalg import hermitian_eigenvalues, hermitian_residual
from qsr.resonance import bloch_ball_grid
from qsr.two_pauli import make_two_pauli
from qsr.validation import random_bloch_vector, random_kraus_channel

IDENTITY_CHANNEL = KrausChannel((IDENTITY,), label="identity")

# binary entropy h(0.25), frozen from -(0.75 log2 0.75 + 0.25 log2 0.25)
H_QUARTER = 0.8112781244591328


class TestBlochVector:
    def test_accepts_unit_vector(self):
        v = BlochVector(0.6, 0.0, 0.8)
        assert math.hypot(*v.as_tuple()) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_overlong_vector(self):
        with pytest.raises(ValueError, match="unphysical"):
            BlochVector(0.8, 0.8, 0.8)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            BlochVector(float("nan"), 0.0, 0.0)

    def test_a_sequence_reads_as_the_record_does(self):
        got = _as_states((0.1, 0.2, 0.3))
        assert got.dtype == float and got.shape == (3,)
        assert np.array_equal(got, _as_states(BlochVector(0.1, 0.2, 0.3)))
        assert BlochVector(*got) == BlochVector(0.1, 0.2, 0.3)
        with pytest.raises(ValueError, match="3 Bloch components"):
            _as_states((0.1, 0.2))


class TestKrausChannel:
    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="2x2"):
            KrausChannel((np.eye(3),))

    def test_rejects_empty_and_oversized(self):
        with pytest.raises(ValueError):
            KrausChannel(())
        with pytest.raises(ValueError):
            KrausChannel(tuple(np.eye(2) for _ in range(7)))

    def test_broken_channel_is_constructible(self):
        broken = KrausChannel((math.sqrt(0.5) * IDENTITY,), label="broken")
        assert completeness_residual(broken) == pytest.approx(0.5, abs=1e-15)

    def test_operators_stacked_once_at_construction(self):
        ops = (IDENTITY, 0.5 * IDENTITY)
        channel = KrausChannel(ops)
        assert isinstance(channel.operators, np.ndarray)
        assert channel.operators.dtype == complex and channel.operators.shape == (2, 2, 2)
        assert np.array_equal(channel.operators, np.stack(ops))

    def test_completeness_computed_on_first_use_only(self, monkeypatch):
        import qsr.channel

        calls = []

        def counted(channel):
            calls.append(channel)
            return completeness_residual(channel)

        monkeypatch.setattr(qsr.channel, "completeness_residual", counted)
        channel = make_two_pauli(0.3)
        assert calls == []
        rho = bloch_to_density((0.1, 0.2, 0.3))
        for _ in range(3):
            coherent_information(channel, rho)
        assert calls == [channel]


class TestBlochDensityConversions:
    def test_maximally_mixed(self):
        assert np.allclose(bloch_to_density((0, 0, 0)), IDENTITY / 2, atol=0)

    def test_computational_basis_state(self):
        assert np.allclose(
            bloch_to_density((0, 0, 1)), np.diag([1.0, 0.0]), atol=0
        )

    def test_generic_state_by_hand(self):
        # (I + 0.1 sx + 0.2 sy + 0.9 sz)/2, expanded entry by entry
        want = np.array([[0.95, 0.05 - 0.1j], [0.05 + 0.1j, 0.05]])
        assert np.abs(bloch_to_density((0.1, 0.2, 0.9)) - want).max() < 1e-16

    @pytest.mark.parametrize("m", [1, 2, 3, 9])
    def test_stack_equals_the_one_state_calls_bit_for_bit(self, m):
        rng = np.random.default_rng(m)
        states = np.array([random_bloch_vector(rng, pure=bool(i % 2)) for i in range(m)])
        if m > 1:  # signed zeros and a pole
            states[0] = (-0.0, 0.0, -1.0)
        got = bloch_to_density(states)
        assert got.dtype == complex and got.shape == (m, 2, 2)
        want = np.stack([bloch_to_density(BlochVector(*row)) for row in states])
        assert got.tobytes() == want.tobytes()
        # A list of rows is a stack too, also one of exactly three rows.
        assert bloch_to_density(states.tolist()).tobytes() == want.tobytes()

    def test_density_to_bloch_examples(self):
        assert np.array_equal(density_to_bloch(IDENTITY / 2), [0.0, 0.0, 0.0])
        assert np.array_equal(density_to_bloch(np.diag([1.0, 0.0])), [0.0, 0.0, 1.0])

    def test_round_trip(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            v = random_bloch_vector(rng)
            back = density_to_bloch(bloch_to_density(v))
            assert np.abs(back - v).max() < 1e-14


class TestVonNeumannEntropy:
    def test_pure_state_has_zero_entropy(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            rho = bloch_to_density(random_bloch_vector(rng, pure=True))
            assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert von_neumann_entropy(IDENTITY / 2) == pytest.approx(1.0, abs=1e-15)

    def test_quarter_spectrum(self):
        rho = np.diag([0.75, 0.25]).astype(complex)
        assert von_neumann_entropy(rho) == pytest.approx(H_QUARTER, abs=1e-15)

    def test_spectrum_entropy_clamps_rounding_noise(self):
        assert spectrum_entropy([1.0, -1e-11]) == pytest.approx(0.0, abs=0)

    def test_spectrum_entropy_rejects_negative(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            spectrum_entropy([1.1, -0.1])

    def test_spectrum_entropy_rows_of_a_stack(self):
        got = spectrum_entropy([[0.5, 0.5], [1.0, -1e-11], [0.75, 0.25]])
        assert isinstance(got, np.ndarray) and got.shape == (3,)
        assert got[0] == 1.0
        # the clamp acts row by row: -1e-11 counts as 0
        assert got[1] == 0.0
        assert got[2] == spectrum_entropy([0.75, 0.25])

    def test_spectrum_entropy_stack_rejects_any_negative_row(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            spectrum_entropy([[0.5, 0.5], [1.0, -1e-9]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_spectrum_entropy_rejects_non_finite(self, bad):
        # NaN passes the -1e-10 floor, so it must be caught on its own
        with pytest.raises(ValueError, match="finite"):
            spectrum_entropy([bad, 1.0])

    def test_spectrum_entropy_stack_rejects_non_finite_row(self):
        with pytest.raises(ValueError, match="finite in row 1 of the stack"):
            spectrum_entropy([[0.5, 0.5], [math.nan, 1.0], [1.0, 0.0]])


class TestApplyChannel:
    def test_identity_channel(self):
        rho = bloch_to_density((0.1, 0.2, 0.9))
        assert np.allclose(apply_channel(IDENTITY_CHANNEL, rho), rho, atol=0)

    def test_fully_noisy_rate_flips_z(self):
        rho = bloch_to_density((0, 0, 1))
        out = apply_channel(make_two_pauli(0.0), rho)
        got = density_to_bloch(out)
        assert np.abs(got - [0.0, 0.0, -1.0]).max() <= 1e-15

    def test_half_rate_kills_z_component(self):
        rho = bloch_to_density((0.1, 0.2, 0.9))
        got = density_to_bloch(apply_channel(make_two_pauli(0.5), rho))
        assert np.abs(got - [0.05, 0.1, 0.0]).max() <= 1e-15

    def test_rejects_incomplete_channel(self):
        broken = KrausChannel((math.sqrt(0.5) * IDENTITY,), label="broken")
        # The residual is computed once; the second use must still fail.
        for _ in range(2):
            with pytest.raises(ValueError, match="completeness"):
                apply_channel(broken, IDENTITY / 2)

    def test_trace_preserved_on_random_inputs(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            ch = random_kraus_channel(rng)
            rho = bloch_to_density(random_bloch_vector(rng))
            out = apply_channel(ch, rho)
            assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
            assert abs(np.trace(out).imag) < 1e-14


class TestCompleteness:
    def test_identity(self):
        assert completeness_residual(IDENTITY_CHANNEL) == 0.0

    def test_two_pauli_exact(self):
        for x in np.linspace(0.0, 1.0, 101):
            assert completeness_residual(make_two_pauli(float(x))) <= 1e-15

    def test_broken(self):
        broken = KrausChannel((math.sqrt(0.5) * IDENTITY,))
        assert completeness_residual(broken) == pytest.approx(0.5, abs=1e-15)


class TestExchangeMatrix:
    def test_identity_channel(self):
        w = exchange_matrix(IDENTITY_CHANNEL, bloch_to_density((0.3, 0.1, 0.2)))
        assert w.shape == (1, 1)
        assert w[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_mixed_input_is_diagonal(self):
        for x in (0.2, 0.5, 0.9):
            w = exchange_matrix(make_two_pauli(x), IDENTITY / 2)
            want = np.diag([x, (1 - x) / 2, (1 - x) / 2])
            assert np.abs(w - want).max() < 1e-15

    def test_properties_on_random_inputs(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            ch = random_kraus_channel(rng)
            rho = bloch_to_density(random_bloch_vector(rng))
            w = exchange_matrix(ch, rho)
            assert hermitian_residual(w) <= 1e-12
            assert np.trace(w).real == pytest.approx(1.0, abs=1e-12)
            assert hermitian_eigenvalues(w)[0] >= -1e-10


class TestEntropyExchange:
    def test_identity_channel_is_noiseless(self):
        rho = bloch_to_density((0.3, 0.1, 0.2))
        assert entropy_exchange(IDENTITY_CHANNEL, rho) == pytest.approx(0.0, abs=0)

    def test_half_rate_mixed_input(self):
        # spectrum diag(1/2, 1/4, 1/4) -> 1.5 bits
        assert entropy_exchange(make_two_pauli(0.5), IDENTITY / 2) == pytest.approx(
            1.5, abs=1e-15
        )

    def test_z_pole_gives_binary_entropy(self):
        rho = bloch_to_density((0, 0, 1))
        for x in (0.1, 0.3, 0.7):
            want = -(x * math.log2(x) + (1 - x) * math.log2(1 - x))
            assert entropy_exchange(make_two_pauli(x), rho) == pytest.approx(
                want, abs=1e-12
            )

    def test_invariant_under_operator_relabeling(self):
        rng = np.random.default_rng(25)
        for _ in range(10):
            ch = random_kraus_channel(rng, num_operators=3)
            rho = bloch_to_density(random_bloch_vector(rng))
            base = entropy_exchange(ch, rho)
            for perm in itertools.permutations(range(3)):
                shuffled = KrausChannel(tuple(ch.operators[i] for i in perm))
                assert entropy_exchange(shuffled, rho) == pytest.approx(
                    base, abs=1e-12
                )


class TestCoherentInformation:
    def test_identity_on_pure_state(self):
        rho = bloch_to_density((0, 0, 1))
        assert coherent_information(IDENTITY_CHANNEL, rho) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_half_rate_mixed_input(self):
        got = coherent_information(make_two_pauli(0.5), IDENTITY / 2)
        assert got == pytest.approx(-0.5, abs=1e-12)

    def test_pure_inputs_collapse_to_zero(self):
        rng = np.random.default_rng(26)
        for _ in range(20):
            rho = bloch_to_density(random_bloch_vector(rng, pure=True))
            x = float(rng.uniform())
            assert abs(coherent_information(make_two_pauli(x), rho)) < 1e-9


class TestEntangledFidelity:
    def test_identity_channel(self):
        rng = np.random.default_rng(27)
        for _ in range(10):
            rho = bloch_to_density(random_bloch_vector(rng))
            assert entangled_fidelity(IDENTITY_CHANNEL, rho) == pytest.approx(
                1.0, abs=1e-14
            )

    def test_closed_form(self):
        rng = np.random.default_rng(28)
        for _ in range(50):
            v = random_bloch_vector(rng)
            x = float(rng.uniform())
            rho = bloch_to_density(v)
            want = 0.5 * (v[0] ** 2 + v[1] ** 2) * (1 - x) + x
            got = entangled_fidelity(make_two_pauli(x), rho)
            assert got == pytest.approx(want, abs=1e-14)

    def test_z_pole_fully_noisy(self):
        rho = bloch_to_density((0, 0, 1))
        assert entangled_fidelity(make_two_pauli(0.0), rho) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_stays_in_unit_interval(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            ch = random_kraus_channel(rng)
            rho = bloch_to_density(random_bloch_vector(rng))
            f = entangled_fidelity(ch, rho)
            assert -1e-12 <= f <= 1.0 + 1e-12


class TestEnvironmentOutput:
    def test_identity_channel(self):
        env = environment_output(IDENTITY_CHANNEL, bloch_to_density((0.2, 0.1, 0.4)))
        assert env.shape == (1, 1)
        assert env[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_mixed_input_matches_diagonal_exchange(self):
        env = environment_output(make_two_pauli(0.3), IDENTITY / 2)
        assert np.abs(env - np.diag([0.3, 0.35, 0.35])).max() < 1e-15

    def test_spectrum_matches_exchange_matrix(self):
        rng = np.random.default_rng(30)
        for _ in range(100):
            ch = random_kraus_channel(rng)
            rho = bloch_to_density(random_bloch_vector(rng))
            spectrum_w = hermitian_eigenvalues(exchange_matrix(ch, rho))
            spectrum_env = hermitian_eigenvalues(environment_output(ch, rho))
            assert max(abs(a - b) for a, b in zip(spectrum_w, spectrum_env)) < 1e-10

    def test_is_a_density_matrix(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            ch = random_kraus_channel(rng)
            rho = bloch_to_density(random_bloch_vector(rng))
            env = environment_output(ch, rho)
            assert hermitian_residual(env) < 1e-12
            assert np.trace(env).real == pytest.approx(1.0, abs=1e-12)
            assert hermitian_eigenvalues(env)[0] >= -1e-10


def test_bloch_contraction_under_two_pauli():
    rng = np.random.default_rng(32)
    for _ in range(100):
        v = random_bloch_vector(rng)
        x = float(rng.uniform())
        out = density_to_bloch(apply_channel(make_two_pauli(x), bloch_to_density(v)))
        assert math.sqrt(out @ out) <= math.sqrt(v @ v) + 1e-12


# Stacks of density matrices go through the same einsum path as one matrix;
# the contractions may run in another order, so a stack agrees with one
# matrix at a time to a few ulps of the O(1) results.
STACK_TOL = 8 * np.finfo(float).eps

#: The channel of the shape test, with k = 3 Kraus operators.
SHAPE_CHANNEL = make_two_pauli(0.3)

CHANNEL_FUNCTIONS = (
    apply_channel,
    exchange_matrix,
    entropy_exchange,
    coherent_information,
    entangled_fidelity,
    environment_output,
)


def random_density_stack(rng, m):
    return np.stack([bloch_to_density(random_bloch_vector(rng)) for _ in range(m)])


def with_bad_matrix(stack, index, bad):
    stack = stack.copy()
    stack[index] = bad
    return stack


def old_environment_output(channel, rho):
    """The block-assembly loop that environment_output replaced."""
    ops = channel.operators
    k = len(ops)
    joint = np.zeros((2 * k, 2 * k), dtype=complex)
    for i in range(k):
        for j in range(k):
            joint[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = ops[i] @ rho @ ops[j].conj().T
    env = np.empty((k, k), dtype=complex)
    for i in range(k):
        for j in range(k):
            block = joint[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
            env[i, j] = block[0, 0] + block[1, 1]
    return env


class TestStackedRoute:
    @pytest.mark.parametrize("func", CHANNEL_FUNCTIONS, ids=lambda f: f.__name__)
    def test_stack_equals_one_matrix_at_a_time(self, func):
        rng = np.random.default_rng(33)
        for k in range(1, 7):
            channel = random_kraus_channel(rng, num_operators=k)
            rho = random_density_stack(rng, 9)
            got = func(channel, rho)
            one_by_one = [func(channel, r) for r in rho]
            assert isinstance(got, np.ndarray) and len(got) == len(rho)
            assert np.abs(got - np.array(one_by_one)).max() <= STACK_TOL

    def test_state_functions_on_a_stack(self):
        rng = np.random.default_rng(34)
        rho = random_density_stack(rng, 9)
        entropies = von_neumann_entropy(rho)
        assert entropies.shape == (9,)
        assert np.abs(entropies - [von_neumann_entropy(r) for r in rho]).max() <= STACK_TOL
        bloch = density_to_bloch(rho)
        assert bloch.shape == (9, 3)
        singles = [density_to_bloch(r) for r in rho]
        assert np.abs(bloch - singles).max() <= STACK_TOL

    @pytest.mark.parametrize("func, shape", [
        (lambda rho: apply_channel(SHAPE_CHANNEL, rho), (2, 2)),
        (lambda rho: exchange_matrix(SHAPE_CHANNEL, rho), (3, 3)),
        (lambda rho: entropy_exchange(SHAPE_CHANNEL, rho), ()),
        (lambda rho: coherent_information(SHAPE_CHANNEL, rho), ()),
        (lambda rho: entangled_fidelity(SHAPE_CHANNEL, rho), ()),
        (lambda rho: environment_output(SHAPE_CHANNEL, rho), (3, 3)),
        (von_neumann_entropy, ()),
        (density_to_bloch, (3,)),
        (hermitian_eigenvalues, (2,)),
        # The diagonal of each density matrix is a probability spectrum.
        (lambda rho: spectrum_entropy(rho.diagonal(axis1=-2, axis2=-1).real), ()),
    ], ids=["apply_channel", "exchange_matrix", "entropy_exchange", "coherent_information",
            "entangled_fidelity", "environment_output", "von_neumann_entropy",
            "density_to_bloch", "hermitian_eigenvalues", "spectrum_entropy"])
    def test_one_matrix_gives_the_per_matrix_shape(self, func, shape):
        rho = random_density_stack(np.random.default_rng(44), 5)
        singles = [func(r) for r in rho]
        for single in singles:
            assert type(single) is (np.float64 if shape == () else np.ndarray)
            assert np.shape(single) == shape
        got = func(rho)
        assert isinstance(got, np.ndarray) and got.shape == (5,) + shape
        assert np.abs(got - np.array(singles)).max() <= STACK_TOL

    def test_output_renormalised_per_matrix(self):
        rng = np.random.default_rng(35)
        channel = random_kraus_channel(rng, num_operators=4)
        rho = random_density_stack(rng, 5) * np.array([0.5, 1.0, 2.0, 3.0, 0.25])[:, None, None]
        out = _normalized_output(channel, rho)
        assert np.abs(np.trace(out, axis1=1, axis2=2) - 1.0).max() <= STACK_TOL
        for r, o in zip(rho, out):
            assert np.abs(_normalized_output(channel, r) - o).max() <= STACK_TOL

    @pytest.mark.parametrize(
        "func",
        (entropy_exchange, coherent_information),
        ids=lambda f: f.__name__,
    )
    def test_rejects_non_hermitian_matrix_by_index(self, func):
        rng = np.random.default_rng(36)
        rho = with_bad_matrix(random_density_stack(rng, 4), 2, [[0.5, 0.3], [0.0, 0.5]])
        with pytest.raises(ValueError, match="Hermitian.*matrix 2 of the stack"):
            func(random_kraus_channel(rng, num_operators=3), rho)

    def test_von_neumann_entropy_rejects_non_hermitian_matrix_by_index(self):
        rho = with_bad_matrix(random_density_stack(np.random.default_rng(37), 4), 3,
                              [[0.5, 0.3], [0.0, 0.5]])
        with pytest.raises(ValueError, match="Hermitian.*matrix 3 of the stack"):
            von_neumann_entropy(rho)

    @pytest.mark.parametrize("func", CHANNEL_FUNCTIONS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_matrix_by_index(self, func, bad):
        rng = np.random.default_rng(38)
        rho = with_bad_matrix(random_density_stack(rng, 4), 1, [[bad, 0.0], [0.0, 0.5]])
        with pytest.raises(ValueError, match="finite.*matrix 1 of the stack"):
            func(random_kraus_channel(rng, num_operators=2), rho)

    def test_state_functions_reject_non_finite_matrix_by_index(self):
        rho = with_bad_matrix(random_density_stack(np.random.default_rng(39), 4), 2,
                              [[0.5, math.nan], [0.0, 0.5]])
        for func in (von_neumann_entropy, density_to_bloch):
            with pytest.raises(ValueError, match="finite.*matrix 2 of the stack"):
                func(rho)

    def test_rejects_bad_shapes(self):
        channel = make_two_pauli(0.3)
        for shape in [(3, 3), (2,), (4, 2, 3), (2, 2, 2, 2)]:
            with pytest.raises(ValueError, match="2x2 density matrix"):
                apply_channel(channel, np.zeros(shape))

    def test_fidelity_rejects_imaginary_residue_in_one_sample(self):
        channel = make_two_pauli(0.3)
        rho = random_density_stack(np.random.default_rng(40), 4)
        # A non-Hermitian perturbation makes Tr(rho A) Tr(rho A^dag) complex.
        skewed = with_bad_matrix(rho, 1, rho[1] + [[0.0, 1e-9j], [0.0, 0.0]])
        with pytest.raises(ValueError, match="non-real.*matrix 1 of the stack"):
            entangled_fidelity(channel, skewed)
        # below 1e-12 the residue is discarded, as for one matrix
        slight = with_bad_matrix(rho, 1, rho[1] + [[0.0, 1e-15j], [0.0, 0.0]])
        assert entangled_fidelity(channel, slight).shape == (4,)

    def test_bloch_norm_checked_per_matrix(self):
        rho = random_density_stack(np.random.default_rng(41), 4)
        rho[2] = np.diag([1.5, -0.5])
        with pytest.raises(ValueError, match=r"unphysical Bloch vector: \|a\|\^2 = 4 > 1"
                           r" in matrix 2 of the stack$"):
            density_to_bloch(rho)
        with pytest.raises(ValueError, match=r"unphysical Bloch vector: \|a\|\^2 = 4 > 1$"):
            density_to_bloch(rho[2])

    def test_completeness_checked_for_a_stack(self):
        broken = KrausChannel((math.sqrt(0.5) * IDENTITY,), label="broken")
        rho = random_density_stack(np.random.default_rng(42), 3)
        for func in (apply_channel, entropy_exchange, coherent_information):
            with pytest.raises(ValueError, match="completeness"):
                func(broken, rho)

    def test_environment_output_matches_block_assembly(self):
        rng = np.random.default_rng(43)
        for k in range(1, 7):
            for _ in range(5):
                channel = random_kraus_channel(rng, num_operators=k)
                rho = bloch_to_density(random_bloch_vector(rng))
                want = old_environment_output(channel, rho)
                got = environment_output(channel, rho)
                assert got.shape == (k, k)
                assert np.abs(got - want).max() <= STACK_TOL


def random_channel_stack(rng, n, k):
    """n random channels with k operators each, as one (n, k, 2, 2) stack."""
    operators = [random_kraus_channel(rng, num_operators=k).operators for _ in range(n)]
    return KrausChannel(np.stack(operators), label=f"random(k={k})")


def two_pauli_stack(rates):
    return KrausChannel(np.stack([make_two_pauli(float(x)).operators for x in rates]))


class TestChannelStack:
    """An (n, k, 2, 2) stack of channels follows the leading-axis rule, row
    by row bit for bit as each channel alone."""

    @pytest.mark.parametrize("func", CHANNEL_FUNCTIONS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("shared", [False, True], ids=["rho-stack", "one-rho"])
    def test_row_equals_the_channel_alone(self, func, shared):
        rng = np.random.default_rng(45)
        stacks = [random_channel_stack(rng, 7, k) for k in range(1, 7)]
        stacks.append(two_pauli_stack(np.linspace(0.0, 1.0, 7)))
        for channels in stacks:
            rho = random_density_stack(rng, 7)
            if shared:
                rho = rho[0]
            got = func(channels, rho)
            assert isinstance(got, np.ndarray) and len(got) == 7
            for t, operators in enumerate(channels.operators):
                want = np.asarray(func(KrausChannel(operators), rho if shared else rho[t]))
                assert got[t].shape == want.shape and got[t].tobytes() == want.tobytes()

    @pytest.mark.parametrize("func", CHANNEL_FUNCTIONS, ids=lambda f: f.__name__)
    def test_refuses_a_rho_stack_of_another_length(self, func):
        channels = KrausChannel(np.stack([IDENTITY[None]] * 3))
        with pytest.raises(ValueError, match=r"^a stack of 3 channels needs one density matrix"
                           r" or a stack of 3, got a stack of 4$"):
            func(channels, np.stack([IDENTITY / 2] * 4))

    def test_completeness_residual_per_channel(self):
        operators = random_channel_stack(np.random.default_rng(46), 5, 4).operators
        operators[3] *= 2.0
        channels = KrausChannel(operators)
        got = completeness_residual(channels)
        assert isinstance(got, np.ndarray) and got.shape == (5,)
        want = [completeness_residual(KrausChannel(operators)) for operators in channels.operators]
        assert got.tolist() == want and got[3] > 1.0

    @pytest.mark.parametrize("operators, message", [
        (np.zeros((4, 0, 2, 2)), "channel needs 1..6 Kraus operators, got 0 in channel 0"),
        (np.zeros((4, 7, 2, 2)), "channel needs 1..6 Kraus operators, got 7 in channel 0"),
        (np.zeros((4, 1, 3, 3)), r"Kraus operators must be 2x2, got \(3, 3\) in channel 0"),
        (np.zeros((4, 1, 2, 3)), r"Kraus operators must be 2x2, got \(2, 3\) in channel 0"),
    ])
    def test_refuses_a_bad_shape_naming_the_first_channel(self, operators, message):
        with pytest.raises(ValueError, match=f"^{message} of the stack$"):
            KrausChannel(operators)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_refuses_a_non_finite_operator_naming_its_channel(self, bad):
        operators = np.stack([np.stack((IDENTITY, 0 * IDENTITY))] * 5)
        operators[2, 1, 0, 1] = operators[4, 0, 0, 0] = bad
        with pytest.raises(ValueError, match="^matrix entries must be finite in channel 2 of the stack$"):
            KrausChannel(operators)

    def test_refuses_an_empty_stack(self):
        with pytest.raises(ValueError, match="^a stack of channels needs at least one channel$"):
            KrausChannel(np.zeros((0, 1, 2, 2)))

    def test_incomplete_channel_named_with_its_residual(self):
        operators = np.stack([IDENTITY[None]] * 5)
        operators[1] *= math.sqrt(0.5)
        operators[3] *= 0.5
        channels = KrausChannel(operators, label="scaled")
        residual = completeness_residual(channels)
        assert np.abs(residual - [0.0, 0.5, 0.0, 0.75, 0.0]).max() <= 1e-15
        rho = random_density_stack(np.random.default_rng(47), 5)
        for func in (apply_channel, entropy_exchange, coherent_information):
            for r in (rho, rho[0]):
                with pytest.raises(ValueError, match=r"^scaled violates the completeness relation:"
                                   r" residual 5\.000e-01 in channel 1 of the stack$"):
                    func(channels, r)

    @pytest.mark.parametrize("operators, message", [
        ((), "channel needs 1..6 Kraus operators, got 0"),
        (tuple(np.eye(2) for _ in range(7)), "channel needs 1..6 Kraus operators, got 7"),
        ((np.eye(3),), r"Kraus operators must be 2x2, got \(3, 3\)"),
        ((np.eye(2)[:, :1],), r"expected a square matrix or a stack of them, got shape \(1, 2, 1\)"),
        ((IDENTITY, [[math.nan, 0], [0, 0]]), "matrix entries must be finite in matrix 1 of the stack"),
    ])
    def test_one_channel_messages_are_unchanged(self, operators, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            KrausChannel(operators)

    def test_one_incomplete_channel_message_is_unchanged(self):
        broken = KrausChannel((math.sqrt(0.5) * IDENTITY,), label="broken")
        assert type(completeness_residual(broken)) is float
        with pytest.raises(ValueError, match=r"^broken violates the completeness relation:"
                           r" residual 5\.000e-01$"):
            apply_channel(broken, IDENTITY / 2)


def einsum_apply_channel(channel, rho):
    """The one-pass einsum that apply_channel replaced, as the reference."""
    ops = channel.operators
    return np.einsum("...kab,...bc,...kdc->...ad", ops, rho, ops.conj())


class TestApplyChannelOrder:
    """apply_channel adds its products in a fixed order: A_k rho over b, then
    (A_k rho) A_k^dag over c, then the operators in k order."""

    def test_two_pauli_equals_the_einsum_bit_for_bit(self):
        # Every two-Pauli operator has one nonzero entry per row and column,
        # so each inner sum has one nonzero term, and the rest rounds as the
        # einsum does.
        rho = bloch_to_density(bloch_ball_grid(9))
        rates = np.linspace(0.0, 1.0, 101)
        for x in rates:
            channel = make_two_pauli(float(x))
            for matrices in (rho, *rho[::32]):  # the grid's stack, then single matrices
                got = apply_channel(channel, matrices)
                assert got.tobytes() == einsum_apply_channel(channel, matrices).tobytes()
        channels = two_pauli_stack(rates)
        for matrix in rho[::32]:
            got = apply_channel(channels, matrix)
            assert got.tobytes() == einsum_apply_channel(channels, matrix).tobytes()

    @pytest.mark.parametrize("k", range(1, 7))
    def test_random_channels_are_within_1e_15_of_the_einsum(self, k):
        rng = np.random.default_rng(60 + k)
        for n in (1, 7, 300):
            channels = random_channel_stack(rng, n, k)
            rho = random_density_stack(rng, n)
            for pairing in ((channels, rho), (channels, rho[0]),
                            (KrausChannel(channels.operators[0]), rho)):
                gap = np.abs(apply_channel(*pairing) - einsum_apply_channel(*pairing)).max()
                assert gap <= 1e-15

    @pytest.mark.parametrize("k", range(1, 7))
    def test_row_equals_the_one_matrix_call_bit_for_bit(self, k):
        # The order does not depend on the stack's length, so a row of any
        # stack is its own call, for paired stacks and for one shared channel.
        rng = np.random.default_rng(70 + k)
        channels = random_channel_stack(rng, 300, k)
        rho = random_density_stack(rng, 300)
        paired = apply_channel(channels, rho)
        shared = apply_channel(KrausChannel(channels.operators[0]), rho)
        for t in range(300):
            assert paired[t].tobytes() == apply_channel(
                KrausChannel(channels.operators[t]), rho[t]).tobytes()
            assert shared[t].tobytes() == apply_channel(
                KrausChannel(channels.operators[0]), rho[t]).tobytes()
