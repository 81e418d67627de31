import itertools
import math

import numpy as np
import pytest

from qsr.channel import (
    BlochVector,
    IDENTITY,
    KrausChannel,
    _normalized_output,
    apply_channel,
    as_bloch,
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
from qsr.two_pauli import make_two_pauli
from qsr.validation import random_bloch_vector, random_kraus_channel

IDENTITY_CHANNEL = KrausChannel((IDENTITY,), label="identity")

# binary entropy h(0.25), frozen from -(0.75 log2 0.75 + 0.25 log2 0.25)
H_QUARTER = 0.8112781244591328


class TestBlochVector:
    def test_accepts_unit_vector(self):
        v = BlochVector(0.6, 0.0, 0.8)
        assert v.norm == pytest.approx(1.0, abs=1e-15)

    def test_rejects_overlong_vector(self):
        with pytest.raises(ValueError, match="unphysical"):
            BlochVector(0.8, 0.8, 0.8)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            BlochVector(float("nan"), 0.0, 0.0)

    def test_as_bloch_coerces_sequences(self):
        assert as_bloch((0.1, 0.2, 0.3)) == BlochVector(0.1, 0.2, 0.3)
        with pytest.raises(ValueError, match="3 Bloch components"):
            as_bloch((0.1, 0.2))


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
        channel = make_two_pauli(0.3)
        assert channel.stack.shape == (3, 2, 2)
        assert all(np.array_equal(s, op) for s, op in zip(channel.stack, channel.operators))

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

    def test_density_to_bloch_examples(self):
        assert density_to_bloch(IDENTITY / 2) == BlochVector(0, 0, 0)
        assert density_to_bloch(np.diag([1.0, 0.0])) == BlochVector(0, 0, 1)

    def test_round_trip(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            v = random_bloch_vector(rng)
            back = density_to_bloch(bloch_to_density(v))
            assert max(
                abs(a - b) for a, b in zip(v.as_tuple(), back.as_tuple())
            ) < 1e-14


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

    def test_spectrum_entropy_single_spectrum_is_float(self):
        assert type(spectrum_entropy([0.5, 0.5])) is float

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
        assert got.as_tuple() == pytest.approx((0.0, 0.0, -1.0), abs=1e-15)

    def test_half_rate_kills_z_component(self):
        rho = bloch_to_density((0.1, 0.2, 0.9))
        got = density_to_bloch(apply_channel(make_two_pauli(0.5), rho))
        assert got.as_tuple() == pytest.approx((0.05, 0.1, 0.0), abs=1e-15)

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
            want = 0.5 * (v.a1**2 + v.a2**2) * (1 - x) + x
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
        assert out.norm <= v.norm + 1e-12


# Stacks of density matrices go through the same einsum path as one matrix;
# the contractions may run in another order, so a stack agrees with one
# matrix at a time to a few ulps of the O(1) results.
STACK_TOL = 8 * np.finfo(float).eps

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
        assert all(isinstance(b, BlochVector) for b in singles)
        assert np.abs(bloch - [b.as_tuple() for b in singles]).max() <= STACK_TOL

    def test_one_matrix_keeps_its_types(self):
        channel = make_two_pauli(0.3)
        rho = bloch_to_density((0.1, 0.2, 0.3))
        for func in (entropy_exchange, coherent_information, entangled_fidelity):
            assert type(func(channel, rho)) is float
        assert type(von_neumann_entropy(rho)) is float
        assert apply_channel(channel, rho).shape == (2, 2)
        assert exchange_matrix(channel, rho).shape == (3, 3)
        assert environment_output(channel, rho).shape == (3, 3)

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
        with pytest.raises(ValueError, match="unphysical.*matrix 2 of the stack"):
            density_to_bloch(rho)

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
