import itertools
import math

import numpy as np
import pytest

from qsr.channel import (
    BlochVector,
    IDENTITY,
    KrausChannel,
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
    quantum_mutual_information,
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


class TestQuantumMutualInformation:
    def test_identity_on_maximally_mixed(self):
        assert quantum_mutual_information(IDENTITY_CHANNEL, IDENTITY / 2) == (
            pytest.approx(2.0, abs=1e-12)
        )

    def test_identity_on_pure_state(self):
        rho = bloch_to_density((0, 0, 1))
        assert quantum_mutual_information(IDENTITY_CHANNEL, rho) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_half_rate_mixed_input(self):
        got = quantum_mutual_information(make_two_pauli(0.5), IDENTITY / 2)
        assert got == pytest.approx(0.5, abs=1e-12)


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
