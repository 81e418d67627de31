import math

import numpy as np
import pytest

from qsr.channel import (
    IDENTITY,
    PAULI_X,
    PAULI_Y,
    apply_channel,
    bloch_to_density,
    completeness_residual,
    density_to_bloch,
    exchange_matrix,
    von_neumann_entropy,
)
from qsr.linalg import hermitian_eigenvalues
from qsr.two_pauli import (
    analytic_exchange_matrix,
    analytic_fidelity,
    analytic_output_bloch,
    analytic_output_entropy,
    make_two_pauli,
    two_pauli_metrics,
)
from qsr.validation import check_analytic_generic_agreement, random_bloch_vector

# binary entropy h(0.3), frozen from -(0.3 log2 0.3 + 0.7 log2 0.7)
H_03 = 0.8812908992306927


def binary_entropy(p):
    if p in (0.0, 1.0):
        return 0.0
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


class TestFactory:
    def test_noiseless_endpoint(self):
        ops = make_two_pauli(1.0).operators
        assert np.array_equal(ops[0], IDENTITY)
        assert np.abs(ops[1]).max() == 0.0
        assert np.abs(ops[2]).max() == 0.0

    def test_fully_noisy_endpoint(self):
        ops = make_two_pauli(0.0).operators
        assert np.abs(ops[0]).max() == 0.0
        assert np.allclose(ops[1], math.sqrt(0.5) * PAULI_X, atol=0)
        assert np.allclose(ops[2], -1j * math.sqrt(0.5) * PAULI_Y, atol=0)

    def test_half_rate_operators(self):
        ops = make_two_pauli(0.5).operators
        assert np.allclose(ops[0], math.sqrt(0.5) * IDENTITY, atol=0)
        assert np.allclose(ops[1], 0.5 * PAULI_X, atol=0)
        assert np.allclose(ops[2], -0.5j * PAULI_Y, atol=0)

    def test_completeness_across_rates(self):
        for x in np.linspace(0.0, 1.0, 101):
            assert completeness_residual(make_two_pauli(float(x))) <= 1e-15

    @pytest.mark.parametrize("x", [-0.1, 1.1, float("nan")])
    def test_rejects_out_of_range_rate(self, x):
        with pytest.raises(ValueError, match="flipping rate"):
            make_two_pauli(x)


class TestOutputBloch:
    def test_identity_rate(self):
        got = analytic_output_bloch((0.1, 0.2, 0.9), 1.0)
        assert got.shape == (1, 3)
        assert tuple(got[0].tolist()) == (0.1, 0.2, 0.9)

    def test_half_rate(self):
        got = analytic_output_bloch((0.1, 0.2, 0.9), 0.5)[0]
        assert tuple(got.tolist()) == pytest.approx((0.05, 0.1, 0.0), abs=1e-16)

    def test_zero_rate_flips_z(self):
        assert analytic_output_bloch((0, 0, 1), 0.0)[0].tolist() == [0.0, 0.0, -1.0]

    def test_matches_generic_route(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            v = random_bloch_vector(rng)
            x = float(rng.uniform())
            out = apply_channel(make_two_pauli(x), bloch_to_density(v))
            got = analytic_output_bloch(v, x)[0]
            want = density_to_bloch(out)
            assert max(
                abs(a - b) for a, b in zip(got.tolist(), want.as_tuple())
            ) < 1e-14


class TestExchangeMatrixClosedForm:
    def test_mixed_input_is_diagonal(self):
        for x in (0.0, 0.25, 0.7, 1.0):
            w = analytic_exchange_matrix((0, 0, 0), x)
            assert np.abs(w - np.diag([x, (1 - x) / 2, (1 - x) / 2])).max() == 0.0

    def test_matches_generic_route_entrywise(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            v = random_bloch_vector(rng)
            x = float(rng.uniform())
            got = analytic_exchange_matrix(v, x)
            want = exchange_matrix(make_two_pauli(x), bloch_to_density(v))
            assert np.abs(got - want).max() < 1e-14

    def test_z_pole_spectrum(self):
        # lower 2x2 block has eigenvalues (1 - x) and 0
        for x in (0.1, 0.4, 0.8):
            vals = hermitian_eigenvalues(analytic_exchange_matrix((0, 0, 1), x)[0])
            want = sorted([x, 1 - x, 0.0])
            assert vals == pytest.approx(want, abs=1e-14)


class TestOutputEntropy:
    def test_mixed_input_stays_maximal(self):
        for x in (0.0, 0.3, 1.0):
            assert analytic_output_entropy((0, 0, 0), x) == pytest.approx(1.0, abs=0)

    def test_z_pole_half_rate(self):
        assert analytic_output_entropy((0, 0, 1), 0.5) == pytest.approx(1.0, abs=1e-15)

    def test_matches_generic_route(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            v = random_bloch_vector(rng)
            x = float(rng.uniform())
            out = apply_channel(make_two_pauli(x), bloch_to_density(v))
            assert analytic_output_entropy(v, x) == pytest.approx(
                von_neumann_entropy(out), abs=1e-12
            )


class TestFidelityClosedForm:
    def test_identity_rate(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            assert analytic_fidelity(random_bloch_vector(rng), 1.0) == 1.0

    def test_z_pole_fully_noisy(self):
        assert analytic_fidelity((0, 0, 1), 0.0) == 0.0

    def test_spot_value(self):
        # 0.5 * (0.09 + 0.16) * 0.5 + 0.5
        assert analytic_fidelity((0.3, 0.4, 0.2), 0.5) == pytest.approx(
            0.5625, abs=1e-16
        )

    def test_affine_strictly_increasing_in_rate(self):
        rng = np.random.default_rng(45)
        for _ in range(20):
            v = random_bloch_vector(rng)
            xs = np.linspace(0.0, 1.0, 11)
            vals = [analytic_fidelity(v, float(x)) for x in xs]
            assert all(b > a for a, b in zip(vals, vals[1:]))


class TestMetrics:
    def test_mixed_input_half_rate_spot_values(self):
        m = two_pauli_metrics((0, 0, 0), 0.5)
        assert m.noise[0] == pytest.approx(1.5, abs=1e-12)
        assert m.output_entropy[0] == pytest.approx(1.0, abs=1e-12)
        assert m.coherent_info[0] == pytest.approx(-0.5, abs=1e-12)
        assert m.fidelity[0] == pytest.approx(0.5, abs=1e-12)

    def test_z_pole_spot_values(self):
        m = two_pauli_metrics((0, 0, 1), 0.3)
        assert m.noise[0] == pytest.approx(H_03, abs=1e-12)
        assert m.output_entropy[0] == pytest.approx(H_03, abs=1e-12)
        assert m.coherent_info[0] == pytest.approx(0.0, abs=1e-12)
        assert m.fidelity[0] == pytest.approx(0.3, abs=1e-15)

    def test_identity_rate_is_exact(self):
        v = (0.1, 0.2, 0.3)
        m = two_pauli_metrics(v, 1.0)
        assert m.noise[0] == 0.0
        assert m.fidelity[0] == 1.0
        assert tuple(m.output_bloch[0].tolist()) == pytest.approx(v, abs=1e-14)
        # with no noise, coherent information is the input entropy
        want = von_neumann_entropy(bloch_to_density(v))
        assert m.coherent_info[0] == pytest.approx(want, abs=1e-12)

    def test_coherent_info_stored_as_difference(self):
        rng = np.random.default_rng(46)
        for _ in range(20):
            m = two_pauli_metrics(random_bloch_vector(rng), float(rng.uniform()))
            assert m.coherent_info[0] == m.output_entropy[0] - m.noise[0]

    def test_pure_states_have_matching_entropies(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            v = random_bloch_vector(rng, pure=True)
            for x in np.linspace(0.0, 1.0, 21):
                m = two_pauli_metrics(v, float(x))
                assert abs(m.noise[0] - m.output_entropy[0]) < 1e-10


def test_analytic_generic_agreement_full_grid():
    """Every closed form agrees with the generic Kraus route to 1e-12 over
    a 21^3 Bloch ball grid crossed with 101 rates."""
    result = check_analytic_generic_agreement(21, 101)
    print(result.detail)
    assert result.passed, result.detail
