import math

import numpy as np
import pytest

from qsr.linalg import hermitian_eigenvalues, hermitian_residual

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def random_hermitian(rng, n):
    b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (b + b.conj().T) / 2


class TestValidation:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            hermitian_eigenvalues(np.ones((2, 3)))

    def test_rejects_oversized(self):
        with pytest.raises(ValueError, match="dimension"):
            hermitian_eigenvalues(np.eye(7))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            hermitian_eigenvalues(np.array([[np.nan, 0], [0, 1]]))


class TestHermitianEigenvalues:
    def test_identity(self):
        assert np.array_equal(hermitian_eigenvalues(I2), [1.0, 1.0])

    def test_pauli_spectrum(self):
        vals = hermitian_eigenvalues(SX)
        assert vals == pytest.approx([-1.0, 1.0], abs=1e-15)

    def test_diagonal_exchange_matrix(self):
        # x = 0.5, fully mixed input: diag(0.5, 0.25, 0.25)
        w = np.diag([0.5, 0.25, 0.25]).astype(complex)
        assert hermitian_eigenvalues(w) == pytest.approx([0.25, 0.25, 0.5], abs=1e-15)

    def test_diagonal_is_exact(self):
        d = np.diag([-3.0, 0.5, 2.0, 7.25, -0.125]).astype(complex)
        assert np.array_equal(hermitian_eigenvalues(d), [-3.0, -0.125, 0.5, 2.0, 7.25])

    def test_rejects_non_hermitian(self):
        m = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eigenvalues(m)

    def test_sum_matches_trace(self):
        rng = np.random.default_rng(11)
        for n in range(1, 7):
            for _ in range(20):
                m = random_hermitian(rng, n)
                vals = hermitian_eigenvalues(m)
                assert len(vals) == n
                assert sum(vals) == pytest.approx(np.trace(m).real, abs=1e-12)

    def test_sorted_ascending(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            vals = hermitian_eigenvalues(random_hermitian(rng, 5))
            assert np.array_equal(vals, np.sort(vals))

    def test_invariant_under_unitary_conjugation(self):
        rng = np.random.default_rng(14)
        for n in range(2, 7):
            for _ in range(20):
                m = random_hermitian(rng, n)
                u = _random_rotation_product(rng, n)
                conjugated = u @ m @ u.conj().T
                a = hermitian_eigenvalues(m)
                b = hermitian_eigenvalues(conjugated)
                assert max(abs(x - y) for x, y in zip(a, b)) < 1e-10

    def test_pauli_rotation_conjugation_2x2(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            m = random_hermitian(rng, 2)
            theta = rng.uniform(0, 2 * math.pi)
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            gen = axis[0] * SX + axis[1] * SY + axis[2] * SZ
            u = math.cos(theta / 2) * I2 - 1j * math.sin(theta / 2) * gen
            a = hermitian_eigenvalues(m)
            b = hermitian_eigenvalues(u @ m @ u.conj().T)
            assert max(abs(x - y) for x, y in zip(a, b)) < 1e-10


def _random_rotation_product(rng, n):
    """Unitary built from embedded 2x2 rotations with random phases."""
    u = np.eye(n, dtype=complex)
    for p in range(n - 1):
        for q in range(p + 1, n):
            theta = rng.uniform(0, 2 * math.pi)
            phi = rng.uniform(0, 2 * math.pi)
            c, s = math.cos(theta), math.sin(theta) * np.exp(1j * phi)
            plane = np.eye(n, dtype=complex)
            plane[p, p] = c
            plane[p, q] = -np.conj(s)
            plane[q, p] = s
            plane[q, q] = c
            u = u @ plane
    return u


class TestStacks:
    def test_stack_matches_one_at_a_time(self):
        rng = np.random.default_rng(16)
        stack = np.array([random_hermitian(rng, 3) for _ in range(5)])
        got = hermitian_eigenvalues(stack)
        assert isinstance(got, np.ndarray) and got.shape == (5, 3)
        for row, m in zip(got, stack):
            assert np.array_equal(row, hermitian_eigenvalues(m))

    def test_rejects_stack_with_one_non_hermitian_matrix(self):
        stack = np.array([I2, SX, np.array([[0, 1], [0, 0]], dtype=complex), SZ])
        with pytest.raises(ValueError, match="Hermitian.*matrix 2 of the stack"):
            hermitian_eigenvalues(stack)

    def test_rejects_stack_with_one_non_finite_matrix(self):
        stack = np.array([I2, np.array([[np.inf, 0], [0, 1]]), SZ])
        with pytest.raises(ValueError, match="finite in matrix 1 of the stack"):
            hermitian_eigenvalues(stack)

    def test_tolerance_applies_to_every_matrix(self):
        off = np.array([[1.0, 1e-8], [0.0, 2.0]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eigenvalues(np.array([I2, off]))

    @pytest.mark.parametrize("shape", [(2, 2, 3), (4, 7, 7), (1, 2, 2, 2)])
    def test_rejects_bad_stack_shapes(self, shape):
        with pytest.raises(ValueError, match="square|dimension"):
            hermitian_eigenvalues(np.zeros(shape))


def test_hermitian_residual():
    assert hermitian_residual(SY) == 0.0
    skew = np.array([[0, 1j], [1j, 0]])
    assert hermitian_residual(skew) == pytest.approx(2.0)
    # Over a stack: the largest |a - a^dag| entry of any matrix, bit for bit.
    rng = np.random.default_rng(8)
    stack = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
    want = np.abs(stack - stack.conj().swapaxes(-1, -2)).max()
    assert hermitian_residual(stack) == want
    assert hermitian_residual(np.array([I2, skew, SZ])) == pytest.approx(2.0)
    # hermitian_eigenvalues rejects with the same residual and names the matrix.
    off = np.array([[1.0, 1e-8], [0.0, 2.0]], dtype=complex)
    with pytest.raises(ValueError, match=f"residual {hermitian_residual(off):.3e}.* matrix 1 "):
        hermitian_eigenvalues(np.array([I2, off]))
