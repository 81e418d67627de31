import collections
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsr import two_pauli
from qsr.channel import (
    BlochVector,
    IDENTITY,
    PAULI_X,
    PAULI_Y,
    apply_channel,
    bloch_to_density,
    completeness_residual,
    density_to_bloch,
    exchange_matrix,
    spectrum_entropy,
    von_neumann_entropy,
)
from qsr.linalg import hermitian_eigenvalues
from qsr.resonance import detect_multivalued, state_scan
from qsr.two_pauli import (
    _SOLVE_BLOCK,
    analytic_exchange_matrix,
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

    def test_rejects_an_empty_rate_array(self):
        # Every closed form shares the rate check; an empty sweep would
        # reach detection with no samples.
        with pytest.raises(ValueError, match="flipping rates must be a non-empty 1-D array"):
            two_pauli_metrics((0.3, 0.4, 0.2), [])


class TestOutputBloch:
    def test_identity_rate(self):
        got = two_pauli_metrics((0.1, 0.2, 0.9), 1.0).output_bloch
        assert got.shape == (1, 3)
        assert tuple(got[0].tolist()) == (0.1, 0.2, 0.9)

    def test_half_rate(self):
        got = two_pauli_metrics((0.1, 0.2, 0.9), 0.5).output_bloch[0]
        assert tuple(got.tolist()) == pytest.approx((0.05, 0.1, 0.0), abs=1e-16)

    def test_zero_rate_flips_z(self):
        assert two_pauli_metrics((0, 0, 1), 0.0).output_bloch[0].tolist() == [0.0, 0.0, -1.0]

    def test_matches_generic_route(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            v = random_bloch_vector(rng)
            x = float(rng.uniform())
            out = apply_channel(make_two_pauli(x), bloch_to_density(v))
            got = two_pauli_metrics(v, x).output_bloch[0]
            want = density_to_bloch(out)
            assert np.abs(got - want).max() < 1e-14


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
            assert two_pauli_metrics(random_bloch_vector(rng), 1.0).fidelity == 1.0

    def test_z_pole_fully_noisy(self):
        assert two_pauli_metrics((0, 0, 1), 0.0).fidelity == 0.0

    def test_spot_value(self):
        # 0.5 * (0.09 + 0.16) * 0.5 + 0.5
        assert two_pauli_metrics((0.3, 0.4, 0.2), 0.5).fidelity == pytest.approx(
            0.5625, abs=1e-16
        )

    def test_affine_strictly_increasing_in_rate(self):
        rng = np.random.default_rng(45)
        for _ in range(20):
            v = random_bloch_vector(rng)
            xs = np.linspace(0.0, 1.0, 11)
            vals = two_pauli_metrics(v, xs).fidelity
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


@pytest.mark.parametrize("state", [(0.3, 0.4, 0.2), (1.0, 0.0, 0.0)])
# Past _SOLVE_BLOCK // 2 rates a block holds one row, not two; past
# _SOLVE_BLOCK a row is solved in two runs of rates.
@pytest.mark.parametrize("rates", [
    1, _SOLVE_BLOCK // 2 - 1, _SOLVE_BLOCK // 2, _SOLVE_BLOCK // 2 + 1, _SOLVE_BLOCK,
    _SOLVE_BLOCK + 1, 20001])
def test_blocked_metrics_match_one_pass(state, rates):
    # The one-pass route: every rate's closed-form spectrum in one call, and
    # a pure state's noise taken from its output entropy.
    x = np.linspace(0.0, 1.0, rates)
    a1, a2, a3 = state
    output_entropy = analytic_output_entropy(state, x)
    noise = spectrum_entropy(two_pauli._exchange_spectrum(a1, a2, a3, x))
    if a1 * a1 + a2 * a2 + a3 * a3 >= 1.0:
        noise = output_entropy
    want = {
        "noise": noise,
        "coherent_info": output_entropy - noise,
        "fidelity": 0.5 * (a1 * a1 + a2 * a2) * (1.0 - x) + x,
        "output_entropy": output_entropy,
        "output_bloch": np.stack((a1 * x, a2 * x, a3 * (2.0 * x - 1.0)), axis=-1),
    }
    curve = two_pauli_metrics(state, x)
    for name, column in want.items():
        got = getattr(curve, name)
        assert got.shape == column.shape, name
        assert got.tobytes() == column.tobytes(), name
    # The one-pass LAPACK route: every exchange matrix in one stack, one eigensolve.
    lapack = spectrum_entropy(hermitian_eigenvalues(analytic_exchange_matrix(state, x)))
    assert np.abs(curve.noise - lapack).max() <= 1e-12


@pytest.mark.parametrize("rates", [701, _SOLVE_BLOCK + 1, 20001])
def test_metrics_check_their_inputs_once_per_closed_form(monkeypatch, rates):
    # One check in two_pauli_metrics, one in its one analytic_output_entropy
    # call and one in the spot check's analytic_exchange_matrix, at any size:
    # a state is checked by the same array pass as a stack, and a stack of
    # three row blocks no more often than one state.
    calls = collections.Counter()
    for name in ("_check_rate", "_as_states"):
        def counted(value, _name=name, _original=getattr(two_pauli, name)):
            calls[_name] += 1
            return _original(value)
        monkeypatch.setattr(two_pauli, name, counted)
    x = np.linspace(0.0, 0.7, rates)
    stack = np.tile((0.3, 0.4, 0.2), (2 * max(1, _SOLVE_BLOCK // rates) + 1, 1))
    for state in ((0.3, 0.4, 0.2), stack):
        calls.clear()
        two_pauli_metrics(state, x)
        assert calls == {"_check_rate": 3, "_as_states": 3}


def test_metrics_peak_memory_stays_under_twice_the_columns():
    # At 100001 rates the call peaks near 7.4 MB (traced) for 5.6 MB of
    # columns: the mixed rows' cubic is solved in blocks and the output
    # state is written a column at a time. The output entropy and the
    # fidelity run over all rates at once, so the bound is relative.
    x = np.linspace(0.0, 0.7, 100_001)
    tracemalloc.start()
    try:
        curve = two_pauli_metrics((0.3, 0.4, 0.2), x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = sum(getattr(curve, name).nbytes for name in (
        "noise", "coherent_info", "fidelity", "output_entropy", "output_bloch"))
    assert peak < 2 * held


def test_analytic_generic_agreement_full_grid():
    """Every closed form agrees with the generic Kraus route to 1e-12 over
    a 21^3 Bloch ball grid crossed with 101 rates."""
    result = check_analytic_generic_agreement(21, 101)
    print(result.detail)
    assert result.passed, result.detail


COLUMNS = ("noise", "coherent_info", "fidelity", "output_entropy", "output_bloch")


def _random_stack(rng, m):
    """m random states as an (m, 3) array, mixed and pure alternating."""
    return np.array([random_bloch_vector(rng, pure=bool(i % 2)) for i in range(m)])


@pytest.mark.parametrize("m, n", [
    (3, 41),
    (50, 41),
    (49, 41),
    (2, 2049),  # one state per block
    (1, 1),
    (_SOLVE_BLOCK // 41 + 1, 41),  # m * n just over the bound: two row blocks
    (_SOLVE_BLOCK // 41, 41),  # m * n just under the bound: one block
    (2, _SOLVE_BLOCK + 1),  # n over the bound: two rate blocks per state
])
def test_stacked_closed_forms_match_per_state_calls(m, n):
    rng = np.random.default_rng(m * 1000 + n)
    states = _random_stack(rng, m)
    x = np.sort(rng.uniform(size=n))
    curve = two_pauli_metrics(states, x)
    w = analytic_exchange_matrix(states, x)
    output_entropy = analytic_output_entropy(states, x)
    assert curve.state.dtype == float and np.array_equal(curve.state, states)
    assert curve.noise.shape == (m, n) and curve.output_bloch.shape == (m, n, 3)
    assert w.shape == (m, n, 3, 3) and output_entropy.shape == (m, n)
    for i, row in enumerate(states):
        one = two_pauli_metrics(row, x)
        for name in COLUMNS:
            assert np.array_equal(getattr(curve, name)[i], getattr(one, name)), (i, name)
        assert np.array_equal(w[i], analytic_exchange_matrix(row, x)), i
        assert np.array_equal(output_entropy[i], analytic_output_entropy(row, x)), i


@pytest.mark.parametrize("single", [
    BlochVector(0.3, 0.4, 0.2), (0.3, 0.4, 0.2), [0.3, 0.4, 0.2], np.array([0.3, 0.4, 0.2])],
    ids=["BlochVector", "tuple", "list", "array"])
def test_stack_of_one_state_matches_the_one_state_call(single):
    stacked = two_pauli_metrics([[0.3, 0.4, 0.2]], 0.4)
    one = two_pauli_metrics(single, 0.4)
    # One state's record holds its checked (3,) float array, which passes back.
    assert type(one.state) is np.ndarray and one.state.dtype == float
    assert one.state.shape == (3,) and one.noise.shape == (1,)
    assert BlochVector(*one.state) == BlochVector(0.3, 0.4, 0.2)
    assert np.array_equal(stacked.state, [one.state])
    assert stacked.state.shape == (1, 3) and stacked.noise.shape == (1, 1)
    again = two_pauli_metrics(one.state, one.x)
    for name in COLUMNS:
        assert getattr(stacked, name)[0].tobytes() == getattr(one, name).tobytes(), name
        assert getattr(again, name).tobytes() == getattr(one, name).tobytes(), name
    assert np.array_equal(analytic_exchange_matrix([[0.3, 0.4, 0.2]], 0.4)[0],
                          analytic_exchange_matrix(single, 0.4))
    assert np.array_equal(analytic_output_entropy([[0.3, 0.4, 0.2]], 0.4)[0],
                          analytic_output_entropy(single, 0.4))


@pytest.mark.parametrize("m, n, sizes", [
    (50, 41, [50 * 41]),
    (2, 2049, [2049, 2049]),  # two rows would exceed the bound
    (1, 701, [701]),
    (_SOLVE_BLOCK // 41 + 1, 41, [_SOLVE_BLOCK // 41 * 41, 41]),
    (2, _SOLVE_BLOCK + 1, [_SOLVE_BLOCK, 1, _SOLVE_BLOCK, 1]),
])
def test_stacked_solve_keeps_each_block_within_the_limit(monkeypatch, m, n, sizes):
    # Whole rows of max(1, _SOLVE_BLOCK // n) mixed states by
    # min(n, _SOLVE_BLOCK) rates.
    solved = []

    def recorded(a1, a2, a3, x, _original=two_pauli._exchange_spectrum):
        solved.append(np.broadcast(a1, x).size)
        return _original(a1, a2, a3, x)

    monkeypatch.setattr(two_pauli, "_exchange_spectrum", recorded)
    rng = np.random.default_rng(0)
    states = np.array([random_bloch_vector(rng) for _ in range(m)])
    x = np.linspace(0.0, 1.0, n)
    two_pauli_metrics(states, x)
    assert solved == sizes
    # A pure row does not solve the cubic, so with an exactly pure row after
    # each mixed one the blocks still hold max(1, _SOLVE_BLOCK // n) mixed rows.
    alternating = np.empty((2 * m, 3))
    alternating[0::2], alternating[1::2] = states, (0.0, 0.0, 1.0)
    solved.clear()
    two_pauli_metrics(alternating, x)
    assert solved == sizes


# Both mixed rows in one block, one per block, and one per block in two
# runs of rates.
@pytest.mark.parametrize("n", [41, _SOLVE_BLOCK // 2 + 1, _SOLVE_BLOCK + 1])
def test_pure_rows_do_not_solve_the_cubic(monkeypatch, n):
    # Exactly pure rows between mixed ones: only the mixed rows reach the
    # solve, and every column equals the one-state calls bit for bit.
    states = np.array([[1.0, 0.0, 0.0], [0.3, 0.4, 0.2], [0.6, 0.8, 0.0],
                       [0.0, 0.0, 1.0], [0.0, 0.0, 0.5]])
    x = np.linspace(0.0, 1.0, n)
    alone = [two_pauli_metrics(state, x) for state in states]
    solved = []

    def recorded(a1, a2, a3, x, _original=two_pauli._exchange_spectrum):
        solved.append(np.ravel(a3).tolist())
        return _original(a1, a2, a3, x)

    monkeypatch.setattr(two_pauli, "_exchange_spectrum", recorded)
    curve = two_pauli_metrics(states, x)
    assert {a3 for call in solved for a3 in call} == {0.2, 0.5}
    for i, own in enumerate(alone):
        for name in COLUMNS:
            assert getattr(curve, name)[i].tobytes() == getattr(own, name).tobytes(), (i, name)
    assert (curve.coherent_info[[0, 2, 3]] == 0.0).all()
    # One pure state alone never reaches the solve.
    solved.clear()
    assert (two_pauli_metrics((1.0, 0.0, 0.0), x).coherent_info == 0.0).all()
    assert solved == []


#: Every function that takes a stack of states, called with two rates.
STACK_FUNCTIONS = {
    "two_pauli_metrics": two_pauli_metrics,
    "analytic_exchange_matrix": analytic_exchange_matrix,
    "analytic_output_entropy": analytic_output_entropy,
    "bloch_to_density": lambda states, x: bloch_to_density(states),
}


@pytest.mark.parametrize("closed_form", STACK_FUNCTIONS.values(), ids=STACK_FUNCTIONS.keys())
def test_stack_with_an_unphysical_row_is_refused_by_name(closed_form):
    states = [[0.1, 0.2, 0.3], [0.0, 0.0, 1.0], [0.8, 0.8, 0.0]]
    with pytest.raises(ValueError, match=r"^unphysical Bloch vector: \|a\|\^2 = 1.28 > 1"
                       r" in state 2 of the stack$"):
        closed_form(states, [0.0, 0.5])
    with pytest.raises(ValueError, match="^a stack of states needs at least one row$"):
        closed_form(np.zeros((0, 3)), [0.5])


@pytest.mark.parametrize("closed_form", STACK_FUNCTIONS.values(), ids=STACK_FUNCTIONS.keys())
@pytest.mark.parametrize("states, message", [
    ([[0.1, 0.2, 0.3], [0.0, math.nan, 0.0]], "Bloch components must be finite in state 1"),
    ([[0.1, 0.2, 0.3], [0.0, 0.0, 1.0], [math.inf, 0.0, 0.0]],
     "Bloch components must be finite in state 2"),
    # Every row of a 2-D array is as wide, so the first is named.
    (np.zeros((2, 2)), "expected 3 Bloch components, got 2 in state 0"),
    (np.zeros((1, 4)), "expected 3 Bloch components, got 4 in state 0"),
], ids=["nan", "inf", "narrow", "wide"])
def test_stack_with_a_non_finite_or_misshapen_row_is_refused_by_name(
        closed_form, states, message):
    with pytest.raises(ValueError, match=f"^{message} of the stack$"):
        closed_form(states, [0.0, 0.5])


#: A bad state and the error text it gets, alone and as a row of a stack.
BAD_STATES = {
    "width-0": ([], "expected 3 Bloch components, got 0"),
    "width-2": ([0.1, 0.2], "expected 3 Bloch components, got 2"),
    "width-4": ([0.1, 0.2, 0.3, 0.4], "expected 3 Bloch components, got 4"),
    "nan": ([0.0, math.nan, 0.0], "Bloch components must be finite"),
    "inf": ([0.0, 0.0, -math.inf], "Bloch components must be finite"),
    "unphysical": ([0.8, 0.8, 0.0], r"unphysical Bloch vector: \|a\|\^2 = 1.28 > 1"),
    # Its square overflows: refused by the bound, with no overflow warning,
    # which the suite's warning filter would raise instead.
    "huge": ([1e200, 0.0, 0.0], r"unphysical Bloch vector: \|a\|\^2 = inf > 1"),
}


@pytest.mark.parametrize("closed_form", STACK_FUNCTIONS.values(), ids=STACK_FUNCTIONS.keys())
@pytest.mark.parametrize("state, message", BAD_STATES.values(), ids=BAD_STATES.keys())
def test_a_bad_state_gets_one_message_alone_and_in_a_stack(closed_form, state, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        closed_form(state, [0.0, 0.5])
    with pytest.raises(ValueError, match=f"^{message}$"):
        closed_form(np.array(state), [0.0, 0.5])
    if len(state) == 3:
        with pytest.raises(ValueError, match=f"^{message}$"):
            BlochVector(*state)
        stack, row = [[0.1, 0.2, 0.3], state], 1
    else:  # every row of a 2-D array is as wide, so the first is named
        stack, row = [state, state], 0
    with pytest.raises(ValueError, match=f"^{message} in state {row} of the stack$"):
        closed_form(stack, [0.0, 0.5])


@pytest.mark.parametrize("closed_form", STACK_FUNCTIONS.values(), ids=STACK_FUNCTIONS.keys())
@pytest.mark.parametrize("state", [0.5, np.full((3, 1, 1), 0.1), np.zeros((2, 3, 3))],
                         ids=["scalar", "column-3d", "stack-3d"])
def test_state_neither_a_row_nor_a_stack_is_refused_by_shape(closed_form, state):
    # Neither a BlochVector, a 1-D row nor a 2-D stack: the error names the shape.
    shape = re.escape(str(np.shape(state)))
    with pytest.raises(ValueError, match=f"^expected a Bloch vector .* got shape {shape}$"):
        closed_form(state, [0.0, 0.5])


@pytest.mark.parametrize("closed_form", STACK_FUNCTIONS.values(), ids=STACK_FUNCTIONS.keys())
def test_ragged_state_keeps_numpys_error(closed_form):
    with pytest.raises(ValueError, match="inhomogeneous shape"):
        closed_form([[0.1, 0.2, 0.3], [0.1]], [0.0, 0.5])


@pytest.mark.parametrize("m", [1, 3, 50])
def test_stacked_curve_state_is_taken_back(m):
    # A stacked record's state is its checked (m, 3) array, so it can be
    # passed back; at m = 3 its rows must not be read as one state's components.
    curve = two_pauli_metrics(_random_stack(np.random.default_rng(m), m), np.linspace(0, 0.7, 41))
    assert type(curve.state) is np.ndarray and curve.state.dtype == float
    assert curve.state.shape == (m, 3)
    again = two_pauli_metrics(curve.state, curve.x)
    assert np.array_equal(again.state, curve.state) and np.array_equal(again.x, curve.x)
    for name in COLUMNS:
        assert np.array_equal(getattr(again, name), getattr(curve, name)), name


def test_stacked_curve_keeps_its_own_copy_of_the_states():
    states = np.array([[0.1, 0.2, 0.3], [0.3, 0.4, 0.2]])
    curve = two_pauli_metrics(states, [0.5])
    states[0] = 2.0
    assert np.array_equal(curve.state, [[0.1, 0.2, 0.3], [0.3, 0.4, 0.2]])


@pytest.mark.parametrize("detect", [detect_multivalued])
def test_detection_refuses_a_stacked_curve(detect):
    curve = two_pauli_metrics([[0.3, 0.4, 0.2], [0.1, 0.2, 0.3]], np.linspace(0.0, 0.7, 11))
    with pytest.raises(ValueError, match="one state, got a stack of 2"):
        detect(curve)


def _lapack_noise(state, x):
    """The noise from LAPACK's eigensolve of every closed-form exchange matrix."""
    matrices = analytic_exchange_matrix(state, x)
    noise = spectrum_entropy(hermitian_eigenvalues(matrices.reshape(-1, 3, 3)))
    return noise.reshape(matrices.shape[:-2])


#: Windows at the ends of the rate range, where two roots meet at 0 (x = 1)
#: or the smallest root sits next to a root of order x (x = 0 near the z pole).
END_WINDOWS = {
    "x=1": np.array([1.0]),
    "near 1": np.linspace(1.0 - 1e-6, 1.0, 101),
    "near 0": np.linspace(0.0, 1e-6, 101),
}

#: States that put repeated, tiny or clustered roots in the exchange spectrum.
STRESS_STATES = [
    (0.3, 0.4, 0.2), (0.9, 0.0, 0.0), (0.0, 0.0, 0.5), (0.0, 0.0, 0.999999),
    (0.0, 0.0, math.sqrt(1.0 - 1e-12)), (0.1, 0.0, 0.99), (0.0, 0.0, 0.0),
    # exactly pure
    (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.6, 0.8, 0.0), (0.0, 0.6, 0.8),
    # |a| = 1e-8 and 1e-5
    (1e-8, 0.0, 0.0), (0.0, 0.0, 1e-8), (0.0, 1e-5, 0.0), (6e-6, 0.0, 8e-6),
]


def _assert_noise_matches_lapack(state, x):
    noise = two_pauli_metrics(state, x).noise
    assert np.abs(noise - _lapack_noise(state, x)).max() <= 1e-12


def test_noise_matches_lapack_at_the_triple_root():
    # (0, 0, 0) has the spectrum {x, h, h}: a double root, triple at x = 1/3.
    _assert_noise_matches_lapack((0.0, 0.0, 0.0), np.linspace(1 / 3 - 5e-4, 1 / 3 + 5e-4, 101))
    _assert_noise_matches_lapack((0.0, 0.0, 0.0), np.array([1 / 3]))


@pytest.mark.parametrize("window", END_WINDOWS.values(), ids=END_WINDOWS.keys())
@pytest.mark.parametrize("state", STRESS_STATES, ids=str)
def test_noise_matches_lapack_on_hard_spectra(state, window):
    for x in (window, np.linspace(0.0, 1.0, 2001)):
        _assert_noise_matches_lapack(state, x)


@pytest.mark.parametrize("window", [np.linspace(0.0, 1.0, 101), *END_WINDOWS.values()],
                         ids=["0..1", *END_WINDOWS.keys()])
def test_noise_matches_lapack_on_random_near_pure_states(window):
    # 300 seeded states whose purity deficit 1 - |a|^2 runs from 1 down to 1e-12.
    rng = np.random.default_rng(2026)
    directions = rng.normal(size=(300, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    deficit = 10.0 ** rng.uniform(-12.0, 0.0, size=(300, 1))
    states = directions * np.sqrt(1.0 - deficit)
    _assert_noise_matches_lapack(states, window)


@pytest.fixture
def newton_steps(monkeypatch):
    """The step counts of every `_lowest_root` call, in call order."""
    steps = []

    def recorded(*args, _original=two_pauli._lowest_root):
        roots, used = _original(*args)
        steps.append(used)
        return roots, used

    monkeypatch.setattr(two_pauli, "_lowest_root", recorded)
    return steps


def test_newton_steps_are_bounded(newton_steps):
    assert two_pauli._NEWTON_STEPS == 64
    # Seeded at Viete's root, every block of the scans and of a 20001-rate
    # curve stops within two steps; a block of z-axis states takes none.
    state_scan(9, 701)
    assert 0 in newton_steps and max(newton_steps) <= 2
    newton_steps.clear()
    state_scan(21, 701)
    assert max(newton_steps) <= 2
    newton_steps.clear()
    two_pauli_metrics((0.6, 0.3, 0.5), np.linspace(0.0, 0.7, 20001))
    # One solve per run of _SOLVE_BLOCK rates.
    assert len(newton_steps) == -(-20001 // _SOLVE_BLOCK) == 5 and max(newton_steps) <= 2


def test_newton_bound_cuts_the_loop_and_the_spot_check_sees_it(monkeypatch, newton_steps):
    # Two steps are enough from the seed, but not from l = 0: the cut root
    # leaves N wrong by far more than 1e-12, and the spot check says so.
    x = np.linspace(0.0, 0.7, 701)
    monkeypatch.setattr(two_pauli, "_NEWTON_STEPS", 2)
    two_pauli_metrics((0.3, 0.4, 0.2), x)
    monkeypatch.setattr(two_pauli, "_viete_root", lambda e2, d: np.zeros_like(e2))
    newton_steps.clear()
    with pytest.raises(ValueError, match=r"^closed-form noise is .* from the eigensolver's"):
        two_pauli_metrics((0.3, 0.4, 0.2), x)
    assert newton_steps == [2]


@pytest.mark.parametrize("a1", [1e-8, 1e-5, 1e-3])
def test_states_just_off_the_centre_converge_at_every_sample(newton_steps, a1):
    # Near the centre, just off the z axis, the smallest root is nearly
    # double over x > 1/3 and Viete's seed often restarts from 0, so Newton
    # takes 24 to 35 steps here, not 2. It still stops before the cut, and
    # every sample, not only the two ends the spot check reads, is within
    # _SPOT_TOL of LAPACK's.
    x = np.linspace(0.0, 1.0, 2001)
    noise = two_pauli_metrics((a1, 0.0, 0.0), x).noise
    assert np.abs(noise - _lapack_noise((a1, 0.0, 0.0), x)).max() <= two_pauli._SPOT_TOL
    assert len(newton_steps) == 1 and newton_steps[0] < two_pauli._NEWTON_STEPS


@pytest.mark.parametrize("a3", [0.0, 0.3, 0.5, 0.999999])
def test_z_axis_spectrum_is_exact(newton_steps, a3):
    # (0, 0, a3) has the spectrum {x, h (1 - |a3|), h (1 + |a3|)}; its two
    # smallest roots cross at x = (1 - |a3|) / (3 - |a3|), 1/3 for (0, 0, 0).
    crossing = (1.0 - a3) / (3.0 - a3)
    x = np.sort(np.append(np.linspace(0.0, 1.0, 2001), [crossing, 1 / 3]))
    for state in ((0.0, 0.0, a3), (0.0, 0.0, -a3)):
        spectrum = two_pauli._exchange_spectrum(*state, x)
        lapack = hermitian_eigenvalues(analytic_exchange_matrix(state, x))
        assert np.abs(spectrum - lapack).max() <= 1e-12
        _assert_noise_matches_lapack(state, x)
    assert set(newton_steps) == {0}


@st.composite
def rate_windows(draw):
    """Rates over a window from 1 down to 1e-9 wide, ending at x = 1 half the time."""
    width = 10.0 ** draw(st.floats(-9.0, 0.0))
    x_max = 1.0 if draw(st.booleans()) else draw(st.floats(width, 1.0))
    return np.linspace(x_max - width, x_max, draw(st.integers(2, 200)))


mixed_states = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda v: sum(c * c for c in v) < 1.0)


@settings(max_examples=200, deadline=None)
@given(mixed_states, rate_windows())
def test_closed_form_noise_matches_lapack_on_random_windows(state, x):
    assert np.abs(two_pauli_metrics(state, x).noise - _lapack_noise(state, x)).max() <= 1e-12


def skewed_spectrum(a1, a2, a3, x, _original=two_pauli._exchange_spectrum):
    """The closed-form spectrum with 1e-9 moved from the largest root to the smallest."""
    return _original(a1, a2, a3, x) + np.array([1e-9, 0.0, -1e-9])


def test_spot_check_refuses_a_skewed_route(monkeypatch):
    monkeypatch.setattr(two_pauli, "_exchange_spectrum", skewed_spectrum)
    with pytest.raises(ValueError, match=r"^closed-form noise is [0-9.e-]+ bits from the"
                       r" eigensolver's, more than 1e-12$"):
        two_pauli_metrics((0.3, 0.4, 0.2), np.linspace(0.0, 0.7, 701))
    # Pure states take their noise from the output entropy, not from the route.
    assert two_pauli_metrics((1.0, 0.0, 0.0), 0.5).coherent_info[0] == 0.0


#: Five mixed states, so every row's noise comes from the closed-form route.
MIXED_STACK = np.array([[0.3, 0.4, 0.2], [0.1, 0.2, 0.3], [0.6, 0.3, 0.5],
                        [0.0, 0.0, 0.5], [0.9, 0.0, 0.0]])


def test_spot_check_solves_both_ends_of_every_row_at_once(monkeypatch):
    shapes = []

    def recorded(matrices, _original=two_pauli.hermitian_eigenvalues):
        shapes.append(matrices.shape)
        return _original(matrices)

    monkeypatch.setattr(two_pauli, "hermitian_eigenvalues", recorded)
    two_pauli_metrics(MIXED_STACK, np.linspace(0.0, 0.7, 701))
    assert shapes == [(10, 3, 3)]


def test_spot_check_refuses_a_route_skewed_in_one_middle_row(monkeypatch):
    # Checking only the stack's first and last sample would miss row 2.
    def skewed_row(a1, a2, a3, x, _original=two_pauli._exchange_spectrum):
        row = (np.asarray(a1) == MIXED_STACK[2, 0])[..., None]
        return _original(a1, a2, a3, x) + np.where(row, [1e-9, 0.0, -1e-9], 0.0)

    x = np.linspace(0.0, 0.7, 701)
    two_pauli_metrics(MIXED_STACK, x)
    monkeypatch.setattr(two_pauli, "_exchange_spectrum", skewed_row)
    with pytest.raises(ValueError, match=r"^closed-form noise is [0-9.e-]+ bits from the"
                       r" eigensolver's, more than 1e-12$"):
        two_pauli_metrics(MIXED_STACK, x)
    # The other four rows alone pass the same check.
    two_pauli_metrics(np.delete(MIXED_STACK, 2, axis=0), x)


def test_exchange_matrix_has_the_docstring_cubic():
    """The characteristic polynomial of the closed-form exchange matrix is
    l^3 - l^2 + e2 l - D, as the module docstring states."""
    sp = pytest.importorskip("sympy")
    a1, a2, a3, x, lam = sp.symbols("a1 a2 a3 x lambda", real=True)
    root, half = sp.sqrt(x * (1 - x) / 2), (1 - x) / 2
    w = sp.Matrix([
        [x, a1 * root, sp.I * a2 * root],
        [a1 * root, half, a3 * half],
        [-sp.I * a2 * root, a3 * half, half],
    ])
    # The entries are analytic_exchange_matrix's, sample for sample.
    for state, rate in (((0.3, -0.4, 0.2), 0.25), ((-0.6, 0.3, 0.5), 0.7), ((0, 0, 1), 0.5)):
        subs = dict(zip((a1, a2, a3, x), (*state, rate)))
        want = np.array(w.subs(subs).evalf(), dtype=complex)
        np.testing.assert_allclose(analytic_exchange_matrix(state, rate)[0], want,
                                   rtol=0, atol=1e-15)
    planar, h = a1**2 + a2**2, (1 - x) / 2
    e2 = x * h * (2 - planar) + h**2 * (1 - a3**2)
    d = x * h**2 * (1 - planar - a3**2)
    assert sp.expand((lam * sp.eye(3) - w).det() - (lam**3 - lam**2 + e2 * lam - d)) == 0


@pytest.mark.parametrize("state", [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)])
def test_axis_pure_states_have_exactly_zero_coherent_information(state):
    for x in (np.linspace(0.0, 1.0, 20001), np.linspace(0.999999999999, 1.0, 701),
              np.linspace(0.0, 1e-12, 701)):
        assert (two_pauli_metrics(state, x).coherent_info == 0.0).all()


def test_capacity_wedge_edge_is_the_root_of_the_derivative_factor():
    """Near a pure input C rises where g(x) = x(1 - x)^2 / (1 - r^2) falls,
    with r^2 = (1 - a3^2) x^2 + a3^2 (1 - 2x)^2 the squared output length.
    The numerator of g' over (1 - r^2)^2 is
    -(1 - x)^2 ((1 + 3 a3^2) x^2 + 2 (1 - a3^2) x - (1 - a3^2)), whose
    quadratic factor has the root x_u, the wedge's upper edge; x_u meets
    the fold x_f = 4 a3^2 / (1 + 3 a3^2) at a3^2 = (2 sqrt 5 - 3)/11."""
    sp = pytest.importorskip("sympy")
    a3, x = sp.symbols("a3 x", real=True)
    r2 = (1 - a3**2) * x**2 + a3**2 * (1 - 2 * x) ** 2
    quadratic = (1 + 3 * a3**2) * x**2 + 2 * (1 - a3**2) * x - (1 - a3**2)
    g = x * (1 - x) ** 2 / (1 - r2)
    assert sp.cancel(sp.diff(g, x) * (1 - r2) ** 2 + (1 - x) ** 2 * quadratic) == 0
    x_u = (sp.sqrt(2 * (1 - a3**4)) - (1 - a3**2)) / (1 + 3 * a3**2)
    assert sp.simplify(quadratic.subs(x, x_u)) == 0
    meet = sp.sqrt((2 * sp.sqrt(5) - 3) / 11)
    x_f = 4 * a3**2 / (1 + 3 * a3**2)
    assert sp.simplify((x_u - x_f).subs(a3, meet)) == 0
    assert sp.simplify(x_f.subs(a3, meet) - (3 - sp.sqrt(5)) / 2) == 0
