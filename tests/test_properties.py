"""Property tests of the array sweep over random states, step counts and windows."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qsr.resonance import sweep
from qsr.two_pauli import two_pauli_metrics

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)

#: Slack for bounds that hold exactly only in exact arithmetic: the noise of
#: (0, 0, 1e-10) at x = 1/3 comes out one ulp above log2 3.
ROUNDING = 8 * np.finfo(float).eps

components = st.tuples(*[st.floats(-1.0, 1.0)] * 3)


def _into_ball(v):
    norm = math.sqrt(sum(c * c for c in v))
    return v if norm <= 1.0 else tuple(c / norm for c in v)


def _onto_sphere(v):
    norm = math.sqrt(sum(c * c for c in v))
    return tuple(c / norm for c in v)


states = components.map(_into_ball)
pure_states = components.filter(lambda v: sum(c * c for c in v) > 1e-2).map(_onto_sphere)
steps = st.integers(3, 400)


@st.composite
def windows(draw):
    """0 <= x_min < x_max <= 1, at least 1e-3 wide."""
    x_min = draw(st.floats(0.0, 1.0 - 1e-3))
    x_max = draw(st.floats(x_min + 1e-3, 1.0))
    return x_min, x_max


@PROPERTY_SETTINGS
@given(states, steps, windows())
def test_noise_and_fidelity_stay_in_range(state, n, window):
    curve = sweep(state, *window, n)
    assert (curve.noise >= -ROUNDING).all()
    assert (curve.noise <= math.log2(3) + ROUNDING).all()
    assert (curve.fidelity >= -ROUNDING).all()
    assert (curve.fidelity <= 1.0 + ROUNDING).all()


@PROPERTY_SETTINGS
@given(states, steps, windows())
def test_coherent_info_is_output_entropy_minus_noise(state, n, window):
    curve = sweep(state, *window, n)
    assert np.array_equal(curve.coherent_info, curve.output_entropy - curve.noise)


@PROPERTY_SETTINGS
@given(states, steps, windows())
def test_swept_samples_equal_scalar_evaluation(state, n, window):
    curve = sweep(state, *window, n)
    for i, x in enumerate(curve.x.tolist()):
        # One rate gives columns of length 1.
        m = two_pauli_metrics(state, x)
        assert m.noise.shape == (1,) and m.output_bloch.shape == (1, 3)
        assert curve.noise[i] == m.noise[0]
        assert curve.coherent_info[i] == m.coherent_info[0]
        assert curve.fidelity[i] == m.fidelity[0]
        assert curve.output_entropy[i] == m.output_entropy[0]
        assert curve.output_bloch[i].tolist() == m.output_bloch[0].tolist()


@PROPERTY_SETTINGS
@given(pure_states, steps, windows())
def test_pure_states_carry_no_coherent_information(state, n, window):
    curve = sweep(state, *window, n)
    assert np.abs(curve.coherent_info).max() <= 1e-9
