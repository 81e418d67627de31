"""Acceptance suite: the ten exit criteria for this package.

Each test prints one PASS/FAIL line (visible with `pytest -s` or on
failure) and asserts its criterion at the stated tolerance. The expensive
fixtures (reference-state sweeps and the 11^3 Bloch-ball scan) are shared
across criteria.
"""

import numpy as np
import pytest

from qsr.channel import (
    bloch_to_density,
    entropy_exchange,
    environment_output,
    spectrum_entropy,
)
from qsr.linalg import hermitian_eigenvalues
from qsr.resonance import detect_enhancement, detect_multivalued, state_scan, sweep
from qsr.two_pauli import two_pauli_metrics
from qsr.validation import (
    check_analytic_generic_agreement,
    check_dilation_oracle,
    check_pure_state_collapse,
    check_two_pauli_completeness,
    random_bloch_vector,
    random_kraus_channel,
)

FIG1_STATES = (
    (0.1, 0.2, 0.9),
    (0.3, 0.4, 0.2),
    (0.6, 0.3, 0.5),
    (0.1, 0.2, 0.3),
)

FIDELITY_ENHANCED_STATES = ((0.3, 0.4, 0.2), (0.6, 0.3, 0.5), (0.1, 0.2, 0.3))


def report(number, description, ok):
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def fig1_curves_701():
    return {state: sweep(state, 0.0, 0.7, 701) for state in FIG1_STATES}


@pytest.fixture(scope="module")
def fig1_curves_1401():
    return {state: sweep(state, 0.0, 0.7, 1401) for state in FIG1_STATES}


@pytest.fixture(scope="module")
def ball_scan():
    return state_scan(11, 701)


def test_criterion_1_completeness():
    result = check_two_pauli_completeness()
    report(1, result.detail, result.passed)


def test_criterion_2_entrywise_exchange_match():
    # The closed-form exchange matrix against the generic route, entry by
    # entry, together with the output state, the entropies and the fidelity.
    result = check_analytic_generic_agreement(9, 101)
    report(2, result.detail, result.passed)


def test_criterion_3_spot_values():
    m = two_pauli_metrics((0, 0, 0), 0.5)
    gaps = (
        abs(m.noise[0] - 1.5),
        abs(m.coherent_info[0] + 0.5),
        abs(m.fidelity[0] - 0.5),
    )
    report(3, f"N=1.5, C=-0.5, F=0.5 at the fully mixed state, x=0.5 "
              f"(max gap {max(gaps):.2e})", max(gaps) <= 1e-12)


def test_criterion_4_pure_state_collapse():
    result = check_pure_state_collapse(np.random.default_rng(4))
    report(4, result.detail, result.passed)


def test_criterion_5_no_capacity_resonance(fig1_curves_701, ball_scan):
    per_state = {
        state: len(detect_enhancement(curve).capacity)
        for state, curve in fig1_curves_701.items()
    }
    ok = all(n == 0 for n in per_state.values()) and (
        ball_scan.capacity_enhanced_states == 0
    )
    report(5, "no capacity enhancement on the four reference states "
              f"({list(per_state.values())}) nor on the 11^3 ball grid "
              f"({ball_scan.capacity_enhanced_states} of {ball_scan.total_states} states)",
           ok)


def test_criterion_6_fidelity_resonance_present(fig1_curves_701):
    counts = {
        state: len(detect_enhancement(fig1_curves_701[state]).fidelity)
        for state in FIDELITY_ENHANCED_STATES
    }
    report(6, f"fidelity enhancement segments {list(counts.values())} >= 1 on the "
              "three noise-enhanced reference states", all(n >= 1 for n in counts.values()))


def test_criterion_7_interior_noise_peak(fig1_curves_701):
    peaks = {}
    for state, curve in fig1_curves_701.items():
        noise = curve.noise.tolist()
        idx = max(range(len(noise)), key=noise.__getitem__)
        peaks[state] = idx
    ok = all(0 < idx < 700 for idx in peaks.values())
    report(7, f"noise maxima at interior grid indices {list(peaks.values())} "
              "for all reference states", ok)


def test_criterion_8_multivalued_capacity(fig1_curves_701):
    interval_counts = [
        len(detect_multivalued(curve)) for curve in fig1_curves_701.values()
    ]
    report(8, f"multivalued capacity intervals per reference state {interval_counts}, "
              "at least one non-empty", any(n >= 1 for n in interval_counts))


def test_criterion_9_dilation_oracle():
    result = check_dilation_oracle(np.random.default_rng(9), 100)
    report(9, result.detail, result.passed)


def test_criterion_10_grid_convergence(fig1_curves_701, fig1_curves_1401):
    cell = 0.7 / 700
    worst = 0.0
    ok = True
    for state in FIG1_STATES:
        coarse_report = detect_enhancement(fig1_curves_701[state])
        fine_report = detect_enhancement(fig1_curves_1401[state])
        for quantity in ("capacity", "fidelity"):
            coarse = getattr(coarse_report, quantity)
            fine = getattr(fine_report, quantity)
            if len(coarse) != len(fine):
                ok = False
                continue
            for (lo_c, hi_c, _), (lo_f, hi_f, _) in zip(coarse, fine):
                worst = max(worst, abs(lo_c - lo_f), abs(hi_c - hi_f))
    ok = ok and worst <= cell + 1e-12
    report(10, f"701 vs 1401 point segment endpoints moved {worst:.2e} "
               f"<= one coarse cell ({cell:.1e})", ok)


def test_entropy_exchange_equals_environment_entropy():
    # supporting evidence for criterion 9: the noise measure equals the
    # entropy of the dilation's environment state
    rng = np.random.default_rng(99)
    for _ in range(20):
        channel = random_kraus_channel(rng)
        rho = bloch_to_density(random_bloch_vector(rng))
        env_entropy = spectrum_entropy(
            hermitian_eigenvalues(environment_output(channel, rho))
        )
        assert abs(env_entropy - entropy_exchange(channel, rho)) < 1e-9
