"""The package's public surface: what `qsr` exports and what stays in modules."""

import importlib

import numpy as np

import qsr
from qsr.resonance import sweep
from qsr.two_pauli import two_pauli_metrics

PUBLIC = {
    "BlochVector", "KrausChannel", "SweepCurve", "EnhancementReport", "ScanReport",
    "bloch_to_density", "coherent_information", "entangled_fidelity", "entropy_exchange",
    "make_two_pauli", "two_pauli_metrics", "sweep", "detect_enhancement",
    "detect_multivalued", "bloch_ball_grid", "state_scan",
    "hermitian_eigenvalues",
}

#: Oracle and helper functions that are not exported but keep their modules.
MODULE_ONLY = {
    "qsr.channel": ("exchange_matrix", "environment_output", "spectrum_entropy",
                    "completeness_residual", "apply_channel", "density_to_bloch"),
    "qsr.two_pauli": ("analytic_exchange_matrix", "analytic_output_bloch",
                      "analytic_output_entropy", "analytic_fidelity"),
    "qsr.resonance": ("estimate_slopes",),
}


def test_all_is_the_chosen_set():
    assert len(qsr.__all__) == len(PUBLIC)
    assert set(qsr.__all__) == PUBLIC


def test_every_exported_name_resolves():
    for name in qsr.__all__:
        assert getattr(qsr, name) is not None


def test_oracle_functions_stay_importable_from_their_modules():
    for module_name, names in MODULE_ONLY.items():
        module = importlib.import_module(module_name)
        for name in names:
            assert callable(getattr(module, name)), f"{module_name}.{name}"
            assert name not in qsr.__all__


def test_eigensolver_bound_in_package_and_two_pauli():
    from qsr import linalg, two_pauli

    assert qsr.hermitian_eigenvalues is linalg.hermitian_eigenvalues
    assert two_pauli.hermitian_eigenvalues is linalg.hermitian_eigenvalues


def test_one_rate_gives_length_one_columns_of_a_sweep():
    state = (0.3, 0.4, 0.2)
    curve = sweep(state, 0.0, 0.8, 3)
    i = 1
    assert curve.x[i] == 0.4
    m = two_pauli_metrics(state, 0.4)
    for name in ("x", "noise", "output_entropy", "coherent_info", "fidelity"):
        assert getattr(m, name).shape == (1,), name
    assert m.output_bloch.shape == (1, 3)
    assert m.x[0] == 0.4
    assert m.noise[0] == curve.noise[i]
    assert m.output_entropy[0] == curve.output_entropy[i]
    assert m.coherent_info[0] == curve.coherent_info[i]
    assert m.fidelity[0] == curve.fidelity[i]
    assert np.array_equal(m.output_bloch[0], curve.output_bloch[i])
