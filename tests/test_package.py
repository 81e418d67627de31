"""The package's public surface: what `qsr` exports and what stays in modules."""

import ast
import importlib
from pathlib import Path

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
    "qsr.two_pauli": ("analytic_exchange_matrix", "analytic_output_entropy"),
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


def _module_level_names(tree):
    """The names a module binds by imports, and its ``_private`` module-level
    definitions mapped to their nodes. Dunders and ``__future__`` are exempt."""
    imports, private = set(), {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                imports |= {(a.asname or a.name).split(".")[0] for a in node.names}
            continue
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            names = []
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                private[name] = node
    return imports, private


def _read_names(tree, skip=None):
    """Names read anywhere in ``tree`` outside the subtree ``skip``, plus the
    names listed in its ``__all__``."""
    skipped = {id(n) for n in ast.walk(skip)} if skip is not None else set()
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
        and id(node) not in skipped
    }
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    return read


def test_no_unreferenced_module_names():
    # An import, or a module-level _private name, that nothing in the
    # package reads is left over from a deletion.
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(qsr.__file__).parent.glob("*.py"))}
    # (module, name) pairs that some package module imports by name.
    imported_from = {
        (node.module, alias.name)
        for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    unused = []
    for module, tree in trees.items():
        imports, private = _module_level_names(tree)
        read = _read_names(tree)
        unused += [f"{module}: import {name}" for name in sorted(imports)
                   if name not in read and (module, name) not in imported_from]
        unused += [f"{module}: {name}" for name, node in private.items()
                   if name not in _read_names(tree, skip=node)
                   and (module, name) not in imported_from]
    assert unused == []
