"""Noisy single-qubit Kraus channels and noise-enhancement analysis.

The package splits into:

- `qsr.linalg`: input-checked Hermitian eigenvalues (LAPACK) for the
  small matrices of single-qubit channels.
- `qsr.channel`: generic Kraus-channel machinery (entropies, exchange
  matrix, coherent information, entangled fidelity, dilation).
- `qsr.two_pauli`: the two-Pauli channel family with closed forms that
  cross-validate the generic route, and the `SweepCurve` record of them.
- `qsr.resonance`: rate sweeps, enhancement and multivalued-capacity
  detection, and Bloch-ball scans.
- `qsr.validation`: the self-checks behind `qsr validate`.
- `qsr.cli`: the `qsr` command-line tool.

The package namespace holds what a user of sweeps and scans needs; the
oracle functions (exchange matrix, dilation, closed forms) are imported
from their modules.
"""

from .channel import (
    BlochVector,
    KrausChannel,
    bloch_to_density,
    coherent_information,
    entangled_fidelity,
    entropy_exchange,
)
from .linalg import hermitian_eigenvalues
from .resonance import (
    EnhancementReport,
    ScanReport,
    bloch_ball_grid,
    detect_enhancement,
    detect_multivalued,
    state_scan,
    sweep,
)
from .two_pauli import SweepCurve, make_two_pauli, two_pauli_metrics

__version__ = "0.1.0"

__all__ = [
    "BlochVector",
    "EnhancementReport",
    "KrausChannel",
    "ScanReport",
    "SweepCurve",
    "bloch_ball_grid",
    "bloch_to_density",
    "coherent_information",
    "detect_enhancement",
    "detect_multivalued",
    "entangled_fidelity",
    "entropy_exchange",
    "hermitian_eigenvalues",
    "make_two_pauli",
    "state_scan",
    "sweep",
    "two_pauli_metrics",
]
