"""Noisy single-qubit Kraus channels and noise-enhancement analysis.

The package splits into:

- `qsr.linalg`: input-checked Hermitian eigenvalues (LAPACK) for the
  small matrices of single-qubit channels.
- `qsr.channel`: generic Kraus-channel machinery (entropies, exchange
  matrix, coherent information, entangled fidelity, dilation).
- `qsr.two_pauli`: the two-Pauli channel family with closed forms that
  cross-validate the generic route.
- `qsr.resonance`: rate sweeps, slope estimation, enhancement and
  multivalued-capacity detection, and Bloch-ball scans.
- `qsr.cli`: the `qsr` command-line tool.
"""

from .channel import (
    BlochVector,
    ChannelMetrics,
    KrausChannel,
    apply_channel,
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
from .linalg import hermitian_eigenvalues, hermitian_residual
from .resonance import (
    EnhancementReport,
    ScanReport,
    SweepCurve,
    bloch_ball_grid,
    detect_enhancement,
    detect_multivalued,
    estimate_slopes,
    monotone_branches,
    state_scan,
    sweep,
)
from .two_pauli import (
    analytic_exchange_matrix,
    analytic_fidelity,
    analytic_output_bloch,
    analytic_output_entropy,
    make_two_pauli,
    two_pauli_metrics,
)

__version__ = "0.1.0"

__all__ = [
    "BlochVector",
    "ChannelMetrics",
    "EnhancementReport",
    "KrausChannel",
    "ScanReport",
    "SweepCurve",
    "analytic_exchange_matrix",
    "analytic_fidelity",
    "analytic_output_bloch",
    "analytic_output_entropy",
    "apply_channel",
    "bloch_ball_grid",
    "bloch_to_density",
    "coherent_information",
    "completeness_residual",
    "density_to_bloch",
    "detect_enhancement",
    "detect_multivalued",
    "entangled_fidelity",
    "entropy_exchange",
    "environment_output",
    "estimate_slopes",
    "exchange_matrix",
    "hermitian_eigenvalues",
    "hermitian_residual",
    "make_two_pauli",
    "monotone_branches",
    "quantum_mutual_information",
    "spectrum_entropy",
    "state_scan",
    "sweep",
    "two_pauli_metrics",
    "von_neumann_entropy",
]
