"""Exact simulation of tripartite entanglement distillation and certification.

Modules by concern:

- :mod:`superact.states` -- multi-qubit pure states and density matrices
- :mod:`superact.linalg` -- Jacobi eigensolver, called only by ``verify``
- :mod:`superact.distill` -- parity-check and CNOT distillation protocols
- :mod:`superact.certify` -- GME concurrence, negativity, witnesses, SLE search
- :mod:`superact.sdp` -- first-order solver for the PPT-mixer program
- :mod:`superact.verify` -- checks of witness and SLE certificates
- :mod:`superact.thresholds` -- bisection thresholds
- :mod:`superact.coincidence` -- photonic network routing and sampling
- :mod:`superact.cli` -- command-line driver
"""

from .states import (
    DensityMatrix,
    PureState,
    apply_local,
    bell_phi_plus,
    bloch_state,
    fidelity_with_pure,
    ghz3,
    load_density_matrix,
    make_ghz,
    maximally_mixed,
    noise_model_state,
    noisy_ghz,
    noisy_w,
    partial_trace,
    partial_transpose,
    project_subsystem,
    save_density_matrix,
    tensor,
    w_state,
)
from .linalg import hermitian_eigenvalues

__all__ = [
    "DensityMatrix",
    "PureState",
    "apply_local",
    "bell_phi_plus",
    "bloch_state",
    "fidelity_with_pure",
    "ghz3",
    "hermitian_eigenvalues",
    "load_density_matrix",
    "make_ghz",
    "maximally_mixed",
    "noise_model_state",
    "noisy_ghz",
    "noisy_w",
    "partial_trace",
    "partial_transpose",
    "project_subsystem",
    "save_density_matrix",
    "tensor",
    "w_state",
]

__version__ = "0.1.0"
