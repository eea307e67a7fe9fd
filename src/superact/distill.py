"""SLOCC distillation maps and their closed-form outputs.

Two protocols act on a pair of states with the same number of qubits.
Party k holds qubit k of each copy; it keeps the copy-1 photon and
measures the copy-2 photon.  In the computational basis, with i and j
the row and column bit strings, both maps are entrywise products:

- the CNOT protocol: each party applies a CNOT from its kept to its
  measured qubit and post-selects the ancilla on zero, the Kraus operator
  |0><00| + |1><11| per party.  It keeps the terms where the two copies
  agree, so the unnormalized output is ``rho1 * rho2`` entrywise;
- the parity-check protocol (three qubits): each party overlaps its two
  photons on a polarizing beam splitter, keeps same-polarization events
  and measures the second output in the X basis, the Kraus operators
  (|0><00| +/- |1><11|)/sqrt(2) per party.  The branch
  with signs s carries entry (i, j) of ``rho1 * rho2`` with the factor
  prod_k s_k^(d_k) / 8, where d = i XOR j.  A phase flip on the first
  kept qubit of every branch with an odd number of minus outcomes
  multiplies it by (prod_k s_k)^(d_0).  Summed over the eight branches,
  prod_k sum_(s_k) s_k^(d_k XOR d_0) / 8 is 1 where d is 000 or 111 and
  0 elsewhere, so the output is ``rho1 * rho2`` on those entries and
  zero on all others.  On the diagonal d = 000, so each branch has the
  same weight tr(out) / 8.

Both are deterministic maps: every post-selection branch is accounted
for exactly, no sampling is involved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import (
    DEGENERATE_WEIGHT,
    PAULI_Z,
    DegenerateProjectionError,
    DensityMatrix,
    PureState,
    _check_unit_interval,
    _is_integer,
    _state_entries,
    apply_local,
    bloch_state,
    project_subsystem,
)

# The parity check keeps entry (i, j) when the row and column bit strings
# differ on all three qubits (i XOR j = 7) or on none (i XOR j = 0).
_PARITY_KEPT = np.bitwise_xor.outer(np.arange(8), np.arange(8)) % 7 == 0
_PARITY_LABELS = ("+++", "++-", "+-+", "+--", "-++", "-+-", "--+", "---")


class DistillationImpossibleError(ValueError):
    """Total post-selection weight vanished; no output state exists."""


@dataclass(frozen=True)
class DistillationOutcome:
    """Normalized output state with its post-selection bookkeeping.

    ``parity_branch_weights`` lists every kept measurement branch and its
    probability; the weights sum to ``success_probability``.
    """

    state: DensityMatrix
    success_probability: float
    parity_branch_weights: tuple[tuple[str, float], ...]


def _copy_pair(rho1, rho2,
               n_qubits: int | None = None) -> tuple[np.ndarray, np.ndarray, int]:
    """Entries of two states of the same qubit count, validated as states;
    with ``n_qubits`` that count must be ``n_qubits``."""
    m1, n1 = _state_entries(rho1, n_qubits)
    m2, n2 = _state_entries(rho2, n_qubits)
    if n1 != n2:
        raise ValueError(f"qubit counts differ: {n1} vs {n2}")
    return m1, m2, n1


def _outcome(out: np.ndarray, n_qubits: int,
             labels: tuple[str, ...]) -> DistillationOutcome:
    """Normalize ``out``; its weight is shared equally by the ``labels``."""
    success = float(np.trace(out).real)
    if success < DEGENERATE_WEIGHT:
        raise DistillationImpossibleError(
            f"post-selection weight {success:.3e} below {DEGENERATE_WEIGHT:.1e}")
    return DistillationOutcome(
        state=DensityMatrix(n_qubits, out / success),
        success_probability=success,
        parity_branch_weights=tuple((label, success / len(labels))
                                    for label in labels),
    )


def distill_tripartite(rho1, rho2) -> DistillationOutcome:
    """Parity-check distillation of two three-qubit states.

    The eight X-measurement branches, with the phase flip on odd-minus
    branches, sum to ``rho1 * rho2`` entrywise on the entries whose row and
    column bits differ on all qubits or on none (see the module docstring);
    each branch carries an eighth of the success probability.
    """
    m1, m2, _ = _copy_pair(rho1, rho2, 3)
    return _outcome(np.where(_PARITY_KEPT, m1 * m2, 0.0), 3, _PARITY_LABELS)


def distill_cnot(rho1, rho2) -> DistillationOutcome:
    """CNOT-based distillation keeping only all-zero ancilla outcomes.

    Each party applies |0><00| + |1><11| to its ordered (kept, measured)
    pair, so the unnormalized output entries are the elementwise products of
    the two input matrices.
    """
    m1, m2, n_parties = _copy_pair(rho1, rho2)
    return _outcome(m1 * m2, n_parties, ("0" * n_parties,))


def _basis_key(basis: str) -> str:
    """Lower-case name of a basis :func:`localize` accepts."""
    key = basis.lower()
    if key not in ("x", "computational", "z"):
        raise ValueError(f"unknown basis {basis!r}; use 'x' or 'computational'")
    return key


def localize(rho, measured_qubit: int, basis: str,
             outcome: int) -> tuple[DensityMatrix, float]:
    """Project one qubit onto a basis state and return the two-qubit remainder.

    ``basis`` is ``"x"`` or ``"computational"``; ``outcome`` 0/1 selects
    plus/minus respectively zero/one.  The minus branch of an X measurement
    gets a phase-flip correction on the first remaining qubit, so both
    branches localize toward the same target state.
    """
    key = _basis_key(basis)
    if not _is_integer(outcome) or outcome not in (0, 1):
        raise ValueError(f"outcome must be the integer 0 or 1, got {outcome!r}")
    if key == "x":
        psi = bloch_state(np.pi / 4.0, 0.0 if outcome == 0 else np.pi)
    else:
        psi = PureState(1, np.array([1.0, 0.0]) if outcome == 0
                        else np.array([0.0, 1.0]))
    try:
        state, weight = project_subsystem(rho, psi, (measured_qubit,),
                                          normalize=True)
    except DegenerateProjectionError as exc:
        raise DegenerateProjectionError(f"zero-weight branch: {exc}") from exc
    if key == "x" and outcome == 1:
        state = apply_local(state, PAULI_Z, 0)
    return state, weight


def analytic_distilled_noisy_ghz(p: float) -> DensityMatrix:
    """Closed-form parity-check output for two copies of the noisy GHZ state.

    Serves as the independent oracle for :func:`distill_tripartite`.
    """
    _check_unit_interval(p=p)
    norm = 3.0 * p * p + 1.0
    m = np.zeros((8, 8), dtype=np.complex128)
    corner = (3.0 * p + 1.0) ** 2 / 8.0
    middle = (1.0 - p) ** 2 / 8.0
    for i in range(8):
        m[i, i] = corner if i in (0, 7) else middle
    m[0, 7] = m[7, 0] = 2.0 * p * p
    # A state by construction, for p in [0, 1]: Hermitian and of unit trace,
    # with eigenvalues the middle entries and corner +/- 2 p^2 over the
    # norm, nonnegative since (3 p + 1)^2 / 8 >= 2 p^2 where p <= 1.
    return DensityMatrix._trusted(3, m / norm)


def component_fidelity_update(component_fidelities) -> np.ndarray:
    """One distillation round on the eight GHZ-component proportions.

    Input order is (plus, minus) for each bit pattern 0..3.  Only pairs with
    matching bit patterns survive the parity check; matching phases produce
    the plus component and opposite phases the minus component.  The result
    is renormalized by the total survival probability.
    """
    f = np.asarray(component_fidelities, dtype=float).reshape(-1)
    if f.shape != (8,):
        raise ValueError(f"expected 8 component fidelities, got {f.shape}")
    if abs(f.sum() - 1.0) > 1e-9:
        raise ValueError(f"component fidelities sum to {f.sum()!r}, not 1")
    plus, minus = f[0::2], f[1::2]
    new_plus = plus ** 2 + minus ** 2
    new_minus = 2.0 * plus * minus
    survival = float((plus + minus).dot(plus + minus))
    if survival < DEGENERATE_WEIGHT:
        raise DistillationImpossibleError("all components have zero survival")
    out = np.empty(8)
    out[0::2] = new_plus / survival
    out[1::2] = new_minus / survival
    return out
