"""First-order solver for the PPT-mixer witness program.

The program searched is

    minimize    tr(W rho)
    subject to  tr(W) = 1,
                W = P_i + Q_i^{T_i},  P_i >= 0,  Q_i >= 0

for the three one-versus-rest bipartitions of a three-qubit state.  A
negative optimum certifies genuine multipartite entanglement; a nonnegative
optimum is strong (though not conclusive) evidence of bi-separability.

The solver is Douglas-Rachford splitting over the 7-tuple
(W, P_1, Q_1, ..., Q_3) of Hermitian matrices: one proximal step projects
onto the affine constraint set after a gradient step on the linear
objective (the projection has a small closed form, derived below), the
other projects onto the product of PSD cones, and the reflection update is
over-relaxed.  Certificates are extracted so that they can be re-verified
without trusting the solver: the returned witness has unit trace and the
returned cone factors are exactly PSD, with the remaining constraint
violation reported per bipartition as a residual norm.

Affine projection
-----------------
Stack x = (W, P_1, Q_1, P_2, Q_2, P_3, Q_3).  The constraint map is
C x = (tr W - 1, {W - P_i - T_i Q_i}) with T_i the (self-adjoint,
involutive) partial transpose.  Orthogonal projection is
x - C^*(C C^*)^{-1}(C x - b), and C C^* acts on multipliers (t, {M_i}) as
(d t + sum_j tr M_j, {t I + sum_j M_j + 2 M_i}) with d = 8, which inverts
in closed form:

    t   = (5 r_0 - sum_i tr R_i) / 16
    S   = (sum_i R_i - 3 t I) / 5
    M_i = (R_i - t I - S) / 2

where r_0, R_i are the constraint residuals of the point being projected.

Default step and relaxation
---------------------------
Douglas-Rachford convergence depends strongly on the step and the
relaxation (Giselsson & Boyd, IEEE TAC 2017), so the defaults were chosen by
scanning step from 0.5 to 32 and relaxation from 1.0 to 1.9 over a fixed
corpus of 46 states: noisy W at p in {0.4, 0.45, 0.475, 0.478, 0.4797, 0.48,
0.4875, 0.5, 0.6}; CNOT-distilled noisy W at the W-GME-after-distill
bisection points {0.45, 0.4875, 0.50625, 0.515, 0.518, 0.5185, 0.52, 0.525,
0.6}; eight noisy GHZ and four noise-model states; and the 16 random states
of the certify-mixed benchmark workload for seeds 1-8.  A setting was
admissible when

- no certified sign changed and no family's total iteration count rose;
- every optimal value lay within 1e-8 of a tight reference solve
  (stagnation_tol=1e-13, stagnation_window=400) made with the old and with
  the new setting.  On one random state the old defaults themselves miss
  the reference by 1.8e-7, so there a setting had only to do no worse;
- distilled W at p = 0.45, noisy W at 0.6 and noisy GHZ at 0.5 took at most
  2500, 350 and 500 iterations (``tests/test_sdp.py`` pins these budgets).

The admissible setting with the fewest total iterations, (7, 1.2), replaced
(0.5, 1.8): 94700 -> 33550 iterations in total, W and distilled W 16050 ->
7050, the random states 70900 -> 22300 (worst 11850 -> 6950), each noisy
GHZ or noise-model solve 600-650 -> 350, distilled W at p = 0.45 5800 ->
1000; the largest deviation from the references fell from 1.6e-8 to 3.4e-9
outside that one state, where it fell from 1.8e-7 to 4.4e-8.  (10, 1.3) had
fewer iterations in total, 31350, but takes 450 on noisy W at 0.6.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import _entries, _partial_transpose_array

BIPARTITIONS = ((0,), (1,), (2,))
SIGN_NEGATIVE = "negative"
SIGN_NONNEGATIVE = "nonnegative"
SIGN_INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class SolverConfig:
    """Settings of the splitting iteration and of its stopping rule.

    ``step`` scales the objective in the affine proximal step and
    ``relaxation`` over-relaxes the reflection update.  Their defaults were
    chosen by measurement (see the module docstring, "Default step and
    relaxation"); the stopping rule is a window of ``stagnation_window``
    objective values, checked every 50 iterations, that must span less
    than ``stagnation_tol`` at a cone violation of at most
    ``feasibility_tol``.
    """

    step: float = 7.0
    relaxation: float = 1.2
    feasibility_tol: float = 1e-7
    stagnation_tol: float = 1e-9
    stagnation_window: int = 100
    max_iterations: int = 200_000
    certification_margin: float = 1e-5


@dataclass(frozen=True)
class WitnessResult:
    """Solution and self-verifiable certificate of the witness program.

    ``witness`` has unit trace; every (P, Q) pair in ``decompositions`` is
    exactly positive semidefinite; ``residuals`` holds the Frobenius norms
    ||W - P_i - Q_i^{T_i}|| that remain.  ``certified_sign`` reports the
    sign of ``optimal_value`` only when it clears the configured margin and
    the iteration converged.
    """

    optimal_value: float
    witness: np.ndarray
    decompositions: tuple[tuple[np.ndarray, np.ndarray], ...]
    residuals: tuple[float, ...]
    iterations: int
    converged: bool
    certified_sign: str


def _partial_transpose_index(n_qubits: int) -> np.ndarray:
    """Gather index of the three partial transposes, shape (3, dim**2).

    With dim = 2**n_qubits and a stack of three dim x dim blocks flattened
    to ``flat``, ``flat[index[k]]`` is block k partially transposed over
    ``BIPARTITIONS[k]``, in row-major order.
    """
    dim = 2 ** n_qubits
    flat = np.arange(dim * dim).reshape(dim, dim)
    return np.stack([
        k * dim * dim + _partial_transpose_array(flat, n_qubits, party).ravel()
        for k, party in enumerate(BIPARTITIONS)
    ])


def _transpose_stack(blocks: np.ndarray, pt_index: np.ndarray) -> np.ndarray:
    """Partial transpose of ``blocks[k]`` over ``BIPARTITIONS[k]`` for k = 0..2."""
    return blocks.reshape(-1)[pt_index].reshape(blocks.shape)


def _project_affine(x: np.ndarray, pt_index: np.ndarray,
                    eye: np.ndarray) -> np.ndarray:
    dim = eye.shape[0]
    w = x[0]
    p_blocks, q_blocks = x[1::2], x[2::2]
    r0 = float(w.trace().real) - 1.0
    r = w - p_blocks - _transpose_stack(q_blocks, pt_index)
    r_sum = r[0] + r[1] + r[2]
    t = (5.0 * r0 - float(r_sum.trace().real)) / (2.0 * dim)
    s = (r_sum - 3.0 * t * eye) / 5.0
    m = 0.5 * (r - t * eye - s)
    out = np.empty_like(x)
    out[0] = w - (t * eye + (m[0] + m[1] + m[2]))
    out[1::2] = p_blocks + m
    out[2::2] = q_blocks + _transpose_stack(m, pt_index)
    return out


def _project_cone(x: np.ndarray) -> np.ndarray:
    out = x.copy()
    blocks = x[1:]
    w, v = np.linalg.eigh(blocks)
    w = np.maximum(w, 0.0)
    out[1:] = (v * w[:, None, :]) @ np.conj(np.swapaxes(v, -1, -2))
    return out


def _cone_violation(x: np.ndarray) -> float:
    """Frobenius norm of the negative part, maximized over cone blocks."""
    w = np.linalg.eigvalsh(x[1:])
    return float(np.sqrt((np.minimum(w, 0.0) ** 2).sum(axis=1)).max())


def ppt_mixer_witness(rho, config: SolverConfig | None = None) -> WitnessResult:
    """Solve the PPT-mixer program for a three-qubit state.

    Non-convergence within the iteration budget is not an exception: the
    result is returned with ``converged=False``, its residuals, and an
    ``indeterminate`` sign.
    """
    cfg = config or SolverConfig()
    m, n_qubits = _entries(rho)
    if n_qubits != 3:
        raise ValueError(f"expected a three-qubit state, got {n_qubits} qubits")
    dim = m.shape[0]
    # The program for a real state is invariant under complex conjugation,
    # so averaging an optimal witness with its conjugate gives a real optimal
    # one: such states iterate in real arithmetic.
    dtype = np.complex128 if m.imag.any() else np.float64
    eye = np.eye(dim, dtype=dtype)
    pt_index = _partial_transpose_index(n_qubits)

    c = np.zeros((7, dim, dim), dtype=dtype)
    c[0] = m if dtype is np.complex128 else m.real
    z = np.zeros_like(c)
    z[0] = eye / dim
    z[1:] = eye / (2 * dim)

    history: list[float] = []
    xf = z
    converged = False
    iterations = 0
    check_every = 50
    for iterations in range(1, cfg.max_iterations + 1):
        xf = _project_affine(z - cfg.step * c, pt_index, eye)
        xg = _project_cone(2.0 * xf - z)
        z = z + cfg.relaxation * (xg - xf)
        history.append(float(np.vdot(c[0], xf[0]).real))
        if iterations % check_every == 0 and len(history) > cfg.stagnation_window:
            window = history[-cfg.stagnation_window - 1:]
            if max(window) - min(window) < cfg.stagnation_tol:
                if _cone_violation(xf) <= cfg.feasibility_tol:
                    converged = True
                    break

    xf = xf.astype(np.complex128)
    witness = 0.5 * (xf[0] + xf[0].conj().T)
    decompositions = []
    residuals = []
    cone = _project_cone(xf)
    for k, party in enumerate(BIPARTITIONS):
        p_hat = cone[1 + 2 * k]
        q_hat = cone[2 + 2 * k]
        reconstruction = p_hat + _partial_transpose_array(q_hat, n_qubits, party)
        residuals.append(float(np.linalg.norm(witness - reconstruction)))
        decompositions.append((p_hat, q_hat))

    optimal_value = float(np.real(np.vdot(m, witness)))
    if not converged:
        sign = SIGN_INDETERMINATE
    elif optimal_value < -cfg.certification_margin:
        sign = SIGN_NEGATIVE
    elif optimal_value > cfg.certification_margin:
        sign = SIGN_NONNEGATIVE
    else:
        sign = SIGN_INDETERMINATE
    return WitnessResult(
        optimal_value=optimal_value,
        witness=witness,
        decompositions=tuple(decompositions),
        residuals=tuple(residuals),
        iterations=iterations,
        converged=converged,
        certified_sign=sign,
    )


def _matrix_to_dict(m: np.ndarray) -> dict:
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def witness_result_to_json_dict(result: WitnessResult) -> dict:
    """Complete JSON record of the witness program's solution."""
    return {
        "optimal_value": result.optimal_value,
        "witness": _matrix_to_dict(result.witness),
        "decompositions": [
            {"P": _matrix_to_dict(p), "Q": _matrix_to_dict(q)}
            for p, q in result.decompositions
        ],
        "residuals": list(result.residuals),
        "iterations": result.iterations,
        "converged": result.converged,
        "certified_sign": result.certified_sign,
    }


def verify_witness_certificate(result: WitnessResult, rho,
                               feasibility_tol: float = 1e-6) -> bool:
    """Re-check a witness certificate without trusting the solver.

    Uses the package's own Jacobi eigensolver, so the check is independent
    of the LAPACK-backed projections used inside the iteration.
    """
    from .linalg import jacobi_eigvalsh

    m, n_qubits = _entries(rho)
    w = result.witness
    if abs(float(np.trace(w).real) - 1.0) > 1e-8:
        return False
    if abs(float(np.real(np.vdot(m, w))) - result.optimal_value) > 1e-8:
        return False
    for (p_hat, q_hat), residual, party in zip(result.decompositions,
                                               result.residuals, BIPARTITIONS):
        eigs = jacobi_eigvalsh(np.stack([p_hat, q_hat]))
        if eigs[:, 0].min() < -1e-9:
            return False
        reconstruction = p_hat + _partial_transpose_array(q_hat, n_qubits, party)
        if np.linalg.norm(w - reconstruction) > max(feasibility_tol, 2 * residual):
            return False
    return True
