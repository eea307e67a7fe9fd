import time

import numpy as np
import pytest

from superact import ghz3, maximally_mixed, noise_model_state, noisy_ghz, noisy_w
from superact.certify import gme_concurrence_arguments
from superact.distill import distill_cnot
from superact.linalg import jacobi_eigvalsh
from superact.sdp import (
    BIPARTITIONS,
    SIGN_INDETERMINATE,
    SIGN_NEGATIVE,
    SIGN_NONNEGATIVE,
    SolverConfig,
    WitnessResult,
    ppt_mixer_witness,
    verify_witness_certificate,
    _partial_transpose_index,
    _project_affine,
    _project_cone,
    _transpose_stack,
)
from superact.states import StateValidationError, _partial_transpose_array
from util import BAD_RAW_ARRAYS, random_hermitian


def _certificate_invariants(result: WitnessResult, rho, feas_tol=1e-6):
    """Re-check everything the solver claims, using the Jacobi eigensolver."""
    m = np.asarray(rho.entries)
    assert abs(np.trace(result.witness).real - 1.0) < 1e-8
    assert abs(np.real(np.vdot(m, result.witness))
               - result.optimal_value) < 1e-8
    for (p_hat, q_hat), residual, party in zip(result.decompositions,
                                               result.residuals, BIPARTITIONS):
        eigs = jacobi_eigvalsh(np.stack([p_hat, q_hat]))
        assert eigs[:, 0].min() >= -1e-9
        rebuilt = p_hat + _partial_transpose_array(q_hat, 3, party)
        assert np.linalg.norm(result.witness - rebuilt) <= max(feas_tol,
                                                               2 * residual)
        assert residual <= feas_tol


# ---------------------------------------------------------------------------
# splitting-iteration internals

def test_affine_projection_feasible_and_idempotent():
    rng = np.random.default_rng(0)
    x = np.stack([random_hermitian(rng, 8) for _ in range(7)])
    eye = np.eye(8, dtype=complex)
    pt_index = _partial_transpose_index(3)
    y = _project_affine(x, pt_index, eye)
    assert abs(np.trace(y[0]).real - 1.0) < 1e-12
    for k, party in enumerate(BIPARTITIONS):
        residual = y[0] - y[1 + 2 * k] - _partial_transpose_array(
            y[2 + 2 * k], 3, party)
        assert np.abs(residual).max() < 1e-12
    again = _project_affine(y, pt_index, eye)
    assert np.abs(again - y).max() < 1e-12


def test_gather_partial_transpose_matches_reshape():
    rng = np.random.default_rng(2)
    pt_index = _partial_transpose_index(3)
    for _ in range(5):
        blocks = (rng.standard_normal((3, 8, 8))
                  + 1j * rng.standard_normal((3, 8, 8)))
        gathered = _transpose_stack(blocks, pt_index)
        for k, party in enumerate(BIPARTITIONS):
            assert np.array_equal(gathered[k],
                                  _partial_transpose_array(blocks[k], 3, party))


def test_cone_projection_clips_to_psd():
    rng = np.random.default_rng(1)
    x = np.stack([random_hermitian(rng, 8) for _ in range(7)])
    y = _project_cone(x)
    assert np.abs(y[0] - x[0]).max() == 0.0  # witness block is unconstrained
    assert np.linalg.eigvalsh(y[1:]).min() > -1e-12


# ---------------------------------------------------------------------------
# anchors with independent derivations

def test_projector_witness_is_feasible_and_bounds_optimum():
    # (I/2 - |GHZ><GHZ|)/3 decomposes as 0 + Q^{T_i} with Q PSD for every
    # bipartition, so the program's optimum at the pure GHZ state is at most
    # its value -1/6.
    proj = np.asarray(ghz3().projector().entries)
    w_ew = (np.eye(8) / 2.0 - proj) / 3.0
    for party in BIPARTITIONS:
        q = _partial_transpose_array(w_ew, 3, party)
        assert np.linalg.eigvalsh(q).min() > -1e-12
    result = ppt_mixer_witness(noisy_ghz(1.0))
    assert result.converged
    assert result.optimal_value <= -1 / 6 + 1e-6
    assert result.optimal_value == pytest.approx(-1 / 6, abs=1e-5)
    assert result.certified_sign == SIGN_NEGATIVE


def test_biseparable_regime_nonnegative():
    result = ppt_mixer_witness(noisy_ghz(0.4))
    assert result.converged
    assert result.optimal_value >= -1e-6
    assert result.certified_sign == SIGN_NONNEGATIVE
    assert ppt_mixer_witness(maximally_mixed(3)).optimal_value >= -1e-6


def test_gme_regime_negative():
    result = ppt_mixer_witness(noisy_ghz(0.5))
    assert result.converged
    assert result.optimal_value < -0.01
    assert result.certified_sign == SIGN_NEGATIVE


# For GHZ-diagonal X states the optimum is minus a third of the largest inner
# argument of the X-shape concurrence, on both sides of the GME boundary.

@pytest.mark.parametrize("p", [0.3, 0.43, 0.45, 0.5, 0.6, 0.8, 0.95, 1.0])
def test_noisy_ghz_optimum_matches_closed_form(p):
    rho = noisy_ghz(p)
    result = ppt_mixer_witness(rho)
    assert result.optimal_value == pytest.approx(-(7 * p - 3) / 24, abs=1e-8)
    assert verify_witness_certificate(result, rho)


@pytest.mark.parametrize("pqr", [(0.8, 0.9, 0.9), (0.7, 0.95, 0.85)])
def test_noise_model_optimum_matches_closed_form(pqr):
    rho = noise_model_state(*pqr)
    result = ppt_mixer_witness(rho)
    expected = -float(gme_concurrence_arguments(rho).max()) / 3.0
    assert result.optimal_value == pytest.approx(expected, abs=1e-8)
    assert verify_witness_certificate(result, rho)


@pytest.mark.parametrize("rho_factory, budget", [
    (lambda: distill_cnot(noisy_w(0.45), noisy_w(0.45)).state, 2500),
    (lambda: noisy_w(0.6), 350),
    (lambda: noisy_ghz(0.5), 500),
], ids=["distilled-w-0.45", "noisy-w-0.6", "noisy-ghz-0.5"])
def test_iteration_budget_at_default_settings(rho_factory, budget):
    # Iteration counts are deterministic; these bounds hold at the measured
    # default step and relaxation and fail if those drift back.
    result = ppt_mixer_witness(rho_factory())
    assert result.converged
    assert result.iterations <= budget


def test_certificates_verifiable_without_solver():
    for rho in (noisy_ghz(1.0), noisy_ghz(0.4), noisy_w(0.6)):
        result = ppt_mixer_witness(rho)
        _certificate_invariants(result, rho)
        assert verify_witness_certificate(result, rho)


def test_w_state_sign_change_region():
    assert ppt_mixer_witness(noisy_w(0.45)).certified_sign == SIGN_NONNEGATIVE
    assert ppt_mixer_witness(noisy_w(0.51)).certified_sign == SIGN_NEGATIVE


def test_distilled_w_sign_change_region():
    lo = distill_cnot(noisy_w(0.50), noisy_w(0.50)).state
    hi = distill_cnot(noisy_w(0.54), noisy_w(0.54)).state
    assert ppt_mixer_witness(lo).certified_sign == SIGN_NONNEGATIVE
    assert ppt_mixer_witness(hi).certified_sign == SIGN_NEGATIVE


def test_runtime_budget_per_instance():
    start = time.perf_counter()
    ppt_mixer_witness(noisy_w(0.48))
    assert time.perf_counter() - start < 30.0


def test_non_convergence_reports_indeterminate():
    result = ppt_mixer_witness(noisy_ghz(0.7),
                               SolverConfig(max_iterations=10))
    assert not result.converged
    assert result.certified_sign == SIGN_INDETERMINATE
    assert len(result.residuals) == 3
    assert result.iterations == 10


def _local_phase(rho):
    """Conjugate by a local diagonal phase unitary, making entries complex."""
    u = np.array([1.0], dtype=complex)
    for angle in (0.3, 1.1, 2.0):
        u = np.kron(u, np.array([1.0, np.exp(1j * angle)]))
    return np.asarray(rho.entries) * np.outer(u, u.conj())


@pytest.mark.parametrize("rho_factory", [
    lambda: noisy_w(0.6),
    lambda: distill_cnot(noisy_w(0.6), noisy_w(0.6)).state,
])
def test_real_path_matches_complex_path(rho_factory):
    rho = rho_factory()
    rotated = _local_phase(rho)
    assert not np.asarray(rho.entries).imag.any()
    assert rotated.imag.any()
    real = ppt_mixer_witness(rho)
    complex_ = ppt_mixer_witness(rotated)
    assert real.witness.dtype == complex_.witness.dtype == np.complex128
    assert real.optimal_value == pytest.approx(complex_.optimal_value, abs=1e-9)
    assert real.certified_sign == complex_.certified_sign
    assert verify_witness_certificate(real, rho)
    assert verify_witness_certificate(complex_, rotated)


def test_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        ppt_mixer_witness(maximally_mixed(2))


@pytest.mark.parametrize("bad", list(BAD_RAW_ARRAYS))
def test_rejects_bad_raw_arrays(bad):
    array, message = BAD_RAW_ARRAYS[bad]
    with pytest.raises(StateValidationError, match=message):
        ppt_mixer_witness(array)


# ---------------------------------------------------------------------------
# cross-check against an independent conic solver

def _reference_value(cvxpy, rho_entries):
    d = 8
    w = cvxpy.Variable((d, d), hermitian=True)
    constraints = [cvxpy.trace(w) == 1]
    for party in BIPARTITIONS:
        p_var = cvxpy.Variable((d, d), hermitian=True)
        q_var = cvxpy.Variable((d, d), hermitian=True)
        index = np.zeros((d, d, 2), dtype=int)
        for i in range(d):
            for j in range(d):
                bi = [(i >> (2 - q)) & 1 for q in range(3)]
                bj = [(j >> (2 - q)) & 1 for q in range(3)]
                for q in party:
                    bi[q], bj[q] = bj[q], bi[q]
                index[i, j] = (sum(b << (2 - q) for q, b in enumerate(bi)),
                               sum(b << (2 - q) for q, b in enumerate(bj)))
        q_transposed = cvxpy.bmat([[q_var[index[i, j, 0], index[i, j, 1]]
                                    for j in range(d)] for i in range(d)])
        constraints += [w - p_var == q_transposed, p_var >> 0, q_var >> 0]
    problem = cvxpy.Problem(
        cvxpy.Minimize(cvxpy.real(cvxpy.trace(w @ rho_entries))), constraints)
    problem.solve(solver=cvxpy.SCS, eps=1e-8, max_iters=100000)
    return problem.value


@pytest.mark.parametrize("rho_factory", [
    lambda: noisy_ghz(0.5),
    lambda: noisy_w(0.6),
    lambda: distill_cnot(noisy_w(0.53), noisy_w(0.53)).state,
])
def test_matches_reference_solver(rho_factory):
    cvxpy = pytest.importorskip("cvxpy")
    rho = rho_factory()
    ours = ppt_mixer_witness(rho).optimal_value
    reference = _reference_value(cvxpy, np.asarray(rho.entries))
    assert ours == pytest.approx(reference, abs=2e-6)
