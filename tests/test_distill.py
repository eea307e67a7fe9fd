from functools import reduce
from itertools import product

import numpy as np
import pytest

from superact import (
    DensityMatrix,
    apply_local,
    fidelity_with_pure,
    ghz3,
    make_ghz,
    maximally_mixed,
    noisy_ghz,
    noisy_w,
)
from superact.distill import (
    DistillationImpossibleError,
    analytic_distilled_noisy_ghz,
    component_fidelity_update,
    distill_cnot,
    distill_tripartite,
    localize,
)
from superact.states import PAULI_X, PAULI_Z, PureState
from util import random_density_matrix

P_GRID = np.linspace(0.0, 1.0, 21)


# ---------------------------------------------------------------------------
# elementary operators

def pbs_projector() -> np.ndarray:
    """Two-photon parity projector |00><00| + |11><11|, the oracle that the
    parity operators resolve."""
    p = np.zeros((4, 4), dtype=np.complex128)
    p[0, 0] = 1.0
    p[3, 3] = 1.0
    return p


def analytic_fidelity_after(p: float) -> float:
    """GHZ fidelity of the distilled noisy GHZ state: (25p^2+6p+1)/(24p^2+8)."""
    return (25.0 * p * p + 6.0 * p + 1.0) / (24.0 * p * p + 8.0)


def parity_operators() -> tuple[np.ndarray, np.ndarray]:
    """Reduction operators (|0><00| +/- |1><11|)/sqrt(2), the Kraus operators
    of one party of the parity check: the parity projector composed with an
    X-basis measurement of the second photon, P_+ for outcome plus and P_-
    for outcome minus."""
    plus = np.zeros((2, 4), dtype=np.complex128)
    minus = np.zeros((2, 4), dtype=np.complex128)
    plus[0, 0] = plus[1, 3] = 1.0 / np.sqrt(2.0)
    minus[0, 0] = 1.0 / np.sqrt(2.0)
    minus[1, 3] = -1.0 / np.sqrt(2.0)
    return plus, minus


def test_pbs_projector_properties():
    p = pbs_projector()
    ket01 = np.array([0, 1, 0, 0], dtype=complex)
    assert np.allclose(p @ ket01, 0.0)
    assert np.abs(p @ p - p).max() == 0.0


def test_pbs_rejects_mismatched_components():
    p = pbs_projector()
    p3 = np.kron(np.kron(p, p), p)
    psi = np.kron(make_ghz(0, +1).amplitudes, make_ghz(1, +1).amplitudes)
    interleaved = psi.reshape([2] * 6).transpose([0, 3, 1, 4, 2, 5]).reshape(-1)
    assert np.linalg.norm(p3 @ interleaved) == 0.0


def test_parity_operators_values():
    plus, minus = parity_operators()
    assert plus[0, 0] == pytest.approx(1 / np.sqrt(2))   # P_+|00> = |0>/sqrt(2)
    assert minus[1, 3] == pytest.approx(-1 / np.sqrt(2))  # P_-|11> = -|1>/sqrt(2)
    resolution = plus.conj().T @ plus + minus.conj().T @ minus
    assert np.abs(resolution - pbs_projector()).max() < 1e-15


# ---------------------------------------------------------------------------
# parity-check distillation

def test_distill_pure_ghz():
    out = distill_tripartite(noisy_ghz(1.0), noisy_ghz(1.0))
    assert out.success_probability == pytest.approx(0.5)
    assert fidelity_with_pure(out.state, ghz3()) == pytest.approx(1.0)


def test_distill_matches_closed_form_on_grid():
    for p in P_GRID:
        rho = noisy_ghz(p)
        out = distill_tripartite(rho, rho)
        oracle = analytic_distilled_noisy_ghz(p)
        assert np.abs(np.asarray(out.state.entries)
                      - np.asarray(oracle.entries)).max() < 1e-12
        assert abs(out.success_probability - (3 * p * p + 1) / 8) < 1e-12
        assert abs(fidelity_with_pure(out.state, ghz3())
                   - analytic_fidelity_after(p)) < 1e-12


def test_distilled_corner_entry():
    out = analytic_distilled_noisy_ghz(0.5)
    assert out.entries[0, 0] == pytest.approx((3 * 0.5 + 1) ** 2 / 8 / (3 * 0.25 + 1))
    assert out.entries[0, 7] == pytest.approx(2 * 0.25 / (3 * 0.25 + 1))


def test_branch_weights_sum_to_success():
    out = distill_tripartite(noisy_ghz(0.37), noisy_ghz(0.81))
    assert len(out.parity_branch_weights) == 8
    total = sum(w for _, w in out.parity_branch_weights)
    assert abs(total - out.success_probability) < 1e-12


def test_distill_output_satisfies_state_invariants():
    rng = np.random.default_rng(12)
    for _ in range(5):
        a = DensityMatrix(3, random_density_matrix(rng, 3))
        b = DensityMatrix(3, random_density_matrix(rng, 3))
        out = distill_tripartite(a, b)
        assert out.state.normalized
        assert out.state.eigenvalues()[0] >= -1e-9
        assert 0.0 <= out.success_probability <= 1.0


def test_distill_requires_three_qubits():
    two = maximally_mixed(2)
    with pytest.raises(ValueError):
        distill_tripartite(two, two)


def test_distill_impossible_for_orthogonal_corner_case():
    # Both parity branches vanish when one copy lives on |01>-type patterns
    # that the parity check always rejects against the other copy.
    odd = PureState(3, np.eye(8)[1]).projector()   # |001>
    even = PureState(3, np.eye(8)[6]).projector()  # |110>
    with pytest.raises(DistillationImpossibleError):
        distill_tripartite(odd, even)


# ---------------------------------------------------------------------------
# CNOT distillation

def test_cnot_elementwise_square_law_random_inputs():
    rng = np.random.default_rng(77)
    for _ in range(8):
        rho = random_density_matrix(rng, 3)
        out = distill_cnot(DensityMatrix(3, rho), DensityMatrix(3, rho))
        squared = rho * rho
        squared = squared / np.trace(squared).real
        assert np.abs(np.asarray(out.state.entries) - squared).max() < 1e-12


def test_cnot_elementwise_product_different_inputs():
    rng = np.random.default_rng(78)
    a = random_density_matrix(rng, 2)
    b = random_density_matrix(rng, 2)
    out = distill_cnot(DensityMatrix(2, a), DensityMatrix(2, b))
    prod = a * b
    assert np.abs(np.asarray(out.state.entries)
                  - prod / np.trace(prod).real).max() < 1e-12


def test_cnot_noisy_w_closed_form():
    p = 0.6
    out = distill_cnot(noisy_w(p), noisy_w(p))
    norm = 24.0 / (5 * p * p + 3)
    assert out.success_probability == pytest.approx((5 * p * p + 3) / 24)
    m = np.asarray(out.state.entries)
    assert m[1, 2] == pytest.approx(norm * p * p / 9)
    assert m[1, 1] == pytest.approx(norm * (3 + 5 * p) ** 2 / 576)
    assert m[0, 0] == pytest.approx(norm * (1 - p) ** 2 / 64)


def test_cnot_pure_product_state():
    zero = PureState(3, np.eye(8)[0]).projector()
    out = distill_cnot(zero, zero)
    assert out.success_probability == pytest.approx(1.0)
    assert np.abs(np.asarray(out.state.entries) - np.asarray(zero.entries)).max() < 1e-15


# ---------------------------------------------------------------------------
# operator-level reference: both maps as Kraus branches on the 64x64 pair

def _interleaved_pair(m1, m2):
    """kron(m1, m2) with the qubits reordered to (party-0 pair, party-1
    pair, ...), the copy-1 (kept) qubit first in each pair."""
    n = m1.shape[0].bit_length() - 1
    perm = [q for k in range(n) for q in (k, n + k)]
    t = np.kron(m1, m2).reshape((2,) * (4 * n))
    return t.transpose(perm + [2 * n + q for q in perm]).reshape(4 ** n, 4 ** n)


def _operator_pbs_branches(m1, m2):
    """(label, unnormalized output) of each parity-check branch, with the
    phase flip on the first kept qubit of the odd-minus branches."""
    joint = _interleaved_pair(m1, m2)
    plus, minus = parity_operators()
    flip = np.kron(PAULI_Z, np.eye(4))
    branches = []
    for signs in product("+-", repeat=3):
        k = reduce(np.kron, [plus if s == "+" else minus for s in signs])
        out = k @ joint @ k.conj().T
        if signs.count("-") % 2:
            out = flip @ out @ flip
        branches.append(("".join(signs), out))
    return branches


def _operator_cnot(m1, m2):
    n = m1.shape[0].bit_length() - 1
    keep_zero = np.zeros((2, 4))
    keep_zero[0, 0] = keep_zero[1, 3] = 1.0  # |0><00| + |1><11|
    k = reduce(np.kron, [keep_zero] * n)
    return k @ _interleaved_pair(m1, m2) @ k.conj().T


def test_parity_check_matches_the_operator_route():
    rng = np.random.default_rng(16)
    for _ in range(10):
        a, b = random_density_matrix(rng, 3), random_density_matrix(rng, 3)
        branches = _operator_pbs_branches(a, b)
        total = sum(out for _, out in branches)
        success = np.trace(total).real
        result = distill_tripartite(a, b)
        assert abs(result.success_probability - success) < 1e-12
        assert np.abs(np.asarray(result.state.entries)
                      - total / success).max() < 1e-12
        assert [label for label, _ in result.parity_branch_weights] == [
            label for label, _ in branches]
        for (_, weight), (_, out) in zip(result.parity_branch_weights, branches):
            assert weight == result.success_probability / 8
            assert abs(np.trace(out).real - weight) < 1e-12


@pytest.mark.parametrize("n_qubits", [1, 2, 3])
def test_cnot_matches_the_operator_route(n_qubits):
    rng = np.random.default_rng(17)
    for _ in range(5):
        a = random_density_matrix(rng, n_qubits)
        b = random_density_matrix(rng, n_qubits)
        out = _operator_cnot(a, b)
        success = np.trace(out).real
        result = distill_cnot(a, b)
        assert abs(result.success_probability - success) < 1e-12
        assert np.abs(np.asarray(result.state.entries)
                      - out / success).max() < 1e-12
        assert result.parity_branch_weights == (
            ("0" * n_qubits, result.success_probability),)


# ---------------------------------------------------------------------------
# localization

def test_localize_noisy_ghz_x_basis():
    for p in (0.2, 0.5, 0.9):
        bell = np.outer([1, 0, 0, 1], [1, 0, 0, 1]) / 2.0
        expected = p * bell + (1 - p) * np.eye(4) / 4.0
        for outcome in (0, 1):
            state, weight = localize(noisy_ghz(p), 2, "x", outcome)
            assert weight == pytest.approx(0.5)
            assert np.abs(np.asarray(state.entries) - expected).max() < 1e-14


def test_localize_noisy_w_computational():
    p = 0.6
    state, weight = localize(noisy_w(p), 2, "computational", 0)
    state = apply_local(state, PAULI_X, 1)
    bell = np.outer([1, 0, 0, 1], [1, 0, 0, 1]) / 2.0
    expected = 4 * p / (p + 3) * bell + 3 * (1 - p) / (4 * (p + 3)) * np.eye(4)
    assert weight == pytest.approx((p + 3) / 6)
    assert np.abs(np.asarray(state.entries) - expected).max() < 1e-14


def test_localized_distilled_fidelity_formula():
    for p in P_GRID:
        out = distill_tripartite(noisy_ghz(p), noisy_ghz(p))
        state, _ = localize(out.state, 2, "x", 0)
        phi = PureState(2, np.array([1, 0, 0, 1]) / np.sqrt(2))
        f2 = (13 * p * p + 2 * p + 1) / (4 * (3 * p * p + 1))
        assert fidelity_with_pure(state, phi) == pytest.approx(f2, abs=1e-12)


def test_localize_zero_weight_branch():
    zero = PureState(3, np.eye(8)[0]).projector()  # |000>
    with pytest.raises(Exception):
        localize(zero, 2, "computational", 1)


@pytest.mark.parametrize("outcome", [True, np.True_, 1.0])
def test_localize_rejects_a_non_integer_outcome(outcome):
    # Each would act as outcome 1.
    with pytest.raises(ValueError, match="outcome must be"):
        localize(noisy_ghz(0.5), 2, "x", outcome)


def test_localize_takes_a_numpy_integer_outcome():
    rho = noisy_ghz(0.5)
    state, weight = localize(rho, 2, "x", np.int64(1))
    expected, expected_weight = localize(rho, 2, "x", 1)
    assert weight == expected_weight
    assert np.array_equal(state.entries, expected.entries)


def test_localize_rejects_unknown_basis():
    with pytest.raises(ValueError):
        localize(noisy_ghz(0.5), 2, "diagonal", 0)


# ---------------------------------------------------------------------------
# component proportion update

def test_component_update_reproduces_target_fidelity():
    for p in (0.1, 0.36, 0.5, 0.77):
        f0 = (1 + 7 * p) / 8
        fr = (1 - p) / 8
        components = np.array([f0, fr, fr, fr, fr, fr, fr, fr])
        updated = component_fidelity_update(components)
        assert updated[0] == pytest.approx(analytic_fidelity_after(p), abs=1e-14)
        assert updated.sum() == pytest.approx(1.0)


def test_component_update_fixed_points():
    concentrated = np.zeros(8)
    concentrated[0] = 1.0
    assert np.allclose(component_fidelity_update(concentrated), concentrated)
    uniform = np.full(8, 1 / 8)
    assert np.allclose(component_fidelity_update(uniform), uniform)


def test_component_update_matches_operator_route():
    # The proportion update and the full density-matrix protocol must agree
    # on every component of a generic diagonal-in-GHZ-basis input.
    rng = np.random.default_rng(5)
    weights = rng.dirichlet(np.ones(8))
    basis = [make_ghz(i, s) for i in range(4) for s in (+1, -1)]
    rho = sum(w * np.asarray(b.projector().entries)
              for w, b in zip(weights, basis))
    out = distill_tripartite(DensityMatrix(3, rho), DensityMatrix(3, rho))
    updated = component_fidelity_update(weights)
    for k, b in enumerate(basis):
        assert fidelity_with_pure(out.state, b) == pytest.approx(
            updated[k], abs=1e-12)


def test_component_update_validates_input():
    with pytest.raises(ValueError):
        component_fidelity_update(np.full(8, 0.2))
    with pytest.raises(ValueError):
        component_fidelity_update(np.ones(4))


def test_fidelity_window_where_distillation_crosses_one_half():
    # Output fidelity exceeds 1/2 while the input fidelity is still below it
    # exactly between the two closed-form thresholds.
    lo = (4 * np.sqrt(3) - 3) / 13
    hi = 3 / 7
    for p in (lo + 1e-3, 0.36, hi - 1e-3):
        assert (1 + 7 * p) / 8 < 0.5
        assert analytic_fidelity_after(p) > 0.5
    for p in (lo - 1e-3, 0.1):
        assert analytic_fidelity_after(p) < 0.5
    for p in (hi + 1e-3, 0.6):
        assert (1 + 7 * p) / 8 > 0.5
