import json

import numpy as np
import pytest

from superact import (
    DensityMatrix,
    PureState,
    SubsystemPartition,
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
from superact.states import (
    PAULI_X,
    PAULI_Z,
    DegenerateProjectionError,
    StateValidationError,
    density_matrix_from_dict,
)
from util import (
    brute_partial_trace,
    brute_partial_transpose,
    random_density_matrix,
)

P_GRID = np.linspace(0.0, 1.0, 21)


# ---------------------------------------------------------------------------
# types and invariants

def test_pure_state_normalization_enforced():
    with pytest.raises(StateValidationError):
        PureState(1, np.array([1.0, 1.0]))


def test_density_matrix_rejects_non_hermitian():
    m = np.eye(4) / 4.0
    m[0, 1] = 0.1
    with pytest.raises(StateValidationError):
        DensityMatrix(2, m)


def test_density_matrix_rejects_wrong_trace():
    with pytest.raises(StateValidationError):
        DensityMatrix(2, np.eye(4) / 2.0)
    # but unnormalized intermediates are first-class
    DensityMatrix(2, np.eye(4) / 2.0, normalized=False)


def test_density_matrix_rejects_negative_eigenvalue():
    m = np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex)
    with pytest.raises(StateValidationError):
        DensityMatrix(2, m)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_density_matrix_rejects_non_finite_entries(bad):
    m = (np.eye(4) / 4.0).astype(complex)
    m[1, 2] = m[2, 1] = bad
    with pytest.raises(StateValidationError, match="non-finite"):
        DensityMatrix(2, m)


def test_partition_requires_disjoint_cover():
    SubsystemPartition(3, {"A": (0,), "B": (1, 2)})
    with pytest.raises(StateValidationError):
        SubsystemPartition(3, {"A": (0,), "B": (0, 1, 2)})
    with pytest.raises(StateValidationError):
        SubsystemPartition(3, {"A": (0,), "B": (1,)})
    with pytest.raises(StateValidationError):
        SubsystemPartition(2, {"left": (0,), "B": (1,)})


@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("constructor", [noisy_ghz, noisy_w,
                                         lambda p: noise_model_state(p, 0.9, 0.8)])
def test_constructor_invariants(constructor, p):
    rho = constructor(p)
    m = np.asarray(rho.entries)
    assert np.abs(m - m.conj().T).max() <= 1e-10
    assert abs(np.trace(m).real - 1.0) <= 1e-10
    assert rho.eigenvalues()[0] >= -1e-9


# ---------------------------------------------------------------------------
# canonical states

def test_make_ghz_amplitude_positions():
    s = make_ghz(0, +1)
    assert np.allclose(s.amplitudes[[0, 7]], 1 / np.sqrt(2))
    s3 = make_ghz(3, -1)
    # |100> sits at index 4, its partner |011> at index 3
    assert s3.amplitudes[4] == pytest.approx(1 / np.sqrt(2))
    assert s3.amplitudes[3] == pytest.approx(-1 / np.sqrt(2))
    assert np.count_nonzero(s3.amplitudes) == 2


def test_ghz_family_orthonormal():
    family = [make_ghz(i, s) for i in range(4) for s in (+1, -1)]
    gram = np.array([[np.vdot(a.amplitudes, b.amplitudes) for b in family]
                     for a in family])
    assert np.abs(gram - np.eye(8)).max() < 1e-15


def test_make_ghz_rejects_bad_index():
    with pytest.raises(ValueError):
        make_ghz(4, +1)
    with pytest.raises(ValueError):
        make_ghz(0, 2)


def test_noisy_ghz_entries():
    assert np.allclose(noisy_ghz(0.0).entries, np.eye(8) / 8.0)
    assert np.allclose(noisy_ghz(1.0).entries, ghz3().projector().entries)
    rho = noisy_ghz(0.5)
    assert rho.entries[0, 0] == pytest.approx(0.3125)
    assert rho.entries[7, 7] == pytest.approx(0.3125)
    assert rho.entries[0, 7] == pytest.approx(0.25)


def test_noisy_ghz_rejects_out_of_range():
    with pytest.raises(ValueError):
        noisy_ghz(1.5)


def test_noisy_ghz_eigenvalues_closed_form():
    for p in P_GRID:
        w = noisy_ghz(p).eigenvalues()
        expected = np.sort(np.concatenate([np.full(7, (1 - p) / 8),
                                           [(1 + 7 * p) / 8]]))
        assert np.abs(w - expected).max() < 1e-12


def test_noise_model_error_free_limit_is_noisy_ghz():
    for p in P_GRID:
        delta = np.abs(np.asarray(noise_model_state(p, 1.0, 1.0).entries)
                       - np.asarray(noisy_ghz(p).entries)).max()
        assert delta < 1e-14


def test_noise_model_matches_explicit_matrix():
    p, q, r = 0.5, 0.9084, 0.9210
    rho = np.asarray(noise_model_state(p, q, r).entries)
    corner = p * r * (q - 0.5)
    mid_diag = 1.0 / 8.0 + (p - 4 * p * r) / 24.0
    mid_off = (1.0 - r) / 3.0 * p * (q - 0.5)
    expected = np.zeros((8, 8))
    for i in range(8):
        expected[i, i] = (1 - p) / 8 + p * r / 2 if i in (0, 7) else mid_diag
    expected[0, 7] = expected[7, 0] = corner
    for i in (1, 2, 3):
        expected[i, 7 - i] = expected[7 - i, i] = mid_off
    assert np.abs(rho - expected).max() < 1e-15
    assert corner == pytest.approx(0.18807, abs=5e-5)


def test_noise_model_zero_signal_is_white_noise():
    for q, r in [(0.1, 0.9), (0.7, 0.2)]:
        assert np.allclose(noise_model_state(0.0, q, r).entries, np.eye(8) / 8)


def test_noisy_w_matrix():
    p = 0.6
    rho = np.asarray(noisy_w(p).entries)
    assert rho[1, 2] == pytest.approx(p / 3.0)  # <001| rho |010>
    for i in (1, 2, 4):
        assert rho[i, i] == pytest.approx((3 + 5 * p) / 24.0)
    for i in (0, 3, 5, 6, 7):
        assert rho[i, i] == pytest.approx((1 - p) / 8.0)
    assert np.allclose(noisy_w(1.0).entries, w_state().projector().entries)
    assert np.allclose(noisy_w(0.0).entries, np.eye(8) / 8)


# ---------------------------------------------------------------------------
# tensor / partial trace / partial transpose

def test_tensor_identity_and_trace_multiplicativity():
    half = maximally_mixed(1)
    assert np.allclose(tensor(half, half).entries, np.eye(4) / 4)
    rng = np.random.default_rng(3)
    x = DensityMatrix(1, random_density_matrix(rng, 1))
    y = DensityMatrix(2, random_density_matrix(rng, 2))
    joint = tensor(x, y)
    assert joint.trace() == pytest.approx(x.trace() * y.trace())


def test_tensor_of_pure_projectors():
    psi, chi = bloch_state(0.3, 1.1), bloch_state(1.2, -0.4)
    product = tensor(psi.projector(), chi.projector())
    amps = np.kron(psi.amplitudes, chi.amplitudes)
    assert np.abs(product.entries - np.outer(amps, amps.conj())).max() < 1e-15


def test_partial_trace_of_product_recovers_factor():
    rng = np.random.default_rng(8)
    x = DensityMatrix(1, random_density_matrix(rng, 1))
    y = DensityMatrix(2, random_density_matrix(rng, 2))
    joint = tensor(x, y)
    back = partial_trace(joint, keep=(0,))
    assert np.abs(np.asarray(back.entries) - np.asarray(x.entries)).max() < 1e-12
    other = partial_trace(joint, keep=(1, 2))
    assert np.abs(np.asarray(other.entries) - np.asarray(y.entries)).max() < 1e-12


def test_partial_trace_of_ghz_pair():
    reduced = partial_trace(ghz3().projector(), keep=(0, 1))
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[3, 3] = 0.5
    assert np.abs(np.asarray(reduced.entries) - expected).max() < 1e-15


def test_partial_trace_matches_brute_force():
    rng = np.random.default_rng(21)
    for keep in [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]:
        rho = random_density_matrix(rng, 3)
        ours = partial_trace(DensityMatrix(3, rho), keep=keep)
        reference = brute_partial_trace(rho, 3, keep)
        assert np.abs(np.asarray(ours.entries) - reference).max() < 1e-13
        assert ours.trace() == pytest.approx(1.0)


def test_partial_trace_accepts_partition():
    part = SubsystemPartition.kept_measured(3, kept=(0, 1))
    reduced = partial_trace(noisy_ghz(0.4), part)
    assert reduced.n_qubits == 2


def test_partial_transpose_involution_and_trace_100_trials():
    rng = np.random.default_rng(42)
    for _ in range(50):
        rho = random_density_matrix(rng, 2)
        pt = partial_transpose(rho, (1,))
        assert np.abs(partial_transpose(pt, (1,)) - rho).max() < 1e-15
        assert np.trace(pt) == pytest.approx(np.trace(rho))
    for _ in range(50):
        rho = random_density_matrix(rng, 3)
        party = [(0,), (1,), (2,), (0, 2)][rng.integers(4)]
        pt = partial_transpose(rho, party)
        assert np.abs(partial_transpose(pt, party) - rho).max() < 1e-15
        assert np.trace(pt) == pytest.approx(np.trace(rho))


def test_partial_transpose_matches_brute_force():
    rng = np.random.default_rng(17)
    rho = random_density_matrix(rng, 3)
    for party in [(0,), (1,), (2,), (0, 1), (1, 2)]:
        ours = partial_transpose(rho, party)
        assert np.abs(ours - brute_partial_transpose(rho, 3, party)).max() == 0.0


def test_partial_transpose_of_product_state_stays_psd():
    rng = np.random.default_rng(4)
    prod = np.kron(random_density_matrix(rng, 1), random_density_matrix(rng, 1))
    pt = partial_transpose(prod, (1,))
    assert np.linalg.eigvalsh(pt).min() > -1e-12


def test_partial_transpose_bell_min_eigenvalue():
    pt = partial_transpose(bell_phi_plus().projector(), (1,))
    assert np.linalg.eigvalsh(pt).min() == pytest.approx(-0.5)


# ---------------------------------------------------------------------------
# projections, fidelity, local operations

def test_project_plus_on_noisy_ghz():
    p = 0.7
    state, weight = project_subsystem(noisy_ghz(p), bloch_state(np.pi / 4, 0.0),
                                      measured=(1,), normalize=True)
    bell = np.outer([1, 0, 0, 1], [1, 0, 0, 1]) / 2.0
    expected = p * bell + (1 - p) * np.eye(4) / 4.0
    assert weight == pytest.approx(0.5)
    assert np.abs(np.asarray(state.entries) - expected).max() < 1e-14


def test_project_product_state_leaves_other_factor():
    rng = np.random.default_rng(6)
    a = random_density_matrix(rng, 2)
    b = random_density_matrix(rng, 1)
    joint = DensityMatrix(3, np.kron(a, b))
    psi = bloch_state(0.9, 0.3)
    state, weight = project_subsystem(joint, psi, measured=(2,), normalize=True)
    assert np.abs(np.asarray(state.entries) - a).max() < 1e-12
    amps = np.asarray(psi.amplitudes)
    assert weight == pytest.approx(float(np.real(amps.conj() @ b @ amps)))


def test_projection_weights_resolve_identity():
    rng = np.random.default_rng(14)
    rho = DensityMatrix(3, random_density_matrix(rng, 3))
    total = 0.0
    for outcome in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
        _, weight = project_subsystem(rho, PureState(1, outcome), measured=(1,))
        total += weight
    assert total == pytest.approx(1.0)


def test_degenerate_projection_raises():
    rho = tensor(PureState(1, np.array([1.0, 0.0])).projector(),
                 maximally_mixed(1))
    psi = PureState(1, np.array([0.0, 1.0]))
    with pytest.raises(DegenerateProjectionError):
        project_subsystem(rho, psi, measured=(0,), normalize=True)


def test_fidelity_closed_forms():
    for p in P_GRID:
        assert fidelity_with_pure(noisy_ghz(p), ghz3()) == pytest.approx(
            (1 + 7 * p) / 8, abs=1e-14)
    assert fidelity_with_pure(maximally_mixed(3), w_state()) == pytest.approx(1 / 8)
    assert fidelity_with_pure(noisy_ghz(0.5), ghz3()) == pytest.approx(0.5625)


def test_fidelity_dimension_mismatch():
    with pytest.raises(ValueError):
        fidelity_with_pure(maximally_mixed(2), ghz3())


def test_apply_local_z_flips_ghz_sign():
    flipped = apply_local(ghz3().projector(), PAULI_Z, 2)
    expected = make_ghz(0, -1).projector()
    assert np.abs(np.asarray(flipped.entries) - np.asarray(expected.entries)).max() < 1e-15


def test_apply_local_identity_and_involution():
    rho = noisy_w(0.3)
    same = apply_local(rho, np.eye(2), 1)
    assert np.abs(np.asarray(same.entries) - np.asarray(rho.entries)).max() == 0.0
    twice = apply_local(apply_local(rho, PAULI_X, 1), PAULI_X, 1)
    assert np.abs(np.asarray(twice.entries) - np.asarray(rho.entries)).max() < 1e-15


def test_apply_local_rejects_bad_qubit():
    with pytest.raises(ValueError):
        apply_local(noisy_ghz(0.5), PAULI_X, 3)


# ---------------------------------------------------------------------------
# file format

def test_density_matrix_json_round_trip(tmp_path):
    rho = noise_model_state(0.36, 0.9084, 0.9210)
    path = tmp_path / "state.json"
    save_density_matrix(rho, path)
    loaded = load_density_matrix(path)
    assert loaded.n_qubits == 3
    assert np.abs(np.asarray(loaded.entries) - np.asarray(rho.entries)).max() < 1e-15


def test_density_matrix_reader_validates(tmp_path):
    doc = {"n_qubits": 1, "re": [[0.5, 0.3], [0.0, 0.5]], "im": [[0, 0], [0, 0]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(StateValidationError):
        load_density_matrix(path)
    with pytest.raises(StateValidationError):
        density_matrix_from_dict({"n_qubits": 1})
