import itertools
import json
import os
import re
import stat
import tracemalloc

import numpy as np
import pytest

from superact import (
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
from superact import certify, states
from superact.distill import analytic_distilled_noisy_ghz, distill_cnot
from superact.states import (
    PAULI_X,
    PAULI_Z,
    DegenerateProjectionError,
    StateValidationError,
    _ghz_projector,
    _symmetries,
    _w_projector,
    density_matrix_from_dict,
    density_matrix_to_dict,
)
from util import (
    brute_partial_trace,
    brute_partial_transpose,
    phased,
    random_density_matrix,
    random_x_state,
    symmetries_loop,
)

P_GRID = np.linspace(0.0, 1.0, 21)


def test_star_import_resolves_every_exported_name():
    import superact

    namespace = {}
    exec("from superact import *", namespace)
    assert sorted(superact.__all__) == sorted(
        name for name in namespace if name != "__builtins__")


# ---------------------------------------------------------------------------
# types and invariants

def test_pure_state_normalization_enforced():
    with pytest.raises(StateValidationError):
        PureState(1, np.array([1.0, 1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_pure_state_rejects_non_finite_amplitudes(bad):
    # The norm check alone passes both: abs(nan - 1) > tol is False, and
    # |inf|^2 computed in complex arithmetic has a NaN part.
    with pytest.raises(StateValidationError, match="non-finite"):
        PureState(1, [bad, 0.0])


def test_bloch_state_rejects_a_non_finite_angle():
    with pytest.raises(StateValidationError, match="non-finite"):
        bloch_state(np.nan, 0.0)


@pytest.mark.parametrize("n_qubits", [3.0, True, 0, -1, None, "3"])
def test_states_reject_a_qubit_count_that_is_not_a_positive_integer(n_qubits):
    with pytest.raises(StateValidationError,
                       match="n_qubits must be a positive integer"):
        DensityMatrix(n_qubits, np.eye(8) / 8.0)
    with pytest.raises(StateValidationError,
                       match="n_qubits must be a positive integer"):
        PureState(n_qubits, np.eye(8)[0])


def test_states_take_numpy_integer_qubit_counts():
    assert DensityMatrix(np.int64(3), np.eye(8) / 8.0).n_qubits == 3
    assert PureState(np.uint8(1), np.array([1.0, 0.0])).n_qubits == 1
    for bad in (np.eye(4) / 4.0, np.full(8, 0.125), np.ones((8, 8, 8))):
        with pytest.raises(StateValidationError, match="3 qubits"):
            DensityMatrix(3, bad)


def test_a_huge_qubit_count_is_rejected_without_forming_its_dimension():
    # 2 ** n is never formed, so the check costs the same at any count;
    # forming it took 46.7 MB at this count.
    n = 10 ** 8
    tracemalloc.start()
    try:
        for build, entries in ((DensityMatrix, np.eye(1)),
                               (PureState, np.ones(1))):
            with pytest.raises(StateValidationError, match=str(n)):
                build(n, entries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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


@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("constructor", [noisy_ghz, noisy_w,
                                         lambda p: noise_model_state(p, 0.9, 0.8)])
def test_constructor_invariants(constructor, p):
    rho = constructor(p)
    m = np.asarray(rho.entries)
    assert np.abs(m - m.conj().T).max() <= 1e-10
    assert abs(np.trace(m).real - 1.0) <= 1e-10
    assert rho.eigenvalues()[0] >= -1e-9


def _family_parameters():
    """(p, q, r) at the corners 0 and 1, mixed, and seeded at random."""
    rng = np.random.default_rng(37)
    corners = [(0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (0.0, 1.0, 0.0),
               (1.0, 0.0, 1.0)]
    return corners + [tuple(float(x) for x in rng.uniform(0.0, 1.0, 3))
                      for _ in range(24)]


_TRUSTED_FAMILIES = {
    "noisy_ghz": lambda p, q, r: noisy_ghz(p),
    "noisy_w": lambda p, q, r: noisy_w(p),
    "noise_model_state": noise_model_state,
    "analytic_distilled_noisy_ghz":
        lambda p, q, r: analytic_distilled_noisy_ghz(p),
}


@pytest.mark.parametrize("family", list(_TRUSTED_FAMILIES))
def test_trusted_families_pass_the_full_validation(family):
    # The families skip DensityMatrix's checks on the strength of their
    # construction; every result must pass them unchanged.
    for params in _family_parameters():
        rho = _TRUSTED_FAMILIES[family](*params)
        assert type(rho) is DensityMatrix, params
        assert rho.n_qubits == 3 and rho.normalized, params
        assert rho.entries.dtype == np.complex128, params
        assert not rho.entries.flags.writeable, params
        full = DensityMatrix(3, np.array(rho.entries))
        assert full.entries.tobytes() == rho.entries.tobytes(), params


@pytest.mark.parametrize("family", list(_TRUSTED_FAMILIES))
@pytest.mark.parametrize("bad", [-1e-9, 1.0 + 1e-9, np.nan, np.inf])
def test_trusted_families_reject_parameters_outside_0_1(family, bad):
    with pytest.raises(ValueError, match="outside"):
        _TRUSTED_FAMILIES[family](bad, 0.5, 0.5)
    if family == "noise_model_state":
        for params in ((0.5, bad, 0.5), (0.5, 0.5, bad)):
            with pytest.raises(ValueError, match="outside"):
                noise_model_state(*params)


def test_entry_points_still_reject_non_states(tmp_path):
    # Hermitian, unit trace, one eigenvalue -0.1: through DensityMatrix, a
    # density-matrix file and a raw array, as every user input arrives.
    bad = np.diag([0.6, 0.5, -0.1, 0.0, 0.0, 0.0, 0.0, 0.0]).astype(complex)
    with pytest.raises(StateValidationError, match="minimum eigenvalue"):
        DensityMatrix(3, bad)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n_qubits": 3, "re": bad.real.tolist(),
                                "im": bad.imag.tolist()}))
    with pytest.raises(StateValidationError, match="minimum eigenvalue"):
        load_density_matrix(path)
    for read in (certify.gme_concurrence_x, certify.sle_quantify,
                 certify.ghz_witness_expectation):
        with pytest.raises(StateValidationError, match="minimum eigenvalue"):
            read(bad)


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


def test_constant_projectors_are_built_once_and_read_only():
    # The noisy families read these instead of rebuilding and validating
    # the same projectors on every call.
    pairs = [(_ghz_projector(i, s), make_ghz(i, s)) for i in range(4)
             for s in (+1, -1)] + [(_w_projector(), w_state())]
    for cached, state in pairs:
        assert not cached.flags.writeable
        assert cached.tobytes() == state.projector().entries.tobytes()
    assert _ghz_projector(2, -1) is _ghz_projector(2, -1)
    assert _w_projector() is _w_projector()


def test_make_ghz_rejects_bad_index():
    with pytest.raises(ValueError):
        make_ghz(4, +1)
    with pytest.raises(ValueError):
        make_ghz(0, 2)


@pytest.mark.parametrize("index, sign, named", [
    (True, 1, "index"),    # would act as index 1
    (1.0, 1, "index"),     # raised a bare TypeError from tuple indexing
    (0, True, "sign"),     # would act as sign +1
    (0, 1.0, "sign"),
])
def test_make_ghz_rejects_non_integer_arguments(index, sign, named):
    with pytest.raises(ValueError, match=f"{named} must be"):
        make_ghz(index, sign)


def test_make_ghz_takes_numpy_integers():
    assert np.array_equal(make_ghz(np.int64(3), np.int8(-1)).amplitudes,
                          make_ghz(3, -1).amplitudes)


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


# Calls with qubit indices that are not integers, each with the indices its
# rejection must name.  int() would truncate each float and bool to a qubit.
_NON_INTEGER_QUBITS = {
    "partial-trace-floats": (
        lambda rho: partial_trace(rho, [0.9, 1.2]), "(0.9, 1.2)"),
    "partial-trace-one-float": (lambda rho: partial_trace(rho, 1.5), "(1.5,)"),
    "partial-transpose-float": (
        lambda rho: partial_transpose(rho, (1.5,)), "(1.5,)"),
    "negativity-bool": (
        lambda rho: certify.negativity(rho, (True,)), "(True,)"),
    "apply-local-bool": (
        lambda rho: apply_local(rho, PAULI_X, True), "(True,)"),
}


@pytest.mark.parametrize("name", list(_NON_INTEGER_QUBITS))
def test_non_integer_qubit_indices_are_rejected(name):
    call, named = _NON_INTEGER_QUBITS[name]
    with pytest.raises(ValueError, match="qubit indices must be integers, "
                       f"got {re.escape(named)}"):
        call(noisy_w(0.6))


def test_numpy_integer_qubit_indices_are_accepted():
    rho = noisy_w(0.6)
    kept = np.asarray(partial_trace(rho, (0, 2)).entries)
    for keep in (np.array([0, 2]), (np.int64(0), np.int8(2))):
        assert np.array_equal(partial_trace(rho, keep).entries, kept)
    assert np.array_equal(partial_transpose(rho, np.int32(1)),
                          partial_transpose(rho, 1))


# ---------------------------------------------------------------------------
# symmetries of a zero pattern

def _symmetry_states():
    """Every structured family, phased copies, X-shaped, random and diagonal
    states, and noisy W with one coherence of 1e-300."""
    rng = np.random.default_rng(29)
    families = {
        "noisy-ghz": noisy_ghz(0.5),
        "ghz": noisy_ghz(1.0),
        "noisy-w": noisy_w(0.6),
        "noise-model": noise_model_state(0.8, 0.9, 0.95),
        "distilled-ghz": analytic_distilled_noisy_ghz(0.3),
        "distilled-w": distill_cnot(noisy_w(0.5), noisy_w(0.5)).state,
    }
    tiny = np.array(noisy_w(0.6).entries)
    tiny[1, 6] = tiny[6, 1] = 1e-300
    return {
        **{name: np.asarray(rho.entries) for name, rho in families.items()},
        **{f"phased-{name}": phased(rho) for name, rho in families.items()},
        "random-x": random_x_state(rng),
        "random": random_density_matrix(rng, 3),
        "diagonal": np.diag(rng.uniform(0.1, 1.0, 8)).astype(complex),
        "w-with-1e-300": tiny,
    }


@pytest.mark.parametrize("name", list(_symmetry_states()))
def test_symmetries_match_the_loop_over_every_candidate(name):
    m = _symmetry_states()[name]
    found = _symmetries((m != 0).tobytes())
    assert len(found.charges) == 27 and len(found.z_strings) == 8
    charges = tuple(c for c, kept in zip(
        itertools.product((-1, 0, 1), repeat=3), found.charges) if kept)
    strings = tuple(s for s, kept in zip(
        itertools.product((0, 1), repeat=3), found.z_strings) if kept)
    assert (charges, strings) == symmetries_loop(m)
    # The zero charge and the empty Z-string are always conserved; a diagonal
    # state conserves everything, a state with no zero entry nothing more.
    assert (0, 0, 0) in charges and (0, 0, 0) in strings
    if name == "diagonal":
        assert len(charges) == 27 and len(strings) == 8
    if name == "random":
        assert len(charges) == len(strings) == 1


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


def test_density_matrix_save_writes_a_numpy_qubit_count(tmp_path):
    rho = DensityMatrix(np.int64(3), noisy_ghz(0.5).entries)
    path = tmp_path / "state.json"
    save_density_matrix(rho, path)
    loaded = load_density_matrix(path)
    assert type(json.loads(path.read_text())["n_qubits"]) is int
    assert loaded.n_qubits == 3
    assert np.array_equal(loaded.entries, rho.entries)


def test_failed_density_matrix_save_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "state.json"
    save_density_matrix(noisy_ghz(0.5), path)
    old = path.read_text()
    monkeypatch.setattr(states, "density_matrix_to_dict",
                        lambda rho: {"n_qubits": object()})
    with pytest.raises(TypeError):
        save_density_matrix(noisy_w(0.6), path)
    monkeypatch.undo()
    monkeypatch.setattr(states.os, "replace", _fail_replace)
    with pytest.raises(OSError, match="disk full"):
        save_density_matrix(noisy_w(0.6), path)
    assert path.read_text() == old
    assert [p.name for p in tmp_path.iterdir()] == ["state.json"]


@pytest.mark.parametrize("umask", [0o022, 0o002, 0o027])
def test_saved_file_gets_the_mode_of_a_plain_write(tmp_path, umask):
    # The temporary file behind the atomic write is created like a plain
    # file: 0o666 less the umask, not a private 0o600.
    old = os.umask(umask)
    try:
        save_density_matrix(noisy_ghz(0.5), tmp_path / "state.json")
        (tmp_path / "plain.json").write_text("{}")
    finally:
        os.umask(old)
    modes = {stat.S_IMODE((tmp_path / name).stat().st_mode)
             for name in ("state.json", "plain.json")}
    assert modes == {0o666 & ~umask}


def _fail_replace(src, dst):
    raise OSError("disk full")


def test_density_matrix_reader_validates(tmp_path):
    doc = {"n_qubits": 1, "re": [[0.5, 0.3], [0.0, 0.5]], "im": [[0, 0], [0, 0]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(StateValidationError):
        load_density_matrix(path)
    with pytest.raises(StateValidationError):
        density_matrix_from_dict({"n_qubits": 1})
    # The qubit count must be a JSON integer, not one that rounds to it.
    doc = density_matrix_to_dict(noisy_ghz(0.5))
    for n_qubits in (3.7, 3.0, "3", True, None, [3]):
        path.write_text(json.dumps({**doc, "n_qubits": n_qubits}))
        with pytest.raises(StateValidationError,
                           match="n_qubits must be a JSON integer"):
            load_density_matrix(path)
