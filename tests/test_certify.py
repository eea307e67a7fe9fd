import hashlib
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from superact import (
    DensityMatrix,
    bell_phi_plus,
    bloch_state,
    fidelity_with_pure,
    ghz3,
    maximally_mixed,
    noise_model_state,
    noisy_ghz,
    noisy_w,
    partial_transpose,
    project_subsystem,
    tensor,
    w_state,
)
from superact.certify import (
    SLE_SIGN_SLACK,
    NotXShapedError,
    SLEResult,
    SLEXCertificate,
    _SLEObjective,
    fidelity_from_settings,
    ghz_witness_expectation,
    gme_concurrence_arguments,
    gme_concurrence_x,
    negativity,
    sle_quantifier_at,
    sle_quantify,
    w_witness_expectation,
    x_shape_view,
)
import superact.certify as certify
from superact.distill import (
    analytic_distilled_noisy_ghz,
    distill_cnot,
    distill_tripartite,
)
from superact.states import (
    DegenerateProjectionError,
    StateValidationError,
    _CHARGES,
    _symmetries,
)
from superact.verify import verify_sle_x_certificate
from util import (
    BAD_RAW_ARRAYS,
    FAILED_LAPACK_WARNING,
    exact_epr_settings,
    exact_ghz_settings,
    mk_observable,
    phased,
    random_density_matrix,
    random_hermitian,
    random_unitary,
    random_x_state,
    failing_entry,
    x_shape_loop,
)

P_GRID = np.linspace(0.0, 1.0, 21)


def isotropic(p):
    bell = np.asarray(bell_phi_plus().projector().entries)
    return DensityMatrix(2, p * bell + (1 - p) * np.eye(4) / 4.0)


def _distilled_w(p):
    """The CNOT-distilled noisy W state, a ring state that is not X-shaped;
    its SLE threshold is noisy W's, 3/11."""
    return distill_cnot(noisy_w(p), noisy_w(p)).state


# ---------------------------------------------------------------------------
# X-shape view

def test_x_shape_view_of_noisy_ghz():
    p = 0.4
    view = x_shape_view(noisy_ghz(p))
    assert np.allclose(view.a, [(1 - p) / 8 + p / 2] + [(1 - p) / 8] * 3)
    assert np.allclose(view.b, view.a)
    assert np.allclose(view.c, [p / 2, 0, 0, 0])
    assert view.max_off_pattern_magnitude == 0.0


def test_x_shape_view_noise_model_corner():
    p, q, r = 0.5, 0.9084, 0.9210
    view = x_shape_view(noise_model_state(p, q, r))
    assert view.c[0] == pytest.approx(p * r * (q - 0.5))


def test_x_shape_view_reports_leakage():
    rng = np.random.default_rng(0)
    rho = random_density_matrix(rng, 2)
    view = x_shape_view(rho)
    assert view.max_off_pattern_magnitude > 0.0
    # the view agrees with the input on the X pattern itself
    for i in range(2):
        assert view.a[i] == pytest.approx(rho[i, i].real)
        assert view.b[i] == pytest.approx(rho[3 - i, 3 - i].real)
        assert view.c[i] == pytest.approx(rho[i, 3 - i])


def _x_shape_states():
    """X-shaped states, exact zeros off the pattern, and leaky ones, of two
    and three qubits."""
    rng = np.random.default_rng(21)
    return {
        "noisy-ghz": noisy_ghz(0.4),
        "noise-model": noise_model_state(0.5, 0.9084, 0.921),
        "distilled-ghz": analytic_distilled_noisy_ghz(0.3),
        "random-x": random_x_state(rng),
        "phased-ghz": phased(noisy_ghz(0.7)),
        "noisy-w": noisy_w(0.5),
        "distilled-w": distill_cnot(noisy_w(0.5), noisy_w(0.5)).state,
        "random-3": random_density_matrix(rng, 3),
        "random-2": random_density_matrix(rng, 2),
        "isotropic": isotropic(0.3),
    }


@pytest.mark.parametrize("name", list(_x_shape_states()))
def test_x_shape_view_matches_an_entry_loop(name):
    rho = _x_shape_states()[name]
    view = x_shape_view(rho)
    a, b, c, leakage = x_shape_loop(np.asarray(getattr(rho, "entries", rho)))
    for got, expected in ((view.a, a), (view.b, b), (view.c, c)):
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
    assert view.max_off_pattern_magnitude == leakage
    assert (leakage == 0.0) == (name in ("noisy-ghz", "noise-model",
                                         "distilled-ghz", "random-x",
                                         "phased-ghz", "isotropic"))


# ---------------------------------------------------------------------------
# GME concurrence

def test_concurrence_noisy_ghz_closed_form():
    for p in P_GRID:
        expected = 2 * max(0.0, 7 * p / 8 - 3 / 8)
        assert gme_concurrence_x(noisy_ghz(p)) == pytest.approx(expected, abs=1e-12)


def test_concurrence_boundary_three_sevenths():
    assert gme_concurrence_x(noisy_ghz(3 / 7)) == pytest.approx(0.0, abs=1e-12)
    assert gme_concurrence_x(noisy_ghz(3 / 7 + 1e-6)) > 0.0


def test_concurrence_noise_model_inner_arguments():
    args = gme_concurrence_arguments(noise_model_state(0.5, 0.9084, 0.9210))
    assert args[0] == pytest.approx(-0.0192, abs=5e-4)
    assert args[1] == pytest.approx(-0.4255, abs=5e-4)
    assert gme_concurrence_x(noise_model_state(0.5, 0.9084, 0.9210)) == 0.0
    args2 = gme_concurrence_arguments(noise_model_state(0.5, 0.9124, 0.9129))
    assert args2[0] == pytest.approx(-0.0210, abs=5e-4)
    assert args2[1] == pytest.approx(-0.4243, abs=5e-4)


def test_concurrence_distilled_closed_form():
    for p in (0.2, 0.3022, 0.31, 0.5, 0.95):
        expected = 2 / (3 * p * p + 1) * max(0.0, 2 * p * p - 3 * (1 - p) ** 2 / 8)
        actual = gme_concurrence_x(analytic_distilled_noisy_ghz(p))
        assert actual == pytest.approx(expected, abs=1e-12)
    threshold = (4 * np.sqrt(3) - 3) / 13
    assert gme_concurrence_x(analytic_distilled_noisy_ghz(threshold - 1e-4)) == 0.0
    assert gme_concurrence_x(analytic_distilled_noisy_ghz(threshold + 1e-4)) > 0.0


def test_concurrence_rejects_leaky_matrix():
    rng = np.random.default_rng(1)
    with pytest.raises(NotXShapedError) as err:
        gme_concurrence_x(random_density_matrix(rng, 3))
    assert err.value.leakage > 1e-8


# ---------------------------------------------------------------------------
# negativity and PT spectra

def test_negativity_product_state_is_zero():
    rng = np.random.default_rng(2)
    prod = np.kron(random_density_matrix(rng, 1), random_density_matrix(rng, 1))
    assert negativity(prod) == pytest.approx(0.0, abs=1e-12)


def test_negativity_bell_pair_is_one():
    assert negativity(bell_phi_plus().projector()) == pytest.approx(1.0, abs=1e-12)


def test_negativity_isotropic_boundary():
    assert negativity(isotropic(1 / 3)) == pytest.approx(0.0, abs=1e-12)
    assert negativity(isotropic(1 / 3 + 1e-3)) > 0.0
    assert negativity(isotropic(1 / 3 - 1e-3)) == pytest.approx(0.0, abs=1e-12)


def test_negativity_local_unitary_invariance():
    rng = np.random.default_rng(3)
    for _ in range(10):
        rho = random_density_matrix(rng, 2)
        base = negativity(rho, (1,))
        u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
        rotated = u @ rho @ u.conj().T
        assert negativity(rotated, (1,)) == pytest.approx(base, abs=1e-10)
    for _ in range(5):
        rho = random_density_matrix(rng, 3)
        base = negativity(rho, (1, 2))
        u = np.kron(random_unitary(rng, 2), random_unitary(rng, 4))
        rotated = u @ rho @ u.conj().T
        assert negativity(rotated, (1, 2)) == pytest.approx(base, abs=1e-10)


@pytest.mark.parametrize("bad", list(BAD_RAW_ARRAYS))
def test_negativity_rejects_bad_raw_arrays(bad):
    array, message = BAD_RAW_ARRAYS[bad]
    with pytest.raises(StateValidationError, match=message):
        negativity(array, (0,))


def _min_eig_after_pt(rho, party=(1,)) -> float:
    return float(np.linalg.eigvalsh(partial_transpose(rho, party))[0])


def test_min_eig_after_pt_values():
    assert _min_eig_after_pt(maximally_mixed(2)) == pytest.approx(0.25)
    bell = bell_phi_plus().projector()
    assert _min_eig_after_pt(bell) == pytest.approx(-0.5)


def test_min_eig_bipartition_resolution():
    bell = bell_phi_plus().projector()
    assert _min_eig_after_pt(bell, (0,)) == pytest.approx(-0.5)


# ---------------------------------------------------------------------------
# fidelity witnesses

def test_ghz_witness_values():
    assert ghz_witness_expectation(noisy_ghz(3 / 7)) == pytest.approx(0.0, abs=1e-14)
    assert ghz_witness_expectation(ghz3().projector()) == pytest.approx(-0.5)
    assert ghz_witness_expectation(maximally_mixed(3)) == pytest.approx(3 / 8)


def test_w_witness_values():
    assert w_witness_expectation(w_state().projector()) == pytest.approx(-1 / 3)
    assert w_witness_expectation(noisy_w(0.6)) > 0.0
    distilled = distill_cnot(noisy_w(0.6), noisy_w(0.6)).state
    assert w_witness_expectation(distilled) < 0.0


# ---------------------------------------------------------------------------
# fidelity estimation from settings

def test_mk_observables_are_equatorial():
    for k in range(3):
        m = mk_observable(k)
        assert np.abs(m - m.conj().T).max() < 1e-15
        assert np.linalg.eigvalsh(m) == pytest.approx([-1.0, 1.0])


def test_fidelity_from_settings_exact_states():
    assert fidelity_from_settings(
        exact_ghz_settings(ghz3().projector()), "ghz3") == pytest.approx(1.0)
    assert fidelity_from_settings(
        exact_epr_settings(bell_phi_plus().projector()), "epr") == pytest.approx(1.0)
    for p in (0.0, 0.36, 0.65, 1.0):
        f = fidelity_from_settings(exact_ghz_settings(noisy_ghz(p)), "ghz3")
        assert f == pytest.approx((1 + 7 * p) / 8, abs=1e-12)


def test_fidelity_from_settings_random_states_match_direct_fidelity():
    rng = np.random.default_rng(10)
    for _ in range(10):
        rho = DensityMatrix(3, random_density_matrix(rng, 3))
        via_settings = fidelity_from_settings(exact_ghz_settings(rho), "ghz3")
        direct = fidelity_with_pure(rho, ghz3())
        assert via_settings == pytest.approx(direct, abs=1e-12)
    for _ in range(5):
        rho = DensityMatrix(2, random_density_matrix(rng, 2))
        via_settings = fidelity_from_settings(exact_epr_settings(rho), "epr")
        direct = fidelity_with_pure(rho, bell_phi_plus())
        assert via_settings == pytest.approx(direct, abs=1e-12)


def test_fidelity_from_settings_missing_setting():
    with pytest.raises(ValueError):
        fidelity_from_settings({"population": 1.0, "m0": 1.0, "m1": -1.0}, "ghz3")
    with pytest.raises(ValueError):
        fidelity_from_settings({}, "bell")


# ---------------------------------------------------------------------------
# SLE search

def test_sle_noisy_ghz_against_closed_form():
    for p in (0.4, 0.5, 0.8):
        result = sle_quantify(noisy_ghz(p))
        trace_norm = 3 * (1 + p) / 4 + (3 * p - 1) / 4
        assert result.negativity == pytest.approx(np.log2(trace_norm),
                                                  abs=1e-9)
        assert result.theta == pytest.approx(np.pi / 4, abs=1e-12)
        # phi does not move the value here; the refinement keeps the grid's.
        assert result.phi / (2 * np.pi / 64) == pytest.approx(
            round(result.phi / (2 * np.pi / 64)), abs=1e-9)


def test_sle_noisy_ghz_boundary_one_third():
    assert sle_quantify(noisy_ghz(1 / 3)).negativity == pytest.approx(
        0.0, abs=1e-10)
    assert sle_quantify(noisy_ghz(0.3)).negativity == pytest.approx(
        0.0, abs=1e-10)
    assert sle_quantify(noisy_ghz(0.35)).negativity > 1e-4


def test_sle_negativity_just_past_the_thresholds():
    # Negativity is flat zero on the PPT region, so searching it directly
    # missed these small entangled patches; read off the minimum eigenvalue
    # (1 - 3p)/4 it is log2(1 + 1.5e-6).
    p = 1 / 3 + 1e-6
    assert sle_quantify(noisy_ghz(p)).negativity == pytest.approx(
        np.log2(1 + 1.5e-6), abs=1e-9)
    distilled = analytic_distilled_noisy_ghz((2 * np.sqrt(2) - 1) / 7 + 1e-6)
    assert sle_quantify(distilled).negativity > 0.0


def test_sle_negativity_is_exactly_zero_on_ppt_states():
    for rho in (noisy_ghz(0.3), noisy_w(0.25), noisy_ghz(0.0)):
        assert sle_quantify(rho).negativity == 0.0


def test_sle_negativity_reported_at_the_min_eigenvalue_optimum():
    # The negativity is read off the minimum eigenvalue at the search's
    # direction, and agrees with the trace-norm negativity of the pair that
    # the projection there leaves.
    for rho in (noisy_ghz(0.6), noisy_ghz(0.3), noisy_w(0.6),
                noise_model_state(0.45, 0.9084, 0.9210)):
        result = sle_quantify(rho)
        assert result.negativity == np.log2(
            1 - 2 * min(0.0, result.min_eigenvalue))
        localized, _ = project_subsystem(
            rho, bloch_state(result.theta, result.phi), 2, normalize=True)
        assert negativity(localized) == pytest.approx(result.negativity,
                                                      abs=1e-12)
    assert SLEResult(0.25, 0.0, 0.0).negativity == 0.0
    assert SLEResult(-0.5, 0.0, 0.0).negativity == 1.0


def test_sle_min_eig_variant_closed_form():
    for p in (0.2, 0.5, 0.9):
        result = sle_quantify(noisy_ghz(p))
        assert result.min_eigenvalue == pytest.approx((1 - 3 * p) / 4,
                                                      abs=1e-9)


def test_sle_distilled_threshold_region():
    threshold = (2 * np.sqrt(2) - 1) / 7
    below = sle_quantify(analytic_distilled_noisy_ghz(threshold - 0.01))
    above = sle_quantify(analytic_distilled_noisy_ghz(threshold + 0.01))
    assert below.negativity == pytest.approx(0.0, abs=1e-10)
    assert above.negativity > 1e-5


def test_sle_distilled_min_eig_matches_closed_form():
    for p in (0.2, 0.3, 0.5):
        result = sle_quantify(analytic_distilled_noisy_ghz(p))
        expected = (1 - p) ** 2 / (4 * (3 * p * p + 1)) - 2 * p * p / (3 * p * p + 1)
        assert result.min_eigenvalue == pytest.approx(expected, abs=1e-9)


def test_sle_optimizer_self_consistency():
    rho = noise_model_state(0.45, 0.9084, 0.9210)
    result = sle_quantify(rho)
    revalued = sle_quantifier_at(rho, None, result.theta, result.phi)
    assert revalued == pytest.approx(result.min_eigenvalue, abs=1e-10)
    localized, _ = project_subsystem(
        rho, bloch_state(result.theta, result.phi), 2, normalize=True)
    assert localized.normalized


def test_sle_search_beats_a_fine_grid():
    # The 64x64 grid and its see-saw refinement reach at least the minimum
    # of a 256x256 grid on states with no structure to help either.
    rng = np.random.default_rng(23)
    thetas, phis = np.meshgrid(
        np.linspace(0.0, np.pi / 2, 256),
        np.linspace(0.0, 2 * np.pi, 256, endpoint=False), indexing="ij")
    for _ in range(3):
        rho = random_density_matrix(rng, 3)
        for pair in ((0, 1), (0, 2), (1, 2)):
            fine = _SLEObjective(rho, pair).values(thetas.ravel(),
                                                   phis.ravel()).min()
            found = sle_quantify(rho, pair).min_eigenvalue
            assert found <= fine


def test_sle_pair_selection():
    # The noisy GHZ state is permutation-symmetric, so every kept pair
    # reports the same value.
    base = sle_quantify(noisy_ghz(0.6), pair=(0, 1)).negativity
    for pair in ((0, 2), (1, 2)):
        assert sle_quantify(noisy_ghz(0.6), pair=pair).negativity == (
            pytest.approx(base, abs=1e-9))


def test_sle_skips_degenerate_directions():
    # Third qubit pinned to |0>: the theta = pi/2 grid line has zero weight
    # but the search must still succeed.
    pinned = tensor(bell_phi_plus().projector(),
                    DensityMatrix(1, np.diag([1.0, 0.0]).astype(complex)))
    result = sle_quantify(pinned)
    assert result.negativity == pytest.approx(1.0, abs=1e-9)


def test_sle_all_degenerate_errors():
    with pytest.raises(DegenerateProjectionError):
        sle_quantify(np.zeros((8, 8), dtype=complex))
    with pytest.raises(DegenerateProjectionError):
        sle_quantifier_at(np.zeros((8, 8)), None, 0.3, 0.2)


@pytest.mark.parametrize("theta, phi, named", [
    (np.nan, 0.0, "theta"),
    (0.0, np.inf, "phi"),
])
def test_sle_quantifier_at_rejects_a_non_finite_angle(theta, phi, named):
    # Without the check, LAPACK warned and failed to converge instead.
    with pytest.raises(ValueError, match=f"{named} must be finite"):
        sle_quantifier_at(noisy_ghz(0.5), None, theta, phi)


def test_sle_rejects_non_states():
    # The negativity is read off the minimum eigenvalue, which needs a
    # Hermitian positive semidefinite input; any trace is accepted.
    rng = np.random.default_rng(5)
    m = random_density_matrix(rng, 3)
    skewed = m.copy()
    skewed[0, 1] += 1e-3
    negative = m - 0.5 * np.outer(np.eye(8)[3], np.eye(8)[3])
    for array, message in ((skewed, "Hermiticity"),
                           (negative, "minimum eigenvalue")):
        with pytest.raises(StateValidationError, match=message):
            sle_quantify(array)
        with pytest.raises(StateValidationError, match=message):
            sle_quantifier_at(array, None, 0.3, 0.2)
    assert sle_quantify(3.0 * m).negativity == pytest.approx(
        sle_quantify(m).negativity, abs=1e-12)


@pytest.mark.parametrize("bad", list(BAD_RAW_ARRAYS))
def test_sle_rejects_bad_raw_arrays(bad):
    array, message = BAD_RAW_ARRAYS[bad]
    with pytest.raises(StateValidationError, match=message):
        sle_quantify(array)


def test_sle_rejects_bad_pair():
    with pytest.raises(ValueError):
        sle_quantify(noisy_ghz(0.5), pair=(0, 1, 2))
    with pytest.raises(ValueError):
        sle_quantify(maximally_mixed(2))


def test_sle_rejects_a_pair_of_non_integers():
    # int() would truncate (0.7, 1.9) to the pair (0, 1).
    with pytest.raises(ValueError,
                       match=r"must be integers, got \(0\.7, 1\.9\)"):
        sle_quantify(noisy_ghz(0.5), pair=(0.7, 1.9))


def test_sle_takes_a_pair_of_numpy_integers():
    rho = noisy_w(0.6)
    assert sle_quantify(rho, pair=np.array([0, 2])) == sle_quantify(
        rho, pair=(0, 2))


def test_sle_certificate_with_a_pair_of_non_integers_fails():
    rho = noisy_ghz(0.2)
    certificate = sle_quantify(rho).certificate
    assert certificate.pair == (0, 1)
    assert verify_sle_x_certificate(certificate, rho)
    assert not verify_sle_x_certificate(replace(certificate, pair=(0.9, 1.2)),
                                        rho)


# The two readings of an SLE result, negativity and minimum eigenvalue, by
# the ids their tests are known by, and the attribute each reads.
_READINGS = {"negativity": "negativity",
             "min-eigenvalue-after-pt": "min_eigenvalue"}


def _einsum_objective(m, kept, measured, thetas, phis, reading):
    """The SLE objective as a per-point einsum over the full 8x8 matrix.

    The negativity is computed from all four eigenvalues, independently of
    the library's reading of it off the minimum eigenvalue.
    """
    perm = [kept[0], kept[1], measured]
    t4 = (m.reshape((2,) * 6).transpose(perm + [3 + i for i in perm])
          .reshape(4, 2, 4, 2))
    w = np.stack([np.cos(thetas), np.sin(thetas) * np.exp(1j * phis)], axis=1)
    projected = np.einsum("na,iajb,nb->nij", w.conj(), t4, w)
    weights = np.einsum("nii->n", projected).real
    valid = weights > 1e-14
    projected = projected / np.where(valid, weights, 1.0)[:, None, None]
    pt = projected.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(-1, 4, 4)
    eigs = np.linalg.eigvalsh(pt)
    if reading == "negativity":
        with np.errstate(divide="ignore"):
            return np.where(valid, np.log2(np.abs(eigs).sum(axis=1)), -np.inf)
    return np.where(valid, eigs[:, 0], np.inf)


@pytest.mark.parametrize("reading", list(_READINGS))
@pytest.mark.parametrize("kept", [(0, 1), (0, 2), (1, 2)])
def test_sle_objective_matches_einsum_formula(kept, reading):
    # The objective is the minimum eigenvalue; the negativity is read off
    # the value sle_quantifier_at returns at each point.
    rng = np.random.default_rng(7)
    measured = 3 - sum(kept)
    pin = np.ones(8)
    pin[[i for i in range(8) if (i >> (2 - measured)) & 1]] = 0.0
    thetas = np.concatenate([rng.uniform(0.0, np.pi / 2, 40), [np.pi / 2]])
    phis = np.concatenate([rng.uniform(0.0, 2 * np.pi, 40), [0.3]])
    for _ in range(4):
        m = random_density_matrix(rng, 3)
        # Pinning the measured qubit to |0> gives the last point (theta =
        # pi/2) vanishing weight.
        pinned = pin[:, None] * m * pin[None, :]
        for state in (m, pinned / np.trace(pinned).real):
            expected = _einsum_objective(state, kept, measured, thetas, phis,
                                         reading)
            valid = np.isfinite(expected)
            if reading == "min-eigenvalue-after-pt":
                values = _SLEObjective(state, kept).values(thetas, phis)
                assert np.array_equal(np.isfinite(values), valid)
                assert np.allclose(values, expected, rtol=0.0, atol=1e-13)
                continue
            for theta, phi, ok, want in zip(thetas, phis, valid, expected):
                if ok:
                    at = sle_quantifier_at(state, kept, theta, phi)
                    assert SLEResult(at, theta, phi).negativity == (
                        pytest.approx(want, rel=0.0, abs=1e-13))
                else:
                    with pytest.raises(DegenerateProjectionError):
                        sle_quantifier_at(state, kept, theta, phi)
    assert not valid[-1]


@pytest.mark.parametrize("reading", list(_READINGS))
def test_sle_value_matches_point_evaluation(reading):
    rng = np.random.default_rng(11)
    for _ in range(3):
        m = random_density_matrix(rng, 3)
        result = sle_quantify(m)
        at = SLEResult(sle_quantifier_at(m, None, result.theta, result.phi),
                       result.theta, result.phi)
        assert getattr(at, _READINGS[reading]) == pytest.approx(
            getattr(result, _READINGS[reading]), abs=1e-12)


@pytest.fixture
def batches(monkeypatch):
    """The sizes of the batches of exact 4x4 solves a test runs: every value
    of the SLE objective, of a grid point or of a stepped one, comes from
    ``_lowest_eigenvalues``."""
    sizes = []
    solve = certify._lowest_eigenvalues

    def recording(pairs, weights):
        sizes.append(weights.size)
        return solve(pairs, weights)

    monkeypatch.setattr(certify, "_lowest_eigenvalues", recording)
    return sizes


def _exhaustive_best(objective):
    """The first minimum of ``_SLEObjective.values`` over every point of the
    64x64 grid, theta-major."""
    thetas, phis = (axis.ravel() for axis in np.meshgrid(
        np.linspace(0.0, np.pi / 2, 64),
        np.linspace(0.0, 2 * np.pi, 64, endpoint=False), indexing="ij"))
    values = objective.values(thetas, phis)
    best = int(np.argmin(values))
    return (thetas[best], phis[best], values[best]), values


def _bits(point) -> bytes:
    return np.array(point, dtype=np.float64).tobytes()


_GRID_STATES = {
    # Ties: the phi-independent rings of noisy GHZ states, and I/8.
    "ghz-0.3": noisy_ghz(0.3),
    "ghz-1/3": noisy_ghz(1 / 3),
    "ghz-0.6": noisy_ghz(0.6),
    "ghz-1": noisy_ghz(1.0),
    "white": maximally_mixed(3),
    # The measured qubit of the default pair pinned to |0>, or to |1>, or
    # nearly so: the theta = pi/2 row, or the subgrid row theta = 0, has
    # vanishing weight.
    "pinned": tensor(isotropic(0.7),
                     DensityMatrix(1, np.diag([1.0, 0.0]).astype(complex))),
    "pinned-1": tensor(isotropic(0.2),
                       DensityMatrix(1, np.diag([0.0, 1.0]).astype(complex))),
    "nearly-pinned-1": (
        (1 - 1e-15) * np.kron(np.asarray(isotropic(0.2).entries),
                              np.diag([0.0, 1.0]))
        + 1e-15 * random_density_matrix(np.random.default_rng(43), 3)),
    "noisy-w-0.6": noisy_w(0.6),
    "distilled-w-0.5": distill_cnot(noisy_w(0.5), noisy_w(0.5)).state,
    "distilled-w-0.8": distill_cnot(noisy_w(0.8), noisy_w(0.8)).state,
    "distilled-ghz": analytic_distilled_noisy_ghz(0.3),
}


def _more_grid_states():
    rng = np.random.default_rng(41)
    states = {}
    for k in range(2):
        psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        states[f"rank-1-{k}"] = (np.outer(psi, psi.conj())
                                 / np.vdot(psi, psi).real)
        states[f"product-{k}"] = np.kron(np.kron(
            random_density_matrix(rng, 1), random_density_matrix(rng, 1)),
            random_density_matrix(rng, 1))
        states[f"near-white-{k}"] = (1e-6 * random_density_matrix(rng, 3)
                                     + (1 - 1e-6) * np.eye(8) / 8)
        states[f"random-{k}"] = random_density_matrix(rng, 3)
    return states


_GRID_STATES.update(_more_grid_states())


def _x_shaped_states():
    """X-shaped states: noisy GHZ over a p grid, noise-model, distilled-GHZ
    and random X-shaped states.  ``sle_quantify`` takes them in closed form;
    the grid search is checked on them directly."""
    rng = np.random.default_rng(23)
    states = {f"ghz-{p:.3f}": noisy_ghz(p)
              for p in np.append(np.linspace(0.0, 1.0, 41), 1 / 3)}
    for k, (p, q, r) in enumerate(rng.uniform(0.0, 1.0, (20, 3))):
        states[f"noise-model-{k}"] = noise_model_state(p, q, r)
    states["noise-model-corner"] = noise_model_state(0.8, 0.9, 0.95)
    for p in np.linspace(0.0, 1.0, 15):
        states[f"distilled-ghz-{p:.3f}"] = analytic_distilled_noisy_ghz(p)
    for k in range(25):
        states[f"random-x-{k}"] = random_x_state(rng)
    return states


_X_SHAPED_STATES = _x_shaped_states()
_GRID_STATES.update(_X_SHAPED_STATES)


@pytest.mark.parametrize("name", list(_GRID_STATES))
def test_sle_grid_search_is_the_exhaustive_argmin_bit_for_bit(name):
    rho = _GRID_STATES[name]
    for pair in ((0, 1), (0, 2), (1, 2)):
        objective = _SLEObjective(rho, pair)
        expected, values = _exhaustive_best(objective)
        search = certify._GridSearch(objective)
        lower = search._lower_bounds(search.weights)
        assert _bits(search.best()) == _bits(expected)
        # Every bound, less its slack, lies below the exact value.
        assert not np.any(lower > values)
        # A point is skipped only for a bound above the best value, and
        # every solved value is the exhaustive one.
        solved = np.isfinite(search.values)
        assert np.array_equal(search.values[solved], values[solved])
        assert np.all(solved | (lower > expected[2]) | ~np.isfinite(values))


@pytest.mark.parametrize("scale", [0.0, 1e-9, 1e-5, 1e-2, 0.3, 3.0])
def test_sle_lower_bound_never_exceeds_the_lowest_eigenvalue(scale):
    rng = np.random.default_rng(int(1e3 * scale) + 5)
    eye = np.eye(4)
    cases = [random_hermitian(rng, 4) for _ in range(150)]
    # Degenerate lowest eigenvalues, and a multiple of the identity.
    u = random_unitary(rng, 4)
    cases += [u @ np.diag([0.1, 0.1, 0.5, 0.9]) @ u.conj().T, 0.25 * eye]
    for a in cases:
        e = scale * random_hermitian(rng, 4)
        lam, vec = np.linalg.eigh(a)
        v = vec[:, 0]
        mean = np.trace(e).real / 4
        spread = np.linalg.norm(e - mean * eye) / 2
        ev = e @ v
        along = np.vdot(v, ev).real
        across = np.sum(np.abs(vec[:, 1:].conj().T @ ev) ** 2)
        bound = certify._lower_bound(lam, mean, spread, along, across)
        exact = np.linalg.eigvalsh(a + e)[0]
        assert bound <= exact
        if 0.0 < scale <= 1e-5 and lam[1] - lam[0] > 0.1:
            # Second order: far closer than the first-order ||E||.
            assert exact - bound <= 1e-8


@pytest.mark.parametrize("rho,first,budget", [
    (noisy_w(0.6), 64, 1024),
], ids=["noisy-w"])
def test_sle_default_search_solves_a_fraction_of_the_grid(rho, first, budget,
                                                          batches):
    # Measured when this budget was set: 120 solves on the grid for noisy
    # W, whose bounds go through the subgrid (first the 64 subgrid points),
    # against 4096 for the exhaustive grid; then one per see-saw step.
    # X-shaped states take the closed form and solve no grid point.
    sle_quantify(rho)
    assert batches[0] == first
    assert sum(batches) <= budget


def test_sle_seesaw_step_never_increases_the_value():
    rng = np.random.default_rng(17)
    for _ in range(4):
        rho = random_density_matrix(rng, 3)
        for pair in ((0, 1), (0, 2), (1, 2)):
            objective = _SLEObjective(rho, pair)
            thetas = rng.uniform(0.0, np.pi / 2.0, 8)
            phis = rng.uniform(0.0, 2.0 * np.pi, 8)
            for theta, phi in zip(thetas, phis):
                start = objective.values(np.array([theta]), np.array([phi]))[0]
                step = objective.seesaw_step(theta, phi)
                after = objective.values(step[:1], step[1:])[0]
                assert after <= start + 1e-15


def test_sle_seesaw_step_skipped_on_a_singular_weight_form(batches):
    # The measured qubit pinned to |0>: the weight form R = diag(1, 0) is
    # singular, so the step is skipped.
    pinned = tensor(isotropic(0.2),
                    DensityMatrix(1, np.diag([1.0, 0.0]).astype(complex)))
    assert _SLEObjective(pinned, None).seesaw_step(0.3, 0.2) is None
    sle_quantify(pinned)
    # The objective is constant wherever the weight is nonzero, so no bound
    # rules a point out.  The state is not X-shaped, since its coherence
    # joins |000> and |110>, so the search solves the subgrid, then every
    # other point but the zero-weight theta = pi/2 row.
    assert batches == [64, 64 * 64 - 64 - 64]


@pytest.mark.parametrize("pair", [(0, 1), (0, 2), (1, 2)])
@pytest.mark.parametrize("rho,kind", [
    (noisy_ghz(1 / 3 - 1e-4), SLEXCertificate),
    (analytic_distilled_noisy_ghz((2 * np.sqrt(2) - 1) / 7 - 1e-4),
     SLEXCertificate),
    (noisy_w(3 / 11 - 1e-4), None),
    (_distilled_w(3 / 11 - 1e-4), None),
], ids=["ghz", "distilled-ghz", "w", "distilled-w"])
def test_sle_certificate_just_below_the_thresholds(rho, kind, pair):
    # Just below the paper's thresholds the optimum is positive.  On the
    # X-shaped GHZ states the closed form proves that no projection leaves
    # an NPT pair; the W states are not X-shaped, and their grid search
    # carries no certificate.
    result = sle_quantify(rho, pair)
    assert 0.0 < result.min_eigenvalue
    if kind is None:
        assert result.certificate is None
    else:
        assert result.certificate == kind(pair)
        assert verify_sle_x_certificate(result.certificate, rho)


@pytest.mark.parametrize("pair", [(0, 1), (0, 2), (1, 2)])
def test_sle_certificate_none_at_and_past_the_threshold(pair):
    # Past 1/3 some projection leaves an NPT pair; at 1/3 the optimum is
    # zero to rounding, inside the slack, so neither takes a certificate.
    past = sle_quantify(noisy_ghz(1 / 3 + 1e-6), pair)
    assert past.certificate is None and past.min_eigenvalue < -SLE_SIGN_SLACK
    at = sle_quantify(noisy_ghz(1 / 3), pair)
    assert at.certificate is None


def _pinned_sle_states():
    """Fifteen states: noisy GHZ below, at and past its SLE threshold,
    noisy W, a noise-model state, distilled GHZ and CNOT-distilled W, and
    seeded random states, general and X-shaped."""
    rng = np.random.default_rng(11)
    states = [noisy_ghz(p) for p in (0.0, 0.3, 1 / 3, 0.5, 0.9)]
    states += [noisy_w(0.2), noisy_w(0.6),
               noise_model_state(0.45, 0.9084, 0.921),
               analytic_distilled_noisy_ghz(0.3),
               distill_cnot(noisy_w(0.5), noisy_w(0.5)).state]
    states += [random_density_matrix(rng, 3) for _ in range(3)]
    states += [random_x_state(rng) for _ in range(2)]
    return states


# Recorded with the search that reported either quantifier; it depends on
# the NumPy/LAPACK build, so another build may need it recorded again.
_PINNED_SLE_DIGEST = (
    "a14ff83d3586a3a14f08d28cb1cf131f9633c54ccfbc46a83446f5fdc689e794")


def test_pinned_sle_searches_are_bit_identical():
    # (lambda_min, theta, phi) by their exact repr, and the certificate's
    # repr, of 45 searches: every kept pair.
    digest = hashlib.sha256()
    searches = 0
    for rho in _pinned_sle_states():
        for pair in ((0, 1), (0, 2), (1, 2)):
            result = sle_quantify(rho, pair)
            digest.update(repr((result.min_eigenvalue, result.theta,
                                result.phi)).encode())
            certificate = result.certificate
            digest.update(b"None" if certificate is None
                          else repr(certificate).encode())
            searches += 1
    assert searches == 45
    assert digest.hexdigest() == _PINNED_SLE_DIGEST


@pytest.mark.parametrize("rho", [
    noisy_w(0.4), noisy_ghz(0.4), analytic_distilled_noisy_ghz(0.3),
    distill_cnot(noisy_w(0.5), noisy_w(0.5)).state,
], ids=["noisy-w", "noisy-ghz", "distilled-ghz", "distilled-w"])
def test_sle_objective_of_a_ring_state_does_not_depend_on_phi(rho):
    rng = np.random.default_rng(9)
    thetas = rng.uniform(0.0, np.pi / 2, 30)
    for pair in ((0, 1), (0, 2), (1, 2)):
        objective = _SLEObjective(rho, pair)
        # A conserved charge with 1 on the measured qubit: a phase on that
        # qubit is undone by diagonal phases on the kept pair, which leave
        # the lowest eigenvalue after partial transposition unchanged.
        conserved = np.array(
            _symmetries((objective.entries != 0).tobytes()).charges)
        assert (_CHARGES[conserved, objective.measured] == 1).any()
        assert np.allclose(objective.values(thetas, rng.uniform(0, 7, 30)),
                           objective.values(thetas, np.zeros(30)),
                           rtol=0.0, atol=1e-14)


def _x_shaped_objective(rho, pair, theta, phi) -> float:
    """The SLE objective of an X-shaped state: the lower eigenvalue of two
    2x2 blocks over the projection's weight.

    Projecting the measured qubit leaves an X-shaped pair M with diagonal
    d(a, b) and anti-diagonal M[ab, a'b'] (a' = 1 - a); transposing b
    keeps it X-shaped, with blocks {00, 11} (coupled by M[01, 10]) and
    {01, 10} (coupled by M[00, 11]).
    """
    m = np.asarray(getattr(rho, "entries", rho))
    measured = 3 - sum(pair)

    def index(i, a, b):
        bits = [0, 0, 0]
        bits[measured], bits[pair[0]], bits[pair[1]] = i, a, b
        return 4 * bits[0] + 2 * bits[1] + bits[2]

    c, s = np.cos(theta), np.sin(theta)

    def d(a, b):
        return (c * c * m[index(0, a, b), index(0, a, b)].real
                + s * s * m[index(1, a, b), index(1, a, b)].real)

    def anti(a, b):
        row0, row1 = index(0, a, b), index(1, a, b)
        col0, col1 = index(0, 1 - a, 1 - b), index(1, 1 - a, 1 - b)
        return c * s * (np.exp(1j * phi) * m[row0, col1]
                        + np.exp(-1j * phi) * m[row1, col0])

    lows = [(p + q) / 2 - np.hypot((p - q) / 2, abs(off))
            for p, q, off in ((d(0, 0), d(1, 1), anti(0, 1)),
                              (d(0, 1), d(1, 0), anti(0, 0)))]
    return np.minimum(*lows) / sum(d(a, b) for a in (0, 1) for b in (0, 1))


@pytest.mark.parametrize("rho", [
    noisy_ghz(0.2), noisy_ghz(0.6), noise_model_state(0.45, 0.9084, 0.9210),
    noise_model_state(0.8, 0.9, 0.7), analytic_distilled_noisy_ghz(0.3),
    analytic_distilled_noisy_ghz(0.7),
], ids=["ghz-0.2", "ghz-0.6", "noise-model-a", "noise-model-b",
        "distilled-ghz-0.3", "distilled-ghz-0.7"])
def test_sle_objective_matches_the_x_shaped_closed_form(rho):
    assert x_shape_view(rho).max_off_pattern_magnitude == 0.0
    rng = np.random.default_rng(13)
    thetas = rng.uniform(0.0, np.pi / 2, 25)
    phis = rng.uniform(0.0, 2 * np.pi, 25)
    for pair in ((0, 1), (0, 2), (1, 2)):
        values = _SLEObjective(rho, pair).values(thetas, phis)
        expected = [_x_shaped_objective(rho, pair, t, f)
                    for t, f in zip(thetas, phis)]
        assert np.allclose(values, expected, rtol=0.0, atol=1e-15)


def _refuse_the_grid(monkeypatch):
    """Make the grid search and every eigensolve of ``certify`` raise, so
    that only the closed form can answer."""
    def refuse(*args):
        raise AssertionError("the search left the closed form")

    for entry in ("_GridSearch", "_eigvalsh", "_eigh"):
        monkeypatch.setattr(certify, entry, refuse)


@pytest.mark.parametrize("pair", [(0, 1), (0, 2), (1, 2)])
def test_sle_sectors_of_each_family(pair, monkeypatch):
    # An X-shaped pair splits into the sectors {00, 11} and {01, 10}, and
    # its search takes their closed form: it builds no grid and solves no
    # eigenproblem.  W-type and general states take the grid.
    _refuse_the_grid(monkeypatch)
    for rho in _X_SHAPED_STATES.values():
        sle_quantify(rho, pair)
    for rho in (noisy_w(0.6), _distilled_w(0.5),
                random_density_matrix(np.random.default_rng(4), 3)):
        with pytest.raises(AssertionError, match="left the closed form"):
            sle_quantify(rho, pair)


@pytest.mark.parametrize("pair", [(0, 1), (0, 2), (1, 2)])
@pytest.mark.parametrize("rho", [
    noisy_ghz(0.6), noise_model_state(0.8, 0.9, 0.95),
], ids=["noisy-ghz", "noise-model"])
def test_sle_sectors_are_read_from_exact_zeros(rho, pair, monkeypatch):
    # One entry of 1e-300 joining |000> with the state whose second kept
    # qubit is flipped lies off the X pattern: the rule reads exact zeros,
    # so the search takes the grid, which finds the exhaustive point.
    m = np.array(rho.entries)
    flipped = 1 << (2 - pair[1])
    m[0, flipped] = m[flipped, 0] = 1e-300
    leaky = DensityMatrix(3, m)
    objective = _SLEObjective(leaky, pair)
    assert _bits(certify._GridSearch(objective).best()) == _bits(
        _exhaustive_best(objective)[0])
    _refuse_the_grid(monkeypatch)
    sle_quantify(rho, pair)
    with pytest.raises(AssertionError, match="left the closed form"):
        sle_quantify(leaky, pair)


@pytest.mark.parametrize("pair", [(0, 1), (0, 2), (1, 2)])
def test_sle_sector_closed_form_matches_the_x_shaped_oracle(pair):
    # The closed form lies at or below the X-shaped objective's minimum over
    # a fine (theta, phi) grid, and the objective takes that value at the
    # printed direction.
    thetas, phis = (axis.ravel() for axis in np.meshgrid(
        np.linspace(0.0, np.pi / 2, 161),
        np.linspace(0.0, 2 * np.pi, 160, endpoint=False), indexing="ij"))
    for name, rho in _X_SHAPED_STATES.items():
        result = sle_quantify(rho, pair)
        fine = _x_shaped_objective(rho, pair, thetas, phis).min()
        assert result.min_eigenvalue <= fine + 1e-14, name
        assert _x_shaped_objective(
            rho, pair, result.theta, result.phi) == pytest.approx(
                result.min_eigenvalue, rel=0.0, abs=1e-14), name


def _x_certificate_cases():
    """180 X-shaped cases: every kept pair of noisy GHZ, noise-model and
    distilled GHZ states around their thresholds, and of 40 random X-shaped
    states."""
    rng = np.random.default_rng(5)
    states = [noisy_ghz(p) for p in (0.0, 0.1, 0.3, 1 / 3, 0.34, 0.5, 0.8, 1.0)]
    states += [noise_model_state(p, q, r)
               for q, r in ((0.9084, 0.921), (0.93, 0.88))
               for p in (0.2, 0.45, 0.7, 0.9)]
    states += [analytic_distilled_noisy_ghz(p) for p in (0.1, 0.25, 0.3, 0.6)]
    states += [random_x_state(rng) for _ in range(40)]
    return [(rho, pair) for rho in states for pair in ((0, 1), (0, 2), (1, 2))]


def test_sle_closed_form_certifies_the_sign_on_x_shaped_states():
    # The closed form sets the certificate of a value above the slack,
    # which the verifier accepts.  A negative value's direction re-checks
    # below -slack at one point.
    cases = _x_certificate_cases()
    assert len(cases) == 180
    certified = negative = 0
    for rho, pair in cases:
        result = sle_quantify(rho, pair)
        if result.min_eigenvalue > SLE_SIGN_SLACK:
            assert result.certificate == SLEXCertificate(pair)
            assert verify_sle_x_certificate(result.certificate, rho)
            certified += 1
        else:
            assert result.certificate is None
        if result.min_eigenvalue < -SLE_SIGN_SLACK:
            assert sle_quantifier_at(rho, pair, result.theta,
                                     result.phi) < -SLE_SIGN_SLACK
            negative += 1
    # Noisy GHZ at 1/3 reads zero to rounding, inside the slack.
    assert (certified, negative) == (68, 109)


def test_verify_sle_x_certificate_rejects_forgeries():
    rho = noisy_ghz(0.3)
    certificate = sle_quantify(rho).certificate
    assert certificate == SLEXCertificate((0, 1))
    assert verify_sle_x_certificate(certificate, rho)
    assert verify_sle_x_certificate(SLEXCertificate(np.array([0, 1])), rho)
    # The pair is read through one rule: not two distinct qubits, not
    # integers, malformed or missing all fail.
    for pair in ((0, 0), (0, 1, 2), (0, 5), (0.9, 1.2), (False, True),
                 [(0, 1)], "ab", None):
        assert not verify_sle_x_certificate(SLEXCertificate(pair), rho), pair
    assert not verify_sle_x_certificate(SimpleNamespace(), rho)
    # One off-X entry of 1e-300: the sectors no longer split.
    leaky = np.array(rho.entries)
    leaky[0, 1] = leaky[1, 0] = 1e-300
    assert not verify_sle_x_certificate(certificate, leaky)
    # Past the threshold the closed form is negative, and at it zero to
    # rounding, inside the slack.
    for state in (noisy_ghz(0.5), noisy_ghz(1 / 3)):
        assert sle_quantify(state).min_eigenvalue <= SLE_SIGN_SLACK
        assert not verify_sle_x_certificate(certificate, state)
    # Populations on |00>|i> and |11>|i> alone leave the pair's sector
    # {01, 10} empty at both poles, and so the value zero: that sector's
    # determinant, (s w)^2, is positive, and only its diagonal less s w
    # shows the value inside the slack.
    empty = np.diag([0.25, 0.25, 0, 0, 0, 0, 0.25, 0.25]).astype(complex)
    assert sle_quantify(empty).min_eigenvalue == 0.0
    assert not verify_sle_x_certificate(certificate, empty)
    # On an asymmetric random X state, pair (0, 1) has no SLE and pair
    # (0, 2) has: the certificate of one pair proves nothing for the other.
    asymmetric = random_x_state(np.random.default_rng(6))
    found = sle_quantify(asymmetric, (0, 1)).certificate
    assert found == SLEXCertificate((0, 1))
    assert verify_sle_x_certificate(found, asymmetric)
    assert sle_quantify(asymmetric, (0, 2)).min_eigenvalue < -SLE_SIGN_SLACK
    assert not verify_sle_x_certificate(replace(found, pair=(0, 2)),
                                        asymmetric)


def test_verify_sle_x_certificate_accepts_where_the_oracle_clears_the_slack():
    # On random X states the check accepts a pair exactly where the
    # X-shaped objective's minimum over a fine (theta, phi) grid lies above
    # the slack, and so never where the grid finds a negative value.
    thetas, phis = (axis.ravel() for axis in np.meshgrid(
        np.linspace(0.0, np.pi / 2, 161),
        np.linspace(0.0, 2 * np.pi, 160, endpoint=False), indexing="ij"))
    rng = np.random.default_rng(37)
    accepted = []
    for _ in range(40):
        rho = random_x_state(rng)
        for pair in ((0, 1), (0, 2), (1, 2)):
            fine = _x_shaped_objective(rho, pair, thetas, phis).min()
            accepts = verify_sle_x_certificate(SLEXCertificate(pair), rho)
            assert accepts == (fine > SLE_SIGN_SLACK), pair
            accepted.append(accepts)
    assert accepted.count(True) == 50 and accepted.count(False) == 70


_NON_STATES = {
    "non-Hermitian": "Hermiticity",
    "non-PSD": "minimum eigenvalue",
}


def _non_state(kind: str, n_qubits: int) -> np.ndarray:
    m = random_density_matrix(np.random.default_rng(7), n_qubits)
    if kind == "non-Hermitian":
        m[0, 1] += 1e-3
    else:
        m[1, 1] -= 0.5
    return m


_STATE_READERS = {
    "x_shape_view": x_shape_view,
    "ghz_witness_expectation": ghz_witness_expectation,
    "w_witness_expectation": w_witness_expectation,
    "gme_concurrence_arguments": gme_concurrence_arguments,
    "gme_concurrence_x": gme_concurrence_x,
}


@pytest.mark.parametrize("kind", list(_NON_STATES))
@pytest.mark.parametrize("entry", [
    lambda m: negativity(m, (0,)),
    lambda m: distill_cnot(m, m),
    lambda m: distill_tripartite(m, m),
    *_STATE_READERS.values(),
], ids=["negativity", "distill_cnot",
        "distill_tripartite", *_STATE_READERS])
def test_entry_points_reject_raw_non_states(entry, kind):
    with pytest.raises(StateValidationError, match=_NON_STATES[kind]):
        entry(_non_state(kind, 3))


@pytest.mark.parametrize("bad", list(BAD_RAW_ARRAYS))
@pytest.mark.parametrize("reader", list(_STATE_READERS))
def test_witnesses_and_concurrence_reject_bad_raw_arrays(reader, bad):
    array, message = BAD_RAW_ARRAYS[bad]
    with pytest.raises(StateValidationError, match=message):
        _STATE_READERS[reader](array)


@pytest.mark.parametrize("reader", list(_STATE_READERS))
def test_witnesses_and_concurrence_reject_an_x_shaped_non_psd_array(reader):
    # X-shaped, so the concurrence formula alone would accept it.
    m = np.array(noisy_ghz(0.5).entries)
    m[3, 3] -= 0.2
    m[4, 4] += 0.2
    with pytest.raises(StateValidationError, match="minimum eigenvalue"):
        _STATE_READERS[reader](m)


def test_density_matrix_inputs_are_not_validated_again(monkeypatch):
    rho = noisy_ghz(0.3)
    certificate = sle_quantify(rho).certificate
    built = []
    monkeypatch.setattr(DensityMatrix, "__post_init__",
                        lambda self: built.append(self))
    negativity(rho, (0,))
    assert verify_sle_x_certificate(certificate, rho)
    for reader in _STATE_READERS.values():
        reader(rho)
    assert built == []
    negativity(np.asarray(rho.entries), (0,))
    assert len(built) == 1


# Each search path of the grid, with an entry it calls: the grid's exact
# values and the subgrid's bounds, and the see-saw steps from the grid's
# best point.
_FAILED_SEARCHES = {
    "grid-values": ("_eigvalsh", random_density_matrix(
        np.random.default_rng(5), 3)),
    "grid-bounds-and-seesaw": ("_eigh", random_density_matrix(
        np.random.default_rng(5), 3)),
    "seesaw": ("_eigh", noisy_w(0.4)),
}


@pytest.mark.filterwarnings(FAILED_LAPACK_WARNING)
@pytest.mark.parametrize("name", list(_FAILED_SEARCHES))
def test_failed_lapack_call_raises_from_sle_quantify(monkeypatch, name):
    # A failed call returns NaN; the search's result must raise
    # LinAlgError, never return a NaN value or a sign (see "LAPACK entry"
    # in states).
    entry, rho = _FAILED_SEARCHES[name]
    working = getattr(certify, entry)
    failing = failing_entry(working)

    def patched(a):
        # The subgrid's eigensolve is one batch and a see-saw step's are
        # single matrices; the see-saw case fails only the single ones.
        return working(a) if name == "seesaw" and a.ndim > 2 else failing(a)

    monkeypatch.setattr(certify, entry, patched)
    with pytest.raises(np.linalg.LinAlgError):
        sle_quantify(rho)


@pytest.mark.filterwarnings(FAILED_LAPACK_WARNING)
def test_failed_lapack_call_raises_from_the_one_point_quantities(monkeypatch):
    monkeypatch.setattr(certify, "_eigvalsh",
                        failing_entry(certify._eigvalsh))
    with pytest.raises(np.linalg.LinAlgError):
        sle_quantifier_at(noisy_w(0.3), None, 0.0, 0.0)
    with pytest.raises(np.linalg.LinAlgError):
        negativity(noisy_w(0.3), (0,))
