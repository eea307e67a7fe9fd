import numpy as np
import pytest

from superact import (
    DensityMatrix,
    SubsystemPartition,
    bell_phi_plus,
    fidelity_with_pure,
    ghz3,
    maximally_mixed,
    noise_model_state,
    noisy_ghz,
    noisy_w,
    tensor,
    w_state,
)
from superact.certify import (
    QUANTIFIER_MIN_EIGENVALUE,
    QUANTIFIER_NEGATIVITY,
    NotXShapedError,
    _SLEObjective,
    exact_epr_settings,
    exact_ghz_settings,
    fidelity_from_settings,
    ghz_witness_expectation,
    gme_concurrence_arguments,
    gme_concurrence_x,
    min_eig_after_pt,
    mk_observable,
    negativity,
    sle_quantifier_at,
    sle_quantify,
    w_witness_expectation,
    x_shape_view,
)
from superact.distill import analytic_distilled_noisy_ghz, distill_cnot
from superact.states import DegenerateProjectionError, StateValidationError
from util import BAD_RAW_ARRAYS, random_density_matrix, random_unitary

P_GRID = np.linspace(0.0, 1.0, 21)


def isotropic(p):
    bell = np.asarray(bell_phi_plus().projector().entries)
    return DensityMatrix(2, p * bell + (1 - p) * np.eye(4) / 4.0)


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
    # reconstruction agrees with the input on the X pattern itself
    rebuilt = view.reconstruct()
    for i in range(4):
        assert rebuilt[i, i] == pytest.approx(rho[i, i].real)
        assert rebuilt[i, 3 - i] == pytest.approx(rho[i, 3 - i])


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
        part = SubsystemPartition(3, {"A": (0,), "B": (1, 2)})
        base = negativity(rho, part)
        u = np.kron(random_unitary(rng, 2), random_unitary(rng, 4))
        rotated = u @ rho @ u.conj().T
        assert negativity(rotated, part) == pytest.approx(base, abs=1e-10)


@pytest.mark.parametrize("bad", list(BAD_RAW_ARRAYS))
def test_negativity_rejects_bad_raw_arrays(bad):
    array, message = BAD_RAW_ARRAYS[bad]
    with pytest.raises(StateValidationError, match=message):
        negativity(array, (0,))


def test_min_eig_after_pt_values():
    assert min_eig_after_pt(maximally_mixed(2)) == pytest.approx(0.25)
    assert min_eig_after_pt(bell_phi_plus().projector()) == pytest.approx(-0.5)


def test_min_eig_bipartition_resolution():
    part = SubsystemPartition(2, {"A": (0,), "B": (1,)})
    assert min_eig_after_pt(bell_phi_plus().projector(), part) == pytest.approx(-0.5)


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
        assert result.value == pytest.approx(np.log2(trace_norm), abs=1e-9)
        assert result.theta == pytest.approx(np.pi / 4, abs=1e-4)


def test_sle_noisy_ghz_boundary_one_third():
    assert sle_quantify(noisy_ghz(1 / 3)).value == pytest.approx(0.0, abs=1e-10)
    assert sle_quantify(noisy_ghz(0.3)).value == pytest.approx(0.0, abs=1e-10)
    assert sle_quantify(noisy_ghz(0.35)).value > 1e-4


def test_sle_min_eig_variant_closed_form():
    for p in (0.2, 0.5, 0.9):
        result = sle_quantify(noisy_ghz(p), quantifier=QUANTIFIER_MIN_EIGENVALUE)
        assert result.value == pytest.approx((1 - 3 * p) / 4, abs=1e-9)


def test_sle_distilled_threshold_region():
    threshold = (2 * np.sqrt(2) - 1) / 7
    below = sle_quantify(analytic_distilled_noisy_ghz(threshold - 0.01))
    above = sle_quantify(analytic_distilled_noisy_ghz(threshold + 0.01))
    assert below.value == pytest.approx(0.0, abs=1e-10)
    assert above.value > 1e-5


def test_sle_distilled_min_eig_matches_closed_form():
    for p in (0.2, 0.3, 0.5):
        result = sle_quantify(analytic_distilled_noisy_ghz(p),
                              quantifier=QUANTIFIER_MIN_EIGENVALUE)
        expected = (1 - p) ** 2 / (4 * (3 * p * p + 1)) - 2 * p * p / (3 * p * p + 1)
        assert result.value == pytest.approx(expected, abs=1e-9)


def test_sle_optimizer_self_consistency():
    for quantifier in (QUANTIFIER_NEGATIVITY, QUANTIFIER_MIN_EIGENVALUE):
        result = sle_quantify(noise_model_state(0.45, 0.9084, 0.9210),
                              quantifier=quantifier)
        revalued = sle_quantifier_at(noise_model_state(0.45, 0.9084, 0.9210),
                                     None, result.theta, result.phi, quantifier)
        assert revalued == pytest.approx(result.value, abs=1e-10)
        assert result.localized_state.normalized


def test_sle_pair_selection():
    # The noisy GHZ state is permutation-symmetric, so every kept pair
    # reports the same value.
    base = sle_quantify(noisy_ghz(0.6), pair=(0, 1)).value
    for pair in ((0, 2), (1, 2)):
        assert sle_quantify(noisy_ghz(0.6), pair=pair).value == pytest.approx(
            base, abs=1e-9)
    part = SubsystemPartition(3, {"A": (0,), "B": (2,), "measured": (1,)})
    assert sle_quantify(noisy_ghz(0.6), pair=part).value == pytest.approx(
        base, abs=1e-9)


def test_sle_skips_degenerate_directions():
    # Third qubit pinned to |0>: the theta = pi/2 grid line has zero weight
    # but the search must still succeed.
    pinned = tensor(bell_phi_plus().projector(),
                    DensityMatrix(1, np.diag([1.0, 0.0]).astype(complex)))
    result = sle_quantify(pinned)
    assert result.value == pytest.approx(1.0, abs=1e-9)


def test_sle_all_degenerate_errors():
    with pytest.raises(DegenerateProjectionError):
        sle_quantify(np.zeros((8, 8), dtype=complex))


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


def _einsum_objective(m, kept, measured, thetas, phis, quantifier):
    """The SLE objective as a per-point einsum over the full 8x8 matrix."""
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
    if quantifier == QUANTIFIER_NEGATIVITY:
        with np.errstate(divide="ignore"):
            return np.where(valid, np.log2(np.abs(eigs).sum(axis=1)), -np.inf)
    return np.where(valid, eigs[:, 0], np.inf)


@pytest.mark.parametrize("quantifier", [QUANTIFIER_NEGATIVITY,
                                        QUANTIFIER_MIN_EIGENVALUE])
@pytest.mark.parametrize("kept", [(0, 1), (0, 2), (1, 2)])
def test_sle_objective_matches_einsum_formula(kept, quantifier):
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
            values, valid = _SLEObjective(state, kept, quantifier).values(
                thetas, phis)
            expected = _einsum_objective(state, kept, measured, thetas, phis,
                                         quantifier)
            assert np.array_equal(valid, np.isfinite(expected))
            assert np.allclose(values, expected, rtol=0.0, atol=1e-13)
    assert not valid[-1]


@pytest.mark.parametrize("quantifier", [QUANTIFIER_NEGATIVITY,
                                        QUANTIFIER_MIN_EIGENVALUE])
def test_sle_value_matches_point_evaluation(quantifier):
    rng = np.random.default_rng(11)
    for _ in range(3):
        m = random_density_matrix(rng, 3)
        result = sle_quantify(m, quantifier=quantifier)
        at = sle_quantifier_at(m, None, result.theta, result.phi, quantifier)
        assert at == pytest.approx(result.value, abs=1e-12)
