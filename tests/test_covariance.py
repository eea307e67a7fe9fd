"""Covariance oracles for the fast paths keyed on a state's zero pattern.

A qubit permutation or complex conjugation moves a state's entries, its
zero pattern and so its symmetry sectors, while the physics does not
change: the PPT-mixer program of the moved state has the same optimum.
Each state below is first given local diagonal phases, distinct per qubit,
which keep its zero pattern but make it complex, so that it is solved on
the imaginary coordinates of its sectors and its conjugate is a different
state.  The phases also break the symmetry of the paper's states under
qubit permutations, except for noisy GHZ, whose one coherence takes the
sum of the three angles.

The X-shape concurrence reads the pairs {b, b with every bit flipped},
which qubit permutations move among themselves and diagonal phases keep,
so neither may change it.  Both distillation maps are masked entrywise
products of the two copies, so they commute with qubit permutations, and
a diagonal local unitary D on both copies comes out squared.

The SLE objective is a minimum over projections of the measured qubit.  A
local unitary U_1 (x) U_2 on the kept pair leaves the spectrum of every
projected pair's partial transpose as it is, and a unitary V on the
measured qubit only relabels the projections, so neither may change the
minimum.  Random unitaries destroy the zero pattern, and with it the ring
charges that the sign-only search keys on, so the rotated states take the
default search while the states themselves take the band search.  A
qubit permutation, with the kept pair relabelled, leaves the objective a
function of the same projections, and a phase diag(1, e^{i alpha}) on the
measured qubit moves the optimum's phi by alpha; X-shaped states check the
closed form, the others the grid and its refinement.
"""

import itertools

import numpy as np
import pytest

from superact import noise_model_state, noisy_ghz, noisy_w
from superact.certify import (
    SLE_SIGN_SLACK,
    gme_concurrence_x,
    sle_quantify,
)
from superact.distill import (
    analytic_distilled_noisy_ghz,
    distill_cnot,
    distill_tripartite,
)
from superact.sdp import (
    GAP_TOL,
    SIGN_NEGATIVE,
    SIGN_NONNEGATIVE,
    ppt_mixer_witness,
)
from superact.verify import (
    verify_sle_x_certificate,
    verify_witness_certificate,
)
from util import (
    phased,
    random_density_matrix,
    random_unitary,
    random_x_state,
)

# Paper states on both sides of their thresholds (GHZ 3/7, W about 0.479,
# CNOT-distilled W about 0.519), with the sign each must certify.
_STATES = {
    "noisy-ghz-0.4": (lambda: noisy_ghz(0.4), SIGN_NONNEGATIVE),
    "noisy-ghz-0.5": (lambda: noisy_ghz(0.5), SIGN_NEGATIVE),
    "noisy-w-0.45": (lambda: noisy_w(0.45), SIGN_NONNEGATIVE),
    "noisy-w-0.51": (lambda: noisy_w(0.51), SIGN_NEGATIVE),
    "noise-model-0.45": (lambda: noise_model_state(0.45, 0.9084, 0.921),
                         SIGN_NONNEGATIVE),
    "noise-model-0.8": (lambda: noise_model_state(0.8, 0.9, 0.95),
                        SIGN_NEGATIVE),
    "distilled-w-0.50": (
        lambda: distill_cnot(noisy_w(0.50), noisy_w(0.50)).state,
        SIGN_NONNEGATIVE),
    "distilled-w-0.54": (
        lambda: distill_cnot(noisy_w(0.54), noisy_w(0.54)).state,
        SIGN_NEGATIVE),
    "random-x": (lambda: random_x_state(np.random.default_rng(8)), None),
}


def _permute_qubits(m: np.ndarray, order) -> np.ndarray:
    """``m`` with its qubits reordered: qubit k of the result is qubit
    ``order[k]`` of ``m``."""
    axes = list(order) + [3 + k for k in order]
    return m.reshape((2,) * 6).transpose(axes).reshape(8, 8)


def _moved_copies(m: np.ndarray) -> dict[str, np.ndarray]:
    copies = {f"perm-{''.join(map(str, order))}": _permute_qubits(m, order)
              for order in itertools.permutations(range(3))
              if order != (0, 1, 2)}
    copies["conjugate"] = m.conj()
    return copies


@pytest.mark.parametrize("name", list(_STATES))
def test_ppt_mixer_is_covariant(name):
    factory, expected = _STATES[name]
    m = phased(factory())
    base = ppt_mixer_witness(m)
    assert verify_witness_certificate(base, m)
    if expected is not None:
        assert base.certified_sign == expected
    copies = _moved_copies(m)
    assert not np.array_equal(copies["conjugate"], m)
    for label, copy in copies.items():
        moved = ppt_mixer_witness(copy)
        assert moved.certified_sign == base.certified_sign, label
        assert moved.optimal_value == pytest.approx(
            base.optimal_value, abs=2 * GAP_TOL), label
        assert verify_witness_certificate(moved, copy), label


@pytest.mark.parametrize("rho_factory", [
    lambda: noisy_ghz(0.5),
    lambda: noisy_ghz(0.7),
    lambda: noise_model_state(0.8, 0.9, 0.95),
])
def test_x_concurrence_is_invariant(rho_factory):
    m = np.asarray(rho_factory().entries)
    base = gme_concurrence_x(m)
    assert base > 0.1
    m = phased(m)
    for order in itertools.permutations(range(3)):
        moved = _permute_qubits(m, order)
        assert gme_concurrence_x(moved) == pytest.approx(
            base, rel=0.0, abs=1e-14), order


@pytest.mark.parametrize("distill", [distill_cnot, distill_tripartite])
def test_distillation_is_covariant(distill):
    rng = np.random.default_rng(12)
    rho, sigma = (random_density_matrix(rng, 3) for _ in range(2))
    base = distill(rho, sigma)
    out = np.asarray(base.state.entries)
    moved = {"phased": (distill(phased(rho), phased(sigma)),
                        phased(phased(out)))}
    for order in itertools.permutations(range(3)):
        moved[f"perm-{''.join(map(str, order))}"] = (
            distill(_permute_qubits(rho, order),
                    _permute_qubits(sigma, order)),
            _permute_qubits(out, order))
    for label, (result, expected) in moved.items():
        assert result.success_probability == pytest.approx(
            base.success_probability, rel=1e-14), label
        assert np.abs(np.asarray(result.state.entries)
                      - expected).max() <= 1e-15, label


# Paper states on both sides of their SLE thresholds for the default pair
# (0, 1): noisy GHZ 1/3, distilled GHZ (2 sqrt(2) - 1) / 7, noisy W 3/11,
# and the modeled noise-model state, which has no SLE at p = 0.36.
_SLE_STATES = {
    "noisy-ghz-0.30": lambda: noisy_ghz(0.30),
    "noisy-ghz-0.40": lambda: noisy_ghz(0.40),
    "distilled-ghz-0.23": lambda: analytic_distilled_noisy_ghz(0.23),
    "distilled-ghz-0.30": lambda: analytic_distilled_noisy_ghz(0.30),
    "noisy-w-0.24": lambda: noisy_w(0.24),
    "noisy-w-0.31": lambda: noisy_w(0.31),
    "noise-model-0.36": lambda: noise_model_state(0.36, 0.9084, 0.921),
    "noise-model-0.50": lambda: noise_model_state(0.50, 0.9084, 0.921),
}


def _checked_minimum(state: np.ndarray) -> float:
    """The search's minimum on ``state``, after checking that its
    certificate, if any, comes with a value above the slack and passes the
    closed form's check."""
    result = sle_quantify(state)
    if result.certificate is not None:
        assert result.min_eigenvalue > SLE_SIGN_SLACK
        assert verify_sle_x_certificate(result.certificate, state)
    return result.min_eigenvalue


@pytest.mark.parametrize("name", list(_SLE_STATES))
def test_sle_is_invariant_under_local_unitaries(name):
    m = np.asarray(_SLE_STATES[name]().entries)
    rng = np.random.default_rng(list(_SLE_STATES).index(name))
    u1, u2, v = (random_unitary(rng, 2) for _ in range(3))
    base = _checked_minimum(m)
    assert abs(base) > 1e-3  # each state lies clear of its threshold
    for label, u in (("kept", np.kron(np.kron(u1, u2), np.eye(2))),
                     ("measured", np.kron(np.eye(4), v))):
        rotated = u @ m @ u.conj().T
        assert _checked_minimum(rotated) == pytest.approx(
            base, rel=0.0, abs=1e-12), label


# X-shaped states, which take the closed form, and others, which take the
# grid and its see-saw refinement; phased, so that no permutation maps a
# state onto itself (noisy GHZ aside).
_PERMUTED_SLE_STATES = {
    "noisy-ghz-0.4": lambda: noisy_ghz(0.4),
    "noise-model-0.8": lambda: noise_model_state(0.8, 0.9, 0.95),
    "distilled-ghz-0.3": lambda: analytic_distilled_noisy_ghz(0.3),
    "random-x": lambda: random_x_state(np.random.default_rng(8)),
    "noisy-w-0.6": lambda: noisy_w(0.6),
    "distilled-w-0.54": lambda: distill_cnot(noisy_w(0.54),
                                             noisy_w(0.54)).state,
    "random": lambda: random_density_matrix(np.random.default_rng(9), 3),
}


@pytest.mark.parametrize("name", list(_PERMUTED_SLE_STATES))
def test_sle_is_covariant_under_qubit_permutations(name):
    m = phased(_PERMUTED_SLE_STATES[name]())
    for pair in ((0, 1), (0, 2), (1, 2)):
        base = sle_quantify(m, pair).min_eigenvalue
        for order in itertools.permutations(range(3)):
            moved = (order.index(pair[0]), order.index(pair[1]))
            value = sle_quantify(_permute_qubits(m, order),
                                 moved).min_eigenvalue
            assert value == pytest.approx(base, rel=0.0, abs=1e-12), (
                pair, order)


@pytest.mark.parametrize("alpha", [0.7, 2.0, -1.1])
@pytest.mark.parametrize("pair", [(0, 1), (0, 2), (1, 2)])
def test_sle_phase_on_the_measured_qubit_shifts_phi(pair, alpha):
    # The projection onto (c, s e^{i phi}) of V rho V^H, V = diag(1, e^{i
    # alpha}) on the measured qubit, is the projection of rho at phi -
    # alpha.  The random X state has no ring, so its optimum has one phi
    # modulo pi, away from the poles.
    m = random_x_state(np.random.default_rng(8))
    measured_bit = (np.arange(8) >> (2 - (3 - sum(pair)))) & 1
    phases = np.exp(1j * alpha * measured_bit)
    base = sle_quantify(m, pair)
    moved = sle_quantify(m * np.outer(phases, phases.conj()), pair)
    assert 0.0 < base.theta < np.pi / 2
    assert moved.min_eigenvalue == pytest.approx(base.min_eigenvalue,
                                                 rel=0.0, abs=1e-14)
    assert moved.theta == pytest.approx(base.theta, rel=0.0, abs=1e-12)
    shift = (moved.phi - base.phi - alpha) % np.pi
    assert min(shift, np.pi - shift) <= 1e-12
