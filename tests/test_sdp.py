import dataclasses
import hashlib
import itertools
import json
import time
from types import SimpleNamespace

import numpy as np
import pytest

from superact import ghz3, maximally_mixed, noise_model_state, noisy_ghz, noisy_w
from superact import linalg, sdp
from superact.certify import gme_concurrence_arguments
from superact.distill import (
    analytic_distilled_noisy_ghz,
    distill_cnot,
    distill_tripartite,
)
from superact.linalg import jacobi_eigvalsh
from superact.sdp import (
    BIPARTITIONS,
    CERTIFICATION_MARGIN,
    GAP_TOL,
    SIGN_INDETERMINATE,
    SIGN_NEGATIVE,
    SIGN_NONNEGATIVE,
    WitnessResult,
    ppt_mixer_witness,
    witness_result_to_json_dict,
    _PT_INDEX,
    _certified_bounds,
    _iterates,
    _project_affine,
    _sectors,
    _transpose_stack,
)
from superact.states import (
    DensityMatrix,
    StateValidationError,
    _partial_transpose_array,
    make_ghz,
)
from superact.verify import verify_witness_certificate
from util import (
    BAD_RAW_ARRAYS,
    FAILED_LAPACK_WARNING,
    failing_entry,
    random_density_matrix,
    random_hermitian,
    random_unitary,
    random_x_state,
)


def _certificate_invariants(result: WitnessResult, rho, feas_tol=1e-6):
    """Re-check everything the solver claims, using the Jacobi eigensolver;
    a side the result leaves out must have no fields and an infinite
    bound."""
    m = np.asarray(rho.entries)
    if result.witness is None:
        assert result.decompositions is None and result.residuals is None
        assert result.optimal_value == np.inf
    else:
        _witness_invariants(result, m, feas_tol)
    if result.mixture is None:
        assert result.lower_bound == -np.inf
    else:
        _mixture_invariants(result, m)
    assert result.witness is not None or result.mixture is not None


def _witness_invariants(result: WitnessResult, m, feas_tol):
    assert abs(np.trace(result.witness).real - 1.0) < 1e-8
    assert abs(np.real(np.vdot(m, result.witness))
               - result.optimal_value) < 1e-8
    for (p_hat, q_hat), residual, party in zip(result.decompositions,
                                               result.residuals, BIPARTITIONS):
        eigs = jacobi_eigvalsh(np.stack([p_hat, q_hat]))
        assert eigs[:, 0].min() >= -1e-9
        rebuilt = p_hat + _partial_transpose_array(q_hat, 3, party)
        assert np.linalg.norm(result.witness - rebuilt) <= feas_tol
        assert residual <= feas_tol


def _mixture_invariants(result: WitnessResult, m):
    mixture = np.stack(result.mixture)
    assert np.linalg.norm(m - result.lower_bound * np.eye(8)
                          - mixture.sum(axis=0)) <= 1e-9
    for block, party in zip(mixture, BIPARTITIONS):
        transposed = _partial_transpose_array(block, 3, party)
        assert jacobi_eigvalsh(np.stack([block, transposed])).min() >= -1e-9


# ---------------------------------------------------------------------------
# splitting-iteration internals

def _witness_projection():
    eye = np.eye(8, dtype=complex)

    def feasible(y):
        assert abs(np.trace(y[0]).real - 1.0) < 1e-12
        for k, party in enumerate(BIPARTITIONS):
            residual = y[0] - y[1 + 2 * k] - _partial_transpose_array(
                y[2 + 2 * k], 3, party)
            assert np.abs(residual).max() < 1e-12

    return 7, lambda x: _project_affine(x, eye), feasible


@pytest.mark.parametrize("program", [
    pytest.param(_witness_projection(), id="ppt-mixer"),
])
def test_affine_projection_feasible_and_idempotent(program):
    blocks, project, feasible = program
    rng = np.random.default_rng(0)
    x = np.stack([random_hermitian(rng, 8) for _ in range(blocks)])
    y = project(x)
    feasible(y)
    assert np.abs(project(y) - y).max() < 1e-12
    # Orthogonal: x - P(x) is normal to the affine set, so to a - P(x) for
    # every feasible a.
    a = project(np.stack([random_hermitian(rng, 8) for _ in range(blocks)]))
    feasible(a)
    assert abs(np.vdot(x - y, a - y)) < 1e-12 * np.linalg.norm(x) ** 2


def test_gather_partial_transpose_matches_reshape():
    rng = np.random.default_rng(2)
    for _ in range(5):
        blocks = (rng.standard_normal((3, 8, 8))
                  + 1j * rng.standard_normal((3, 8, 8)))
        gathered = _transpose_stack(blocks)
        for k, party in enumerate(BIPARTITIONS):
            assert np.array_equal(gathered[k],
                                  _partial_transpose_array(blocks[k], 3, party))


def test_partial_transpose_index_is_built_once_and_read_only():
    # One module-level table, built at import and shared by every solve.
    assert _PT_INDEX.shape == (3, 64)
    assert not _PT_INDEX.flags.writeable


def _dr_witness(rho, *, gap_tol=GAP_TOL, sign_only=False, start=None):
    """``ppt_mixer_witness`` by Douglas-Rachford whatever the state, through
    the solve it runs for every state that the closed form does not
    settle."""
    return sdp._douglas_rachford(sdp._program_state(rho, gap_tol), gap_tol,
                                 sign_only, start)


def _mixed_random_state(seed, rank):
    """A random rank-``rank`` state mixed with white noise, seeded."""
    rng = np.random.default_rng(seed)
    a = (rng.standard_normal((8, rank))
         + 1j * rng.standard_normal((8, rank)))
    m = a @ a.conj().T
    mix = rng.uniform(0.3, 0.8)
    return mix * m / np.trace(m).real + (1.0 - mix) * np.eye(8) / 8.0


def _local_phase(rho):
    """Conjugate by a local diagonal phase unitary, making entries complex."""
    u = np.array([1.0], dtype=complex)
    for angle in (0.3, 1.1, 2.0):
        u = np.kron(u, np.array([1.0, np.exp(1j * angle)]))
    return np.asarray(rho.entries) * np.outer(u, u.conj())


def _entries(rho) -> np.ndarray:
    return np.asarray(rho.entries if hasattr(rho, "entries") else rho)


def _off_sector(x, rho):
    """Largest magnitude of the entries of a (W, P_1, ..., Q_3) stack that
    lie outside the symmetry sectors of ``rho``."""
    return np.abs(np.where(_sectors(_entries(rho)).mask, 0.0, x)).max()


def test_accelerated_iterates_stay_hermitian():
    # The loop runs on real coordinates of Hermitian stacks and combines
    # past iterates with real coefficients, so every z it yields for a
    # complex state expands to a stack that is Hermitian block by block,
    # to the last bit and with no rounding drift after 1500 iterations.
    # The coordinates span only the state's sectors, so the entries outside
    # them stay exactly zero: none for the random state, all but the
    # Hamming-weight sectors for the phased distilled W state.
    eye = np.eye(8, dtype=complex)
    cold = np.empty((7, 8, 8), dtype=complex)
    cold[0] = eye / 8.0
    cold[1:] = eye / 16.0
    for rho in (_mixed_random_state(39, 1),
                _local_phase(distill_cnot(noisy_w(0.5), noisy_w(0.5)).state)):
        sectors = _sectors(rho)
        for iterate in itertools.islice(_iterates(rho, sectors, cold), 1500):
            xf, y, xg, z = map(sectors.expand, iterate)
            assert np.abs(z - np.conj(np.swapaxes(z, -1, -2))).max() <= 1e-12
            for x in (xf, y, xg, z):
                assert _off_sector(x, rho) == 0.0


def test_cone_projection_clips_to_psd():
    # From a random Hermitian splitting variable, the cone projection xg of
    # the reflection y leaves the witness block as it is and makes the six
    # P and Q blocks PSD.  For a state with sectors, reading the start into
    # coordinates cuts it down to them, so nothing outside them reaches the
    # iterates.
    rng = np.random.default_rng(1)
    z = np.stack([random_hermitian(rng, 8) for _ in range(7)])
    for rho in (_mixed_random_state(3, 2), _local_phase(noisy_w(0.6))):
        sectors = _sectors(rho)
        _, y, xg, _ = map(sectors.expand, next(_iterates(rho, sectors, z)))
        assert np.abs(xg[0] - y[0]).max() == 0.0  # witness is unconstrained
        assert np.linalg.eigvalsh(y[1:]).min() < -1.0  # so the clipping shows
        assert np.linalg.eigvalsh(xg[1:]).min() > -1e-12
        assert _off_sector(y, rho) == _off_sector(xg, rho) == 0.0
    assert _off_sector(z, _local_phase(noisy_w(0.6))) > 1.0


# ---------------------------------------------------------------------------
# symmetry sectors

def _sector_sets(rho, block=0):
    """The sectors of block ``block`` of (W, P_1, Q_1, ..., Q_3) for the
    state ``rho``, as a set of basis-index tuples."""
    mask = _sectors(_entries(rho)).mask[block]
    return {tuple(np.flatnonzero(row).tolist()) for row in mask}


_SINGLETONS = {(b,) for b in range(8)}
_COMPLEMENT_PAIRS = {(0, 7), (1, 6), (2, 5), (3, 4)}
_HAMMING_WEIGHTS = {(0,), (1, 2, 4), (3, 5, 6), (7,)}


@pytest.mark.parametrize("rho, sectors", [
    pytest.param(noisy_ghz(0.5), {(0, 7)} | _SINGLETONS - {(0,), (7,)},
                 id="noisy-ghz"),
    pytest.param(noisy_ghz(1.0), {(0, 7)} | _SINGLETONS - {(0,), (7,)},
                 id="ghz"),
    pytest.param(distill_tripartite(noisy_ghz(0.6), noisy_ghz(0.6)).state,
                 {(0, 7)} | _SINGLETONS - {(0,), (7,)}, id="distilled-ghz"),
    pytest.param(noise_model_state(0.8, 0.9, 0.95), _COMPLEMENT_PAIRS,
                 id="noise-model"),
    pytest.param(random_x_state(np.random.default_rng(3)), _COMPLEMENT_PAIRS,
                 id="random-x"),
    pytest.param(noisy_w(0.6), _HAMMING_WEIGHTS, id="noisy-w"),
    pytest.param(distill_cnot(noisy_w(0.5), noisy_w(0.5)).state,
                 _HAMMING_WEIGHTS, id="distilled-w"),
    pytest.param(maximally_mixed(3), _SINGLETONS, id="maximally-mixed"),
    pytest.param(_mixed_random_state(1, 2), {tuple(range(8))}, id="random"),
])
def test_sector_shapes(rho, sectors):
    m = _entries(rho)
    assert _sector_sets(m) == sectors
    # P blocks share W's sectors; the state's entries lie inside them.
    for block in (1, 3, 5):
        assert _sector_sets(m, block) == sectors
    assert np.all(m[~_sectors(m).mask[0]] == 0)


def test_partial_transpose_moves_the_q_sectors():
    # Transposing party i conjugates its phase: Q_i's sectors are W's with
    # party i's charge negated.  For noisy W, W conserves the Hamming
    # weight, and Q_1 the charge -b_0 + b_1 + b_2 and the weight's parity.
    m = np.asarray(noisy_w(0.6).entries)
    assert _sector_sets(m, 2) == {(0, 5, 6), (1, 2, 7), (3,), (4,)}
    # For GHZ, transposing party i moves the coherence |000><111| to the
    # pair that differs from 000 in party i alone and from 111 elsewhere.
    ghz = np.asarray(noisy_ghz(0.5).entries)
    for block, pair in zip((2, 4, 6), ((3, 4), (2, 5), (1, 6))):
        assert _sector_sets(ghz, block) == {pair} | _SINGLETONS - {
            (pair[0],), (pair[1],)}


def test_equal_symmetries_share_one_sectors_entry():
    # Sectors depend only on the conserved charges and Z-strings, so GHZ,
    # with 4 nonzero entries, and noisy GHZ, with 10, share one cached
    # entry and one build of the affine matrix.
    full, half = (np.ascontiguousarray(_entries(noisy_ghz(p)).real)
                  for p in (1.0, 0.5))
    assert np.count_nonzero(full) == 4 and np.count_nonzero(half) == 10
    assert _sectors(full) is _sectors(half)


def test_a_tiny_entry_merges_sectors():
    # Sectors follow the exact zero pattern: a Hermitian pair of 1e-300
    # entries joining 000 and 001 conserves no charge that tells them apart.
    m = np.asarray(noisy_w(0.6).entries).copy()
    m[0, 1] = m[1, 0] = 1e-300
    sectors = _sector_sets(m)
    assert any({0, 1} <= set(sector) for sector in sectors)
    assert sectors != _HAMMING_WEIGHTS
    result = ppt_mixer_witness(m)
    assert verify_witness_certificate(result, m)
    assert result.optimal_value == pytest.approx(
        ppt_mixer_witness(noisy_w(0.6)).optimal_value, abs=2 * GAP_TOL)


def _local_unitary(seed):
    rng = np.random.default_rng(seed)
    u = np.eye(1)
    for _ in range(3):
        u = np.kron(u, random_unitary(rng, 2))
    return u


@pytest.mark.parametrize("index", range(10))
def test_solve_is_invariant_under_local_unitaries(index):
    # The program is invariant under local unitaries, which destroy the
    # zero pattern: the rotated state is one sector of size 8.  Both solves
    # must bound the same optimum.  The plain one is Douglas-Rachford's on
    # the sectors, GHZ-diagonal states included.
    rho = np.asarray(_structured_states()[index].entries)
    u = _local_unitary(index)
    rotated = u @ rho @ u.conj().T
    assert _sector_sets(rotated) == {tuple(range(8))}
    plain, turned = _dr_witness(rho), ppt_mixer_witness(rotated)
    assert plain.iterations > 0 and turned.iterations > 0
    assert plain.certified_sign == turned.certified_sign
    assert plain.lower_bound <= turned.optimal_value
    assert turned.lower_bound <= plain.optimal_value
    assert plain.optimal_value == pytest.approx(turned.optimal_value,
                                                abs=2 * GAP_TOL)
    assert verify_witness_certificate(plain, rho)
    assert verify_witness_certificate(turned, rotated)


# Structured states over both arithmetic paths.
_SECTOR_STATES = {
    "noisy-w": lambda: noisy_w(0.6),
    "noisy-ghz": lambda: noisy_ghz(0.5),
    "distilled-w-phased":
        lambda: _local_phase(distill_cnot(noisy_w(0.5), noisy_w(0.5)).state),
}


@pytest.mark.parametrize("name", list(_SECTOR_STATES))
def test_bounds_twirl_an_iterate_outside_the_sectors(name):
    # The bounds read W and the cone multipliers through the sectors, so
    # from any Hermitian point, entries outside the sectors included, they
    # build an exactly feasible witness and PPT mixture.
    m = _entries(_SECTOR_STATES[name]()).astype(complex)
    rng = np.random.default_rng(2)
    xf = np.stack([random_hermitian(rng, 8) for _ in range(7)])
    xf[0] += np.eye(8) * (1.0 - np.trace(xf[0]).real) / 8.0
    gap = np.stack([random_hermitian(rng, 8) for _ in range(6)])
    eye = np.eye(8, dtype=complex)
    assert _off_sector(xf, m) > 0.1
    bounds = _certified_bounds(m, _sectors(m), xf, lambda: gap, eye)
    assert abs(np.trace(bounds.witness).real - 1.0) < 1e-12
    assert bounds.upper == pytest.approx(np.vdot(m, bounds.witness).real,
                                         abs=1e-15)
    rebuilt = bounds.p_blocks + _transpose_stack(bounds.q_blocks)
    assert np.abs(rebuilt - bounds.witness).max() < 1e-12
    assert np.abs(m - bounds.lower * eye
                  - bounds.mixture.sum(axis=0)).max() < 1e-12
    cones = np.concatenate([bounds.p_blocks, bounds.q_blocks, bounds.mixture,
                            _transpose_stack(bounds.mixture)])
    assert jacobi_eigvalsh(cones)[:, 0].min() >= -1e-9


@pytest.mark.parametrize("name", list(_SECTOR_STATES))
def test_start_outside_the_sectors(name):
    # A start with entries outside the state's sectors, here a random
    # Hermitian stack or the final z of an unstructured solve, is cut down
    # to the sectors before the first step: it solves as that cut start
    # does, and its certificates verify.  Noisy GHZ is GHZ-diagonal, so
    # ``ppt_mixer_witness`` settles it in closed form; the Douglas-Rachford
    # entry solves every state.
    rho = _SECTOR_STATES[name]()
    m = _entries(rho)
    cold = _dr_witness(rho)
    real = cold.final_z.dtype == np.float64
    rng = np.random.default_rng(5)
    noise = np.stack([random_hermitian(rng, 8) for _ in range(7)]) / 8.0
    other = _mixed_random_state(1, 2)
    unstructured = ppt_mixer_witness(other.real if real else other).final_z
    for start in (noise.real if real else noise, unstructured):
        assert _off_sector(start, m) > 0.0
        warm = _dr_witness(rho, start=start)
        cut = _dr_witness(
            rho, start=np.where(_sectors(m).mask, start, 0.0))
        for f in dataclasses.fields(WitnessResult):
            assert np.array_equal(getattr(warm, f.name),
                                  getattr(cut, f.name)), f.name
        assert warm.certified_sign == cold.certified_sign
        assert warm.optimal_value == pytest.approx(cold.optimal_value,
                                                   abs=2 * GAP_TOL)
        assert verify_witness_certificate(warm, rho)


# ---------------------------------------------------------------------------
# coordinates and the affine matrix

# One state per sector family, with its number of real coordinates when it
# iterates in real arithmetic: 7 blocks times the in-sector entries on or
# above the diagonal.  Complex arithmetic adds the imaginary parts of those
# above it.
_COORDINATE_FAMILIES = {
    "ghz": (lambda: noisy_ghz(0.5), 63),
    "x": (lambda: random_x_state(np.random.default_rng(3)), 84),
    "hamming-weight": (lambda: noisy_w(0.6), 98),
    "one-sector": (lambda: _mixed_random_state(1, 2), 252),
}


def _family_entries(family, dtype):
    factory, real_size = _COORDINATE_FAMILIES[family]
    m = _entries(factory())
    return (m.real if dtype is np.float64 else m).astype(dtype), real_size


@pytest.mark.parametrize("dtype", [np.float64, np.complex128],
                         ids=["float64", "complex128"])
@pytest.mark.parametrize("family", list(_COORDINATE_FAMILIES))
def test_coordinates_expand_and_read_back(family, dtype):
    m, real_size = _family_entries(family, dtype)
    sectors = _sectors(m)
    size = sectors.read_at.size
    off_diagonal = (real_size - 7 * 8) if dtype is np.complex128 else 0
    assert size == real_size + off_diagonal
    v = np.random.default_rng(4).standard_normal((5, size))
    x = sectors.expand(v)
    assert x.dtype == dtype and x.shape == (5, 7, 8, 8)
    assert np.array_equal(x, np.conj(np.swapaxes(x, -1, -2)))
    assert _off_sector(x, m) == 0.0
    assert np.abs(sectors.read(x) - v).max() <= 1e-15 * np.abs(v).max()
    # Orthonormal: the Euclidean inner product of coordinates is the
    # Frobenius one of the stacks.
    assert np.vdot(x[0], x[1]).real == pytest.approx(v[0] @ v[1], abs=1e-12)
    # Reading twirls: entries outside the sectors are dropped.
    rng = np.random.default_rng(5)
    noise = np.stack([random_hermitian(rng, 8) for _ in range(7)])
    noise = noise if dtype is np.complex128 else noise.real
    inside = np.where(sectors.mask, noise, 0.0)
    assert np.array_equal(sectors.read(noise), sectors.read(inside))


@pytest.mark.parametrize("dtype", [np.float64, np.complex128],
                         ids=["float64", "complex128"])
@pytest.mark.parametrize("family", list(_COORDINATE_FAMILIES))
def test_affine_matrix_is_the_affine_projection(family, dtype):
    m, _ = _family_entries(family, dtype)
    sectors = _sectors(m)
    size = sectors.read_at.size
    # One block per part, real then imaginary, covering every coordinate.
    parts = [part for part, _ in sectors.affine]
    assert [(p.start, p.stop) for p in parts] == list(zip(
        [0] + [p.stop for p in parts[:-1]], [p.stop for p in parts]))
    assert parts[-1].stop == size
    assert len(parts) == (2 if dtype is np.complex128 else 1)
    for _, block in sectors.affine:
        linear = 0.5 * (block + np.eye(len(block)))
        assert np.abs(linear - linear.T).max() <= 1e-12
        assert np.abs(linear @ linear - linear).max() <= 1e-12
    _, _, feasible = _witness_projection()
    rng = np.random.default_rng(6)
    for v in rng.standard_normal((3, size)):
        # P_A(v) = L v + P_A(0) = (M v + v + 2 P_A(0)) / 2.
        projected = sectors.expand(
            0.5 * (sectors.apply_affine(v) + v + sectors.offset))
        feasible(projected)
        reference = _project_affine(sectors.expand(v), np.eye(8))
        assert np.abs(projected - reference).max() <= 1e-12


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
# ``ppt_mixer_witness`` settles these states in closed form, so these tests
# solve them by Douglas-Rachford, an independent check of that form.

@pytest.mark.parametrize("p", [0.3, 0.43, 0.45, 0.5, 0.6, 0.8, 0.95, 1.0])
def test_noisy_ghz_optimum_matches_closed_form(p):
    rho = noisy_ghz(p)
    exact = -(7 * p - 3) / 24
    result = _dr_witness(rho)
    assert result.iterations > 0
    assert result.optimal_value == pytest.approx(exact, abs=1e-8)
    assert verify_witness_certificate(result, rho)
    # Both bounds come from rounded arithmetic, hence the 1e-12 slack.
    fast = _dr_witness(rho, sign_only=True)
    assert fast.iterations > 0
    for lower in (result.lower_bound, fast.lower_bound):
        assert lower <= exact + 1e-12
    assert exact <= fast.optimal_value + 1e-12
    assert fast.certified_sign == (SIGN_NEGATIVE if exact < 0
                                   else SIGN_NONNEGATIVE)
    # Only the side that fixes the sign is returned.
    assert (fast.witness is None) == (exact >= 0) == (fast.mixture is not None)
    assert verify_witness_certificate(fast, rho)


@pytest.mark.parametrize("pqr", [(0.8, 0.9, 0.9), (0.7, 0.95, 0.85)])
def test_noise_model_optimum_matches_closed_form(pqr):
    rho = noise_model_state(*pqr)
    result = _dr_witness(rho)
    assert result.iterations > 0
    expected = -float(gme_concurrence_arguments(rho).max()) / 3.0
    assert result.optimal_value == pytest.approx(expected, abs=1e-8)
    assert verify_witness_certificate(result, rho)


@pytest.mark.parametrize("rho_factory, budget", [
    (lambda: distill_cnot(noisy_w(0.45), noisy_w(0.45)).state, 2500),
    (lambda: noisy_w(0.6), 60),
    (lambda: noisy_ghz(0.5), 40),
], ids=["distilled-w-0.45", "noisy-w-0.6", "noisy-ghz-0.5"])
def test_iteration_budget_at_default_settings(rho_factory, budget):
    # Iteration counts are deterministic; these bounds hold at the measured
    # default step and relaxation with Anderson acceleration (1310, 40 and
    # 30 iterations when they were set) and fail if either drifts back.
    # The Douglas-Rachford entry, since noisy GHZ takes the closed form.
    result = _dr_witness(rho_factory())
    assert result.converged
    assert result.iterations <= budget


_GAP_CORPUS = {
    **{f"noisy-ghz-{p}": (lambda p=p: noisy_ghz(p)) for p in (0.3, 0.5, 0.8)},
    **{f"noise-model-{pqr}": (lambda pqr=pqr: noise_model_state(*pqr))
       for pqr in ((0.8, 0.9, 0.9), (0.7, 0.95, 0.85))},
    **{f"noisy-w-{p}": (lambda p=p: noisy_w(p)) for p in (0.45, 0.6)},
    "distilled-w-0.45":
        lambda: distill_cnot(noisy_w(0.45), noisy_w(0.45)).state,
    **{f"random-rank-{rank}": (lambda seed=seed, rank=rank:
                               _mixed_random_state(seed, rank))
       for seed, rank in ((0, 8), (1, 4), (2, 2))},
}


@pytest.mark.parametrize("name", list(_GAP_CORPUS))
def test_default_solve_stops_on_the_certified_gap(name):
    # Douglas-Rachford's stop rule, for the GHZ-diagonal states too.
    rho = _GAP_CORPUS[name]()
    result = _dr_witness(rho)
    assert result.iterations > 0
    assert result.converged
    assert result.iterations % 10 == 0
    assert 0.0 <= result.optimal_value - result.lower_bound <= GAP_TOL
    assert verify_witness_certificate(result, rho)


def test_slow_random_state_stays_inside_its_budget():
    # A noisy random pure state on which Douglas-Rachford converges slowly:
    # 1920 iterations when this bound was set, 3750 with an Anderson memory
    # of 8 instead of 16.
    rho = _mixed_random_state(39, 1)
    result = ppt_mixer_witness(rho)
    assert result.converged
    assert result.optimal_value - result.lower_bound <= GAP_TOL
    assert result.iterations <= 3000


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


def test_non_convergence_reports_indeterminate(monkeypatch):
    # The sign comes from the bounds, not from the stop: after 3 iterations
    # they still straddle zero, after 20 the upper bound clears the margin
    # while the interval is still too wide to stop the solve.
    rho = noisy_w(0.6)
    monkeypatch.setattr(sdp, "MAX_ITERATIONS", 3)
    result = ppt_mixer_witness(rho)
    assert not result.converged
    assert result.lower_bound < 0.0 < result.optimal_value
    assert result.certified_sign == SIGN_INDETERMINATE
    assert len(result.residuals) == 3
    assert result.iterations == 3
    assert verify_witness_certificate(result, rho)
    monkeypatch.setattr(sdp, "MAX_ITERATIONS", 20)
    later = ppt_mixer_witness(rho)
    assert not later.converged
    assert later.certified_sign == SIGN_NEGATIVE
    assert verify_witness_certificate(later, rho)


_QUICK_STATES = {
    "noisy-ghz-0.5": (lambda: noisy_ghz(0.5), SIGN_NEGATIVE),
    "noise-model": (lambda: noise_model_state(0.8, 0.9, 0.95), SIGN_NEGATIVE),
    "noisy-ghz-0.3": (lambda: noisy_ghz(0.3), SIGN_NONNEGATIVE),
}


@pytest.mark.parametrize("name", list(_QUICK_STATES))
def test_structured_solves_close_their_gap_under_a_small_cap(monkeypatch,
                                                             name):
    # These solves take 20-30 iterations.  A fault that keeps the interval
    # open, such as a wrong sector reading, fails here within 300
    # iterations instead of running every solve to the default cap.  They
    # are GHZ-diagonal, so the Douglas-Rachford entry solves them.
    build, sign = _QUICK_STATES[name]
    monkeypatch.setattr(sdp, "MAX_ITERATIONS", 300)
    result = _dr_witness(build())
    assert result.converged
    assert result.certified_sign == sign


# ---------------------------------------------------------------------------
# the closed form of GHZ-diagonal states

_GHZ_PAIRS = ((0, 7), (1, 6), (2, 5), (4, 3))


def _ghz_diagonal_state(rng, dominant):
    """A GHZ-diagonal state with Dirichlet GHZ-basis eigenvalues, half its
    weight on ``make_ghz(dominant // 2, +1 or -1)``, so that lambda_max >=
    1/2; entries exactly symmetric within each pair."""
    lam = 0.5 * rng.dirichlet(np.ones(8))
    lam[dominant] += 0.5
    m = np.zeros((8, 8))
    for pair, (f, g) in enumerate(_GHZ_PAIRS):
        plus, minus = lam[2 * pair], lam[2 * pair + 1]
        m[f, f] = m[g, g] = 0.5 * (plus + minus)
        m[f, g] = m[g, f] = 0.5 * (plus - minus)
    return m


def _ghz_diagonal_corpus():
    noise_models = [noise_model_state(p, q, r) for p in (0.6, 0.7, 0.8, 0.95)
                    for q in (0.85, 0.98) for r in (0.85, 0.98)]
    rng = np.random.default_rng(17)
    return {
        "noisy-ghz": [noisy_ghz(p) for p in np.linspace(0.0, 1.0, 41)],
        "noise-model": noise_models,
        "analytic-distilled-ghz": [analytic_distilled_noisy_ghz(p)
                                   for p in np.linspace(0.0, 1.0, 11)],
        "parity-check-noise-model": [distill_tripartite(rho, rho).state
                                     for rho in noise_models],
        "maximally-mixed": [maximally_mixed(3)],
        # All eight GHZ-basis states dominant, seven draws each.
        "dirichlet": [_ghz_diagonal_state(rng, k % 8) for k in range(56)],
    }


GHZ_DIAGONAL_CORPUS = _ghz_diagonal_corpus()


@pytest.mark.parametrize("family", list(GHZ_DIAGONAL_CORPUS))
def test_closed_form_lies_in_the_douglas_rachford_interval(family):
    # Both sides in closed form, with no iteration: the value lies in the
    # interval Douglas-Rachford certifies, and the verifier accepts both
    # certificates.  Sign-only, the closed form keeps the side of its sign.
    for rho in GHZ_DIAGONAL_CORPUS[family]:
        result = ppt_mixer_witness(rho)
        assert (result.iterations, result.converged) == (0, True)
        assert result.final_z is None
        assert result.optimal_value == result.lower_bound
        assert result.residuals == (0.0, 0.0, 0.0)
        _certificate_invariants(result, DensityMatrix(3, _entries(rho),
                                                      normalized=False))
        assert verify_witness_certificate(result, rho)
        reference = _dr_witness(rho)
        assert reference.iterations > 0
        assert (reference.lower_bound - 1e-12 <= result.optimal_value
                <= reference.optimal_value + 1e-12)
        if reference.certified_sign != SIGN_INDETERMINATE:
            assert result.certified_sign == reference.certified_sign
        fast = ppt_mixer_witness(rho, sign_only=True)
        assert fast.iterations == 0
        sign = fast.certified_sign
        assert sign == result.certified_sign
        assert (fast.witness is None) == (sign == SIGN_NONNEGATIVE)
        assert (fast.mixture is None) == (sign == SIGN_NEGATIVE)
        assert verify_witness_certificate(fast, rho)


def test_closed_form_witness_is_the_dominant_fidelity_witness():
    # W = (I/2 - |G><G|)/3 for the GHZ-basis state G of the largest
    # eigenvalue, with P_i = 0 and Q_i = W^{T_i}; its value is
    # (1/2 - lambda_max)/3.
    for k, rho in enumerate(GHZ_DIAGONAL_CORPUS["dirichlet"]):
        dominant = k % 8
        g = np.asarray(make_ghz(dominant // 2, (1, -1)[dominant % 2])
                       .projector().entries)
        result = ppt_mixer_witness(rho)
        expected = (0.5 * np.eye(8) - g) / 3.0
        assert np.abs(result.witness - expected).max() < 1e-15
        lam_max = np.linalg.eigvalsh(rho)[-1]
        assert result.optimal_value == pytest.approx((0.5 - lam_max) / 3.0,
                                                     abs=1e-15)
        for (p_block, q_block), party in zip(result.decompositions,
                                             BIPARTITIONS):
            assert not p_block.any()
            assert np.array_equal(
                q_block, _partial_transpose_array(result.witness, 3, party))


@pytest.mark.parametrize("scale", [0.5, 2.0])
def test_closed_form_scales_with_the_trace(scale):
    # Any trace is accepted, and the optimum scales with it.
    for rho in (noisy_ghz(0.5), noisy_ghz(0.3),
                noise_model_state(0.8, 0.9, 0.95)):
        m = scale * _entries(rho)
        scaled, unit = ppt_mixer_witness(m), ppt_mixer_witness(rho)
        assert scaled.iterations == 0 and scaled.mixture is not None
        assert scaled.optimal_value == pytest.approx(
            scale * unit.optimal_value, abs=1e-15)
        assert verify_witness_certificate(scaled, m)


def test_closed_form_takes_no_lapack_call(monkeypatch):
    # The checks are scalar: every factor is X-shaped, and each 2 x 2 pair's
    # lowest eigenvalue is taken in closed form.
    for entry in ("_eigh", "_eigvalsh", "_solve"):
        monkeypatch.setattr(sdp, entry, None)
    for rho in (noisy_ghz(0.5), noisy_ghz(0.3), maximally_mixed(3),
                noise_model_state(0.8, 0.9, 0.95)):
        for sign_only in (False, True):
            assert ppt_mixer_witness(rho, sign_only=sign_only).iterations == 0


def _off_x_entry():
    m = _entries(noisy_ghz(0.5)).copy()
    m[0, 1] = m[1, 0] = 1e-300
    return m


def _uneven_pair():
    m = _entries(noisy_ghz(0.5)).copy()
    m[1, 1] = np.nextafter(m[1, 1].real, 1.0)
    return m


def _complex_coherence():
    m = _entries(noisy_ghz(0.5)).copy()
    m[0, 7] *= np.exp(0.3j)
    m[7, 0] = np.conj(m[0, 7])
    return m


def _imaginary_diagonal():
    # Hermitian within the validation tolerance, not exactly.
    m = _entries(noisy_ghz(0.5)).copy()
    m[0, 0] += 1e-13j
    m[7, 7] += 1e-13j
    return m


_FALL_BACKS = {
    "off-x-entry": (_off_x_entry, SIGN_NEGATIVE),
    "uneven-pair": (_uneven_pair, SIGN_NEGATIVE),
    "complex-coherence": (_complex_coherence, SIGN_NEGATIVE),
    "imaginary-diagonal": (_imaginary_diagonal, SIGN_NEGATIVE),
    # GHZ-diagonal, but its PPT mixture fails the checks; with q = 0.1 its
    # coherences are negative.
    "noise-model-0.1-0.9-0.3":
        (lambda: noise_model_state(0.1, 0.9, 0.3), SIGN_NONNEGATIVE),
    "noise-model-0.1-0.1-0.3":
        (lambda: noise_model_state(0.1, 0.1, 0.3), SIGN_NONNEGATIVE),
}


@pytest.mark.parametrize("name", list(_FALL_BACKS))
def test_closed_form_falls_back_to_douglas_rachford(name):
    # A state that is not exactly GHZ-diagonal, or whose mixture fails, is
    # solved by Douglas-Rachford, bit for bit, in both modes.
    build, sign = _FALL_BACKS[name]
    rho = build()
    state = sdp._program_state(rho, GAP_TOL)
    assert sdp._ghz_diagonal_bounds(state) is None
    for sign_only in (False, True):
        result = ppt_mixer_witness(rho, sign_only=sign_only)
        assert result.iterations > 0 and result.final_z is not None
        assert result.certified_sign == sign
        reference = _dr_witness(rho, sign_only=sign_only)
        for f in dataclasses.fields(WitnessResult):
            assert np.array_equal(getattr(result, f.name),
                                  getattr(reference, f.name)), f.name
        assert verify_witness_certificate(result, rho)


@pytest.mark.parametrize("p, sign", [(0.5, SIGN_NEGATIVE),
                                     (0.3, SIGN_NONNEGATIVE),
                                     (3 / 7, SIGN_INDETERMINATE)])
def test_sign_only_closed_form_keeps_the_side_of_its_sign(p, sign):
    # One side where it fixes the sign, both where the value lies inside
    # the certification margin, as a sign-only Douglas-Rachford solve ends.
    rho = noisy_ghz(p)
    fast = ppt_mixer_witness(rho, sign_only=True)
    assert (fast.iterations, fast.converged, fast.certified_sign) == (0, True,
                                                                      sign)
    assert (fast.witness is None) == (sign == SIGN_NONNEGATIVE)
    assert (fast.mixture is None) == (sign == SIGN_NEGATIVE)
    assert (fast.lower_bound == -np.inf) == (sign == SIGN_NEGATIVE)
    assert (fast.optimal_value == np.inf) == (sign == SIGN_NONNEGATIVE)
    assert verify_witness_certificate(fast, rho)
    default = ppt_mixer_witness(rho)
    assert default.witness is not None and default.mixture is not None
    assert default.certified_sign == sign


# ---------------------------------------------------------------------------
# certified bounds and the sign-only solve

def _bound_corpus():
    states = {f"noisy-w-{p}": noisy_w(p)
              for p in (0.3, 0.45, 0.478, 0.48, 0.5, 0.6)}
    states.update({f"distilled-w-{p}": distill_cnot(noisy_w(p), noisy_w(p)).state
                   for p in (0.45, 0.5185, 0.52, 0.6)})
    states.update({f"noise-model-{pqr}": noise_model_state(*pqr)
                   for pqr in ((0.8, 0.9, 0.9), (0.7, 0.95, 0.85))})
    rng = np.random.default_rng(7)
    for k in range(2):
        # Full-rank random states, biseparable once mixed with white noise.
        mix = (0.3, 0.9)[k]
        states[f"random-{k}"] = DensityMatrix(
            3, mix * random_density_matrix(rng, 3) + (1.0 - mix) * np.eye(8) / 8.0)
    for k in range(2, 4):
        # Random pure states with a little white noise: GME.
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        v /= np.linalg.norm(v)
        states[f"random-{k}"] = DensityMatrix(
            3, 0.9 * np.outer(v, v.conj()) + 0.1 * np.eye(8) / 8.0)
    return states


BOUND_CORPUS = _bound_corpus()


@pytest.mark.parametrize("name", list(BOUND_CORPUS))
def test_bounds_sandwich_the_optimum_and_certify_the_sign(name):
    rho = BOUND_CORPUS[name]
    default = ppt_mixer_witness(rho)
    fast = ppt_mixer_witness(rho, sign_only=True)
    # Weak duality: a verified PPT mixture lies below every feasible value.
    assert default.lower_bound <= default.optimal_value + 1e-9
    assert fast.lower_bound <= default.optimal_value + 1e-9
    assert fast.optimal_value >= default.optimal_value - 1e-9
    assert fast.iterations <= default.iterations
    if default.certified_sign != SIGN_INDETERMINATE:
        assert fast.certified_sign == default.certified_sign
    # A default result holds both sides; a sign-only one the side of its
    # sign, the other left out, or both when its sign is indeterminate.
    assert default.witness is not None and default.mixture is not None
    assert (fast.witness is None) == (fast.certified_sign == SIGN_NONNEGATIVE)
    assert (fast.mixture is None) == (fast.certified_sign == SIGN_NEGATIVE)
    margin = CERTIFICATION_MARGIN
    for result in (default, fast):
        # Both modes return the repaired, exactly feasible witness, whose
        # value is the upper bound, when they return a witness, and read the
        # sign from the two bounds.
        assert result.witness is None or max(result.residuals) < 1e-12
        assert result.lower_bound <= result.optimal_value
        if result.optimal_value < -margin:
            expected = SIGN_NEGATIVE
        elif result.lower_bound > margin:
            expected = SIGN_NONNEGATIVE
        else:
            expected = SIGN_INDETERMINATE
        assert result.certified_sign == expected
        _certificate_invariants(result, rho)
        assert verify_witness_certificate(result, rho)


def test_sign_only_stops_on_bounds_and_stays_inside_budget():
    # Pinned counts, with head room, of the sign-only solve on states that
    # the bounds certify quickly, by Douglas-Rachford: noisy GHZ takes the
    # closed form in ``ppt_mixer_witness``.
    for rho, budget in ((noisy_w(0.6), 50), (noisy_ghz(0.3), 20),
                        (distill_cnot(noisy_w(0.45), noisy_w(0.45)).state, 50)):
        result = _dr_witness(rho, sign_only=True)
        assert result.converged
        assert result.certified_sign != SIGN_INDETERMINATE
        assert result.iterations <= budget
        assert result.iterations % 10 == 0


def test_sign_only_indeterminate_inside_the_margin():
    # Noisy W at 0.479 has an optimum of a few 1e-6, inside the 1e-5 margin:
    # the bounds never clear it, and the solve ends once they lie within
    # the gap tolerance of each other.
    result = ppt_mixer_witness(noisy_w(0.479), sign_only=True)
    assert result.converged
    assert result.certified_sign == SIGN_INDETERMINATE
    # An indeterminate result holds both sides.
    assert result.witness is not None and result.mixture is not None
    assert 0.0 <= result.optimal_value - result.lower_bound <= GAP_TOL
    assert abs(result.optimal_value) < 1e-4
    assert verify_witness_certificate(result, noisy_w(0.479))


def test_verifier_takes_one_jacobi_pass_over_all_twelve_factors(
        monkeypatch):
    # The six P and Q blocks, the three Y_i and the three Y_i^{T_i}.
    calls = []

    def counting(matrices):
        calls.append(np.shape(matrices))
        return jacobi_eigvalsh(matrices)

    monkeypatch.setattr(linalg, "jacobi_eigvalsh", counting)
    for rho in (noisy_w(0.6), noisy_ghz(0.5)):
        result = ppt_mixer_witness(rho)
        calls.clear()
        assert verify_witness_certificate(result, rho)
        assert calls == [(12, 8, 8)]
    # A one-sided result: the six P and Q blocks, or the six Y_i and
    # Y_i^{T_i}.
    for rho in (noisy_w(0.6), noisy_w(0.4)):
        result = ppt_mixer_witness(rho, sign_only=True)
        calls.clear()
        assert verify_witness_certificate(result, rho)
        assert calls == [(6, 8, 8)]


def test_verifier_rejects_tampered_lower_bound():
    rho = noisy_ghz(0.5)
    result = ppt_mixer_witness(rho)
    assert verify_witness_certificate(result, rho)
    raised = dataclasses.replace(result, lower_bound=result.lower_bound + 1e-3)
    assert not verify_witness_certificate(raised, rho)


def test_verifier_rejects_non_ppt_mixture_blocks():
    rho = noisy_ghz(0.9)
    result = ppt_mixer_witness(rho)
    assert verify_witness_certificate(result, rho)
    ghz = np.asarray(ghz3().projector().entries)
    swapped = dataclasses.replace(
        result, mixture=(ghz,) + tuple(result.mixture[1:]))
    assert not verify_witness_certificate(swapped, rho)
    # Moving the whole of rho - t I into one block keeps the sum exact but
    # that block is not PPT, since the state is GME.
    m = np.asarray(rho.entries)
    lumped = dataclasses.replace(result, mixture=(
        m - result.lower_bound * np.eye(8), np.zeros((8, 8)), np.zeros((8, 8))))
    assert not verify_witness_certificate(lumped, rho)
    assert not verify_witness_certificate(
        dataclasses.replace(result, mixture=result.mixture[:2]), rho)


def test_early_stop_still_yields_a_verifiable_certificate(monkeypatch):
    # Three iterations are far from the optimum, but the result is built
    # from the repaired bounds, so its certificates still verify.
    rho = noisy_w(0.6)
    monkeypatch.setattr(sdp, "MAX_ITERATIONS", 3)
    early = ppt_mixer_witness(rho)
    assert not early.converged
    assert max(early.residuals) < 1e-12
    assert early.lower_bound <= early.optimal_value
    assert verify_witness_certificate(early, rho)


def test_verifier_does_not_trust_reported_residuals():
    rho = noisy_w(0.6)
    solved = ppt_mixer_witness(rho)
    assert verify_witness_certificate(solved, rho)
    # Infeasible unit-trace witnesses paired with the solved factors: I/8
    # reporting its true residuals, and the GHZ projector claiming zero.
    ghz = np.asarray(ghz3().projector().entries, dtype=complex)
    for witness, honest in ((np.eye(8, dtype=complex) / 8.0, True),
                            (ghz, False)):
        residuals = tuple(
            float(np.linalg.norm(
                witness - p - _partial_transpose_array(q, 3, party)))
            for (p, q), party in zip(solved.decompositions, BIPARTITIONS))
        assert min(residuals) > 0.1
        forged = dataclasses.replace(
            solved, witness=witness,
            optimal_value=float(np.vdot(np.asarray(rho.entries), witness).real),
            residuals=residuals if honest else (0.0, 0.0, 0.0))
        assert not verify_witness_certificate(forged, rho)


def test_verifier_rejects_nan_certificates():
    rho = noisy_ghz(0.5)
    result = ppt_mixer_witness(rho)
    assert not verify_witness_certificate(
        dataclasses.replace(result, lower_bound=float("nan")), rho)
    nan_witness = np.full((8, 8), np.nan, dtype=complex)
    assert not verify_witness_certificate(
        dataclasses.replace(result, witness=nan_witness), rho)


def test_verifier_rejects_forged_one_sided_certificates():
    # A sign-only result holds one side; the verifier accepts it, and
    # rejects it with a finite bound that no certificate backs, with no
    # side at all, or with a certificate whose bound is not the one
    # reported.
    rho = noisy_w(0.55)
    default = ppt_mixer_witness(rho)
    negative = ppt_mixer_witness(rho, sign_only=True)
    nonnegative = ppt_mixer_witness(noisy_w(0.4), sign_only=True)
    biseparable = ppt_mixer_witness(noisy_w(0.4))
    assert negative.certified_sign == SIGN_NEGATIVE
    assert nonnegative.certified_sign == SIGN_NONNEGATIVE
    no_witness = dict(witness=None, decompositions=None, residuals=None)
    neither = dict(no_witness, optimal_value=np.inf, mixture=None,
                   lower_bound=-np.inf)
    on_negative = {
        "finite lower bound, no mixture":
            dict(lower_bound=default.lower_bound),
        "witness removed": dict(witness=None),
        "witness and decompositions removed": no_witness,
        "both sides removed": neither,
        "mixture moved on": dict(mixture=default.mixture),
        "+inf lower bound": dict(lower_bound=np.inf),
    }
    on_nonnegative = {
        "finite value, no witness":
            dict(optimal_value=biseparable.optimal_value),
        "mixture removed": dict(mixture=None),
        "both sides removed": neither,
        "witness moved on": {
            name: getattr(biseparable, name)
            for name in ("witness", "decompositions", "residuals")},
        "-inf value": dict(optimal_value=-np.inf),
    }
    for result, state, forgeries in ((negative, rho, on_negative),
                                     (nonnegative, noisy_w(0.4),
                                      on_nonnegative)):
        assert verify_witness_certificate(result, state)
        for name, fields in forgeries.items():
            forged = dataclasses.replace(result, **fields)
            assert not verify_witness_certificate(forged, state), name
    # A side taken from another solve of the same state, with its own
    # bound, is a certificate in its own right.
    assert verify_witness_certificate(dataclasses.replace(
        negative, mixture=default.mixture, lower_bound=default.lower_bound),
        rho)


def test_json_record_writes_null_for_a_side_left_out():
    for p, absent in ((0.55, "lower_bound"), (0.4, "optimal_value")):
        result = ppt_mixer_witness(noisy_w(p), sign_only=True)
        record = witness_result_to_json_dict(result)
        json.dumps(record, allow_nan=False)
        left_out = ({"lower_bound", "mixture"} if absent == "lower_bound"
                    else {"optimal_value", "witness", "decompositions",
                          "residuals"})
        assert {k for k, v in record.items() if v is None} == left_out
    record = witness_result_to_json_dict(ppt_mixer_witness(noisy_w(0.55)))
    assert None not in record.values()


def test_verifier_rejects_malformed_certificates():
    # A certificate of the wrong shape, or with a non-finite entry anywhere,
    # fails the check instead of raising from inside NumPy.
    rho = noisy_w(0.6)
    result = ppt_mixer_witness(rho)
    assert verify_witness_certificate(result, rho)
    p, q = result.decompositions[0]
    nan_block = np.full((8, 8), np.nan, dtype=complex)
    forgeries = {
        "4x4 witness": dict(witness=np.eye(4, dtype=complex) / 4.0),
        "flat witness": dict(witness=result.witness.ravel()),
        "inf witness": dict(witness=np.where(
            np.eye(8, dtype=bool), result.witness, np.inf)),
        "missing decomposition": dict(decompositions=result.decompositions[:2]),
        "short decomposition": dict(
            decompositions=((p,),) + result.decompositions[1:]),
        "4x4 decomposition": dict(
            decompositions=((p[:4, :4], q[:4, :4]),) + result.decompositions[1:]),
        "nan decomposition": dict(
            decompositions=((nan_block, q),) + result.decompositions[1:]),
        "extra mixture block": dict(mixture=result.mixture + (nan_block,)),
        "4x4 mixture": dict(mixture=tuple(y[:4, :4] for y in result.mixture)),
        "nan mixture": dict(mixture=(nan_block,) + result.mixture[1:]),
        "inf lower bound": dict(lower_bound=float("inf")),
        "nan value": dict(optimal_value=float("nan")),
    }
    for name, fields in forgeries.items():
        forged = dataclasses.replace(result, **fields)
        assert not verify_witness_certificate(forged, rho), name


def test_verifier_reads_every_field_through_one_rule():
    # A field read from JSON may hold anything.  A number, or nested lists
    # of numbers, of the right shape is read as an array; a field that is
    # missing, non-numeric, ragged or of the wrong shape fails the check
    # without raising.
    rho = noisy_ghz(0.6)
    result = ppt_mixer_witness(rho)
    assert verify_witness_certificate(result, rho)
    assert verify_witness_certificate(dataclasses.replace(
        result, witness=result.witness.tolist(),
        mixture=[y.tolist() for y in result.mixture],
        optimal_value=np.float64(result.optimal_value),
        lower_bound=np.array(result.lower_bound)), rho)
    for name in ("optimal_value", "lower_bound"):
        bound = getattr(result, name)
        for value in (None, str(bound), "abc", True, complex(bound),
                      [bound], np.array([[bound]])):
            forged = dataclasses.replace(result, **{name: value})
            assert not verify_witness_certificate(forged, rho), (name, value)
    for name in ("witness", "decompositions", "mixture"):
        matrices = np.asarray(getattr(result, name))
        for value in (None, "abc", matrices.astype(str),
                      np.ones(matrices.shape, dtype=bool),
                      np.array(matrices, dtype=object),
                      [matrices.tolist(), [0.0]], matrices[..., None]):
            forged = dataclasses.replace(result, **{name: value})
            assert not verify_witness_certificate(forged, rho), name
    assert verify_witness_certificate(SimpleNamespace(**vars(result)), rho)
    for name in ("witness", "decompositions", "mixture", "optimal_value",
                 "lower_bound"):
        fields = {k: v for k, v in vars(result).items() if k != name}
        assert not verify_witness_certificate(SimpleNamespace(**fields),
                                              rho), name


def test_verifier_validates_the_state():
    m = random_density_matrix(np.random.default_rng(7), 3)
    result = ppt_mixer_witness(m, sign_only=True)
    assert verify_witness_certificate(result, m)
    skewed = m.copy()
    skewed[0, 1] += 1e-3
    negative = m - 0.5 * np.diag(np.eye(8)[1])
    for array, message in ((skewed, "Hermiticity"),
                           (negative, "minimum eigenvalue"),
                           *BAD_RAW_ARRAYS.values()):
        with pytest.raises(StateValidationError, match=message):
            verify_witness_certificate(result, array)
    with pytest.raises(ValueError, match="three-qubit"):
        verify_witness_certificate(result, maximally_mixed(2))


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


def test_mismatched_start_gives_the_cold_result():
    # A start is taken only with the program's shape and dtype: a real
    # state's final splitting variable, a truncated or a non-finite one
    # leave a complex state's solve exactly as it is from cold.
    rho = random_density_matrix(np.random.default_rng(11), 3)
    cold = ppt_mixer_witness(rho, sign_only=True)
    real_z = ppt_mixer_witness(noisy_w(0.6), sign_only=True).final_z
    assert real_z.dtype == np.float64 and cold.final_z.dtype == np.complex128
    for start in (real_z, cold.final_z[:6], np.full_like(cold.final_z, np.nan),
                  cold.final_z.tolist()):
        warm = ppt_mixer_witness(rho, sign_only=True, start=start)
        for f in dataclasses.fields(WitnessResult):
            assert np.array_equal(getattr(warm, f.name),
                                  getattr(cold, f.name)), f.name


@pytest.mark.parametrize("p, first", [(0.45, "lower"), (0.55, "upper")])
def test_a_start_at_the_optimum_certifies_at_the_first_iterate(
        monkeypatch, p, first):
    # A solve that takes a start checks its bounds at iteration 1, building
    # first the side that the iterate's value points to: the lower bound
    # below the W threshold (about 0.479), the upper bound above it.
    rho = noisy_w(p)
    cold = ppt_mixer_witness(rho, sign_only=True)
    assert cold.iterations >= 10
    sides = []
    for side in ("upper", "lower"):
        name = f"_{side}_bound"

        def recording(*args, _side=side, _build=getattr(sdp, name)):
            sides.append(_side)
            return _build(*args)

        monkeypatch.setattr(sdp, name, recording)
    warm = ppt_mixer_witness(rho, sign_only=True, start=cold.final_z)
    assert warm.iterations == 1 and warm.converged
    # The first side fixes the sign, so the other is never built.
    assert sides == [first]
    assert (warm.witness is None) == (first == "lower")
    assert (warm.mixture is None) == (first == "upper")
    assert warm.certified_sign == cold.certified_sign
    assert verify_witness_certificate(warm, rho)


def _structured_states():
    """Eleven states whose zero patterns have symmetry sectors: noisy GHZ,
    noisy W, noise-model, CNOT-distilled W and maximally mixed."""
    return [noisy_ghz(0.3), noisy_ghz(0.5), noisy_ghz(1.0),
            noisy_w(0.4), noisy_w(0.5), noisy_w(0.6),
            noise_model_state(0.8, 0.9, 0.95),
            noise_model_state(0.45, 0.9084, 0.921),
            distill_cnot(noisy_w(0.5), noisy_w(0.5)).state,
            distill_cnot(noisy_w(0.6), noisy_w(0.6)).state,
            maximally_mixed(3)]


def _unstructured_states():
    """Seven seeded random states, one sector of size 8 each, over both
    arithmetic paths: complex, and (as their real parts, also states)
    real."""
    states = [_mixed_random_state(seed, rank)
              for seed, rank in ((1, 2), (2, 3), (3, 4), (5, 2), (6, 3))]
    states += [_mixed_random_state(seed, rank).real
               for seed, rank in ((2, 3), (3, 4))]
    return states


def _result_digest(results) -> str:
    """sha256 over every field of every result, arrays to the bit and
    floats by their exact repr."""
    digest = hashlib.sha256()

    def feed(value):
        if isinstance(value, np.ndarray):
            digest.update(f"{value.dtype.str}{value.shape}".encode())
            digest.update(np.ascontiguousarray(value).tobytes())
        elif isinstance(value, tuple):
            digest.update(b"(")
            for item in value:
                feed(item)
            digest.update(b")")
        else:
            digest.update(repr(value).encode())

    for result in results:
        for f in dataclasses.fields(WitnessResult):
            digest.update(f.name.encode())
            feed(getattr(result, f.name))
    return digest.hexdigest()


def _pinned_solves(states, capped, monkeypatch):
    """Default, loose and sign-only solves of ``states``, then default
    solves of ``capped`` at iteration caps of 3 and 20, as two lists: the
    sign-only solves, and all the others."""
    two_sided, sign_only = [], []
    for rho in states:
        two_sided += [ppt_mixer_witness(rho),
                      ppt_mixer_witness(rho, gap_tol=1e-4)]
        sign_only.append(ppt_mixer_witness(rho, sign_only=True))
    with monkeypatch.context() as patch:
        for cap in (3, 20):
            patch.setattr(sdp, "MAX_ITERATIONS", cap)
            two_sided.append(ppt_mixer_witness(capped))
    return two_sided, sign_only


# sha256 of every field, ``final_z`` included, of the pinned solves below,
# one digest per corpus and mode: the default, loose, capped and
# warm-chained solves, and the sign-only ones.  The solve is deterministic
# arithmetic, so a refactor that keeps it must keep these digests; they
# depend on the NumPy and LAPACK build, and a different build may round
# differently (README's test section says how to record them again).
# Every state runs in the coordinates of its sectors, one sector of size 8
# for the unstructured states; the GHZ-diagonal states of the structured
# corpus (noisy GHZ, noise-model and maximally mixed) take the closed form.
_PINNED_SOLVE_DIGESTS = {
    "unstructured":
        "adc1843afec9c27152184d7db704945cdcccafa50f2901d58dc401110d7c38f8",
    "structured":
        "4b8894533ccaea17c695bf1a9ea06bfbfc13c2d5d5babc994528b269387cc8b0",
    "unstructured sign-only":
        "20e28d9d43de4cc6347f838c8b8d0f099e345bcb553540c1df4cc8aa829ab6ca",
    "structured sign-only":
        "9d334c6e64746d3c883a9d065ee6b7857a11930fc1b48d0ca4ba03d85ab5ee5a",
}


def test_pinned_solves_are_bit_identical(monkeypatch):
    unstructured, unstructured_fast = _pinned_solves(
        _unstructured_states(), _mixed_random_state(1, 2), monkeypatch)
    structured = []
    start = None
    for p in np.linspace(0.40, 0.54, 8):  # a warm-started chain
        structured.append(ppt_mixer_witness(noisy_w(p), start=start))
        start = structured[-1].final_z
    solves, structured_fast = _pinned_solves(_structured_states(),
                                             noisy_w(0.6), monkeypatch)
    structured += solves
    assert (len(unstructured), len(structured)) == (16, 32)
    assert (len(unstructured_fast), len(structured_fast)) == (7, 11)
    digests = {
        "unstructured": _result_digest(unstructured),
        "structured": _result_digest(structured),
        "unstructured sign-only": _result_digest(unstructured_fast),
        "structured sign-only": _result_digest(structured_fast),
    }
    assert digests == _PINNED_SOLVE_DIGESTS


def test_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        ppt_mixer_witness(maximally_mixed(2))


@pytest.mark.parametrize("gap_tol", [float("nan"), 0.0, -1e-8,
                                     float("inf")])
def test_rejects_gap_tol_that_is_not_positive_and_finite(gap_tol):
    # Such a gap never stops a solve: it would run to MAX_ITERATIONS.
    with pytest.raises(ValueError, match=rf"gap_tol must be positive and "
                                         rf"finite, got {gap_tol}"):
        ppt_mixer_witness(noisy_ghz(0.6), gap_tol=gap_tol)


@pytest.mark.parametrize("bad", list(BAD_RAW_ARRAYS))
def test_rejects_bad_raw_arrays(bad):
    array, message = BAD_RAW_ARRAYS[bad]
    with pytest.raises(StateValidationError, match=message):
        ppt_mixer_witness(array)


def test_rejects_raw_non_states():
    m = random_density_matrix(np.random.default_rng(7), 3)
    skewed = m.copy()
    skewed[0, 1] += 1e-3
    negative = m - 0.5 * np.diag(np.eye(8)[1])
    for array, message in ((skewed, "Hermiticity"),
                           (negative, "minimum eigenvalue")):
        with pytest.raises(StateValidationError, match=message):
            ppt_mixer_witness(array)
    # Any trace is accepted.
    assert ppt_mixer_witness(2.0 * m, sign_only=True).iterations > 0


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


@pytest.mark.filterwarnings(FAILED_LAPACK_WARNING)
@pytest.mark.parametrize("sign_only", [False, True])
@pytest.mark.parametrize("entry", ["_eigh", "_eigvalsh", "_solve"])
@pytest.mark.parametrize("rho", [noisy_w(0.45), noisy_w(0.6),
                                 _mixed_random_state(3, 4)],
                         ids=["w-0.45", "w-0.6", "random"])
def test_failed_lapack_call_raises_at_the_bound_check(monkeypatch, rho, entry,
                                                      sign_only):
    # A failed call returns NaN, in the iteration (eigh, solve) or in the
    # bounds (eigh, eigvalsh); it must end as LinAlgError at the first bound
    # check it reaches, never as a sign.
    monkeypatch.setattr(sdp, entry, failing_entry(getattr(sdp, entry)))
    with pytest.raises(np.linalg.LinAlgError):
        ppt_mixer_witness(rho, sign_only=sign_only)


@pytest.mark.filterwarnings(FAILED_LAPACK_WARNING)
@pytest.mark.parametrize("early", [False, True])
@pytest.mark.parametrize("side, entry", [("upper", "_eigh"),
                                         ("upper", "_eigvalsh"),
                                         ("lower", "_eigvalsh")])
def test_a_side_whose_eigensolve_failed_raises(monkeypatch, side, entry,
                                               early):
    # Each side alone, built from certificates that clear the margin: a
    # GME state's witness (upper) and a biseparable state's PPT mixture
    # (lower).  A NaN there, such as one the shift max(0, -lambda_min) of
    # the witness would drop, must raise, not certify a sign.
    rho = noisy_w(0.6 if side == "upper" else 0.3)
    result = ppt_mixer_witness(rho)
    m = _entries(rho)
    eye = np.eye(8, dtype=complex)
    if side == "upper":
        xf = np.stack([result.witness,
                       *itertools.chain.from_iterable(result.decompositions)])
        gap = np.zeros((6, 8, 8), complex)
    else:
        xf = np.stack([eye / 8.0] + [eye / 16.0] * 6)
        mixture = np.stack(result.mixture)
        gap = sdp.STEP * np.stack([mixture, _transpose_stack(mixture)],
                                  axis=1).reshape(6, 8, 8)
    bounds = _certified_bounds(m, _sectors(m), xf, lambda: gap, eye,
                               early=early, sign_only=True)
    assert (bounds.upper < -CERTIFICATION_MARGIN if side == "upper"
            else bounds.lower > CERTIFICATION_MARGIN)
    monkeypatch.setattr(sdp, entry, failing_entry(getattr(sdp, entry)))
    with pytest.raises(np.linalg.LinAlgError):
        _certified_bounds(m, _sectors(m), xf, lambda: gap, eye, early=early,
                          sign_only=True)
