"""Acceptance suite: one test per acceptance criterion, at stated tolerances.

Run with ``pytest -v tests/test_acceptance.py -s`` to get one printed
PASS line per criterion (pytest's own -v report gives the same one line per
criterion, including failures).
"""

import time

import numpy as np
from superact import (
    fidelity_with_pure,
    ghz3,
    noise_model_state,
    noisy_ghz,
    noisy_w,
)
from superact.certify import (
    gme_concurrence_arguments,
    gme_concurrence_x,
    negativity,
    sle_quantify,
    w_witness_expectation,
)
from superact.distill import (
    analytic_distilled_noisy_ghz,
    distill_cnot,
    distill_tripartite,
)
from superact.linalg import jacobi_eigvalsh
from superact.sdp import (
    SIGN_NEGATIVE,
    ppt_mixer_witness,
)
from superact.states import _partial_transpose_array
from superact.thresholds import (
    PROPERTY_GME,
    PROPERTY_GME_AFTER,
    PROPERTY_SLE,
    PROPERTY_SLE_AFTER,
    PROPERTY_W_SLE,
    find_threshold,
)
from superact.coincidence import (
    emission_event,
    enumerate_same_order_events,
    is_eightfold_coincidence,
    preparation_schedule,
    route_photons,
    sampled_ghz_fidelity,
)
from superact.verify import verify_witness_certificate
from test_coincidence import REFERENCE_ROWS
from util import analytic_constants, random_density_matrix, random_unitary

NOISE_MODEL_PARAMS = ((0.9084, 0.9210), (0.9124, 0.9129))


def _report(line: str) -> None:
    print(f"[PASS] {line}")


def test_criterion_1_threshold_suite():
    """Five closed-form thresholds recovered by bisection within 1e-5,
    in under one minute total."""
    start = time.perf_counter()
    constants = analytic_constants()
    checks = [PROPERTY_GME, PROPERTY_SLE, PROPERTY_GME_AFTER,
              PROPERTY_SLE_AFTER, PROPERTY_W_SLE]
    found = {}
    for name in checks:
        report = find_threshold(name, tolerance=1e-6)
        exact = constants[name].value
        assert abs(report.crossing_p - exact) < 1e-5, (name, report)
        found[name] = report.crossing_p
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(f"criterion 1: thresholds {{{', '.join(f'{k}={v:.6f}' for k, v in found.items())}}} "
            f"all within 1e-5 in {elapsed:.1f}s")


def test_criterion_2_distillation_oracle():
    """The parity-check map (the masked entrywise product of the two
    copies, which ``test_distill.py`` checks against the Kraus-operator
    branch sum) matches the closed-form output entrywise and in fidelity,
    to 1e-12 on a 21-point grid."""
    for p in np.linspace(0.0, 1.0, 21):
        out = distill_tripartite(noisy_ghz(p), noisy_ghz(p))
        oracle = analytic_distilled_noisy_ghz(p)
        entry_gap = np.abs(np.asarray(out.state.entries)
                           - np.asarray(oracle.entries)).max()
        assert entry_gap < 1e-12, (p, entry_gap)
        f_prime = (25 * p * p + 6 * p + 1) / (24 * p * p + 8)
        fidelity_gap = abs(fidelity_with_pure(out.state, ghz3()) - f_prime)
        assert fidelity_gap < 1e-12, (p, fidelity_gap)
    _report("criterion 2: distillation output and fidelity match closed forms "
            "to 1e-12 on 21 grid points")


def test_criterion_3_superactivation_windows():
    """SLE window at p=0.36 on the modeled experimental states (their SLE
    boundary sits near 0.41, versus 1/3 for the ideal state); GME window at
    p=0.40 on the ideal noisy GHZ state."""
    for q, r in NOISE_MODEL_PARAMS:
        before = noise_model_state(0.36, q, r)
        assert sle_quantify(before).negativity <= 1e-10
        assert sle_quantify(before).min_eigenvalue > 0.0
        after = distill_tripartite(before, before).state
        assert sle_quantify(after).negativity > 1e-4

    before = noisy_ghz(0.40)
    assert gme_concurrence_x(before) == 0.0
    witness_before = ppt_mixer_witness(before)
    assert witness_before.converged
    assert witness_before.optimal_value >= -1e-6
    after = distill_tripartite(before, before).state
    assert gme_concurrence_x(after) > 0.0
    witness_after = ppt_mixer_witness(after)
    assert witness_after.certified_sign == SIGN_NEGATIVE
    _report("criterion 3: SLE absent/present around distillation at p=0.36 "
            "(modeled states), GME absent/present at p=0.40")


def test_criterion_4_noise_model_replication():
    """Concurrence inner arguments and no-SLE boundaries of the two modeled
    experimental states."""
    args = gme_concurrence_arguments(noise_model_state(0.5, *NOISE_MODEL_PARAMS[0]))
    assert abs(args[0] - (-0.0192)) < 5e-4
    assert abs(args[1] - (-0.4255)) < 5e-4
    assert gme_concurrence_x(noise_model_state(0.5, *NOISE_MODEL_PARAMS[0])) == 0.0

    boundaries = {}
    for (q, r), reported in zip(NOISE_MODEL_PARAMS, (0.4095, 0.4103)):
        def margin(p):
            return -sle_quantify(noise_model_state(p, q, r)).min_eigenvalue
        lo, hi = 0.37, 0.45
        assert margin(lo) < 0.0 < margin(hi)
        while (hi - lo) / 2 > 2.5e-4:
            mid = 0.5 * (lo + hi)
            if margin(mid) > 0.0:
                hi = mid
            else:
                lo = mid
        crossing = 0.5 * (lo + hi)
        assert abs(crossing - reported) < 1e-3, (q, r, crossing)
        boundaries[(q, r)] = crossing
    _report("criterion 4: inner arguments (-0.0192, -0.4255) within 5e-4; "
            f"no-SLE boundaries {tuple(round(b, 5) for b in boundaries.values())} "
            "within 1e-3 of (0.4095, 0.4103)")


def test_criterion_5_w_state_suite():
    """PPT-mixer sign changes at 0.479/0.519, witness sign pattern at
    p=0.6, exact 3/11 SLE threshold, and the per-instance SDP budget."""
    start = time.perf_counter()

    def mixer_margin(state_factory, p):
        result = ppt_mixer_witness(state_factory(p))
        assert result.converged
        return -result.optimal_value

    crossings = {}
    for label, factory, reported in (
            ("noisy-W", noisy_w, 0.479),
            ("distilled-W", lambda p: distill_cnot(noisy_w(p), noisy_w(p)).state,
             0.519)):
        lo, hi = reported - 0.02, reported + 0.02
        assert mixer_margin(factory, lo) < 0.0 < mixer_margin(factory, hi)
        while (hi - lo) / 2 > 1.5e-3:
            mid = 0.5 * (lo + hi)
            if mixer_margin(factory, mid) > 0.0:
                hi = mid
            else:
                lo = mid
        crossing = 0.5 * (lo + hi)
        assert abs(crossing - reported) < 5e-3, (label, crossing)
        crossings[label] = crossing

    assert w_witness_expectation(noisy_w(0.6)) > 0.0
    assert w_witness_expectation(distill_cnot(noisy_w(0.6), noisy_w(0.6)).state) < 0.0

    report = find_threshold(PROPERTY_W_SLE, tolerance=1e-6)
    assert abs(report.crossing_p - 3.0 / 11.0) < 1e-5

    # Per-instance budget: the bisections above solved ~20 programs.
    elapsed = time.perf_counter() - start
    assert elapsed / 20 < 30.0
    _report(f"criterion 5: W sign changes at {crossings['noisy-W']:.4f}/"
            f"{crossings['distilled-W']:.4f} (0.479/0.519 +- 5e-3), witness "
            f"pattern at p=0.6, W-SLE=3/11, SDP well under 30s/instance")


def test_criterion_6_coincidence_suite():
    """Exact reproduction of the double-pair routing table plus an
    exhaustive zero-false-accept enumeration."""
    for branches, expected, verdict in REFERENCE_ROWS:
        pattern = route_photons(emission_event(branches))
        assert pattern.counts == expected
        assert is_eightfold_coincidence(pattern) is verdict
    report = enumerate_same_order_events()
    assert report.false_accepts() == 0
    assert report.class_counts()["g1-g2-g3-g4"][1] == 8
    _report(f"criterion 6: all {len(REFERENCE_ROWS)} table rows exact; "
            f"{len(report.rows)} enumerated events, zero false accepts")


def test_criterion_7_preparation_and_estimation():
    """Schedule mixture exact to 1e-14; million-shot fidelity estimate of
    the p=0.6 state within three standard deviations of 0.65."""
    for p in np.linspace(0.0, 1.0, 11):
        mixture = preparation_schedule(p).effective_mixture()
        delta = np.abs(np.asarray(mixture.entries)
                       - np.asarray(noisy_ghz(p).entries)).max()
        assert delta < 1e-14, (p, delta)
    estimate, sigma = sampled_ghz_fidelity(noisy_ghz(0.6), 10 ** 6, 2026)
    assert abs(estimate - 0.65) < 3.0 * sigma
    _report(f"criterion 7: schedule mixtures exact to 1e-14; sampled fidelity "
            f"{estimate:.5f} within {abs(estimate - 0.65) / sigma:.2f} sigma of 0.65")


def test_criterion_8_excluded_experimental_values():
    """Raw-experiment quantities (measured fidelities 0.612/0.572,
    visibilities, count rates, and values derived from unpublished
    tomographic reconstructions) are out of scope by construction; the
    engine asserts nothing about them and the surrounding criteria stand in
    for them."""
    _report("criterion 8: experimental-only values excluded by design "
            "(no assertions made)")


def test_criterion_9_property_suites():
    """Cross-module invariants: constructor validity, partial-transpose
    involution, certificate self-verification, local-unitary invariance of
    negativity, and deterministic seeding."""
    rng = np.random.default_rng(123)

    for p in (0.0, 0.37, 1.0):
        for rho in (noisy_ghz(p), noisy_w(p), noise_model_state(p, 0.93, 0.88)):
            m = np.asarray(rho.entries)
            assert np.abs(m - m.conj().T).max() <= 1e-10
            assert abs(np.trace(m).real - 1.0) <= 1e-10
            assert rho.eigenvalues()[0] >= -1e-9

    for _ in range(100):
        n = int(rng.integers(2, 4))
        rho = random_density_matrix(rng, n)
        party = (int(rng.integers(n)),)
        pt = _partial_transpose_array(rho, n, party)
        assert np.abs(_partial_transpose_array(pt, n, party) - rho).max() < 1e-15
        assert abs(np.trace(pt) - np.trace(rho)) < 1e-14

    result = ppt_mixer_witness(noisy_w(0.6))
    assert verify_witness_certificate(result, noisy_w(0.6))

    for _ in range(10):
        rho = random_density_matrix(rng, 2)
        u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
        assert abs(negativity(u @ rho @ u.conj().T, (1,))
                   - negativity(rho, (1,))) < 1e-10

    a = sampled_ghz_fidelity(noisy_ghz(0.5), 10 ** 4, 7)
    b = sampled_ghz_fidelity(noisy_ghz(0.5), 10 ** 4, 7)
    assert a == b

    for p in np.linspace(0.0, 1.0, 21):
        eigs = jacobi_eigvalsh(np.asarray(noisy_ghz(p).entries)[None])[0]
        expected = np.sort(np.concatenate([np.full(7, (1 - p) / 8),
                                           [(1 + 7 * p) / 8]]))
        assert np.abs(eigs - expected).max() < 1e-12
    _report("criterion 9: cross-module property suites green")
