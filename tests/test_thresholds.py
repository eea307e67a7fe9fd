import math
import re

import numpy as np
import pytest

import superact.certify as certify
import superact.sdp as sdp
import superact.thresholds as thresholds
from superact import (
    DensityMatrix,
    fidelity_with_pure,
    ghz3,
    noise_model_state,
    noisy_ghz,
    noisy_w,
)
from superact.cli import main
from superact.distill import distill_tripartite
from superact.sdp import (
    SIGN_INDETERMINATE,
    SIGN_NEGATIVE,
    SIGN_NONNEGATIVE,
    ppt_mixer_witness,
)
from superact.thresholds import (
    PROPERTY_GME,
    PROPERTY_GME_AFTER,
    PROPERTY_SLE,
    PROPERTY_SLE_AFTER,
    PROPERTY_W_GME,
    PROPERTY_W_GME_AFTER,
    PROPERTY_W_SLE,
    ThresholdReport,
    certifying_margin,
    default_tolerance,
    fidelity_curves,
    find_threshold,
)
from superact.verify import verify_sle_certificate, verify_witness_certificate
from util import (
    FAILED_LAPACK_WARNING,
    analytic_constants,
    failing_entry,
    limit_margin_evaluations,
)


def test_analytic_constants_values_and_provenance():
    consts = analytic_constants()
    assert consts[PROPERTY_GME].value == pytest.approx(3 / 7)
    assert consts[PROPERTY_SLE].value == pytest.approx(1 / 3)
    assert consts[PROPERTY_GME_AFTER].value == pytest.approx(0.3022, abs=1e-4)
    assert consts[PROPERTY_SLE_AFTER].value == pytest.approx(0.2612, abs=1e-4)
    assert consts[PROPERTY_W_SLE].value == pytest.approx(3 / 11)
    infinite = consts["GME-infinite-copy"]
    assert infinite.value == 0.2
    assert infinite.provenance == "cited-not-computed"
    assert all(c.provenance == "closed-form" for name, c in consts.items()
               if name != "GME-infinite-copy")


@pytest.mark.parametrize("name,p_range", [
    (PROPERTY_GME, (0.3, 0.6)),
    (PROPERTY_GME_AFTER, (0.2, 0.4)),
    (PROPERTY_W_SLE, (0.15, 0.45)),
])
def test_fast_thresholds_match_constants(name, p_range):
    report = find_threshold(name, p_range, tolerance=1e-6)
    exact = analytic_constants()[name].value
    assert abs(report.crossing_p - exact) <= 2e-6
    assert report.bracket_width <= 1e-6
    assert report.evaluations <= 10  # ITP steps; bisection took 19-20


def test_sle_thresholds_match_constants():
    for name in (PROPERTY_SLE, PROPERTY_SLE_AFTER):
        report = find_threshold(name, tolerance=1e-6)
        exact = analytic_constants()[name].value
        assert abs(report.crossing_p - exact) <= 2e-6
        assert report.bracket_width <= 1e-6
        assert report.evaluations <= 10


def test_report_brackets_a_sign_change():
    report = find_threshold(PROPERTY_GME, (0.3, 0.6), tolerance=1e-6)
    margin = certifying_margin(PROPERTY_GME)
    lo = report.crossing_p - report.bracket_width
    hi = report.crossing_p + report.bracket_width
    assert margin(lo) < 0.0 < margin(hi)
    assert report.evaluations > 2


def test_margin_positive_means_property_present():
    assert certifying_margin(PROPERTY_GME)(0.6) > 0
    assert certifying_margin(PROPERTY_GME)(0.3) < 0
    assert certifying_margin(PROPERTY_W_SLE)(0.3) > 0
    assert certifying_margin(PROPERTY_W_SLE)(0.2) < 0


def test_no_sign_change_raises():
    with pytest.raises(ValueError):
        find_threshold(PROPERTY_GME, (0.5, 0.6), tolerance=1e-4)


def test_invalid_range_and_tolerance():
    with pytest.raises(ValueError):
        find_threshold(PROPERTY_GME, (0.6, 0.3))
    with pytest.raises(ValueError):
        find_threshold(PROPERTY_GME, (0.3, 0.6), tolerance=-1.0)
    with pytest.raises(ValueError):
        find_threshold("unknown-property")


def test_non_finite_tolerance_rejected():
    for tolerance in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="positive and finite"):
            find_threshold(PROPERTY_GME, (0.3, 0.6), tolerance=tolerance)


@pytest.mark.parametrize("tolerance", [1e-17, 1e-300])
def test_tolerance_below_float_resolution_raises(monkeypatch, tolerance):
    # Once lo and hi are adjacent floats their midpoint is one of them and
    # the bracket stops shrinking above the tolerance.
    limit_margin_evaluations(monkeypatch)
    with pytest.raises(ValueError, match=r"GME: tolerance .* float resolution "
                                         r"at p = 0\.428"):
        find_threshold(PROPERTY_GME, tolerance=tolerance)


# Synthetic margins of p on (0, 1), each increasing through one sign change.
_SYNTHETIC_MARGINS = {
    "step": lambda p: -1.0 if p < 0.3 else 10.0,
    # Never exactly zero: the root lies between 0.61 and the float below.
    "linear": lambda p: p - 0.61 + 1e-20,
    "flat-then-steep": lambda p: -1e-3 + max(p - 0.9, 0.0) ** 3 * 1e4,
}


def _synthetic(monkeypatch, margin):
    """A property named "synthetic" on (0, 1) whose margin is ``margin``;
    returns the list of (p, value) pairs it is evaluated at."""
    points = []

    def evaluate(label, p, rho, start):
        points.append((p, margin(p)))
        return points[-1][1], start

    monkeypatch.setitem(thresholds._PROPERTIES, "synthetic",
                        ((0.0, 1.0), lambda p: p, evaluate))
    return points


@pytest.mark.parametrize("tolerance", [1e-3, 1e-6, 1e-9, 1e-12])
@pytest.mark.parametrize("shape", list(_SYNTHETIC_MARGINS))
def test_itp_takes_at_most_one_step_more_than_bisection(monkeypatch, shape,
                                                         tolerance):
    # ITP keeps bisection's worst case plus n0 = 1 step, and its final
    # bracket's ends are evaluated points on either side of the sign change.
    points = _synthetic(monkeypatch, _SYNTHETIC_MARGINS[shape])
    report = find_threshold("synthetic", tolerance=tolerance)
    bisection_steps = math.ceil(math.log2(1.0 / (2.0 * tolerance)))
    assert report.evaluations == len(points)
    assert report.evaluations <= 2 + bisection_steps + thresholds.ITP_N0
    assert report.bracket_width <= tolerance
    lo = max(p for p, value in points if value < 0.0)
    hi = min(p for p, value in points if value > 0.0)
    assert (report.crossing_p, report.bracket_width) == (0.5 * (lo + hi),
                                                         0.5 * (hi - lo))


def test_itp_shrinks_around_an_exact_zero(monkeypatch):
    # The regula falsi point of p - 1/2 on (0, 1) is the midpoint, where the
    # margin is exactly zero: the bracket shrinks to the tolerance around it.
    _synthetic(monkeypatch, lambda p: p - 0.5)
    assert find_threshold("synthetic", tolerance=1e-6) == ThresholdReport(
        "synthetic", 0.5, 1e-6, 3)


@pytest.mark.parametrize("shape", ["step", "linear"])
def test_itp_refuses_a_tolerance_below_float_resolution(monkeypatch, shape):
    limit_margin_evaluations(monkeypatch)
    _synthetic(monkeypatch, _SYNTHETIC_MARGINS[shape])
    with pytest.raises(ValueError, match=r"synthetic: tolerance 1e-17 is "
                                         r"below the float resolution"):
        find_threshold("synthetic", tolerance=1e-17)


def test_default_tolerances():
    assert default_tolerance(PROPERTY_GME) == 1e-6
    assert default_tolerance(PROPERTY_W_GME) == 1e-3
    assert default_tolerance(PROPERTY_W_GME_AFTER) == 1e-3
    assert default_tolerance(PROPERTY_W_SLE) == 1e-6
    with pytest.raises(ValueError, match="unknown property"):
        default_tolerance("W-GHZ")


def test_sdp_backed_thresholds_near_reported_values():
    w_gme = find_threshold(PROPERTY_W_GME)
    assert 0.474 <= w_gme.crossing_p <= 0.484
    w_gme_after = find_threshold(PROPERTY_W_GME_AFTER)
    assert 0.514 <= w_gme_after.crossing_p <= 0.524


def test_sdp_bisection_uses_few_sign_only_iterations(monkeypatch):
    # The 18 default bisection evaluations of the two SDP-backed properties
    # each stop once certified bounds fix the sign, each solve started
    # between the final splitting variables of its nearest evaluated points
    # and checked at its first iterates: 107 iterations in all, at most 20
    # per solve, when these bounds were set.  Without the early checks they
    # took 190, from the previous solve's final z 185, with neither 200,
    # and from cold starts 450, at most 70.
    solves = []
    solver = thresholds.ppt_mixer_witness

    def recording(rho, *args, **kwargs):
        result = solver(rho, *args, **kwargs)
        solves.append((rho, kwargs.get("sign_only"), result))
        return result

    monkeypatch.setattr(thresholds, "ppt_mixer_witness", recording)
    reports = [find_threshold(name)
               for name in (PROPERTY_W_GME, PROPERTY_W_GME_AFTER)]
    assert [r.evaluations for r in reports] == [9, 9]
    assert len(solves) == 18
    assert all(sign_only for _, sign_only, _ in solves)
    assert all(r.certified_sign != SIGN_INDETERMINATE for _, _, r in solves)
    assert all(verify_witness_certificate(r, rho) for rho, _, r in solves)
    iterations = [r.iterations for _, _, r in solves]
    assert sum(iterations) <= 150
    assert max(iterations) <= 30


def test_every_bisection_point_carries_the_certificate_of_its_sign(
        monkeypatch):
    # Each solve of the two default SDP-backed bisections returns exactly
    # one certificate, the side that fixes its sign: a witness for a
    # negative sign, a PPT mixture for a nonnegative one.  The margin is
    # minus the bound of that side.
    solves = []
    solver = thresholds.ppt_mixer_witness

    def recording(rho, *args, **kwargs):
        solves.append((rho, solver(rho, *args, **kwargs)))
        return solves[-1][1]

    monkeypatch.setattr(thresholds, "ppt_mixer_witness", recording)
    for name in (PROPERTY_W_GME, PROPERTY_W_GME_AFTER):
        find_threshold(name)
    signs = [r.certified_sign for _, r in solves]
    assert len(solves) == 18
    assert set(signs) == {SIGN_NEGATIVE, SIGN_NONNEGATIVE}
    for rho, result in solves:
        negative = result.certified_sign == SIGN_NEGATIVE
        witness_side = (result.witness, result.decompositions,
                        result.residuals)
        assert all((part is not None) == negative for part in witness_side)
        assert (result.mixture is None) == negative
        assert (result.lower_bound == -np.inf) == negative
        assert (result.optimal_value == np.inf) == (not negative)
        assert verify_witness_certificate(result, rho)
    for p, sign in ((0.4, SIGN_NONNEGATIVE), (0.6, SIGN_NEGATIVE)):
        rho = noisy_w(p)
        result = ppt_mixer_witness(rho, sign_only=True)
        assert result.certified_sign == sign
        value, _ = thresholds._ppt_mixer(PROPERTY_W_GME, p, rho, None)
        assert value == -(result.optimal_value if sign == SIGN_NEGATIVE
                          else result.lower_bound)


def test_bisections_validate_only_the_distillation_outputs(monkeypatch):
    # The noisy families are states by construction and skip DensityMatrix's
    # checks, so of the seven default bisections only W-GME-after-distill
    # validates: its distill_cnot output, once per evaluation.  The families'
    # cached projectors are validated when first built, here beforehand.
    noise_model_state(0.5, 0.5, 0.5)
    noisy_w(0.5)
    validations = []
    validate = DensityMatrix.__post_init__

    def counting(self):
        validations.append(self.n_qubits)
        validate(self)

    monkeypatch.setattr(DensityMatrix, "__post_init__", counting)
    counts = {}
    for name in thresholds.DEFAULT_RANGES:
        validations.clear()
        report = find_threshold(name)
        counts[name] = (len(validations), report.evaluations)
    assert counts.pop(PROPERTY_W_GME_AFTER) == (9, 9)
    assert all(validated == 0 for validated, _ in counts.values())
    assert len(counts) == 6


# Bisections of the two SDP-backed properties: the defaults, and ranges and
# tolerances that reach other midpoints, near and far from the crossings.
_SDP_BISECTIONS = [
    (PROPERTY_W_GME, None, None),
    (PROPERTY_W_GME_AFTER, None, None),
    (PROPERTY_W_GME, (0.42, 0.55), 1e-4),
    (PROPERTY_W_GME, (0.3, 0.9), 3e-3),
    (PROPERTY_W_GME, (0.45, 0.5), 5e-4),
    (PROPERTY_W_GME_AFTER, (0.5, 0.56), 5e-4),
    (PROPERTY_W_GME_AFTER, (0.46, 0.9), 2e-3),
    (PROPERTY_W_GME_AFTER, (0.45, 0.6), 2e-4),
]


def test_warm_starts_give_the_cold_brackets(monkeypatch):
    # A start changes only when a solve stops: every bisection ends on the
    # report that cold starts give, with fewer iterations in all, and every
    # warm-started solve's certificates verify.
    solver = thresholds.ppt_mixer_witness

    def bisections(cold):
        solves = []

        def recording(rho, *, start, **kwargs):
            solves.append((rho, solver(rho, start=None if cold else start,
                                       **kwargs)))
            return solves[-1][1]

        monkeypatch.setattr(thresholds, "ppt_mixer_witness", recording)
        return [find_threshold(*case) for case in _SDP_BISECTIONS], solves

    warm, warm_solves = bisections(cold=False)
    cold, cold_solves = bisections(cold=True)
    assert warm == cold
    assert (len(warm_solves) == len(cold_solves)
            == sum(r.evaluations for r in cold))
    assert (sum(r.iterations for _, r in warm_solves)
            < sum(r.iterations for _, r in cold_solves))
    assert all(verify_witness_certificate(r, rho) for rho, r in warm_solves)


@pytest.mark.parametrize("state, other", [
    (lambda: noisy_w(0.45), lambda: noisy_ghz(0.6)),
    (lambda: noisy_w(0.52), lambda: noisy_ghz(0.3)),
    (lambda: thresholds._cnot_distilled_w(0.5), lambda: noisy_w(0.6)),
    (lambda: thresholds._cnot_distilled_w(0.54), lambda: noisy_w(0.4)),
])
def test_a_start_from_another_state_certifies_the_cold_sign(state, other):
    # The final splitting variable of another state's solve (for a noisy
    # GHZ state, one with other symmetry sectors) is a poor start: the
    # solve still certifies the sign a cold start does, with verifiable
    # certificates.
    rho = state()
    cold = ppt_mixer_witness(rho, sign_only=True)
    start = ppt_mixer_witness(other(), sign_only=True).final_z
    warm = ppt_mixer_witness(rho, sign_only=True, start=start)
    assert warm.certified_sign == cold.certified_sign != SIGN_INDETERMINATE
    assert verify_witness_certificate(warm, rho)


def test_warm_starts_stay_inside_one_bisection(monkeypatch):
    # Each find_threshold call starts its first solve cold: a W-GME
    # bisection repeats exactly, solve for solve, with another SDP-backed
    # bisection run in between.
    iterations = []
    solver = thresholds.ppt_mixer_witness

    def recording(*args, **kwargs):
        result = solver(*args, **kwargs)
        iterations.append(result.iterations)
        return result

    monkeypatch.setattr(thresholds, "ppt_mixer_witness", recording)
    runs = []
    for name in (PROPERTY_W_GME, PROPERTY_W_GME_AFTER, PROPERTY_W_GME):
        iterations.clear()
        runs.append((find_threshold(name), list(iterations)))
    assert runs[0] == runs[2]
    assert len(runs[0][1]) == len(runs[1][1]) == 9


@pytest.mark.parametrize("name,max_hull_points", [
    # Measured when these budgets were set: 432 hull points over each
    # property's 8 band searches, none of which reached the grid.  Bisection
    # took 976 and 848 over 20 and 19 searches, and the subgrid, see-saw
    # step and cone-program certificate that the band search replaced
    # solved 1294 and 1229 grid and stepped points.
    pytest.param(PROPERTY_SLE, 450, id=PROPERTY_SLE),
    pytest.param(PROPERTY_SLE_AFTER, 450, id=PROPERTY_SLE_AFTER),
])
def test_sle_bisection_objective_budget(monkeypatch, name, max_hull_points):
    hull, solved = [], []
    hull_lowest, lowest = certify._hull_lowest, certify._lowest_eigenvalues

    def recording_hull(pairs):
        hull.append(len(pairs))
        return hull_lowest(pairs)

    def recording(pairs, weights):
        solved.append(weights.size)
        return lowest(pairs, weights)

    monkeypatch.setattr(certify, "_hull_lowest", recording_hull)
    monkeypatch.setattr(certify, "_lowest_eigenvalues", recording)
    report = find_threshold(name)
    # Each search solves its reported point alone, none the grid.
    assert solved == [1] * report.evaluations
    assert sum(hull) <= max_hull_points


def test_w_sle_bracket_ends_carry_certificates():
    # The W-SLE margin assumes that projecting qubit 2 onto |0> is the
    # optimal localization.  At the final bracket's ends a sign-only search
    # over every projection backs that: below the crossing its bands prove
    # no projection leaves an NPT pair, above it a projection does.
    report = find_threshold(PROPERTY_W_SLE)
    lo = report.crossing_p - report.bracket_width
    hi = report.crossing_p + report.bracket_width
    below = certify.sle_quantify(noisy_w(lo), sign_only=True)
    assert below.certificate is not None
    assert verify_sle_certificate(below.certificate, noisy_w(lo))
    above = certify.sle_quantify(noisy_w(hi), sign_only=True)
    assert above.certificate is None
    assert certify.sle_quantifier_at(
        noisy_w(hi), None, above.theta, above.phi) < -1e-12


def test_w_sle_margin_agrees_with_the_full_sle_search(monkeypatch):
    # The W-SLE margin takes the computational-basis branch as the optimal
    # localization; the search over every projection must agree with it at
    # each point of the default search, and so must the SLE objective at
    # theta = 0, which the margin evaluates in one 4x4 eigensolve of its own.
    points = []
    factory = thresholds.certifying_margin

    def recording_factory(name):
        margin = factory(name)

        def recording(p):
            points.append((p, margin(p)))
            return points[-1][1]

        return recording

    monkeypatch.setattr(thresholds, "certifying_margin", recording_factory)
    find_threshold(PROPERTY_W_SLE)
    assert len(points) == 8
    for p, value in points:
        branch = -certify.sle_quantifier_at(noisy_w(p), None, 0.0, 0.0)
        assert value == pytest.approx(branch, rel=0.0, abs=1e-15)
        searched = -certify.sle_quantify(noisy_w(p),
                                         pair=(0, 1)).min_eigenvalue
        assert np.sign(value) == np.sign(searched) != 0.0
        assert value == pytest.approx(searched, rel=0.0, abs=1e-12)


# A bound as the refusal prints it, finite: an indeterminate result holds
# both sides.
_FINITE = r"-?\d\.\d{6}e[-+]\d\d"


@pytest.mark.parametrize("name,p", [
    pytest.param(PROPERTY_W_GME, "0.47900390625", id=PROPERTY_W_GME),
    pytest.param(PROPERTY_W_GME_AFTER, "0.5189208984375",
                 id=PROPERTY_W_GME_AFTER),
])
def test_sdp_bisection_refuses_uncertified_signs(name, p):
    # At 3e-5 the bisection reaches a point whose optimum lies inside the
    # 1e-5 certification margin; it must stop there, not guess the sign.
    # The point is pinned: a warm start may change when a solve stops,
    # never which bisection point is refused.  The refusal prints both
    # bounds.
    with pytest.raises(ValueError,
                       match=rf"{name}: .* at p={re.escape(p)} is not "
                             rf"certified: the optimum lies in "
                             rf"\[{_FINITE}, {_FINITE}\]"):
        find_threshold(name, tolerance=3e-5)


def test_threshold_ordering_of_the_window_diagram():
    sle_after = find_threshold(PROPERTY_SLE_AFTER, tolerance=1e-5).crossing_p
    gme_after = find_threshold(PROPERTY_GME_AFTER, tolerance=1e-5).crossing_p
    sle = find_threshold(PROPERTY_SLE, tolerance=1e-5).crossing_p
    gme = find_threshold(PROPERTY_GME, tolerance=1e-5).crossing_p
    assert sle_after < gme_after < sle < gme


def test_fidelity_curves_endpoints_and_pipeline_agreement():
    table = fidelity_curves([0.0, 0.5, 1.0])
    assert np.allclose(table[0], [0.0, 0.125, 0.125, 0.25])
    assert np.allclose(table[2], [1.0, 1.0, 1.0, 1.0])
    assert table[1, 2] == pytest.approx(0.7321428571, abs=1e-9)
    for p in np.linspace(0.0, 1.0, 9):
        f1 = fidelity_curves([p])[0, 2]
        out = distill_tripartite(noisy_ghz(p), noisy_ghz(p))
        assert f1 == pytest.approx(fidelity_with_pure(out.state, ghz3()),
                                   abs=1e-12)


def test_fidelity_curves_rejects_out_of_range():
    with pytest.raises(ValueError):
        fidelity_curves([1.2])
    for bad in ([np.nan], [0.5, np.nan], [-np.inf]):
        with pytest.raises(ValueError, match="must lie in"):
            fidelity_curves(bad)


def test_csv_emission_round_trippable(capsys):
    assert main(["sweep", "--curves", "0:1:5"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "p,F_initial,F1,F2"
    assert len(lines) == 6
    value = float(lines[2].split(",")[2])
    assert value == fidelity_curves([0.25])[0, 2]  # bit-exact round trip

    assert main(["sweep", "--thresholds", "GME"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "property,crossing_p,bracket_width,evaluations"
    name, crossing, width, evaluations = lines[1].split(",")
    assert find_threshold(PROPERTY_GME) == ThresholdReport(
        name, float(crossing), float(width), int(evaluations))


@pytest.mark.filterwarnings(FAILED_LAPACK_WARNING)
@pytest.mark.parametrize("name, module", [
    (PROPERTY_W_SLE, thresholds),
    (PROPERTY_SLE, certify),
    (PROPERTY_W_GME, sdp),
])
def test_failed_lapack_call_raises_from_find_threshold(monkeypatch, name,
                                                       module):
    # A margin read from a failed LAPACK call must raise LinAlgError, never
    # narrow a bracket or report no sign change.
    monkeypatch.setattr(module, "_eigvalsh", failing_entry(module._eigvalsh))
    with pytest.raises(np.linalg.LinAlgError):
        find_threshold(name)
