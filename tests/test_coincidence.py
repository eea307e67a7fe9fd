import hashlib
import json
from itertools import product

import numpy as np
import pytest
from scipy import stats

import superact.coincidence as coincidence
from superact import ghz3, maximally_mixed, noisy_ghz, noisy_w
from superact.cli import main
from superact.coincidence import (
    ORDER_DOUBLE_PAIR,
    ORDER_IDEAL,
    DetectionPattern,
    EmissionEvent,
    emission_event,
    enumerate_same_order_events,
    is_eightfold_coincidence,
    preparation_schedule,
    route_photons,
    same_order_pair_counts,
    sample_counts,
    sampled_ghz_fidelity,
    source_pair,
)

# Reference routing table: branch assignment per source, terminal counts
# (t1, t2, a3, a4, b3, b4, c3, c4), and the eight-fold verdict.
REFERENCE_ROWS = [
    ((("H",), ("H",), ("H",), ("H",)), (1, 1, 1, 1, 1, 1, 1, 1), True),
    ((("V",), ("V",), ("V",), ("V",)), (1, 1, 1, 1, 1, 1, 1, 1), True),
    ((("H",), ("H", "H"), (), ("H",)), (1, 1, 1, 0, 1, 2, 2, 0), False),
    ((("H",), ("H", "H"), (), ("V",)), (1, 1, 1, 0, 0, 2, 3, 0), False),
    ((("H",), ("H", "V"), (), ("H",)), (1, 1, 1, 1, 2, 1, 1, 0), False),
    ((("V",), ("H", "V"), (), ("V",)), (1, 1, 0, 1, 1, 1, 2, 1), False),
    ((("H",), ("H", "V"), (), ("V",)), (1, 1, 1, 1, 1, 1, 2, 0), False),
    ((("V",), ("H", "V"), (), ("H",)), (1, 1, 0, 1, 2, 1, 1, 1), False),
]


# ---------------------------------------------------------------------------
# routing

@pytest.mark.parametrize("branches,expected,verdict", REFERENCE_ROWS)
def test_reference_routing_rows(branches, expected, verdict):
    event = emission_event(branches)
    pattern = route_photons(event)
    assert pattern.counts == expected
    assert is_eightfold_coincidence(pattern) is verdict


def test_empty_event_routes_to_all_zeros():
    event = EmissionEvent(pairs=((), (), (), ()), order=ORDER_DOUBLE_PAIR)
    assert route_photons(event).counts == (0,) * 8


def test_event_validates_pair_modes():
    bad = ((("t1", "H"), ("c1", "H")),)  # H-branch modes of source 1 are (t1, a1)
    with pytest.raises(ValueError):
        EmissionEvent(pairs=(bad, (), (), ()), order=ORDER_IDEAL)
    mixed = ((("t1", "H"), ("a1", "V")),)
    with pytest.raises(ValueError):
        EmissionEvent(pairs=(mixed, (), (), ()), order=ORDER_IDEAL)


def test_detection_pattern_validation():
    with pytest.raises(ValueError):
        DetectionPattern((1, 1))
    with pytest.raises(ValueError):
        DetectionPattern((1,) * 7 + (-1,))
    assert not is_eightfold_coincidence(DetectionPattern((0,) * 8))


def test_source_pair_polarization_correlated():
    for source in range(1, 5):
        for branch in "HV":
            (m1, p1), (m2, p2) = source_pair(source, branch)
            assert p1 == p2 == branch
            assert m1 != m2


# ---------------------------------------------------------------------------
# exhaustive same-order enumeration

def test_same_order_classes_cover_all_distributions():
    counts = same_order_pair_counts()
    assert (1, 1, 1, 1) in counts
    assert (1, 2, 0, 1) in counts and (1, 0, 2, 1) in counts
    assert len(counts) == 19
    assert all(sum(c) == 4 for c in counts)


def test_enumeration_has_zero_false_accepts():
    report = enumerate_same_order_events()
    assert report.false_accepts() == 0
    summary = report.class_counts()
    # ideal events pass (the parity-matched branch pairs), nothing else does
    assert summary["g1-g2-g3-g4"][1] > 0
    for label, (_, passes) in summary.items():
        if label != "g1-g2-g3-g4":
            assert passes == 0


def test_ideal_class_passes_under_every_hwp_config():
    report = enumerate_same_order_events()
    passes_per_config = {}
    for row in report.rows:
        if row.class_label == "g1-g2-g3-g4" and row.coincidence:
            passes_per_config.setdefault(row.hwp.label(), 0)
            passes_per_config[row.hwp.label()] += 1
    assert len(passes_per_config) == 4
    assert all(v == 2 for v in passes_per_config.values())


def test_enumeration_csv_mirrors_reference_rows(capsys):
    assert main(["coincidence"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == ("class,hwp,epr1,epr2,epr3,epr4,"
                        "t1,t2,a3,a4,b3,b4,c3,c4,coincidence")
    assert ('g1-g2-g3-g4,"M2=out,M3=out",H_t1 H_a1,H_b1 H_c1,H_a2 H_c2,'
            "H_t2 H_b2,1,1,1,1,1,1,1,1,yes") in lines
    assert ('g1-g2^2-0-g4,"M2=out,M3=out",H_t1 H_a1,H_b1 H_c1 H_b1 H_c1,0,'
            "H_t2 H_b2,1,1,1,0,1,2,2,0,no") in lines


# ---------------------------------------------------------------------------
# preparation schedule

def test_schedule_probabilities():
    sched = preparation_schedule(0.5)
    assert sched.rows[0].probability == pytest.approx(2 / 3)
    for row in sched.rows[1:]:
        assert row.probability == pytest.approx(1 / 12)
    assert sum(r.probability for r in sched.rows) == pytest.approx(1.0)


def test_schedule_pure_limit():
    sched = preparation_schedule(1.0)
    assert sched.rows[0].label == "GHZ3"
    assert sched.rows[0].probability == pytest.approx(1.0)
    assert all(r.probability == 0.0 for r in sched.rows[1:])


def test_schedule_mixture_reproduces_noisy_ghz():
    for p in np.linspace(0.0, 1.0, 11):
        mixture = preparation_schedule(p).effective_mixture()
        delta = np.abs(np.asarray(mixture.entries)
                       - np.asarray(noisy_ghz(p).entries)).max()
        assert delta < 1e-14


def test_schedule_rejects_out_of_range():
    with pytest.raises(ValueError):
        preparation_schedule(-0.1)


def test_schedule_csv_shape(capsys):
    assert main(["coincidence", "--schedule", "0.5"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "component,M1,M2,M3,probability"
    assert len(lines) == 6
    assert lines[1].startswith("GHZ3,in,out,out,")


# ---------------------------------------------------------------------------
# Born sampling

def test_sample_counts_ghz_support():
    hist = sample_counts(ghz3().projector(), "zzz", 20000, 11)
    assert sum(hist.values()) == 20000
    support = {k for k, v in hist.items() if v > 0}
    assert support == {"000", "111"}
    assert abs(hist["000"] - 10000) < 400  # ~4 sigma


def test_sample_counts_deterministic_under_seed():
    a = sample_counts(noisy_ghz(0.3), "xyz", 5000, 99)
    b = sample_counts(noisy_ghz(0.3), "xyz", 5000, 99)
    assert a == b
    c = sample_counts(noisy_ghz(0.3), "xyz", 5000, 100)
    assert c != a


def test_sample_counts_validates_setting():
    with pytest.raises(ValueError):
        sample_counts(noisy_ghz(0.5), "zz", 100, 0)
    with pytest.raises(ValueError):
        sample_counts(noisy_ghz(0.5), "zzq", 100, 0)
    with pytest.raises(ValueError, match="setting must be a string, got None"):
        sample_counts(noisy_ghz(0.5), None, 100, 0)
    with pytest.raises(ValueError):
        sample_counts(noisy_ghz(0.5), "zzz", 0, 0)


def test_sample_counts_shots_must_fit_in_int64():
    largest = 2 ** 63 - 1
    hist = sample_counts(ghz3().projector(), "zzz", largest, 5)
    assert sum(hist.values()) == largest
    for shots in (largest + 1, 10 ** 20):
        with pytest.raises(ValueError, match="fit in int64"):
            sample_counts(ghz3().projector(), "zzz", shots, 5)


def test_sample_counts_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        sample_counts(noisy_ghz(0.5), "zzz", 10, -1)


def _complex_state():
    k = np.arange(8)
    psi = (k + 1.0) * np.exp(0.7j * k)
    psi /= np.linalg.norm(psi)
    return 0.7 * np.outer(psi, psi.conj()) + 0.3 * np.eye(8) / 8.0


def test_sample_counts_histogram_golden():
    # Every setting on three states (one of them an array with complex
    # coherences) at two seeds: 162 histograms, pinned by their digest.
    states = {"noisy-ghz:0.6": noisy_ghz(0.6), "noisy-w:0.3": noisy_w(0.3),
              "complex": _complex_state()}
    doc = {f"{name}/{''.join(s)}/{seed}":
           sample_counts(rho, "".join(s), 1000, seed)
           for name, rho in states.items()
           for s in product("xyz", repeat=3) for seed in (7, 2026)}
    assert doc["complex/xyz/7"] == {"000": 103, "001": 105, "010": 37,
                                    "011": 36, "100": 234, "101": 372,
                                    "110": 58, "111": 55}
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode())
    assert digest.hexdigest() == (
        "044d8a99c7a9d89091ab21ed23dc5adc6bfeb1c7069289cee4867924be245be5")


@pytest.mark.parametrize("sample", [
    lambda rho, shots, seed: sample_counts(rho, "zzz", shots, seed),
    sampled_ghz_fidelity,
], ids=["sample_counts", "sampled_ghz_fidelity"])
@pytest.mark.parametrize("rho, shots, seed, match", [
    (np.diag([2.0, -1.0, 0, 0, 0, 0, 0, 0]), 10, 0, "minimum eigenvalue"),
    (np.zeros((8, 8)), 10, 0, "state trace 0.000e\\+00 below 1.0e-14"),
    (noisy_ghz(0.5), 2.5, 0, "shots must be an integer, got 2.5"),
    (noisy_ghz(0.5), 10.7, 0, "shots must be an integer, got 10.7"),
    (noisy_ghz(0.5), True, 0, "shots must be an integer, got True"),
    (noisy_ghz(0.5), 10, 1.5, "seed must be an integer, got 1.5"),
    (noisy_ghz(0.5), 10, np.True_, "seed must be an integer, got "),
], ids=["non-state", "zero-trace", "shots-2.5", "shots-10.7", "shots-bool",
        "seed-1.5", "seed-numpy-bool"])
def test_sampling_rejects_invalid_input(sample, rho, shots, seed, match):
    with pytest.raises(ValueError, match=match):
        sample(rho, shots, seed)


def test_sampling_takes_numpy_integers():
    rho = noisy_ghz(0.6)
    assert (sample_counts(rho, "xyz", np.int64(1000), np.uint32(7))
            == sample_counts(rho, "xyz", 1000, 7))
    assert (sampled_ghz_fidelity(rho, np.int32(1000), np.int64(7))
            == sampled_ghz_fidelity(rho, 1000, 7))
    # The derived seeds seed + 1 .. seed + 8 must not overflow the seed's
    # dtype: int8 would fail in the seed sequence, uint64 would wrap to
    # other seeds and so to another estimate.
    for seed in (np.int8(125), np.uint64(2 ** 64 - 1)):
        assert (sampled_ghz_fidelity(rho, 1000, seed)
                == sampled_ghz_fidelity(rho, 1000, int(seed)))


def test_setting_rotations_are_built_once(monkeypatch):
    calls = []
    kron = np.kron

    def counting_kron(*args):
        calls.append(args)
        return kron(*args)

    monkeypatch.setattr(np, "kron", counting_kron)
    coincidence._setting_rotation.cache_clear()
    sampled_ghz_fidelity(noisy_ghz(0.6), 100, 1)
    assert len(calls) == 27  # three factors for each of the nine settings
    calls.clear()
    sampled_ghz_fidelity(noisy_ghz(0.6), 100, 2)
    sample_counts(noisy_ghz(0.6), "XYY", 100, 3)
    assert calls == []
    rotation = coincidence._setting_rotation("xyy")
    assert not rotation.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        rotation[0, 0] = 0.0


def test_sample_counts_chi_squared_against_born_probabilities():
    cases = [
        (maximally_mixed(3), "zzz", np.full(8, 1 / 8)),
        (noisy_ghz(0.5), "zzz",
         np.array([0.3125] + [0.0625] * 6 + [0.3125])),
        (ghz3().projector(), "xxx",
         np.array([0.25, 0, 0, 0.25, 0, 0.25, 0.25, 0])),
    ]
    shots = 200000
    for seed, (rho, setting, probs) in enumerate(cases, start=40):
        hist = sample_counts(rho, setting, shots, seed)
        observed = np.array([hist[format(i, "03b")] for i in range(8)])
        mask = probs > 0
        chi2, p_value = stats.chisquare(observed[mask],
                                        shots * probs[mask] / probs[mask].sum())
        assert observed[~mask].sum() == 0
        assert p_value > 0.001


def test_sampled_fidelity_recovers_exact_value():
    exact = (1 + 7 * 0.6) / 8
    estimate, sigma = sampled_ghz_fidelity(noisy_ghz(0.6), 10 ** 6, 2026)
    assert sigma < 1e-3
    assert abs(estimate - exact) < 3 * sigma


@pytest.mark.parametrize("rho,shots,seed,expected", [
    (noisy_ghz(0.6), 1000, 7, (0.64175, 0.009670228151393328)),
    (noisy_w(0.3), 5000, 123, (0.08785, 0.004435372419538184)),
])
def test_sampled_fidelity_golden(rho, shots, seed, expected):
    # A seeded estimate and its error repeat to the last bit: the settings
    # are recombined in a fixed order.
    assert sampled_ghz_fidelity(rho, shots, seed) == expected
