import ast
import csv
import io
import json
import pathlib
import warnings

import numpy as np
import pytest

import superact
from superact import (
    DensityMatrix,
    bloch_state,
    noisy_ghz,
    noisy_w,
    project_subsystem,
    save_density_matrix,
)
import superact.certify as cert
from superact.cli import _CONFIG_OPTIONS, _build_parser, main, parse_state_spec
from superact.sdp import WitnessResult
from superact.states import density_matrix_to_dict
from superact.verify import verify_witness_certificate
from util import limit_margin_evaluations, random_density_matrix


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# configuration plumbing

def test_every_flag_has_a_config_key():
    parser = _build_parser()
    keys = set()
    for argv in (["certify"], ["distill"], ["sweep", "--curves", "0:1:3"],
                 ["coincidence"]):
        keys |= vars(parser.parse_args(argv)).keys()
    assert keys - {"config", "subcommand"} == _CONFIG_OPTIONS.keys()


# Each single-valued flag, given twice.
_REPEATED_FLAGS = {
    "--config": ["--config", "a.json", "--config", "b.json", "coincidence"],
    "--protocol": ["distill", "--input", "noisy-ghz:0.5", "--protocol", "pbs",
                   "--protocol", "cnot"],
    "--localize": ["distill", "--input", "noisy-ghz:0.5", "--localize", "x:2",
                   "--localize", "z:1"],
    "--curves": ["sweep", "--curves", "0:1:3", "--curves", "0:1:5"],
    "--certify": ["sweep", "--certify", "0:1:3", "--certify", "0:1:5"],
    "--thresholds": ["sweep", "--thresholds", "GME", "--thresholds", "SLE"],
    "--tolerance": ["sweep", "--thresholds", "GME", "--tolerance", "1e-3",
                    "--tolerance", "1e-6"],
    "--schedule": ["coincidence", "--schedule", "0.5", "--schedule", "0.6"],
    "--output": ["certify", "--input", "noisy-ghz:0.5", "--output", "a.csv",
                 "--output", "b.csv"],
    "--format": ["certify", "--input", "noisy-ghz:0.5", "--format", "csv",
                 "--format", "json"],
    "--seed": ["coincidence", "--sample", "setting=zzz", "shots=10",
               "--seed", "1", "--seed", "2"],
    # One token list per flag: the second would replace the first.
    "--sample": ["coincidence", "--sample", "setting=zzz", "shots=10",
                 "--sample", "setting=xxx", "shots=5"],
}


@pytest.mark.parametrize("flag", list(_REPEATED_FLAGS))
def test_a_repeated_single_valued_flag_is_rejected(flag, capsys):
    # The later value would silently replace the earlier one.
    with pytest.raises(SystemExit) as exc:
        main(_REPEATED_FLAGS[flag])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: may be given only once" in err


def test_one_parser_serves_every_call(capsys):
    # The parser is built once per process.  A failed parse leaves it as it
    # was: the next valid call runs, and the help text is that of a parser
    # built afresh.
    assert _build_parser() is _build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--no-such-flag"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, _ = run_cli(["certify", "--input", "noisy-ghz:0.5"], capsys)
    assert code == 0
    assert json.loads(out)["gme_concurrence"] == pytest.approx(0.125, abs=1e-9)
    fresh = _build_parser.__wrapped__()
    assert _build_parser().format_help() == fresh.format_help()
    for name in ("certify", "distill", "sweep", "coincidence"):
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        cached_help = capsys.readouterr().out
        with pytest.raises(SystemExit):
            fresh.parse_args([name, "--help"])
        assert cached_help == capsys.readouterr().out


def test_parse_state_spec_builtins():
    rho = parse_state_spec("noisy-ghz:0.5")
    assert rho.entries[0, 0] == pytest.approx(0.3125)
    assert parse_state_spec("noisy-w:0.6").n_qubits == 3
    assert parse_state_spec("noise-model:0.5,0.9,0.9").n_qubits == 3
    with pytest.raises(ValueError):
        parse_state_spec("noisy-ghz:0.5,0.6")
    with pytest.raises(ValueError):
        parse_state_spec("squeezed:1.0")


@pytest.mark.parametrize("spec", ["noise-model:0.5,,0.9,0.9", "noisy-ghz:0.5,",
                                  "noisy-ghz:,0.5", "noisy-w:0.5,,"])
def test_state_spec_with_an_empty_parameter_is_rejected(capsys, spec):
    code, out, err = run_cli(["certify", "--input", spec], capsys)
    assert code == 1
    assert out == ""
    assert err == f"superact: error: unrecognized state spec {spec!r}\n"


# ---------------------------------------------------------------------------
# certify

def test_certify_builtin_state(capsys):
    code, out, _ = run_cli(["certify", "--input", "noisy-ghz:0.5"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["gme_concurrence"] == pytest.approx(0.125, abs=1e-9)
    assert report["ghz_witness_expectation"] == pytest.approx(-0.0625, abs=1e-9)
    assert report["sle"]["negativity"]["value"] > 0.3
    assert report["ppt_mixer"]["certified_sign"] == "negative"
    assert report["x_shape_leakage"] == 0.0


def test_certify_runs_one_sle_search_per_state(monkeypatch, capsys):
    made = []

    class Counting(cert._SLEObjective):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    monkeypatch.setattr(cert, "_SLEObjective", Counting)
    for spec in ("noisy-ghz:0.3", "noisy-ghz:0.333334", "noisy-ghz:0.5",
                 "noisy-w:0.6", "noise-model:0.45,0.9084,0.921"):
        made.clear()
        code, out, _ = run_cli(["certify", "--input", spec, "--format", "json"],
                               capsys)
        assert code == 0 and len(made) == 1
        sle = json.loads(out)["sle"]
        neg, lam = sle["negativity"], sle["min_eigenvalue"]
        assert (neg["theta"], neg["phi"]) == (lam["theta"], lam["phi"])
        assert neg["value"] == np.log2(1 - 2 * min(0.0, lam["value"]))
        assert (neg["value"] > 0.0) == (lam["value"] < 0.0)


def test_certify_ghz_certified(capsys):
    code, out, _ = run_cli(["certify", "--input", "noisy-ghz:1.0"], capsys)
    report = json.loads(out)
    assert code == 0
    assert report["gme_concurrence"] == pytest.approx(1.0, abs=1e-9)
    assert report["ppt_mixer"]["optimal_value"] == pytest.approx(-1 / 6, abs=1e-5)


def test_certify_density_matrix_file(tmp_path, capsys):
    path = tmp_path / "state.json"
    save_density_matrix(noisy_ghz(0.36), path)
    code, out, _ = run_cli(["certify", "--input", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["gme_concurrence"] == pytest.approx(0.0, abs=1e-12)


def test_a_state_file_path_may_hold_a_colon(tmp_path, capsys):
    # Only a built-in state's name before the first colon makes a built-in
    # spec, so a file under "runs:1" loads, for certify and for sampling.
    directory = tmp_path / "runs:1"
    directory.mkdir()
    path = directory / "state.json"
    save_density_matrix(noisy_ghz(0.36), path)
    code, out, _ = run_cli(["certify", "--input", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["gme_concurrence"] == pytest.approx(0.0, abs=1e-12)
    sample = ["coincidence", "--sample", "setting=zzz", "shots=1000", "seed=3"]
    code, out, _ = run_cli(sample + [f"state={path}"], capsys)
    assert code == 0
    assert out == run_cli(sample + ["state=noisy-ghz:0.36"], capsys)[1]
    # A text with a colon that names neither a built-in state nor a file.
    missing = str(directory / "missing.json")
    code, out, err = run_cli(["certify", "--input", missing], capsys)
    assert code == 1 and out == ""
    assert err == f"superact: error: unrecognized state spec {missing!r}\n"


def test_certify_takes_one_input_state(tmp_path, capsys):
    # Neither a config file's list nor a repeated flag drops a state.
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"input": ["noisy-ghz:0.5", "noisy-w:0.6"]}))
    for args in (["--config", str(cfg), "certify"],
                 ["certify", "--input", "noisy-ghz:0.5", "--input",
                  "noisy-w:0.6"]):
        code, out, err = run_cli(args, capsys)
        assert code == 1 and out == ""
        assert err == "superact: error: certify takes one input state\n"


def test_certify_invalid_file_nonzero_exit(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n_qubits": 1,
                               "re": [[0.5, 0.4], [0.0, 0.5]],
                               "im": [[0.0, 0.0], [0.0, 0.0]]}))
    code, out, err = run_cli(["certify", "--input", str(bad)], capsys)
    assert code == 1
    assert "error" in err
    assert out == ""


def test_certify_rejects_a_non_integer_qubit_count(tmp_path, capsys):
    doc = density_matrix_to_dict(noisy_ghz(0.5))
    doc["n_qubits"] = 3.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(["certify", "--input", str(bad)], capsys)
    assert code == 1
    assert "n_qubits must be a JSON integer, got 3.0" in err
    assert out == ""


def test_certify_rejects_a_huge_qubit_count_before_forming_it(tmp_path,
                                                              capsys):
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps({"n_qubits": 10 ** 8, "re": [[1.0]],
                               "im": [[0.0]]}))
    code, out, err = run_cli(["certify", "--input", str(bad)], capsys)
    assert code == 1
    assert "does not match 100000000 qubits" in err
    assert out == ""


def test_certify_rejects_non_finite_file(tmp_path, capsys):
    doc = density_matrix_to_dict(noisy_ghz(0.5))
    doc["re"][0][7] = float("nan")
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(["certify", "--input", str(bad)], capsys)
    assert code == 1
    assert "non-finite" in err
    assert out == ""


def test_certify_rejects_non_finite_config_tolerance(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text('{"input": "noisy-w:0.6", "tolerance": NaN}')
    code, out, err = run_cli(["--config", str(cfg), "certify"], capsys)
    assert code == 1
    assert out == ""
    assert "tolerance must be positive and finite" in err


def test_certify_config_tolerance_sets_the_gap(tmp_path, capsys):
    # For certify, the config key "tolerance" is the width of the certified
    # interval at which the PPT-mixer solve stops.
    cfg = tmp_path / "run.json"
    solves = {}
    for tolerance in (1e-3, 1e-11):
        cfg.write_text(json.dumps({"input": "noisy-w:0.6",
                                   "tolerance": tolerance}))
        code, out, _ = run_cli(["--config", str(cfg), "certify"], capsys)
        assert code == 0
        ppt = json.loads(out)["ppt_mixer"]
        assert ppt["converged"]
        assert ppt["optimal_value"] - ppt["lower_bound"] <= tolerance
        solves[tolerance] = ppt
    assert solves[1e-3]["iterations"] < solves[1e-11]["iterations"]


def _matrix(doc):
    return np.asarray(doc["re"]) + 1j * np.asarray(doc["im"])


@pytest.mark.parametrize("p, sign", [(0.3, "nonnegative"), (0.6, "negative")])
def test_full_certificates_verify_from_the_report(capsys, p, sign):
    # The report alone must carry both certificates of the printed verdict.
    code, out, _ = run_cli(["certify", "--input", f"noisy-w:{p}",
                            "--full-certificates"], capsys)
    assert code == 0
    doc = json.loads(out)["ppt_mixer"]
    assert doc["certified_sign"] == sign
    assert "final_z" not in doc
    result = WitnessResult(
        optimal_value=doc["optimal_value"],
        witness=_matrix(doc["witness"]),
        decompositions=tuple((_matrix(d["P"]), _matrix(d["Q"]))
                             for d in doc["decompositions"]),
        residuals=tuple(doc["residuals"]),
        iterations=doc["iterations"],
        converged=doc["converged"],
        certified_sign=doc["certified_sign"],
        lower_bound=doc["lower_bound"],
        mixture=tuple(_matrix(y) for y in doc["mixture"]),
    )
    assert verify_witness_certificate(result, noisy_w(p))
    if sign == "negative":
        assert result.optimal_value < -1e-5
    else:
        assert result.lower_bound > 1e-5


@pytest.mark.parametrize("spec", [
    "noisy-ghz:0.5", "noisy-w:0.6", "noise-model:0.45,0.9084,0.921",
    "random"])
def test_full_certificates_sle_record_reads_off_the_optimizer(
        capsys, tmp_path, spec):
    # Both SLE records come from one search: the localized state is the
    # projection of qubit 2 at the printed optimizer, and its trace-norm
    # negativity, an independent route, matches the printed negativity.
    if spec == "random":
        spec = str(tmp_path / "random.json")
        save_density_matrix(DensityMatrix(3, random_density_matrix(
            np.random.default_rng(31), 3)), spec)
    code, out, _ = run_cli(["certify", "--input", spec,
                            "--full-certificates"], capsys)
    assert code == 0
    sle = json.loads(out)["sle"]
    neg, lam = sle["negativity"], sle["min_eigenvalue"]
    assert (neg["quantifier"], lam["quantifier"]) == (
        "negativity", "min-eigenvalue-after-pt")
    assert neg["optimizer"] == lam["optimizer"]
    assert neg["localized_state"] == lam["localized_state"]
    optimizer = neg["optimizer"]
    expected, _ = project_subsystem(
        parse_state_spec(spec),
        bloch_state(optimizer["theta"], optimizer["phi"]), 2, normalize=True)
    localized = _matrix(neg["localized_state"])
    assert np.array_equal(localized, expected.entries)
    assert cert.negativity(localized) == pytest.approx(neg["value"],
                                                       abs=1e-12)
    assert neg["value"] == np.log2(1 - 2 * min(0.0, lam["value"]))


def test_certify_never_leaves_partial_output(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _, _ = run_cli(["certify", "--input", "noisy-ghz:2.0",
                          "--output", str(target)], capsys)
    assert code == 1
    assert not target.exists()
    assert not any(p.name.startswith(".superact-") for p in tmp_path.iterdir())


def test_output_into_a_missing_directory_is_an_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(["sweep", "--curves", "0:1:3",
                              "--output", str(target)], capsys)
    assert code == 1
    assert out == ""
    assert err == (f"superact: error: cannot write {target}: "
                   "No such file or directory\n")
    assert not (tmp_path / "missing").exists()


# ---------------------------------------------------------------------------
# distill

def test_distill_pbs_report(capsys):
    code, out, _ = run_cli(["distill", "--protocol", "pbs",
                            "--input", "noisy-ghz:0.5",
                            "--localize", "x:2"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["fidelity_ghz"] == pytest.approx(0.7321428571, abs=1e-9)
    assert report["success_probability"] == pytest.approx(0.21875, abs=1e-12)
    assert report["localized"]["fidelity_epr"] == pytest.approx(0.75, abs=1e-9)
    assert len(report["branch_weights"]) == 8


def test_distill_cnot_w_state(capsys):
    code, out, _ = run_cli(["distill", "--protocol", "cnot",
                            "--input", "noisy-w:0.6"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["w_witness_expectation"] < 0.0
    assert report["success_probability"] == pytest.approx(0.2, abs=1e-12)


def test_distill_recertify(capsys):
    code, out, _ = run_cli(["distill", "--protocol", "pbs",
                            "--input", "noisy-ghz:0.4", "--recertify"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["recertify"]["gme_concurrence"] > 0.0
    assert report["recertify"]["ppt_mixer_sign"] == "negative"


_CNOT_W_REPORT = {
    "json": "\n".join([
        '{',
        '  "branch_weights": {',
        '    "000": 0.2000000000000001',
        '  },',
        '  "fidelity_ghz": 0.012499999999999994,',
        '  "inputs": [',
        '    "noisy-w:0.6",',
        '    "noisy-w:0.6"',
        '  ],',
        '  "localized": {',
        '    "basis": "x",',
        '    "fidelity_epr": 0.17499999999999996,',
        '    "outcome": 0,',
        '    "qubit": 2,',
        '    "weight": 0.49999999999999994',
        '  },',
        '  "protocol": "cnot",',
        '  "recertify": {',
        '    "gme_concurrence": null,',
        '    "ppt_mixer_sign": "negative",',
        '    "ppt_mixer_value": -0.027425640029585932',
        '  },',
        '  "success_probability": 0.2000000000000001,',
        '  "w_witness_expectation": -0.045833333333333504',
        '}',
        '',
    ]),
    "csv": "protocol,inputs,success_probability,branch_weights.000,"
           "fidelity_ghz,w_witness_expectation,localized.basis,"
           "localized.qubit,localized.outcome,localized.weight,"
           "localized.fidelity_epr,recertify.gme_concurrence,"
           "recertify.ppt_mixer_value,recertify.ppt_mixer_sign\n"
           "cnot,noisy-w:0.6;noisy-w:0.6,0.20000000000000009,"
           "0.20000000000000009,0.012499999999999994,-0.045833333333333504,"
           "x,2,0,0.49999999999999994,0.17499999999999996,None,"
           "-0.027425640029585932,negative\n",
}


@pytest.mark.parametrize("fmt", list(_CNOT_W_REPORT))
def test_distill_cnot_recertify_localize_golden(capsys, fmt):
    # The whole report, byte for byte: the CNOT map's entrywise product is
    # exact, so no digit of it may move.
    code, out, _ = run_cli(["distill", "--protocol", "cnot",
                            "--input", "noisy-w:0.6", "--recertify",
                            "--localize", "x:2", "--format", fmt], capsys)
    assert code == 0
    assert out == _CNOT_W_REPORT[fmt]


def test_distill_rejects_three_inputs(capsys):
    code, _, err = run_cli(["distill", "--input", "noisy-ghz:0.5",
                            "--input", "noisy-ghz:0.5",
                            "--input", "noisy-ghz:0.5"], capsys)
    assert code == 1
    assert "one or two" in err


@pytest.mark.parametrize("spec", ["x", "x:", "x:two"])
def test_distill_localize_needs_a_qubit(monkeypatch, capsys, spec):
    # The spec is parsed before any distillation runs.
    monkeypatch.setattr("superact.cli.distill_tripartite", None)
    code, out, err = run_cli(["distill", "--input", "noisy-ghz:0.5",
                              "--localize", spec], capsys)
    assert code == 1
    assert out == ""
    assert err == (f"superact: error: --localize {spec!r} is not "
                   "BASIS:QUBIT, e.g. x:2\n")


@pytest.mark.parametrize("protocol", ["pbs", "cnot"])
@pytest.mark.parametrize("spec, message", [
    ("q:2", "unknown basis 'q'; use 'x' or 'computational'"),
    ("x:7", "invalid qubit indices (7,) for 3 qubits"),
    ("z:-1", "invalid qubit indices (-1,) for 3 qubits"),
], ids=["basis", "qubit-7", "qubit-negative"])
def test_distill_checks_the_localization_before_distilling(
        monkeypatch, capsys, protocol, spec, message):
    def unreachable(*args):
        raise AssertionError("distillation ran")

    monkeypatch.setattr("superact.cli.distill_tripartite", unreachable)
    monkeypatch.setattr("superact.cli.distill_cnot", unreachable)
    code, out, err = run_cli(["distill", "--input", "noisy-ghz:0.5",
                              "--protocol", protocol, "--localize", spec],
                             capsys)
    assert code == 1
    assert out == ""
    assert err == f"superact: error: {message}\n"


# ---------------------------------------------------------------------------
# sweep

def test_sweep_curves(capsys):
    code, out, _ = run_cli(["sweep", "--curves", "0:1:101"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "p,F_initial,F1,F2"
    assert len(lines) == 102
    first = [float(x) for x in lines[1].split(",")]
    last = [float(x) for x in lines[-1].split(",")]
    assert first == [0.0, 0.125, 0.125, 0.25]
    assert last == [1.0, 1.0, 1.0, 1.0]


def test_sweep_single_point_grid(capsys):
    code, out, _ = run_cli(["sweep", "--curves", "0.5:0.9:1"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2
    assert lines[1].startswith("0.5,")


def test_sweep_thresholds_subset(capsys):
    code, out, _ = run_cli(
        ["sweep", "--thresholds", "GME,GME-after-distill"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "property,crossing_p,bracket_width,evaluations"
    names = [line.split(",")[0] for line in lines[1:]]
    assert names == ["GME", "GME-after-distill"]
    crossing = float(lines[1].split(",")[1])
    assert abs(crossing - 3 / 7) < 1e-5


def test_sweep_thresholds_unknown_name(capsys):
    code, _, err = run_cli(["sweep", "--thresholds", "GME,bogus"], capsys)
    assert code == 1
    assert "bogus" in err


def test_sweep_certify_deterministic(capsys):
    code, ref, _ = run_cli(["sweep", "--certify", "0:0.9:4"], capsys)
    assert code == 0
    code, again, _ = run_cli(["sweep", "--certify", "0:0.9:4"], capsys)
    assert code == 0
    assert again == ref


def test_sweep_invalid_grid(capsys):
    code, _, err = run_cli(["sweep", "--curves", "0:1:0"], capsys)
    assert code == 1
    assert "count" in err


@pytest.mark.parametrize("mode", ["--curves", "--certify"])
@pytest.mark.parametrize("count", [10**20, 1_000_001])
def test_sweep_rejects_a_grid_count_above_the_limit(monkeypatch, capsys, mode,
                                                    count):
    monkeypatch.setattr(np, "linspace", None)  # rejected before allocating
    code, out, err = run_cli(["sweep", mode, f"0:1:{count}"], capsys)
    assert code == 1
    assert out == ""
    assert err == ("superact: error: grid count must be at most 1000000, "
                   f"got {count}\n")


@pytest.mark.parametrize("mode", ["--curves", "--certify"])
@pytest.mark.parametrize("grid", ["nan:1:3", "0:inf:3", "0:nan:3"])
def test_sweep_rejects_non_finite_grid(mode, grid, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no linspace warning on the way
        code, out, err = run_cli(["sweep", mode, grid], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("superact: error:") and "must be finite" in err


# ---------------------------------------------------------------------------
# coincidence

def test_coincidence_table(capsys):
    code, out, _ = run_cli(["coincidence"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert "coincidence" in lines[0]
    assert any(line.endswith(",yes") for line in lines[1:])
    # no double-pair class line may ever pass
    for line in lines[1:]:
        if "^2" in line.split(",")[0]:
            assert line.endswith(",no")


def test_coincidence_schedule(capsys):
    code, out, _ = run_cli(["coincidence", "--schedule", "0.5"], capsys)
    assert code == 0
    assert out.splitlines()[1].startswith("GHZ3,in,out,out,")
    assert "0.6666666666666666" in out


def test_coincidence_sample_reproducible(capsys):
    args = ["coincidence", "--sample", "setting=zzz", "shots=1000", "seed=7"]
    code, out1, _ = run_cli(args, capsys)
    assert code == 0
    doc = json.loads(out1)
    assert doc["shots"] == 1000 and doc["seed"] == 7
    assert sum(doc["histogram"].values()) == 1000
    _, out2, _ = run_cli(args, capsys)
    assert out2 == out1


@pytest.mark.parametrize("args", [
    ["sweep", "--thresholds", "W-SLE", "--format", "json"],
    ["sweep", "--curves", "0:1:3", "--seed", "1"],
    ["coincidence", "--schedule", "0.5", "--format", "json"],
    ["certify", "--input", "noisy-ghz:0.5", "--seed", "1"],
    ["distill", "--input", "noisy-ghz:0.5", "--seed", "1"],
], ids=" ".join)
def test_flags_a_subcommand_would_ignore_are_rejected(args, capsys):
    # Sweep and coincidence tables are always CSV, and only sampling is
    # seeded: a flag that could not change the output is a usage error.
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_coincidence_sample_rejects_shots_beyond_int64(capsys):
    code, out, err = run_cli(["coincidence", "--sample", "setting=zzz",
                              "shots=100000000000000000000"], capsys)
    assert code == 1
    assert out == ""
    assert err == ("superact: error: shots must be positive and fit in "
                   "int64, got 100000000000000000000\n")


@pytest.mark.parametrize("args, message", [
    (["coincidence", "--sample", "setting=zzz", "shots=abc"],
     "--sample shots='abc' is not an integer"),
    (["coincidence", "--sample", "setting=zzz", "shots=10", "seed=1.5"],
     "--sample seed='1.5' is not an integer"),
    (["sweep", "--curves", "0:1:2.5"],
     "grid spec '0:1:2.5' is not START:STOP:COUNT"),
    (["certify", "--input", "noisy-ghz:abc"],
     "unrecognized state spec 'noisy-ghz:abc'"),
    (["sweep", "--curves", ""], "grid spec '' is not START:STOP:COUNT"),
    (["sweep", "--certify", ""], "grid spec '' is not START:STOP:COUNT"),
], ids=["shots", "seed", "grid", "state", "empty-curves", "empty-certify"])
def test_unparsable_numbers_name_the_input(capsys, args, message):
    code, out, err = run_cli(args, capsys)
    assert code == 1
    assert out == ""
    assert err == f"superact: error: {message}\n"


@pytest.mark.parametrize("tokens, repeated", [
    (["setting=zzz", "shots=10", "shots=3"], ["shots"]),
    (["setting=zzz", "shots=10", "seed=1", "setting=xxx", "seed=2"],
     ["seed", "setting"]),
], ids=["shots", "seed-and-setting"])
def test_coincidence_sample_rejects_a_repeated_key(capsys, tokens, repeated):
    # The later value would silently replace the earlier one.
    code, out, err = run_cli(["coincidence", "--sample"] + tokens, capsys)
    assert code == 1
    assert out == ""
    assert err == (f"superact: error: --sample gives {repeated} "
                   f"more than once\n")


@pytest.mark.parametrize("seed", [["seed=-1"], ["--seed", "-1"]], ids=" ".join)
def test_coincidence_sample_rejects_a_negative_seed(capsys, seed):
    code, out, err = run_cli(["coincidence", "--sample", "setting=zzz",
                              "shots=10"] + seed, capsys)
    assert code == 1
    assert out == ""
    assert err == "superact: error: seed must be non-negative, got -1\n"


def test_coincidence_sample_golden(capsys):
    code, out, _ = run_cli(["coincidence", "--sample", "setting=xyz",
                            "shots=1000", "seed=7", "state=noisy-ghz:0.6"],
                           capsys)
    assert code == 0
    assert out == ('{\n  "histogram": {\n    "000": 132,\n    "001": 131,\n'
                   '    "010": 118,\n    "011": 114,\n    "100": 116,\n'
                   '    "101": 132,\n    "110": 132,\n    "111": 125\n  },\n'
                   '  "seed": 7,\n  "setting": "xyz",\n  "shots": 1000\n}\n')


def test_coincidence_seed_flag_seeds_the_sample(capsys):
    sample = ["coincidence", "--sample", "setting=zzz", "shots=10"]
    code, flagged, _ = run_cli(sample + ["--seed", "3"], capsys)
    assert code == 0
    assert json.loads(flagged)["seed"] == 3
    assert run_cli(sample + ["seed=3"], capsys)[1] == flagged


# ---------------------------------------------------------------------------
# output files and config files

def test_identical_config_produces_byte_identical_files(tmp_path, capsys):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for path in (out1, out2):
        code, _, _ = run_cli(["certify", "--input", "noisy-w:0.6",
                              "--output", str(path)], capsys)
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"input": "noisy-ghz:0.5", "fmt": "csv"}))
    code, out, _ = run_cli(["--config", str(cfg), "certify"], capsys)
    assert code == 0
    header, row = out.strip().split("\n")
    assert "gme_concurrence" in header.split(",")
    # explicit flags override the config file
    code, out_json, _ = run_cli(["--config", str(cfg), "certify",
                                 "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out_json)["gme_concurrence"] == pytest.approx(0.125, abs=1e-9)


@pytest.mark.parametrize("options, message", [
    ({"input": "noisy-ghz:0.5", "tolerance": "abc"},
     "'tolerance' must be a number, got 'abc'"),
    ({"input": 5}, "'input' must be a string or a list of strings, got 5"),
    ({"input": "noisy-ghz:0.5", "seed": 1.5},
     "'seed' must be an integer, got 1.5"),
    ({"input": "noisy-ghz:0.5", "tolerence": 1e-3, "fromat": "csv"},
     "superact: error: unknown config option 'tolerence'"),
    ({"input": "noisy-ghz:0.5", "fmt": "yaml"}, "unknown output format 'yaml'"),
])
def test_config_file_rejects_mistyped_options(tmp_path, capsys, options,
                                              message):
    # sweep uses neither input nor fmt, and checks every key all the same.
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(options))
    for args in (["certify"], ["sweep", "--curves", "0:1:3"]):
        code, out, err = run_cli(["--config", str(cfg)] + args, capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("superact: error:") and message in err


def test_config_file_that_is_not_json(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("[1\n")
    code, out, err = run_cli(["--config", str(cfg), "sweep", "--curves",
                              "0:1:2"], capsys)
    assert code == 1
    assert out == ""
    assert err == (f"superact: error: config file {cfg} is not valid JSON: "
                   "Expecting ',' delimiter: line 2 column 1 (char 3)\n")


@pytest.mark.parametrize("options, args", [
    ({"curves": "0:1:3"}, ["sweep", "--thresholds", "GME"]),
    ({"schedule": 0.5}, ["coincidence", "--sample", "setting=zzz", "shots=10"]),
], ids=["sweep", "coincidence"])
def test_mode_flag_beats_the_config_files_mode(tmp_path, capsys, options,
                                               args):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(options))
    flagged = run_cli(args, capsys)
    assert flagged[0] == 0
    assert run_cli(["--config", str(cfg)] + args, capsys) == flagged


def test_coincidence_takes_the_config_files_mode(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"schedule": 0.5}))
    assert (run_cli(["--config", str(cfg), "coincidence"], capsys)
            == run_cli(["coincidence", "--schedule", "0.5"], capsys))


@pytest.mark.parametrize("options, args", [
    ({"input": "noisy-w:0.6", "full_certificates": True},
     ["certify", "--input", "noisy-w:0.6", "--full-certificates"]),
    ({"input": "noisy-w:0.6", "recertify": True},
     ["distill", "--input", "noisy-w:0.6", "--recertify"]),
], ids=["full_certificates", "recertify"])
def test_config_file_turns_a_switch_on(tmp_path, capsys, options, args):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(options))
    flagged = run_cli(args, capsys)
    assert flagged[0] == 0
    assert run_cli(["--config", str(cfg), args[0]], capsys) == flagged


def test_csv_format_flag_round_trip(capsys):
    code, out, _ = run_cli(["distill", "--input", "noisy-ghz:0.5",
                            "--format", "csv"], capsys)
    assert code == 0
    header, row = out.strip().split("\n")
    cols = dict(zip(header.split(","), row.split(",")))
    assert float(cols["success_probability"]) == pytest.approx(0.21875)


def test_csv_quotes_fields_with_commas(capsys):
    spec = "noise-model:0.45,0.9084,0.921"
    code, out, _ = run_cli(["certify", "--input", spec, "--format", "csv"],
                           capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1 and len(rows[0]) == 17
    assert None not in rows[0]  # no field beyond the header
    assert rows[0]["input"] == spec
    # A comma-free spec needs no quotes: the plain join of the fields.
    code, plain, _ = run_cli(["certify", "--input", "noisy-ghz:0.5",
                              "--format", "csv"], capsys)
    header, row = plain.split("\n")[:2]
    assert '"' not in plain and len(row.split(",")) == 17
    assert len(header.split(",")) == 17


@pytest.mark.parametrize("spec,expected", [
    ("noisy-w:0.6", {
        "min_eigenvalue": (-0.25, 0.0, 0.0),
        "negativity": (0.5849625007211562, 0.0, 0.0)}),
    ("noise-model:0.8,0.9,0.95", {
        "min_eigenvalue": (-0.246, 0.7853981633974483, 0.0),
        "negativity": (0.5772475355931507, 0.7853981633974483, 0.0)}),
    ("random", {
        "min_eigenvalue": (-0.023570036563113256, 1.4520697872558654,
                           0.42426856408871894),
        "negativity": (0.06645444063350468, 1.4520697872558654,
                       0.42426856408871894)}),
    # Noisy GHZ optima lie on phi-rings of tied values; the printed phi is
    # the exhaustive grid's first minimum on the ring.
    ("noisy-ghz:0.5", {
        "min_eigenvalue": (-0.12499999999999997, 0.7853981633974482,
                           0.9817477042468101),
        "negativity": (0.32192809488736235, 0.7853981633974482,
                       0.9817477042468101)}),
    ("noisy-ghz:0.3", {
        "min_eigenvalue": (0.025000000000000036, 0.7853981633974483,
                           0.9817477042468101),
        "negativity": (0.0, 0.7853981633974483, 0.9817477042468101)}),
])
def test_certify_sle_golden(capsys, tmp_path, spec, expected):
    # The SLE optimum (value, theta, phi) exactly as the exhaustive 64x64
    # grid and its see-saw refinement printed it; the random state's lies
    # off the grid, where the refinement took it.
    if spec == "random":
        spec = str(tmp_path / "random.json")
        save_density_matrix(DensityMatrix(3, random_density_matrix(
            np.random.default_rng(2718), 3)), spec)
    code, out, _ = run_cli(["certify", "--input", spec, "--format", "json"],
                           capsys)
    assert code == 0
    sle = json.loads(out)["sle"]
    assert {name: (found["value"], found["theta"], found["phi"])
            for name, found in sle.items()} == expected


def test_sweep_certify_golden(capsys):
    code, out, _ = run_cli(["sweep", "--certify", "0:1:11"], capsys)
    assert code == 0
    assert out.split("\n") == [
        "p,gme_concurrence,ghz_witness_expectation,sle_negativity",
        "0,0,0.375,0",
        "0.10000000000000001,0,0.28750000000000009,0",
        "0.20000000000000001,0,0.20000000000000012,0",
        "0.30000000000000004,0,0.11250000000000004,0",
        "0.40000000000000002,0,0.025000000000000189,0.13750352374993474",
        "0.5,0.12499999999999989,-0.062499999999999833,0.32192809488736235",
        "0.60000000000000009,0.30000000000000004,-0.14999999999999986,"
        "0.4854268271702421",
        "0.70000000000000007,0.47500000000000009,-0.23749999999999982,"
        "0.63226821549951306",
        "0.80000000000000004,0.64999999999999969,-0.32499999999999957,"
        "0.76553474636297725",
        "0.90000000000000002,0.82499999999999973,-0.41249999999999976,"
        "0.88752527074158749",
        "1,0.99999999999999978,-0.49999999999999978,1",
        "",
    ]


def test_sweep_w_thresholds_golden(capsys):
    # The SDP-backed bisections, pinned to their exact rows: a solver change
    # that moves any certified sign on the bisection path changes these.
    code, out, _ = run_cli(
        ["sweep", "--thresholds", "W-GME,W-GME-after-distill"], capsys)
    assert code == 0
    assert out.strip().split("\n") == [
        "property,crossing_p,bracket_width,evaluations",
        "W-GME,0.47890624999999998,0.00078124999999998335,9",
        "W-GME-after-distill,0.5185546875,0.00058593749999996669,9",
    ]


def test_sweep_all_thresholds_golden(capsys):
    code, out, _ = run_cli(["sweep", "--thresholds", "all"], capsys)
    assert code == 0
    assert out.split("\n") == [
        "property,crossing_p,bracket_width,evaluations",
        "GME,0.42857178859569584,3.7905473793120592e-07,8",
        "SLE,0.33333355519875585,2.3982452818094302e-07,8",
        "GME-after-distill,0.30216949351469702,1.4290719718701439e-08,8",
        "SLE-after-distill,0.26120420225852053,3.3794303871959031e-07,8",
        "W-GME,0.47890624999999998,0.00078124999999998335,9",
        "W-GME-after-distill,0.5185546875,0.00058593749999996669,9",
        "W-SLE,0.27272794715281912,6.894873847695937e-07,8",
        "",
    ]


def test_sweep_all_thresholds_repeats_byte_identical(capsys):
    # The warm starts of one bisection must not carry over to the next run.
    first = run_cli(["sweep", "--thresholds", "all"], capsys)
    second = run_cli(["sweep", "--thresholds", "all"], capsys)
    assert first == second
    assert first[0] == 0


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-1", "0"])
def test_sweep_rejects_non_finite_tolerance(capsys, tolerance):
    code, out, err = run_cli(["sweep", "--thresholds", "GME",
                              "--tolerance", tolerance], capsys)
    assert code == 1
    assert out == ""
    assert "tolerance must be positive and finite" in err


@pytest.mark.parametrize("mode", ["--curves", "--certify"])
def test_sweep_tolerance_flag_needs_thresholds(tmp_path, capsys, mode):
    # The flag could not change a grid table, so it is a usage error; the
    # config key keeps its rule: checked, with no effect there.
    with pytest.raises(SystemExit) as exc:
        main(["sweep", mode, "0:1:2", "--tolerance", "5"])
    assert exc.value.code == 2
    assert "--tolerance" in capsys.readouterr().err
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"tolerance": 5}))
    assert (run_cli(["--config", str(cfg), "sweep", mode, "0:1:2"], capsys)
            == run_cli(["sweep", mode, "0:1:2"], capsys))


def test_sweep_refuses_a_tolerance_below_float_resolution(monkeypatch,
                                                         capsys):
    limit_margin_evaluations(monkeypatch)
    code, out, err = run_cli(["sweep", "--thresholds", "GME",
                              "--tolerance", "1e-17"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("superact: error: GME: tolerance 1e-17 is below "
                          "the float resolution at p = 0.428")


def test_sweep_refuses_uncertified_sdp_bracket(capsys):
    code, out, err = run_cli(["sweep", "--thresholds", "W-GME-after-distill",
                              "--tolerance", "1e-6"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("superact: error: W-GME-after-distill: ")
    assert "is not certified" in err
    assert "does not clear the margin 1e-05;" in err


# ---------------------------------------------------------------------------
# tables

@pytest.mark.parametrize("args", [
    ["certify", "--input", "noise-model:0.8,0.9,0.95", "--format", "csv"],
    ["distill", "--input", "noisy-ghz:0.5", "--recertify", "--localize", "x:2",
     "--format", "csv"],
    ["sweep", "--thresholds", "GME,W-SLE"],
    ["sweep", "--curves", "0:1:5"],
    ["sweep", "--certify", "0.3:0.6:4"],
    ["coincidence"],
    ["coincidence", "--schedule", "0.5"],
], ids=" ".join)
def test_every_table_is_well_formed_csv(capsys, args):
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    header, *rows = csv.reader(io.StringIO(out))
    assert rows
    assert all(len(row) == len(header) for row in rows)


def test_sweep_curves_golden(capsys):
    code, out, _ = run_cli(["sweep", "--curves", "0:1:11"], capsys)
    assert code == 0
    assert out == (
        "p,F_initial,F1,F2\n"
        "0,0.125,0.125,0.25\n"
        "0.10000000000000001,0.21250000000000002,0.22451456310679613,"
        "0.32281553398058255\n"
        "0.20000000000000001,0.30000000000000004,0.35714285714285715,"
        "0.42857142857142849\n"
        "0.30000000000000004,0.38750000000000007,0.49704724409448825,"
        "0.54527559055118113\n"
        "0.40000000000000002,0.47500000000000003,0.625,0.65540540540540537\n"
        "0.5,0.5625,0.7321428571428571,0.75\n"
        "0.60000000000000009,0.65000000000000013,0.8173076923076924,"
        "0.82692307692307709\n"
        "0.70000000000000007,0.73750000000000004,0.88309716599190291,"
        "0.88765182186234848\n"
        "0.80000000000000004,0.82500000000000007,0.93321917808219168,"
        "0.93493150684931492\n"
        "0.90000000000000002,0.91249999999999998,0.97120991253644307,"
        "0.97157434402332365\n"
        "1,1,1,1\n")


def test_coincidence_schedule_golden(capsys):
    code, out, _ = run_cli(["coincidence", "--schedule", "0.5"], capsys)
    assert code == 0
    assert out == ("component,M1,M2,M3,probability\n"
                   "GHZ3,in,out,out,0.66666666666666663\n"
                   "rho_G0,out,out,out,0.083333333333333343\n"
                   "rho_G1,out,in,in,0.083333333333333343\n"
                   "rho_G2,out,out,in,0.083333333333333343\n"
                   "rho_G3,out,in,out,0.083333333333333343\n")


def test_only_the_cli_writes_csv():
    package = pathlib.Path(superact.__file__).parent
    importers = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            if "csv" in names:
                importers.add(path.name)
    assert importers == {"cli.py"}
