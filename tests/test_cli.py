import json

import pytest

from superact import noisy_ghz, save_density_matrix
from superact.cli import RunConfig, main, parse_state_spec, worker_count
from superact.states import density_matrix_to_dict


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# configuration plumbing

def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig("sweep", (), (0, 1, 0), None, 0, None, "csv")
    with pytest.raises(ValueError):
        RunConfig("sweep", (), None, -1.0, 0, None, "csv")
    with pytest.raises(ValueError):
        RunConfig("sweep", (), None, None, 0, None, "yaml")


def test_parse_state_spec_builtins():
    rho = parse_state_spec("noisy-ghz:0.5")
    assert rho.entries[0, 0] == pytest.approx(0.3125)
    assert parse_state_spec("noisy-w:0.6").n_qubits == 3
    assert parse_state_spec("noise-model:0.5,0.9,0.9").n_qubits == 3
    with pytest.raises(ValueError):
        parse_state_spec("noisy-ghz:0.5,0.6")
    with pytest.raises(ValueError):
        parse_state_spec("squeezed:1.0")


def test_worker_count_env(monkeypatch):
    monkeypatch.delenv("SUPERACT_THREADS", raising=False)
    assert worker_count() == 1
    monkeypatch.setenv("SUPERACT_THREADS", "4")
    assert worker_count() == 4
    monkeypatch.setenv("SUPERACT_THREADS", "bogus")
    assert worker_count() == 1


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


def test_certify_invalid_file_nonzero_exit(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n_qubits": 1,
                               "re": [[0.5, 0.4], [0.0, 0.5]],
                               "im": [[0.0, 0.0], [0.0, 0.0]]}))
    code, out, err = run_cli(["certify", "--input", str(bad)], capsys)
    assert code == 1
    assert "error" in err
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


def test_certify_never_leaves_partial_output(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _, _ = run_cli(["certify", "--input", "noisy-ghz:2.0",
                          "--output", str(target)], capsys)
    assert code == 1
    assert not target.exists()
    assert not any(p.name.startswith(".superact-") for p in tmp_path.iterdir())


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


def test_distill_rejects_three_inputs(capsys):
    code, _, err = run_cli(["distill", "--input", "noisy-ghz:0.5",
                            "--input", "noisy-ghz:0.5",
                            "--input", "noisy-ghz:0.5"], capsys)
    assert code == 1
    assert "one or two" in err


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


def test_sweep_certify_deterministic_and_thread_safe(capsys, monkeypatch):
    code, ref, _ = run_cli(["sweep", "--certify", "0:0.9:4"], capsys)
    assert code == 0
    monkeypatch.setenv("SUPERACT_THREADS", "4")
    code, threaded, _ = run_cli(["sweep", "--certify", "0:0.9:4"], capsys)
    assert code == 0
    assert threaded == ref


def test_sweep_invalid_grid(capsys):
    code, _, err = run_cli(["sweep", "--curves", "0:1:0"], capsys)
    assert code == 1
    assert "count" in err


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


def test_csv_format_flag_round_trip(capsys):
    code, out, _ = run_cli(["distill", "--input", "noisy-ghz:0.5",
                            "--format", "csv"], capsys)
    assert code == 0
    header, row = out.strip().split("\n")
    cols = dict(zip(header.split(","), row.split(",")))
    assert float(cols["success_probability"]) == pytest.approx(0.21875)


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
