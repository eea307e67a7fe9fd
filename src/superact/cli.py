"""Command-line driver: certify, distill, sweep, coincidence.

Built-in state specs (``noisy-ghz:P``, ``noisy-w:P``, ``noise-model:P,Q,R``)
cover the canonical states; anything else is read as a density-matrix JSON
file ``{"n_qubits": k, "re": [[...]], "im": [[...]]}``.

Every run validates its inputs before computing and writes its whole report
atomically at the end, so no partial output file is ever left behind.  With
identical configuration (including seeds) the output files are
byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from . import certify as cert
from . import coincidence as coin
from . import thresholds as thr
from .distill import distill_cnot, distill_tripartite, localize
from .sdp import GAP_TOL, ppt_mixer_witness
from .states import (
    DensityMatrix,
    StateValidationError,
    bell_phi_plus,
    fidelity_with_pure,
    ghz3,
    load_density_matrix,
    noise_model_state,
    noisy_ghz,
    noisy_w,
)


@dataclass(frozen=True)
class RunConfig:
    """Resolved options of one CLI invocation."""

    inputs: tuple[str, ...]
    grid: tuple[float, float, int] | None
    tolerance: float | None
    seed: int
    output: str | None
    fmt: str

    def __post_init__(self):
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"unknown output format {self.fmt!r}")
        if self.grid is not None and self.grid[2] < 1:
            raise ValueError("grid count must be at least 1")
        if self.grid is not None and not np.all(np.isfinite(self.grid[:2])):
            raise ValueError(
                f"grid start and stop must be finite, got {self.grid[:2]}")
        if self.tolerance is not None and not 0 < self.tolerance < np.inf:
            raise ValueError(
                f"tolerance must be positive and finite, got {self.tolerance}")


# Built-in state spec name -> (constructor, number of parameters).
_BUILT_IN_STATES = {"noisy-ghz": (noisy_ghz, 1), "noisy-w": (noisy_w, 1),
                    "noise-model": (noise_model_state, 3)}


def parse_state_spec(spec: str) -> DensityMatrix:
    """Resolve a built-in state spec or a density-matrix JSON file path."""
    if ":" not in spec:
        return load_density_matrix(spec)
    name, _, argstr = spec.partition(":")
    build, arity = _BUILT_IN_STATES.get(name, (None, -1))
    try:
        args = [float(tok) for tok in argstr.split(",") if tok]
    except ValueError:
        args = None
    if args is None or len(args) != arity:
        raise ValueError(f"unrecognized state spec {spec!r}")
    return build(*args)


def _atomic_write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".superact-")
    except OSError as exc:  # e.g. a missing directory
        raise OSError(f"cannot write {path}: {exc.strerror}") from None
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _flatten(doc, prefix=""):
    flat = {}
    for key, value in doc.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{name}."))
        elif isinstance(value, (list, tuple)):
            flat[name] = ";".join(str(v) for v in value)
        else:
            flat[name] = value
    return flat


def _render(doc: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    flat = _flatten(doc)
    fmt_val = lambda v: format(v, ".17g") if isinstance(v, float) else str(v)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(flat.keys())
    writer.writerow(fmt_val(v) for v in flat.values())
    return out.getvalue()


# ---------------------------------------------------------------------------
# subcommands

def cmd_certify(config: RunConfig, full_certificates: bool = False) -> str:
    rho = parse_state_spec(config.inputs[0])
    report: dict = {"input": config.inputs[0]}

    view = cert.x_shape_view(rho)
    report["x_shape_leakage"] = view.max_off_pattern_magnitude
    try:
        report["gme_concurrence"] = cert.gme_concurrence_x(rho)
    except cert.NotXShapedError:
        report["gme_concurrence"] = None

    report["ghz_witness_expectation"] = cert.ghz_witness_expectation(rho)
    report["w_witness_expectation"] = cert.w_witness_expectation(rho)

    # The config key "tolerance" is the width at which the PPT-mixer
    # solve's certified interval stops it.
    witness = ppt_mixer_witness(rho, gap_tol=config.tolerance or GAP_TOL)
    report["ppt_mixer"] = {
        "optimal_value": witness.optimal_value,
        "lower_bound": witness.lower_bound,
        "certified_sign": witness.certified_sign,
        "converged": witness.converged,
        "iterations": witness.iterations,
        "max_residual": max(witness.residuals),
    }

    found = cert.sle_quantify(rho, quantifier=cert.QUANTIFIER_MIN_EIGENVALUE)
    sle = {}
    for label, quantifier in (("negativity", cert.QUANTIFIER_NEGATIVITY),
                              ("min_eigenvalue", cert.QUANTIFIER_MIN_EIGENVALUE)):
        result = cert.sle_reported_as(found, quantifier)
        if full_certificates:
            sle[label] = cert.sle_result_to_json_dict(result)
        else:
            sle[label] = {"value": result.value, "theta": result.theta,
                          "phi": result.phi}
    report["sle"] = sle
    if full_certificates:
        from .sdp import witness_result_to_json_dict

        report["ppt_mixer"] = witness_result_to_json_dict(witness)
    return _render(report, config.fmt)


def cmd_distill(config: RunConfig, protocol: str, localize_spec: str | None,
                recertify: bool) -> str:
    specs = list(config.inputs)
    if len(specs) == 1:
        specs = specs * 2
    if len(specs) != 2:
        raise ValueError("distill takes one or two input states")
    if localize_spec is not None:
        basis, _, digits = localize_spec.partition(":")
        try:
            qubit = int(digits)
        except ValueError:
            raise ValueError(f"--localize {localize_spec!r} is not BASIS:QUBIT, "
                             f"e.g. x:2") from None
    rho1, rho2 = parse_state_spec(specs[0]), parse_state_spec(specs[1])
    if protocol == "pbs":
        outcome = distill_tripartite(rho1, rho2)
    elif protocol == "cnot":
        outcome = distill_cnot(rho1, rho2)
    else:
        raise ValueError(f"unknown protocol {protocol!r}")

    report: dict = {
        "protocol": protocol,
        "inputs": specs,
        "success_probability": outcome.success_probability,
        "branch_weights": {label: w for label, w in outcome.parity_branch_weights},
    }
    if outcome.state.n_qubits == 3:
        report["fidelity_ghz"] = fidelity_with_pure(outcome.state, ghz3())
        report["w_witness_expectation"] = cert.w_witness_expectation(outcome.state)

    if localize_spec is not None:
        state, weight = localize(outcome.state, qubit, basis, 0)
        report["localized"] = {
            "basis": basis,
            "qubit": qubit,
            "outcome": 0,
            "weight": weight,
            "fidelity_epr": fidelity_with_pure(state, bell_phi_plus()),
        }
    if recertify:
        witness = ppt_mixer_witness(outcome.state)
        try:
            concurrence = cert.gme_concurrence_x(outcome.state)
        except cert.NotXShapedError:
            concurrence = None
        report["recertify"] = {
            "gme_concurrence": concurrence,
            "ppt_mixer_value": witness.optimal_value,
            "ppt_mixer_sign": witness.certified_sign,
        }
    return _render(report, config.fmt)


def _parse_grid(spec: str) -> tuple[float, float, int]:
    try:
        start, stop, count = spec.split(":")
        return float(start), float(stop), int(count)
    except ValueError:
        raise ValueError(
            f"grid spec {spec!r} is not START:STOP:COUNT") from None


def cmd_sweep(config: RunConfig, mode: str, names: list[str] | None) -> str:
    if mode == "curves":
        return thr.fidelity_curves_csv(np.linspace(*config.grid))
    if mode == "certify":
        def one(p: float) -> str:
            rho = noisy_ghz(p)
            row = (p,
                   cert.gme_concurrence_x(rho),
                   cert.ghz_witness_expectation(rho),
                   cert.sle_quantify(rho).value)
            return ",".join(format(v, ".17g") for v in row)

        rows = [one(p) for p in np.linspace(*config.grid)]
        return ("p,gme_concurrence,ghz_witness_expectation,sle_negativity\n"
                + "\n".join(rows) + "\n")
    if mode == "thresholds":
        wanted = names or ["all"]
        if wanted == ["all"]:
            wanted = list(thr.DEFAULT_RANGES)
        unknown = [n for n in wanted if n not in thr.DEFAULT_RANGES]
        if unknown:
            raise ValueError(f"unknown threshold properties: {unknown}")

        reports = [thr.find_threshold(name, tolerance=config.tolerance)
                   for name in wanted]
        return thr.threshold_reports_csv(reports)
    raise ValueError(f"unknown sweep mode {mode!r}")


def _integer(name: str, value) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{name}={value!r} is not an integer") from None


def cmd_coincidence(config: RunConfig, schedule_p: float | None,
                    sample_args: dict | None) -> str:
    if schedule_p is not None:
        return coin.preparation_schedule(schedule_p).to_csv()
    if sample_args is not None:
        missing = [k for k in ("setting", "shots") if k not in sample_args]
        if missing:
            raise ValueError(f"--sample needs {missing} as KEY=VALUE tokens")
        setting = sample_args["setting"]
        shots = _integer("--sample shots", sample_args["shots"])
        seed = _integer("--sample seed", sample_args.get("seed", config.seed))
        rho = parse_state_spec(sample_args.get("state", "noisy-ghz:1.0"))
        hist = coin.sample_counts(rho, setting, shots, seed)
        doc = coin.histogram_to_json_dict(setting, shots, seed, hist)
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return coin.enumerate_same_order_events().to_csv()


# ---------------------------------------------------------------------------
# argument parsing

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superact",
        description="Entanglement distillation and certification engine")
    parser.add_argument("--config", help="JSON file with default options")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_cert = sub.add_parser("certify", help="run all certifiers on one state")
    p_cert.add_argument("--input",
                        help="state spec or density-matrix JSON path")
    p_cert.add_argument("--full-certificates", action="store_true",
                        dest="full_certificates",
                        help="embed complete witness and localized-state "
                             "matrices in the report")

    p_dist = sub.add_parser("distill", help="distill two copies of a state")
    p_dist.add_argument("--protocol", choices=("pbs", "cnot"), default=None)
    p_dist.add_argument("--input", action="append",
                        help="state spec; repeat for two different inputs")
    p_dist.add_argument("--localize", metavar="BASIS:QUBIT",
                        help="also localize the output, e.g. x:2")
    p_dist.add_argument("--recertify", action="store_true",
                        help="re-run GME certifiers on the output")

    p_sweep = sub.add_parser("sweep", help="tabulate curves or thresholds")
    group = p_sweep.add_mutually_exclusive_group(required=True)
    group.add_argument("--curves", metavar="START:STOP:COUNT")
    group.add_argument("--certify", metavar="START:STOP:COUNT")
    group.add_argument("--thresholds", metavar="NAMES",
                       help="'all' or comma-separated property names")
    p_sweep.add_argument("--tolerance", type=float)

    p_coin = sub.add_parser("coincidence",
                            help="photonic network tables and sampling")
    group = p_coin.add_mutually_exclusive_group()
    group.add_argument("--schedule", type=float, metavar="P",
                       help="emit the preparation schedule for parameter P")
    group.add_argument("--sample", nargs="+", metavar="KEY=VALUE",
                       help="sample counts, e.g. setting=zzz shots=1000 seed=7")

    # Only certify and distill choose their format, and only sampling is
    # seeded; sweep and coincidence tables are always CSV.
    for p in (p_cert, p_dist, p_sweep, p_coin):
        p.add_argument("--output", help="output path (default: stdout)")
    for p in (p_cert, p_dist):
        p.add_argument("--format", choices=("csv", "json"), dest="fmt")
    p_coin.add_argument("--seed", type=int,
                        help="sampling seed when --sample gives none")
    return parser


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_CONFIG_KINDS = {
    "a string": lambda v: isinstance(v, str),
    "a string or a list of strings":
        lambda v: isinstance(v, str) or _strings(v),
    "a list of strings": _strings,
    "an integer": lambda v: _number(v) and isinstance(v, int),
    "a number": _number,
    "true or false": lambda v: isinstance(v, bool),
}
# The kind of JSON value each option takes in a config file; argparse types
# the same options given as flags.  Any other key is an error, null means
# unset.
_CONFIG_OPTIONS = {
    "input": "a string or a list of strings",
    "sample": "a list of strings",
    "seed": "an integer",
    "tolerance": "a number",
    "schedule": "a number",
    "full_certificates": "true or false",
    "recertify": "true or false",
    **{key: "a string" for key in ("protocol", "localize", "curves", "certify",
                                   "thresholds", "output", "fmt")},
}


def _merge_config(args: argparse.Namespace) -> dict:
    file_options = {}
    if args.config:
        with open(args.config) as fh:
            file_options = json.load(fh)
        if not isinstance(file_options, dict):
            raise ValueError("config file must hold a JSON object")
    for key, value in file_options.items():
        kind = _CONFIG_OPTIONS.get(key)
        if kind is None:
            raise ValueError(f"unknown config option {key!r}")
        if value is not None and not _CONFIG_KINDS[kind](value):
            raise ValueError(
                f"config option {key!r} must be {kind}, got {value!r}")
    merged = {key: value for key, value in file_options.items()
              if value is not None}
    for key, value in vars(args).items():
        if key != "config" and value is not None:
            merged[key] = value
    return merged


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        options = _merge_config(args)
        sub = options["subcommand"]
        inputs = options.get("input") or []
        if isinstance(inputs, str):
            inputs = [inputs]
        if sub in ("certify", "distill") and not inputs:
            raise ValueError(f"{sub} requires --input (flag or config file)")
        grid_spec = options.get("curves") or options.get("certify")
        config = RunConfig(
            inputs=tuple(inputs),
            grid=_parse_grid(grid_spec) if grid_spec else None,
            tolerance=options.get("tolerance"),
            seed=int(options.get("seed", 0)),
            output=options.get("output"),
            fmt=options.get("fmt") or ("csv" if sub in ("sweep", "coincidence")
                                       else "json"),
        )
        if sub == "certify":
            text = cmd_certify(config, bool(options.get("full_certificates")))
        elif sub == "distill":
            text = cmd_distill(config, options.get("protocol", "pbs"),
                               options.get("localize"),
                               bool(options.get("recertify")))
        elif sub == "sweep":
            if options.get("curves"):
                text = cmd_sweep(config, "curves", None)
            elif options.get("certify"):
                text = cmd_sweep(config, "certify", None)
            else:
                names = [n for n in str(options["thresholds"]).split(",") if n]
                text = cmd_sweep(config, "thresholds", names)
        elif sub == "coincidence":
            sample = None
            if options.get("sample"):
                tokens = options["sample"]
                if any("=" not in token for token in tokens):
                    raise ValueError("--sample tokens must look like KEY=VALUE")
                sample = dict(token.split("=", 1) for token in tokens)
            text = cmd_coincidence(config, options.get("schedule"), sample)
        else:
            raise ValueError(f"unknown subcommand {sub!r}")
        _atomic_write(config.output, text)
    except BrokenPipeError:
        return 0
    except (ValueError, OSError, StateValidationError, json.JSONDecodeError) as exc:
        print(f"superact: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
