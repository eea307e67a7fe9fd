"""Command-line driver: certify, distill, sweep, coincidence.

Built-in state specs (``noisy-ghz:P``, ``noisy-w:P``, ``noise-model:P,Q,R``)
cover the canonical states; anything else is read as a density-matrix JSON
file ``{"n_qubits": k, "re": [[...]], "im": [[...]]}``.  A text is a
built-in spec when what precedes its first colon names one, so a file path
may hold a colon; a text with a colon that names neither a built-in state
nor an existing file is an unrecognized spec.

``main`` takes one path for every subcommand: parse the flags, merge them
over the ``--config`` file, check every option once, call the subcommand's
handler from ``_COMMANDS`` and write its whole report atomically, so no
partial output file is ever left behind and nothing is computed before every
option has passed its check.  Flags beat the config file; a mode flag given
on the command line (``--curves``/``--certify``/``--thresholds``, or
``--schedule``/``--sample``) also drops the file's other modes of its group.
With identical configuration (including seeds) the output files are
byte-identical.  A flag that could not change the output is a usage
error (exit code 2): a flag the subcommand does not take, and
``sweep --tolerance`` without ``--thresholds``.  So is a second occurrence
of a flag that takes one value, which would silently replace the first,
``--sample`` included (its one value is its token list).  ``--input``
repeats by design.  A key given twice inside one ``--sample`` is an
error (exit code 1), for the same reason.

The library returns values; this module renders every report.  JSON goes
through ``json.dumps`` with sorted keys.  Every CSV table, the flattened
``certify`` and ``distill`` reports and the ``sweep`` and ``coincidence``
tables alike, goes through one writer, ``_table``: the ``csv`` module's
quoting and newline line ends, floats at 17 significant digits and any
other cell as ``str``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys

import numpy as np

from . import certify as cert
from . import coincidence as coin
from . import thresholds as thr
from .distill import _basis_key, distill_cnot, distill_tripartite, localize
from .sdp import GAP_TOL, ppt_mixer_witness
from .states import (
    DensityMatrix,
    StateValidationError,
    _is_integer,
    _resolve_qubits,
    _write_atomically,
    bell_phi_plus,
    bloch_state,
    density_matrix_to_dict,
    fidelity_with_pure,
    ghz3,
    load_density_matrix,
    noise_model_state,
    noisy_ghz,
    noisy_w,
    project_subsystem,
)


# Built-in state spec name -> (constructor, number of parameters).
_BUILT_IN_STATES = {"noisy-ghz": (noisy_ghz, 1), "noisy-w": (noisy_w, 1),
                    "noise-model": (noise_model_state, 3)}


def parse_state_spec(spec: str) -> DensityMatrix:
    """Resolve a built-in state spec or a density-matrix JSON file path."""
    name, colon, argstr = spec.partition(":")
    if not colon or (name not in _BUILT_IN_STATES and os.path.exists(spec)):
        return load_density_matrix(spec)
    build, arity = _BUILT_IN_STATES.get(name, (None, -1))
    try:
        args = [float(tok) for tok in argstr.split(",")]
    except ValueError:
        args = None
    if args is None or len(args) != arity:
        raise ValueError(f"unrecognized state spec {spec!r}")
    return build(*args)


def _atomic_write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        _write_atomically(path, text)


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


def _table(header, rows) -> str:
    """One CSV table: a float cell, NumPy's included, prints at 17
    significant digits, any other cell as ``str`` (so None is "None")."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for row in (header, *rows):
        writer.writerow([format(v, ".17g") if isinstance(v, float) else str(v)
                         for v in row])
    return out.getvalue()


def _render(doc: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    flat = _flatten(doc)
    return _table(flat.keys(), [flat.values()])


# ---------------------------------------------------------------------------
# subcommands

def cmd_certify(options: dict) -> str:
    spec = options["input"][0]
    rho = parse_state_spec(spec)
    report: dict = {"input": spec}

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
    witness = ppt_mixer_witness(rho, gap_tol=options.get("tolerance", GAP_TOL))
    report["ppt_mixer"] = {
        "optimal_value": witness.optimal_value,
        "lower_bound": witness.lower_bound,
        "certified_sign": witness.certified_sign,
        "converged": witness.converged,
        "iterations": witness.iterations,
        "max_residual": max(witness.residuals),
    }

    found = cert.sle_quantify(rho)
    records = (("negativity", "negativity", found.negativity),
               ("min_eigenvalue", "min-eigenvalue-after-pt",
                found.min_eigenvalue))
    if options.get("full_certificates"):
        from .sdp import witness_result_to_json_dict

        report["ppt_mixer"] = witness_result_to_json_dict(witness)
        # The default search keeps qubits (0, 1) and projects qubit 2.
        localized, _ = project_subsystem(
            rho, bloch_state(found.theta, found.phi), 2, normalize=True)
        localized_state = density_matrix_to_dict(localized)
        report["sle"] = {label: {
            "value": value,
            "optimizer": {"theta": found.theta, "phi": found.phi},
            "quantifier": quantifier,
            "localized_state": localized_state,
        } for label, quantifier, value in records}
    else:
        report["sle"] = {label: {"value": value, "theta": found.theta,
                                 "phi": found.phi}
                         for label, _, value in records}
    return _render(report, options["fmt"])


def cmd_distill(options: dict) -> str:
    specs, protocol = options["input"], options["protocol"]
    if len(specs) == 1:
        specs = specs * 2
    rho1, rho2 = parse_state_spec(specs[0]), parse_state_spec(specs[1])
    if "localize" in options:  # distilling keeps the inputs' qubit count
        _resolve_qubits(options["localize"][1], rho1.n_qubits)
    if protocol == "pbs":
        outcome = distill_tripartite(rho1, rho2)
    else:
        outcome = distill_cnot(rho1, rho2)

    report: dict = {
        "protocol": protocol,
        "inputs": specs,
        "success_probability": outcome.success_probability,
        "branch_weights": {label: w for label, w in outcome.parity_branch_weights},
    }
    if outcome.state.n_qubits == 3:
        report["fidelity_ghz"] = fidelity_with_pure(outcome.state, ghz3())
        report["w_witness_expectation"] = cert.w_witness_expectation(outcome.state)

    if "localize" in options:
        basis, qubit = options["localize"]
        state, weight = localize(outcome.state, qubit, basis, 0)
        report["localized"] = {
            "basis": basis,
            "qubit": qubit,
            "outcome": 0,
            "weight": weight,
            "fidelity_epr": fidelity_with_pure(state, bell_phi_plus()),
        }
    if options.get("recertify"):
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
    return _render(report, options["fmt"])


def cmd_sweep(options: dict) -> str:
    if "thresholds" in options:
        reports = [thr.find_threshold(name, tolerance=options.get("tolerance"))
                   for name in options["thresholds"]]
        return _table(("property", "crossing_p", "bracket_width", "evaluations"),
                      [(r.property_name, r.crossing_p, r.bracket_width,
                        r.evaluations) for r in reports])
    if "curves" in options:
        return _table(("p", "F_initial", "F1", "F2"),
                      thr.fidelity_curves(np.linspace(*options["curves"])))
    grid = ((p, noisy_ghz(p)) for p in np.linspace(*options["certify"]))
    return _table(("p", "gme_concurrence", "ghz_witness_expectation",
                   "sle_negativity"),
                  [(p, cert.gme_concurrence_x(rho),
                    cert.ghz_witness_expectation(rho),
                    cert.sle_quantify(rho).negativity) for p, rho in grid])


def cmd_coincidence(options: dict) -> str:
    if "schedule" in options:
        schedule = coin.preparation_schedule(options["schedule"])
        return _table(("component", "M1", "M2", "M3", "probability"),
                      [(r.label, r.m1, r.m2, r.m3, r.probability)
                       for r in schedule.rows])
    if options.get("sample"):
        setting, shots, seed, state = options["sample"]
        hist = coin.sample_counts(parse_state_spec(state), setting, shots, seed)
        return _render({"setting": setting, "shots": shots, "seed": seed,
                        "histogram": hist}, "json")
    return _table(
        ("class", "hwp", "epr1", "epr2", "epr3", "epr4", *coin.TERMINALS,
         "coincidence"),
        [(r.class_label, r.hwp.label(),
          *(r.event.source_description(s) for s in range(1, 5)),
          *r.pattern.counts, "yes" if r.coincidence else "no")
         for r in coin.enumerate_same_order_events().rows])


# Subcommand name -> handler; each reads the checked options it needs.
_COMMANDS = {"certify": cmd_certify, "distill": cmd_distill,
             "sweep": cmd_sweep, "coincidence": cmd_coincidence}


# ---------------------------------------------------------------------------
# argument parsing

class _Once(argparse.Action):
    """Stores a flag's one value; a repeat of the flag, whose later value
    would silently replace the earlier one, is a usage error.  The default,
    None, marks a flag not yet given."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            raise argparse.ArgumentError(self, "may be given only once")
        setattr(namespace, self.dest, values)


# One parser serves every main() call of a process: parse_args leaves it as
# it was, and building it takes ~0.7 ms (2-vCPU VM), an eighth of a small
# certify job.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superact",
        description="Entanglement distillation and certification engine")
    parser.add_argument("--config", action=_Once,
                        help="JSON file with default options")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # The store_true flags default to None, not False, so that leaving one
    # out keeps the config file's value.
    p_cert = sub.add_parser("certify", help="run all certifiers on one state")
    p_cert.add_argument("--input", action="append",
                        help="state spec or density-matrix JSON path")
    p_cert.add_argument("--full-certificates", action="store_true",
                        dest="full_certificates", default=None,
                        help="embed complete witness and localized-state "
                             "matrices in the report")

    p_dist = sub.add_parser("distill", help="distill two copies of a state")
    p_dist.add_argument("--protocol", action=_Once, choices=("pbs", "cnot"))
    p_dist.add_argument("--input", action="append",
                        help="state spec; repeat for two different inputs")
    p_dist.add_argument("--localize", action=_Once, metavar="BASIS:QUBIT",
                        help="also localize the output, e.g. x:2")
    p_dist.add_argument("--recertify", action="store_true", default=None,
                        help="re-run GME certifiers on the output")

    p_sweep = sub.add_parser("sweep", help="tabulate curves or thresholds")
    group = p_sweep.add_mutually_exclusive_group(required=True)
    group.add_argument("--curves", action=_Once, metavar="START:STOP:COUNT")
    group.add_argument("--certify", action=_Once, metavar="START:STOP:COUNT")
    group.add_argument("--thresholds", action=_Once, metavar="NAMES",
                       help="'all' or comma-separated property names")
    p_sweep.add_argument("--tolerance", action=_Once, type=float)

    p_coin = sub.add_parser("coincidence",
                            help="photonic network tables and sampling")
    group = p_coin.add_mutually_exclusive_group()
    group.add_argument("--schedule", action=_Once, type=float, metavar="P",
                       help="emit the preparation schedule for parameter P")
    group.add_argument("--sample", action=_Once, nargs="+",
                       metavar="KEY=VALUE",
                       help="sample counts, e.g. setting=zzz shots=1000 seed=7")

    # Only certify and distill choose their format, and only sampling is
    # seeded; sweep and coincidence tables are always CSV.
    for p in (p_cert, p_dist, p_sweep, p_coin):
        p.add_argument("--output", action=_Once,
                       help="output path (default: stdout)")
    for p in (p_cert, p_dist):
        p.add_argument("--format", action=_Once, choices=("csv", "json"),
                       dest="fmt")
    p_coin.add_argument("--seed", action=_Once, type=int,
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
    "an integer": _is_integer,
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
# Mode options, one group per subcommand that has modes.  A mode flag given
# on the command line drops the config file's other modes of its group.
_MODE_GROUPS = ({"curves", "certify", "thresholds"}, {"schedule", "sample"})
# Largest grid count: np.linspace allocates every point at once.
_MAX_GRID_COUNT = 1_000_000


def _merge_config(args: argparse.Namespace) -> dict:
    file_options = {}
    if args.config:
        with open(args.config) as fh:
            try:
                file_options = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"config file {args.config} is not valid "
                                 f"JSON: {exc}") from None
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
    flags = {key: value for key, value in vars(args).items()
             if key != "config" and value is not None}
    for group in _MODE_GROUPS:
        if group & flags.keys():
            merged = {k: v for k, v in merged.items() if k not in group}
    return merged | flags


def _parse_grid(spec: str) -> tuple[float, float, int]:
    try:
        start, stop, count = spec.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError:
        raise ValueError(
            f"grid spec {spec!r} is not START:STOP:COUNT") from None
    if count < 1:
        raise ValueError("grid count must be at least 1")
    if count > _MAX_GRID_COUNT:
        raise ValueError(
            f"grid count must be at most {_MAX_GRID_COUNT}, got {count}")
    if not np.all(np.isfinite((start, stop))):
        raise ValueError(
            f"grid start and stop must be finite, got {(start, stop)}")
    return start, stop, count


def _integer(name: str, value) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{name}={value!r} is not an integer") from None


def _check_options(options: dict) -> dict:
    """Check every merged option, parsing the structured ones in place.

    A key the subcommand does not use is checked all the same.
    """
    sub, inputs = options["subcommand"], options.get("input") or []
    options["input"] = [inputs] if isinstance(inputs, str) else inputs
    if sub in ("certify", "distill") and not inputs:
        raise ValueError(f"{sub} requires --input (flag or config file)")
    if sub == "certify" and len(options["input"]) > 1:
        raise ValueError("certify takes one input state")
    if sub == "distill" and len(options["input"]) > 2:
        raise ValueError("distill takes one or two input states")
    for mode in ("curves", "certify"):
        if mode in options:
            options[mode] = _parse_grid(options[mode])
    options["fmt"] = options.get("fmt") or "json"
    if options["fmt"] not in ("csv", "json"):
        raise ValueError(f"unknown output format {options['fmt']!r}")
    tolerance = options.get("tolerance")
    if tolerance is not None and not 0 < tolerance < np.inf:
        raise ValueError(
            f"tolerance must be positive and finite, got {tolerance}")
    if options.setdefault("protocol", "pbs") not in ("pbs", "cnot"):
        raise ValueError(f"unknown protocol {options['protocol']!r}")
    if "localize" in options:
        basis, _, digits = options["localize"].partition(":")
        try:
            options["localize"] = basis, int(digits)
        except ValueError:
            raise ValueError(f"--localize {options['localize']!r} is not "
                             f"BASIS:QUBIT, e.g. x:2") from None
        _basis_key(basis)
    if "thresholds" in options:
        names = [n for n in options["thresholds"].split(",") if n]
        if names in ([], ["all"]):
            names = list(thr.DEFAULT_RANGES)
        unknown = [n for n in names if n not in thr.DEFAULT_RANGES]
        if unknown:
            raise ValueError(f"unknown threshold properties: {unknown}")
        options["thresholds"] = names
    if options.get("sample"):
        if any("=" not in token for token in options["sample"]):
            raise ValueError("--sample tokens must look like KEY=VALUE")
        pairs = [token.split("=", 1) for token in options["sample"]]
        keys = [key for key, _ in pairs]
        repeated = sorted({key for key in keys if keys.count(key) > 1})
        if repeated:
            raise ValueError(f"--sample gives {repeated} more than once")
        sample = dict(pairs)
        missing = [k for k in ("setting", "shots") if k not in sample]
        if missing:
            raise ValueError(f"--sample needs {missing} as KEY=VALUE tokens")
        options["sample"] = (
            sample["setting"], _integer("--sample shots", sample["shots"]),
            _integer("--sample seed", sample.get("seed", options.get("seed", 0))),
            sample.get("state", "noisy-ghz:1.0"))
    return options


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # A sweep's mode is always a flag, and only --thresholds reads a
    # --tolerance flag (the config key stays checked, without effect).
    if vars(args).get("tolerance") is not None and args.thresholds is None:
        parser.error("argument --tolerance: not allowed without --thresholds")
    try:
        options = _check_options(_merge_config(args))
        _atomic_write(options.get("output"),
                      _COMMANDS[args.subcommand](options))
    except BrokenPipeError:
        return 0
    except (ValueError, OSError, StateValidationError, json.JSONDecodeError) as exc:
        print(f"superact: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
