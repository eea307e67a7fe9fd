"""Seeded inputs, jobs and oracle checks of the three benchmark workloads.

Each workload builds a pool of jobs from the seed.  ``steps(job)`` lists the
job's timed steps as (name, callable) pairs, and ``check(job, results)``
checks their return values and output files outside the timed section.  The
pool is cycled, so a run of any length sees the same mix of inputs; per-job
counts averaged over whole cycles are therefore exact.  See ``run.py`` for
why each workload exists.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from superact import cli
from superact.coincidence import sampled_ghz_fidelity
from superact.distill import (
    analytic_distilled_noisy_ghz,
    component_fidelity_update,
    distill_cnot,
    distill_tripartite,
    localize,
)
from superact.states import (
    DensityMatrix,
    bell_phi_plus,
    fidelity_with_pure,
    ghz3,
    make_ghz,
    noise_model_state,
    noisy_ghz,
    noisy_w,
    save_density_matrix,
)
from superact.thresholds import DEFAULT_RANGES

GHZ_GME = 3.0 / 7.0
GHZ_SLE = 1.0 / 3.0
W_SLE = 3.0 / 11.0
W_GME = 0.479
W_GME_AFTER = 0.519
# Family states closer than this to a threshold get no sign check: the
# solvers' verdicts there are not certain enough to serve as an oracle.
SIGN_MARGIN = 0.02
LEAKAGE_TOL = 1e-8
EXACT_TOL = 1e-12
SLE_POSITIVE = 1e-9

CLOSED_FORM_CROSSINGS = {
    "GME": GHZ_GME,
    "SLE": GHZ_SLE,
    "GME-after-distill": (4.0 * math.sqrt(3.0) - 3.0) / 13.0,
    "SLE-after-distill": (2.0 * math.sqrt(2.0) - 1.0) / 7.0,
    "W-SLE": W_SLE,
}
SDP_CROSSING_WINDOWS = {
    "W-GME": (0.474, 0.484),
    "W-GME-after-distill": (0.514, 0.524),
}
CROSSING_TOL = 1e-5


class JobError(RuntimeError):
    """The program under test reported failure for a job."""


@dataclass
class Job:
    """One seeded input and what its output must satisfy."""

    key: str
    argv: list[str] = field(default_factory=list)
    state: DensityMatrix | None = None
    expect: dict = field(default_factory=dict)
    components: np.ndarray | None = None
    shot_seed: int = 0


def _stratified(rng, intervals, n: int) -> list[float]:
    """n points over a union of intervals, one per equal-length stratum."""
    total = sum(hi - lo for lo, hi in intervals)
    points = []
    for k in range(n):
        u = (k + rng.uniform(0.1, 0.9)) / n * total
        for lo, hi in intervals:
            if u <= hi - lo:
                points.append(round(lo + u, 6))
                break
            u -= hi - lo
    return points


def _away(constants, lo: float, hi: float):
    """[lo, hi] minus a SIGN_MARGIN window around each constant."""
    intervals = [(lo, hi)]
    for c in sorted(constants):
        split = []
        for a, b in intervals:
            if a < c - SIGN_MARGIN:
                split.append((a, min(b, c - SIGN_MARGIN)))
            if b > c + SIGN_MARGIN:
                split.append((max(a, c + SIGN_MARGIN), b))
        intervals = split
    return intervals


def _x_pattern(dim: int) -> np.ndarray:
    idx = np.arange(dim)
    mask = np.zeros((dim, dim), dtype=bool)
    mask[idx, idx] = True
    mask[idx, dim - 1 - idx] = True
    return mask


def _x_concurrence(m: np.ndarray) -> float:
    """2 max(0, max_i |c_i| - sum_{j != i} sqrt(a_j b_j)), from the entries."""
    d = m.shape[0]
    roots = [math.sqrt(max(m[i, i].real * m[d - 1 - i, d - 1 - i].real, 0.0))
             for i in range(d // 2)]
    args = [abs(m[i, d - 1 - i]) - (sum(roots) - roots[i])
            for i in range(d // 2)]
    return 2.0 * max(0.0, max(args))


def _noise_model_arguments(p: float, q: float, r: float) -> list[float]:
    """Unclipped X-shape concurrence arguments of noise_model_state."""
    weights = [r] + [(1.0 - r) / 3.0] * 3
    diag = [p * w / 2.0 + (1.0 - p) / 8.0 for w in weights]
    coher = [p * w * (2.0 * q - 1.0) / 2.0 for w in weights]
    return [abs(coher[k]) - (sum(diag) - diag[k]) for k in range(4)]


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v)
               for v in values)


def _cli(argv: list[str]) -> None:
    rc = cli.main(argv)
    if rc != 0:
        raise JobError(f"cli.main returned {rc}")


def _read_output(path: str) -> str:
    with open(path) as fh:
        text = fh.read()
    os.remove(path)
    return text


# ---------------------------------------------------------------------------
# certify-mixed


class CertifyMixed:
    """``superact certify`` on one seeded state per job."""

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 1])
        self.output = os.path.join(workdir, "certify.json")
        jobs = []
        # GHZ-type states, the paper's experimental ones, are three quarters
        # of the pool; that also keeps the median job inside one cluster of
        # similar jobs, whose level run-to-run noise moves least.
        for p in _stratified(rng, _away((GHZ_SLE, GHZ_GME), 0.2, 0.95), 14):
            concurrence = 2.0 * max(0.0, p / 2.0 - 3.0 * (1.0 - p) / 8.0)
            jobs.append(self._job(f"noisy-ghz:{p!r}", {
                "concurrence": concurrence,
                "ppt_sign": "negative" if p > GHZ_GME else "nonnegative",
                "sle_positive": p > GHZ_SLE,
                "ghz_witness": 0.5 - (p + (1.0 - p) / 8.0),
            }))
        for p in _stratified(rng, [(0.6, 0.95)], 12):
            q, r = (round(float(x), 6) for x in rng.uniform(0.85, 0.98, 2))
            arg = max(_noise_model_arguments(p, q, r))
            expect = {"concurrence": 2.0 * max(0.0, arg)}
            # The concurrence is twice the argument.
            if abs(arg) >= SIGN_MARGIN / 2.0:
                expect["ppt_sign"] = "negative" if arg > 0 else "nonnegative"
            jobs.append(self._job(f"noise-model:{p!r},{q!r},{r!r}", expect))
        for p in _stratified(rng, _away((W_SLE, W_GME), 0.2, 0.95), 4):
            jobs.append(self._job(f"noisy-w:{p!r}", {
                "ppt_sign": "negative" if p > W_GME else "nonnegative",
                "sle_positive": p > W_SLE,
            }))
        for k, p in enumerate(_stratified(rng, [(0.45, 0.55)], 2)):
            rho = distill_cnot(noisy_w(p), noisy_w(p)).state
            expect = {}
            if abs(p - W_GME_AFTER) >= SIGN_MARGIN:
                expect["ppt_sign"] = ("negative" if p > W_GME_AFTER
                                      else "nonnegative")
            jobs.append(self._file_job(workdir, f"distilled-w-{k}", rho,
                                       expect))
        for k, x_shaped in enumerate((True, False)):
            rank = int(rng.integers(1, 9))
            a = (rng.normal(size=(8, rank))
                 + 1j * rng.normal(size=(8, rank)))
            m = a @ a.conj().T
            if x_shaped:
                m = np.where(_x_pattern(8), m, 0.0)
            m = m / np.trace(m).real
            mix = float(rng.uniform(0.3, 0.8))
            m = mix * m + (1.0 - mix) * np.eye(8) / 8.0
            m = 0.5 * (m + m.conj().T)
            expect = {"concurrence": _x_concurrence(m)} if x_shaped else {}
            jobs.append(self._file_job(workdir, f"random-{k}",
                                       DensityMatrix(3, m), expect))
        order = rng.permutation(len(jobs))
        self.jobs = [jobs[i] for i in order]
        self.cycle = len(self.jobs)
        self.warm = next(j for j in self.jobs
                         if j.key.startswith("noisy-ghz:"))

    def _job(self, spec: str, expect: dict) -> Job:
        return Job(key=spec, expect=expect,
                   argv=["certify", "--input", spec, "--output", self.output])

    def _file_job(self, workdir: str, key: str, rho: DensityMatrix,
                  expect: dict) -> Job:
        path = os.path.join(workdir, f"{key}.json")
        save_density_matrix(rho, path)
        return self._job(path, expect)

    def steps(self, job: Job):
        return [("certify", functools.partial(_cli, job.argv))]

    def check(self, job: Job, _results) -> list[str]:
        report = json.loads(_read_output(self.output))
        spec = job.argv[2]
        problems = []
        ppt, sle = report["ppt_mixer"], report["sle"]
        sign = ppt["certified_sign"]
        leakage = report["x_shape_leakage"]
        concurrence = report["gme_concurrence"]
        values = [leakage, report["ghz_witness_expectation"],
                  report["w_witness_expectation"], ppt["optimal_value"],
                  ppt["max_residual"]]
        values += [sle[q][k] for q in ("negativity", "min_eigenvalue")
                   for k in ("value", "theta", "phi")]
        if report["input"] != spec:
            problems.append(f"input echoed as {report['input']!r}")
        if not _finite(*values):
            problems.append(f"non-finite value in {values}")
        if sign not in ("negative", "nonnegative", "indeterminate"):
            problems.append(f"unknown sign {sign!r}")
        if (concurrence is None) != (leakage > LEAKAGE_TOL):
            problems.append(f"concurrence {concurrence} with leakage "
                            f"{leakage:.3e}")
        expect = job.expect
        if "concurrence" in expect and (
                concurrence is None
                or abs(concurrence - expect["concurrence"]) > EXACT_TOL):
            problems.append(f"concurrence {concurrence} != "
                            f"{expect['concurrence']!r}")
        if "ghz_witness" in expect and abs(
                report["ghz_witness_expectation"]
                - expect["ghz_witness"]) > EXACT_TOL:
            problems.append("GHZ witness differs from closed form")
        if "ppt_sign" in expect and sign != expect["ppt_sign"]:
            problems.append(f"PPT-mixer sign {sign} != {expect['ppt_sign']}")
        if "sle_positive" in expect and (
                (sle["negativity"]["value"] > SLE_POSITIVE)
                != expect["sle_positive"]):
            problems.append(f"SLE negativity {sle['negativity']['value']!r} "
                            f"on the wrong side")
        return problems


# ---------------------------------------------------------------------------
# thresholds


class Thresholds:
    """``superact sweep --thresholds`` on all seven properties, seeded order.

    A job makes one CLI call per property, in the job's order, so that each
    property is timed as a step of its own.  The order changes no work, so
    every job is the same work and one job is a whole cycle.
    """

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 2])
        names = list(DEFAULT_RANGES)
        self.outputs = {name: os.path.join(workdir, f"threshold-{name}.csv")
                        for name in names}
        self.jobs = [Job(key=",".join(names[i]
                                      for i in rng.permutation(len(names))))
                     for _ in range(4)]
        self.cycle = 1
        self.warm = self.jobs[0]

    def steps(self, job: Job):
        return [(name, functools.partial(
                    _cli, ["sweep", "--thresholds", name,
                           "--output", self.outputs[name]]))
                for name in job.key.split(",")]

    def check(self, job: Job, _results) -> list[str]:
        rows = []
        for name in job.key.split(","):
            rows += csv.DictReader(
                _read_output(self.outputs[name]).splitlines())
        problems = []
        if [row["property"] for row in rows] != job.key.split(","):
            problems.append("properties missing or out of order")
        for row in rows:
            name, crossing = row["property"], float(row["crossing_p"])
            if name in CLOSED_FORM_CROSSINGS:
                if abs(crossing - CLOSED_FORM_CROSSINGS[name]) > CROSSING_TOL:
                    problems.append(f"{name} crossing {crossing!r}")
            else:
                lo, hi = SDP_CROSSING_WINDOWS[name]
                if not lo <= crossing <= hi:
                    problems.append(f"{name} crossing {crossing!r} outside "
                                    f"[{lo}, {hi}]")
            if int(row["evaluations"]) < 2:
                problems.append(f"{name}: {row['evaluations']} evaluations")
        return problems


# ---------------------------------------------------------------------------
# distill-scan


@dataclass(frozen=True)
class ScanResult:
    """What one distill-scan job computed."""

    pbs_state: np.ndarray
    pbs_success: float
    branch_total: float
    cnot_state: np.ndarray
    cnot_success: float
    localized_weight: float
    fidelity_ghz: float
    fidelity_epr: float
    components: np.ndarray
    sampled: float
    sigma: float


class DistillScan:
    """Distill, localize and measure two copies of a state via the library."""

    SHOTS = 2000

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 3])
        jobs = []
        for p in _stratified(rng, [(0.5, 0.95)], 32):
            norm = 3 * p * p + 1
            jobs.append(self._job(f"noisy-ghz:{p!r}", noisy_ghz(p), rng, {
                "fidelity_ghz": (25 * p * p + 6 * p + 1) / (8 * norm),
                "fidelity_epr": (13 * p * p + 2 * p + 1) / (4 * norm),
                "success": norm / 8,
                "pbs_state": np.asarray(
                    analytic_distilled_noisy_ghz(p).entries),
            }))
        for p in _stratified(rng, [(0.6, 0.95)], 32):
            q, r = (round(float(x), 6) for x in rng.uniform(0.8, 0.98, 2))
            jobs.append(self._job(f"noise-model:{p!r},{q!r},{r!r}",
                                  noise_model_state(p, q, r), rng, {}))
        order = rng.permutation(len(jobs))
        self.jobs = [jobs[i] for i in order]
        self.cycle = len(self.jobs)
        self.warm = self.jobs[0]

    def _job(self, key: str, rho: DensityMatrix, rng, expect: dict) -> Job:
        m = np.asarray(rho.entries)
        hadamard = m * m
        cnot_success = float(np.trace(hadamard).real)
        components = np.array([fidelity_with_pure(rho, make_ghz(k, s))
                               for k in range(4) for s in (1, -1)])
        expect = dict(expect, cnot_state=hadamard / cnot_success,
                      cnot_success=cnot_success)
        return Job(key=key, state=rho, expect=expect, components=components,
                   shot_seed=int(rng.integers(0, 2 ** 31)))

    def steps(self, job: Job):
        return [("scan", functools.partial(self._scan, job))]

    def _scan(self, job: Job) -> ScanResult:
        rho = job.state
        pbs = distill_tripartite(rho, rho)
        cnot = distill_cnot(rho, rho)
        localized, weight = localize(pbs.state, 2, "x", 0)
        fidelity_ghz = fidelity_with_pure(pbs.state, ghz3())
        fidelity_epr = fidelity_with_pure(localized, bell_phi_plus())
        components = component_fidelity_update(job.components)
        sampled, sigma = sampled_ghz_fidelity(pbs.state, self.SHOTS,
                                              job.shot_seed)
        return ScanResult(
            pbs_state=np.asarray(pbs.state.entries),
            pbs_success=pbs.success_probability,
            branch_total=sum(w for _, w in pbs.parity_branch_weights),
            cnot_state=np.asarray(cnot.state.entries),
            cnot_success=cnot.success_probability,
            localized_weight=weight, fidelity_ghz=fidelity_ghz,
            fidelity_epr=fidelity_epr, components=components,
            sampled=sampled, sigma=sigma)

    def check(self, job: Job, results) -> list[str]:
        out, = results
        expect = job.expect
        problems = []

        def near(label, value, target):
            if np.max(np.abs(np.asarray(value) - target)) > EXACT_TOL:
                problems.append(f"{label} differs from its oracle")

        near("CNOT output", out.cnot_state, expect["cnot_state"])
        near("CNOT success probability", out.cnot_success,
             expect["cnot_success"])
        near("branch weight total", out.branch_total, out.pbs_success)
        # Both families are GHZ-diagonal, so the component update predicts
        # the GHZ fidelity of the parity-check output exactly.
        near("component update", out.components[0], out.fidelity_ghz)
        if "fidelity_ghz" in expect:
            near("GHZ fidelity", out.fidelity_ghz, expect["fidelity_ghz"])
            near("EPR fidelity", out.fidelity_epr, expect["fidelity_epr"])
            near("success probability", out.pbs_success, expect["success"])
            near("parity-check output", out.pbs_state, expect["pbs_state"])
        if not 0.0 < out.localized_weight <= 1.0:
            problems.append(f"localization weight {out.localized_weight!r}")
        if not (out.sigma > 0.0
                and abs(out.sampled - out.fidelity_ghz) <= 5.0 * out.sigma):
            problems.append(f"sampled fidelity {out.sampled!r} +- "
                            f"{out.sigma!r} vs exact {out.fidelity_ghz!r}")
        return problems


WORKLOADS = {
    "certify-mixed": CertifyMixed,
    "thresholds": Thresholds,
    "distill-scan": DistillScan,
}
