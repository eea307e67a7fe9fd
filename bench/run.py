"""End-to-end and per-layer benchmark of superact.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in one process runs jobs in a closed loop: the next job starts
when the previous one has returned.  The seed generates every input.  Every
output is checked against closed-form oracles outside the timed section.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report with units and sample counts, and the environment.
A wrong or failed job makes the command exit with code 1.  Without
``src/superact`` next to this directory it exits with code 2.

Workloads
---------
certify-mixed
    One job is ``superact.cli.main(["certify", "--input", SPEC, "--output",
    TMP])`` on one seeded state: noisy GHZ and noise-model specs (three
    quarters of the pool), noisy W specs, and density-matrix JSON files of
    CNOT-distilled noisy W states and of random states (one X-shaped, one
    not).  This is the paper's per-state verdict, where the PPT-mixer SDP
    and the SLE search share the work and the state family sets the SDP
    iteration count and the Nelder-Mead length.  The JSON inputs exercise
    ``load_density_matrix`` and the ``gme_concurrence: null`` path.
thresholds
    One job sweeps all seven threshold properties in a seeded order, as one
    ``superact.cli.main(["sweep", "--thresholds", NAME, "--output", TMP])``
    call per property, so that each property is timed as a step of its own.
    Only this workload runs the bisection layer, which steers the SDP onto
    near-threshold distilled-W states where it is slowest; an SDP warm
    start or k-section shows here and nowhere else.
distill-scan
    One job takes two copies of a seeded noisy-GHZ or noise-model state
    through the library: ``distill_tripartite`` and ``distill_cnot``,
    ``localize(out, 2, "x", 0)``, ``fidelity_with_pure`` against GHZ and
    Phi+, ``component_fidelity_update`` and ``sampled_ghz_fidelity``.  It
    has no SDP and no SLE search, so a change to either must show no change
    here; a change to a distillation map, to ``DensityMatrix`` validation
    or to sampling must.  It calls the library, not the CLI, because
    building the argument parser would be a third of each job.

End-to-end metrics (``--trace 0``)
----------------------------------
setup_s       median over three fresh interpreters of the time to import
              ``superact.cli``, build the inputs and run one untimed job
job_p50_ms    median time per job; for thresholds, whose jobs are all the
              same work, the sum over its seven steps of each step's median
peak_rss_mb   peak resident memory of the process running the jobs

The machine this was built on changes speed by up to about 1.9x for
seconds at a time, so ``setup_s`` and ``job_p50_ms`` are rescaled: each
timed step is divided by a fixed reference computation timed next to it
(see ``speed.py``), which gives milliseconds at the speed where the
reference takes 1 ms.  The ``ms`` and ``s`` of these metrics in
``BENCHMARK.json`` are such reference-scaled times, not wall time.  The
reference runs in the same process as the jobs, so a change that alters
that process's state (BLAS threads, heap, caches) can move it as well as
the jobs; a claimed gain should therefore also be checked against the
plain wall-clock median and the reference median, which the report
prints and ``BASELINE.json`` keeps for each baseline run.  The report
also prints the plain wall-clock median, the wall-clock 90th percentile
where a run holds at least 100 jobs, and ``error_ratio`` and
``wrong_ratio``; the last two are zero on a correct program and enter the
result as ``failed`` and ``correct``.

Per-layer metrics (``--trace 1``)
---------------------------------
A traced run runs every job untraced and traced, over whole cycles of the
input pool, so counts averaged per job repeat exactly for a seed.  Times
are medians over the jobs that enter the layer, rescaled like
``job_p50_ms``; counts are means over all jobs.  Every recorded span
(name, start, end, parent, job, info) is written, one JSON object a line,
to ``.bench_work/spans-WORKLOAD-SEED.jsonl`` under the checkout when the
run ends.  What each layer should
move:

cli.self_ms                      certify-mixed (small share); not distill-scan
states.dm_count/dm_ms/load_ms    mostly distill-scan; a little certify-mixed
linalg.eig_*                     certify-mixed and thresholds (4x4, SLE);
                                 distill-scan (8x8, validation)
distill.*                        distill-scan only
certify.sle_*, certify.gme_ms    certify-mixed and thresholds; not
                                 distill-scan
sdp.*                            thresholds and certify-mixed; not
                                 distill-scan
thresholds.*                     thresholds only
coincidence.sample_*             distill-scan only
trace.overhead_ratio             none; traced over untraced job_p50_ms

With one client and nothing contending, a faster layer saves at most its
share of a job.  A layer a workload never enters reads zero there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
WORKLOADS = ("certify-mixed", "thresholds", "distill-scan")
SETUP_SAMPLES = 3
P90_MIN_JOBS = 100
THREAD_VARIABLES = ("SUPERACT_THREADS", "OMP_NUM_THREADS",
                    "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Benchmark superact on one seeded workload.",
        epilog=__doc__.split("Workloads\n---------\n", 1)[1],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def set_up(name: str, seed: int, workdir: str):
    """Import, build the inputs and run one checked job.

    Returns the set-up time rescaled by the reference timed just before the
    build (after the import) and just after the warm job, the workload and
    the speed clock.
    """
    start = perf_counter()
    import superact.cli  # noqa: F401
    import speed
    import workloads

    clock = speed.Speed()
    mark = perf_counter()
    ref_before = clock.settle()
    paused = perf_counter() - mark
    workload = workloads.WORKLOADS[name](seed, workdir)
    job = workload.warm
    problems = workload.check(job, [step() for _, step in workload.steps(job)])
    elapsed = perf_counter() - start - paused
    if problems:
        raise SystemExit(f"bench: warm-up job {job.key!r} is wrong: "
                         f"{problems}")
    ref = 0.5 * (ref_before + clock.settle())
    return elapsed / ref * speed.REF_MS / 1e3, workload, clock


def probe_setups(args, count: int) -> list[float]:
    """Set up in fresh interpreters, one after another."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise SystemExit(f"bench: set-up probe failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])
                     ["setup_s"])
    return times


class Loop:
    """Closed-loop job runner: times each step, tallies failures.

    A reference computation runs between steps (see ``speed``), outside
    the timed steps.  ``timed`` holds, per completed job, its index, whether
    it was traced, and the (step name, start, end) of each step.
    """

    def __init__(self, workload, speed, tracer=None):
        self.workload = workload
        self.speed = speed
        self.tracer = tracer
        self.attempted = 0
        self.errors = 0
        self.wrong = 0
        self.timed: list[tuple[int, bool, list]] = []

    def run(self, job, index: int, traced: bool = False) -> None:
        self.attempted += 1
        results, steps = [], []
        try:
            for name, step in self.workload.steps(job):
                self.speed.sample()
                if traced:
                    self.tracer.job = index
                start = perf_counter()
                try:
                    results.append(step())
                finally:
                    end = perf_counter()
                    if traced:
                        self.tracer.job = None
                steps.append((name, start, end))
        except Exception as exc:  # the loop must go on and count the failure
            self._log(job, f"raised {type(exc).__name__}: {exc}")
            self.errors += 1
            return
        self.timed.append((index, traced, steps))
        try:
            problems = self.workload.check(job, results)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        if problems:
            self._log(job, "; ".join(problems))
            self.wrong += 1

    def wall_ms(self) -> list[float]:
        """Wall time of each completed untraced job, in ms."""
        return [sum(end - start for _, start, end in steps) * 1e3
                for _, traced, steps in self.timed if not traced]

    def job_ms(self, traced: bool = False) -> float:
        """Rescaled median job time: the sum over step names of the median
        rescaled time of that step.

        A job of one step gives the plain median over jobs.  A workload
        whose jobs are all the same work in several steps (thresholds) gets
        the median job assembled from medians of steps of at most a few
        seconds, which the machine's slow phases cannot all cover.
        """
        by_step: dict[str, list[float]] = {}
        for _, t, steps in self.timed:
            if t == traced:
                for name, start, end in steps:
                    by_step.setdefault(name, []).append(
                        self.speed.rescale(start, end))
        return sum(statistics.median(v) for v in by_step.values())

    def _log(self, job, message: str) -> None:
        if self.errors + self.wrong < 10:
            print(f"bench: job {job.key!r}: {message}", file=sys.stderr)


def measure(loop: Loop, seconds: float) -> None:
    """Cycle the pool until the time is up."""
    jobs = loop.workload.jobs
    deadline = perf_counter() + seconds
    index = 0
    while perf_counter() < deadline:
        loop.run(jobs[index % len(jobs)], index)
        index += 1
    loop.speed.sample(force=True)


def measure_traced(loop: Loop, seconds: float) -> None:
    """Run each job untraced and traced, over whole cycles of the pool.

    Which of the two runs first alternates, so that neither pass gains
    from caches the other warmed.
    """
    jobs, cycle = loop.workload.jobs, loop.workload.cycle
    deadline = perf_counter() + seconds
    index = 0
    loop.tracer.install()
    try:
        while index % cycle or perf_counter() < deadline or not index:
            job = jobs[index % len(jobs)]
            for traced in (False, True) if index % 2 else (True, False):
                loop.run(job, index, traced)
            index += 1
    finally:
        loop.tracer.uninstall()
    loop.speed.sample(force=True)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "superact").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": _git_head(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("openblas configuration",
                         f"{blas.get('name')} {blas.get('version')}"),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in THREAD_VARIABLES},
    }


def _git_head() -> str | None:
    """HEAD of a git checkout at ROOT, read from its files; None elsewhere."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _line(name, value, unit, note) -> str:
    return f"{name:<36} {value:>14.6g} {unit:<6} {note}"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "superact" / "__init__.py").is_file():
        print(f"bench: no superact sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


def _run(args, workdir: str) -> int:
    setup_s, workload, clock = set_up(args.workload, args.seed, workdir)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    print(f"# superact benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + json.dumps(environment(), sort_keys=True))
    if args.trace:
        import spans

        loop = Loop(workload, clock, spans.Tracer())
        measure_traced(loop, args.seconds)
        scale = {index: sum(clock.rescale(start, end) / 1e3
                            for _, start, end in steps)
                 / sum(end - start for _, start, end in steps)
                 for index, traced, steps in loop.timed if traced}
        if len(scale) * 2 != len(loop.timed) or not scale:
            print("bench: a traced or untraced job failed", file=sys.stderr)
            return 1
        layers = spans.summarize(loop.tracer.job_metrics(scale),
                                 loop.job_ms(traced=True), loop.job_ms())
        metrics = {name: {"value": layers[name],
                          "unit": spans.LAYER_UNITS[name]}
                   for name in spans.LAYER_UNITS}
        for name, m in metrics.items():
            print(_line(name, m["value"], m["unit"],
                        f"(per job, {len(scale)} traced jobs)"))
        spans_path = WORK_ROOT / f"spans-{args.workload}-{args.seed}.jsonl"
        loop.tracer.write(spans_path)
        print(f"spans: {len(loop.tracer.spans)} written to "
              f"{spans_path.relative_to(ROOT)}")
    else:
        setups = [setup_s] + probe_setups(args, SETUP_SAMPLES - 1)
        loop = Loop(workload, clock)
        measure(loop, args.seconds)
        wall = sorted(loop.wall_ms())
        n = len(wall)
        if not n:
            print("bench: no job completed", file=sys.stderr)
            return 1
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "job_p50_ms": {"value": loop.job_ms(), "unit": "ms"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
        refs = clock.seconds
        print(_line("setup_s", metrics["setup_s"]["value"], "s",
                    f"(rescaled, median of {len(setups)} set-ups)"))
        print(_line("job_p50_ms", metrics["job_p50_ms"]["value"], "ms",
                    f"(rescaled, n={n} jobs)"))
        print(_line("job_wall_p50_ms", statistics.median(wall), "ms",
                    f"(wall, n={n} jobs)"))
        if n >= P90_MIN_JOBS:
            print(_line("job_wall_p90_ms", statistics.quantiles(wall, n=10)[8],
                        "ms", f"(wall, n={n} jobs)"))
        else:
            print(f"{'job_wall_p90_ms':<36} {'-':>14} {'ms':<6} "
                  f"(not reported: n={n} < {P90_MIN_JOBS} jobs)")
        print(_line("reference_ms", statistics.median(refs) * 1e3, "ms",
                    f"(wall, median of {len(refs)}; fastest "
                    f"{min(refs) * 1e3:.4g} ms)"))
        print(_line("peak_rss_mb", rss_mb, "MB", "(1 process)"))
    attempted = loop.attempted
    print(_line("error_ratio", loop.errors / attempted, "ratio",
                f"({loop.errors}/{attempted} jobs)"))
    print(_line("wrong_ratio", loop.wrong / attempted, "ratio",
                f"({loop.wrong}/{attempted} jobs)"))
    failed = loop.errors + loop.wrong
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
