"""Span tracing of superact's public functions, from outside the package.

:class:`Tracer` replaces each traced function at every module attribute it
is bound to (``ppt_mixer_witness`` lives in ``superact.sdp``,
``superact.cli`` and ``superact.thresholds``), so a call is recorded no
matter which module makes it.  Spans are kept in memory as
``[name, start, end, parent, job, info]``, aggregated into per-job
layer metrics when a traced pass ends and written out as JSON lines by
:meth:`Tracer.write`.  Outside a job (set-up, oracle checks) the wrappers
call straight through and record nothing.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from time import perf_counter

import numpy as np

import superact.cli  # noqa: F401  (loads every superact module)
from superact.states import DensityMatrix
from superact.thresholds import DEFAULT_RANGES

PROPERTIES = tuple(DEFAULT_RANGES)


def _eig_shape(args, kwargs, result):
    shape = np.shape(kwargs["matrices"] if "matrices" in kwargs else args[0])
    return shape[-1], int(np.prod(shape[:-2], dtype=np.int64))


def _sdp_info(args, kwargs, result):
    return result.iterations, result.certified_sign


def _threshold_info(args, kwargs, result):
    return result.property_name, result.evaluations


# (span name, module, attribute, info extractor).  The span name's prefix
# before the first dot is the layer.
TARGETS = (
    ("cli.main", "superact.cli", "main", None),
    ("states.dm", "superact.states", "DensityMatrix.__post_init__", None),
    ("states.load", "superact.states", "load_density_matrix", None),
    ("linalg.jacobi_eigh", "superact.linalg", "jacobi_eigh", _eig_shape),
    ("linalg.jacobi_eigvalsh", "superact.linalg", "jacobi_eigvalsh", None),
    ("linalg.hermitian_eigenvalues", "superact.linalg",
     "hermitian_eigenvalues", None),
    ("distill.tripartite", "superact.distill", "distill_tripartite", None),
    ("distill.cnot", "superact.distill", "distill_cnot", None),
    ("distill.localize", "superact.distill", "localize", None),
    ("certify.sle", "superact.certify", "sle_quantify", None),
    ("certify.sle_refine", "superact.certify", "sle_quantifier_at", None),
    ("certify.x_shape", "superact.certify", "x_shape_view", None),
    ("certify.concurrence", "superact.certify", "gme_concurrence_x", None),
    ("certify.concurrence_args", "superact.certify",
     "gme_concurrence_arguments", None),
    ("certify.ghz_witness", "superact.certify", "ghz_witness_expectation",
     None),
    ("certify.w_witness", "superact.certify", "w_witness_expectation", None),
    ("sdp.ppt_mixer", "superact.sdp", "ppt_mixer_witness", _sdp_info),
    ("thresholds.find", "superact.thresholds", "find_threshold",
     _threshold_info),
    # Spans each call of the margin closure that certifying_margin returns.
    ("thresholds.margin", "superact.thresholds", "certifying_margin", None),
    ("coincidence.sample_counts", "superact.coincidence", "sample_counts",
     None),
    ("coincidence.sampled_ghz_fidelity", "superact.coincidence",
     "sampled_ghz_fidelity", None),
)

# Span groups whose time is summed over outermost spans only, because their
# members call one another (hermitian_eigenvalues -> jacobi_eigvalsh ->
# jacobi_eigh).
GROUPS = {
    "eig": ("linalg.jacobi_eigh", "linalg.jacobi_eigvalsh",
            "linalg.hermitian_eigenvalues"),
    "gme": ("certify.x_shape", "certify.concurrence",
            "certify.concurrence_args", "certify.ghz_witness",
            "certify.w_witness"),
    "sample": ("coincidence.sample_counts",
               "coincidence.sampled_ghz_fidelity"),
}
_GROUP_OF = {name: group for group, names in GROUPS.items() for name in names}

COUNT_METRICS = (
    "states.dm_count", "linalg.eig_calls", "linalg.eig_mats_4",
    "linalg.eig_mats_8", "distill.calls", "certify.sle_calls",
    "certify.sle_refine_evals", "sdp.calls", "sdp.iterations",
    "coincidence.sample_calls",
) + tuple(f"thresholds.evals.{p}" for p in PROPERTIES)

TIME_METRICS = (
    "cli.self_ms", "states.dm_ms", "states.load_ms", "linalg.eig_ms",
    "distill.tripartite_ms", "distill.cnot_ms", "distill.localize_ms",
    "certify.sle_ms", "certify.sle_self_ms", "certify.sle_refine_ms",
    "certify.gme_ms", "sdp.ms", "thresholds.margin_ms",
    "coincidence.sample_ms",
) + tuple(f"thresholds.ms.{p}" for p in PROPERTIES)

# name -> unit; the order is the report order.
LAYER_UNITS = {
    **{name: "ms" for name in TIME_METRICS},
    **{name: "count" for name in COUNT_METRICS},
    "sdp.iterations_max": "count",
    "sdp.us_per_iter": "us",
    "sdp.certified_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    """Records spans of the wrapped superact functions while a job runs."""

    def __init__(self):
        self.spans: list[list] = []
        self.job: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every target wherever it is bound, scripts' imports too."""
        modules = [m for _, m in sorted(sys.modules.items())
                   if hasattr(m, "__dict__")]
        for span_name, module_name, attr, info in TARGETS:
            if attr == "DensityMatrix.__post_init__":
                original = DensityMatrix.__post_init__
                self._patch(DensityMatrix, "__post_init__",
                            self.wrap(span_name, original, info))
                continue
            original = getattr(sys.modules[module_name], attr)
            if attr == "certifying_margin":
                wrapper = self._wrap_factory(span_name, original)
            else:
                wrapper = self.wrap(span_name, original, info)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name, wrapper) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _wrap_factory(self, span_name, factory):
        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            return self.wrap(span_name, factory(*args, **kwargs))
        return traced_factory

    def wrap(self, span_name, fn, info=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [span_name, 0.0, 0.0, stack[-1] if stack else -1,
                    self.job, None]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if info is not None:
                span[5] = info(args, kwargs, result)
            return result
        return traced

    def write(self, path) -> None:
        """Write every span as one JSON object per line.

        ``start`` and ``end`` are ``perf_counter`` seconds; ``parent`` is
        the line index of the enclosing span, -1 for an outermost one.
        """
        with open(path, "w") as out:
            for name, start, end, parent, job, info in self.spans:
                out.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, "job": job, "info": info},
                    default=_plain) + "\n")

    # -- aggregation --------------------------------------------------------

    def job_metrics(self, scale: dict[int, float]) -> dict[int, dict]:
        """Layer metrics of each job from the spans recorded so far.

        ``scale`` maps each job to the factor that rescales its wall times
        to constant machine speed (see ``speed.py``).
        """
        spans = self.spans
        children_time = [0.0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                children_time[span[3]] += span[2] - span[1]
        jobs = {job: _empty_job() for job in scale}
        for index, (name, start, end, parent, job, info) in enumerate(spans):
            m = jobs[job]
            ms = (end - start) * 1e3 * scale[job]
            group = _GROUP_OF.get(name)
            outermost = (group is None
                         or not _has_ancestor_in(spans, parent, group))
            if name == "cli.main":
                m["cli.self_ms"] += (ms - children_time[index] * 1e3
                                     * scale[job])
            elif name == "states.dm":
                m["states.dm_count"] += 1
                m["states.dm_ms"] += ms
            elif name == "states.load":
                m["states.load_ms"] += ms
            elif group == "eig":
                if name == "linalg.jacobi_eigh":
                    n, batch = info
                    if n in (4, 8):
                        m[f"linalg.eig_mats_{n}"] += batch
                if outermost:
                    m["linalg.eig_calls"] += 1
                    m["linalg.eig_ms"] += ms
            elif name.startswith("distill."):
                m["distill.calls"] += 1
                m[f"{name}_ms"] += ms
            elif name == "certify.sle":
                m["certify.sle_calls"] += 1
                m["certify.sle_ms"] += ms
                m["certify.sle_self_ms"] += ms
            elif name == "certify.sle_refine":
                m["certify.sle_refine_evals"] += 1
                m["certify.sle_refine_ms"] += ms
                if parent >= 0 and spans[parent][0] == "certify.sle":
                    m["certify.sle_self_ms"] -= ms
            elif group == "gme":
                if outermost:
                    m["certify.gme_ms"] += ms
            elif name == "sdp.ppt_mixer":
                iterations, sign = info
                m["sdp.calls"] += 1
                m["sdp.iterations"] += iterations
                m["sdp.iterations_max"] = max(m["sdp.iterations_max"],
                                              iterations)
                m["sdp.ms"] += ms
                m["_sdp_certified"] += sign != "indeterminate"
            elif name == "thresholds.find":
                prop, evaluations = info
                m[f"thresholds.evals.{prop}"] += evaluations
                m[f"thresholds.ms.{prop}"] += ms
            elif name == "thresholds.margin":
                m["thresholds.margin_ms"] += ms
            elif group == "sample":
                if outermost:
                    m["coincidence.sample_calls"] += 1
                    m["coincidence.sample_ms"] += ms
        return jobs


def _plain(value):
    """NumPy scalars in span info, as plain numbers."""
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"span info of type {type(value).__name__}")


def _empty_job() -> dict[str, float]:
    m = {name: 0.0 for name in TIME_METRICS}
    m.update({name: 0 for name in COUNT_METRICS})
    m["sdp.iterations_max"] = 0
    m["_sdp_certified"] = 0
    return m


def _has_ancestor_in(spans, parent: int, group: str) -> bool:
    while parent >= 0:
        if _GROUP_OF.get(spans[parent][0]) == group:
            return True
        parent = spans[parent][3]
    return False


def summarize(jobs: dict[int, dict[str, float]], traced_p50_ms: float,
              untraced_p50_ms: float) -> dict[str, float]:
    """Layer metrics over traced jobs.

    A time is the median over the jobs that enter the layer, a count the
    mean over all jobs; a layer a workload never enters reads zero.
    ``sdp.iterations_max`` is the largest single call, ``sdp.us_per_iter``
    and ``sdp.certified_ratio`` are pooled over all calls.
    """
    per_job = list(jobs.values())
    n = len(per_job)
    out: dict[str, float] = {}
    for name in TIME_METRICS:
        entered = [m[name] for m in per_job if m[name] > 0.0]
        out[name] = statistics.median(entered) if entered else 0.0
    for name in COUNT_METRICS:
        out[name] = sum(m[name] for m in per_job) / n
    calls = sum(m["sdp.calls"] for m in per_job)
    iterations = sum(m["sdp.iterations"] for m in per_job)
    sdp_ms = sum(m["sdp.ms"] for m in per_job)
    out["sdp.iterations_max"] = max(m["sdp.iterations_max"] for m in per_job)
    out["sdp.us_per_iter"] = sdp_ms * 1e3 / iterations if iterations else 0.0
    out["sdp.certified_ratio"] = (
        sum(m["_sdp_certified"] for m in per_job) / calls if calls else 0.0)
    out["trace.overhead_ratio"] = traced_p50_ms / untraced_p50_ms
    return {name: out[name] for name in LAYER_UNITS}
