"""Span recording around the layer functions vcgap.pipeline and
vcgap.harness_cli call, installed from outside the library.

A span is a name, its layer, start and end (perf_counter, which is the
system-wide monotonic clock on Linux, so worker spans line up with the
parent's), process CPU seconds, the parent span, the instance id and the
process id. Spans stay in memory; batch workers ship theirs back inside the
row they return, and the runner writes them all out when it ends.
"""

from __future__ import annotations

import functools
import math
import os
import time
from collections import Counter
from contextlib import contextmanager

import vcgap.harness_cli
import vcgap.pipeline

LAYER_OF = {
    "simplex_solve": "lp_relax",
    "nt_decompose": "lp_relax",
    "admm_solve": "sdp_solve",
    "extract_vectors": "sdp_solve",
    "classify_property1": "rounding_geometry",
    "threshold_cut": "rounding_geometry",
    "build_epsilon_subgraph": "rounding_geometry",
    "odd_cycle_probe": "rounding_geometry",
    "max_matching": "bipartite_vc",
    "konig_cover": "bipartite_vc",
    "maximal_matching_cover": "bipartite_vc",
    "duplicate_join": "graph_core",
    "verify_cover": "graph_core",
    "recombine": "graph_core",
    "exact_vc": "exact_oracle",
    "mahdis_run": "pipeline",
    "evaluate_ratio": "pipeline",
    "generate_graph": "harness_cli",
    "run_instance": "harness_cli",
    "run_batch": "harness_cli",
    "emit_report": "harness_cli",
}
PATCHED_MODULES = (vcgap.pipeline, vcgap.harness_cli)
SHIP_KEY = "_perfbench_spans"

# Every step name mahdis_run can record, so the step histogram has fixed keys.
STEPS = tuple(
    getattr(vcgap.pipeline, name)
    for name in (
        "STEP_EDGELESS",
        "STEP_CUT_PRIME",
        "STEP_CUT_DOUBLE_PRIME",
        "STEP_ARBITRARY_PRIME",
        "STEP_ARBITRARY_DOUBLE_PRIME",
        "STEP_BIPARTITE",
        "STEP_SDP_FALLBACK",
        "STEP_THEOREM6_FALLBACK",
    )
)

# mahdis_run children grouped by the RunTrace.timings stage that encloses them.
STAGE_OF = {
    "simplex_solve": "lp",
    "nt_decompose": "kernelize",
    "duplicate_join": "sdp",
    "admm_solve": "sdp",
    "extract_vectors": "rounding",
    "classify_property1": "rounding",
    "threshold_cut": "rounding",
    "verify_cover": "rounding",
    "build_epsilon_subgraph": "rounding",
    "odd_cycle_probe": "rounding",
    "max_matching": "rounding",
    "konig_cover": "rounding",
    "maximal_matching_cover": "rounding",  # outside every stage after an SDP fallback
}


def _attrs(name: str, args: tuple, result) -> dict:
    if name == "admm_solve":
        return {"dim": args[0].dim, "iters": result.iterations, "converged": result.converged}
    if name == "exact_vc":
        return {"nodes": result.nodes_explored, "status": result.status}
    if name == "mahdis_run":
        return {
            "n": result.n,
            "residual_n": result.residual_n,
            "nt_used": result.nt_used,
            "step": result.step_taken,
            "repairs": len(result.repairs),
            "timings": dict(result.timings),
        }
    if name == "evaluate_ratio":
        return {"certificate_violated": result.certificate_violated}
    return {}


class SpanCheckError(Exception):
    """The recorded spans contradict each other or the library's own timings."""


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.instance: str | None = None
        self._stack: list[int] = []
        self._pid = os.getpid()

    def _open(self, name: str, namespace: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "layer": LAYER_OF.get(name, "perfbench"),
            "namespace": namespace,
            "parent": self._stack[-1] if self._stack else None,
            "instance": self.instance,
            "pid": os.getpid(),
            "attrs": {},
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        span["cpu0"] = time.process_time()
        span["start"] = time.perf_counter()
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        span["cpu"] = time.process_time() - span.pop("cpu0")
        self._stack.pop()

    @contextmanager
    def span(self, name: str, instance: str | None = None):
        """A span of the benchmark's own, e.g. one closed-loop instance."""
        if instance is not None:
            self.instance = instance
        s = self._open(name, "perfbench")
        try:
            yield s
        finally:
            self._close(s)

    def wrap(self, name: str, fn, namespace: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "run_instance" and os.getpid() != self._pid:
                return self._worker_call(fn, args, kwargs)
            s = self._open(name, namespace)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(s)
            s["attrs"] = _attrs(name, args, result)
            return result

        traced.__wrapped_by_perfbench__ = True
        return traced

    def _worker_call(self, fn, args, kwargs):
        """run_instance inside a batch worker: record into a fresh list and
        return it inside the row, because worker memory is lost at exit."""
        saved = (self.spans, self._stack, self.instance)
        spec = args[0]
        self.spans, self._stack = [], []
        self.instance = spec.get("id", repr(spec))
        try:
            s = self._open("run_instance", "vcgap.harness_cli")
            try:
                row = fn(*args, **kwargs)
            finally:
                self._close(s)
            shipped = self.spans
        finally:
            self.spans, self._stack, self.instance = saved
        row[SHIP_KEY] = shipped
        return row

    def adopt_worker_spans(self, rows: list[dict], parent: int) -> None:
        """Move spans shipped in batch rows into this tracer, under `parent`."""
        for row in rows:
            shipped = row.pop(SHIP_KEY, None) or []
            offset = len(self.spans)
            for s in shipped:
                s["id"] += offset
                s["parent"] = parent if s["parent"] is None else s["parent"] + offset
                self.spans.append(s)

    @contextmanager
    def installed(self):
        """Replace the layer functions in the patched namespaces with traced
        wrappers; yields name -> wrapper for the benchmark's own calls."""
        originals = []
        wrapped: dict[str, object] = {}
        for module in PATCHED_MODULES:
            for name in LAYER_OF:
                fn = module.__dict__.get(name)
                if fn is None:
                    continue
                if getattr(fn, "__wrapped_by_perfbench__", False):
                    raise SpanCheckError(f"{module.__name__}.{name} is already wrapped")
                originals.append((module, name, fn))
                setattr(module, name, self.wrap(name, fn, module.__name__))
        for name in ("generate_graph", "mahdis_run", "exact_vc", "evaluate_ratio", "run_batch", "emit_report"):
            wrapped[name] = vcgap.harness_cli.__dict__[name]
        try:
            yield wrapped
        finally:
            for module, name, fn in originals:
                setattr(module, name, fn)


def _dur(s: dict) -> float:
    return s["end"] - s["start"]


def children_index(spans: list[dict]) -> dict[int, list[dict]]:
    kids: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            kids.setdefault(s["parent"], []).append(s)
    return kids


def self_time(s: dict, kids: dict[int, list[dict]]) -> float:
    """Duration minus the part covered by children in the same process."""
    return _dur(s) - sum(_dur(c) for c in kids.get(s["id"], ()) if c["pid"] == s["pid"])


def off_cpu_self(s: dict, kids: dict[int, list[dict]]) -> float:
    """Wall time of a span's own part (outside its children) during which its
    process used no CPU."""
    same = [c for c in kids.get(s["id"], ()) if c["pid"] == s["pid"]]
    cpu_self = s["cpu"] - sum(c["cpu"] for c in same)
    return max(0.0, self_time(s, kids) - cpu_self)


def _pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for an empty list."""
    if not values:
        return 0.0
    vals = sorted(values)
    return float(vals[max(0, math.ceil(q / 100.0 * len(vals)) - 1)])


ROUNDING = ("classify_property1", "threshold_cut", "build_epsilon_subgraph", "odd_cycle_probe")
BIPARTITE = ("max_matching", "konig_cover", "maximal_matching_cover")

# Metrics that are not sums over the traced passes: generation runs once per
# run, and percentiles are already per call.
NOT_PER_PASS = {
    "harness_cli.generate_s",
    "sdp_solve.iters.p50",
    "sdp_solve.iters.p90",
    "sdp_solve.iters.max",
    "sdp_solve.dim.p50",
}


def layer_metrics(spans: list[dict], jobs: int, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced run, name -> (value, unit). Times
    and counts are per pass over the pool, so that a count repeats exactly
    whatever number of passes fitted into the run."""
    kids = children_index(spans)
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def total(*names):
        return sum(_dur(s) for name in names for s in by_name.get(name, ()))

    def calls(*names):
        return float(sum(len(by_name.get(name, ())) for name in names))

    runs = by_name.get("mahdis_run", [])
    admm_all = by_name.get("admm_solve", [])
    doubled = [s for s in admm_all if s["namespace"] == "vcgap.pipeline"]
    single = [s for s in admm_all if s["namespace"] == "vcgap.harness_cli"]
    iters = [s["attrs"]["iters"] for s in doubled]
    admm_s = sum(_dur(s) for s in doubled)
    admm_wall = sum(_dur(s) for s in admm_all)
    oracle = by_name.get("exact_vc", [])
    n_total = sum(s["attrs"]["n"] for s in runs)
    batch_wall = total("run_batch")
    steps = [s["attrs"]["step"] for s in runs]

    m: dict[str, tuple[float, str]] = {
        "lp_relax.simplex_s": (total("simplex_solve"), "s"),
        "lp_relax.nt_decompose_s": (total("nt_decompose"), "s"),
        "lp_relax.calls": (calls("simplex_solve", "nt_decompose"), "count"),
        "lp_relax.kernel_fire_frac": (sum(s["attrs"]["nt_used"] for s in runs) / len(runs) if runs else 0.0, "ratio"),
        "lp_relax.residual_vertex_frac": (
            sum(s["attrs"]["residual_n"] for s in runs) / n_total if n_total else 0.0,
            "ratio",
        ),
        "sdp_solve.admm_s": (admm_s, "s"),
        "sdp_solve.admm_calls": (float(len(doubled)), "count"),
        "sdp_solve.iters.p50": (_pct(iters, 50), "iters"),
        "sdp_solve.iters.p90": (_pct(iters, 90), "iters"),
        "sdp_solve.iters.max": (float(max(iters, default=0)), "iters"),
        "sdp_solve.iters.sum": (float(sum(iters)), "iters"),
        "sdp_solve.s_per_iter": (admm_s / sum(iters) if sum(iters) else 0.0, "s/iter"),
        "sdp_solve.dim.p50": (_pct([s["attrs"]["dim"] for s in doubled], 50), "count"),
        "sdp_solve.nonconverged_frac": (
            sum(not s["attrs"]["converged"] for s in doubled) / len(doubled) if doubled else 0.0,
            "ratio",
        ),
        "sdp_solve.extract_s": (total("extract_vectors"), "s"),
        "sdp_solve.single_admm_s": (sum(_dur(s) for s in single), "s"),
        "sdp_solve.cpu_wall_ratio": (
            sum(s["cpu"] for s in admm_all) / admm_wall if admm_wall else 0.0,
            "ratio",
        ),
        "exact_oracle.s": (total("exact_vc"), "s"),
        "exact_oracle.nodes": (float(sum(s["attrs"]["nodes"] for s in oracle)), "count"),
        "exact_oracle.unknown_frac": (
            sum(s["attrs"]["status"] != "optimal" for s in oracle) / len(oracle) if oracle else 0.0,
            "ratio",
        ),
        "rounding_geometry.s": (total(*ROUNDING), "s"),
        "rounding_geometry.calls": (calls(*ROUNDING), "count"),
        "bipartite_vc.s": (total(*BIPARTITE), "s"),
        "bipartite_vc.calls": (calls(*BIPARTITE), "count"),
        "graph_core.s": (total("duplicate_join", "verify_cover", "recombine"), "s"),
        "pipeline.self_s": (
            sum(self_time(s, kids) for s in runs + by_name.get("evaluate_ratio", [])),
            "s",
        ),
    }
    for step in STEPS:
        m[f"pipeline.step.{step}"] = (float(steps.count(step)), "count")
    m["pipeline.repairs"] = (float(sum(s["attrs"]["repairs"] for s in runs)), "count")
    m["pipeline.certificate_violations"] = (
        float(sum(s["attrs"]["certificate_violated"] for s in by_name.get("evaluate_ratio", []))),
        "count",
    )
    run_instance_s = total("run_instance")
    m["harness_cli.generate_s"] = (total("generate_graph"), "s")
    m["harness_cli.run_instance_s"] = (run_instance_s, "s")
    m["harness_cli.batch_wall_s"] = (batch_wall, "s")
    m["harness_cli.worker_busy_frac"] = (
        run_instance_s / (jobs * batch_wall) if jobs and batch_wall else 0.0,
        "ratio",
    )
    m["harness_cli.emit_s"] = (total("emit_report"), "s")
    for name, (value, unit) in m.items():
        if unit in ("s", "count", "iters") and name not in NOT_PER_PASS:
            m[name] = (value / passes, unit)
    return m


# Slack for the checks below: perf_counter reads taken a few statements apart
# around the same work, plus the work the library times that no wrapper
# covers (building the LP and SDP problems, copy ids, certificates). On top,
# a span may lose the time its process spent off the CPU between wrapped
# calls: two batch workers on two cores get preempted for milliseconds.
ABS_SLACK_S = 2e-3
REL_SLACK = 0.05


def check_spans(spans: list[dict], instance_span: str) -> dict[str, float]:
    """Raise SpanCheckError unless the spans nest, cover the instance wall
    time and agree with RunTrace.timings; returns the measured gaps."""
    kids = children_index(spans)
    for s in spans:
        if s["end"] < s["start"]:
            raise SpanCheckError(f"span {s['name']} ends before it starts")
        if s["parent"] is None:
            continue
        p = spans[s["parent"]]
        if s["start"] < p["start"] or s["end"] > p["end"]:
            raise SpanCheckError(f"span {s['name']} lies outside its parent {p['name']}")
    for s in spans:
        same = sorted((c for c in kids.get(s["id"], ()) if c["pid"] == s["pid"]), key=lambda c: c["start"])
        for a, b in zip(same, same[1:]):
            if b["start"] < a["end"]:
                raise SpanCheckError(f"sibling spans {a['name']} and {b['name']} overlap under {s['name']}")

    # Coverage: each instance's wall time is accounted for by the layer spans
    # under it plus pipeline self time; what is left is the benchmark's own
    # loop or the batch row's unwrapped work (DIMACS parse, baseline).
    roots = [s for s in spans if s["name"] == instance_span]
    wall = sum(_dur(s) for s in roots)
    layered = 0.0
    stack = list(roots)
    while stack:
        s = stack.pop()
        for c in kids.get(s["id"], ()):
            layered += self_time(c, kids)
            stack.append(c)
    unaccounted = wall - layered
    limit = (0.01 if instance_span == "instance" else 0.10) * wall + 2e-4 * len(roots)
    limit += sum(off_cpu_self(s, kids) for s in roots)
    if not roots or unaccounted < -1e-6 or unaccounted > limit:
        raise SpanCheckError(
            f"{instance_span} spans: {wall:.6f}s wall, {layered:.6f}s in layer spans; "
            f"{unaccounted:.6f}s unaccounted exceeds {limit:.6f}s"
        )
    gaps = {"unaccounted_s": unaccounted}

    # Agreement with RunTrace.timings, stage by stage, summed over instances.
    lib: dict[str, float] = {}
    wrapped: dict[str, float] = {}
    counts: dict[str, int] = {}
    paused: dict[str, float] = {}
    for run in (s for s in spans if s["name"] == "mahdis_run"):
        timings = run["attrs"]["timings"]
        for stage in ("lp", "kernelize", "sdp", "rounding"):
            if stage in timings:
                lib[stage] = lib.get(stage, 0.0) + timings[stage]
                counts[stage] = counts.get(stage, 0) + 1
                paused[stage] = paused.get(stage, 0.0) + off_cpu_self(run, kids)
        for c in kids.get(run["id"], ()):
            stage = STAGE_OF.get(c["name"])
            if stage == "rounding" and "rounding" not in timings:
                continue
            if stage:
                wrapped[stage] = wrapped.get(stage, 0.0) + _dur(c)
    for stage, t_lib in lib.items():
        t_span = wrapped.get(stage, 0.0)
        slack = REL_SLACK * t_lib + ABS_SLACK_S * counts[stage] + paused[stage]
        if t_span > t_lib + 1e-6 * counts[stage] or t_lib - t_span > slack:
            raise SpanCheckError(
                f"stage {stage}: RunTrace.timings say {t_lib:.6f}s, wrapped spans {t_span:.6f}s "
                f"(allowed gap {slack:.6f}s over {counts[stage]} runs)"
            )
        gaps[f"{stage}_gap_s"] = t_lib - t_span
    return gaps


def step_counts(spans: list[dict], from_results, from_reference) -> None:
    """The step histogram the spans saw must be the one the results show,
    and the reference's when no decision drifted."""
    from_spans = Counter(s["attrs"]["step"] for s in spans if s["name"] == "mahdis_run")
    if from_spans != from_results:
        raise SpanCheckError(f"step counts: spans {dict(from_spans)}, results {dict(from_results)}")
    if from_reference is not None and from_spans != from_reference:
        raise SpanCheckError(f"step counts: spans {dict(from_spans)}, reference {dict(from_reference)}")
