"""vcgap benchmark runner.

    python3 perfbench/run.py --workload mixed_small --seed 3 --seconds 30 --trace 0

One process, one client, closed loop: the next instance (or, on the batch
workload, the next run_batch call) starts only after the previous one
finished. The loop runs whole passes over the workload's pool for about
--seconds, so every run measures the same instances. Every output is
checked. With --trace 0 the last line holds the end-to-end
metrics; with --trace 1 the run repeats the same schedule with spans
recorded around every layer call and the last line holds the per-layer
metrics. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 4
RATIO_LIMIT = 2.0 + 1e-9
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny pools for the smoke test")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(workload: str, size: str, seed: int):
    """Import the library and build the workload's inputs: the timed set-up.
    Returns None for an unknown workload."""
    start = clock()
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    import vcgap  # noqa: F401

    from workloads import WORKLOADS, build_instances, write_corpus

    w = WORKLOADS.get(workload)
    if w is None:
        return None
    insts = build_instances(w, size, seed)
    corpus = write_corpus(insts, OUT / f"corpus-{workload}-{size}-{seed}") if w.jobs else None
    return w, insts, corpus, unstolen_s(start)


def clock() -> tuple[float, float, float]:
    """Wall clock, CPU time of this thread, and steal: seconds, summed over
    this machine's CPUs, in which a CPU had work but the hypervisor ran
    another guest (the steal column of /proc/stat; an idle CPU accrues
    none)."""
    with open("/proc/stat") as f:
        steal = int(f.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    return time.perf_counter(), time.thread_time(), steal


def unstolen_s(start, workers: int = 1) -> float:
    """Wall seconds since `start`, a clock() reading, less the steal in them.

    Steal on any CPU can stall a process whose threads work in lock-step,
    as Python and its BLAS threads do, so all of it is taken off; a batch's
    workers go on independently, one per CPU, so each loses only its own
    CPU's share, steal / workers. Steal on a CPU where a BLAS thread only
    spins idle delays nothing, and steal is counted in 10 ms ticks, so the
    result is never less than the time this thread ran.
    """
    t, cpu, steal = start
    now, now_cpu, now_steal = clock()
    return max(now_cpu - cpu, now - t - (now_steal - steal) / workers)


def machine_info() -> dict:
    import numpy
    import scipy

    info = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        info["blas"] = None
    return info


# --- the closed loop -------------------------------------------------------


def single_passes(insts, schedule, api, tracer=None):
    """Run mahdis_run + exact_vc + evaluate_ratio per instance, in schedule
    order. Returns records (instance index, seconds, trace, oracle, error,
    CPU seconds of this process and its threads)."""
    records = []
    for order in schedule:
        for k in order:
            iid, g = insts[k]
            trace = oracle = err = None
            start, c = clock(), time.process_time()
            try:
                with tracer.span("instance", instance=iid) if tracer else nullcontext():
                    trace = api["mahdis_run"](g)
                    oracle = api["exact_vc"](g)
                    trace = api["evaluate_ratio"](trace, oracle)
            except Exception as exc:  # a failed instance is counted, the loop goes on
                err = f"{type(exc).__name__}: {exc}"
            records.append((k, unstolen_s(start), trace, oracle, err, time.process_time() - c))
    return records


def batch_passes(jobs, corpus, schedule, api, out_dir, tracer=None):
    """One run_batch + emit_report call per pass. Returns records
    (seconds, table, csv text, error, CPU seconds with the workers')."""
    records = []
    for order in schedule:
        doc = {"corpus": [corpus[k] for k in order]}
        table = err = None
        start, c = clock(), cpu_seconds()
        try:
            table = api["run_batch"](doc, jobs)
            if tracer is not None:
                run_span = max(s["id"] for s in tracer.spans if s["name"] == "run_batch")
                tracer.adopt_worker_spans(table["rows"], run_span)
            path = api["emit_report"](table, "csv", out_dir)[0]
        except Exception as exc:
            err = f"{type(exc).__name__}: {exc}"
        dt = unstolen_s(start, jobs)
        records.append((dt, table, path.read_text() if err is None else None, err, cpu_seconds() - c))
    return records


def warm_up(api) -> None:
    """One small instance through the pipeline, SDP included, before timing,
    so that lazy imports and BLAS start-up are not charged to the first
    measured instance."""
    g = api["generate_graph"]("gnp", 6, 0.5, 1)
    api["evaluate_ratio"](api["mahdis_run"](g), api["exact_vc"](g))


def timed_schedule(run_pass, n, seconds, rng):
    """Whole passes, each in a fresh seeded order, while another pass of the
    mean length so far still ends within `seconds`; at least one pass."""
    schedule, records = [], []
    t0 = time.perf_counter()
    while not schedule or (time.perf_counter() - t0) * (len(schedule) + 1) / len(schedule) <= seconds:
        order = [int(k) for k in rng.permutation(n)]
        schedule.append(order)
        records += run_pass([order])
    return schedule, records


# --- output checks ---------------------------------------------------------


class Checker:
    """Checks every result and counts failures and decision drift against
    the stored reference of the run's relabeling."""

    def __init__(self, w, size, seed, insts):
        from reference import load_reference
        from workloads import RELABELINGS

        ref = load_reference(w.name, size)
        self.optimum = ref["optimum"]
        self.expected = ref["variants"][str(seed % RELABELINGS)]
        self.ids = [iid for iid, _g in insts]
        self.graphs = dict(insts)
        self.attempted = 0
        self.failures: list[str] = []
        self.drifted: set[str] = set()
        self.fingerprints: dict[str, list] = {}
        self.covers: dict[str, int] = {}
        self.result_steps: Counter = Counter()  # steps of the latest record() call
        self.expected_steps: Counter = Counter()

    def _fail(self, iid, why):
        self.failures.append(f"{iid}: {why}")

    def _check(self, iid, fp, in_cover, cover_size, status, optimum, ratio, shift=0):
        """One instance result; `shift` maps the pool graph's labels to the result's."""
        self.result_steps[fp[0]] += 1
        self.expected_steps[self.expected[iid][0]] += 1
        cover = set(in_cover)
        uncovered = [(u, v) for u, v in self.graphs[iid].edges if u + shift not in cover and v + shift not in cover]
        if uncovered:
            return self._fail(iid, f"infeasible cover, edges {uncovered[:3]} uncovered")
        if cover_size != len(cover):
            return self._fail(iid, "cover_size disagrees with the cover")
        if status != "optimal":
            return self._fail(iid, f"oracle status {status}")
        if optimum != self.optimum[iid]:
            return self._fail(iid, f"oracle optimum {optimum}, reference {self.optimum[iid]}")
        if ratio is None or ratio > RATIO_LIMIT:
            return self._fail(iid, f"ratio {ratio}")
        if fp != self.expected[iid]:
            self.drifted.add(iid)
        if self.fingerprints.setdefault(iid, fp) != fp:
            return self._fail(iid, "decisions differ between passes of one run")
        self.covers[iid] = cover_size
        return None

    def record(self, records, jobs):
        from reference import row_fingerprint, trace_fingerprint

        self.result_steps, self.expected_steps = Counter(), Counter()
        if not jobs:
            for k, _dt, trace, oracle, err, *_ in records:
                iid = self.ids[k]
                self.attempted += 1
                if err:
                    self._fail(iid, err)
                    continue
                self._check(iid, trace_fingerprint(trace), trace.in_cover, trace.cover_size,
                            oracle.status, oracle.size, trace.empirical_ratio)
            return
        pool_size = len(self.graphs)
        for _dt, table, csv, err, *_ in records:
            self.attempted += pool_size
            if err or len(table["rows"]) != pool_size:
                self.failures.extend([f"batch: {err or 'missing rows'}"] * pool_size)
                continue
            for row in table["rows"]:
                iid = row["instance_id"]
                if "error" in row:
                    self._fail(iid, row["error"])
                    continue
                tr = row["trace"]
                self._check(iid, row_fingerprint(row), tr["in_cover"], tr["cover_size"],
                            tr["oracle_status"], tr["oracle_optimum"], tr["empirical_ratio"], shift=1)

    def serial_reference(self, serial_csv, records, pool_size):
        """Batch CSV must be byte-identical to a serial run of the same corpus."""
        self.attempted += pool_size
        for _dt, _table, csv, err, *_ in records:
            if err is None and csv != serial_csv:
                self.failures.extend(["batch: CSV with workers differs from the serial run"] * pool_size)
                return

    def summary(self) -> dict:
        excess = sum(self.covers[i] - self.optimum[i] for i in self.covers)
        return {
            "fail_frac": len(self.failures) / self.attempted,
            "decision_drift": len(self.drifted),
            "cover_excess": excess,
            "decision_match_frac": 1.0 - len(self.drifted) / len(self.optimum),
            "cover_ratio": sum(self.covers.values()) / max(1, sum(self.optimum[i] for i in self.covers)),
        }


# --- metrics ---------------------------------------------------------------


def tail(values):
    """Highest percentile with at least ten samples beyond it, as (value,
    note). Below 20 samples that percentile would sit under the median, so
    the maximum is reported instead, and the note says so."""
    vals = sorted(values)
    n = len(vals)
    if n >= 20:
        return vals[n - 11], f"p{100.0 * (n - 10) / n:.2f} of {n} samples, 10 beyond it"
    return vals[-1], f"maximum of {n} samples; fewer than 20, so no tail percentile above p50 has 10 beyond it"


def end_to_end(jobs, pool_size, records, setup_samples, rss_mb, summary):
    """End-to-end metrics from medians over the passes, so that a burst of
    host contention during one pass barely moves them."""
    if jobs:
        # One sample per pass: its wall and CPU time per instance.
        per_instance = [dt / pool_size for dt, *_ in records]
        throughput = 1.0 / statistics.median(per_instance)
        cpu_s = statistics.median(r[-1] / pool_size for r in records)
    else:
        # One sample per pool instance, its median over the passes, so the
        # population and the tail's rank do not depend on the pass count.
        times: dict[int, list[float]] = {}
        cpus: dict[int, list[float]] = {}
        for k, dt, *_rest, cpu in records:
            times.setdefault(k, []).append(dt)
            cpus.setdefault(k, []).append(cpu)
        per_instance = [statistics.median(ts) for ts in times.values()]
        throughput = pool_size / sum(per_instance)
        cpu_s = statistics.mean(statistics.median(cs) for cs in cpus.values())
    tail_value, tail_note = tail(per_instance)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "instance_s.p50": (statistics.median(per_instance), "s"),
        "instance_s.tail": (tail_value, "s"),
        "throughput_ips": (throughput, "inst/s"),
        "cpu_s_per_instance": (cpu_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "decision_match_frac": (summary["decision_match_frac"], "ratio"),
        "cover_ratio": (summary["cover_ratio"], "ratio"),
    }
    notes = {
        "instance_s.tail": tail_note,
        "setup_s": f"median of {len(setup_samples)} set-ups: " + ", ".join(f"{s:.4f}" for s in setup_samples),
    }
    if jobs:
        notes["instance_s.p50"] = f"run_batch + emit_report wall of one pass / {pool_size} instances"
        notes["throughput_ips"] = f"{pool_size} instances / the median pass wall of {len(records)} passes"
    else:
        passes = len(records) // pool_size
        notes["throughput_ips"] = f"{pool_size} instances / the sum of their median times over {passes} passes"
    notes["host_steal"] = "set-up and instance times are wall less hypervisor steal; see unstolen_s in run.py"
    return metrics, notes


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb(jobs: int) -> float:
    """Peak RSS of this process, plus the largest worker's peak for each
    batch worker (an upper bound: forked workers share pages)."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if jobs > 1:
        peak_kb += jobs * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak_kb / 1024.0


def setup_probe_samples(args) -> list[float]:
    """Set-up time of fresh interpreters doing exactly what this one did."""
    samples = []
    cmd = [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size]
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def emit(metrics: dict, notes: dict, machine: dict, checker: Checker, extra: dict) -> int:
    """Print every metric with its unit, then the result line; keep a copy
    with the machine description and notes under the output directory."""
    for msg in checker.failures[:5]:
        print(f"perfbench: failed {msg}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"metric {name} = {value!r} {unit}{note}")
    for name in sorted(notes.keys() - metrics.keys()):
        print(f"note {name}: {notes[name]}")
    print("machine " + json.dumps(machine, sort_keys=True))
    failed = min(len(checker.failures), checker.attempted)
    result = {
        "correct": failed == 0,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    doc = dict(result, notes=notes, machine=machine, **extra)
    name = f"result-{extra['workload']}-{extra['size']}-s{extra['seed']}-t{extra['trace']}.json"
    (OUT / name).write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps(result))
    return 0


# --- main ------------------------------------------------------------------

API = ("generate_graph", "mahdis_run", "exact_vc", "evaluate_ratio", "run_batch", "emit_report")


def run(args, w, insts, corpus, setup_s) -> int:
    import numpy as np

    import vcgap
    from vcgap.harness_cli import table_to_csv

    api = {name: getattr(vcgap, name) for name in API}
    report_dir = OUT / f"report-{w.name}-{args.size}-{args.seed}"

    def passes(schedule, fns, tracer=None):
        if w.jobs:
            return batch_passes(w.jobs, corpus, schedule, fns, report_dir, tracer)
        return single_passes(insts, schedule, fns, tracer)

    checker = Checker(w, args.size, args.seed, insts)
    rng = np.random.default_rng(args.seed)
    warm_up(api)
    schedule, records = timed_schedule(lambda s: passes(s, api), len(insts), args.seconds, rng)
    rss_mb = peak_rss_mb(w.jobs)
    checker.record(records, w.jobs)
    if w.jobs:
        serial = api["run_batch"]({"corpus": corpus}, 1)
        checker.serial_reference(table_to_csv(serial), records, len(insts))

    extra = {"workload": w.name, "seed": args.seed, "trace": args.trace, "size": args.size,
             "seconds": args.seconds, "passes": len(schedule)}
    if args.trace == 0:
        summary = checker.summary()
        samples = [setup_s] + setup_probe_samples(args)
        metrics, notes = end_to_end(w.jobs, len(insts), records, samples, rss_mb, summary)
        # Counts that read 0 when all is well; the traced run's result line has them.
        print(f"metric fail_frac = {summary['fail_frac']!r} ratio")
        print(f"metric decision_drift = {summary['decision_drift']} count")
        print(f"metric cover_excess = {summary['cover_excess']} count")
        return emit(metrics, notes, machine_info(), checker, extra)

    from spans import SpanCheckError, Tracer, check_spans, layer_metrics, step_counts
    from workloads import build_instances

    tracer = Tracer()
    with tracer.installed() as traced:
        with tracer.span("setup", instance="setup"):
            again = build_instances(w, args.size, args.seed, generate=traced["generate_graph"])
        traced_records = passes(schedule, traced, tracer)
    if [(i, g.edges) for i, g in again] != [(i, g.edges) for i, g in insts]:
        checker.failures.append("instance generation is not deterministic")
    checker.record(traced_records, w.jobs)
    summary = checker.summary()
    try:
        gaps = check_spans(tracer.spans, "run_instance" if w.jobs else "instance")
        if not checker.failures:
            step_counts(tracer.spans, checker.result_steps,
                        None if summary["decision_drift"] else checker.expected_steps)
    except SpanCheckError as exc:
        print(f"perfbench: trace self-check failed: {exc}", file=sys.stderr)
        return 3
    base = sum(r[0 if w.jobs else 1] for r in records)
    with_spans = sum(r[0 if w.jobs else 1] for r in traced_records)
    metrics = layer_metrics(tracer.spans, w.jobs, len(schedule))
    metrics["fail_frac"] = (summary["fail_frac"], "ratio")
    metrics["decision_drift"] = (float(summary["decision_drift"]), "count")
    metrics["cover_excess"] = (float(summary["cover_excess"]), "count")
    metrics["trace_overhead_frac"] = (with_spans / base - 1.0, "ratio")
    notes = {"trace_overhead_frac": f"{with_spans:.4f}s traced vs {base:.4f}s untraced, same schedule"}
    notes.update({f"self_check.{k}": f"{v:.6f}" for k, v in gaps.items()})
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{w.name}-{args.size}-s{args.seed}.json"
    span_file.write_text(json.dumps(tracer.spans) + "\n")
    extra["span_file"] = span_file.name
    return emit(metrics, notes, machine_info(), checker, extra)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "vcgap" / "__init__.py").is_file():
        print(f"perfbench: no vcgap sources under {ROOT / 'src'}; run it from a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    ready = setup(args.workload, args.size, args.seed)
    if ready is None:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    w, insts, corpus, setup_s = ready
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    return run(args, w, insts, corpus, setup_s)


if __name__ == "__main__":
    sys.exit(main())
