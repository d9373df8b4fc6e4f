"""Command-line harness: instance generation, batch experiments, and report
emission for researchers running falsification sweeps.

Subcommands: solve / exact / baseline / gen / batch / probe. A single JSON
config document carries the experiment's tolerances and thresholds;
the VCGAP_CONFIG environment variable supplies it when --config is absent.
Exit codes: 0 success, 1 usage or input error (a JSON file that is not
UTF-8 among them), 2 contract violation (a finding worth investigating),
3 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .errors import (
    ArgumentError,
    ContractViolation,
    ParseError,
    SolverError,
    check_int,
    check_keys,
    is_int,
    is_real,
)
from .exact_oracle import STATUS_OPTIMAL, exact_vc
from .graph_core import Graph, duplicate_join, graph_from_json, parse_dimacs, to_plain, write_dimacs
from .lp_relax import HalfIntegralityViolation
from .pipeline import (
    DEFAULT_CONFIG,
    PipelineConfig,
    RunTrace,
    analyze_doubled,
    config_from_dict,
    evaluate_ratio,
    mahdis_run,
    two_approx_baseline,
)
from .rounding_geometry import Thresholds, build_epsilon_subgraph, classify_property1
from .sdp_solve import (
    ExtractionError,
    build_sdp_single,
    extract_vectors,
    gram_from_json,
    ipm_solve,
)

_MODEL_CODES = {"gnp": 1, "bipartite_gnp": 2, "odd_cycle_rich": 3, "star_union": 4}

BATCH_KEYS = ("corpus", "pipeline", "oracle_max_n", "jobs")
ORACLE_MAX_N = 32  # largest graph the oracle is run on by default

CSV_COLUMNS = (
    "instance_id",
    "n",
    "m",
    "z_lp",
    "z_sdp_single",
    "z_sdp_doubled",
    "z_exact",
    "cover_size",
    "ratio",
    "step_taken",
    "p1_holds",
    "certificate",
    "flags",
)


def check_model(model: str, n: int, parameter: float) -> None:
    """Raise ArgumentError unless generate_graph can build `model` with these
    `n` and `parameter`: a known model, n >= 0, and a finite parameter that
    is a probability in [0, 1], or for star_union an integer star size >= 2."""
    if n < 0:
        raise ArgumentError(f"n must be nonnegative, got {n}")
    if not is_real(parameter):
        raise ArgumentError(f"parameter must be a finite number, got {parameter!r}")
    if not isinstance(model, str) or model not in _MODEL_CODES:
        raise ArgumentError(f"unknown model {model!r}; choose from {sorted(_MODEL_CODES)}")
    if model == "star_union":
        if parameter != int(parameter) or parameter < 2:
            raise ArgumentError(f"star_union parameter is the star size, an integer >= 2, got {parameter!r}")
    elif not 0.0 <= parameter <= 1.0:
        kind = "a chord" if model == "odd_cycle_rich" else "an edge"
        raise ArgumentError(f"{model} parameter is {kind} probability in [0, 1]")


def generate_graph(model: str, n: int, parameter: float, seed: int) -> Graph:
    """Deterministic random instance; the stream depends only on the arguments."""
    check_model(model, n, parameter)
    entropy = (int(seed) & (2**64 - 1), _MODEL_CODES[model], n, int(round(parameter * 1e9)))
    rng = np.random.default_rng(np.random.SeedSequence(entropy))
    if model == "gnp":
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < parameter]
        return Graph.build(range(n), edges)
    if model == "bipartite_gnp":
        left = set(int(v) for v in rng.choice(n, size=n // 2, replace=False)) if n else set()
        right = [v for v in range(n) if v not in left]
        edges = [(i, j) for i in sorted(left) for j in right if rng.random() < parameter]
        return Graph.build(range(n), edges)
    if model == "odd_cycle_rich":
        edges = []
        start = 0
        while n - start >= 3:
            choices = [L for L in (3, 5, 7) if L <= n - start]
            length = int(rng.choice(choices))
            cyc = list(range(start, start + length))
            edges.extend((cyc[i], cyc[(i + 1) % length]) for i in range(length))
            start += length
        present = {(min(u, v), max(u, v)) for u, v in edges}
        for i in range(n):
            for j in range(i + 1, n):
                if (i, j) not in present and rng.random() < parameter:
                    edges.append((i, j))
        return Graph.build(range(n), edges)
    # star_union: disjoint stars of `parameter` vertices each (center first);
    # drives the relaxation value below n/2 so kernelization fires.
    size = int(parameter)
    edges = []
    for start in range(0, n - size + 1, size):
        edges.extend((start, start + k) for k in range(1, size))
    return Graph.build(range(n), edges)


def _instance_id(spec: dict) -> str:
    if "file" in spec:
        return spec.get("id", Path(spec["file"]).stem)
    return f'{spec["model"]}-n{spec["n"]}-p{spec["parameter"]:g}-s{spec["seed"]}'


def _instance_graph(spec: dict) -> Graph:
    if "file" in spec:
        return parse_dimacs(Path(spec["file"]).read_bytes())
    return generate_graph(spec["model"], int(spec["n"]), float(spec["parameter"]), int(spec["seed"]))


def run_instance(spec: dict, cfg: PipelineConfig = DEFAULT_CONFIG, oracle_max_n: int = ORACLE_MAX_N) -> dict:
    """Full single-instance experiment: pipeline, oracle on the instance graph,
    baseline, and the single relaxation of the working graph, the rung between
    z_lp and z_doubled / 2 on the value ladder (README, "The relaxations").

    The interior-point method solves it; the row records its certified
    [lower, upper] bracket as `z_sdp_single_bounds` and, when converged, the
    upper end as `z_sdp_single`. No decision depends on it."""
    g = _instance_graph(spec)
    trace = mahdis_run(g, cfg)
    oracle = exact_vc(g, cfg.oracle_budget) if g.n <= oracle_max_n else None
    trace = evaluate_ratio(trace, oracle)
    baseline = two_approx_baseline(g)

    row: dict = {
        "instance_id": _instance_id(spec),
        "trace": trace.to_dict(),
        "baseline_size": baseline.cover_size,
        "z_sdp_single": None,
        "z_sdp_single_bounds": None,
    }
    if trace.z_sdp_doubled is not None:
        single = ipm_solve(build_sdp_single(trace.residual))
        row["z_sdp_single"] = single.objective_value if single.converged else None
        row["z_sdp_single_bounds"] = list(single.bounds)
        if not single.converged:
            row["trace"]["flags"].append("sdp_single_nonconverged")
    return row


def _worker(args: tuple) -> dict:
    spec, cfg, oracle_max_n = args
    try:
        return run_instance(spec, cfg, oracle_max_n)
    except Exception as exc:  # recorded per instance; the batch continues
        return {
            "instance_id": _instance_id(spec),
            "error": f"{type(exc).__name__}: {exc}",
        }


def expand_corpus(corpus: list[dict]) -> list[dict]:
    """One spec per instance: file entries pass through, generated entries
    expand `count` consecutive seeds. Unknown or missing keys, a `file` or
    `id` that is not a string, non-integer `n`, `seed` or `count`, and a
    `model` and `parameter` that generate_graph rejects raise ArgumentError."""
    if not isinstance(corpus, list):
        raise ArgumentError(f"corpus must be a JSON array, got {corpus!r}")
    specs = []
    for index, entry in enumerate(corpus):
        if isinstance(entry, dict) and "file" in entry:
            check_keys("corpus entry", entry, ("file",), ("id",))
            for key in ("file", "id"):
                if key in entry and not isinstance(entry[key], str):
                    raise ArgumentError(f"corpus entry {index} {entry!r}: {key} must be a string, got {entry[key]!r}")
            specs.append(dict(entry))
            continue
        check_keys("corpus entry", entry, ("model", "n", "parameter"), ("seed", "count"))
        seed0, count = entry.get("seed", 0), entry.get("count", 1)
        check_int("n", entry["n"], low=0)
        check_int("count", count, low=0)
        if not is_int(seed0):
            raise ArgumentError(f"seed must be an integer, got {seed0!r}")
        try:
            check_model(entry["model"], entry["n"], entry["parameter"])
        except ArgumentError as exc:
            raise ArgumentError(f"corpus entry {index} {entry!r}: {exc}") from None
        for k in range(count):
            spec = {key: entry[key] for key in ("model", "n", "parameter")}
            spec["seed"] = seed0 + k
            specs.append(spec)
    return specs


def run_batch(batch_doc: dict, jobs: int | None = None) -> dict:
    """Run every corpus instance, merge rows by instance id, aggregate findings.

    `jobs` worker processes run the rows: the argument, else the spec's
    `jobs`, else 1. The spec is validated before any worker starts: unknown
    keys, a `jobs` that is not an integer >= 1 and a bad pipeline config
    raise ArgumentError instead of failing every row."""
    check_keys("batch spec", batch_doc, (), BATCH_KEYS)
    jobs = batch_doc.get("jobs", 1) if jobs is None else jobs
    check_int("jobs", jobs)
    cfg = config_from_dict(PipelineConfig, batch_doc.get("pipeline", {}), "pipeline.")
    oracle_max_n = batch_doc.get("oracle_max_n", ORACLE_MAX_N)
    check_int("oracle_max_n", oracle_max_n, low=0)
    specs = expand_corpus(batch_doc.get("corpus", []))
    args = [(spec, cfg, oracle_max_n) for spec in specs]
    if jobs > 1 and len(args) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_worker, args))
    else:
        rows = [_worker(a) for a in args]
    rows.sort(key=lambda r: r["instance_id"])
    return {"schema_version": "2", "rows": rows, "aggregates": _aggregate(rows)}


def _aggregate(rows: list[dict]) -> dict:
    ratios = []
    steps: dict[str, int] = {}
    p1_count = 0
    cert_violations = 0
    theorem6 = 0
    nonconverged = 0
    single_nonconverged = 0
    failures = []
    for row in rows:
        if "error" in row:
            failures.append({"instance_id": row["instance_id"], "error": row["error"]})
            continue
        tr = row["trace"]
        steps[tr["step_taken"]] = steps.get(tr["step_taken"], 0) + 1
        if tr["empirical_ratio"] is not None and math.isfinite(tr["empirical_ratio"]):
            ratios.append(tr["empirical_ratio"])
        pp, pd = tr["property_prime"], tr["property_double_prime"]
        if pp and pd and pp["holds"] and pd["holds"]:
            p1_count += 1
        if tr["certificate_violated"]:
            cert_violations += 1
        if "theorem6_violation" in tr["flags"]:
            theorem6 += 1
        if "sdp_nonconverged" in tr["flags"]:
            nonconverged += 1
        if "sdp_single_nonconverged" in tr["flags"]:
            single_nonconverged += 1
    return {
        "instances": len(rows),
        "failures": failures,
        "max_ratio": max(ratios) if ratios else None,
        "mean_ratio": sum(ratios) / len(ratios) if ratios else None,
        "step_histogram": dict(sorted(steps.items())),
        "property1_holds_count": p1_count,
        "certificate_violations": cert_violations,
        "theorem6_violations": theorem6,
        "sdp_nonconverged": nonconverged,
        "sdp_single_nonconverged": single_nonconverged,
    }


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_line(cells) -> str:
    # the writer quotes a cell holding a character of its line terminator, so CR LF quotes CR and LF
    out = io.StringIO()
    csv.writer(out, lineterminator="\r\n").writerow(cells)
    return out.getvalue()[:-2] + "\n"


def table_to_csv(table: dict) -> str:
    """One header line and one line per row, through the csv module: a cell
    holding a comma, a double quote, a line feed or a carriage return is quoted."""
    lines = [_csv_line(CSV_COLUMNS)]
    for row in table["rows"]:
        if "error" in row:
            cells = {c: None for c in CSV_COLUMNS}
            cells["instance_id"] = row["instance_id"]
            cells["flags"] = "error:" + row["error"]
        else:
            tr = row["trace"]
            pp, pd = tr["property_prime"], tr["property_double_prime"]
            certs = [c["claimed_ratio_bound"] for c in tr["certificates"]]
            cells = {
                "instance_id": row["instance_id"],
                "n": tr["n"],
                "m": tr["m"],
                "z_lp": tr["z_lp"],
                "z_sdp_single": row["z_sdp_single"],
                "z_sdp_doubled": tr["z_sdp_doubled"],
                "z_exact": tr["oracle_optimum"],
                "cover_size": tr["cover_size"],
                "ratio": tr["empirical_ratio"],
                "step_taken": tr["step_taken"],
                "p1_holds": (pp["holds"] and pd["holds"]) if (pp and pd) else None,
                "certificate": min(certs) if certs else None,
                "flags": ";".join(tr["flags"]),
            }
        lines.append(_csv_line(_csv_cell(cells[c]) for c in CSV_COLUMNS))
    return "".join(lines)


def table_to_plotdata(table: dict) -> dict:
    ratio_points = []
    defect_points = []
    defect_idx = 0
    for row in table["rows"]:
        if "error" in row:
            continue
        tr = row["trace"]
        if tr["empirical_ratio"] is not None and tr["n"] >= 2:
            density = tr["m"] / (tr["n"] * (tr["n"] - 1) / 2)
            ratio_points.append([density, tr["empirical_ratio"]])
        probe = tr.get("theorem6_probe")
        if probe and probe.get("per_edge_defects"):
            for d in probe["per_edge_defects"]:
                defect_points.append([defect_idx, d])
                defect_idx += 1
    return {
        "series": [
            {"name": "ratio_vs_density", "points": ratio_points},
            {"name": "theorem6_defect_chain", "points": defect_points},
        ]
    }


def emit_report(table: dict, fmt: str, out_dir: str | Path) -> list[Path]:
    """Write the batch result in one format; returns the created paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        path = out / "report.json"
        path.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
        return [path]
    if fmt == "csv":
        path = out / "report.csv"
        path.write_text(table_to_csv(table))
        return [path]
    if fmt == "plotdata":
        path = out / "plotdata.json"
        path.write_text(json.dumps(table_to_plotdata(table), indent=2) + "\n")
        return [path]
    raise ArgumentError(f"unknown format {fmt!r}; choose json, csv, or plotdata")


def _read_json(path: str, what: str) -> dict:
    """The JSON object in the file at `path`; ArgumentError naming `what` and
    the path when the file is not UTF-8, not JSON or not an object."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ArgumentError(f"{what} {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ArgumentError(f"{what} {path} must be a JSON object, got {doc!r}")
    return doc


def _load_config(path: str | None) -> dict:
    path = path or os.environ.get("VCGAP_CONFIG")
    return _read_json(path, "config") if path else {}


def _print_summary(instance_id: str, trace: RunTrace) -> None:
    ratio = f"{trace.empirical_ratio:.6f}" if trace.empirical_ratio is not None else "unknown"
    opt = trace.oracle_optimum if trace.oracle_optimum is not None else "?"
    flags = ",".join(trace.flags) if trace.flags else "-"
    print(
        f"{instance_id}: n={trace.n} m={trace.m} step={trace.step_taken} "
        f"cover={trace.cover_size} optimum={opt} ratio={ratio} flags={flags}"
    )


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    # Options follow the subcommand, and each subcommand takes only those it reads.
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="JSON config path (or set VCGAP_CONFIG)")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="output directory for reports and traces")

    parser = _Parser(prog="vcgap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", parents=[config, out], help="run the pipeline on a DIMACS file")
    p_solve.add_argument("path")
    p_solve.add_argument("--no-exact", action="store_true", help="skip the oracle")
    p_solve.add_argument("--dump-gram", help="write the doubled Gram solution here")

    p_exact = sub.add_parser("exact", parents=[config], help="exact minimum cover of a DIMACS file")
    p_exact.add_argument("path")

    p_base = sub.add_parser("baseline", help="matching 2-approximation of a DIMACS file")
    p_base.add_argument("path")

    p_gen = sub.add_parser("gen", parents=[out], help="generate an instance as DIMACS")
    p_gen.add_argument("--model", required=True, choices=sorted(_MODEL_CODES))
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--parameter", type=float, required=True)
    p_gen.add_argument("--seed", type=int, default=0)

    p_batch = sub.add_parser("batch", parents=[config, out], help="run a corpus described by a JSON file")
    p_batch.add_argument("spec", help="batch spec JSON with corpus and pipeline settings")
    p_batch.add_argument("--format", choices=["json", "csv", "plotdata"], default="csv")
    p_batch.add_argument("--jobs", type=int, help="worker processes (default: the spec's jobs, else 1)")

    p_probe = sub.add_parser("probe", parents=[config, out], help="geometry probes on a saved Gram solution")
    p_probe.add_argument("path", help='JSON: {"graph": {...}, "doubled": bool, "gram": {...}}')
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _dispatch(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, ArgumentError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except (ContractViolation, SolverError, ExtractionError, HalfIntegralityViolation) as exc:
        print(f"contract violation: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


def _dispatch(args) -> int:
    if args.command == "gen":
        g = generate_graph(args.model, args.n, args.parameter, args.seed)
        text = write_dimacs(g)
        if args.out:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            name = _instance_id(vars(args)) + ".dimacs"
            (out / name).write_text(text)
            print(out / name)
        else:
            sys.stdout.write(text)
        return 0

    if args.command == "baseline":
        g = parse_dimacs(Path(args.path).read_bytes())
        _print_summary(Path(args.path).stem, two_approx_baseline(g))
        return 0

    cfg_doc = _load_config(args.config)
    if args.command == "batch":
        batch_doc = _read_json(args.spec, "batch spec")
        batch_doc.setdefault("pipeline", cfg_doc)
        table = run_batch(batch_doc, args.jobs)
        out_dir = args.out or "."
        paths = emit_report(table, args.format, out_dir)
        agg = table["aggregates"]
        print(
            f"batch: {agg['instances']} instances, max ratio "
            f"{agg['max_ratio']}, steps {agg['step_histogram']}, "
            f"certificate violations {agg['certificate_violations']}, "
            f"theorem6 violations {agg['theorem6_violations']}"
        )
        for path in paths:
            print(path)
        return 0

    cfg = PipelineConfig.from_dict(cfg_doc)
    if args.command == "probe":
        doc = _read_json(args.path, "probe document")
        check_keys("probe document", doc, ("graph", "gram"), ("doubled",))
        base = graph_from_json(json.dumps(doc["graph"]))
        gram = gram_from_json(json.dumps(doc["gram"]))
        doubled = doc.get("doubled", False)
        if not isinstance(doubled, bool):
            raise ArgumentError(f"doubled must be true or false, got {doubled!r}")
        dim = 2 * base.n + 1 if doubled else base.n + 1
        if gram.matrix.shape[0] != dim:
            raise ArgumentError(f"gram.dim {gram.matrix.shape[0]} does not match the graph: expected {dim}")
        report = _probe_report(base, gram, doubled, cfg.thresholds)
        text = json.dumps(report, indent=2, sort_keys=True)
        if args.out:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            (out / "probe.json").write_text(text + "\n")
            print(out / "probe.json")
        else:
            print(text)
        return 0

    # file-based single-instance commands
    g = parse_dimacs(Path(args.path).read_bytes())
    instance_id = Path(args.path).stem
    if args.command == "exact":
        result = exact_vc(g, cfg.oracle_budget)
        if result.status != STATUS_OPTIMAL:
            print(f"{instance_id}: unknown (budget exhausted after {result.nodes_explored} nodes)")
            return 0
        print(f"{instance_id}: optimum={result.size} cover={sorted(result.cover)}")
        return 0

    # solve
    trace = mahdis_run(g, cfg)
    oracle = None if args.no_exact else exact_vc(g, cfg.oracle_budget)
    trace = evaluate_ratio(trace, oracle)
    _print_summary(instance_id, trace)
    if args.dump_gram and trace.gram is not None:
        doc = {
            "graph": to_plain(trace.residual),
            "doubled": True,
            "gram": json.loads(trace.gram.to_json()),
        }
        Path(args.dump_gram).write_text(json.dumps(doc) + "\n")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{instance_id}.trace.json").write_text(
            json.dumps(trace.to_dict(), indent=2, sort_keys=True) + "\n"
        )
    return 0


def _probe_report(base: Graph, gram, doubled: bool, th: Thresholds) -> dict:
    if not doubled:
        emb = extract_vectors(gram)
        report = classify_property1(emb, base.vertices, th)
        eps = build_epsilon_subgraph(emb, base, th)
        return {"property": report.to_dict(), "epsilon_subgraph": eps.to_dict()}
    a = analyze_doubled(duplicate_join(base), gram, th)
    eps, eps_other, probe = a.band_probe(th)
    return {
        "property_prime": a.rep_p.to_dict(),
        "property_double_prime": a.rep_d.to_dict(),
        "epsilon_subgraph_prime": eps.to_dict(),
        "epsilon_subgraph_double_prime": eps_other.to_dict(),
        "odd_cycle_probe": to_plain(probe),
    }


if __name__ == "__main__":
    sys.exit(main())
