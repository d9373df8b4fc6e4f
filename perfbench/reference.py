"""Decision fingerprints and the stored reference they are compared against.

A fingerprint is what the harness decides about one instance: the step
taken, the cover size, the sorted flags and the smallest certified ratio
bound. The reference file of a workload holds, for each pool size, the exact
optimum of every pool instance and the fingerprints of every relabeling.

Regenerate a reference from a checkout of the commit it should describe:

    python3 perfbench/reference.py --workload mixed_small

Pass --workload more than once, or omit it for every workload; add
--size tiny to limit it to the smoke-test pools.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def fingerprint(step_taken: str, cover_size: int, flags, certificates) -> list:
    bounds = [c["claimed_ratio_bound"] for c in certificates]
    return [step_taken, int(cover_size), sorted(flags), min(bounds) if bounds else None]


def trace_fingerprint(trace) -> list:
    """Fingerprint of a RunTrace."""
    return fingerprint(trace.step_taken, trace.cover_size, trace.flags, trace.certificates)


def row_fingerprint(row: dict) -> list:
    """Fingerprint of a batch row, whose trace is already a dict."""
    tr = row["trace"]
    return fingerprint(tr["step_taken"], tr["cover_size"], tr["flags"], tr["certificates"])


def reference_path(workload: str) -> Path:
    return HERE / "reference" / f"{workload}.json"


def load_reference(workload: str, size: str) -> dict:
    return json.loads(reference_path(workload).read_text())[size]


def dump_reference(doc: dict) -> str:
    """JSON with one instance per line: lists of scalars stay on one line."""
    text = json.dumps(doc, indent=1, sort_keys=True)
    inline = re.compile(r"\[\s+((?:[^\[\]{}]|\[\])*?)\s+\]")
    while True:
        new = inline.sub(lambda m: "[" + ", ".join(x.strip() for x in m.group(1).split(",")) + "]", text)
        if new == text:
            return text + "\n"
        text = new


def _compute(w, size: str, variant: int, out_dir: Path) -> tuple[dict, dict]:
    from vcgap import evaluate_ratio, exact_vc, mahdis_run, run_batch

    from workloads import build_instances, write_corpus

    insts = build_instances(w, size, variant)
    fps, optimum = {}, {}
    if w.jobs:
        corpus = write_corpus(insts, out_dir / f"reference-{w.name}-{size}-{variant}")
        for row in run_batch({"corpus": corpus}, jobs=1)["rows"]:
            if "error" in row:
                raise RuntimeError(f"{row['instance_id']}: {row['error']}")
            fps[row["instance_id"]] = row_fingerprint(row)
            optimum[row["instance_id"]] = row["trace"]["oracle_optimum"]
    else:
        for iid, g in insts:
            oracle = exact_vc(g)
            trace = evaluate_ratio(mahdis_run(g), oracle)
            fps[iid] = trace_fingerprint(trace)
            optimum[iid] = oracle.size
    return fps, optimum


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="regenerate stored reference decisions")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--size", choices=("full", "tiny"), action="append")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import RELABELINGS, SIZES, WORKLOADS

    out_dir = ROOT / ".perfbench_out"
    for name in args.workload or list(WORKLOADS):
        w = WORKLOADS[name]
        path = reference_path(name)
        doc = json.loads(path.read_text()) if path.exists() else {}
        for size in args.size or SIZES:
            variants, optimum = {}, None
            for variant in range(RELABELINGS):
                fps, opt = _compute(w, size, variant, out_dir)
                if optimum is not None and opt != optimum:
                    raise RuntimeError(f"{name}/{size}: optimum differs under relabeling {variant}")
                optimum = opt
                variants[str(variant)] = fps
                print(f"{name} {size} relabeling {variant}: {len(fps)} instances", flush=True)
            doc[size] = {"optimum": optimum, "variants": variants}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(dump_reference(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
