"""Self-tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these out of the repository's default test collection:
the smoke runs start the runner in subprocesses and take about a minute.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from workloads import RELABELINGS, SIZES, WORKLOADS, build_instances  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _edges(instances):
    return [(iid, g.vertices, g.edges) for iid, g in instances]


def test_generators_are_deterministic_in_the_seed():
    for w in WORKLOADS.values():
        for size in SIZES:
            assert _edges(build_instances(w, size, 5)) == _edges(build_instances(w, size, 5))
            assert _edges(build_instances(w, size, 5)) == _edges(build_instances(w, size, 5 + RELABELINGS))
        relabeled = _edges(build_instances(w, "full", 6))
        assert relabeled != _edges(build_instances(w, "full", 5))
        assert [e[0] for e in relabeled] == [e[0] for e in build_instances(w, "full", 5)]


def test_metric_and_workload_names_are_well_formed():
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    names += [w["name"] for w in BENCH["workloads"]]
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(names) == len(set(names))
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_prints_every_named_metric(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = _run("--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--size", "tiny")
        assert out.returncode == 0, out.stderr
        lines = out.stdout.splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in BENCH[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        printed = {line.split()[1] for line in lines if line.startswith("metric ")}
        assert set(expected) <= printed


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("--workload", "mixed_small", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
