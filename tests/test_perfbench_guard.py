"""The benchmark's traced smoke run as a tier-1 check.

perfbench/run.py wraps the layer functions that vcgap.pipeline and
vcgap.harness_cli call through their module globals, and checks every
wrapped call against the RunTrace.timings stage it runs in. A refactor that
moves such a call out of its module or out of its stage window fails here,
not only when the benchmark runs, and so does a change that alters a
decision (step, cover size, flags or certificates) on the tiny pools.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["desk30", "mixed_small", "sparse_kernel", "batch_jobs2"])
def test_traced_tiny_run_passes_its_checks(workload):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--size", "tiny", "--trace", "1", "--seconds", "0.5"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0 and result["attempted"] > 0
    # every cover matches the stored decision fingerprint of its relabeling
    assert result["metrics"]["decision_drift"]["value"] == 0
