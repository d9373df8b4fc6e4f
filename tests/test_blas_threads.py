"""vcgap runs the OpenBLAS it uses on one thread, set once on import, and
binds LAPACK's potrs from numpy's own build instead of importing scipy.

The lookup below reads /proc/self/maps on its own, independent of
`sdp_solve.set_openblas_threads`, so a library lookup that silently finds
nothing still fails these tests.
"""

from __future__ import annotations

import ctypes
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import vcgap  # noqa: F401  (the import sets the thread count)
from vcgap import harness_cli, sdp_solve

GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
# numpy's 64-bit-integer build and scipy's build, by file-name prefix
BUILDS = ("libscipy_openblas64_", "libscipy_openblas-")


def openblas_threads() -> dict[str, int | None]:
    """Thread count of every OpenBLAS mapped into this process, by file
    name; None for one whose getter is not found."""
    with open("/proc/self/maps") as f:
        paths = {line.split()[-1] for line in f}
    counts = {}
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p)):
        lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        getter = next((getattr(lib, name) for name in GETTERS if hasattr(lib, name)), None)
        if getter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
        counts[os.path.basename(path)] = None if getter is None else getter()
    return counts


def test_import_loads_no_scipy_and_pins_numpys_openblas():
    # A fresh interpreter: other test modules import scipy in this one.
    code = (
        "import sys, json, vcgap\n"
        "loaded = {name: name in sys.modules for name in ('scipy.linalg', 'scipy.optimize')}\n"
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "from test_blas_threads import openblas_threads\n"
        "print(json.dumps({'loaded': loaded, 'threads': openblas_threads()}))\n"
    )
    src = str(Path(vcgap.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    report = json.loads(out)
    # scipy.optimize raised peak RSS from 55 to 76 MB; the tests import it, src/ must not
    assert report["loaded"] == {"scipy.linalg": False, "scipy.optimize": False}
    counts = report["threads"]
    assert not any(name.startswith(BUILDS[1]) for name in counts), counts
    assert [counts[name] for name in counts if name.startswith(BUILDS[0])] == [1], counts


def _report_threads(spec, cfg, oracle_max_n):
    return {"instance_id": harness_cli._instance_id(spec), "pid": os.getpid(), "threads": openblas_threads()}


def test_batch_workers_run_one_thread(monkeypatch):
    # The forked workers inherit the patched row function; the rows it
    # returns are not pipeline rows, so aggregation is skipped.
    monkeypatch.setattr(harness_cli, "run_instance", _report_threads)
    monkeypatch.setattr(harness_cli, "_aggregate", lambda rows: {})
    spec = {"corpus": [{"model": "gnp", "n": 6, "parameter": 0.5, "seed": 1, "count": 4}]}
    rows = harness_cli.run_batch(spec, jobs=2)["rows"]
    assert len(rows) == 4
    for row in rows:
        assert row["pid"] != os.getpid()
        assert [n for name, n in row["threads"].items() if name.startswith(BUILDS[0])] == [1], row


def test_setter_logs_each_build_and_a_miss(caplog, tmp_path):
    caplog.set_level(logging.DEBUG, logger="vcgap")
    found = sdp_solve.set_openblas_threads(1)
    for path, before, after in found:
        assert f"{path}: OpenBLAS threads {before} -> {after}" in caplog.messages
    (tmp_path / "empty").write_text("")
    for maps in (tmp_path / "empty", tmp_path / "missing"):
        caplog.clear()
        assert sdp_solve.set_openblas_threads(1, str(maps)) == []
        assert caplog.messages == [f"no OpenBLAS found in {maps}; BLAS threads left as they are"]


def test_potrs_binding_logs_the_library_or_the_fallback(caplog, tmp_path):
    caplog.set_level(logging.DEBUG, logger="vcgap")
    sdp_solve._bind_potrs()
    [message] = caplog.messages
    path = message.split(": potrs bound to ")[0]
    assert os.path.basename(path).startswith(BUILDS[0])
    assert message == f"{path}: potrs bound to scipy_dpotrs_64_"
    caplog.clear()
    maps = tmp_path / "missing"
    sdp_solve._bind_potrs(str(maps))
    assert caplog.messages == [f"no OpenBLAS in {maps} exports scipy_dpotrs_64_; using scipy's potrs"]
