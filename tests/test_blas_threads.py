"""vcgap runs every OpenBLAS in the process on one thread, set once on import.

The lookup below reads /proc/self/maps on its own, independent of
`sdp_solve.set_openblas_threads`, so a library lookup that silently finds
nothing still fails these tests.
"""

from __future__ import annotations

import ctypes
import logging
import os

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


def test_every_openblas_runs_one_thread_after_import():
    counts = openblas_threads()
    for build in BUILDS:
        assert any(name.startswith(build) for name in counts), f"{build} not mapped: {counts}"
    assert set(counts.values()) == {1}, counts


def test_setter_finds_both_builds():
    found = sdp_solve.set_openblas_threads(1)
    names = [os.path.basename(path) for path, _, _ in found]
    for build in BUILDS:
        assert sum(name.startswith(build) for name in names) == 1, names
    assert all(after == 1 for _, _, after in found)


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
        assert any(name.startswith(BUILDS[0]) for name in row["threads"])
        assert set(row["threads"].values()) == {1}, row


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
