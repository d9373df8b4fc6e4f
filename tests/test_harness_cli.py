import csv
import functools
import io
import json
from pathlib import Path

import numpy as np
import pytest

from helpers import complete_graph
from vcgap import harness_cli, sdp_solve
from vcgap.errors import ArgumentError, ContractViolation, ParseError, SolverError, VcgapError
from vcgap.graph_core import Bipartition, Graph, OddCycle, find_odd_cycle, parse_dimacs, write_dimacs
from vcgap.harness_cli import (
    CSV_COLUMNS,
    emit_report,
    expand_corpus,
    generate_graph,
    main,
    run_batch,
    run_instance,
    table_to_csv,
    table_to_plotdata,
)
from vcgap.lp_relax import HalfIntegralityViolation, build_vc_lp, simplex_solve
from vcgap.pipeline import STEP_EDGELESS
from vcgap.sdp_solve import TAU_GAP, ExtractionError, GramSolution


class TestGenerateGraph:
    def test_gnp_extremes(self):
        assert generate_graph("gnp", 5, 0.0, seed=1).m == 0
        assert generate_graph("gnp", 5, 1.0, seed=1).m == 10

    def test_deterministic_per_spec(self):
        a = generate_graph("gnp", 12, 0.35, seed=42)
        b = generate_graph("gnp", 12, 0.35, seed=42)
        assert write_dimacs(a) == write_dimacs(b)
        c = generate_graph("gnp", 12, 0.35, seed=43)
        assert write_dimacs(a) != write_dimacs(c)

    def test_bipartite_model_is_bipartite(self):
        for seed in range(5):
            g = generate_graph("bipartite_gnp", 12, 0.6, seed=seed)
            assert isinstance(find_odd_cycle(g), Bipartition)

    def test_odd_cycle_rich_contains_odd_cycle(self):
        g = generate_graph("odd_cycle_rich", 11, 0.1, seed=7)
        assert g.n == 11
        assert isinstance(find_odd_cycle(g), OddCycle)

    def test_star_union_drives_kernelization(self):
        g = generate_graph("star_union", 12, 4, seed=1)
        z = simplex_solve(build_vc_lp(g)).objective_value
        assert z == pytest.approx(3.0)  # three centers, below n/2 = 6

    def test_rejects_bad_specs(self):
        with pytest.raises(ArgumentError):
            generate_graph("gnp", 5, 1.5, seed=1)
        with pytest.raises(ArgumentError):
            generate_graph("mystery", 5, 0.5, seed=1)
        with pytest.raises(ArgumentError):
            generate_graph("star_union", 8, 1, seed=1)

    @pytest.mark.parametrize("model", sorted(harness_cli._MODEL_CODES))
    @pytest.mark.parametrize("parameter", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_parameter(self, model, parameter):
        with pytest.raises(ArgumentError, match="parameter must be a finite number"):
            generate_graph(model, 6, parameter, seed=1)

    def test_star_size_must_be_integral(self):
        with pytest.raises(ArgumentError, match="star size"):
            generate_graph("star_union", 6, 2.7, seed=1)
        assert generate_graph("star_union", 6, 3.0, seed=1) == generate_graph("star_union", 6, 3, seed=1)


class TestExpandCorpus:
    def test_count_expansion(self):
        specs = expand_corpus([{"model": "gnp", "n": 8, "parameter": 0.3, "seed": 5, "count": 3}])
        assert [s["seed"] for s in specs] == [5, 6, 7]

    def test_file_entries_pass_through(self):
        specs = expand_corpus([{"file": "x.dimacs"}])
        assert specs == [{"file": "x.dimacs"}]


GEN_ENTRY = {"model": "gnp", "n": 6, "parameter": 0.4, "seed": 1}
BAD_BATCHES = {
    "pipeline-unknown-key": ({"corpus": [GEN_ENTRY], "pipeline": {"thresholds": {"epsilom": 1}}}, "pipeline.thresholds.epsilom"),
    "pipeline-bad-value": ({"corpus": [GEN_ENTRY], "pipeline": {"oracle_budget": 0}}, "oracle_budget"),
    "unknown-top-key": ({"corpus": [GEN_ENTRY], "jobz": 2}, "jobz"),
    "id-on-generated-entry": ({"corpus": [dict(GEN_ENTRY, id="mine")]}, "id"),
    "model-on-file-entry": ({"corpus": [{"file": "x.dimacs", "model": "gnp"}]}, "model"),
    "generated-entry-lacks-n": ({"corpus": [{"model": "gnp", "parameter": 0.4}]}, "n"),
    "corpus-not-array": ({"corpus": {"model": "gnp"}}, "corpus"),
    "count-not-integer": ({"corpus": [dict(GEN_ENTRY, count="x")]}, "count"),
    "count-bool": ({"corpus": [dict(GEN_ENTRY, count=True)]}, "count"),
    "n-not-integer": ({"corpus": [dict(GEN_ENTRY, n=6.5)]}, "n must be an integer"),
    "n-bool": ({"corpus": [dict(GEN_ENTRY, n=True)]}, "n must be an integer"),
    "seed-string": ({"corpus": [dict(GEN_ENTRY, seed="1")]}, "seed"),
    "seed-float": ({"corpus": [dict(GEN_ENTRY, seed=1.0)]}, "seed"),
    "parameter-string": ({"corpus": [dict(GEN_ENTRY, parameter="0.4")]}, "parameter"),
    "parameter-nan": ({"corpus": [dict(GEN_ENTRY, parameter=float("nan"))]}, "parameter"),
    "parameter-bool": ({"corpus": [dict(GEN_ENTRY, parameter=True)]}, "parameter"),
    "non-object": ([GEN_ENTRY], "batch spec"),
    "jobs-string": ({"corpus": [GEN_ENTRY], "jobs": "x"}, "jobs"),
    "jobs-zero": ({"corpus": [GEN_ENTRY], "jobs": 0}, "jobs"),
    "jobs-float": ({"corpus": [GEN_ENTRY], "jobs": 2.0}, "jobs"),
    "jobs-bool": ({"corpus": [GEN_ENTRY], "jobs": True}, "jobs"),
}
# two edgeless instances: quick rows, and enough of them for a worker pool
EDGELESS_PAIR = {"model": "gnp", "n": 3, "parameter": 0.0, "seed": 1, "count": 2}


def _record_pools(monkeypatch) -> list[int]:
    """Swap the batch worker pool for a serial stand-in; returns the list that
    each opened pool's worker count is appended to."""
    opened = []

    class SerialPool:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return list(map(fn, items))

    monkeypatch.setattr(harness_cli, "ProcessPoolExecutor", SerialPool)
    return opened


def _forbid_workers(monkeypatch) -> None:
    monkeypatch.setattr(harness_cli, "ProcessPoolExecutor", lambda *a, **k: pytest.fail("a worker pool opened"))
    monkeypatch.setattr(harness_cli, "_worker", lambda args: pytest.fail("an instance ran"))


class TestBatchSpecValidation:
    @pytest.mark.parametrize("doc,key", list(BAD_BATCHES.values()), ids=list(BAD_BATCHES))
    def test_rejected_before_any_instance_runs(self, doc, key, tmp_path, capsys):
        with pytest.raises(ArgumentError, match=key):
            run_batch(doc)
        spec = tmp_path / "batch.json"
        spec.write_text(json.dumps(doc))
        assert main(["batch", str(spec), "--out", str(tmp_path / "out")]) == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


# generated entries no instance can be built from
UNBUILDABLE_ENTRIES = {
    "star-size-not-integral": {"model": "star_union", "n": 8, "parameter": 2.7, "seed": 1},
    "probability-above-one": {"model": "gnp", "n": 8, "parameter": 1.5, "seed": 1},
    "unknown-model": {"model": "nosuch", "n": 8, "parameter": 0.3, "seed": 1},
}


class TestUnbuildableCorpusEntry:
    @pytest.mark.parametrize("entry", list(UNBUILDABLE_ENTRIES.values()), ids=list(UNBUILDABLE_ENTRIES))
    def test_rejected_naming_the_entry_before_any_worker(self, entry, tmp_path, capsys, monkeypatch):
        _forbid_workers(monkeypatch)
        doc = {"corpus": [GEN_ENTRY, entry], "jobs": 2}
        with pytest.raises(ArgumentError, match="corpus entry 1"):
            run_batch(doc)
        spec = tmp_path / "batch.json"
        spec.write_text(json.dumps(doc))
        assert main(["batch", str(spec), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "corpus entry 1" in err and entry["model"] in err
        assert not (tmp_path / "out").exists()


# file entries whose file or id is not a string
NON_STRING_FILE_ENTRIES = {
    "file-not-string": ([{"file": 123}], "corpus entry 0", "file must be a string"),
    "id-not-string": ([{"file": "a.dimacs"}, {"file": "b.dimacs", "id": 5}], "corpus entry 1", "id must be a string"),
}


class TestNonStringFileEntry:
    @pytest.mark.parametrize("corpus,entry,message", list(NON_STRING_FILE_ENTRIES.values()), ids=list(NON_STRING_FILE_ENTRIES))
    def test_rejected_naming_the_entry_before_any_worker(self, corpus, entry, message, tmp_path, capsys, monkeypatch):
        _forbid_workers(monkeypatch)
        with pytest.raises(ArgumentError, match=f"{entry} .*: {message}"):
            run_batch({"corpus": corpus})
        spec = tmp_path / "batch.json"
        spec.write_text(json.dumps({"corpus": corpus}))
        assert main(["batch", str(spec), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert entry in err and message in err
        assert not (tmp_path / "out").exists()


class TestRunBatch:
    BATCH = {
        "corpus": [
            {"model": "gnp", "n": 9, "parameter": 0.3, "seed": 1, "count": 3},
            {"model": "star_union", "n": 8, "parameter": 4, "seed": 2},
        ]
    }

    def test_rows_sorted_and_complete(self):
        table = run_batch(self.BATCH)
        assert len(table["rows"]) == 4
        ids = [r["instance_id"] for r in table["rows"]]
        assert ids == sorted(ids)
        assert table["aggregates"]["instances"] == 4
        assert table["aggregates"]["max_ratio"] <= 2.0

    def test_parallel_matches_serial(self):
        serial = run_batch(self.BATCH, jobs=1)
        parallel = run_batch(self.BATCH, jobs=2)

        def strip(table):
            for row in table["rows"]:
                row["trace"].pop("timings", None)
            return table

        assert strip(serial) == strip(parallel)

    def test_extraction_error_fails_its_row_only(self, tmp_path, capsys, monkeypatch):
        # No fallback: an ExtractionError inside mahdis_run propagates. A batch
        # records it as that row's error and completes the other rows; solve
        # exits 2.
        import vcgap.pipeline

        def unfactorable(*args, **kwargs):
            raise ExtractionError("forced")

        monkeypatch.setattr(vcgap.pipeline, "extract_vectors", unfactorable)
        table = run_batch({"corpus": [GEN_ENTRY, {"model": "star_union", "n": 8, "parameter": 4}]})
        failed, done = sorted(table["rows"], key=lambda row: "trace" in row)
        assert failed["error"] == "ExtractionError: forced" and failed["instance_id"] == "gnp-n6-p0.4-s1"
        assert done["trace"]["step_taken"] == STEP_EDGELESS
        assert table["aggregates"]["failures"] == [{"instance_id": failed["instance_id"], "error": failed["error"]}]
        # the failed row keeps the id a successful row would have, so the CSV keeps its shape
        _, *lines = table_to_csv(table).strip().split("\n")
        assert [len(line.split(",")) for line in lines] == [len(CSV_COLUMNS)] * 2
        assert lines[0].split(",")[-1] == "error:ExtractionError: forced"
        dimacs = tmp_path / "k3.dimacs"
        dimacs.write_text(write_dimacs(complete_graph(3)))
        assert main(["solve", str(dimacs)]) == 2
        assert "ExtractionError" in capsys.readouterr().err

    @pytest.mark.parametrize("arg,spec_jobs,used", [(None, 3, 3), (2, 3, 2), (1, 3, 1), (None, None, 1)])
    def test_jobs_from_argument_else_spec_else_one(self, arg, spec_jobs, used, monkeypatch):
        pools = _record_pools(monkeypatch)
        doc = {"corpus": [EDGELESS_PAIR]} if spec_jobs is None else {"corpus": [EDGELESS_PAIR], "jobs": spec_jobs}
        table = run_batch(doc) if arg is None else run_batch(doc, arg)
        assert len(table["rows"]) == 2
        assert pools == ([] if used == 1 else [used])

    @pytest.mark.parametrize("arg,spec_jobs", [(0, 2), (-5, None), ("2", None), (2.0, None), (True, None), (None, "x")])
    def test_bad_jobs_raise_before_any_worker(self, arg, spec_jobs, monkeypatch):
        _forbid_workers(monkeypatch)
        doc = {"corpus": [EDGELESS_PAIR]} if spec_jobs is None else {"corpus": [EDGELESS_PAIR], "jobs": spec_jobs}
        with pytest.raises(ArgumentError, match="jobs"):
            run_batch(doc, arg)

    def test_instance_failure_recorded_not_raised(self):
        table = run_batch({"corpus": [{"file": "/nonexistent/never.dimacs", "id": "gone"}]})
        assert table["aggregates"]["failures"][0]["instance_id"] == "gone"

    def test_schema_version_and_keys(self):
        table = run_batch({"corpus": [EDGELESS_PAIR]})
        assert table["schema_version"] == "2"
        assert set(table["rows"][0]) == {"instance_id", "trace", "baseline_size", "z_sdp_single", "z_sdp_single_bounds"}
        assert set(table["aggregates"]) == {
            "instances", "failures", "max_ratio", "mean_ratio", "step_histogram", "property1_holds_count",
            "certificate_violations", "theorem6_violations", "sdp_nonconverged", "sdp_single_nonconverged",
        }

    def test_empty_corpus_gives_header_only_csv(self):
        table = run_batch({"corpus": []})
        csv = table_to_csv(table)
        assert csv == ",".join(CSV_COLUMNS) + "\n"

    def test_csv_quotes_ids_with_commas_and_line_breaks(self, tmp_path):
        dimacs = tmp_path / "a,b.dimacs"
        dimacs.write_text(write_dimacs(complete_graph(3)))
        ids = ["x\ny", "k3", "a\rb", "c\r\nd"]
        table = run_batch({"corpus": [{"file": str(dimacs)}] + [{"file": str(dimacs), "id": i} for i in ids]})
        text = table_to_csv(table)
        rows = list(csv.reader(io.StringIO(text, newline="")))
        assert [len(r) for r in rows] == [len(CSV_COLUMNS)] * 6
        assert [r[0] for r in rows[1:]] == sorted(["a,b"] + ids)
        # an ordinary id is written as the cells joined by commas, unquoted
        k3 = next(r for r in rows if r[0] == "k3")
        assert "\n" + ",".join(k3) + "\n" in text

    def test_csv_keeps_error_text_verbatim(self):
        error = 'ParseError: line 3: malformed edge line "e 1,2"'
        table = {"rows": [{"instance_id": "bad", "error": error}]}
        rows = list(csv.reader(io.StringIO(table_to_csv(table), newline="")))
        assert rows[1][0] == "bad" and rows[1][-1] == "error:" + error
        assert [len(r) for r in rows] == [len(CSV_COLUMNS)] * 2

    def test_single_nonconvergence_is_counted(self, monkeypatch):
        spec = {"model": "gnp", "n": 8, "parameter": 0.6, "seed": 11}
        table = run_batch({"corpus": [spec]})
        assert table["aggregates"]["sdp_single_nonconverged"] == 0
        monkeypatch.setattr(sdp_solve, "IPM_MAX_ITER", 1)
        table = run_batch({"corpus": [spec]})
        row = table["rows"][0]
        assert "sdp_single_nonconverged" in row["trace"]["flags"] and row["z_sdp_single"] is None
        assert table["aggregates"]["sdp_single_nonconverged"] == 1


class TestReports:
    def make_table(self):
        return run_batch({"corpus": [{"model": "gnp", "n": 7, "parameter": 0.4, "seed": 3}]})

    def test_csv_k3_row(self, tmp_path):
        dimacs = tmp_path / "k3.dimacs"
        dimacs.write_text(write_dimacs(complete_graph(3)))
        table = run_batch({"corpus": [{"file": str(dimacs)}]})
        csv = table_to_csv(table)
        header, row = csv.strip().split("\n")
        assert header == ",".join(CSV_COLUMNS)
        cells = dict(zip(CSV_COLUMNS, row.split(",")))
        assert cells["instance_id"] == "k3"
        assert cells["z_lp"] == "1.5"
        assert cells["z_exact"] == "2"

    def test_json_roundtrip_identity(self, tmp_path):
        table = self.make_table()
        for row in table["rows"]:
            row["trace"].pop("timings", None)
        paths = emit_report(table, "json", tmp_path)
        parsed = json.loads(paths[0].read_text())
        assert parsed == table

    def test_csv_emission(self, tmp_path):
        paths = emit_report(self.make_table(), "csv", tmp_path)
        text = paths[0].read_text()
        assert text.startswith("instance_id,")

    def test_plotdata_series(self, tmp_path):
        table = self.make_table()
        plot = table_to_plotdata(table)
        names = [s["name"] for s in plot["series"]]
        assert names == ["ratio_vs_density", "theorem6_defect_chain"]
        paths = emit_report(table, "plotdata", tmp_path)
        assert json.loads(paths[0].read_text())["series"]

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ArgumentError):
            emit_report(self.make_table(), "xml", tmp_path)


class TestRunInstance:
    def test_single_bracket_attached_when_sdp_ran(self):
        row = run_instance({"model": "gnp", "n": 8, "parameter": 0.6, "seed": 11})
        assert row["trace"]["z_sdp_doubled"] is not None
        assert row["z_sdp_single"] is not None
        lower, upper = row["z_sdp_single_bounds"]
        assert lower <= row["z_sdp_single"] == upper and upper - lower <= TAU_GAP

    def test_no_bounds_without_the_doubled_solve(self):
        row = run_instance({"model": "gnp", "n": 4, "parameter": 0.0, "seed": 1})
        assert row["z_sdp_single"] is None and row["z_sdp_single_bounds"] is None

    @pytest.mark.parametrize("spec", [
        {"model": "gnp", "n": 8, "parameter": 0.6, "seed": 11},  # no kernel: the residual is g
        {"model": "gnp", "n": 9, "parameter": 0.25, "seed": 3},  # the kernel removed a vertex
    ])
    def test_one_oracle_call_per_run(self, spec, monkeypatch):
        exact = harness_cli.exact_vc
        calls = []
        monkeypatch.setattr(harness_cli, "exact_vc", lambda g, *args: calls.append(g.n) or exact(g, *args))
        row = run_instance(spec)
        assert row["trace"]["z_sdp_doubled"] is not None
        assert calls == [spec["n"]]

    def test_oracle_skipped_above_limit(self):
        row = run_instance({"model": "gnp", "n": 8, "parameter": 0.3, "seed": 1}, oracle_max_n=4)
        assert row["trace"]["empirical_ratio"] is None
        assert "oracle_unknown" in row["trace"]["flags"]


def _set(path, value):
    *keys, last = path
    return lambda doc: functools.reduce(dict.__getitem__, keys, doc).__setitem__(last, value)


def _drop(path):
    *keys, last = path
    return lambda doc: functools.reduce(dict.__getitem__, keys, doc).pop(last)


def _eye3_with(value):
    """The probe document's 3 x 3 identity Gram, row-major, with entries
    (0, 1) and (1, 0) set to `value`."""
    matrix = np.eye(3).ravel().tolist()
    matrix[1] = matrix[3] = value
    return matrix


BAD_PROBES = {
    "lacks-graph": (_drop(["graph"]), "graph"),
    "lacks-gram": (_drop(["gram"]), "gram"),
    "graph-not-object": (_set(["graph"], [[0, 1]]), "graph"),
    "gram-not-object": (_set(["gram"], "eye"), "gram"),
    "unknown-top-key": (_set(["gramm"], {}), "gramm"),
    "graph-lacks-edges": (_drop(["graph", "edges"]), "edges"),
    "gram-lacks-dim": (_drop(["gram", "dim"]), "dim"),
    "gram-lacks-matrix": (_drop(["gram", "matrix"]), "matrix"),
    "gram-lacks-converged": (_drop(["gram", "converged"]), "converged"),
    "matrix-not-dim-squared": (_set(["gram", "matrix"], [1.0] * 8), "matrix"),
    "dim-not-n-plus-1": (_set(["gram"], json.loads(GramSolution(np.eye(4), 0, 0, 0, 1, 1, True).to_json())), "gram.dim"),
    "dim-not-2n-plus-1": (_set(["doubled"], True), "gram.dim"),
    "matrix-nan": (_set(["gram", "matrix"], _eye3_with(float("nan"))), "matrix"),
    "matrix-inf": (_set(["gram", "matrix"], _eye3_with(float("inf"))), "matrix"),
    "matrix-bools": (_set(["gram", "matrix"], [bool(v) for v in np.eye(3).ravel()]), "matrix"),
    "objective-string": (_set(["gram", "objective_value"], "x"), "objective_value"),
    "objective-bool": (_set(["gram", "objective_value"], True), "objective_value"),
    "box-violation-inf": (_set(["gram", "max_box_violation"], float("inf")), "max_box_violation"),
    "min-eigenvalue-nan": (_set(["gram", "min_eigenvalue"], float("nan")), "min_eigenvalue"),
    "iterations-negative": (_set(["gram", "iterations"], -1), "iterations"),
    "iterations-fraction": (_set(["gram", "iterations"], 1.5), "iterations"),
    "converged-string": (_set(["gram", "converged"], "false"), "converged"),
    "converged-int": (_set(["gram", "converged"], 1), "converged"),
}


class TestCliMain:
    def test_gen_solve_exact_baseline(self, tmp_path, capsys):
        out = tmp_path / "g.dimacs"
        assert main(["gen", "--model", "gnp", "--n", "7", "--parameter", "0.5", "--seed", "4", "--out", str(tmp_path)]) == 0
        generated = capsys.readouterr().out.strip()
        assert Path(generated).stem == harness_cli._instance_id({"model": "gnp", "n": 7, "parameter": 0.5, "seed": 4})
        assert main(["solve", generated]) == 0
        assert "ratio=" in capsys.readouterr().out
        assert main(["exact", generated]) == 0
        assert "optimum=" in capsys.readouterr().out
        assert main(["baseline", generated]) == 0
        capsys.readouterr()

    def test_batch_command(self, tmp_path, capsys):
        spec = tmp_path / "batch.json"
        spec.write_text(json.dumps({"corpus": [{"model": "gnp", "n": 6, "parameter": 0.4, "seed": 1, "count": 2}]}))
        assert main(["batch", str(spec), "--out", str(tmp_path / "out"), "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert "batch: 2 instances" in out
        assert (tmp_path / "out" / "report.csv").exists()

    @pytest.mark.parametrize("flag,spec_jobs,used", [(None, 2, 2), ("1", 2, 1), ("3", 2, 3), (None, None, 1)])
    def test_batch_jobs_flag_wins_over_spec(self, flag, spec_jobs, used, tmp_path, monkeypatch, capsys):
        pools = _record_pools(monkeypatch)
        doc = {"corpus": [EDGELESS_PAIR]} if spec_jobs is None else {"corpus": [EDGELESS_PAIR], "jobs": spec_jobs}
        spec = tmp_path / "batch.json"
        spec.write_text(json.dumps(doc))
        args = ["batch", str(spec), "--out", str(tmp_path / "out")] + (["--jobs", flag] if flag else [])
        assert main(args) == 0
        assert "batch: 2 instances" in capsys.readouterr().out
        assert pools == ([] if used == 1 else [used])

    @pytest.mark.parametrize("flag", ["0", "-5"])
    def test_batch_jobs_below_one_exit_1(self, flag, tmp_path, capsys, monkeypatch):
        _forbid_workers(monkeypatch)
        spec = tmp_path / "batch.json"
        spec.write_text(json.dumps({"corpus": [EDGELESS_PAIR], "jobs": 2}))
        assert main(["batch", str(spec), "--jobs", flag, "--out", str(tmp_path / "out")]) == 1
        assert "jobs" in capsys.readouterr().err

    def test_probe_command(self, tmp_path, capsys, monkeypatch):
        import vcgap.pipeline

        main(["gen", "--model", "odd_cycle_rich", "--n", "5", "--parameter", "0", "--seed", "1", "--out", str(tmp_path)])
        generated = capsys.readouterr().out.strip()
        solves = []

        def counted(module, name):
            solve = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, **k: solves.append(1) or solve(*a, **k))

        counted(vcgap.pipeline, "admm_solve")
        counted(harness_cli, "ipm_solve")
        gram_path = tmp_path / "gram.json"
        assert main(["solve", generated, "--dump-gram", str(gram_path), "--no-exact", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert len(solves) == 1  # the dump is the run's own Gram, not a second solve
        trace = json.loads((tmp_path / (Path(generated).stem + ".trace.json")).read_text())
        dump = json.loads(gram_path.read_text())
        assert dump["doubled"] and dump["graph"] == trace["graph"]
        assert dump["gram"]["objective_value"] == trace["z_sdp_doubled"]
        assert main(["probe", str(gram_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "odd_cycle_probe" in doc
        assert doc["property_prime"] == trace["property_prime"]
        assert doc["property_double_prime"] == trace["property_double_prime"]

    def test_dump_gram_without_a_doubled_solve_says_why(self, tmp_path, capsys):
        # a star kernelizes to an edgeless residual: no doubled solve, so no Gram
        path = tmp_path / "star.dimacs"
        path.write_text(write_dimacs(Graph.build(range(4), [(0, 1), (0, 2), (0, 3)])))
        gram_path = tmp_path / "gram.json"
        assert main(["solve", str(path), "--dump-gram", str(gram_path), "--no-exact"]) == 0
        out, err = capsys.readouterr()
        assert f"step={STEP_EDGELESS}" in out
        assert not gram_path.exists()
        assert err.count("\n") == 1 and str(gram_path) in err and "no doubled relaxation was solved" in err

    @pytest.mark.parametrize("case,key", list(BAD_PROBES.values()), ids=list(BAD_PROBES))
    def test_probe_rejects_malformed_document(self, case, key, tmp_path, capsys):
        doc = {
            "graph": json.loads(complete_graph(2).to_json()),
            "doubled": False,
            "gram": json.loads(GramSolution(np.eye(3), 1.0, 0.0, 0.0, 1.0, 1, True).to_json()),
        }
        case(doc)
        path = tmp_path / "probe.json"
        path.write_text(json.dumps(doc))
        assert main(["probe", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error") and key in err

    @pytest.mark.parametrize(
        "model,parameter", [("star_union", "inf"), ("star_union", "nan"), ("gnp", "nan"), ("star_union", "2.7")]
    )
    def test_gen_bad_parameter_exit_1(self, model, parameter, capsys):
        assert main(["gen", "--model", model, "--n", "6", "--parameter", parameter]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "parameter" in err

    def test_usage_error_exit_1(self, capsys):
        assert main(["solve"]) == 1
        capsys.readouterr()

    def test_option_outside_its_subcommand_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"oracle_budget": 40}))
        dimacs = tmp_path / "k3.dimacs"
        dimacs.write_text(write_dimacs(complete_graph(3)))
        assert main(["--config", str(cfg), "solve", str(dimacs)]) == 1
        assert main(["baseline", str(dimacs), "--config", str(cfg)]) == 1
        assert main(["gen", "--model", "gnp", "--n", "4", "--parameter", "0.5", "--jobs", "2"]) == 1
        assert main(["solve", str(dimacs), "--seed", "3"]) == 1
        assert capsys.readouterr().out == ""

    def test_missing_file_exit_3(self, capsys):
        assert main(["solve", "/nonexistent/file.dimacs"]) == 3
        capsys.readouterr()

    def test_malformed_dimacs_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.dimacs"
        bad.write_text("p edge 2 1\ne 1 1\n")
        assert main(["solve", str(bad)]) == 1
        capsys.readouterr()

    def test_contract_violation_exit_2(self, tmp_path, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise ContractViolation("forced")

        monkeypatch.setattr(harness_cli, "mahdis_run", boom)
        dimacs = tmp_path / "k3.dimacs"
        dimacs.write_text(write_dimacs(complete_graph(3)))
        assert main(["solve", str(dimacs)]) == 2
        capsys.readouterr()

    def test_extraction_error_exit_2(self, tmp_path, capsys):
        # A saved Gram that claims convergence but is far from PSD cannot be
        # factored into unit vectors.
        g = complete_graph(2)
        gram = GramSolution(np.array([[1.0, 0.9, 0.9], [0.9, 1.0, -1.0], [0.9, -1.0, -1.0]]), 0.0, 0.0, 0.0, -1.0, 1, True)
        doc = {"graph": json.loads(g.to_json()), "doubled": False, "gram": json.loads(gram.to_json())}
        path = tmp_path / "gram.json"
        path.write_text(json.dumps(doc))
        assert main(["probe", str(path)]) == 2
        assert "ExtractionError" in capsys.readouterr().err

    def test_probe_rejects_unknown_threshold_key(self, tmp_path, capsys):
        # the thresholds come from the config document only
        g = complete_graph(2)
        gram = GramSolution(np.eye(3), 0.0, 0.0, 0.0, 1.0, 1, True)
        doc = {
            "graph": json.loads(g.to_json()),
            "gram": json.loads(gram.to_json()),
            "thresholds": {"epsilon": 0.01},
        }
        path = tmp_path / "gram.json"
        path.write_text(json.dumps(doc))
        assert main(["probe", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error") and "thresholds" in err

    def test_half_integrality_violation_exit_2(self, tmp_path, capsys, monkeypatch):
        def off_grid(*args, **kwargs):
            raise HalfIntegralityViolation([(0, 0.3)])

        monkeypatch.setattr(harness_cli, "mahdis_run", off_grid)
        dimacs = tmp_path / "k3.dimacs"
        dimacs.write_text(write_dimacs(complete_graph(3)))
        assert main(["solve", str(dimacs)]) == 2
        assert "HalfIntegralityViolation" in capsys.readouterr().err

    @pytest.mark.parametrize("config", [False, True], ids=["input-file", "config-file"])
    def test_non_utf8_file_exit_1(self, config, tmp_path, capsys):
        blob = tmp_path / "blob.bin"
        blob.write_bytes(b"\xff\xfe")
        dimacs = tmp_path / "k3.dimacs"
        dimacs.write_text(write_dimacs(complete_graph(3)))
        argv = ["solve", str(dimacs), "--no-exact", "--config", str(blob)] if config else ["solve", str(blob)]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("input error")
        if config:
            assert str(blob) in err

    def test_non_ascii_dimacs_comment_is_skipped(self, tmp_path, capsys):
        text = write_dimacs(complete_graph(3)).encode()
        runs = []
        for name, data in (("ascii", text), ("latin1", b"c caf\xe9\n" + text)):
            (tmp_path / name).mkdir()
            path = tmp_path / name / "k3.dimacs"
            path.write_bytes(data)
            assert main(["solve", str(path), "--out", str(tmp_path / name)]) == 0
            trace = json.loads((tmp_path / name / "k3.trace.json").read_text())
            runs.append((capsys.readouterr().out, trace["in_cover"]))
        assert runs[0] == runs[1]

    def test_config_via_env(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"oracle_budget": 40000}))
        monkeypatch.setenv("VCGAP_CONFIG", str(cfg))
        dimacs = tmp_path / "k3.dimacs"
        dimacs.write_text(write_dimacs(complete_graph(3)))
        assert main(["solve", str(dimacs)]) == 0
        capsys.readouterr()

    def test_gen_to_stdout_parses(self, capsys):
        assert main(["gen", "--model", "gnp", "--n", "4", "--parameter", "1.0", "--seed", "0"]) == 0
        text = capsys.readouterr().out
        assert parse_dimacs(text).m == 6


# README's exit code for every package error
EXIT_CODES = {
    ParseError: 1,
    ArgumentError: 1,
    ContractViolation: 2,
    SolverError: 2,
    ExtractionError: 2,
    HalfIntegralityViolation: 2,
}


def _subclasses(cls) -> set[type]:
    return {sub for direct in cls.__subclasses__() for sub in {direct} | _subclasses(direct)}


class TestExitCodes:
    def test_every_package_error_has_a_case(self):
        assert _subclasses(VcgapError) == set(EXIT_CODES)

    @pytest.mark.parametrize("error,code", list(EXIT_CODES.items()), ids=[e.__name__ for e in EXIT_CODES])
    def test_package_error_gives_its_exit_code(self, error, code, capsys, monkeypatch):
        exc = error([(0, 0.3)]) if error is HalfIntegralityViolation else error("forced")

        def raise_it(args):
            raise exc

        monkeypatch.setattr(harness_cli, "_dispatch", raise_it)
        assert main(["baseline", "g.dimacs"]) == code
        assert str(exc) in capsys.readouterr().err
