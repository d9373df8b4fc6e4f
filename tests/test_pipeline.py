import json
import logging
import math
import re
from pathlib import Path

import numpy as np
import pytest

from helpers import check_plain_record, complete_graph, cycle_graph, embedding_of, random_gnp, star_graph
from vcgap import pipeline, sdp_solve
from vcgap.errors import ArgumentError
from vcgap.exact_oracle import ExactResult, exact_vc
from vcgap.graph_core import Graph, duplicate_join, induced_subgraph, verify_cover, write_dimacs
from vcgap.harness_cli import CSV_COLUMNS, generate_graph, main
from vcgap.lp_relax import cover_relaxation, nt_decompose
from vcgap.pipeline import (
    STEP_ARBITRARY_PRIME,
    STEP_BASELINE,
    STEP_BIPARTITE,
    STEP_CUT_PRIME,
    STEP_EDGELESS,
    STEP_SDP_FALLBACK,
    STEP_THEOREM6_FALLBACK,
    DoubledAnalysis,
    PipelineConfig,
    RunTrace,
    _cut_copy,
    evaluate_ratio,
    mahdis_run,
    two_approx_baseline,
)
from vcgap.rounding_geometry import Thresholds


def run_with_oracle(g: Graph, cfg: PipelineConfig = PipelineConfig()) -> RunTrace:
    return evaluate_ratio(mahdis_run(g, cfg), exact_vc(g))


def pipeline_messages(caplog) -> list[str]:
    return [r.getMessage() for r in caplog.records if r.name == "vcgap.pipeline"]


def trace_key(trace: RunTrace) -> dict:
    doc = trace.to_dict()
    doc.pop("timings")
    return doc


class TestMahdisRun:
    def test_star_kernelizes_to_center(self):
        trace = run_with_oracle(star_graph(3))
        assert trace.nt_used and trace.step_taken == STEP_EDGELESS
        assert trace.in_cover == (1,)
        assert trace.empirical_ratio == 1.0

    def test_kernel_refines_the_runs_own_relaxation_optimum(self, monkeypatch):
        solved, handed = [], []
        monkeypatch.setattr(pipeline, "cover_relaxation", lambda g: solved.append(cover_relaxation(g)) or solved[-1])
        monkeypatch.setattr(pipeline, "nt_decompose", lambda g, lp: handed.append(lp) or nt_decompose(g, lp))
        assert mahdis_run(star_graph(3)).nt_used
        assert len(solved) == len(handed) == 1 and handed[0] is solved[0]

    def test_k3_feasible_with_ratio_at_most_three_halves(self):
        trace = run_with_oracle(complete_graph(3))
        assert trace.z_lp == pytest.approx(1.5)
        assert not trace.nt_used
        assert 2 <= trace.cover_size <= 3
        assert trace.empirical_ratio <= 1.5

    def test_edgeless_ratio_defined_as_one(self):
        trace = run_with_oracle(Graph.build(range(4), []))
        assert trace.step_taken == STEP_EDGELESS
        assert trace.cover_size == 0 and trace.empirical_ratio == 1.0

    def test_empty_graph(self):
        trace = run_with_oracle(Graph.build([], []))
        assert trace.cover_size == 0 and trace.empirical_ratio == 1.0

    def test_cover_always_verifies_on_original(self):
        rng = np.random.default_rng(107)
        for _ in range(20):
            n = int(rng.integers(1, 13))
            g = random_gnp(n, float(rng.random() * 0.85 + 0.05), seed=int(rng.integers(1 << 30)))
            trace = mahdis_run(g)
            assert verify_cover(g, frozenset(trace.in_cover)) == []

    def test_kernelization_gate(self):
        # stars push the relaxation below n/2; the complete graph sits at n/2
        assert mahdis_run(star_graph(4)).nt_used
        assert not mahdis_run(complete_graph(4)).nt_used

    def test_logs_the_kernel_gate(self, caplog):
        caplog.set_level(logging.DEBUG, logger="vcgap.pipeline")
        mahdis_run(star_graph(4))
        mahdis_run(complete_graph(3))
        # K4 less one edge: two products per copy fall below one half, so the first copy is cut
        k4_less_an_edge = Graph.build(range(4), [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        assert mahdis_run(k4_less_an_edge).step_taken == STEP_CUT_PRIME
        assert pipeline_messages(caplog) == [
            "kernel gate: z_lp=1.0, n/2=2.5, fired; residual n=0 m=0",
            "kernel gate: z_lp=1.5, n/2=1.5, not fired; residual n=3 m=3",
            "rounding branch: step6_arbitrary; copy 1 below_half=0 above_band=3, copy 2 below_half=0 above_band=3",
            "kernel gate: z_lp=2.0, n/2=2.0, not fired; residual n=4 m=5",
            "rounding branch: step4_cut_prime; copy 1 below_half=2 above_band=2, copy 2 below_half=2 above_band=2",
        ]

    def test_deterministic_traces(self):
        g = random_gnp(10, 0.4, seed=303)
        assert trace_key(mahdis_run(g)) == trace_key(mahdis_run(g))

    def test_sdp_nonconvergence_falls_back_to_matching(self, monkeypatch, caplog):
        caplog.set_level(logging.DEBUG, logger="vcgap.pipeline")
        monkeypatch.setattr(sdp_solve, "ADMM_MAX_ITER", 3)
        trace = run_with_oracle(cycle_graph(5))
        assert trace.step_taken == STEP_SDP_FALLBACK
        assert pipeline_messages(caplog)[-1] == (
            "rounding branch: sdp_nonconverged_fallback; ADMM not converged after 3 iterations"
        )
        assert "sdp_nonconverged" in trace.flags
        assert verify_cover(cycle_graph(5), frozenset(trace.in_cover)) == []

    def test_theorem6_violation_path_on_widened_band(self, caplog):
        # The doubled five-cycle relaxes to uniform products around 0.553;
        # widening the band makes both conditions hold while the band
        # subgraph stays the odd cycle itself, so the probe must fire.
        cfg = PipelineConfig(
            thresholds=Thresholds(below_half_fraction=0.5, above_band_fraction=0.5, epsilon=0.1)
        )
        caplog.set_level(logging.DEBUG, logger="vcgap.pipeline")
        trace = run_with_oracle(cycle_graph(5), cfg)
        assert trace.step_taken == STEP_THEOREM6_FALLBACK
        assert pipeline_messages(caplog)[-1] == (
            "rounding branch: theorem6_violation_fallback; "
            "copy 1 below_half=0 above_band=0, copy 2 below_half=0 above_band=0"
        )
        assert "theorem6_violation" in trace.flags
        probe = trace.theorem6_probe
        assert probe is not None and not probe["bipartite"]
        assert len(probe["cycle"]) == 5
        assert len(probe["per_edge_defects"]) == 5
        assert trace.empirical_ratio <= 2.0

    def test_bipartite_step_on_widened_band(self, caplog):
        # The five-cycle with one chord solves to a product spread around
        # (0.60, 0.70, 0.50, 0.50, 0.70); a band topping out at 0.65 slices
        # off a bipartite subgraph whatever the sign noise at the 0.50
        # vertices, and generous fractions keep both conditions holding.
        cfg = PipelineConfig(
            thresholds=Thresholds(below_half_fraction=0.5, above_band_fraction=0.5, epsilon=0.15)
        )
        g = Graph.build(range(1, 6), [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (2, 5)])
        caplog.set_level(logging.DEBUG, logger="vcgap.pipeline")
        trace = run_with_oracle(g, cfg)
        assert trace.step_taken == STEP_BIPARTITE
        assert pipeline_messages(caplog)[-1] == (
            "rounding branch: step8_bipartite; copy 1 below_half=0 above_band=2, copy 2 below_half=0 above_band=2"
        )
        assert trace.empirical_ratio <= 2.0
        assert verify_cover(g, frozenset(trace.in_cover)) == []
        assert trace.certificates and trace.certificates[-1]["source"] == "theorem3"

    def test_arbitrary_step_without_margin_emits_no_certificate(self, tmp_path, capsys):
        # delta = 0.5 * 0.1 - 0.5 / 2 < 0: these thresholds leave the optimum
        # no margin above n/2, so there is no Theorem-2 bound to claim.
        th = {"below_half_fraction": 0.5, "above_band_fraction": 0.5, "epsilon": 0.1}
        cfg = PipelineConfig.from_dict({"thresholds": th})
        g = generate_graph("gnp", 9, 0.4, 3)
        trace = run_with_oracle(g, cfg)
        assert trace.step_taken == STEP_ARBITRARY_PRIME
        assert trace.flags == ["theorem2_no_margin"] and trace.certificates == []
        assert verify_cover(g, frozenset(trace.in_cover)) == []
        assert trace.empirical_ratio <= 2.0
        dimacs, config = tmp_path / "g.dimacs", tmp_path / "cfg.json"
        dimacs.write_text(write_dimacs(g))
        config.write_text(json.dumps({"thresholds": th}))
        assert main(["solve", str(dimacs), "--config", str(config)]) == 0
        assert "flags=theorem2_no_margin" in capsys.readouterr().out

    def test_arbitrary_step_carries_certificate(self):
        trace = run_with_oracle(complete_graph(3))
        assert trace.step_taken == STEP_ARBITRARY_PRIME
        assert trace.certificates
        cert = trace.certificates[0]
        assert cert["source"] == "theorem2"
        assert cert["claimed_ratio_bound"] < 2.0
        assert "theorem4_lower_bound" in cert["inputs"]

    def test_trace_serialization_roundtrip(self):
        trace = mahdis_run(complete_graph(3))
        assert trace.residual is not None and trace.gram is not None and trace.certificates
        doc = trace.to_dict()
        check_plain_record(trace, doc)
        assert doc["schema_version"] == "1"
        assert doc["graph"]["n"] == 3
        assert isinstance(doc["in_cover"], list)
        doc["flags"].append("added_by_caller")
        assert "added_by_caller" not in trace.flags


class TestCutRepair:
    def test_infeasible_cut_is_repaired_and_recorded(self):
        g = complete_graph(2)
        # both first-copy products below one half: the raw cut covers nothing
        vectors = np.zeros((5, 5))
        vectors[0, 0] = 1.0
        for idx, p in zip(range(1, 5), (0.4, 0.3, 0.5, 0.5)):
            vectors[idx, 0] = p
            vectors[idx, idx] = np.sqrt(1 - p * p)
        trace = RunTrace("1", g, 2, 1, step_taken="")
        a = DoubledAnalysis(g, embedding_of(vectors), None, None)
        cover = _cut_copy(trace, STEP_CUT_PRIME, a, 0)
        assert verify_cover(g, cover) == []
        assert trace.repairs and trace.repairs[0]["step"] == STEP_CUT_PRIME
        assert "cut_repaired" in trace.flags
        # the higher-product endpoint (vertex 1 at 0.4) was chosen
        assert trace.repairs[0]["added"] == [1]


class TestDoubledAnalysis:
    def test_copy_ids_and_base_ids(self):
        a = DoubledAnalysis(Graph.build([5, 9], [(5, 9)]), None, None, None)
        assert tuple(a.copy_ids(0)) == (0, 1)
        assert tuple(a.copy_ids(1)) == (2, 3)
        assert [a.base_id(c) for c in range(4)] == [5, 9, 5, 9]

    @pytest.mark.parametrize("g", [Graph.build([], []), Graph.build([4], []), complete_graph(3), random_gnp(9, 0.4, seed=3)])
    def test_copy_graph_is_the_doubled_graphs_induced_subgraph(self, g):
        a = DoubledAnalysis(g, None, None, None)
        for copy in (0, 1):
            assert a.copy_graph(copy) == induced_subgraph(duplicate_join(g), a.copy_ids(copy))


class TestEvaluateRatio:
    def test_exact_match_gives_one(self):
        trace = mahdis_run(complete_graph(3))
        trace.cover_size = 2
        evaluate_ratio(trace, exact_vc(complete_graph(3)))
        assert trace.empirical_ratio == 1.0

    def test_consistent_certificate_not_flagged(self):
        trace = mahdis_run(complete_graph(3))
        trace.cover_size = 3
        trace.certificates = [{"claimed_ratio_bound": 1.5, "source": "theorem2", "inputs": {}, "assumptions": []}]
        evaluate_ratio(trace, exact_vc(complete_graph(3)))
        assert trace.empirical_ratio == 1.5
        assert not trace.certificate_violated

    def test_violated_certificate_flagged(self):
        trace = mahdis_run(complete_graph(2))
        trace.cover_size = 2
        trace.certificates = [
            {"claimed_ratio_bound": 1.999998, "source": "theorem3", "inputs": {}, "assumptions": []}
        ]
        evaluate_ratio(trace, exact_vc(complete_graph(2)))
        assert trace.empirical_ratio == 2.0
        assert trace.certificate_violated
        assert "certificate_violated" in trace.flags

    def test_unknown_oracle_flagged(self):
        trace = mahdis_run(complete_graph(2))
        evaluate_ratio(trace, ExactResult("unknown", None, None, 10))
        assert trace.empirical_ratio is None
        assert "oracle_unknown" in trace.flags


class TestBaseline:
    @pytest.mark.parametrize("graph,size", [(complete_graph(2), 2), (complete_graph(3), 2), (cycle_graph(5), 4)])
    def test_sizes(self, graph, size):
        trace = two_approx_baseline(graph)
        assert trace.step_taken == STEP_BASELINE
        assert trace.cover_size == size


def _leaves(doc: dict, prefix: str = "") -> dict:
    out = {}
    for key, value in doc.items():
        if isinstance(value, dict):
            out.update(_leaves(value, f"{prefix}{key}."))
        else:
            out[prefix + key] = value
    return out


NON_DEFAULT_CONFIG = PipelineConfig(
    thresholds=Thresholds(below_half_fraction=0.001, above_band_fraction=0.02, epsilon=0.001),
    oracle_budget=10,
)

# Keys earlier schemas accepted: solver internals and tolerances (the whole
# `sdp` object among them), the probe's anchor edge and the tolerance of the
# retired doubled-value bracket check.
REMOVED_KEYS = {
    "tau_lp": {"tau_lp": 1e-7},
    "tau_half": {"tau_half": 1e-4},
    "sdp": {"sdp": {"max_iter": 50000}},
    "tau_ratio": {"tau_ratio": 1e-9},
    "probe_tol": {"probe_tol": 0.004},
    "anchor_edge": {"anchor_edge": [0, 1]},
    "tau_cmp": {"tau_cmp": 1e-3},
}

BAD_CONFIGS = {
    "unknown-top": ({"tau_lpp": 1e-7}, "tau_lpp"),
    "unknown-thresholds": ({"thresholds": {"epsilom": 0.1}}, "thresholds.epsilom"),
    "band_top": ({"thresholds": {"band_top": 0.5004}}, "thresholds.band_top"),
    "nan": ({"thresholds": {"epsilon": math.nan}}, "epsilon"),
    "inf": ({"thresholds": {"above_band_fraction": math.inf}}, "above_band_fraction"),
    "wrong-type": ({"oracle_budget": "100"}, "oracle_budget"),
    "bool-for-int": ({"oracle_budget": True}, "oracle_budget"),
    "oracle_budget-0": ({"oracle_budget": 0}, "oracle_budget"),
    "above_band_fraction-1": ({"thresholds": {"above_band_fraction": 1}}, "above_band_fraction"),
    "epsilon-0": ({"thresholds": {"epsilon": 0}}, "epsilon"),
    "epsilon-negative": ({"thresholds": {"epsilon": -0.3}}, "epsilon"),
    "epsilon-half": ({"thresholds": {"epsilon": 0.5}}, "epsilon"),
    "oracle_budget-list": ({"oracle_budget": [10]}, "oracle_budget"),
    "non-object": ([1, 2], "config"),
    "non-object-nested": ({"thresholds": 5}, "thresholds"),
    **{f"removed-{key}": (doc, f"unknown config key '{key}'") for key, doc in REMOVED_KEYS.items()},
}


class TestPipelineConfig:
    def test_non_default_config_sets_every_value(self):
        default = _leaves(PipelineConfig().to_dict())
        changed = _leaves(NON_DEFAULT_CONFIG.to_dict())
        assert len(default) == 4
        assert [k for k in default if default[k] == changed[k]] == []

    @pytest.mark.parametrize("cfg", [PipelineConfig(), NON_DEFAULT_CONFIG], ids=["default", "non-default"])
    def test_dict_roundtrip(self, cfg):
        assert PipelineConfig.from_dict(cfg.to_dict()) == cfg
        assert PipelineConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    def test_absent_keys_keep_defaults(self):
        cfg = PipelineConfig.from_dict({"oracle_budget": 40})
        assert cfg.oracle_budget == 40
        assert cfg.thresholds == Thresholds()

    @pytest.mark.parametrize("doc,key", list(BAD_CONFIGS.values()), ids=list(BAD_CONFIGS))
    def test_bad_config_rejected(self, doc, key, tmp_path, capsys):
        with pytest.raises(ArgumentError, match=re.escape(key)):
            PipelineConfig.from_dict(doc)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        dimacs = tmp_path / "k3.dimacs"
        dimacs.write_text(write_dimacs(complete_graph(3)))
        assert main(["solve", str(dimacs), "--no-exact", "--config", str(cfg)]) == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("key", list(REMOVED_KEYS))
    def test_removed_key_rejected_through_env_and_batch(self, key, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(REMOVED_KEYS[key]))
        dimacs = tmp_path / "k3.dimacs"
        dimacs.write_text(write_dimacs(complete_graph(3)))
        monkeypatch.setenv("VCGAP_CONFIG", str(cfg))
        assert main(["solve", str(dimacs), "--no-exact"]) == 1
        assert f"unknown config key '{key}'" in capsys.readouterr().err
        spec = tmp_path / "batch.json"
        spec.write_text(json.dumps({"corpus": [], "pipeline": REMOVED_KEYS[key]}))
        assert main(["batch", str(spec), "--out", str(tmp_path)]) == 1
        assert f"unknown config key 'pipeline.{key}'" in capsys.readouterr().err

    def test_readme_config_block_is_the_default_config(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("### Config document", 1)[1]
        block = json.loads(section.split("```json", 1)[1].split("```", 1)[0])
        assert block == PipelineConfig().to_dict()
        assert PipelineConfig.from_dict(block) == PipelineConfig()

    def test_readme_csv_columns_are_the_report_columns(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("### CSV columns", 1)[1]
        listed = section.split("`", 2)[1]
        assert tuple(column.strip() for column in listed.split(",")) == CSV_COLUMNS

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Thresholds(below_half_fraction=math.nan),
            lambda: Thresholds(above_band_fraction=0.0),
            lambda: PipelineConfig(oracle_budget=10.0),
            lambda: PipelineConfig(oracle_budget=True),
            lambda: Thresholds(epsilon=math.inf),
            lambda: PipelineConfig(oracle_budget=0),
            lambda: PipelineConfig(oracle_budget=[10]),
            lambda: PipelineConfig(thresholds={"epsilon": 0.1}),
            lambda: PipelineConfig(thresholds=None),
        ],
    )
    def test_constructors_reject_what_parsing_rejects(self, make):
        with pytest.raises(ArgumentError):
            make()
