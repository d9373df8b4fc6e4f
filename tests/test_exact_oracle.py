import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import complete_graph, cycle_graph, exact_vc_enumerate, kneser_graph, petersen_graph, random_gnp
from vcgap.errors import ArgumentError
from vcgap.exact_oracle import STATUS_OPTIMAL, STATUS_UNKNOWN, exact_vc
from vcgap.graph_core import Graph, verify_cover
from vcgap.harness_cli import generate_graph


class TestExactVc:
    def test_k3(self):
        result = exact_vc(complete_graph(3))
        assert result.status == STATUS_OPTIMAL and result.size == 2

    def test_c5_matches_enumeration(self):
        assert exact_vc(cycle_graph(5)).size == 3 == exact_vc_enumerate(cycle_graph(5)).size

    def test_petersen(self):
        assert exact_vc(petersen_graph()).size == 6

    def test_cover_always_feasible(self):
        rng = np.random.default_rng(97)
        for _ in range(20):
            g = random_gnp(int(rng.integers(1, 15)), float(rng.random()), seed=int(rng.integers(1 << 30)))
            result = exact_vc(g)
            assert verify_cover(g, result.cover) == []
            assert len(result.cover) == result.size

    def test_branch_and_bound_equals_enumeration(self):
        rng = np.random.default_rng(101)
        for _ in range(15):
            n = int(rng.integers(2, 19))
            g = random_gnp(n, float(rng.random() * 0.7 + 0.1), seed=int(rng.integers(1 << 30)))
            assert exact_vc(g).size == exact_vc_enumerate(g).size
        # every labeled graph on at most 5 vertices, 1,100 in all: each
        # reduction and branching case at tiny n
        checked = 0
        for n in range(6):
            pairs = list(itertools.combinations(range(n), 2))
            for subset in range(1 << len(pairs)):
                g = Graph.build(range(n), [e for i, e in enumerate(pairs) if subset >> i & 1])
                result = exact_vc(g)
                assert result.size == exact_vc_enumerate(g).size == len(result.cover)
                assert verify_cover(g, result.cover) == []
                checked += 1
        assert checked == 1100

    @pytest.mark.parametrize(
        "g, nodes",
        [
            pytest.param(petersen_graph(), 7, id="petersen"),
            pytest.param(kneser_graph(6, 2), 19, id="k62"),
            pytest.param(generate_graph("gnp", 30, 0.3, 777), 39, id="acceptance9"),
        ],
    )
    def test_search_visits_a_fixed_number_of_nodes(self, g, nodes):
        # pins the search itself (reductions, bound, branching order), not
        # just the optimum it proves
        assert exact_vc(g).nodes_explored == nodes

    def test_budget_exhaustion_returns_unknown(self):
        g = random_gnp(20, 0.5, seed=123)
        result = exact_vc(g, budget=2)
        assert result.status == STATUS_UNKNOWN
        assert result.size is None and result.cover is None

    def test_empty_and_edgeless(self):
        assert exact_vc(Graph.build([], [])).size == 0
        assert exact_vc(Graph.build(range(6), [])).size == 0

    def test_deep_search_needs_no_recursion(self):
        # under a recursion limit of 120 a recursive search of this graph
        # raises RecursionError within its first 500 nodes
        code = (
            "import json, sys\n"
            "from vcgap.exact_oracle import exact_vc\n"
            "from vcgap.harness_cli import generate_graph\n"
            "g = generate_graph('gnp', 300, 20 / 300, 1)\n"
            "sys.setrecursionlimit(120)\n"
            "r = exact_vc(g, 500)\n"
            "print(json.dumps([r.status, r.nodes_explored]))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        status, nodes = json.loads(out.stdout)
        assert status == STATUS_UNKNOWN and nodes == 501

    def test_enumeration_rejects_large(self):
        with pytest.raises(ArgumentError):
            exact_vc_enumerate(random_gnp(40, 0.1, seed=1))
