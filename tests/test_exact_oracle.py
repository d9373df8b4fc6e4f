import numpy as np
import pytest

from helpers import complete_graph, cycle_graph, exact_vc_enumerate, petersen_graph, random_gnp
from vcgap.errors import ArgumentError
from vcgap.exact_oracle import STATUS_OPTIMAL, STATUS_UNKNOWN, exact_vc
from vcgap.graph_core import Graph, verify_cover


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

    def test_budget_exhaustion_returns_unknown(self):
        g = random_gnp(20, 0.5, seed=123)
        result = exact_vc(g, budget=2)
        assert result.status == STATUS_UNKNOWN
        assert result.size is None and result.cover is None

    def test_empty_and_edgeless(self):
        assert exact_vc(Graph.build([], [])).size == 0
        assert exact_vc(Graph.build(range(6), [])).size == 0

    def test_enumeration_rejects_large(self):
        with pytest.raises(ArgumentError):
            exact_vc_enumerate(random_gnp(40, 0.1, seed=1))
