import numpy as np
import pytest

from helpers import (
    brute_force_max_matching,
    brute_force_min_cover,
    complete_graph,
    cycle_graph,
    path_graph,
    random_gnp,
)
from vcgap.bipartite_vc import Matching, konig_cover, max_matching, maximal_matching_cover
from vcgap.errors import ArgumentError
from vcgap.graph_core import Bipartition, Graph, find_odd_cycle, verify_cover
from vcgap.harness_cli import generate_graph


def bipartite_k(a: int, b: int) -> Graph:
    return Graph.build(range(a + b), [(i, a + j) for i in range(a) for j in range(b)])


def recursive_max_matching(g: Graph, parts: Bipartition) -> Matching:
    """The augmenting-path search written recursively, one call per path step:
    the reference the explicit-stack search in max_matching must reproduce."""
    mate: dict[int, int] = {}

    def try_augment(u: int, visited: set[int]) -> bool:
        for w in g.adjacency[u]:
            if w in visited:
                continue
            visited.add(w)
            if w not in mate or try_augment(mate[w], visited):
                mate[w] = u
                return True
        return False

    for u in sorted(parts.left):
        try_augment(u, set())
    return Matching(frozenset((min(u, w), max(u, w)) for w, u in mate.items()))


class TestMaxMatching:
    def test_path_three(self):
        g = path_graph(3)
        m = max_matching(g, find_odd_cycle(g))
        assert m.size == 1

    def test_c6(self):
        g = cycle_graph(6)
        assert brute_force_max_matching(g) == 3
        m = max_matching(g, find_odd_cycle(g))
        assert m.size == 3

    def test_k33(self):
        g = bipartite_k(3, 3)
        assert brute_force_max_matching(g) == 3
        assert max_matching(g, find_odd_cycle(g)).size == 3

    def test_matching_edges_are_disjoint_graph_edges(self):
        g = generate_graph("bipartite_gnp", 14, 0.4, seed=2)
        m = max_matching(g, find_odd_cycle(g))
        used = [v for e in m.edges for v in e]
        assert len(used) == len(set(used))
        assert all(e in g.edges for e in m.edges)

    def test_long_augmenting_paths(self):
        # each left vertex's search walks back along the whole path matched so
        # far, so the recursive search needs ~1,500 frames and overflows
        g = path_graph(3000, start=0)
        parts = find_odd_cycle(g)
        with pytest.raises(RecursionError):
            recursive_max_matching(g, parts)
        m = max_matching(g, parts)
        assert m.size == 1500
        assert len(konig_cover(g, parts, m)) == 1500

    def test_equals_recursive_search(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n = int(rng.integers(2, 40))
            g = generate_graph("bipartite_gnp", n, float(rng.random()), seed=int(rng.integers(1 << 30)))
            # relabeled to ids that are not positions
            ids = [int(v) for v in rng.permutation(1000)[:n]]
            g = Graph.build(ids, [(ids[u], ids[v]) for u, v in g.edges])
            parts = find_odd_cycle(g)
            for sides in (parts, Bipartition(parts.right, parts.left)):
                assert max_matching(g, sides) == recursive_max_matching(g, sides)

    def test_invalid_parts_rejected(self):
        g = path_graph(3)
        with pytest.raises(ArgumentError):
            max_matching(g, Bipartition(frozenset({1, 2}), frozenset({3})))
        with pytest.raises(ArgumentError):
            max_matching(g, Bipartition(frozenset({1}), frozenset({3})))


class TestKonigCover:
    def test_path_three_center(self):
        g = path_graph(3)
        parts = find_odd_cycle(g)
        cover = konig_cover(g, parts, max_matching(g, parts))
        assert cover == {2}

    def test_c6_size_three(self):
        g = cycle_graph(6)
        parts = find_odd_cycle(g)
        cover = konig_cover(g, parts, max_matching(g, parts))
        assert len(cover) == 3 == brute_force_min_cover(g)

    def test_single_edge(self):
        g = complete_graph(2)
        parts = find_odd_cycle(g)
        cover = konig_cover(g, parts, max_matching(g, parts))
        assert len(cover) == 1

    def test_equality_on_random_bipartite(self):
        rng = np.random.default_rng(83)
        for _ in range(50):
            n = int(rng.integers(2, 13))
            g = generate_graph("bipartite_gnp", n, float(rng.random()), seed=int(rng.integers(1 << 30)))
            parts = find_odd_cycle(g)
            assert isinstance(parts, Bipartition)
            m = max_matching(g, parts)
            cover = konig_cover(g, parts, m)
            assert len(cover) == m.size == brute_force_min_cover(g)
            assert verify_cover(g, cover) == []


class TestMaximalMatchingCover:
    def test_k2_takes_both(self):
        cover = maximal_matching_cover(complete_graph(2))
        assert cover == {1, 2}

    def test_k3_size_two(self):
        assert len(maximal_matching_cover(complete_graph(3))) == 2

    def test_edgeless_empty(self):
        assert maximal_matching_cover(Graph.build(range(4), [])) == frozenset()

    def test_c5_two_matched_edges(self):
        assert len(maximal_matching_cover(cycle_graph(5))) == 4

    def test_within_factor_two_of_optimum(self):
        rng = np.random.default_rng(89)
        for _ in range(30):
            n = int(rng.integers(1, 13))
            g = random_gnp(n, float(rng.random()), seed=int(rng.integers(1 << 30)))
            cover = maximal_matching_cover(g)
            assert verify_cover(g, cover) == []
            assert len(cover) <= 2 * brute_force_min_cover(g)
