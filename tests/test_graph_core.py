import json

import numpy as np
import pytest

from helpers import brute_force_is_bipartite, complete_graph, cycle_graph, random_gnp
from vcgap.errors import ArgumentError, ContractViolation, ParseError
from vcgap.graph_core import (
    Bipartition,
    CoverPartition,
    Graph,
    OddCycle,
    _check_odd_cycle,
    duplicate_join,
    find_odd_cycle,
    graph_from_json,
    induced_subgraph,
    parse_dimacs,
    verify_cover,
    write_dimacs,
)


class TestParseDimacs:
    def test_triangle(self):
        g = parse_dimacs("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
        assert g.n == 3 and g.m == 3
        assert g.vertices == (1, 2, 3)

    def test_isolated_vertices(self):
        g = parse_dimacs("p edge 2 0\n")
        assert g.n == 2 and g.m == 0

    def test_self_loop_names_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_dimacs("p edge 2 1\ne 1 1\n")

    def test_comments_and_duplicates(self):
        g = parse_dimacs("c header comment\np edge 3 4\ne 1 2\nc mid comment\ne 2 1\ne 2 3\n")
        assert g.m == 2

    def test_out_of_range_vertex(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_dimacs("p edge 2 1\nc x\ne 1 5\n")

    def test_malformed_header(self):
        with pytest.raises(ParseError):
            parse_dimacs("p graph 3 3\n")

    def test_edge_before_header(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_dimacs("e 1 2\np edge 2 1\n")

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_dimacs("c nothing here\n")

    def test_roundtrip_with_writer(self):
        g = random_gnp(9, 0.5, seed=13)
        g2 = parse_dimacs(write_dimacs(g))
        assert g2.n == g.n and g2.m == g.m

    def test_bytes_input(self):
        g = parse_dimacs(b"p edge 2 1\ne 1 2\n")
        assert g.m == 1


class TestGraphBuild:
    def test_rejects_self_loop(self):
        with pytest.raises(ArgumentError):
            Graph.build([1, 2], [(1, 1)])

    def test_rejects_unknown_endpoint(self):
        with pytest.raises(ArgumentError):
            Graph.build([1, 2], [(1, 3)])

    def test_adjacency_symmetric(self):
        g = random_gnp(10, 0.4, seed=3)
        for u in g.vertices:
            for v in g.adjacency[u]:
                assert u in g.adjacency[v]

    def test_json_roundtrip(self):
        g = random_gnp(8, 0.5, seed=5)
        g2 = graph_from_json(g.to_json())
        assert g2.n == g.n and g2.m == g.m
        assert json.loads(g.to_json()) == json.loads(g2.to_json())


class TestInducedSubgraph:
    def test_triangle_pair(self):
        g = induced_subgraph(complete_graph(3), {1, 2})
        assert g.vertices == (1, 2) and g.edges == ((1, 2),)

    def test_identity(self):
        g = random_gnp(8, 0.4, seed=1)
        h = induced_subgraph(g, g.vertices)
        assert h.edges == g.edges

    def test_c5_path(self):
        h = induced_subgraph(cycle_graph(5), {1, 2, 3})
        assert h.edges == ((1, 2), (2, 3))

    def test_unknown_vertex(self):
        with pytest.raises(ArgumentError):
            induced_subgraph(complete_graph(3), {1, 9})

    def test_nested_equals_intersection(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            g = random_gnp(10, float(rng.random()), seed=int(rng.integers(1 << 30)))
            a = {int(v) for v in rng.choice(10, size=7, replace=False)}
            b = {int(v) for v in rng.choice(10, size=6, replace=False)}
            lhs = induced_subgraph(induced_subgraph(g, a), a & b)
            rhs = induced_subgraph(g, a & b)
            assert lhs.vertices == rhs.vertices and lhs.edges == rhs.edges


class TestDuplicateJoin:
    def test_single_vertex_gives_one_cross_edge(self):
        dg = duplicate_join(Graph.build([7], []))
        assert dg.combined.n == 2 and dg.combined.m == 1

    def test_k2_gives_k4(self):
        dg = duplicate_join(complete_graph(2))
        assert dg.combined.n == 4 and dg.combined.m == 6

    def test_k3_gives_k6(self):
        dg = duplicate_join(complete_graph(3))
        assert dg.combined.n == 6 and dg.combined.m == 15
        assert dg.combined.m == len(complete_graph(6, start=0).edges)

    def test_edge_count_formula_random(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(1, 12))
            g = random_gnp(n, float(rng.random()), seed=int(rng.integers(1 << 30)))
            dg = duplicate_join(g)
            assert dg.combined.m == 2 * g.m + n * n

    def test_copy_ids_and_order(self):
        g = Graph.build([5, 9], [(5, 9)])
        dg = duplicate_join(g)
        assert tuple(dg.copy_ids(0)) == (0, 1)
        assert tuple(dg.copy_ids(1)) == (2, 3)
        assert [dg.base_id(c) for c in range(4)] == [5, 9, 5, 9]
        # within-copy edges mirror the base, every cross pair present
        assert (0, 1) in dg.combined.edges and (2, 3) in dg.combined.edges
        for i in (0, 1):
            for j in (2, 3):
                assert (i, j) in dg.combined.edges


class TestFindOddCycle:
    def test_c4_bipartition(self):
        result = find_odd_cycle(cycle_graph(4))
        assert isinstance(result, Bipartition)
        assert {frozenset(result.left), frozenset(result.right)} == {
            frozenset({1, 3}),
            frozenset({2, 4}),
        }

    def test_c5_odd_cycle(self):
        result = find_odd_cycle(cycle_graph(5))
        assert isinstance(result, OddCycle)
        assert len(result) == 5

    def test_empty_graph(self):
        result = find_odd_cycle(Graph.build([], []))
        assert isinstance(result, Bipartition)
        assert result.left == result.right == frozenset()

    def test_matches_brute_force(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            n = int(rng.integers(1, 12))
            g = random_gnp(n, float(rng.random() * 0.6), seed=int(rng.integers(1 << 30)))
            got_bipartite = isinstance(find_odd_cycle(g), Bipartition)
            assert got_bipartite == brute_force_is_bipartite(g)

    def test_returned_cycle_is_valid(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            g = random_gnp(9, 0.5, seed=int(rng.integers(1 << 30)))
            result = find_odd_cycle(g)
            if isinstance(result, OddCycle):
                t = len(result.vertices)
                assert t % 2 == 1 and t >= 3
                for i in range(t):
                    u, v = result.vertices[i], result.vertices[(i + 1) % t]
                    assert (min(u, v), max(u, v)) in g.edges

    def test_cycle_check_raises_contract_violation(self):
        # Raised, not asserted, so the check also runs under python -O.
        g = cycle_graph(5)
        with pytest.raises(ContractViolation):
            _check_odd_cycle(g, [1, 2, 3, 4])
        with pytest.raises(ContractViolation):
            _check_odd_cycle(g, [1, 2, 4])
        _check_odd_cycle(g, [1, 2, 3, 4, 5])


class TestVerifyCover:
    def test_k3_two_vertices(self):
        ok, uncovered = verify_cover(complete_graph(3), CoverPartition.from_cover(complete_graph(3), {1, 2}))
        assert ok and uncovered == []

    def test_k3_one_vertex(self):
        ok, uncovered = verify_cover(complete_graph(3), CoverPartition.from_cover(complete_graph(3), {1}))
        assert not ok and uncovered == [(2, 3)]

    def test_c5_alternating(self):
        g = cycle_graph(5)
        ok, _ = verify_cover(g, CoverPartition.from_cover(g, {1, 3, 5}))
        assert ok

    def test_rejects_overlapping_partition(self):
        g = complete_graph(3)
        with pytest.raises(ArgumentError):
            verify_cover(g, CoverPartition(frozenset({1, 2}), frozenset({2, 3})))

    def test_rejects_incomplete_partition(self):
        g = complete_graph(3)
        with pytest.raises(ArgumentError):
            verify_cover(g, CoverPartition(frozenset({1}), frozenset({2})))

    def test_agrees_with_direct_enumeration(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            n = int(rng.integers(1, 12))
            g = random_gnp(n, float(rng.random()), seed=int(rng.integers(1 << 30)))
            cover = {int(v) for v in rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)}
            ok, uncovered = verify_cover(g, CoverPartition.from_cover(g, cover))
            direct = [(u, v) for u, v in g.edges if u not in cover and v not in cover]
            assert uncovered == direct and ok == (not direct)
