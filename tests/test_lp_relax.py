import itertools
import logging

import numpy as np
import pytest

from helpers import (
    brute_force_min_cover,
    complete_graph,
    cycle_graph,
    half_integral_grid_optimum,
    highs_lp_value,
    petersen_graph,
    random_gnp,
    relabeled,
    sequential_lp_refine,
    star_graph,
)
from vcgap import generate_graph, lp_relax
from vcgap.bipartite_vc import maximal_matching_cover
from vcgap.errors import ArgumentError, ContractViolation
from vcgap.exact_oracle import exact_vc
from vcgap.graph_core import Graph
from vcgap.lp_relax import (
    HalfIntegralityViolation,
    LpProblem,
    LpSolution,
    build_vc_lp,
    classify_half_integral,
    cover_relaxation,
    extreme_point_refine,
    nt_decompose,
    recombine,
    simplex_solve,
)


class TestBuildVcLp:
    def test_k2(self):
        p = build_vc_lp(complete_graph(2))
        assert p.n_vars == 2 and len(p.rows) == 1
        coeffs, rel, rhs = p.rows[0]
        assert list(coeffs) == [1.0, 1.0] and rel == ">=" and rhs == 1.0

    def test_k3(self):
        p = build_vc_lp(complete_graph(3))
        assert p.n_vars == 3 and len(p.rows) == 3
        assert all(c == 1.0 for c in p.objective)

    def test_edgeless(self):
        g = Graph.build(range(4), [])
        p = build_vc_lp(g)
        assert p.n_vars == 4 and p.rows == []
        assert simplex_solve(p).objective_value == 0.0


class TestSimplexSolve:
    # Expected optima derived by enumerating the half-integral grid, the
    # candidate set containing every basic solution of these polytopes.
    @pytest.mark.parametrize(
        "graph,expected", [(complete_graph(2), 1.0), (complete_graph(3), 1.5), (cycle_graph(5), 2.5)]
    )
    def test_small_optima(self, graph, expected):
        assert half_integral_grid_optimum(graph) == expected
        sol = simplex_solve(build_vc_lp(graph))
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(expected, abs=1e-9)

    def test_infeasible(self):
        p = LpProblem(np.ones(2), [(np.ones(2), ">=", 3.0)], [(0.0, 1.0)] * 2)
        assert simplex_solve(p).status == "infeasible"

    def test_unbounded(self):
        p = LpProblem(np.array([-1.0]), [], [(0.0, float("inf"))])
        assert simplex_solve(p).status == "unbounded"

    def test_equality_rows(self):
        p = LpProblem(
            np.array([1.0, 2.0]),
            [(np.array([1.0, 1.0]), "=", 1.0)],
            [(0.0, 1.0)] * 2,
        )
        sol = simplex_solve(p)
        assert sol.objective_value == pytest.approx(1.0)
        assert sol.values[0] == pytest.approx(1.0)

    def test_fixed_variables_substituted(self):
        p = LpProblem(
            np.array([1.0, 1.0]),
            [(np.array([1.0, 1.0]), ">=", 1.0)],
            [(0.5, 0.5), (0.0, 1.0)],
        )
        sol = simplex_solve(p)
        assert sol.values[0] == 0.5
        assert sol.objective_value == pytest.approx(1.0)

    def test_cycling_guard_beale(self):
        # Classic example that cycles under the most-negative rule alone.
        p = LpProblem(
            np.array([-0.75, 150.0, -0.02, 6.0]),
            [
                (np.array([0.25, -60.0, -0.04, 9.0]), "<=", 0.0),
                (np.array([0.5, -90.0, -0.02, 3.0]), "<=", 0.0),
                (np.array([0.0, 0.0, 1.0, 0.0]), "<=", 1.0),
            ],
            [(0.0, float("inf"))] * 4,
        )
        sol = simplex_solve(p)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(-0.05, abs=1e-9)

    def test_matches_scipy_on_random_vc_lps(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            n = int(rng.integers(2, 14))
            g = random_gnp(n, float(rng.random() * 0.8 + 0.1), seed=int(rng.integers(1 << 30)))
            sol = simplex_solve(build_vc_lp(g))
            if g.m == 0:
                assert sol.objective_value == 0.0
                continue
            assert sol.objective_value == pytest.approx(highs_lp_value(g), abs=1e-7)


def relaxation(g: Graph) -> LpSolution:
    return simplex_solve(build_vc_lp(g))


# The two optima a refinement can start from; its result must not depend on which.
WITNESSES = pytest.mark.parametrize("witness", [relaxation, cover_relaxation], ids=["simplex", "matching"])


def disjoint_k3_and_star() -> Graph:
    # K3 on 1..3 plus a 4-leaf star on 4..7
    return Graph.build(range(1, 8), [(1, 2), (2, 3), (1, 3), (4, 5), (4, 6), (4, 7)])


class TestCoverRelaxation:
    @pytest.mark.parametrize(
        "g,expected",
        [
            (Graph.build([], []), []),
            (Graph.build(range(4), []), [0.0] * 4),
            (complete_graph(2), None),
            (complete_graph(3), [0.5] * 3),
            (star_graph(2), [1.0, 0.0, 0.0]),
            (star_graph(5), [1.0] + [0.0] * 5),
            (petersen_graph(), [0.5] * 10),
            (disjoint_k3_and_star(), [0.5] * 3 + [1.0, 0.0, 0.0, 0.0]),
        ],
        ids=["empty", "edgeless", "k2", "k3", "star2", "star5", "petersen", "k3+star"],
    )
    def test_small_graphs(self, g, expected):
        # expected is the relaxation's unique optimum where it has one
        sol = cover_relaxation(g)
        assert sol.status == "optimal" and sol.iterations == 0 and sol.labels == g.vertices
        assert sol.objective_value == half_integral_grid_optimum(g) == sum(sol.values)
        if expected is not None:
            assert list(sol.values) == expected

    def test_feasible_on_the_half_integral_grid(self):
        rng = np.random.default_rng(67)
        for _ in range(40):
            g = random_gnp(int(rng.integers(1, 40)), float(rng.choice([0.05, 0.1, 0.3, 0.6])), seed=int(rng.integers(1 << 30)))
            sol = cover_relaxation(g)
            pos = {v: i for i, v in enumerate(g.vertices)}
            assert set(sol.values) <= {0.0, 0.5, 1.0}
            assert all(sol.values[pos[u]] + sol.values[pos[v]] >= 1.0 for u, v in g.edges)
            assert sol.objective_value == float(sol.values.sum())

    def test_equals_highs_value(self):
        rng = np.random.default_rng(71)
        for _ in range(40):
            g = random_gnp(int(rng.integers(1, 61)), float(rng.choice([0.02, 0.05, 0.15, 0.4])), seed=int(rng.integers(1 << 30)))
            assert cover_relaxation(g).objective_value == pytest.approx(highs_lp_value(g), abs=1e-7), g

    def test_equals_grid_optimum(self):
        rng = np.random.default_rng(73)
        for _ in range(40):
            g = random_gnp(int(rng.integers(1, 9)), float(rng.choice([0.2, 0.4, 0.6, 0.8])), seed=int(rng.integers(1 << 30)))
            assert cover_relaxation(g).objective_value == half_integral_grid_optimum(g), g


class TestExtremePointRefine:
    def test_k2_id_order(self):
        g = complete_graph(2)
        assert list(extreme_point_refine(g, relaxation(g)).values) == [0.0, 1.0]

    def test_k2_reversed_order(self):
        g = complete_graph(2)
        assert list(extreme_point_refine(g, relaxation(g), order=(2, 1)).values) == [1.0, 0.0]

    def test_star_center_forced(self):
        g = star_graph(3)
        assert list(extreme_point_refine(g, relaxation(g)).values) == [1.0, 0.0, 0.0, 0.0]

    def test_k3_all_halves(self):
        g = complete_graph(3)
        assert list(extreme_point_refine(g, relaxation(g)).values) == [0.5, 0.5, 0.5]

    def test_inconsistent_optimum(self):
        # no witness value is near 0, so the first step LP meets sum = 0.3
        lp = LpSolution(np.full(3, 0.1), 0.3, "optimal", 0, labels=(1, 2, 3))
        with pytest.raises(ContractViolation):
            extreme_point_refine(complete_graph(3), lp)

    @pytest.mark.parametrize(
        "lp",
        [LpSolution(None, None, "infeasible", 0), LpSolution(np.full(2, 0.5), 1.0, "optimal", 0)],
        ids=["nonoptimal", "wrong-length"],
    )
    def test_rejects_what_is_not_an_optimum_of_the_graph(self, lp):
        with pytest.raises(ArgumentError):
            extreme_point_refine(complete_graph(3), lp)

    def test_bad_order_rejected(self):
        g = complete_graph(3)
        with pytest.raises(ArgumentError):
            extreme_point_refine(g, relaxation(g), order=(1, 2))

    def test_half_integrality_sweep(self):
        rng = np.random.default_rng(19)
        for _ in range(60):
            n = int(rng.integers(1, 15))
            g = random_gnp(n, float(rng.choice([0.15, 0.35, 0.55, 0.75])), seed=int(rng.integers(1 << 30)))
            lp = relaxation(g)
            sol = extreme_point_refine(g, lp)
            assert all(v in (0.0, 0.5, 1.0) for v in sol.values)
            assert sol.objective_value == pytest.approx(lp.objective_value, abs=1e-7)

    @WITNESSES
    def test_order_gives_lexicographic_minimum_of_the_optimal_grid(self, witness):
        # Sequential minimization in `order` must land on the lexicographically
        # smallest (in that order) optimal {0, 1/2, 1} assignment.
        rng = np.random.default_rng(29)
        graphs = [star_graph(3), cycle_graph(5), complete_graph(4), Graph.build([2, 9], [])]
        for _ in range(30):
            g = random_gnp(int(rng.integers(2, 9)), float(rng.choice([0.2, 0.4, 0.6])), seed=int(rng.integers(1 << 30)))
            graphs.append(Graph.build([3 * v + 1 for v in g.vertices], [(3 * u + 1, 3 * v + 1) for u, v in g.edges]))
        checked = 0
        for g in graphs:
            lp = witness(g)
            shuffled = tuple(int(v) for v in rng.permutation(g.vertices))
            orders = [g.vertices, tuple(reversed(g.vertices)), shuffled]
            for order in orders:
                sol = extreme_point_refine(g, lp, order=order)
                assert list(sol.values) == lex_min_optimal_grid_point(g, order), (g, order)
                checked += 1
        assert checked == 3 * len(graphs)

    @WITNESSES
    @pytest.mark.parametrize("variant", [0, 1, 2])
    def test_equals_sequential_lp_reference_on_sparse_graphs(self, variant, witness):
        # the sparse_kernel pool's shapes: gnp n=48 p=0.02 and star unions n=48-60
        specs = [("gnp", 48, 0.02, 50_000 + k) for k in range(3)]
        specs += [("star_union", 48 + 6 * k, 3 + k, 51_000 + k) for k in range(3)]
        for k, spec in enumerate(specs):
            g = generate_graph(*spec)
            if variant:
                g = relabeled(g, (variant, k))
            lp = witness(g)
            assert np.array_equal(extreme_point_refine(g, lp).values, sequential_lp_refine(g, lp.objective_value)), spec

    @WITNESSES
    def test_equals_sequential_lp_reference_in_three_orders(self, witness):
        rng = np.random.default_rng(61)
        for _ in range(40):
            g = random_gnp(int(rng.integers(1, 15)), float(rng.choice([0.1, 0.2, 0.35, 0.55])), seed=int(rng.integers(1 << 30)))
            lp = witness(g)
            shuffled = tuple(int(v) for v in rng.permutation(g.vertices))
            for order in (g.vertices, tuple(reversed(g.vertices)), shuffled):
                refined = extreme_point_refine(g, lp, order=order).values
                assert np.array_equal(refined, sequential_lp_refine(g, lp.objective_value, order=order)), (g, order)

    def test_star_union_solves_one_step_lp_per_star_or_one_in_all(self, monkeypatch):
        # 12 four-vertex stars, each center numbered before its leaves
        g = generate_graph("star_union", 48, 4, seed=1)
        lp = relaxation(g)
        # the relaxation's unique optimum: every center at 1, every leaf at 0
        assert list(lp.values) == [1.0, 0.0, 0.0, 0.0] * 12
        calls = []
        monkeypatch.setattr(lp_relax, "simplex_solve", lambda *a: calls.append(a) or simplex_solve(*a))
        # id order: no center is at 0 in the witness and no leaf is fixed
        # before it, so each center needs its LP; the witness zeros its leaves
        extreme_point_refine(g, lp)
        assert len(calls) == 12
        # reversed: the optimum given zeros every leaf, and the zeros force the centers
        calls.clear()
        extreme_point_refine(g, lp, order=tuple(reversed(g.vertices)))
        assert len(calls) == 0

    def test_logs_step_lps_witness_zeros_and_forced_ones(self, caplog):
        caplog.set_level(logging.DEBUG, logger="vcgap.lp_relax")
        g = generate_graph("star_union", 48, 4, seed=1)
        extreme_point_refine(g, relaxation(g), order=tuple(reversed(g.vertices)))
        assert caplog.messages == ["refined n=48: 0 step LPs, 36 witness zeros, 12 forced ones"]


def lex_min_optimal_grid_point(g: Graph, order) -> list[float]:
    """By enumeration: among the feasible {0, 1/2, 1} assignments whose sum is
    the relaxation optimum, the smallest when read in `order`; returned in
    vertex id order."""
    z = half_integral_grid_optimum(g)
    pos = {v: i for i, v in enumerate(g.vertices)}
    best = None
    for x in itertools.product((0.0, 0.5, 1.0), repeat=g.n):
        if sum(x) == z and all(x[pos[u]] + x[pos[v]] >= 1.0 for u, v in g.edges):
            key = [x[pos[v]] for v in order]
            if best is None or key < best[0]:
                best = (key, list(x))
    return best[1]


class TestClassifyHalfIntegral:
    def test_zero_one(self):
        sol = LpSolution(np.array([0.0, 1.0]), 1.0, "optimal", 0, labels=(1, 2))
        d = classify_half_integral(sol)
        assert d.v_zero == {1} and d.v_one == {2} and d.v_half == frozenset()
        assert d.lp_value == 1.0

    def test_all_halves(self):
        sol = LpSolution(np.array([0.5, 0.5, 0.5]), 1.5, "optimal", 0, labels=(1, 2, 3))
        d = classify_half_integral(sol)
        assert d.v_half == {1, 2, 3} and d.lp_value == 1.5

    def test_violation_carries_coordinates(self):
        sol = LpSolution(np.array([0.31, 0.5]), 0.81, "optimal", 0, labels=(1, 2))
        with pytest.raises(HalfIntegralityViolation) as exc:
            classify_half_integral(sol)
        assert exc.value.violations == [(1, 0.31)]

    def test_rejects_nonoptimal(self):
        with pytest.raises(ArgumentError):
            classify_half_integral(LpSolution(None, None, "infeasible", 0))


class TestNtDecompose:
    def test_star(self):
        d, residual = nt_decompose(star_graph(3))
        assert d.v_one == {1} and d.v_zero == {2, 3, 4}
        assert residual.n == 0

    def test_k3(self):
        d, residual = nt_decompose(complete_graph(3))
        assert d.v_half == {1, 2, 3}
        assert residual.m == 3

    def test_edgeless(self):
        d, residual = nt_decompose(Graph.build(range(5), []))
        assert d.v_zero == frozenset(range(5)) and residual.n == 0

    def test_optimality_preservation(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            n = int(rng.integers(1, 14))
            g = random_gnp(n, float(rng.random() * 0.8 + 0.1), seed=int(rng.integers(1 << 30)))
            d, residual = nt_decompose(g)
            assert exact_vc(g).size == len(d.v_one) + exact_vc(residual).size

    @WITNESSES
    def test_given_relaxation_value_gives_same_kernel(self, witness):
        rng = np.random.default_rng(59)
        for _ in range(10):
            g = random_gnp(int(rng.integers(2, 14)), 0.3, seed=int(rng.integers(1 << 30)))
            d, residual = nt_decompose(g)
            d_given, residual_given = nt_decompose(g, witness(g))
            assert d_given == d
            assert (residual_given.vertices, residual_given.edges) == (residual.vertices, residual.edges)

    def test_residual_lp_value_is_half_n(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            g = random_gnp(int(rng.integers(2, 14)), 0.3, seed=int(rng.integers(1 << 30)))
            _, residual = nt_decompose(g)
            z = simplex_solve(build_vc_lp(residual)).objective_value
            assert z == pytest.approx(residual.n / 2.0, abs=1e-7)

    def test_lp_lower_bounds_oracle(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            g = random_gnp(int(rng.integers(1, 13)), float(rng.random()), seed=int(rng.integers(1 << 30)))
            z = simplex_solve(build_vc_lp(g)).objective_value
            assert z <= brute_force_min_cover(g) + 1e-7


class TestRecombine:
    def test_star_with_empty_residual_cover(self):
        g = star_graph(3)
        d, residual = nt_decompose(g)
        assert recombine(d, frozenset(), g) == {1}
        assert exact_vc(g).size == 1

    def test_k3_passthrough(self):
        g = complete_graph(3)
        d, residual = nt_decompose(g)
        assert recombine(d, frozenset({1, 2}), g) == {1, 2}

    def test_disjoint_union_k3_star(self):
        # oracle optimum is 3
        g = disjoint_k3_and_star()
        d, residual = nt_decompose(g)
        assert d.v_one == {4} and set(residual.vertices) == {1, 2, 3}
        res_cover = exact_vc(residual).cover
        combined = recombine(d, res_cover, g)
        assert len(combined) == 3 == exact_vc(g).size

    def test_infeasible_residual_cover_rejected(self):
        g = complete_graph(3)
        d, _ = nt_decompose(g)
        with pytest.raises(ContractViolation):
            recombine(d, frozenset({1}), g)

    def test_ratio_transfer(self):
        # A residual cover at ratio rho recombines to a cover at ratio <= rho.
        rng = np.random.default_rng(53)
        for _ in range(20):
            g = random_gnp(int(rng.integers(2, 14)), 0.25, seed=int(rng.integers(1 << 30)))
            d, residual = nt_decompose(g)
            res_cover = maximal_matching_cover(residual)
            combined = recombine(d, res_cover, g)
            opt_g = exact_vc(g).size
            opt_res = exact_vc(residual).size
            if opt_g == 0:
                assert len(combined) == 0
                continue
            rho_res = len(res_cover) / opt_res if opt_res else 1.0
            assert len(combined) / opt_g <= rho_res + 1e-9
