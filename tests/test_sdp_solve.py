import json
import logging
import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from helpers import brute_force_min_cover, complete_graph, cycle_graph, kneser_graph, lift_kg, petersen_graph, random_gnp
from vcgap.errors import ArgumentError
from vcgap import sdp_solve
from vcgap.exact_oracle import exact_vc
from vcgap.graph_core import Graph, duplicate_join
from vcgap.harness_cli import generate_graph
from vcgap.sdp_solve import (
    TAU_GAP,
    ExtractionError,
    GramSolution,
    admm_solve,
    build_sdp_doubled,
    build_sdp_single,
    extract_vectors,
    gram_from_json,
    ipm_solve,
    psd_project,
)

ADMM_TOL = 1e-3  # how far ADMM's value may lie from the optimum under the default stopping rule


class TestBuildSingle:
    def test_k2(self):
        p = build_sdp_single(complete_graph(2))
        assert p.dim == 3 and p.n_constraints == 1
        assert p.lo[0, 0] == 1.0 and p.lo[0, 1] == 0.0
        # every upper box is 1, so the problem carries none
        assert [f.name for f in fields(p)] == ["dim", "con_i", "con_j", "lo"]

    def test_k3(self):
        p = build_sdp_single(complete_graph(3))
        assert p.dim == 4 and p.n_constraints == 3

    def test_edgeless_solves_to_zero(self):
        g = Graph.build(range(2), [])
        p = build_sdp_single(g)
        assert p.dim == 3 and p.n_constraints == 0
        gs = admm_solve(p)
        assert gs.converged and gs.objective_value == pytest.approx(0.0, abs=1e-4)


def reference_build_sdp_doubled(h):
    """The doubled relaxation by its definition, in its own encoding: the
    single relaxation of the doubled graph duplicate_join(h), every entry
    boxed to [0, 1] and the diagonal to 1, with the cross block (one index in
    each copy) widened to [-1, 1]."""
    comb = duplicate_join(h)
    pos = {v: i + 1 for i, v in enumerate(comb.vertices)}
    con_i = np.array([pos[u] for u, v in comb.edges], dtype=int)
    con_j = np.array([pos[v] for u, v in comb.edges], dtype=int)
    d = comb.n + 1
    lo = np.zeros((d, d))
    n = h.n
    prime = np.array([pos[c] for c in comb.vertices if c < n], dtype=int)
    dprime = np.array([pos[c] for c in comb.vertices if c >= n], dtype=int)
    lo[np.ix_(prime, dprime)] = -1.0
    lo[np.ix_(dprime, prime)] = -1.0
    np.fill_diagonal(lo, 1.0)
    return d, con_i, con_j, lo


def spread_ids(g: Graph) -> Graph:
    """g with vertex v renamed 3v + 5: ids that are not positions."""
    return Graph.build([3 * v + 5 for v in g.vertices], [(3 * u + 5, 3 * v + 5) for u, v in g.edges])


DOUBLED_BASES = {
    "n0": Graph.build([], []),
    "n1": Graph.build([4], []),
    "k3": complete_graph(3),
    "c5": cycle_graph(5),
    "gnp9": random_gnp(9, 0.4, seed=3),
    "gnp12": random_gnp(12, 0.3, seed=8),
    "gnp14-spread": spread_ids(random_gnp(14, 0.3, seed=14)),
    "c30-spread": spread_ids(cycle_graph(30, start=0)),
}


class TestBuildDoubled:
    @pytest.mark.parametrize("g", list(DOUBLED_BASES.values()), ids=list(DOUBLED_BASES))
    def test_matches_reference_builder(self, g):
        p = build_sdp_doubled(g)
        d, con_i, con_j, lo = reference_build_sdp_doubled(g)
        assert p.dim == d
        for got, want in ((p.con_i, con_i), (p.con_j, con_j), (p.lo, lo)):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_base_k2(self):
        p = build_sdp_doubled(complete_graph(2))
        assert p.dim == 5 and p.n_constraints == 6
        # cross entries allow -1, within-copy entries do not
        assert p.lo[1, 3] == -1.0 and p.lo[1, 2] == 0.0

    def test_single_vertex(self):
        p = build_sdp_doubled(Graph.build([4], []))
        assert p.dim == 3 and p.n_constraints == 1

    def test_base_k3(self):
        p = build_sdp_doubled(complete_graph(3))
        assert p.dim == 7 and p.n_constraints == 15


class TestAdmmSolve:
    def test_k2_analytic(self):
        # The claimed optimal Gram is feasible and PSD, and no feasible point
        # does better because the edge equality forces the objective to
        # 1 + X_12 with X_12 boxed at zero from below.
        analytic = np.array([[1.0, 0.5, 0.5], [0.5, 1.0, 0.0], [0.5, 0.0, 1.0]])
        assert np.linalg.eigvalsh(analytic)[0] > 0
        gs = admm_solve(build_sdp_single(complete_graph(2)))
        assert gs.converged
        assert gs.objective_value == pytest.approx(1.0, abs=1e-3)

    def test_k3_symmetric_ansatz(self):
        ansatz = np.eye(4)
        ansatz[0, 1:] = ansatz[1:, 0] = 0.5
        assert np.linalg.eigvalsh(ansatz)[0] >= -1e-12
        gs = admm_solve(build_sdp_single(complete_graph(3)))
        assert gs.converged
        assert gs.objective_value == pytest.approx(1.5, abs=1e-3)

    def test_edgeless_three(self):
        gs = admm_solve(build_sdp_single(Graph.build(range(3), [])))
        assert gs.objective_value == pytest.approx(0.0, abs=1e-4)

    def test_residuals_within_tolerance(self):
        gs = admm_solve(build_sdp_single(cycle_graph(5)))
        assert gs.converged
        assert gs.max_equality_violation <= sdp_solve.TAU_FEAS
        assert gs.max_box_violation <= sdp_solve.TAU_FEAS
        assert gs.min_eigenvalue >= -1e-7

    def test_nonconvergence_is_flagged_not_raised(self, monkeypatch):
        monkeypatch.setattr(sdp_solve, "ADMM_MAX_ITER", 3)
        gs = admm_solve(build_sdp_single(complete_graph(3)))
        assert not gs.converged and gs.iterations == 3

    def test_dim_one(self):
        gs = admm_solve(build_sdp_single(Graph.build([], [])))
        assert gs.converged and gs.objective_value == 0.0

    def test_relaxation_soundness_small_corpus(self):
        rng = np.random.default_rng(61)
        for _ in range(8):
            n = int(rng.integers(2, 9))
            g = random_gnp(n, float(rng.random() * 0.7 + 0.15), seed=int(rng.integers(1 << 30)))
            exact = brute_force_min_cover(g)
            single = admm_solve(build_sdp_single(g))
            doubled = admm_solve(build_sdp_doubled(g))
            if single.converged:
                assert single.objective_value <= exact + 1e-3
            if doubled.converged:
                assert doubled.objective_value / 2.0 <= exact + 1e-3

    def test_gram_json_roundtrip(self):
        gs = admm_solve(build_sdp_single(complete_graph(2)))
        back = gram_from_json(gs.to_json())
        assert list(json.loads(gs.to_json())) == ["dim"] + [f.name for f in fields(GramSolution)]
        assert np.array_equal(back.matrix, gs.matrix)
        assert back.objective_value == gs.objective_value
        assert back.converged == gs.converged


# the acceptance-8 batch corpus, one graph per generator seed
ACCEPTANCE_8 = (
    [("gnp", 10, 0.3, 7 + k) for k in range(4)]
    + [("bipartite_gnp", 10, 0.4, 11 + k) for k in range(2)]
    + [("odd_cycle_rich", 9, 0.1, 13 + k) for k in range(2)]
    + [("star_union", 8, 4, 17 + k) for k in range(2)]
)
IPM_SINGLE = {"c5": cycle_graph(5), "k3": complete_graph(3), "k4": complete_graph(4)}
IPM_SINGLE.update({"-".join(map(str, spec)): generate_graph(*spec) for spec in ACCEPTANCE_8})


def assert_certified(gs, optimum=None):
    """F(y) is the Gram of a dual-feasible point: unit diagonal, the edge
    equalities, a Cholesky factor, and sum(a) as the bracket's upper end."""
    lower, upper = gs.bounds
    assert lower <= upper and gs.objective_value == upper == float(gs.matrix[0, 1:].sum())
    np.linalg.cholesky(gs.matrix)
    assert np.array_equal(gs.matrix.diagonal(), np.ones(len(gs.matrix)))
    assert gs.max_equality_violation <= 1e-12 and gs.max_box_violation <= 1e-12
    if optimum is not None:
        assert lower <= optimum <= upper


class TestIpmSolve:
    @pytest.mark.parametrize("g", list(IPM_SINGLE.values()), ids=list(IPM_SINGLE))
    def test_single_agrees_with_admm(self, g):
        p = build_sdp_single(g)
        ipm, admm = ipm_solve(p), admm_solve(p)
        assert ipm.converged and admm.converged
        assert_certified(ipm)
        lower, upper = ipm.bounds
        assert upper - lower <= TAU_GAP
        assert abs(ipm.objective_value - admm.objective_value) <= ADMM_TOL
        # ADMM's point is feasible only to tau_feas, so its value may stray below the bracket by that much
        assert lower - ADMM_TOL <= admm.objective_value <= upper + ADMM_TOL

    @pytest.mark.parametrize("g,optimum", [
        (complete_graph(2), 1.0),
        (complete_graph(3), 1.5),
        (cycle_graph(5), 2.5),
        (Graph.build(range(3), []), 0.0),
    ], ids=["k2", "k3", "c5", "edgeless3"])
    def test_bracket_holds_the_known_optimum(self, g, optimum):
        gs = ipm_solve(build_sdp_single(g))
        assert gs.converged
        assert_certified(gs, optimum)

    def test_out_of_iterations_is_nonconverged_and_still_certified(self, monkeypatch):
        monkeypatch.setattr(sdp_solve, "IPM_MAX_ITER", 2)
        gs = ipm_solve(build_sdp_single(cycle_graph(5)))
        assert not gs.converged and gs.iterations == 2
        assert gs.bounds[1] - gs.bounds[0] > TAU_GAP
        assert_certified(gs, 2.5)

    @pytest.mark.parametrize("g", [complete_graph(3), cycle_graph(5), random_gnp(6, 0.5, seed=2)], ids=["k3", "c5", "gnp6"])
    def test_doubled_agrees_with_admm(self, g):
        p = build_sdp_doubled(g)
        ipm, admm = ipm_solve(p), admm_solve(p)
        assert ipm.converged and admm.converged
        assert_certified(ipm)
        assert abs(ipm.objective_value - admm.objective_value) <= ADMM_TOL

    def test_dim_one(self):
        gs = ipm_solve(build_sdp_single(Graph.build([], [])))
        assert gs.converged and gs.objective_value == 0.0 and gs.bounds == (0.0, 0.0)

    def test_json_is_the_gram_solutions(self):
        gs = ipm_solve(build_sdp_single(complete_graph(3)))
        assert list(json.loads(gs.to_json())) == ["dim"] + [f.name for f in fields(GramSolution)]
        assert np.array_equal(gram_from_json(gs.to_json()).matrix, gs.matrix)

    def test_rejects_boxes_it_does_not_model(self):
        p = build_sdp_single(complete_graph(3))
        p.lo[1, 2] = p.lo[2, 1] = 0.5
        with pytest.raises(ArgumentError):
            ipm_solve(p)

    def test_one_debug_line_per_solve(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="vcgap.sdp_solve"):
            gs = ipm_solve(build_sdp_single(cycle_graph(5)))
        lines = [r.getMessage() for r in caplog.records if r.name == "vcgap.sdp_solve"]
        assert len(lines) == 1
        assert f"{gs.iterations} iterations" in lines[0] and "bracket" in lines[0]

    def test_single_solve_state_stays_small(self):
        # pairs x pairs or dim^2 x nvar arrays would take tens of MB here
        p = build_sdp_single(random_gnp(32, 0.3, seed=1))
        tracemalloc.start()
        try:
            ipm_solve(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20


def reference_schur(p, X, W, xs):
    """The HKM Schur matrix from its definition: each variable's constraint
    matrix A_u built densely from the problem, then <A_u X A_v, W> plus the
    LP term sum_k xs[k] A_u[k] A_v[k] over the LP pairs k (lower box above
    -1). Variables are a_1..a_{dim-1}, then the unpinned pairs (i, j), 0 < i < j,
    in row order."""
    d = p.dim
    edges = {(min(i, j), max(i, j)) for i, j in zip(p.con_i.tolist(), p.con_j.tolist())}
    mats = []
    for i in range(1, d):
        a = np.zeros((d, d))
        a[0, i] = a[i, 0] = 1.0
        for e in edges:
            if i in e:
                a[e] = a[e[::-1]] = 1.0
        mats.append(a)
    for i in range(1, d):
        for j in range(i + 1, d):
            if (i, j) not in edges:
                a = np.zeros((d, d))
                a[i, j] = a[j, i] = 1.0
                mats.append(a)
    A = np.array(mats)
    M = np.einsum("uab,bc,vcd,da->uv", A, X, A, W, optimize=True)
    lp = [(i, j) for i in range(d) for j in range(i + 1, d) if p.lo[i, j] > -1.0]
    G = np.array([[a[k] for a in A] for k in lp]).reshape(len(lp), len(A))
    return M + G.T @ (xs[:, None] * G)


def random_spd(rng, d):
    b = rng.normal(size=(d, d))
    return b @ b.T / d + 0.1 * np.eye(d)


SCHUR_GRAPHS = {"k3": complete_graph(3), "c5": cycle_graph(5), "gnp7": random_gnp(7, 0.4, seed=5)}


class TestSchurRule:
    @pytest.mark.parametrize("doubled", [False, True], ids=["single", "doubled"])
    @pytest.mark.parametrize("g", list(SCHUR_GRAPHS.values()), ids=list(SCHUR_GRAPHS))
    def test_matches_the_definition(self, g, doubled):
        p = build_sdp_doubled(g) if doubled else build_sdp_single(g)
        rng = np.random.default_rng(p.dim)
        X, W = random_spd(rng, p.dim), random_spd(rng, p.dim)
        P, Q, t, r, w, f0, lo = sdp_solve._reduce(p)
        xs = rng.random(int((lo > -1.0).sum()))
        got = sdp_solve._schur(r, w, t[:, lo > -1.0])(X, W, xs)
        want = reference_schur(p, X, W, xs)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


class TestEigensolvers:
    def test_psd_projection_idempotent(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(20, 20))
        psd = a @ a.T
        again = psd_project(psd)
        assert np.linalg.norm(again - psd) <= 1e-7

    def test_psd_projection_clips(self):
        mat = np.diag([2.0, -3.0])
        proj = psd_project(mat)
        assert np.allclose(proj, np.diag([2.0, 0.0]))


class TestExtractVectors:
    def test_identity_gram(self):
        gs = GramSolution(np.eye(3), 0.0, 0.0, 0.0, 1.0, 1, True)
        emb = extract_vectors(gs)
        for i in range(3):
            for j in range(3):
                assert float(emb.vectors[i] @ emb.vectors[j]) == pytest.approx(1.0 if i == j else 0.0, abs=1e-9)
        assert emb.origin == pytest.approx((0.0, 0.0), abs=1e-9)

    def test_all_ones_gram(self):
        gs = GramSolution(np.ones((3, 3)), 2.0, 0.0, 0.0, 0.0, 1, True)
        emb = extract_vectors(gs)
        assert emb.origin == pytest.approx((1.0, 1.0), abs=1e-9)
        assert float(emb.vectors[1] @ emb.vectors[2]) == pytest.approx(1.0, abs=1e-9)

    def test_k2_solution_products(self):
        gs = admm_solve(build_sdp_single(complete_graph(2)))
        emb = extract_vectors(gs)
        assert emb.origin == pytest.approx((0.5, 0.5), abs=1e-3)
        assert float(emb.vectors[1] @ emb.vectors[2]) == pytest.approx(0.0, abs=1e-3)

    def test_unit_norms_and_faithfulness(self):
        gs = admm_solve(build_sdp_single(cycle_graph(5)))
        emb = extract_vectors(gs)
        norms = np.linalg.norm(emb.vectors, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-6
        recon = emb.vectors @ emb.vectors.T
        assert np.max(np.abs(recon - gs.matrix)) <= 1e-4

    def test_origin_is_each_rows_product_with_row_zero(self):
        gs = admm_solve(build_sdp_doubled(random_gnp(6, 0.5, seed=2)))
        emb = extract_vectors(gs)
        assert len(emb.origin) == 12
        for v, p in enumerate(emb.origin):
            assert p == float(emb.vectors[0] @ emb.vectors[v + 1])  # bit for bit

    def test_refuses_nonconverged(self):
        gs = GramSolution(np.eye(3), 0.0, 1.0, 0.0, 0.0, 10, False)
        with pytest.raises(ArgumentError):
            extract_vectors(gs)

    def test_reconstruction_error_raises(self):
        # A matrix far from PSD cannot be reproduced by clipped factors.
        bad = np.array([[1.0, 0.9], [0.9, -1.0]])
        gs = GramSolution(bad, 0.0, 0.0, 0.0, -1.0, 1, True)
        with pytest.raises(ExtractionError):
            extract_vectors(gs)

    @pytest.mark.parametrize("entry", [float("nan"), float("inf")])
    def test_non_finite_entry_raises(self, entry):
        # every comparison with NaN is false, so the checks must be written to fail on it
        bad = np.eye(3)
        bad[0, 1] = bad[1, 0] = entry
        with pytest.raises(ExtractionError):
            extract_vectors(GramSolution(bad, 0.0, 0.0, 0.0, 0.0, 1, True))


def lift_cover(g: Graph, cover: frozenset) -> np.ndarray:
    """The doubled Gram of a cover: x0 = 1 on the cover and -1 off it, and
    the rank-one Y = x x^T with x = (1, x0), lifted."""
    x = np.array([1.0] + [1.0 if v in cover else -1.0 for v in g.vertices])
    return lift_kg(np.outer(x, x))


def theta_cycle(n: int) -> float:
    """Lovasz theta of the odd cycle C_n (Lovasz 1979)."""
    return n * math.cos(math.pi / n) / (1.0 + math.cos(math.pi / n))


# z_doubled / 2 = n - theta(G); for Kneser graphs K(m, k), theta = C(m-1, k-1)
CLOSED_FORMS = {
    "c5": (cycle_graph(5), 5 - theta_cycle(5)),
    "c7": (cycle_graph(7), 7 - theta_cycle(7)),
    "c9": (cycle_graph(9), 9 - theta_cycle(9)),
    "petersen": (petersen_graph(), 10 - math.comb(4, 1)),
    "k62": (kneser_graph(6, 2), 15 - math.comb(5, 1)),
    "k72": (kneser_graph(7, 2), 21 - math.comb(6, 1)),
}
LIFT_GRAPHS = {name: g for name, (g, _) in CLOSED_FORMS.items()}
LIFT_GRAPHS.update({f"gnp{n}-s{seed}": random_gnp(n, 0.4, seed) for n, seed in [(6, 1), (9, 2), (12, 3)]})


class TestDoubledBracket:
    """2 * z_single <= z_doubled <= 2 * opt holds by theorem: each copy's
    block is feasible for the single relaxation, and every cover lifts to a
    feasible doubled point of value 2 |C|."""

    @pytest.mark.parametrize("g", list(LIFT_GRAPHS.values()), ids=list(LIFT_GRAPHS))
    def test_optimal_cover_lifts_to_a_feasible_point(self, g):
        cover = exact_vc(g).cover
        lifted = lift_cover(g, cover)
        assert sdp_solve._residuals(lifted, build_sdp_doubled(g)) == (0.0, 0.0)
        assert np.linalg.eigvalsh(lifted)[0] >= -1e-12
        assert lifted[0, 1:].sum() == 2 * len(cover)

    @pytest.mark.parametrize("g,half_value", list(CLOSED_FORMS.values()), ids=list(CLOSED_FORMS))
    def test_doubled_value_is_n_minus_theta(self, g, half_value):
        p = build_sdp_doubled(g)
        gs = admm_solve(p)
        assert gs.converged
        assert abs(gs.objective_value / 2.0 - half_value) <= ADMM_TOL
        certified = ipm_solve(p)
        assert certified.converged
        lower, upper = certified.bounds
        assert lower <= 2.0 * half_value <= upper

    @pytest.mark.parametrize("n,p,seed", [(6, 0.5, 1), (8, 0.4, 2), (10, 0.3, 3), (12, 0.5, 4)])
    def test_doubled_value_is_at_least_twice_the_single(self, n, p, seed):
        g = random_gnp(n, p, seed)
        lower, _ = ipm_solve(build_sdp_single(g)).bounds
        p = build_sdp_doubled(g)
        doubled = admm_solve(p)
        assert doubled.converged
        assert doubled.objective_value >= 2.0 * lower - ADMM_TOL
        _, doubled_upper = ipm_solve(p).bounds
        assert doubled_upper >= 2.0 * lower
