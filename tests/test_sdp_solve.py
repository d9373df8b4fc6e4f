import numpy as np
import pytest

from helpers import brute_force_min_cover, complete_graph, cycle_graph, random_gnp
from vcgap.errors import ArgumentError
from vcgap.graph_core import Graph, duplicate_join
from vcgap.sdp_solve import (
    ExtractionError,
    GramSolution,
    SolverConfig,
    admm_solve,
    build_sdp_doubled,
    build_sdp_single,
    check_lemma2_bounds,
    extract_vectors,
    gram_from_json,
    psd_project,
)

FAST = SolverConfig()


class TestBuildSingle:
    def test_k2(self):
        p = build_sdp_single(complete_graph(2))
        assert p.dim == 3 and p.n_constraints == 1
        assert p.lo[0, 0] == p.hi[0, 0] == 1.0
        assert p.lo[0, 1] == 0.0 and p.hi[0, 1] == 1.0

    def test_k3(self):
        p = build_sdp_single(complete_graph(3))
        assert p.dim == 4 and p.n_constraints == 3

    def test_edgeless_solves_to_zero(self):
        g = Graph.build(range(2), [])
        p = build_sdp_single(g)
        assert p.dim == 3 and p.n_constraints == 0
        gs = admm_solve(p, FAST)
        assert gs.converged and gs.objective_value == pytest.approx(0.0, abs=1e-4)


def reference_build_sdp_doubled(dg):
    """The doubled builder as it stood before it was expressed through
    build_sdp_single: its own encoding of the edge equalities and boxes."""
    comb = dg.combined
    pos = {v: i + 1 for i, v in enumerate(comb.vertices)}
    con_i = np.array([pos[u] for u, v in comb.edges], dtype=int)
    con_j = np.array([pos[v] for u, v in comb.edges], dtype=int)
    d = comb.n + 1
    lo = np.zeros((d, d))
    hi = np.ones((d, d))
    n = dg.base.n
    prime = np.array([pos[c] for c in comb.vertices if c < n], dtype=int)
    dprime = np.array([pos[c] for c in comb.vertices if c >= n], dtype=int)
    lo[np.ix_(prime, dprime)] = -1.0
    lo[np.ix_(dprime, prime)] = -1.0
    np.fill_diagonal(lo, 1.0)
    return d, con_i, con_j, lo, hi


DOUBLED_BASES = {
    "n0": Graph.build([], []),
    "n1": Graph.build([4], []),
    "k3": complete_graph(3),
    "c5": cycle_graph(5),
    "gnp9": random_gnp(9, 0.4, seed=3),
    "gnp12": random_gnp(12, 0.3, seed=8),
}


class TestBuildDoubled:
    @pytest.mark.parametrize("g", list(DOUBLED_BASES.values()), ids=list(DOUBLED_BASES))
    def test_matches_reference_builder(self, g):
        dg = duplicate_join(g)
        p = build_sdp_doubled(dg)
        d, con_i, con_j, lo, hi = reference_build_sdp_doubled(dg)
        # matrix index c + 1 is combined vertex c
        assert p.dim == d and dg.combined.vertices == tuple(range(d - 1))
        for got, want in ((p.con_i, con_i), (p.con_j, con_j), (p.lo, lo), (p.hi, hi)):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_base_k2(self):
        p = build_sdp_doubled(duplicate_join(complete_graph(2)))
        assert p.dim == 5 and p.n_constraints == 6
        # cross entries allow -1, within-copy entries do not
        assert p.lo[1, 3] == -1.0 and p.lo[1, 2] == 0.0

    def test_single_vertex(self):
        p = build_sdp_doubled(duplicate_join(Graph.build([4], [])))
        assert p.dim == 3 and p.n_constraints == 1

    def test_base_k3(self):
        p = build_sdp_doubled(duplicate_join(complete_graph(3)))
        assert p.dim == 7 and p.n_constraints == 15


class TestAdmmSolve:
    def test_k2_analytic(self):
        # The claimed optimal Gram is feasible and PSD, and no feasible point
        # does better because the edge equality forces the objective to
        # 1 + X_12 with X_12 boxed at zero from below.
        analytic = np.array([[1.0, 0.5, 0.5], [0.5, 1.0, 0.0], [0.5, 0.0, 1.0]])
        assert np.linalg.eigvalsh(analytic)[0] > 0
        gs = admm_solve(build_sdp_single(complete_graph(2)), FAST)
        assert gs.converged
        assert gs.objective_value == pytest.approx(1.0, abs=1e-3)

    def test_k3_symmetric_ansatz(self):
        ansatz = np.eye(4)
        ansatz[0, 1:] = ansatz[1:, 0] = 0.5
        assert np.linalg.eigvalsh(ansatz)[0] >= -1e-12
        gs = admm_solve(build_sdp_single(complete_graph(3)), FAST)
        assert gs.converged
        assert gs.objective_value == pytest.approx(1.5, abs=1e-3)

    def test_edgeless_three(self):
        gs = admm_solve(build_sdp_single(Graph.build(range(3), [])), FAST)
        assert gs.objective_value == pytest.approx(0.0, abs=1e-4)

    def test_residuals_within_tolerance(self):
        gs = admm_solve(build_sdp_single(cycle_graph(5)), FAST)
        assert gs.converged
        assert gs.max_equality_violation <= FAST.tau_feas
        assert gs.max_box_violation <= FAST.tau_feas
        assert gs.min_eigenvalue >= -1e-7

    def test_nonconvergence_is_flagged_not_raised(self):
        cfg = SolverConfig(max_iter=3, check_every=3)
        gs = admm_solve(build_sdp_single(complete_graph(3)), cfg)
        assert not gs.converged and gs.iterations == 3

    def test_dim_one(self):
        gs = admm_solve(build_sdp_single(Graph.build([], [])), FAST)
        assert gs.converged and gs.objective_value == 0.0

    def test_relaxation_soundness_small_corpus(self):
        rng = np.random.default_rng(61)
        for _ in range(8):
            n = int(rng.integers(2, 9))
            g = random_gnp(n, float(rng.random() * 0.7 + 0.15), seed=int(rng.integers(1 << 30)))
            exact = brute_force_min_cover(g)
            single = admm_solve(build_sdp_single(g), FAST)
            doubled = admm_solve(build_sdp_doubled(duplicate_join(g)), FAST)
            if single.converged:
                assert single.objective_value <= exact + 1e-3
            if doubled.converged:
                assert doubled.objective_value / 2.0 <= exact + 1e-3

    def test_gram_json_roundtrip(self):
        gs = admm_solve(build_sdp_single(complete_graph(2)), FAST)
        back = gram_from_json(gs.to_json())
        assert np.array_equal(back.matrix, gs.matrix)
        assert back.objective_value == gs.objective_value
        assert back.converged == gs.converged


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
        gs = admm_solve(build_sdp_single(complete_graph(2)), FAST)
        emb = extract_vectors(gs)
        assert emb.origin == pytest.approx((0.5, 0.5), abs=1e-3)
        assert float(emb.vectors[1] @ emb.vectors[2]) == pytest.approx(0.0, abs=1e-3)

    def test_unit_norms_and_faithfulness(self):
        gs = admm_solve(build_sdp_single(cycle_graph(5)), FAST)
        emb = extract_vectors(gs)
        norms = np.linalg.norm(emb.vectors, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-6
        recon = emb.vectors @ emb.vectors.T
        assert np.max(np.abs(recon - gs.matrix)) <= 1e-4

    def test_origin_is_each_rows_product_with_row_zero(self):
        gs = admm_solve(build_sdp_doubled(duplicate_join(random_gnp(6, 0.5, seed=2))), FAST)
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
            extract_vectors(gs, tau_factor=1e-4)

    @pytest.mark.parametrize("entry", [float("nan"), float("inf")])
    def test_non_finite_entry_raises(self, entry):
        # every comparison with NaN is false, so the checks must be written to fail on it
        bad = np.eye(3)
        bad[0, 1] = bad[1, 0] = entry
        with pytest.raises(ExtractionError):
            extract_vectors(GramSolution(bad, 0.0, 0.0, 0.0, 0.0, 1, True))


class TestLemma2:
    def test_k2_tight_bracket(self):
        g = complete_graph(2)
        z4 = admm_solve(build_sdp_single(g), FAST).objective_value
        z6 = admm_solve(build_sdp_doubled(duplicate_join(g)), FAST).objective_value
        assert z4 == pytest.approx(1.0, abs=1e-3)
        assert z6 == pytest.approx(2.0, abs=1e-3)
        verdict = check_lemma2_bounds(z4, z6, z_exact=1)
        assert verdict.consistent

    def test_k3_bracket(self):
        g = complete_graph(3)
        z4 = admm_solve(build_sdp_single(g), FAST).objective_value
        z6 = admm_solve(build_sdp_doubled(duplicate_join(g)), FAST).objective_value
        assert 3.0 - 1e-3 <= z6 <= 4.0 + 1e-3
        assert check_lemma2_bounds(z4, z6, z_exact=2).consistent

    def test_edgeless_trivially_consistent(self):
        assert check_lemma2_bounds(0.0, 0.0, 0).consistent

    def test_violation_is_reported_not_raised(self):
        verdict = check_lemma2_bounds(z4=2.0, z6=3.0, z_exact=2)
        assert not verdict.consistent
        assert verdict.lower_margin == pytest.approx(-1.0)
