import math

import numpy as np
import pytest

from helpers import check_plain_record, complete_graph, cycle_graph, embedding_of
from vcgap.errors import ArgumentError
from vcgap.graph_core import (
    Bipartition,
    Graph,
    duplicate_join,
    find_odd_cycle,
    induced_subgraph,
    to_plain,
    verify_cover,
)
from vcgap.pipeline import DoubledAnalysis, analyze_doubled
from vcgap.rounding_geometry import (
    EpsilonSubgraph,
    OddCycleProbe,
    PropertyReport,
    Thresholds,
    build_epsilon_subgraph,
    certify_theorem2,
    certify_theorem3,
    classify_property1,
    odd_cycle_probe,
    perpendicular_completion_check,
    theorem4_lower_bound,
    threshold_cut,
)
from vcgap.sdp_solve import GramSolution, VectorEmbedding, extract_vectors


def embedding_from_products(products: list[float]) -> VectorEmbedding:
    """Unit vectors with prescribed origin products for vertices 0..n-1:
    row v + 1 is p*e0 + sqrt(1-p^2)*e_(v+1) with p = products[v]."""
    dim = len(products) + 1
    vectors = np.zeros((dim, dim))
    vectors[0, 0] = 1.0
    for v, p in enumerate(products):
        vectors[v + 1, 0] = p
        vectors[v + 1, v + 1] = math.sqrt(max(1.0 - p * p, 0.0))
    return embedding_of(vectors)


class TestThresholds:
    def test_defaults_are_paper_constants(self):
        th = Thresholds()
        assert th.below_half_fraction == 0.000001
        assert th.above_band_fraction == 0.01
        assert th.band_top == pytest.approx(0.5004, abs=0)

    def test_band_top_must_match_epsilon(self):
        assert Thresholds(epsilon=0.1).band_top == 0.6
        with pytest.raises(TypeError):
            Thresholds(epsilon=0.0004, band_top=0.6)

    def test_fraction_range(self):
        with pytest.raises(ArgumentError):
            Thresholds(above_band_fraction=1.5)


class TestClassifyProperty1:
    def test_all_products_at_half(self):
        emb = embedding_from_products([0.5] * 10)
        report = classify_property1(emb, range(10))
        assert (report.count_below_half, report.count_above_band) == (0, 0)
        assert report.holds_1a and report.holds_1b and report.holds

    def test_three_below_breaks_condition_a(self):
        products = [0.5] * 10
        products[0] = products[1] = products[2] = 0.3
        report = classify_property1(embedding_from_products(products), range(10))
        assert report.count_below_half == 3
        assert not report.holds_1a and not report.holds

    def test_nine_above_on_thousand_keeps_condition_b(self):
        products = [0.5] * 1000
        for i in range(9):
            products[i] = 0.6
        report = classify_property1(embedding_from_products(products), range(1000))
        assert report.count_above_band == 9
        assert report.holds_1b  # 9 < 0.01 * 1000

    def test_counts_match_direct_scan(self):
        rng = np.random.default_rng(71)
        th = Thresholds()
        for _ in range(20):
            n = int(rng.integers(1, 30))
            products = [float(rng.random()) for _ in range(n)]
            emb = embedding_from_products(products)
            report = classify_property1(emb, range(n), th)
            assert report.count_below_half == sum(1 for p in products if p < 0.5)
            assert report.count_above_band == sum(1 for p in products if p > th.band_top)
            assert report.n == n

    def test_json_form_is_the_fields_and_holds(self):
        report = classify_property1(embedding_from_products([0.3, 0.5, 0.9]), range(3))
        doc = report.to_dict()
        check_plain_record(report, doc, extra=("holds",))
        assert doc["holds"] is report.holds is False


class TestThresholdCut:
    def test_k2_feasible_split(self):
        emb = embedding_from_products([0.3, 0.7])
        cut = threshold_cut(emb, (0, 1))
        assert cut == {1}
        assert verify_cover(complete_graph(2, start=0), cut) == []

    def test_all_at_half_everything_in(self):
        emb = embedding_from_products([0.5] * 4)
        assert threshold_cut(emb, range(4)) == frozenset(range(4))

    def test_nan_product_is_not_below_the_cut(self):
        emb = VectorEmbedding(np.eye(3), (float("nan"), 0.2))
        assert threshold_cut(emb, (0, 1)) == {0}

    def test_both_below_is_infeasible_and_detected(self):
        emb = embedding_from_products([0.4, 0.4])
        cut = threshold_cut(emb, (0, 1))
        assert cut == frozenset()
        assert verify_cover(complete_graph(2, start=0), cut) == [(0, 1)]


class TestCertificates:
    def test_theorem2_k2_bound_one(self):
        assert certify_theorem2(10, 2.0).claimed_ratio_bound == pytest.approx(1.0)

    def test_theorem2_k4(self):
        assert certify_theorem2(10, 4.0).claimed_ratio_bound == pytest.approx(4.0 / 3.0)

    def test_theorem2_paper_k(self):
        k = 1.0 / 0.0000035
        bound = certify_theorem2(10**6, k).claimed_ratio_bound
        assert bound < 1.999999
        assert bound == pytest.approx(2 * k / (k + 2), abs=0)

    def test_theorem2_rejects_nonpositive_k(self):
        with pytest.raises(ArgumentError):
            certify_theorem2(10, 0.0)

    def test_theorem3_equal_halves(self):
        cert = certify_theorem3(5, 5, 10)
        assert cert.claimed_ratio_bound == pytest.approx(1.0)

    def test_theorem3_paper_numbers_exact(self):
        cert = certify_theorem3(999999, 1, 10**6)
        assert cert.claimed_ratio_bound == 1.999998

    @pytest.mark.parametrize("cert", [certify_theorem2(10, 4.0), certify_theorem3(6, 4, 10)], ids=["theorem2", "theorem3"])
    def test_json_form_is_the_fields(self, cert):
        doc = to_plain(cert)
        check_plain_record(cert, doc)
        assert doc["assumptions"] == list(cert.assumptions)
        doc["inputs"]["n"] = -1
        assert cert.inputs["n"] == 10

    def test_theorem3_degenerate_returns_none(self):
        assert certify_theorem3(10, 0, 10) is None

    def test_theorem3_bound_holds_against_oracle(self):
        # On instances whose optimum is at least n/2, the bound computed from
        # any partition's sizes must dominate that partition's true ratio.
        from helpers import brute_force_min_cover, random_gnp

        rng = np.random.default_rng(113)
        checked = 0
        while checked < 15:
            n = int(rng.integers(2, 11))
            g = random_gnp(n, float(rng.random() * 0.7 + 0.2), seed=int(rng.integers(1 << 30)))
            opt = brute_force_min_cover(g)
            if opt < g.n / 2:
                continue
            v1 = {int(v) for v in rng.choice(g.vertices, size=int(rng.integers(0, g.n)), replace=False)}
            cert = certify_theorem3(len(v1), g.n - len(v1), g.n)
            if cert is None or opt == 0:
                continue
            assert len(v1) / opt <= cert.claimed_ratio_bound + 1e-9
            checked += 1


class TestTheorem4LowerBound:
    def test_paper_constants_million(self):
        report = PropertyReport(0, 20000, 10**6, True, False)
        value = theorem4_lower_bound(report)
        expected = 10**6 / 2 + 0.0000035 * 10**6
        assert abs(value - expected) <= abs(expected) * 1e-12

    def test_degenerate_fractions_give_half_n(self):
        report = PropertyReport(0, 1, 100, True, False)
        th = Thresholds(below_half_fraction=1e-300, above_band_fraction=1e-300, epsilon=0.0004)
        assert theorem4_lower_bound(report, th) == pytest.approx(50.0)

    def test_direct_evaluation_n_100(self):
        report = PropertyReport(0, 2, 100, True, False)
        assert theorem4_lower_bound(report) == pytest.approx(50.00035, abs=1e-10)

    def test_precondition_enforced(self):
        with pytest.raises(ArgumentError):
            theorem4_lower_bound(PropertyReport(5, 2, 100, False, False))
        with pytest.raises(ArgumentError):
            theorem4_lower_bound(PropertyReport(0, 0, 100, True, True))


class TestEpsilonSubgraph:
    def test_all_at_half_keeps_everything(self):
        g = cycle_graph(4, start=0)
        emb = embedding_from_products([0.5] * 4)
        eps = build_epsilon_subgraph(emb, g)
        assert eps.v_eps == set(g.vertices)
        assert eps.graph.edges == g.edges
        assert eps.coverage_fraction == 1.0

    def test_band_is_closed_interval(self):
        g = Graph.build([0, 1, 2], [])
        emb = embedding_from_products([0.3, 0.5002, 0.6])
        eps = build_epsilon_subgraph(emb, g)
        assert eps.v_eps == {1}

    def test_k3_with_band_edge_value(self):
        g = complete_graph(3, start=0)
        emb = embedding_from_products([0.5, 0.5, 0.5001])
        eps = build_epsilon_subgraph(emb, g)
        assert eps.graph.m == 3 and eps.v_eps == {0, 1, 2}


class TestPerpendicularCompletion:
    def test_standard_basis_is_exact(self):
        basis = [np.eye(6)[i] for i in range(4)]
        v = 0.5 * sum(basis)
        report = perpendicular_completion_check(basis, v)
        assert report.identity_defect <= 1e-12
        assert report.perpendicularity_defect == 0.0
        assert report.passed

    def test_wrong_completion_has_unit_defect(self):
        basis = [np.eye(4)[i] for i in range(4)]
        report = perpendicular_completion_check(basis, basis[0], tol=1e-4)
        assert report.identity_defect == pytest.approx(1.0)
        assert not report.passed

    def test_small_perturbations_degrade_continuously(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
            quad = [q[:, i] for i in range(4)]
            noisy = []
            for w in quad:
                w = w + 1e-6 * rng.normal(size=6)
                noisy.append(w / np.linalg.norm(w))
            v = 0.5 * sum(noisy)
            v = v / np.linalg.norm(v)
            report = perpendicular_completion_check(noisy, v, tol=1e-4)
            assert report.passed
            assert report.identity_defect <= 1e-5

    def test_json_form_is_the_fields(self):
        basis = [np.eye(6)[i] for i in range(4)]
        report = perpendicular_completion_check(basis, 0.5 * sum(basis))
        check_plain_record(report, to_plain(report))

    def test_rejects_non_unit(self):
        basis = [np.eye(4)[i] for i in range(4)]
        with pytest.raises(ArgumentError):
            perpendicular_completion_check(basis, 2.0 * basis[0])

    def test_rejects_wrong_count(self):
        basis = [np.eye(4)[i] for i in range(3)]
        with pytest.raises(ArgumentError):
            perpendicular_completion_check(basis, np.eye(4)[3])


def c5_band_embedding(t: float = 0.2) -> tuple[VectorEmbedding, EpsilonSubgraph, tuple[int, int]]:
    """Best-effort five-cycle configuration for the contradiction probe.

    Cycle vectors have origin products exactly 0.5 and exactly perpendicular
    cycle neighbors (free non-adjacent products set to t, which keeps the
    cycle Gram positive semidefinite for small t). Anchor vectors get origin
    product 0.5 and the closest achievable products against the cycle; no
    exact configuration exists, which is the point of the probe.
    """
    # Gram of the w-parts: diag 3/4, adjacent -1/4, non-adjacent t.
    gram_w = np.full((5, 5), t)
    for i in range(5):
        gram_w[i, i] = 0.75
        gram_w[i, (i + 1) % 5] = gram_w[(i + 1) % 5, i] = -0.25
    w_eigs, w_vecs = np.linalg.eigh(gram_w)
    assert w_eigs[0] >= -1e-12
    w = (w_vecs * np.sqrt(np.clip(w_eigs, 0, None))) @ np.eye(5)  # rows are w_i in R^5
    dim = 9  # e0 + 5 cycle dims + 2 anchor dims + slack
    vectors = np.zeros((8, dim))
    vectors[0, 0] = 1.0  # v_o
    for i in range(5):
        vectors[1 + i, 0] = 0.5
        vectors[1 + i, 1:6] = w[i]
    # anchors: product 0.5 with v_o, mutually perpendicular, orthogonal to the
    # cycle's w-span; their cycle products then sit at 0.25 (the obstruction).
    vectors[6, 0] = 0.5
    vectors[6, 6] = math.sqrt(0.75)
    vectors[7, 0] = 0.5
    vectors[7, 7] = math.sqrt(0.75)
    emb = embedding_of(vectors)  # cycle vertices 0..4, anchor vertices 5 and 6
    graph = cycle_graph(5, start=0)
    eps = EpsilonSubgraph(frozenset(range(5)), graph, 1.0)
    return emb, eps, (5, 6)


class TestOddCycleProbe:
    def test_bipartite_band_subgraph(self):
        g = cycle_graph(4, start=0)
        emb = embedding_from_products([0.5] * 4)
        eps = build_epsilon_subgraph(emb, g)
        probe = odd_cycle_probe(emb, eps, None)
        assert probe.bipartite
        assert probe.classes is not None
        doc = to_plain(probe)
        check_plain_record(probe, doc)
        assert doc["classes"] == [[0, 2], [1, 3]] and doc["cycle"] is None

    def test_constructed_five_cycle_breaks_somewhere(self):
        # The cycle premises hold exactly, so the chain must break at the
        # anchor geometry: either the edge sums miss U or U's norm is far
        # from sqrt(2). A fully consistent configuration cannot exist.
        emb, eps, anchor = c5_band_embedding()
        for i in range(5):
            assert emb.origin[i] == pytest.approx(0.5, abs=1e-12)
            assert float(emb.vectors[1 + i] @ emb.vectors[1 + (i + 1) % 5]) == pytest.approx(0.0, abs=1e-9)
        probe = odd_cycle_probe(emb, eps, anchor)
        assert not probe.bipartite
        assert len(probe.cycle) == 5
        worst = max(max(probe.per_edge_defects), probe.contradiction_magnitude)
        assert worst > 0.05
        assert not (probe.chain_applicable and not probe.contradiction_flagged)
        doc = to_plain(probe)
        check_plain_record(probe, doc)
        assert doc["cycle"] == list(probe.cycle) and doc["anchor_edge"] == [5, 6] and doc["classes"] is None

    def test_missing_anchor_reported(self):
        emb, eps, _ = c5_band_embedding()
        probe = odd_cycle_probe(emb, eps, None)
        assert not probe.bipartite
        assert "anchor" in probe.note

    def test_far_from_band_chain_inapplicable(self):
        g = cycle_graph(5, start=0)
        emb = embedding_from_products([0.95] * 5)
        eps = EpsilonSubgraph(frozenset(g.vertices), g, 1.0)
        # anchor vertices 5 and 6 at origin product 0.9
        merged_vectors = np.zeros((8, emb.vectors.shape[1] + 2))
        merged_vectors[:6, : emb.vectors.shape[1]] = emb.vectors
        merged_vectors[6, 0] = 0.9
        merged_vectors[6, -2] = math.sqrt(1 - 0.81)
        merged_vectors[7, 0] = 0.9
        merged_vectors[7, -1] = math.sqrt(1 - 0.81)
        probe = odd_cycle_probe(embedding_of(merged_vectors), eps, (5, 6))
        assert not probe.chain_applicable
        assert not probe.contradiction_flagged
        assert max(probe.per_edge_defects) > 0.004


# The reading of a doubled solution as it stood before ids were positional:
# vectors looked up through a label tuple, copies found through an origin
# map of (copy tag, base vertex) per combined vertex. Kept as the reference
# the positional reading must reproduce exactly.


class LabelEmbedding:
    def __init__(self, vectors: np.ndarray, labels: tuple[int, ...]):
        self.vectors = vectors
        self.labels = labels

    def index_of(self, label: int) -> int:
        return self.labels.index(label) + 1

    def product_with_origin(self, label: int) -> float:
        return float(self.vectors[0] @ self.vectors[self.index_of(label)])

    def vector_for(self, label: int) -> np.ndarray:
        return self.vectors[self.index_of(label)]


def reference_origin_map(base: Graph) -> dict[int, tuple[str, int]]:
    n = base.n
    origin = {}
    for i, v in enumerate(base.vertices):
        origin[i] = ("prime", v)
        origin[n + i] = ("double_prime", v)
    return origin


def reference_classify(emb: LabelEmbedding, ids, th: Thresholds) -> PropertyReport:
    ids = list(ids)
    n = len(ids)
    below = sum(1 for v in ids if emb.product_with_origin(v) < 0.5)
    above = sum(1 for v in ids if emb.product_with_origin(v) > th.band_top)
    return PropertyReport(below, above, n, below < th.below_half_fraction * n, above < th.above_band_fraction * n)


def reference_cut(emb: LabelEmbedding, ids, cut: float = 0.5):
    ids = list(ids)
    out = frozenset(v for v in ids if emb.product_with_origin(v) < cut)
    return frozenset(ids) - out


def reference_band(emb: LabelEmbedding, g: Graph, th: Thresholds) -> EpsilonSubgraph:
    v_eps = frozenset(v for v in g.vertices if 0.5 <= emb.product_with_origin(v) <= th.band_top)
    return EpsilonSubgraph(v_eps, induced_subgraph(g, v_eps), len(v_eps) / g.n if g.n else 1.0)


def reference_probe(emb: LabelEmbedding, eps_sub: EpsilonSubgraph, anchor, tol: float) -> OddCycleProbe:
    result = find_odd_cycle(eps_sub.graph)
    if isinstance(result, Bipartition):
        return OddCycleProbe(
            bipartite=True,
            classes=(tuple(sorted(result.left)), tuple(sorted(result.right))),
            note="band subgraph is bipartite; contradiction chain not applicable",
        )
    if anchor is None:
        return OddCycleProbe(
            bipartite=False,
            cycle=result.vertices,
            note="odd cycle found but no anchor edge available in the other copy",
        )
    c, d = anchor
    u = 2.0 * emb.vectors[0] - emb.vector_for(c) - emb.vector_for(d)
    u_norm = float(np.linalg.norm(u))
    verts = result.vertices
    t = len(verts)
    per_edge = tuple(
        float(np.linalg.norm(emb.vector_for(verts[i]) + emb.vector_for(verts[(i + 1) % t]) - u)) for i in range(t)
    )
    collapse = tuple(float(np.linalg.norm(emb.vector_for(v) - 0.5 * u)) for v in verts)
    contradiction = abs(u_norm - math.sqrt(2.0))
    applicable = max(per_edge) <= tol
    return OddCycleProbe(
        bipartite=False,
        cycle=verts,
        anchor_edge=(c, d),
        u_norm=u_norm,
        contradiction_magnitude=contradiction,
        per_edge_defects=per_edge,
        collapse_defects=collapse,
        chain_applicable=applicable,
        contradiction_flagged=applicable and contradiction > tol,
    )


POSITIONAL_TH = Thresholds(below_half_fraction=0.25, above_band_fraction=0.25, epsilon=0.05)


def random_doubled_case(seed: int) -> tuple[Graph, np.ndarray]:
    """A random base graph on ids that are not positions, and unit rows for
    its doubled graph: row 0 is e0 and each vertex row has an origin product
    drawn from values below, at the edges of, inside and above the band, so
    that 0.5 and band_top occur exactly."""
    rng = np.random.default_rng(500 + seed)
    n = int(rng.integers(3, 8))
    ids = [3 * i + 2 for i in range(n)]
    base = Graph.build(ids, [(u, v) for u in ids for v in ids if u < v and rng.random() < 0.6])
    th = POSITIONAL_TH
    choices = (0.3, 0.5, 0.5, th.band_top, th.band_top, 0.5 + th.epsilon / 2, 0.8)
    dim = 2 * n + 1
    rows = np.zeros((dim, dim))
    rows[0, 0] = 1.0
    for r in range(1, dim):
        p = choices[int(rng.integers(len(choices)))]
        w = rng.normal(size=dim - 1)
        rows[r, 0] = p
        rows[r, 1:] = math.sqrt(1.0 - p * p) * w / np.linalg.norm(w)
    return base, rows


class TestPositionalReadingMatchesLabels:
    @pytest.mark.parametrize("seed", range(16))
    def test_same_reports_cuts_bands_and_probes(self, seed):
        base, rows = random_doubled_case(seed)
        n = base.n
        combined = duplicate_join(base)
        gram = GramSolution(rows @ rows.T, 0.0, 0.0, 0.0, 0.0, 1, True)
        origin = reference_origin_map(base)
        # exact products from the rows themselves, then the same Gram factored
        for emb in (embedding_of(rows), extract_vectors(gram)):
            a = DoubledAnalysis(base, emb, None, None)
            ref = LabelEmbedding(emb.vectors, combined.vertices)
            eps = []
            for copy, tag in enumerate(("prime", "double_prime")):
                copy_ids = tuple(c for c in combined.vertices if origin[c][0] == tag)
                assert tuple(a.copy_ids(copy)) == copy_ids
                assert [a.base_id(c) for c in copy_ids] == [origin[c][1] for c in copy_ids]
                got = classify_property1(emb, a.copy_ids(copy), POSITIONAL_TH)
                assert got == reference_classify(ref, copy_ids, POSITIONAL_TH)
                assert threshold_cut(emb, a.copy_ids(copy)) == reference_cut(ref, copy_ids)
                sub = induced_subgraph(combined, copy_ids)
                assert a.copy_graph(copy) == sub
                eps.append(build_epsilon_subgraph(emb, sub, POSITIONAL_TH))
                assert eps[-1] == reference_band(ref, sub, POSITIONAL_TH)
            other_edge = eps[1].graph.edges[0] if eps[1].graph.edges else None
            for anchor in (other_edge, None, (n, n + 1)):
                probe = odd_cycle_probe(emb, eps[0], anchor)
                assert probe == reference_probe(ref, eps[0], anchor, 0.004)
                if probe.bipartite:
                    # the bipartite step reads its coloring from the probe
                    assert Bipartition(*map(frozenset, probe.classes)) == find_odd_cycle(eps[0].graph)
        a = analyze_doubled(base, gram, POSITIONAL_TH)
        ref = LabelEmbedding(extract_vectors(gram).vectors, combined.vertices)
        assert (a.rep_p, a.rep_d) == tuple(
            reference_classify(ref, [c for c in origin if origin[c][0] == tag], POSITIONAL_TH)
            for tag in ("prime", "double_prime")
        )

    def test_cases_hit_the_band_edges_and_both_probe_outcomes(self):
        exact_half = exact_top = odd = bipartite = 0
        for seed in range(16):
            base, rows = random_doubled_case(seed)
            emb = embedding_of(rows)
            exact_half += emb.origin.count(0.5)
            exact_top += emb.origin.count(POSITIONAL_TH.band_top)
            eps = build_epsilon_subgraph(emb, DoubledAnalysis(base, emb, None, None).copy_graph(0), POSITIONAL_TH)
            if odd_cycle_probe(emb, eps, None).bipartite:
                bipartite += 1
            else:
                odd += 1
        assert exact_half and exact_top and odd and bipartite
