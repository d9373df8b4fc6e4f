"""Acceptance suite: one test per criterion, each printing a PASS line with
its headline numbers. Run with `pytest -v -s tests/test_acceptance.py`.
"""

import time

import numpy as np
import pytest

from helpers import complete_graph
from vcgap.bipartite_vc import konig_cover, max_matching
from vcgap.exact_oracle import STATUS_OPTIMAL, exact_vc
from vcgap.graph_core import Bipartition, find_odd_cycle, verify_cover
from vcgap.harness_cli import generate_graph, run_batch, table_to_csv
from vcgap.lp_relax import (
    build_vc_lp,
    classify_half_integral,
    extreme_point_refine,
    nt_decompose,
    recombine,
    simplex_solve,
)
from vcgap.pipeline import evaluate_ratio, mahdis_run
from vcgap.rounding_geometry import (
    PropertyReport,
    certify_theorem3,
    perpendicular_completion_check,
    theorem4_lower_bound,
)
from vcgap.sdp_solve import admm_solve, build_sdp_doubled, build_sdp_single
from vcgap.graph_core import duplicate_join

GRID = (0.0, 0.5, 1.0)


def corpus_200(max_n=16):
    """200 seeded random graphs spanning n <= max_n and p in {0.1..0.9}."""
    graphs = []
    for i in range(200):
        n = 4 + (i % (max_n - 3))
        p = 0.1 + 0.1 * (i % 9)
        graphs.append(generate_graph("gnp", n, p, seed=10_000 + i))
    return graphs


def test_acceptance_1_half_integrality():
    start = time.perf_counter()
    worst = 0.0
    for idx, g in enumerate(corpus_200()):
        lp = simplex_solve(build_vc_lp(g))
        refined = extreme_point_refine(g, lp)
        classify_half_integral(refined)
        if g.n:
            dist = max(min(abs(v - level) for level in GRID) for v in refined.values)
            worst = max(worst, dist)
        if idx % 10 == 0:
            # independent measurement with snapping disabled
            raw = extreme_point_refine(g, lp, tau_half=0.0)
            if g.n:
                raw_dist = max(min(abs(v - level) for level in GRID) for v in raw.values)
                assert raw_dist <= 1e-4
                worst = max(worst, raw_dist)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 1 (half-integrality): PASS - 200/200 refined solutions on the "
        f"grid, worst distance {worst:.3g}, {elapsed:.1f}s"
    )


def test_acceptance_2_kernel_correctness():
    checked = 0
    for g in corpus_200():
        decomp, residual = nt_decompose(g)
        opt_g = exact_vc(g)
        opt_res = exact_vc(residual)
        assert opt_g.status == opt_res.status == STATUS_OPTIMAL
        assert opt_g.size == len(decomp.v_one) + opt_res.size
        combined = recombine(decomp, opt_res.cover, g)  # raises if infeasible
        assert len(combined) == opt_g.size
        checked += 1
    print(
        f"\nACCEPTANCE 2 (kernel optimality preservation): PASS - exact(g) = |V1| + "
        f"exact(residual) and feasible recombination on {checked}/200 instances"
    )


def test_acceptance_3_relaxation_sanity():
    instances = 0
    converged = 0
    for i in range(40):
        n = 4 + (i % 9)  # 4..12
        p = 0.1 + 0.1 * (i % 9)
        g = generate_graph("gnp", n, p, seed=20_000 + i)
        instances += 1
        z_exact = exact_vc(g).size
        z_lp = simplex_solve(build_vc_lp(g)).objective_value
        assert z_lp <= z_exact + 1e-7
        single = admm_solve(build_sdp_single(g))
        doubled = admm_solve(build_sdp_doubled(duplicate_join(g)))
        if single.converged and doubled.converged:
            converged += 1
            assert single.objective_value <= z_exact + 1e-3
            half = doubled.objective_value / 2.0
            assert single.objective_value - 1e-3 <= half <= z_exact + 1e-3
    rate = converged / instances
    assert rate >= 0.95
    print(
        f"\nACCEPTANCE 3 (relaxation sanity): PASS - bounds held on every converged "
        f"instance; convergence rate {converged}/{instances} = {rate:.0%}"
    )


def test_acceptance_4_closed_form_numbers():
    cert = certify_theorem3(999999, 1, 10**6)
    assert cert.claimed_ratio_bound == 1.999998  # tolerance zero
    n = 10**6
    report = PropertyReport(0, 20000, n, True, False)
    value = theorem4_lower_bound(report)
    expected = n / 2 + 0.0000035 * n
    assert abs(value - expected) <= abs(expected) * 1e-12  # 12 significant digits
    print(
        f"\nACCEPTANCE 4 (closed-form numbers): PASS - ratio bound 1.999998 exact, "
        f"lower bound {value!r} vs {expected!r}"
    )


def test_acceptance_5_completion_identity():
    rng = np.random.default_rng(999)
    start = time.perf_counter()
    worst_exact = 0.0
    worst_perturbed = 0.0
    for trial in range(1000):
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        quad = [q[:, i] for i in range(4)]
        if trial % 2 == 0:
            v = 0.5 * sum(quad)
            report = perpendicular_completion_check(quad, v, tol=1e-12)
            assert report.passed
            worst_exact = max(worst_exact, report.identity_defect)
        else:
            noisy = []
            for w in quad:
                w = w + 1e-6 * rng.normal(size=6)
                noisy.append(w / np.linalg.norm(w))
            v = 0.5 * sum(noisy)
            v = v / np.linalg.norm(v)
            report = perpendicular_completion_check(noisy, v, tol=1e-4)
            assert report.passed
            worst_perturbed = max(
                worst_perturbed,
                max(report.identity_defect, report.product_defect, report.perpendicularity_defect),
            )
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(
        f"\nACCEPTANCE 5 (completion identity): PASS - 1000 trials in {elapsed:.2f}s, "
        f"exact defect <= {worst_exact:.2e}, perturbed defect <= {worst_perturbed:.2e}"
    )


def test_acceptance_6_bipartite_exactness():
    checked = 0
    for i in range(200):
        n = 4 + (i % 17)  # 4..20
        p = 0.15 + 0.1 * (i % 8)
        g = generate_graph("bipartite_gnp", n, p, seed=30_000 + i)
        parts = find_odd_cycle(g)
        assert isinstance(parts, Bipartition)
        matching = max_matching(g, parts)
        cover = konig_cover(g, parts, matching)
        assert len(cover) == matching.size == exact_vc(g).size
        checked += 1
    print(
        f"\nACCEPTANCE 6 (alternating-path exactness): PASS - cover = matching = "
        f"optimum on {checked}/200 bipartite instances"
    )


def test_acceptance_7_pipeline_feasibility_and_ratio():
    specs = []
    for i in range(150):
        specs.append(("gnp", 4 + (i % 11), 0.1 + 0.1 * (i % 9), 40_000 + i))
    for i in range(50):
        specs.append(("bipartite_gnp", 4 + (i % 11), 0.2 + 0.15 * (i % 5), 41_000 + i))
    for i in range(50):
        specs.append(("odd_cycle_rich", 4 + (i % 11), 0.05 * (i % 4), 42_000 + i))
    for i in range(50):
        specs.append(("star_union", 4 + (i % 11), 2 + (i % 3), 43_000 + i))
    assert len(specs) == 300

    worst = 0.0
    steps: dict[str, int] = {}
    cert_violations = 0
    theorem6_violations = 0
    nonconverged = 0
    p1_holds = 0
    for model, n, p, seed in specs:
        g = generate_graph(model, n, p, seed)
        trace = evaluate_ratio(mahdis_run(g), exact_vc(g))
        assert verify_cover(g, frozenset(trace.in_cover)) == [], f"infeasible cover on {model}-n{n}-p{p}-s{seed}"
        assert trace.empirical_ratio is not None
        assert trace.empirical_ratio <= 2.0 + 1e-9
        worst = max(worst, trace.empirical_ratio)
        steps[trace.step_taken] = steps.get(trace.step_taken, 0) + 1
        cert_violations += 1 if trace.certificate_violated else 0
        theorem6_violations += 1 if "theorem6_violation" in trace.flags else 0
        nonconverged += 1 if "sdp_nonconverged" in trace.flags else 0
        pp, pd = trace.property_prime, trace.property_double_prime
        if pp and pd and pp["holds"] and pd["holds"]:
            p1_holds += 1
    print(
        f"\nACCEPTANCE 7 (pipeline feasibility/ratio): PASS - 300/300 feasible, "
        f"max ratio {worst:.6f}; steps {dict(sorted(steps.items()))}; "
        f"property-1 held on {p1_holds}; certificate violations {cert_violations}; "
        f"theorem-6 violations {theorem6_violations}; nonconverged {nonconverged} "
        f"(flags are findings, not failures)"
    )


def test_acceptance_8_batch_determinism():
    batch = {
        "corpus": [
            {"model": "gnp", "n": 10, "parameter": 0.3, "seed": 7, "count": 4},
            {"model": "bipartite_gnp", "n": 10, "parameter": 0.4, "seed": 11, "count": 2},
            {"model": "odd_cycle_rich", "n": 9, "parameter": 0.1, "seed": 13, "count": 2},
            {"model": "star_union", "n": 8, "parameter": 4, "seed": 17, "count": 2},
        ]
    }
    first = table_to_csv(run_batch(batch))
    second = table_to_csv(run_batch(batch, jobs=2))
    assert first.encode() == second.encode()
    print(
        f"\nACCEPTANCE 8 (determinism): PASS - two batch runs (serial vs 2 workers) "
        f"produced byte-identical CSV ({len(first)} bytes, 10 instances)"
    )


def test_acceptance_9_desk_scale_runtime():
    g = generate_graph("gnp", 30, 0.3, seed=777)
    start = time.perf_counter()
    trace = evaluate_ratio(mahdis_run(g), exact_vc(g))
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    assert verify_cover(g, frozenset(trace.in_cover)) == []
    assert trace.z_sdp_doubled is not None  # the doubled solve (dim 61) really ran
    print(
        f"\nACCEPTANCE 9 (desk-scale runtime): PASS - n=30 end-to-end in {elapsed:.1f}s "
        f"(doubled solve dim 61, {trace.sdp_iterations} iterations, "
        f"ratio {trace.empirical_ratio:.4f})"
    )
