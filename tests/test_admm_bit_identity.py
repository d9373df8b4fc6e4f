"""The ADMM loop in vcgap.sdp_solve against a plain per-block reference.

The reference below is the solver as first written: one projection per
block through lambdas, a copying affine projection through cho_solve, and
every intermediate recomputed. The production loop reorganizes the work
into fewer numpy calls but must apply the same floating-point operations
in the same order, because rounding-level differences in the Gram change
the pipeline's threshold decisions. Equality here is exact, not approximate.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from helpers import complete_graph, cycle_graph, random_gnp
from vcgap.graph_core import Graph, duplicate_join
from vcgap import sdp_solve
from vcgap.harness_cli import generate_graph
from vcgap.sdp_solve import (
    GramSolution,
    SdpProblem,
    admm_solve,
    build_sdp_doubled,
    build_sdp_single,
    psd_project,
)


def _ref_psd_project(mat):
    w, q = np.linalg.eigh((mat + mat.T) / 2.0)
    if w[0] >= 0.0:
        return (mat + mat.T) / 2.0
    w = np.maximum(w, 0.0)
    out = (q * w) @ q.T
    return (out + out.T) / 2.0


def _ref_normal_matrix_factor(p):
    if p.n_constraints == 0:
        return None
    nv = p.dim - 1
    btb = np.eye(nv)
    iv = p.con_i - 1
    jv = p.con_j - 1
    np.add.at(btb, (iv, iv), 1.0)
    np.add.at(btb, (jv, jv), 1.0)
    np.add.at(btb, (iv, jv), 1.0)
    np.add.at(btb, (jv, iv), 1.0)
    return (cho_factor(btb), iv, jv)


def _ref_project_affine(V, p, state):
    if state is None:
        return V
    factor, iv, jv = state
    I, J = p.con_i, p.con_j
    nv = p.dim - 1
    r = V[0, I] + V[0, J] - V[I, J] - 1.0
    t = np.bincount(iv, weights=r, minlength=nv) + np.bincount(jv, weights=r, minlength=nv)
    y = cho_solve(factor, t)
    lam = r - (y[iv] + y[jv])
    out = V.copy()
    c0 = np.bincount(iv, weights=lam, minlength=nv) + np.bincount(jv, weights=lam, minlength=nv)
    out[0, 1:] -= c0
    out[1:, 0] -= c0
    out[I, J] += lam
    out[J, I] += lam
    return out


def _ref_residuals(M, p):
    if p.n_constraints:
        r_eq = float(np.max(np.abs(M[0, p.con_i] + M[0, p.con_j] - M[p.con_i, p.con_j] - 1.0)))
    else:
        r_eq = 0.0
    r_box = float(max(np.max(p.lo - M, initial=0.0), np.max(M - p.hi, initial=0.0)))
    return r_eq, max(r_box, 0.0)


def reference_admm_solve(p: SdpProblem, moves: Counter | None = None) -> GramSolution:
    """The solver under sdp_solve's current OVER_RELAX, CHECK_EVERY and
    ADMM_MAX_ITER, with its own stopping tolerances; each penalty raise and
    lower is counted into `moves` when given."""
    moves = Counter() if moves is None else moves
    d = p.dim
    if d == 1:
        return GramSolution(np.ones((1, 1)), 0.0, 0.0, 0.0, 1.0, 0, True)
    factor = _ref_normal_matrix_factor(p)
    C = np.zeros((d, d))
    C[0, 1:] = 0.5
    C[1:, 0] = 0.5
    rho = max(1.0, math.sqrt(d))
    alpha = sdp_solve.OVER_RELAX
    check_every = sdp_solve.CHECK_EVERY
    max_iter = sdp_solve.ADMM_MAX_ITER
    tau_feas, tau_obj = 1e-5, 1e-6

    Z = np.eye(d)
    U = [np.zeros((d, d)) for _ in range(3)]
    projections = [
        lambda V: _ref_project_affine(V, p, factor),
        lambda V: np.clip(V, p.lo, p.hi),
        _ref_psd_project,
    ]

    cand = Z
    prev_obj = math.inf
    last_req = last_rbox = math.inf
    converged = False
    it = 0
    while it < max_iter:
        it += 1
        Z_prev = Z
        X = [proj(Z - U[i]) for i, proj in enumerate(projections)]
        Xh = [alpha * X[i] + (1.0 - alpha) * Z_prev for i in range(3)]
        Z = (Xh[0] + U[0] + Xh[1] + U[1] + Xh[2] + U[2]) / 3.0 - C / (3.0 * rho)
        for i in range(3):
            U[i] += Xh[i] - Z

        if it % check_every == 0:
            primal = math.sqrt(sum(float(np.sum((X[i] - Z) ** 2)) for i in range(3)))
            dual = rho * math.sqrt(3.0) * float(np.linalg.norm(Z - Z_prev))
            if primal > 5.0 * dual and rho < 1e5:
                rho *= 2.0
                for i in range(3):
                    U[i] /= 2.0
                moves["raise"] += 1
            elif dual > 50.0 * primal and rho > 1e-3:
                rho /= 2.0
                for i in range(3):
                    U[i] *= 2.0
                moves["lower"] += 1

        if it % check_every == 0 or it == max_iter:
            cand = X[2]
            last_req, last_rbox = _ref_residuals(cand, p)
            obj = float(cand[0, 1:].sum())
            if (
                last_req <= tau_feas
                and last_rbox <= tau_feas
                and abs(obj - prev_obj) <= tau_obj
            ):
                converged = True
                break
            prev_obj = obj

    w_min = float(np.linalg.eigvalsh((cand + cand.T) / 2.0)[0])
    return GramSolution(
        matrix=cand,
        objective_value=float(cand[0, 1:].sum()),
        max_equality_violation=last_req,
        max_box_violation=last_rbox,
        min_eigenvalue=w_min,
        iterations=it,
        converged=converged,
    )


def assert_identical(got: GramSolution, want: GramSolution) -> None:
    assert np.array_equal(got.matrix, want.matrix)
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    assert got.objective_value == want.objective_value
    assert got.max_equality_violation == want.max_equality_violation
    assert got.max_box_violation == want.max_box_violation
    assert got.min_eigenvalue == want.min_eigenvalue


def _single(g):
    return build_sdp_single(g)


def _doubled(g):
    return build_sdp_doubled(duplicate_join(g))


PROBLEMS = {
    "single-k3": lambda: _single(complete_graph(3)),
    "single-c5": lambda: _single(cycle_graph(5)),
    "single-gnp9": lambda: _single(random_gnp(9, 0.4, seed=11)),
    "doubled-k2": lambda: _doubled(complete_graph(2)),
    "doubled-c5": lambda: _doubled(cycle_graph(5)),
    "doubled-gnp8": lambda: _doubled(generate_graph("gnp", 8, 0.4, seed=3)),
    "doubled-bipartite8": lambda: _doubled(generate_graph("bipartite_gnp", 8, 0.65, seed=41048)),
    "doubled-stars": lambda: _doubled(generate_graph("star_union", 9, 3, seed=2)),
    "single-edgeless": lambda: _single(Graph.build(range(3), [])),  # m = 0
    "doubled-one-vertex": lambda: _doubled(Graph.build([4], [])),
    "single-one-vertex": lambda: _single(Graph.build([4], [])),  # dim 2, m = 0
    "dim-one": lambda: _single(Graph.build([], [])),
}

# Each case is values patched over sdp_solve's loop constants. At the
# defaults the penalty only rises (once, on single-c5); without
# over-relaxation it is lowered on several problems.
CASES = {
    "default": {},
    "max-iter-cutoff": {"ADMM_MAX_ITER": 137},
    "cutoff-off-check": {"ADMM_MAX_ITER": 60},
    "no-relax": {"ADMM_MAX_ITER": 4000, "OVER_RELAX": 1.0},
    "relax-1.5": {"ADMM_MAX_ITER": 4000, "OVER_RELAX": 1.5},
    "check-every-7": {"ADMM_MAX_ITER": 4000, "CHECK_EVERY": 7},
}


def _patch(monkeypatch, constants: dict) -> None:
    for name, value in constants.items():
        monkeypatch.setattr(sdp_solve, name, value)


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("prob_name", sorted(PROBLEMS))
def test_admm_matches_reference_bit_for_bit(prob_name, case, monkeypatch):
    p = PROBLEMS[prob_name]()
    _patch(monkeypatch, CASES[case])
    assert_identical(admm_solve(p), reference_admm_solve(p))


def test_reference_cases_exercise_both_stop_rules(monkeypatch):
    # The corpus above must contain converged and cut-off solves, or the
    # equality checks prove little.
    outcomes = set()
    for prob_name in ("doubled-gnp8", "doubled-c5"):
        p = PROBLEMS[prob_name]()
        for constants in CASES.values():
            with monkeypatch.context() as m:
                _patch(m, constants)
                outcomes.add(admm_solve(p).converged)
    assert outcomes == {True, False}


def test_reference_cases_exercise_both_penalty_moves(monkeypatch):
    # Likewise the penalty must be both raised and lowered somewhere, or the
    # balancing branches go unchecked.
    moves = Counter()
    for prob_name in ("single-c5", "single-gnp9"):
        p = PROBLEMS[prob_name]()
        for constants in CASES.values():
            with monkeypatch.context() as m:
                _patch(m, constants)
                reference_admm_solve(p, moves)
    assert moves["raise"] >= 1 and moves["lower"] >= 1


def test_blas_thread_count_leaves_the_gram_unchanged(monkeypatch):
    # vcgap sets one BLAS thread once per process; that is safe only because
    # the thread count does not change a single bit of the solve. At dim 41
    # a second OpenBLAS thread is active: the solve's CPU time doubles.
    p = _doubled(generate_graph("gnp", 20, 0.3, seed=777))
    monkeypatch.setattr(sdp_solve, "ADMM_MAX_ITER", 2000)
    try:
        assert {after for _, _, after in sdp_solve.set_openblas_threads(2)} == {2}
        two = admm_solve(p)
    finally:
        sdp_solve.set_openblas_threads(1)
    assert p.dim == 41
    assert_identical(admm_solve(p), two)


@pytest.mark.parametrize("prob_name", sorted(PROBLEMS))
def test_scipy_potrs_fallback_matches_numpys_openblas(prob_name, monkeypatch, tmp_path):
    # Where no mapped OpenBLAS exports potrs, the solver loads scipy's; both
    # must give the same bits. A maps file that does not exist forces that.
    assert sdp_solve._potrs_call.func is sdp_solve._openblas_potrs
    p = PROBLEMS[prob_name]()
    monkeypatch.setattr(sdp_solve, "ADMM_MAX_ITER", 4000)
    bound = admm_solve(p)
    fallback = sdp_solve._bind_potrs(str(tmp_path / "missing"))
    assert fallback.func is sdp_solve._scipy_potrs
    monkeypatch.setattr(sdp_solve, "_potrs_call", fallback)
    got = admm_solve(p)
    assert np.array_equal(got.matrix, bound.matrix)
    assert (got.iterations, got.converged) == (bound.iterations, bound.converged)


def test_psd_project_matches_reference():
    rng = np.random.default_rng(17)
    for d in (1, 2, 5, 17):
        a = rng.normal(size=(d, d))
        for mat in (a, a @ a.T, a - 3.0 * np.eye(d)):
            before = mat.copy()
            assert np.array_equal(psd_project(mat), _ref_psd_project(mat))
            assert np.array_equal(mat, before)
