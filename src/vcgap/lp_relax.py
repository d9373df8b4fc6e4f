"""LP relaxation of minimum vertex cover and its half-integral structure.

The relaxation's optimum comes from one maximum matching: by Nemhauser and
Trotter (1975) it is half a minimum vertex cover C of the bipartite double
cover B(G), and x_v = |{v_L, v_R} & C| / 2 is an optimum on {0, 1/2, 1}
(`cover_relaxation`). A self-contained dense-tableau two-phase simplex
(anti-cycling via a Bland's-rule guard) solves the step LPs of the
sequential lexicographic refinement that pins down one extreme optimum from
there. Also here: classification of extreme optima into {0, 1/2, 1} levels,
and the kernel decomposition/recombination built on top of them.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bipartite_vc import konig_cover, max_matching
from .errors import ArgumentError, ContractViolation, SolverError, VcgapError
from .graph_core import Graph, bipartite_double_cover, induced_subgraph, verify_cover

log = logging.getLogger(__name__)

TAU_LP = 1e-7
TAU_HALF = 1e-4

_PIVOT_TOL = 1e-9
_LEVELS = (0.0, 0.5, 1.0)


class HalfIntegralityViolation(VcgapError):
    """An allegedly extreme LP optimum has a coordinate off the {0, 1/2, 1} grid."""

    def __init__(self, violations: list[tuple[int, float]]):
        self.violations = violations
        detail = ", ".join(f"x[{i}]={v:.6g}" for i, v in violations[:8])
        super().__init__(f"{len(violations)} non-half-integral coordinate(s): {detail}")


@dataclass
class LpProblem:
    """min objective . x subject to rows (>=, <=, =) and box bounds."""

    objective: np.ndarray
    rows: list[tuple[np.ndarray, str, float]]
    bounds: list[tuple[float, float]]
    labels: tuple[int, ...] | None = None

    def __post_init__(self):
        nv = len(self.objective)
        for coeffs, rel, _ in self.rows:
            if len(coeffs) != nv:
                raise ArgumentError(f"row width {len(coeffs)} != variable count {nv}")
            if rel not in (">=", "<=", "="):
                raise ArgumentError(f"unknown relation {rel!r}")
        if len(self.bounds) != nv:
            raise ArgumentError("bounds length != variable count")
        for lo, hi in self.bounds:
            if lo > hi:
                raise ArgumentError(f"empty bound interval [{lo}, {hi}]")

    @property
    def n_vars(self) -> int:
        return len(self.objective)


@dataclass
class LpSolution:
    values: np.ndarray | None
    objective_value: float | None
    status: str  # "optimal" | "infeasible" | "unbounded"
    iterations: int
    labels: tuple[int, ...] | None = None


def build_vc_lp(g: Graph) -> LpProblem:
    """One [0,1] variable per vertex, one x_u + x_v >= 1 row per edge, unit objective."""
    pos = {v: i for i, v in enumerate(g.vertices)}
    rows = []
    for u, v in g.edges:
        coeffs = np.zeros(g.n)
        coeffs[pos[u]] = 1.0
        coeffs[pos[v]] = 1.0
        rows.append((coeffs, ">=", 1.0))
    return LpProblem(np.ones(g.n), rows, [(0.0, 1.0)] * g.n, labels=g.vertices)


def cover_relaxation(g: Graph) -> LpSolution:
    """An optimum of g's cover relaxation from a minimum cover C of the
    bipartite double cover: x_v = |{v_L, v_R} & C| / 2, of value |C| / 2.

    Feasible, because C covers both edges u_L v_R and v_L u_R of each edge
    uv; optimal, because any feasible x doubled onto both copies is a
    fractional cover of B(g), worth at least its matching number |C| (Konig).
    Every value is an exact multiple of 1/2; `iterations` is 0.
    """
    b, parts = bipartite_double_cover(g)
    cover = konig_cover(b, parts, max_matching(b, parts))
    n = g.n
    values = np.array([((i in cover) + (n + i in cover)) / 2.0 for i in range(n)])
    return LpSolution(values, len(cover) / 2.0, "optimal", 0, labels=g.vertices)


def simplex_solve(p: LpProblem) -> LpSolution:
    """Two-phase dense tableau simplex returning a basic optimal solution.

    Variables fixed by their bounds are substituted out, the rest are shifted
    to start at zero, and finite upper bounds become explicit rows. Entering
    columns follow the most-negative rule until a degenerate streak trips the
    Bland's-rule guard, which guarantees termination.
    """
    nv = p.n_vars
    lo = np.array([b[0] for b in p.bounds], dtype=float)
    hi = np.array([b[1] for b in p.bounds], dtype=float)
    fixed = lo == hi
    free = np.flatnonzero(~fixed)
    x_base = np.where(fixed, lo, lo)  # fixed value or lower bound shift

    rows_std: list[tuple[np.ndarray, str, float]] = []
    for coeffs, rel, rhs in p.rows:
        shifted_rhs = rhs - float(coeffs @ x_base)
        fc = coeffs[free]
        if not fc.any():
            ok = (
                abs(shifted_rhs) <= TAU_LP
                if rel == "="
                else (shifted_rhs <= TAU_LP if rel == ">=" else shifted_rhs >= -TAU_LP)
            )
            if not ok:
                return LpSolution(None, None, "infeasible", 0, p.labels)
            continue
        rows_std.append((fc.copy(), rel, shifted_rhs))
    for k, j in enumerate(free):
        ub = hi[j] - lo[j]
        if np.isfinite(ub):
            coeffs = np.zeros(len(free))
            coeffs[k] = 1.0
            rows_std.append((coeffs, "<=", ub))

    if len(free) == 0:
        values = x_base.copy()
        return LpSolution(values, float(p.objective @ values), "optimal", 0, p.labels)

    status, y, iters = _two_phase(rows_std, p.objective[free].astype(float))
    if status != "optimal":
        return LpSolution(None, None, status, iters, p.labels)

    values = x_base.copy()
    values[free] += y
    np.clip(values, lo, hi, out=values)
    _validate(p, values, iters)
    return LpSolution(values, float(p.objective @ values), "optimal", iters, p.labels)


def _validate(p: LpProblem, values: np.ndarray, iters: int) -> None:
    for coeffs, rel, rhs in p.rows:
        lhs = float(coeffs @ values)
        bad = (
            abs(lhs - rhs) > TAU_LP
            if rel == "="
            else (lhs < rhs - TAU_LP if rel == ">=" else lhs > rhs + TAU_LP)
        )
        if bad:
            raise SolverError(
                f"optimal solution violates a row by {abs(lhs - rhs):.3g} "
                f"(> {TAU_LP:g}) after {iters} pivots"
            )


def _two_phase(rows: list[tuple[np.ndarray, str, float]], c: np.ndarray):
    nv = len(c)
    m = len(rows)
    A = np.zeros((m, nv))
    b = np.zeros(m)
    rels = []
    for i, (coeffs, rel, rhs) in enumerate(rows):
        if rhs < 0:
            coeffs = -coeffs
            rhs = -rhs
            rel = {">=": "<=", "<=": ">=", "=": "="}[rel]
        A[i] = coeffs
        b[i] = rhs
        rels.append(rel)

    n_slack = sum(1 for r in rels if r != "=")
    n_art = sum(1 for r in rels if r != "<=")
    ncols = nv + n_slack + n_art
    T = np.zeros((m + 1, ncols + 1))
    T[:m, :nv] = A
    T[:m, -1] = b
    basis = np.zeros(m, dtype=int)
    scol = nv
    acol = nv + n_slack
    art_cols = []
    for i, rel in enumerate(rels):
        if rel == "<=":
            T[i, scol] = 1.0
            basis[i] = scol
            scol += 1
        elif rel == ">=":
            T[i, scol] = -1.0
            scol += 1
            T[i, acol] = 1.0
            basis[i] = acol
            art_cols.append(acol)
            acol += 1
        else:
            T[i, acol] = 1.0
            basis[i] = acol
            art_cols.append(acol)
            acol += 1
    art_set = set(art_cols)

    iters = 0
    if art_cols:
        cost1 = np.zeros(ncols)
        cost1[art_cols] = 1.0
        T[m, :ncols] = cost1
        T[m, -1] = 0.0
        for i in range(m):
            if cost1[basis[i]]:
                T[m] -= cost1[basis[i]] * T[i]
        status, it1 = _pivot_loop(T, basis, forbidden=frozenset())
        iters += it1
        if status != "optimal":
            raise SolverError(f"phase-1 pivoting failed ({status}) after {iters} pivots")
        if -T[m, -1] > 1e-7:
            return "infeasible", None, iters
        _drive_out_artificials(T, basis, art_set)

    cost2 = np.zeros(ncols)
    cost2[:nv] = c
    T[m, :ncols] = cost2
    T[m, -1] = 0.0
    for i in range(m):
        if cost2[basis[i]]:
            T[m] -= cost2[basis[i]] * T[i]
    status, it2 = _pivot_loop(T, basis, forbidden=frozenset(art_set))
    iters += it2
    if status != "optimal":
        return status, None, iters

    y = np.zeros(nv)
    for i in range(m):
        if basis[i] < nv:
            y[basis[i]] = max(T[i, -1], 0.0)
    return "optimal", y, iters


def _drive_out_artificials(T: np.ndarray, basis: np.ndarray, art_set: set[int]) -> None:
    """Pivot basic artificials onto any usable non-artificial column.

    Rows where that is impossible are redundant; their artificial stays basic
    at zero and the column set stays excluded from phase-2 entering choices.
    """
    m = T.shape[0] - 1
    ncols = T.shape[1] - 1
    for i in range(m):
        if basis[i] in art_set:
            for j in range(ncols):
                if j not in art_set and abs(T[i, j]) > 1e-7:
                    _pivot(T, basis, i, j)
                    break


def _pivot_loop(T: np.ndarray, basis: np.ndarray, forbidden: frozenset[int]):
    m = T.shape[0] - 1
    ncols = T.shape[1] - 1
    max_iters = 2000 + 60 * (m + ncols)
    bland = False
    degenerate_streak = 0
    for it in range(max_iters):
        r = T[m, :ncols]
        candidates = np.flatnonzero(r < -_PIVOT_TOL)
        if forbidden:
            candidates = candidates[[j not in forbidden for j in candidates]]
        if len(candidates) == 0:
            return "optimal", it
        if bland:
            pc = int(candidates[0])
        else:
            pc = int(candidates[np.argmin(r[candidates])])

        col = T[:m, pc]
        pos = np.flatnonzero(col > _PIVOT_TOL)
        if len(pos) == 0:
            return "unbounded", it
        ratios = T[pos, -1] / col[pos]
        best = ratios.min()
        tied = pos[ratios <= best + 1e-12]
        pr = int(tied[np.argmin(basis[tied])])

        if best <= 1e-10:
            degenerate_streak += 1
            if degenerate_streak > 12:
                bland = True
        else:
            degenerate_streak = 0
            bland = False
        _pivot(T, basis, pr, pc)
    raise SolverError(f"simplex exceeded {max_iters} pivots (m={m}, n={ncols})")


def _pivot(T: np.ndarray, basis: np.ndarray, pr: int, pc: int) -> None:
    T[pr] /= T[pr, pc]
    col = T[:, pc].copy()
    col[pr] = 0.0
    T -= np.outer(col, T[pr])
    T[:, pc] = 0.0
    T[pr, pc] = 1.0
    basis[pr] = pc
    rhs = T[:-1, -1]
    rhs[(rhs < 0) & (rhs > -1e-11)] = 0.0


def extreme_point_refine(
    g: Graph, lp: LpSolution, tau_half: float = TAU_HALF, order: Sequence[int] | None = None
) -> LpSolution:
    """Pin down one extreme optimum of the relaxation by sequential minimization.

    `lp` is an optimum of g's relaxation, as cover_relaxation or
    simplex_solve returns it. For each vertex in `order` (vertex id order by
    default), minimize its variable over the optimal face (edge rows plus
    the sum pinned to lp's value, earlier variables fixed at their minimized
    values by bound tightening). Every minimized value lands on the
    {0, 1/2, 1} grid for vertex cover relaxations; values within tau_half of
    a grid level are snapped so the face equality stays exactly consistent
    across iterations. The result is the lexicographic minimum of the
    optimal grid points in `order`, whichever optimum `lp` is.

    The witness is a point of the face that satisfies every fixing made so
    far: first `lp` itself, then the last step LP's optimum. Each vertex is
    decided by the first of three rules that applies:

    1. Witness zero: the witness snaps to 0 at this vertex. It satisfies
       x >= 0, so the minimum is 0; the vertex is fixed with no LP.
    2. Forced one: a neighbour is already fixed at 0, so its edge row and
       the bound x <= 1 force 1; it is fixed with no LP. The witness stays
       on the face, since it has that neighbour at ~0 and so this vertex
       at ~1.
    3. Otherwise the step LP is solved, and its optimum becomes the witness.

    An `lp` that is not an optimum of g's relaxation raises
    ContractViolation when a step LP comes back infeasible, and SolverError
    when the refined values violate a row. The returned `iterations` counts
    the pivots of the step LPs solved, not of `lp` nor of the vertices the
    first two rules fixed.
    """
    if lp.status != "optimal" or lp.values is None or len(lp.values) != g.n:
        raise ArgumentError(f"need an optimum with {g.n} values, got status {lp.status!r}")
    pos = {v: i for i, v in enumerate(g.vertices)}
    order = tuple(order) if order is not None else g.vertices
    if sorted(order) != sorted(g.vertices):
        raise ArgumentError("refinement order must be a permutation of the vertex ids")
    # The relaxation optimum is a multiple of 1/2; snap within tolerance.
    z = lp.objective_value
    if abs(2 * z - round(2 * z)) <= 1e-6 * max(1.0, g.n):
        z = round(2 * z) / 2.0

    base = build_vc_lp(g)
    sum_row = (np.ones(g.n), "=", z)
    bounds: list[tuple[float, float]] = [(0.0, 1.0)] * g.n
    values = np.zeros(g.n)
    fixed_zero: set[int] = set()
    witness = lp.values
    iters = zeros = ones = 0
    for vid in order:
        k = pos[vid]
        if _snap(float(witness[k]), tau_half) == 0.0:
            val = 0.0
            zeros += 1
        elif not fixed_zero.isdisjoint(g.adjacency[vid]):
            val = 1.0
            ones += 1
        else:
            obj = np.zeros(g.n)
            obj[k] = 1.0
            sol = simplex_solve(LpProblem(obj, base.rows + [sum_row], list(bounds), labels=g.vertices))
            iters += sol.iterations
            if sol.status != "optimal":
                raise ContractViolation(
                    f"step LP for vertex {vid} came back {sol.status}; "
                    f"the given optimum (value {lp.objective_value!r}) is inconsistent with the relaxation"
                )
            witness = sol.values
            val = _snap(float(witness[k]), tau_half)
        if val == 0.0:
            fixed_zero.add(vid)
        bounds[k] = (val, val)
        values[k] = val

    log.debug("refined n=%d: %d step LPs, %d witness zeros, %d forced ones", g.n, g.n - zeros - ones, zeros, ones)
    _validate(LpProblem(np.ones(g.n), base.rows + [sum_row], [(0.0, 1.0)] * g.n), values, iters)
    return LpSolution(values, float(values.sum()), "optimal", iters, labels=g.vertices)


def _snap(val: float, tau_half: float) -> float:
    for level in _LEVELS:
        if abs(val - level) <= tau_half:
            return level
    return val


@dataclass(frozen=True)
class HalfIntegralDecomposition:
    """Partition of the vertex set by the levels of an extreme LP optimum."""

    v_zero: frozenset[int]
    v_half: frozenset[int]
    v_one: frozenset[int]
    lp_value: float


def classify_half_integral(s: LpSolution) -> HalfIntegralDecomposition:
    """Snap an extreme optimum onto {0, 1/2, 1} and partition the vertex ids.

    Raises HalfIntegralityViolation when any coordinate is farther than
    TAU_HALF from every level (which would falsify extremality).
    """
    if s.status != "optimal" or s.values is None:
        raise ArgumentError(f"cannot classify a solution with status {s.status!r}")
    labels = s.labels if s.labels is not None else tuple(range(len(s.values)))
    violations = []
    sets: dict[float, set[int]] = {0.0: set(), 0.5: set(), 1.0: set()}
    for label, val in zip(labels, s.values):
        level = min(_LEVELS, key=lambda L: abs(val - L))
        if abs(val - level) > TAU_HALF:
            violations.append((label, float(val)))
        else:
            sets[level].add(label)
    if violations:
        raise HalfIntegralityViolation(violations)
    lp_value = len(sets[1.0]) + len(sets[0.5]) / 2.0
    return HalfIntegralDecomposition(
        frozenset(sets[0.0]), frozenset(sets[0.5]), frozenset(sets[1.0]), lp_value
    )


def nt_decompose(g: Graph, lp: LpSolution | None = None) -> tuple[HalfIntegralDecomposition, Graph]:
    """Kernelize: refine the relaxation optimum `lp` (`cover_relaxation(g)`
    when it is omitted) to an extreme optimum, classify, and induce the
    residual graph on the half-valued vertices."""
    if lp is None:
        lp = cover_relaxation(g)
    decomp = classify_half_integral(extreme_point_refine(g, lp))
    return decomp, induced_subgraph(g, decomp.v_half)


def recombine(d: HalfIntegralDecomposition, residual_cover: frozenset[int], original: Graph) -> frozenset[int]:
    """Lift a residual-graph cover back to the original graph.

    The level-one vertices join the cover, the level-zero vertices stay out.
    The combined cover is verified against the original edge set.
    """
    cover = residual_cover | d.v_one
    uncovered = verify_cover(original, cover)
    if uncovered:
        raise ContractViolation(f"recombined cover misses edges {uncovered[:5]}")
    return cover
