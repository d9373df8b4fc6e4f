"""Shared graph builders and independent brute-force oracles for the tests."""

from __future__ import annotations

import itertools
import json
from dataclasses import fields

import numpy as np
from scipy.optimize import linprog

from vcgap.errors import ArgumentError
from vcgap.exact_oracle import STATUS_OPTIMAL, ExactResult
from vcgap.graph_core import Graph, verify_cover
from vcgap.lp_relax import TAU_HALF
from vcgap.sdp_solve import VectorEmbedding


def cycle_graph(k: int, start: int = 1) -> Graph:
    ids = list(range(start, start + k))
    return Graph.build(ids, [(ids[i], ids[(i + 1) % k]) for i in range(k)])


def complete_graph(k: int, start: int = 1) -> Graph:
    ids = list(range(start, start + k))
    return Graph.build(ids, [(u, v) for i, u in enumerate(ids) for v in ids[i + 1 :]])


def path_graph(k: int, start: int = 1) -> Graph:
    ids = list(range(start, start + k))
    return Graph.build(ids, [(ids[i], ids[i + 1]) for i in range(k - 1)])


def star_graph(leaves: int, center: int = 1) -> Graph:
    ids = list(range(center, center + leaves + 1))
    return Graph.build(ids, [(center, v) for v in ids[1:]])


def petersen_graph() -> Graph:
    outer = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5, 7), (7, 9), (9, 6), (6, 8), (8, 5)]
    return Graph.build(range(10), outer + spokes + inner)


def kneser_graph(m: int, k: int) -> Graph:
    """K(m, k): the k-subsets of range(m), in lexicographic order, joined when disjoint."""
    subsets = [set(c) for c in itertools.combinations(range(m), k)]
    pairs = itertools.combinations(range(len(subsets)), 2)
    return Graph.build(range(len(subsets)), [(i, j) for i, j in pairs if not subsets[i] & subsets[j]])


def random_gnp(n: int, p: float, seed: int) -> Graph:
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.build(range(n), edges)


def relabeled(g: Graph, seed) -> Graph:
    """Graph isomorphic to g on 0..n-1, vertices permuted by a seeded shuffle."""
    perm = np.random.default_rng(seed).permutation(g.n)
    new = {v: int(perm[i]) for i, v in enumerate(g.vertices)}
    return Graph.build(range(g.n), [(new[u], new[v]) for u, v in g.edges])


def check_plain_record(record, doc: dict, extra: tuple[str, ...] = ()) -> None:
    """`doc`, the JSON form of the dataclass `record`, has exactly the
    record's field names in declaration order, without a trace's `residual`
    and `gram`, then `extra`; and it comes back equal from a JSON round trip,
    so no tuple is left in it."""
    names = [f.name for f in fields(record) if f.name not in ("residual", "gram")]
    assert list(doc) == names + list(extra), list(doc)
    assert json.loads(json.dumps(doc)) == doc


def embedding_of(vectors: np.ndarray) -> VectorEmbedding:
    """Embedding of given rows (row 0 the distinguished vector, row v + 1
    vertex v), origin products taken row by row as extract_vectors does."""
    return VectorEmbedding(vectors, tuple(float(vectors[0] @ row) for row in vectors[1:]))


def exact_vc_enumerate(g: Graph, limit_n: int = 22) -> ExactResult:
    """Subset enumeration by increasing size; independent of the oracle's
    branch and bound."""
    if g.n > limit_n:
        raise ArgumentError(f"enumeration limited to n <= {limit_n}, got {g.n}")
    for size in range(g.n + 1):
        for subset in itertools.combinations(g.vertices, size):
            cover = frozenset(subset)
            if not verify_cover(g, cover):
                return ExactResult(STATUS_OPTIMAL, size, cover, 0)
    raise AssertionError("unreachable: the full vertex set always covers")


def sequential_lp_refine(g: Graph, z_star: float, tau_half: float = TAU_HALF, order=None) -> np.ndarray:
    """Reference for extreme_point_refine: one step LP per vertex, no
    shortcuts, each solved by scipy's HiGHS rather than the package's own
    simplex. Each vertex in `order` is minimized over the optimal face with
    the earlier ones fixed at their snapped minima; returns the values in
    vertex id order."""
    z = z_star
    if abs(2 * z - round(2 * z)) <= 1e-6 * max(1.0, g.n):
        z = round(2 * z) / 2.0
    pos = {v: i for i, v in enumerate(g.vertices)}
    # each edge row x_u + x_v >= 1 written as -x_u - x_v <= -1
    edge_rows = np.zeros((g.m, g.n))
    for row, (u, v) in enumerate(g.edges):
        edge_rows[row, [pos[u], pos[v]]] = -1.0
    bounds = [(0.0, 1.0)] * g.n
    values = np.zeros(g.n)
    for vid in g.vertices if order is None else order:
        k = pos[vid]
        obj = np.zeros(g.n)
        obj[k] = 1.0
        sol = linprog(
            obj,
            A_ub=edge_rows if g.m else None,
            b_ub=-np.ones(g.m) if g.m else None,
            A_eq=np.ones((1, g.n)),
            b_eq=[z],
            bounds=bounds,
            method="highs",
        )
        if sol.status != 0:
            raise ArgumentError(f"step LP for vertex {vid} failed: {sol.message}")
        val = float(sol.x[k])
        val = next((level for level in (0.0, 0.5, 1.0) if abs(val - level) <= tau_half), val)
        bounds[k] = (val, val)
        values[k] = val
    return values


def brute_force_min_cover(g: Graph) -> int:
    """Smallest feasible cover size by subset enumeration."""
    return exact_vc_enumerate(g, limit_n=g.n).size


def half_integral_grid_optimum(g: Graph) -> float:
    """Relaxation optimum by enumerating {0, 1/2, 1} assignments.

    Extreme optima of the cover relaxation are half-integral, so the grid
    minimum equals the LP optimum; this stays independent of the simplex path.
    """
    best = float("inf")
    pos = {v: i for i, v in enumerate(g.vertices)}
    for assignment in itertools.product((0.0, 0.5, 1.0), repeat=g.n):
        if all(assignment[pos[u]] + assignment[pos[v]] >= 1.0 for u, v in g.edges):
            best = min(best, sum(assignment))
    return best


def brute_force_is_bipartite(g: Graph) -> bool:
    """Try all 2^n colorings; independent of the BFS in graph_core."""
    verts = g.vertices
    pos = {v: i for i, v in enumerate(verts)}
    for mask in range(2 ** g.n):
        colors = [(mask >> i) & 1 for i in range(g.n)]
        if all(colors[pos[u]] != colors[pos[v]] for u, v in g.edges):
            return True
    return g.m == 0 or False


def brute_force_max_matching(g: Graph) -> int:
    """Largest set of pairwise-disjoint edges by subset enumeration."""
    best = 0
    for size in range(g.m, 0, -1):
        if size <= best:
            break
        for subset in itertools.combinations(g.edges, size):
            used = [v for e in subset for v in e]
            if len(used) == len(set(used)):
                best = max(best, size)
                break
    return best
