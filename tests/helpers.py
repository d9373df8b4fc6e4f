"""Shared graph builders and independent brute-force oracles for the tests."""

from __future__ import annotations

import itertools

import numpy as np

from vcgap.graph_core import Graph, verify_cover
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


def random_gnp(n: int, p: float, seed: int) -> Graph:
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.build(range(n), edges)


def embedding_of(vectors: np.ndarray) -> VectorEmbedding:
    """Embedding of given rows (row 0 the distinguished vector, row v + 1
    vertex v), origin products taken row by row as extract_vectors does."""
    return VectorEmbedding(vectors, tuple(float(vectors[0] @ row) for row in vectors[1:]))


def brute_force_min_cover(g: Graph) -> int:
    """Smallest feasible cover by subset enumeration in increasing size."""
    for size in range(g.n + 1):
        for subset in itertools.combinations(g.vertices, size):
            if not verify_cover(g, frozenset(subset)):
                return size
    raise AssertionError("unreachable")


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
