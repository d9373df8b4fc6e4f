"""Ground-truth minimum vertex cover for desk-scale instances.

Branch and bound with degree-one folding, a greedy-matching lower bound, and
max-degree branching; an explicit node budget turns oversized searches into
an "unknown" result instead of a wrong number.

A search node is two bitsets over vertex positions (bit i is the i-th vertex
in id order): the vertices still in play and the vertices chosen. Neighbour
masks are built once, so a node shares everything else with its parent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .bipartite_vc import maximal_matching_cover
from .errors import ContractViolation
from .graph_core import Graph, verify_cover

STATUS_OPTIMAL = "optimal"
STATUS_UNKNOWN = "unknown"
NODE_BUDGET = 1_000_000


@dataclass(frozen=True)
class ExactResult:
    status: str
    size: int | None
    cover: frozenset[int] | None
    nodes_explored: int


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def exact_vc(g: Graph, budget: int = NODE_BUDGET) -> ExactResult:
    """Provably minimum vertex cover, or an explicit unknown when the node
    budget runs out."""
    pos = {v: i for i, v in enumerate(g.vertices)}
    nbr = [0] * g.n
    for u, v in g.edges:
        nbr[pos[u]] |= 1 << pos[v]
        nbr[pos[v]] |= 1 << pos[u]
    best_cover = sum(1 << pos[v] for v in maximal_matching_cover(g))
    best_size = best_cover.bit_count()
    nodes = 0

    def matching_bound(alive: int) -> int:
        used = 0
        for u in _bits(alive):
            if used >> u & 1:
                continue
            free = nbr[u] & alive & ~used
            if free:
                used |= 1 << u | free & -free  # u and its lowest free neighbour
        return used.bit_count() // 2

    # Depth first over an explicit stack of (alive, chosen) nodes, popped in
    # the order a recursion would visit them: a branching node pushes its
    # "v out" child below its "v in" child.
    stack = [((1 << g.n) - 1, 0)]
    while stack:
        alive, chosen = stack.pop()
        nodes += 1
        if nodes > budget:
            return ExactResult(STATUS_UNKNOWN, None, None, nodes)
        # reductions: drop isolated vertices, fold degree-one vertices (into
        # the neighbour, after which the vertex is isolated too)
        changed = True
        while changed:
            changed = False
            for v in _bits(alive):
                if not alive >> v & 1:
                    continue
                ns = nbr[v] & alive
                if ns & (ns - 1) == 0:
                    chosen |= ns
                    alive &= ~(ns | 1 << v)
                    changed = True
        if not alive:
            if chosen.bit_count() < best_size:
                best_size, best_cover = chosen.bit_count(), chosen
            continue
        if chosen.bit_count() + matching_bound(alive) >= best_size:
            continue
        v = max(_bits(alive), key=lambda u: (nbr[u] & alive).bit_count())
        ns = nbr[v] & alive
        stack.append((alive & ~ns, chosen | ns))  # v out: all its neighbours in
        stack.append((alive & ~(1 << v), chosen | 1 << v))  # v in

    cover = frozenset(g.vertices[i] for i in _bits(best_cover))
    uncovered = verify_cover(g, cover)
    if uncovered:
        raise ContractViolation(f"oracle produced an infeasible cover: {uncovered[:5]}")
    return ExactResult(STATUS_OPTIMAL, best_size, cover, nodes)
