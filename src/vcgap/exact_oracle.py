"""Ground-truth minimum vertex cover for desk-scale instances.

Branch and bound with degree-one folding, a greedy-matching lower bound, and
max-degree branching; an explicit node budget turns oversized searches into
an "unknown" result instead of a wrong number.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def exact_vc(g: Graph, budget: int = NODE_BUDGET) -> ExactResult:
    """Provably minimum vertex cover, or an explicit unknown when the node
    budget runs out."""
    adj = {v: set(ns) for v, ns in g.adjacency.items()}
    start = maximal_matching_cover(g)
    best_size, best_cover = len(start), set(start)
    nodes = 0

    def matching_bound(a: dict[int, set[int]]) -> int:
        used: set[int] = set()
        size = 0
        for u in sorted(a):
            if u in used:
                continue
            for w in sorted(a[u]):
                if w not in used:
                    used.add(u)
                    used.add(w)
                    size += 1
                    break
        return size

    def remove_vertex(a: dict[int, set[int]], v: int) -> None:
        for w in a.pop(v):
            a[w].discard(v)

    # Depth first over an explicit stack, visiting nodes in the order a
    # recursion would: an entry is a node's own (a, chosen), reduced in place
    # once popped, or (a, chosen, v) for the "v out" child of a branching
    # node, built when popped, after the "v in" child's whole subtree.
    stack: list[tuple] = [(adj, set())]
    while stack:
        a, chosen, *branch = stack.pop()
        if branch:
            # branch: v out, so all its neighbors are in
            ns = sorted(a[branch[0]])
            a = {u: set(ns2) for u, ns2 in a.items()}
            for w in ns:
                remove_vertex(a, w)
            chosen = chosen | set(ns)
        nodes += 1
        if nodes > budget:
            return ExactResult(STATUS_UNKNOWN, None, None, nodes)
        # reductions: drop isolated vertices, fold degree-one vertices
        changed = True
        while changed:
            changed = False
            for v in sorted(a):
                if v not in a:
                    continue
                if not a[v]:
                    del a[v]
                    changed = True
                elif len(a[v]) == 1:
                    w = next(iter(a[v]))
                    chosen.add(w)
                    remove_vertex(a, w)
                    if v in a and not a[v]:
                        del a[v]
                    changed = True
        if not a:
            if len(chosen) < best_size:
                best_size, best_cover = len(chosen), chosen
            continue
        if len(chosen) + matching_bound(a) >= best_size:
            continue
        v = max(sorted(a), key=lambda u: len(a[u]))
        stack.append((a, chosen, v))
        # branch: v in the cover
        a1 = {u: set(ns) for u, ns in a.items()}
        remove_vertex(a1, v)
        stack.append((a1, chosen | {v}))

    cover = frozenset(best_cover)
    uncovered = verify_cover(g, cover)
    if uncovered:
        raise ContractViolation(f"oracle produced an infeasible cover: {uncovered[:5]}")
    return ExactResult(STATUS_OPTIMAL, best_size, cover, nodes)

