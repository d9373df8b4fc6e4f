"""Ground-truth minimum vertex cover for desk-scale instances.

Branch and bound with degree-one folding, a greedy-matching lower bound, and
max-degree branching; an explicit node budget turns oversized searches into
an "unknown" result instead of a wrong number. A subset-enumeration mode
doubles as an independent check for small graphs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .bipartite_vc import maximal_matching_cover
from .errors import ArgumentError, ContractViolation
from .graph_core import Graph, verify_cover

STATUS_OPTIMAL = "optimal"
STATUS_UNKNOWN = "unknown"


@dataclass(frozen=True)
class ExactResult:
    status: str
    size: int | None
    cover: frozenset[int] | None
    nodes_explored: int


class _Budget(Exception):
    pass


def exact_vc(g: Graph, budget: int = 1_000_000) -> ExactResult:
    """Provably minimum vertex cover, or an explicit unknown when the node
    budget runs out."""
    adj = {v: set(ns) for v, ns in g.adjacency.items()}
    start = maximal_matching_cover(g)
    best = [len(start), set(start)]
    counter = [0]

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

    def search(a: dict[int, set[int]], chosen: set[int]) -> None:
        counter[0] += 1
        if counter[0] > budget:
            raise _Budget()
        a = {v: set(ns) for v, ns in a.items()}
        chosen = set(chosen)
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
            if len(chosen) < best[0]:
                best[0] = len(chosen)
                best[1] = chosen
            return
        if len(chosen) + matching_bound(a) >= best[0]:
            return
        v = max(sorted(a), key=lambda u: len(a[u]))
        # branch: v in the cover
        a1 = {u: set(ns) for u, ns in a.items()}
        remove_vertex(a1, v)
        search(a1, chosen | {v})
        # branch: v out, so all its neighbors are in
        ns = sorted(a[v])
        a2 = {u: set(ns2) for u, ns2 in a.items()}
        for w in ns:
            remove_vertex(a2, w)
        search(a2, chosen | set(ns))

    try:
        search(adj, set())
    except _Budget:
        return ExactResult(STATUS_UNKNOWN, None, None, counter[0])
    cover = frozenset(best[1])
    uncovered = verify_cover(g, cover)
    if uncovered:
        raise ContractViolation(f"oracle produced an infeasible cover: {uncovered[:5]}")
    return ExactResult(STATUS_OPTIMAL, best[0], cover, counter[0])


def exact_vc_enumerate(g: Graph, limit_n: int = 22) -> ExactResult:
    """Subset enumeration by increasing size; independent of the search above."""
    if g.n > limit_n:
        raise ArgumentError(f"enumeration limited to n <= {limit_n}, got {g.n}")
    verts = g.vertices
    for size in range(g.n + 1):
        for subset in itertools.combinations(verts, size):
            cover = frozenset(subset)
            if not verify_cover(g, cover):
                return ExactResult(STATUS_OPTIMAL, size, cover, 0)
    raise AssertionError("unreachable: the full vertex set always covers")
