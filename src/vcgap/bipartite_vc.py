"""Exact vertex cover on bipartite graphs via maximum matching and the
alternating-path cover construction, plus the greedy maximal-matching
2-approximation used as a fallback everywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ArgumentError, ContractViolation
from .graph_core import Bipartition, Graph, verify_cover


@dataclass(frozen=True)
class Matching:
    """Set of vertex-disjoint edges."""

    edges: frozenset[tuple[int, int]]

    @property
    def size(self) -> int:
        return len(self.edges)


def _check_parts(g: Graph, parts: Bipartition) -> None:
    if parts.left & parts.right:
        raise ArgumentError("color classes overlap")
    if parts.left | parts.right != set(g.vertices):
        raise ArgumentError("color classes do not cover the vertex set")
    for u, v in g.edges:
        if (u in parts.left) == (v in parts.left):
            raise ArgumentError(f"edge ({u},{v}) lies inside one color class")


def max_matching(g: Graph, parts: Bipartition) -> Matching:
    """Maximum matching by repeated augmenting-path search from the left class.

    After the main loop, one more search over the unmatched left vertices
    confirms no augmenting path remains.
    """
    _check_parts(g, parts)
    left = sorted(parts.left)
    mate: dict[int, int] = {}  # right vertex -> left vertex

    def try_augment(root: int, visited: set[int]) -> bool:
        # Depth-first over alternating paths with an explicit stack, so path
        # length is not bounded by the recursion limit. Each frame is a left
        # vertex and its remaining neighbors; trying[i] is the right vertex
        # frame i currently tries. An unmatched right vertex ends the path,
        # and every frame then takes the right vertex it was trying.
        stack = [(root, iter(g.adjacency[root]))]
        trying: list[int] = []
        while stack:
            w = next((x for x in stack[-1][1] if x not in visited), None)
            if w is None:
                stack.pop()
                if trying:
                    trying.pop()
                continue
            visited.add(w)
            trying.append(w)
            if w not in mate:
                for (u, _), x in zip(stack, trying):
                    mate[x] = u
                return True
            stack.append((mate[w], iter(g.adjacency[mate[w]])))
        return False

    for u in left:
        try_augment(u, set())
    matched_left = set(mate.values())
    for u in left:
        if u not in matched_left and try_augment(u, set()):
            raise ContractViolation(f"matching was not maximum: augmenting path from {u}")
    edges = frozenset((min(u, w), max(u, w)) for w, u in mate.items())
    return Matching(edges)


def konig_cover(g: Graph, parts: Bipartition, m: Matching) -> frozenset[int]:
    """Minimum vertex cover from a maximum matching by alternating reachability.

    Grow the set reachable from unmatched left vertices along non-matching
    edges into the right class and matching edges back into the left class;
    the cover is the unreached left plus the reached right. Its size must
    equal the matching size or the matching was not maximum.
    """
    left = parts.left
    mate_of: dict[int, int] = {}
    for u, v in m.edges:
        mate_of[u] = v
        mate_of[v] = u
    matched_left = {v for v in mate_of if v in left}
    frontier = [v for v in sorted(left) if v not in matched_left]
    reached = set(frontier)
    while frontier:
        u = frontier.pop()
        if u in left:
            for w in g.adjacency[u]:
                if w not in reached and mate_of.get(u) != w:
                    reached.add(w)
                    frontier.append(w)
        else:
            w = mate_of.get(u)
            if w is not None and w not in reached:
                reached.add(w)
                frontier.append(w)
    cover = (left - reached) | (reached - left)
    uncovered = verify_cover(g, cover)
    if uncovered:
        raise ContractViolation(f"alternating-path cover missed edges {uncovered[:5]}")
    if len(cover) != m.size:
        raise ContractViolation(
            f"cover size {len(cover)} != matching size {m.size}; matching not maximum?"
        )
    return cover


def maximal_matching_cover(g: Graph) -> frozenset[int]:
    """Both endpoints of a greedy maximal matching, taken in edge id order.

    Always feasible and at most twice the optimum.
    """
    used: set[int] = set()
    for u, v in g.edges:
        if u not in used and v not in used:
            used.add(u)
            used.add(v)
    cover = frozenset(used)
    uncovered = verify_cover(g, cover)
    if uncovered:  # maximality of the greedy matching guarantees this never fires
        raise ContractViolation(f"matching cover missed edges {uncovered[:5]}")
    return cover
