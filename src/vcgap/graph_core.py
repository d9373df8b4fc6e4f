"""Immutable undirected graphs: DIMACS parsing, induced subgraphs, the
doubled-graph construction, the bipartite double cover, odd-cycle detection,
cover verification, and `to_plain`, the JSON form of every trace record. A
cover is the frozenset of the vertex ids in it.

Vertex ids are stable integers that survive induced subgraphs; the doubled
graph and the double cover number their vertices by position, so vertices i
and n+i are the two copies of the i-th base vertex. The pipeline builds the
doubled relaxation from the base graph itself (`sdp_solve.build_sdp_doubled`);
`duplicate_join` writes the doubled graph out, as the reference that builder
is checked against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Iterable, Mapping, Sequence

from .errors import ArgumentError, ContractViolation, ParseError, check_int, check_keys, is_int


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph. Instances are immutable after construction."""

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    adjacency: Mapping[int, tuple[int, ...]] = field(repr=False)

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    @staticmethod
    def build(vertices: Iterable[int], edges: Iterable[tuple[int, int]]) -> "Graph":
        """Validate and normalize: edges deduplicated, stored as (min, max) pairs.

        Raises ArgumentError on self-loops or edge endpoints not listed in
        `vertices`.
        """
        verts = tuple(sorted(set(vertices)))
        vset = set(verts)
        norm: set[tuple[int, int]] = set()
        for u, v in edges:
            if u == v:
                raise ArgumentError(f"self-loop at vertex {u}")
            if u not in vset or v not in vset:
                raise ArgumentError(f"edge ({u},{v}) references unknown vertex")
            norm.add((u, v) if u < v else (v, u))
        edge_tuple = tuple(sorted(norm))
        adj: dict[int, list[int]] = {v: [] for v in verts}
        for u, v in edge_tuple:
            adj[u].append(v)
            adj[v].append(u)
        adjacency = {v: tuple(sorted(ns)) for v, ns in adj.items()}
        return Graph(verts, edge_tuple, adjacency)

    def to_json(self) -> str:
        """Canonical JSON form: vertices relabeled 0..n-1 in sorted id order."""
        return json.dumps(to_plain(self))


def to_plain(value):
    """The JSON-ready form of a record: a Graph as its canonical
    {"n", "edges"} document, a dataclass as the dict of its fields in
    declaration order (fields marked metadata={"json": False} left out),
    every tuple and list as a fresh list and every dict as a fresh dict, with
    their items converted the same way; anything else as it is."""
    if isinstance(value, Graph):
        pos = {v: i for i, v in enumerate(value.vertices)}
        return {"n": value.n, "edges": [[pos[u], pos[v]] for u, v in value.edges]}
    if is_dataclass(value):
        return {f.name: to_plain(getattr(value, f.name)) for f in fields(value) if f.metadata.get("json", True)}
    if isinstance(value, (tuple, list)):
        return [to_plain(item) for item in value]
    if isinstance(value, dict):
        return {key: to_plain(item) for key, item in value.items()}
    return value


def graph_from_json(text: str) -> Graph:
    """Inverse of Graph.to_json; vertices are 0..n-1. Raises ArgumentError
    naming the key unless the document is {"n": int, "edges": [[u, v], ...]}."""
    doc = json.loads(text)
    check_keys("graph", doc, ("n", "edges"))
    check_int("graph.n", doc["n"], low=0)
    edges = doc["edges"]
    pairs = isinstance(edges, list) and all(isinstance(e, list) and len(e) == 2 and all(map(is_int, e)) for e in edges)
    if not pairs:
        raise ArgumentError(f"graph.edges must be a list of [u, v] vertex pairs, got {edges!r}")
    return Graph.build(range(doc["n"]), map(tuple, edges))


def parse_dimacs(text: str | bytes) -> Graph:
    """Read DIMACS edge format: a "p edge n m" header then "e u v" lines, 1-based.

    Comment lines ("c ...") and blank lines are skipped. Duplicate edge lines
    are deduplicated. Raises ParseError (naming the line number) on a
    malformed header, out-of-range vertex ids, or self-loops.
    """
    if isinstance(text, bytes):
        text = text.decode("ascii", errors="replace")
    n = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise ParseError(f"line {lineno}: duplicate problem header")
            if len(parts) != 4 or parts[1] != "edge":
                raise ParseError(f"line {lineno}: malformed header {line!r}")
            try:
                n = int(parts[2])
                declared_m = int(parts[3])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer header fields") from None
            if n < 0 or declared_m < 0:
                raise ParseError(f"line {lineno}: negative counts in header")
        elif parts[0] == "e":
            if n is None:
                raise ParseError(f"line {lineno}: edge before problem header")
            if len(parts) != 3:
                raise ParseError(f"line {lineno}: malformed edge line {line!r}")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer vertex id") from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"line {lineno}: vertex id out of range 1..{n}")
            if u == v:
                raise ParseError(f"line {lineno}: self-loop at vertex {u}")
            edges.append((u, v))
        else:
            raise ParseError(f"line {lineno}: unrecognized line {line!r}")
    if n is None:
        raise ParseError("missing problem header")
    return Graph.build(range(1, n + 1), edges)


def write_dimacs(g: Graph) -> str:
    """Serialize to DIMACS edge format, relabeling vertices to 1..n."""
    pos = {v: i + 1 for i, v in enumerate(g.vertices)}
    lines = [f"p edge {g.n} {g.m}"]
    lines.extend(f"e {pos[u]} {pos[v]}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def induced_subgraph(g: Graph, keep: Iterable[int]) -> Graph:
    """Subgraph on `keep` with original vertex ids preserved."""
    keep_set = set(keep)
    missing = keep_set - set(g.vertices)
    if missing:
        raise ArgumentError(f"vertices not in graph: {sorted(missing)}")
    edges = [(u, v) for u, v in g.edges if u in keep_set and v in keep_set]
    return Graph.build(keep_set, edges)


def duplicate_join(g: Graph) -> Graph:
    """Two copies of g on the positional ids 0..2n-1, vertex i and n+i copying
    the i-th base vertex, with every (prime, double-prime) pair as an edge, so
    2m + n^2 edges in all."""
    n = g.n
    pos = {v: i for i, v in enumerate(g.vertices)}
    edges: list[tuple[int, int]] = []
    for u, v in g.edges:
        edges.append((pos[u], pos[v]))
        edges.append((n + pos[u], n + pos[v]))
    for i in range(n):
        for j in range(n):
            edges.append((i, n + j))
    combined = Graph.build(range(2 * n), edges)
    if combined.m != 2 * g.m + n * n:
        raise ContractViolation(f"doubled graph has {combined.m} edges, expected {2 * g.m + n * n}")
    return combined


@dataclass(frozen=True)
class Bipartition:
    """Two color classes of a bipartite graph (no intra-class edges)."""

    left: frozenset[int]
    right: frozenset[int]


def bipartite_double_cover(g: Graph) -> tuple[Graph, Bipartition]:
    """The bipartite double cover B(g) = g x K2 and its two sides.

    Vertex ids are positional, as in the doubled graph: i and n+i are the
    left and right copies of the i-th base vertex, and each edge uv of g
    gives the two edges u_L v_R and v_L u_R, so B(g) has 2n vertices and 2m
    edges.
    """
    n = g.n
    pos = {v: i for i, v in enumerate(g.vertices)}
    edges = [e for u, v in g.edges for e in ((pos[u], n + pos[v]), (pos[v], n + pos[u]))]
    return Graph.build(range(2 * n), edges), Bipartition(frozenset(range(n)), frozenset(range(n, 2 * n)))


@dataclass(frozen=True)
class OddCycle:
    """Vertex sequence of a simple odd cycle; consecutive pairs (cyclically) are edges."""

    vertices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.vertices)


def find_odd_cycle(g: Graph) -> Bipartition | OddCycle:
    """2-color g by BFS; return the coloring, or an odd cycle witnessing failure.

    Both outcomes are verified against the edge set before returning.
    """
    color: dict[int, int] = {}
    parent: dict[int, int | None] = {}
    depth: dict[int, int] = {}
    for root in g.vertices:
        if root in color:
            continue
        color[root] = 0
        parent[root] = None
        depth[root] = 0
        queue = [root]
        while queue:
            u = queue.pop(0)
            for w in g.adjacency[u]:
                if w not in color:
                    color[w] = 1 - color[u]
                    parent[w] = u
                    depth[w] = depth[u] + 1
                    queue.append(w)
                elif color[w] == color[u]:
                    cycle = _cycle_through(u, w, parent, depth)
                    _check_odd_cycle(g, cycle)
                    return OddCycle(tuple(cycle))
    left = frozenset(v for v in g.vertices if color[v] == 0)
    right = frozenset(v for v in g.vertices if color[v] == 1)
    for u, v in g.edges:
        if (u in left) == (v in left):
            raise ContractViolation(f"coloring failed verification on edge ({u},{v})")
    return Bipartition(left, right)


def _cycle_through(u: int, w: int, parent: Mapping[int, int | None], depth: Mapping[int, int]) -> list[int]:
    """Simple cycle formed by edge (u, w) plus the two tree paths to their LCA."""
    path_u, path_w = [u], [w]
    a, b = u, w
    while depth[a] > depth[b]:
        a = parent[a]
        path_u.append(a)
    while depth[b] > depth[a]:
        b = parent[b]
        path_w.append(b)
    while a != b:
        a = parent[a]
        b = parent[b]
        path_u.append(a)
        path_w.append(b)
    # path_u ends at the LCA; path_w's copy of it is dropped.
    return path_u + path_w[-2::-1]


def _check_odd_cycle(g: Graph, cycle: Sequence[int]) -> None:
    t = len(cycle)
    if t % 2 != 1 or t < 3:
        raise ContractViolation(f"cycle length {t} is not odd >= 3")
    edge_set = set(g.edges)
    for i in range(t):
        u, v = cycle[i], cycle[(i + 1) % t]
        if (min(u, v), max(u, v)) not in edge_set:
            raise ContractViolation(f"({u},{v}) not an edge")


def verify_cover(g: Graph, cover: frozenset[int]) -> list[tuple[int, int]]:
    """Edges of g with neither endpoint in `cover`, in edge order.

    Raises ArgumentError when the cover names a vertex g lacks.
    """
    foreign = [v for v in cover if v not in g.adjacency]
    if foreign:
        raise ArgumentError(f"cover names vertices not in the graph: {sorted(foreign)}")
    return [(u, v) for u, v in g.edges if u not in cover and v not in cover]
