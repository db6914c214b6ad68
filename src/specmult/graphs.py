"""Undirected simple graphs on dense 0-based vertex ids.

A Graph is an immutable value: a vertex count plus a sorted tuple of
edges (u, v) with u < v. Vertex deletion returns a fresh graph together
with an explicit child-to-parent id map (SubgraphMap) so principal
submatrices of a pattern matrix stay aligned with induced subgraphs.

The on-disk format is line oriented: first line "n m", then m lines
"u v" with 0 <= u < v < n. Lines starting with "#" are comments.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    DuplicateEdge,
    IndexOutOfRange,
    LoopEdge,
    MissingEdge,
    ParameterOutOfRange,
    ParseError,
)

Edge = tuple[int, int]
# A vertex set is always carried as a sorted tuple of distinct ids.
VertexSet = tuple[int, ...]


def _normalize_edges(n: int, edges: Iterable[Sequence[int]]) -> tuple[Edge, ...]:
    seen = set()
    out = []
    for e in edges:
        u, v = int(e[0]), int(e[1])
        if u == v:
            raise LoopEdge(f"loop edge at vertex {u}")
        if u > v:
            u, v = v, u
        if not (0 <= u and v < n):
            raise IndexOutOfRange(f"edge ({u}, {v}) outside vertex range 0..{n - 1}")
        if (u, v) in seen:
            raise DuplicateEdge(f"edge ({u}, {v}) declared twice")
        seen.add((u, v))
        out.append((u, v))
    out.sort()
    return tuple(out)


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph. Edges are stored sorted with u < v."""

    n: int
    edges: tuple[Edge, ...]

    def __init__(self, n: int, edges: Iterable[Sequence[int]] = ()):
        if n < 0:
            raise ParameterOutOfRange("vertex count must be nonnegative")
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "edges", _normalize_edges(int(n), edges))

    @functools.cached_property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbor tuples, indexed by vertex."""
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(tuple(sorted(a)) for a in nbrs)

    @functools.cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.adj)

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self.edge_set

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, edges={list(self.edges)})"


@dataclass(frozen=True)
class SubgraphMap:
    """An induced subgraph plus the injective map child id -> parent id.

    to_parent[i] is the parent vertex that child vertex i came from;
    the tuple is strictly increasing so submatrix extraction is stable.
    """

    child: Graph
    to_parent: tuple[int, ...]

    def parent_of(self, child_vertex: int) -> int:
        return self.to_parent[child_vertex]


def parse_graph(text: str) -> Graph:
    """Parse the line-oriented edge-list format into a Graph."""
    header = None
    declared_m = 0
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise ParseError(line_no, "header must be 'n m'")
            try:
                n, declared_m = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(line_no, "header must contain two integers")
            if n < 0 or declared_m < 0:
                raise ParseError(line_no, "header counts must be nonnegative")
            header = (n, declared_m)
            continue
        if len(parts) != 2:
            raise ParseError(line_no, "edge line must be 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(line_no, "edge line must contain two integers")
        if u == v:
            raise LoopEdge(f"line {line_no}: loop edge at vertex {u}")
        if not (0 <= min(u, v) and max(u, v) < header[0]):
            raise IndexOutOfRange(
                f"line {line_no}: edge ({u}, {v}) outside vertex range 0..{header[0] - 1}"
            )
        key = (min(u, v), max(u, v))
        if key in seen:
            raise DuplicateEdge(f"line {line_no}: edge ({u}, {v}) declared twice")
        seen.add(key)
        edges.append((u, v))
    if header is None:
        raise ParseError(0, "empty graph file")
    if len(edges) != declared_m:
        raise ParseError(0, f"declared {declared_m} edges, found {len(edges)}")
    return Graph(header[0], edges)


def serialize_graph(g: Graph) -> str:
    """Inverse of parse_graph; output reparses to an identical graph."""
    lines = [f"{g.n} {len(g.edges)}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def components(g: Graph) -> list[VertexSet]:
    """Partition of the vertices into maximal connected sets."""
    seen = [False] * g.n
    out: list[VertexSet] = []
    for start in range(g.n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in g.adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        out.append(tuple(sorted(comp)))
    return out


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(components(g)) == 1


def cyclomatic_number(g: Graph) -> int:
    """|E| - |V| + (number of components); zero exactly for forests."""
    return len(g.edges) - g.n + len(components(g))


def pendant_vertices(g: Graph) -> VertexSet:
    """Vertices of degree exactly 1."""
    return tuple(v for v in range(g.n) if g.degree(v) == 1)


def induced_subgraph(g: Graph, keep: Iterable[int]) -> SubgraphMap:
    """Induced subgraph on the given vertices, relabeled 0..k-1 in sorted order."""
    keep_sorted = tuple(sorted(set(int(v) for v in keep)))
    for v in keep_sorted:
        if not (0 <= v < g.n):
            raise IndexOutOfRange(f"vertex {v} outside range 0..{g.n - 1}")
    index = {v: i for i, v in enumerate(keep_sorted)}
    child_edges = [
        (index[u], index[v]) for u, v in g.edges if u in index and v in index
    ]
    return SubgraphMap(Graph(len(keep_sorted), child_edges), keep_sorted)


def delete_vertices(g: Graph, drop: Iterable[int]) -> SubgraphMap:
    """Induced subgraph on V minus the dropped set, with id map to the parent."""
    drop_set = set(int(v) for v in drop)
    for v in drop_set:
        if not (0 <= v < g.n):
            raise IndexOutOfRange(f"vertex {v} outside range 0..{g.n - 1}")
    return induced_subgraph(g, (v for v in range(g.n) if v not in drop_set))


def delete_edge(g: Graph, e: Sequence[int]) -> Graph:
    """Same vertex set with one edge removed."""
    u, v = int(e[0]), int(e[1])
    if u > v:
        u, v = v, u
    if (u, v) not in g.edge_set:
        raise MissingEdge(f"edge ({u}, {v}) not in graph")
    return Graph(g.n, tuple(x for x in g.edges if x != (u, v)))


def bfs_distances(g: Graph, source: int) -> list[int]:
    """Hop distances from source; -1 for unreachable vertices."""
    if not (0 <= source < g.n):
        raise IndexOutOfRange(f"vertex {source} outside range 0..{g.n - 1}")
    dist = [-1] * g.n
    dist[source] = 0
    frontier = [source]
    while frontier:
        nxt = []
        for v in frontier:
            for w in g.adj[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


# ---------------------------------------------------------------------------
# Builders for the standard shapes used throughout the test corpus.


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ParameterOutOfRange("path needs at least 1 vertex")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ParameterOutOfRange("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    """K_{1,leaves}: vertex 0 joined to each leaf."""
    if leaves < 1:
        raise ParameterOutOfRange("star needs at least 1 leaf")
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def theta_graph(p: int, q: int, l: int) -> Graph:
    """Three internally disjoint paths of lengths p, q, l sharing both ends.

    Simplicity requires at most one of the lengths to be 1.
    Vertex 0 and 1 are the two endpoints shared by all three paths.
    """
    lengths = sorted((p, q, l), reverse=True)
    if lengths[-1] < 1:
        raise ParameterOutOfRange("theta path lengths must be >= 1")
    if lengths[1] == 1:
        raise ParameterOutOfRange("at most one theta path may have length 1")
    edges = []
    nxt = 2
    for length in lengths:
        prev = 0
        for _ in range(length - 1):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, 1))
    return Graph(nxt, edges)


def infinity_graph(p: int, q: int, l: int) -> Graph:
    """Two disjoint cycles C_p, C_q joined by a path of length l - 1.

    l = 1 means the cycles share a single vertex. n = p + q + l - 2.
    """
    if p < 3 or q < 3:
        raise ParameterOutOfRange("cycle lengths must be >= 3")
    if l < 1:
        raise ParameterOutOfRange("path parameter must be >= 1")
    edges = []
    # first cycle on 0..p-1, attachment vertex 0
    for i in range(p):
        edges.append((i, (i + 1) % p))
    if l == 1:
        # second cycle reuses vertex 0
        ring = [0] + list(range(p, p + q - 1))
    else:
        ring = list(range(p + l - 2, p + l - 2 + q))
        # connecting path 0 - p - p+1 - ... - (p+l-3) - (p+l-2)
        chain = [0] + list(range(p, p + l - 1))
        for a, b in zip(chain, chain[1:]):
            edges.append((a, b))
    for i in range(len(ring)):
        edges.append((ring[i], ring[(i + 1) % len(ring)]))
    n = p + q + l - 2
    return Graph(n, edges)


def tadpole_graph(m: int, tail: int) -> Graph:
    """Cycle C_m with a hanging path of `tail` extra vertices at cycle vertex 0."""
    if m < 3:
        raise ParameterOutOfRange("cycle needs at least 3 vertices")
    if tail < 1:
        raise ParameterOutOfRange("tail needs at least 1 vertex")
    edges = [(i, (i + 1) % m) for i in range(m)]
    prev = 0
    for i in range(m, m + tail):
        edges.append((prev, i))
        prev = i
    return Graph(m + tail, edges)


def disjoint_union(a: Graph, b: Graph) -> Graph:
    shifted = [(u + a.n, v + a.n) for u, v in b.edges]
    return Graph(a.n + b.n, list(a.edges) + shifted)


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Apply the permutation perm (old id -> new id) to the vertex labels."""
    if sorted(perm) != list(range(g.n)):
        raise ParameterOutOfRange("perm must be a permutation of 0..n-1")
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
