"""Structural objects the multiplicity theorems quantify over.

Pendant paths, cycle vertices, the two major-vertex sets, block
decomposition, pendant cycles, and the family classifier that tells the
theorem predicates which shape they are looking at.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotApplicable, NotCStarShape, NotConnected
from .graphs import Graph, VertexSet, components, cyclomatic_number, is_connected, pendant_vertices

FAMILY_KINDS = (
    "Path",
    "Cycle",
    "TreeGeneral",
    "UnicyclicOther",
    "InfinityGraph",
    "ThetaGraph",
    "CStarShape",
    "Other",
)


@dataclass(frozen=True)
class PendantPath:
    """Leaf-first run of degree-2 vertices hanging off a major vertex.

    vertices[0] has degree 1, the rest degree 2; anchor has degree >= 3.
    """

    vertices: tuple[int, ...]
    anchor: int


@dataclass(frozen=True)
class MajorSets:
    """X: all vertices of degree >= 3. M: those of X on no cycle."""

    X: VertexSet
    M: VertexSet


@dataclass(frozen=True)
class Block:
    """A maximal 2-connected subgraph or a bridge edge."""

    vertices: VertexSet
    is_cycle_block: bool


@dataclass(frozen=True)
class FamilyTag:
    """Most specific shape tag for a connected graph.

    Tag precedence when definitions overlap:
    Path > Cycle > ThetaGraph > InfinityGraph > CStarShape >
    UnicyclicOther > TreeGeneral > Other. Unicyclic graphs with at most one
    pendant vertex are exactly the Cycle and CStarShape tags.
    """

    kind: str
    params: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")

    def __str__(self) -> str:
        if self.params:
            return f"{self.kind}({', '.join(map(str, self.params))})"
        return self.kind


def blocks(g: Graph) -> list[Block]:
    """Biconnected components plus bridges, via iterative depth-first search.

    A block is flagged as a cycle block when it has at least 3 vertices
    and exactly as many edges as vertices. Isolated vertices contribute
    no block. Works on disconnected graphs.
    """
    n = g.n
    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    edge_stack: list[tuple[int, int]] = []
    out: list[Block] = []
    timer = 0

    def emit(upto: tuple[int, int]) -> None:
        block_edges = []
        while True:
            e = edge_stack.pop()
            block_edges.append(e)
            if e == upto:
                break
        verts = sorted({v for e in block_edges for v in e})
        out.append(
            Block(tuple(verts), len(verts) >= 3 and len(block_edges) == len(verts))
        )

    for root in range(n):
        if disc[root] != -1 or g.degree(root) == 0:
            continue
        disc[root] = low[root] = timer
        timer += 1
        stack = [(root, 0)]
        while stack:
            v, i = stack[-1]
            if i < len(g.adj[v]):
                stack[-1] = (v, i + 1)
                w = g.adj[v][i]
                if disc[w] == -1:
                    parent[w] = v
                    edge_stack.append((v, w))
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, 0))
                elif w != parent[v] and disc[w] < disc[v]:
                    # back edge to an ancestor
                    edge_stack.append((v, w))
                    low[v] = min(low[v], disc[w])
            else:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    low[u] = min(low[u], low[v])
                    if low[v] >= disc[u]:
                        emit((u, v))
    return out


def cycle_vertices(g: Graph) -> VertexSet:
    """Vertices lying on at least one cycle: union of blocks of order >= 3."""
    on_cycle: set[int] = set()
    for b in blocks(g):
        if len(b.vertices) >= 3:
            on_cycle.update(b.vertices)
    return tuple(sorted(on_cycle))


def major_sets(g: Graph) -> MajorSets:
    x = tuple(v for v in range(g.n) if g.degree(v) >= 3)
    cyc = set(cycle_vertices(g))
    m = tuple(v for v in x if v not in cyc)
    return MajorSets(x, m)


def is_path_graph(g: Graph) -> bool:
    """Connected with no cycle and maximum degree <= 2 (includes K_1, K_2)."""
    if not is_connected(g):
        return False
    return cyclomatic_number(g) == 0 and all(g.degree(v) <= 2 for v in range(g.n))


def is_cycle_graph(g: Graph) -> bool:
    return g.n >= 3 and is_connected(g) and all(g.degree(v) == 2 for v in range(g.n))


def is_tree(g: Graph) -> bool:
    return is_connected(g) and cyclomatic_number(g) == 0


def cycle_order(g: Graph) -> tuple[int, ...]:
    """Vertex order around a cycle graph, starting at vertex 0."""
    if not is_cycle_graph(g):
        raise NotApplicable("graph is not a cycle")
    order = [0]
    prev = -1
    cur = 0
    while len(order) < g.n:
        nxt = next(w for w in g.adj[cur] if w != prev)
        order.append(nxt)
        prev, cur = cur, nxt
    return tuple(order)


def pendant_paths(g: Graph) -> list[PendantPath]:
    """Maximal leaf-anchored runs of degree-2 vertices.

    Defined for connected graphs that are neither a path nor a cycle;
    those two shapes have no major vertex to anchor at.
    """
    if not is_connected(g):
        raise NotConnected("pendant paths require a connected graph")
    if is_path_graph(g) or is_cycle_graph(g):
        raise NotApplicable("path or cycle has no anchored pendant path")
    out = []
    for leaf in pendant_vertices(g):
        run = [leaf]
        prev = -1
        cur = leaf
        while g.degree(cur) <= 2:
            nxt = next(w for w in g.adj[cur] if w != prev)
            prev, cur = cur, nxt
            if g.degree(cur) <= 2:
                run.append(cur)
        out.append(PendantPath(tuple(run), cur))
    out.sort(key=lambda p: p.vertices[0])
    return out


def pendant_cycles(g: Graph) -> list[tuple[VertexSet, int]]:
    """Cycles whose vertices all have degree 2 except a single anchor."""
    if not is_connected(g):
        raise NotConnected("pendant cycles require a connected graph")
    out = []
    for b in blocks(g):
        if not b.is_cycle_block:
            continue
        majors = [v for v in b.vertices if g.degree(v) >= 3]
        if len(majors) == 1:
            out.append((b.vertices, majors[0]))
    return out


def _theta_params(g: Graph, majors: list[int]) -> tuple[int, int, int]:
    # walk the three internally disjoint chains between the two majors
    a, b = majors
    lengths = []
    for first in g.adj[a]:
        length = 1
        prev, cur = a, first
        while cur != b:
            nxt = next(w for w in g.adj[cur] if w != prev)
            prev, cur = cur, nxt
            length += 1
        lengths.append(length)
    lengths.sort(reverse=True)
    return tuple(lengths)  # type: ignore[return-value]


def classify_family(g: Graph) -> FamilyTag:
    """Most specific family tag for a connected graph."""
    if not is_connected(g):
        raise NotConnected("family classification requires a connected graph")
    theta = cyclomatic_number(g)
    degs = g.degrees()
    if theta == 0 and all(d <= 2 for d in degs):
        return FamilyTag("Path")
    if theta == 1 and all(d == 2 for d in degs):
        return FamilyTag("Cycle")
    p = len(pendant_vertices(g))
    if theta == 2 and p == 0:
        cycle_blocks = [b for b in blocks(g) if b.is_cycle_block]
        if len(cycle_blocks) == 2:
            cp, cq = sorted((len(cycle_blocks[0].vertices), len(cycle_blocks[1].vertices)), reverse=True)
            l = g.n - cp - cq + 2
            return FamilyTag("InfinityGraph", (cp, cq, l))
        majors = [v for v in range(g.n) if degs[v] >= 3]
        if len(majors) == 2 and all(degs[v] in (2, 3) for v in range(g.n)):
            return FamilyTag("ThetaGraph", _theta_params(g, majors))
        return FamilyTag("Other")
    if theta == 1:
        if p == 1:
            return FamilyTag("CStarShape")
        return FamilyTag("UnicyclicOther")
    if theta == 0:
        return FamilyTag("TreeGeneral")
    return FamilyTag("Other")


def tadpole_parts(g: Graph) -> tuple[VertexSet, int, tuple[int, ...]]:
    """Split a cycle-with-tail graph into (cycle vertices, anchor, tail).

    The tail is ordered from the vertex adjacent to the cycle anchor out
    to the leaf. Raises NotCStarShape for any other shape.
    """
    if classify_family(g).kind != "CStarShape":
        raise NotCStarShape("graph is not a cycle with a single hanging path")
    cyc = cycle_vertices(g)
    (path,) = pendant_paths(g)
    # PendantPath is leaf-first; the tail wants cycle-side first
    return cyc, path.anchor, tuple(reversed(path.vertices))


def structure_report(g: Graph) -> dict:
    """JSON-ready summary used by the analyze subcommand."""
    theta = cyclomatic_number(g)
    p = pendant_vertices(g)
    ms = major_sets(g)
    connected = is_connected(g)
    report = {
        "n": g.n,
        "m": len(g.edges),
        "theta": theta,
        "p": len(p),
        "omega": len(components(g)),
        "pendant_vertices": list(p),
        "X": list(ms.X),
        "M": list(ms.M),
        "blocks": [
            {"vertices": list(b.vertices), "is_cycle_block": b.is_cycle_block}
            for b in blocks(g)
        ],
        "family": None,
        "pendant_paths": [],
        "pendant_cycles": [],
    }
    if connected:
        tag = classify_family(g)
        report["family"] = {"kind": tag.kind, "params": list(tag.params)}
        try:
            report["pendant_paths"] = [
                {"vertices": list(pp.vertices), "anchor": pp.anchor}
                for pp in pendant_paths(g)
            ]
        except NotApplicable:
            pass
        report["pendant_cycles"] = [
            {"cycle": list(c), "anchor": a} for c, a in pendant_cycles(g)
        ]
    return report
