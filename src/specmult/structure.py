"""Structural objects the multiplicity theorems quantify over.

Pendant paths, cycle vertices, the two major-vertex sets, block
decomposition, pendant cycles, and the family classifier that tells the
theorem predicates which shape they are looking at.

All of them read one record per labeled graph, _structure(g), a 16-entry
memo: it runs one components pass and one block decomposition of g and
derives connectivity, theta, the cycle vertices, the family tag and the
classifier's form A/C/D parts from them. A public query checks its input
against the record once and then reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Sequence

from .errors import NotApplicable, NotCStarShape, NotConnected
from .graphs import Graph, VertexSet, components, induced_subgraph, pendant_vertices

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


def _theta_params(g: Graph, majors: tuple[int, ...]) -> tuple[int, int, int]:
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


def _pieces(g: Graph, drop: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Parent ids of each component left after deleting the drop set."""
    drop_set = set(drop)
    rest = induced_subgraph(g, [v for v in range(g.n) if v not in drop_set])
    return tuple(tuple(rest.to_parent[v] for v in comp) for comp in components(rest.child))


# form D's kind of a piece, by its family tag: unicyclic with at most one
# pendant vertex is exactly Cycle or CStarShape (see FamilyTag)
_PIECE_KINDS = {"Path": "path", "Cycle": "single-cycle", "CStarShape": "single-cycle"}


class _Structure:
    """Everything lambda-independent about one labeled graph. Each part is
    worked out on first use from one components pass and one block
    decomposition, and kept as (nested) tuples and frozen records, so that
    the structure queries, every lambda the classifier asks about and the
    connected sweep's form-D gate share it without being able to alter it.
    The family tag, the pendant paths and cycles and the form parts are
    defined for connected graphs only; callers check connected first."""

    def __init__(self, g: Graph):
        self.g = g

    @cached_property
    def components(self) -> tuple[VertexSet, ...]:
        return tuple(components(self.g))

    @cached_property
    def connected(self) -> bool:
        return self.g.n <= 1 or len(self.components) == 1

    @cached_property
    def theta(self) -> int:
        """|E| - |V| + (number of components); zero exactly for forests."""
        return len(self.g.edges) - self.g.n + len(self.components)

    @cached_property
    def pendants(self) -> VertexSet:
        return pendant_vertices(self.g)

    @cached_property
    def p(self) -> int:
        return len(self.pendants)

    @cached_property
    def blocks(self) -> tuple[Block, ...]:
        return tuple(blocks(self.g))

    @cached_property
    def cycle_vertices(self) -> VertexSet:
        return tuple(sorted({v for b in self.blocks if len(b.vertices) >= 3 for v in b.vertices}))

    @cached_property
    def majors(self) -> MajorSets:
        g = self.g
        x = tuple(v for v in range(g.n) if g.degree(v) >= 3)
        cyc = set(self.cycle_vertices)
        return MajorSets(x, tuple(v for v in x if v not in cyc))

    @cached_property
    def cycle_blocks(self) -> tuple[tuple[VertexSet, tuple[int, ...]], ...]:
        """(vertices, the majors on it) of each cycle block."""
        g = self.g
        return tuple(
            (b.vertices, tuple(v for v in b.vertices if g.degree(v) >= 3))
            for b in self.blocks
            if b.is_cycle_block
        )

    @cached_property
    def family(self) -> FamilyTag:
        g, theta = self.g, self.theta
        degs = g.degrees()
        if theta == 0 and all(d <= 2 for d in degs):
            return FamilyTag("Path")
        if theta == 1 and all(d == 2 for d in degs):
            return FamilyTag("Cycle")
        p = self.p
        if theta == 2 and p == 0:
            if len(self.cycle_blocks) == 2:
                cp, cq = sorted((len(vs) for vs, _ in self.cycle_blocks), reverse=True)
                l = g.n - cp - cq + 2
                return FamilyTag("InfinityGraph", (cp, cq, l))
            majors = self.majors.X
            if len(majors) == 2 and all(d in (2, 3) for d in degs):
                return FamilyTag("ThetaGraph", _theta_params(g, majors))
            return FamilyTag("Other")
        if theta == 1:
            if p == 1:
                return FamilyTag("CStarShape")
            return FamilyTag("UnicyclicOther")
        if theta == 0:
            return FamilyTag("TreeGeneral")
        return FamilyTag("Other")

    @cached_property
    def pendant_paths(self) -> tuple[PendantPath, ...]:
        """One per pendant vertex, ascending by leaf; needs a major vertex."""
        g = self.g
        out = []
        for leaf in self.pendants:
            run = [leaf]
            prev = -1
            cur = leaf
            while g.degree(cur) <= 2:
                nxt = next(w for w in g.adj[cur] if w != prev)
                prev, cur = cur, nxt
                if g.degree(cur) <= 2:
                    run.append(cur)
            out.append(PendantPath(tuple(run), cur))
        return tuple(out)

    @cached_property
    def pendant_cycles(self) -> tuple[tuple[VertexSet, int], ...]:
        return tuple((vs, on[0]) for vs, on in self.cycle_blocks if len(on) == 1)

    @cached_property
    def tree(self) -> tuple[bool, tuple[tuple[int, ...], ...]]:
        """Form A: are the majors pairwise nonadjacent, and the parent ids
        of each component of T - X."""
        x_set = self.majors.X
        nonadjacent = all(not self.g.has_edge(u, v) for u, v in combinations(x_set, 2))
        return nonadjacent, _pieces(self.g, x_set)

    @cached_property
    def form_c(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Form C: the degree-2 cycle vertices next to a major, and the
        majors, each ascending."""
        g = self.g
        x_set = set(self.majors.X)
        ys = tuple(
            v for v in self.cycle_vertices if g.degree(v) == 2 and any(w in x_set for w in g.adj[v])
        )
        return ys, self.majors.X

    @cached_property
    def form_d(self) -> tuple[tuple, tuple, tuple]:
        """Form D: (checks, cycle reports, pieces). The checks are the six
        structural clauses as (name, holds) pairs; each cycle block reports
        (vertices, majors on it, ok); each component left after deleting the
        off-cycle majors is (parent ids, "path" | "single-cycle" | "other").
        A graph failing any clause fails the form for every lambda."""
        g = self.g
        theta = self.theta
        m_set = self.majors.M
        cycle_reports = tuple(
            (vs, on, len(on) == 1 and g.degree(on[0]) == 3) for vs, on in self.cycle_blocks
        )
        # a piece's record is built here and dropped, so pieces never enter the memo
        pieces = tuple(
            (ids, _PIECE_KINDS.get(_Structure(induced_subgraph(g, ids).child).family.kind, "other"))
            for ids in _pieces(g, m_set)
        )
        kinds = [kind for _, kind in pieces]
        checks = (
            ("theta_positive", theta >= 1),
            ("offcycle_majors_nonempty", len(m_set) > 0),
            ("one_degree3_major_per_cycle", all(ok for _, _, ok in cycle_reports)),
            (
                "offcycle_majors_nonadjacent",
                all(not g.has_edge(u, v) for u, v in combinations(m_set, 2)),
            ),
            ("decomposes_into_cycles_and_paths", "other" not in kinds),
            ("cycle_piece_count_matches_theta", kinds.count("single-cycle") == theta),
        )
        return checks, cycle_reports, pieces


# a graph's lambdas are classified one after another, so a few entries keep
# every hit; never shared across relabelings, since the key is the labeled graph
_structure = lru_cache(maxsize=16)(_Structure)


def _connected_structure(g: Graph, message: str) -> _Structure:
    """g's record, or NotConnected(message) when g is disconnected."""
    st = _structure(g)
    if not st.connected:
        raise NotConnected(message)
    return st


def cycle_vertices(g: Graph) -> VertexSet:
    """Vertices lying on at least one cycle: union of blocks of order >= 3."""
    return _structure(g).cycle_vertices


def major_sets(g: Graph) -> MajorSets:
    return _structure(g).majors


def is_path_graph(g: Graph) -> bool:
    """Connected with no cycle and maximum degree <= 2 (includes K_1, K_2)."""
    st = _structure(g)
    return st.connected and st.family.kind == "Path"


def is_cycle_graph(g: Graph) -> bool:
    st = _structure(g)
    return st.connected and st.family.kind == "Cycle"


def is_tree(g: Graph) -> bool:
    st = _structure(g)
    return st.connected and st.theta == 0


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
    st = _connected_structure(g, "pendant paths require a connected graph")
    if st.family.kind in ("Path", "Cycle"):
        raise NotApplicable("path or cycle has no anchored pendant path")
    return list(st.pendant_paths)


def pendant_cycles(g: Graph) -> list[tuple[VertexSet, int]]:
    """Cycles whose vertices all have degree 2 except a single anchor."""
    return list(_connected_structure(g, "pendant cycles require a connected graph").pendant_cycles)


def classify_family(g: Graph) -> FamilyTag:
    """Most specific family tag for a connected graph."""
    return _connected_structure(g, "family classification requires a connected graph").family


def tadpole_parts(g: Graph) -> tuple[VertexSet, int, tuple[int, ...]]:
    """Split a cycle-with-tail graph into (cycle vertices, anchor, tail).

    The tail is ordered from the vertex adjacent to the cycle anchor out
    to the leaf. Raises NotCStarShape for any other shape.
    """
    st = _connected_structure(g, "family classification requires a connected graph")
    if st.family.kind != "CStarShape":
        raise NotCStarShape("graph is not a cycle with a single hanging path")
    (path,) = st.pendant_paths
    # PendantPath is leaf-first; the tail wants cycle-side first
    return st.cycle_vertices, path.anchor, tuple(reversed(path.vertices))


def structure_report(g: Graph) -> dict:
    """JSON-ready summary used by the analyze subcommand."""
    st = _structure(g)
    report = {
        "n": g.n,
        "m": len(g.edges),
        "theta": st.theta,
        "p": st.p,
        "omega": len(st.components),
        "pendant_vertices": list(st.pendants),
        "X": list(st.majors.X),
        "M": list(st.majors.M),
        "blocks": [
            {"vertices": list(b.vertices), "is_cycle_block": b.is_cycle_block}
            for b in st.blocks
        ],
        "family": None,
        "pendant_paths": [],
        "pendant_cycles": [],
    }
    if st.connected:
        tag = st.family
        report["family"] = {"kind": tag.kind, "params": list(tag.params)}
        if tag.kind not in ("Path", "Cycle"):
            report["pendant_paths"] = [
                {"vertices": list(pp.vertices), "anchor": pp.anchor}
                for pp in st.pendant_paths
            ]
        report["pendant_cycles"] = [
            {"cycle": list(c), "anchor": a} for c, a in st.pendant_cycles
        ]
    return report
