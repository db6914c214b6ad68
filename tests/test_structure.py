import random
import sys
from collections import Counter
from fractions import Fraction

import networkx as nx
import pytest

from specmult import graphs, structure
from specmult.errors import NotApplicable, NotConnected
from specmult.graphs import (
    Graph,
    cycle_graph,
    disjoint_union,
    infinity_graph,
    path_graph,
    relabel,
    star_graph,
    tadpole_graph,
    theta_graph,
)
from specmult.structure import (
    blocks,
    classify_family,
    cycle_order,
    cycle_vertices,
    is_cycle_graph,
    is_path_graph,
    is_tree,
    major_sets,
    pendant_cycles,
    pendant_paths,
    structure_report,
    tadpole_parts,
)
from specmult.hermitian import adjacency_matrix
from specmult.theorems import conclusion_classifier, cstar_adjacency_predicate


def _nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def _random_graph(rng, n, extra):
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        j = rng.randrange(i)
        edges.add(tuple(sorted((order[i], order[j]))))
    candidates = [
        (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges
    ]
    rng.shuffle(candidates)
    edges.update(candidates[:extra])
    return Graph(n, sorted(edges))


def test_blocks_match_networkx_biconnected_components():
    rng = random.Random(101)
    for _ in range(60):
        g = _random_graph(rng, rng.randint(2, 9), rng.randint(0, 4))
        ours = sorted(tuple(sorted(b.vertices)) for b in blocks(g))
        ref = sorted(tuple(sorted(c)) for c in nx.biconnected_components(_nx(g)))
        assert ours == ref


def test_block_cycle_flags():
    g = tadpole_graph(4, 2)
    got = {tuple(sorted(b.vertices)): b.is_cycle_block for b in blocks(g)}
    assert got[(0, 1, 2, 3)] is True
    assert all(not flag for verts, flag in got.items() if len(verts) == 2)


def test_cycle_vertices():
    assert cycle_vertices(path_graph(4)) == ()
    assert cycle_vertices(cycle_graph(4)) == (0, 1, 2, 3)
    t = tadpole_graph(3, 2)
    assert cycle_vertices(t) == (0, 1, 2)


def test_major_sets():
    t = tadpole_graph(3, 2)
    ms = major_sets(t)
    assert ms.X == (0,) and ms.M == ()
    s = star_graph(3)
    ms = major_sets(s)
    assert ms.X == (0,) and ms.M == (0,)


def test_shape_predicates():
    assert is_path_graph(path_graph(1))
    assert is_path_graph(path_graph(5))
    assert not is_path_graph(cycle_graph(3))
    assert is_cycle_graph(cycle_graph(3))
    assert not is_cycle_graph(tadpole_graph(3, 1))
    assert is_tree(star_graph(4))
    assert not is_tree(cycle_graph(4))


def test_cycle_order():
    c = cycle_order(cycle_graph(5))
    assert sorted(c) == list(range(5))
    assert c[0] == 0


def test_pendant_paths():
    g = tadpole_graph(4, 3)
    pps = pendant_paths(g)
    assert len(pps) == 1
    pp = pps[0]
    assert pp.anchor == 0
    assert g.degree(pp.vertices[0]) == 1
    assert list(pp.vertices) == [6, 5, 4]
    with pytest.raises(NotApplicable):
        pendant_paths(path_graph(3))
    with pytest.raises(NotApplicable):
        pendant_paths(cycle_graph(3))


def test_pendant_path_count_equals_pendant_count():
    rng = random.Random(7)
    for _ in range(40):
        g = _random_graph(rng, rng.randint(4, 9), rng.randint(0, 3))
        if is_path_graph(g) or is_cycle_graph(g):
            continue
        from specmult.graphs import pendant_vertices

        assert len(pendant_paths(g)) == len(pendant_vertices(g))


def test_pendant_cycles():
    g = tadpole_graph(5, 1)
    pcs = pendant_cycles(g)
    assert len(pcs) == 1
    verts, anchor = pcs[0]
    assert anchor == 0 and len(verts) == 5
    assert pendant_cycles(theta_graph(2, 2, 1)) == []
    # two triangles hung on a center by edges
    g2 = Graph(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 6), (3, 6)])
    assert len(pendant_cycles(g2)) == 2


def test_classify_family_known_shapes():
    assert classify_family(path_graph(4)).kind == "Path"
    assert classify_family(cycle_graph(7)).kind == "Cycle"
    assert classify_family(star_graph(3)).kind == "TreeGeneral"
    assert classify_family(tadpole_graph(4, 2)).kind == "CStarShape"

    tag = classify_family(theta_graph(2, 2, 1))
    assert tag.kind == "ThetaGraph" and sorted(tag.params) == [1, 2, 2]

    # two triangles sharing one vertex
    tag = classify_family(infinity_graph(3, 3, 1))
    assert tag.kind == "InfinityGraph" and sorted(tag.params) == [1, 3, 3]

    # K4 minus an edge is the smallest theta graph
    k4e = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    tag = classify_family(k4e)
    assert tag.kind == "ThetaGraph" and sorted(tag.params) == [1, 2, 2]

    # unicyclic with two tails
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (4, 5)])
    assert classify_family(g).kind == "UnicyclicOther"

    # theta graph plus a pendant is just Other
    g2 = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (3, 4)])
    assert classify_family(g2).kind == "Other"


def test_classify_family_needs_connected():
    with pytest.raises(NotConnected):
        classify_family(disjoint_union(cycle_graph(3), path_graph(2)))


def test_classify_family_relabel_invariant():
    rng = random.Random(31)
    shapes = [
        path_graph(5),
        cycle_graph(6),
        theta_graph(3, 2, 2),
        infinity_graph(3, 4, 2),
        tadpole_graph(4, 3),
        star_graph(4),
    ]
    for g in shapes:
        base = classify_family(g)
        for _ in range(5):
            perm = list(range(g.n))
            rng.shuffle(perm)
            tag = classify_family(relabel(g, perm))
            assert tag.kind == base.kind and sorted(tag.params) == sorted(base.params)


def test_tadpole_parts():
    g = tadpole_graph(4, 2)
    cyc, anchor, tail = tadpole_parts(g)
    assert sorted(cyc) == [0, 1, 2, 3]
    assert anchor == 0
    assert list(tail) == [4, 5]


def test_structure_report_fields():
    rep = structure_report(tadpole_graph(3, 1))
    assert rep["theta"] == 1 and rep["p"] == 1 and rep["omega"] == 1
    assert rep["family"]["kind"] == "CStarShape"
    assert rep["X"] == [0] and rep["M"] == []
    assert len(rep["pendant_paths"]) == 1
    assert len(rep["pendant_cycles"]) == 1
    rep2 = structure_report(disjoint_union(path_graph(2), path_graph(2)))
    assert rep2["omega"] == 2 and rep2["family"] is None


def test_each_query_works_out_a_graph_once(monkeypatch):
    """Every shape query reads the graph's one record: at most one
    components pass and one block decomposition per graph object it
    inspects, a form-D piece being a graph of its own."""
    calls = {"components": [], "blocks": []}
    for name, fn in (("components", graphs.components), ("blocks", structure.blocks)):
        def counted(g, _fn=fn, _seen=calls[name]):
            _seen.append(g)  # keeps g alive, so ids stay distinct
            return _fn(g)

        for mod in list(sys.modules.values()):
            if mod.__name__.startswith("specmult") and getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counted)
    # two triangles and a path hung on one off-cycle major: form D at -1
    form_d = Graph(9, [(0, 1), (1, 2), (2, 3), (1, 3), (0, 4), (4, 5), (5, 6), (4, 6), (0, 7), (7, 8)])
    theta = theta_graph(3, 2, 2)
    tadpole = tadpole_graph(5, 3)
    # (query, graphs it inspects): form D looks at G, G - M and three pieces
    cases = [
        (lambda: structure_report(tadpole), 1),
        (lambda: pendant_paths(tadpole), 1),
        (lambda: cstar_adjacency_predicate(tadpole, Fraction(-1)), 1),
        (lambda: conclusion_classifier(form_d, adjacency_matrix(form_d), Fraction(-1)), 5),
        (lambda: conclusion_classifier(theta, adjacency_matrix(theta), Fraction(0)), 1),
    ]
    for query, inspected in cases:
        structure._structure.cache_clear()
        for seen in calls.values():
            seen.clear()
        query()
        for seen in calls.values():
            assert max(Counter(map(id, seen)).values(), default=0) <= 1
        assert len(calls["components"]) == inspected
        # only the queried graph enters the memo, never a piece
        assert structure._structure.cache_info().currsize == 1
    assert conclusion_classifier(form_d, adjacency_matrix(form_d), Fraction(-1)).verdict == "OneDeficientFormD"
