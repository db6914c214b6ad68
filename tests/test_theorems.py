import hashlib
import inspect
import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import specmult
import specmult.hermitian as hermitian_mod
import specmult.theorems as theorems_mod
from specmult.errors import (
    AmbiguousCluster,
    DimensionMismatch,
    NotApplicable,
    NotATree,
    NotConnected,
    NotCStarShape,
    NotUnicyclic,
    PatternMismatch,
    SideConditionUnmet,
)
from specmult.graphs import (
    Graph,
    cycle_graph,
    infinity_graph,
    path_graph,
    pendant_vertices,
    star_graph,
    tadpole_graph,
    theta_graph,
)
from specmult.hermitian import (
    ExactComplex,
    HermitianMatrix,
    a_alpha_gain,
    adjacency_matrix,
    gain_graph,
    random_in_S,
)
from specmult.oracle import certified_spectrum, enumerate_connected, enumerate_trees
from specmult.spectra import (
    AlgebraicEigenvalue,
    IntPolynomial,
    min_poly_2cos,
    multiplicity,
    poly_mul,
)
from specmult.structure import _structure
from specmult.theorems import (
    RELATIONS,
    RelationProbe,
    _classify,
    check_upper_bound,
    conclusion_classifier,
    corollary_minus_one_tree,
    corollary_nullity_tree,
    cstar_adjacency_predicate,
    fixture_paw_matrix,
    fixture_tadpole_matrix,
    lemma_relation_checks,
    weighted_counterexample_check,
    structural_bound,
    tree_equality_predicate,
    unicyclic_equality_predicate,
)


def _mult(b, lam):
    return multiplicity(b, lam).multiplicity


# ---------------------------------------------------------------------------
# Upper bound


def test_structural_bound_values():
    assert structural_bound(path_graph(5)) == 2
    assert structural_bound(cycle_graph(6)) == 2
    assert structural_bound(star_graph(4)) == 4
    assert structural_bound(tadpole_graph(4, 2)) == 3
    assert structural_bound(theta_graph(2, 2, 2)) == 4


def test_upper_bound_strict_case():
    b = fixture_paw_matrix()
    rep = check_upper_bound(b.pattern, b, Fraction(2))
    assert rep.holds and rep.lhs == 2 and rep.rhs == 3
    assert rep.instance["equality"] is False
    assert rep.as_json()["name"] == "upper-bound"


def test_upper_bound_equality_only_on_cycles():
    # a cycle may attain the bound, and then only with multiplicity 2
    c4 = cycle_graph(4)
    rep = check_upper_bound(c4, adjacency_matrix(c4), Fraction(0))
    assert rep.holds and rep.lhs == rep.rhs == 2
    assert rep.instance["equality"] is True


def test_upper_bound_preconditions():
    g = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(NotConnected):
        check_upper_bound(g, adjacency_matrix(g), Fraction(0))
    k1 = Graph(1, [])
    with pytest.raises(NotApplicable):
        check_upper_bound(k1, adjacency_matrix(k1), Fraction(0))
    with pytest.raises(PatternMismatch):
        check_upper_bound(cycle_graph(4), adjacency_matrix(path_graph(4)), Fraction(0))


# ---------------------------------------------------------------------------
# Trees


def test_tree_predicate_path_short_circuit():
    p4 = path_graph(4)
    res = tree_equality_predicate(p4, adjacency_matrix(p4), Fraction(0))
    assert res.holds and res.evidence == {"path": True}
    assert bool(res) is True


def test_tree_predicate_star():
    s3 = star_graph(3)
    a = adjacency_matrix(s3)
    good = tree_equality_predicate(s3, a, Fraction(0))
    assert good.holds
    assert all(piece["carries_lambda"] for piece in good.evidence["pieces"])
    bad = tree_equality_predicate(s3, a, Fraction(5))
    assert not bad.holds and bad.evidence["majors_nonadjacent"]


def test_approx_piece_with_an_ambiguous_cluster_raises():
    """A floating piece whose only eigenvalue lies between tol and 2*tol of
    lambda neither carries lambda nor fails to: the classifier raises
    instead of guessing. Leaf 1's diagonal 1.5e-8 is that piece; the whole
    matrix keeps its eigenvalues well away from 0."""
    s3 = star_graph(3)
    rows = [
        [0.0, 1.0, 1.0, 1.0],
        [1.0, 1.5e-8, 0.0, 0.0],
        [1.0, 0.0, 5.0, 0.0],
        [1.0, 0.0, 0.0, 7.0],
    ]
    b = HermitianMatrix.from_rows(rows, pattern=s3)
    assert not b.is_exact
    assert multiplicity(b, 0.0).multiplicity == 0
    with pytest.raises(AmbiguousCluster):
        conclusion_classifier(s3, b, 0.0)
    with pytest.raises(AmbiguousCluster):
        tree_equality_predicate(s3, b, 0.0)


def test_tree_predicate_adjacent_majors_fail():
    """Two adjacent degree-3 centers block equality no matter the weights."""
    ds = Graph(6, [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5)])
    a = adjacency_matrix(ds)
    res = tree_equality_predicate(ds, a, Fraction(0))
    assert not res.holds
    assert res.evidence["majors_nonadjacent"] is False
    # and the direct multiplicity agrees: 2 < p - 1 = 3
    assert _mult(a, Fraction(0)) == 2 and structural_bound(ds) == 4


def test_tree_predicate_preconditions():
    c4 = cycle_graph(4)
    with pytest.raises(NotATree):
        tree_equality_predicate(c4, adjacency_matrix(c4), Fraction(0))
    k1 = Graph(1, [])
    with pytest.raises(NotApplicable):
        tree_equality_predicate(k1, adjacency_matrix(k1), Fraction(0))
    with pytest.raises(PatternMismatch):
        tree_equality_predicate(path_graph(4), adjacency_matrix(star_graph(3)), Fraction(0))


def test_corollary_fixtures():
    s3 = star_graph(3)
    assert corollary_nullity_tree(s3)  # leaves at odd distance 1
    spider = Graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    assert not corollary_nullity_tree(spider)  # leaves at even distance 2
    assert corollary_minus_one_tree(spider)  # distances 2 mod 3
    assert corollary_minus_one_tree(path_graph(5))  # n = 3k - 1
    assert not corollary_minus_one_tree(path_graph(4))
    with pytest.raises(NotATree):
        corollary_nullity_tree(cycle_graph(5))
    with pytest.raises(NotApplicable):
        corollary_nullity_tree(path_graph(6))  # only two leaves


def test_corollaries_match_direct_multiplicity():
    """Distance tests agree with exact adjacency multiplicities, all trees n <= 8."""
    for n in range(2, 9):
        for t in enumerate_trees(n, dedupe=True):
            a = adjacency_matrix(t)
            p = len(pendant_vertices(t))
            if p >= 3:
                eta = _mult(a, Fraction(0))
                assert corollary_nullity_tree(t) == (eta == p - 1)
            m1 = _mult(a, Fraction(-1))
            assert corollary_minus_one_tree(t) == (m1 == p - 1)


# ---------------------------------------------------------------------------
# Unicyclic decomposition


def _triangle_with_offcycle_major():
    # triangle, one off-cycle degree-3 major carrying two leaves
    g = Graph(6, [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4), (3, 5)])
    rows = [[0] * 6 for _ in range(6)]
    for u, v in g.edges:
        rows[u][v] = rows[v][u] = 1
    rows[4][4] = -1
    rows[5][5] = -1
    return g, HermitianMatrix.from_rows(rows)


def test_unicyclic_predicate_positive():
    g, b = _triangle_with_offcycle_major()
    res = unicyclic_equality_predicate(g, b, Fraction(-1))
    assert res.holds
    assert all(res.evidence["checks"].values())
    # dual route: the multiplicity really is one below the bound
    assert _mult(b, Fraction(-1)) == structural_bound(g) - 1 == 3


def test_unicyclic_predicate_negative_lambda():
    g, b = _triangle_with_offcycle_major()
    res = unicyclic_equality_predicate(g, b, Fraction(7))
    assert not res.holds
    assert _mult(b, Fraction(7)) != structural_bound(g) - 1


def test_unicyclic_predicate_preconditions():
    t = path_graph(5)
    with pytest.raises(NotUnicyclic):
        unicyclic_equality_predicate(t, adjacency_matrix(t), Fraction(0))
    tp = tadpole_graph(4, 2)  # one pendant only
    with pytest.raises(NotApplicable):
        unicyclic_equality_predicate(tp, adjacency_matrix(tp), Fraction(0))
    g, b = _triangle_with_offcycle_major()
    with pytest.raises(PatternMismatch):
        unicyclic_equality_predicate(g, adjacency_matrix(path_graph(6)), Fraction(0))


def test_degree_four_major_rejected():
    """A degree-4 cycle major satisfies every other decomposition clause yet
    the multiplicity lands two below the bound, so the degree-3 requirement
    is load-bearing and the classifier must stay consistent."""
    g = Graph(9, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 5), (3, 6), (4, 7), (4, 8)])
    rows = [[0] * 9 for _ in range(9)]
    for u, v in g.edges:
        rows[u][v] = rows[v][u] = 1
    for leaf in (5, 6, 7, 8):
        rows[leaf][leaf] = -1
    b = HermitianMatrix.from_rows(rows)
    res = unicyclic_equality_predicate(g, b, Fraction(-1))
    assert not res.holds
    checks = res.evidence["checks"]
    assert checks["one_degree3_major_per_cycle"] is False
    assert all(v for k, v in checks.items() if k != "one_degree3_major_per_cycle")
    assert _mult(b, Fraction(-1)) == 4 and structural_bound(g) == 6
    out = conclusion_classifier(g, b, Fraction(-1))
    assert out.verdict == "TwoPlusDeficient" and out.evidence["violations"] == []


# ---------------------------------------------------------------------------
# Cycle-plus-tail adjacency predicate


def test_cstar_predicate_known_instances():
    assert cstar_adjacency_predicate(tadpole_graph(6, 3), Fraction(-1)) is True
    assert cstar_adjacency_predicate(tadpole_graph(4, 2), Fraction(0)) is True
    assert cstar_adjacency_predicate(tadpole_graph(5, 2), Fraction(0)) is False
    # a bare pendant leaves no spare path, so multiplicity 2 is impossible
    assert cstar_adjacency_predicate(tadpole_graph(4, 1), Fraction(0)) is False


def test_cstar_predicate_matches_adjacency_multiplicity():
    for cyc_len in range(3, 7):
        for tail in range(1, 4):
            g = tadpole_graph(cyc_len, tail)
            for lam in (Fraction(-1), Fraction(0), Fraction(1)):
                pred = cstar_adjacency_predicate(g, lam)
                assert pred == (_mult(adjacency_matrix(g), lam) == 2)


def test_cstar_predicate_rejects_other_shapes():
    with pytest.raises(NotCStarShape):
        cstar_adjacency_predicate(cycle_graph(5), Fraction(0))
    with pytest.raises(NotCStarShape):
        cstar_adjacency_predicate(Graph(4, [(0, 1), (2, 3)]), Fraction(0))


def test_weighted_counterexample_pinned():
    rep = weighted_counterexample_check()
    assert rep.holds
    assert rep.lhs == [2, 1, 2, 1, 0]
    # the tadpole tail does not carry -9, yet the full multiplicity is 2,
    # so the adjacency biconditional cannot survive general weights
    b = fixture_tadpole_matrix()
    assert _mult(b, Fraction(-9)) == 2
    assert cstar_adjacency_predicate(b.pattern, Fraction(-9)) is False


# ---------------------------------------------------------------------------
# Classifier verdicts


def test_classifier_cycle_forms():
    c5 = cycle_graph(5)
    a = adjacency_matrix(c5)
    out = conclusion_classifier(c5, a, Fraction(2))
    assert out.verdict == "OneDeficientFormB"
    assert out.evidence["multiplicity"] == 1 and out.evidence["bound"] == 2
    out = conclusion_classifier(c5, a, Fraction(0))
    assert out.verdict == "TwoPlusDeficient" and out.evidence["multiplicity"] == 0


def test_classifier_attains_bound_on_cycle():
    c4 = cycle_graph(4)
    out = conclusion_classifier(c4, adjacency_matrix(c4), Fraction(0))
    assert out.verdict == "AttainsBound"
    assert out.evidence["consistent"] and out.evidence["violations"] == []


def test_classifier_cstar_fixture():
    b = fixture_tadpole_matrix()
    out = conclusion_classifier(b.pattern, b, Fraction(-9))
    assert out.verdict == "OneDeficientFormB"
    assert out.evidence["family"] == "CStarShape"
    assert out.evidence["multiplicity"] == 2
    b2 = fixture_paw_matrix()
    out2 = conclusion_classifier(b2.pattern, b2, Fraction(2))
    assert out2.verdict == "OneDeficientFormB" and out2.evidence["form_holds"]


def test_classifier_two_cycle_forms():
    th = theta_graph(2, 2, 2)
    out = conclusion_classifier(th, adjacency_matrix(th), Fraction(0))
    assert out.verdict == "OneDeficientFormC"
    assert out.evidence["multiplicity"] == 3 and out.evidence["consistent"]
    inf = infinity_graph(3, 3, 3)
    out = conclusion_classifier(inf, adjacency_matrix(inf), Fraction(-1))
    assert out.verdict == "OneDeficientFormC" and out.evidence["consistent"]
    # bowtie at -1 is two below the bound, conditions must refuse it
    bow = infinity_graph(3, 3, 1)
    out = conclusion_classifier(bow, adjacency_matrix(bow), Fraction(-1))
    assert out.verdict == "TwoPlusDeficient"
    assert out.evidence["multiplicity"] == 2 and out.evidence["consistent"]


def test_classifier_tree_forms():
    s3 = star_graph(3)
    out = conclusion_classifier(s3, adjacency_matrix(s3), Fraction(0))
    assert out.verdict == "OneDeficientFormA"
    assert out.evidence["multiplicity"] == 2 and out.evidence["form_holds"]
    p5 = path_graph(5)
    out = conclusion_classifier(p5, adjacency_matrix(p5), Fraction(0))
    assert out.verdict == "OneDeficientFormA" and out.evidence["multiplicity"] == 1


def test_classifier_zero_multiplicity_beats_form_conditions():
    # P_4 has no eigenvalue 0, yet paths satisfy the tree form vacuously;
    # multiplicity 0 must still classify as deeper-deficient
    p4 = path_graph(4)
    out = conclusion_classifier(p4, adjacency_matrix(p4), Fraction(0))
    assert out.verdict == "TwoPlusDeficient"
    assert out.evidence["form_conditions"] == {"path": True}
    assert out.evidence["consistent"]


def test_classifier_decomposition_form():
    g, b = _triangle_with_offcycle_major()
    out = conclusion_classifier(g, b, Fraction(-1))
    assert out.verdict == "OneDeficientFormD"
    assert out.evidence["multiplicity"] == 3 and out.evidence["consistent"]


def test_classify_trusts_precomputed_multiplicity():
    c5 = cycle_graph(5)
    a = adjacency_matrix(c5)
    out = _classify(c5, a, Fraction(2), 1e-8, 1, "precomputed")
    assert out.verdict == "OneDeficientFormB"
    assert out.evidence["method"] == "precomputed"


def test_certified_means_an_exact_method_ran():
    """The classifier's certified flag agrees with the method that decided
    the multiplicity: a bool or a numpy integer goes to the numeric
    cluster count, so it is not certified."""
    g = cycle_graph(4)
    a = adjacency_matrix(g)
    cases = [
        (True, False),
        (np.int64(0), False),
        (0.5, False),
        (0, True),
        (Fraction(1, 2), True),
        (AlgebraicEigenvalue.from_2cos(5, 1), True),
    ]
    for lam, exact in cases:
        ev = conclusion_classifier(g, a, lam).evidence
        assert ev["certified"] is exact, lam
        assert (ev["method"] != "NumericCluster") is exact, lam
    approx = adjacency_matrix(g, scalar="approx")
    ev = conclusion_classifier(g, approx, Fraction(0)).evidence
    assert ev["certified"] is False and ev["method"] == "NumericCluster"


def test_classifier_evidence_golden_digest():
    """Classifier evidence for every adjacency eigenvalue of every connected
    graph on 2..5 vertices, pinned byte for byte: reruns agreeing with
    themselves cannot show drift that a refactor introduces."""
    digest = hashlib.sha256()
    outcomes = 0
    for n in range(2, 6):
        for g in enumerate_connected(n):
            a = adjacency_matrix(g)
            for c in certified_spectrum(a):
                out = conclusion_classifier(g, a, c.lam)
                digest.update(json.dumps(out.as_json(), sort_keys=True).encode())
                outcomes += 1
    assert outcomes == 3639
    assert digest.hexdigest() == "0ba732f3f19dc3eb60fde18a9630f79e445ad4ee12d516bdcb1bb79caf12b5c0"


def _scramble(obj):
    """Overwrite every list and dict reachable from obj in place."""
    if isinstance(obj, dict):
        for k in list(obj):
            _scramble(obj[k])
            obj[k] = "scrambled"
    elif isinstance(obj, list):
        for x in obj:
            _scramble(x)
        obj[:] = ["scrambled"]


def test_structure_memo_hands_out_immutable_values():
    g_d, b_d = _triangle_with_offcycle_major()
    cases = [
        (star_graph(3), adjacency_matrix(star_graph(3)), Fraction(0)),
        (g_d, b_d, Fraction(-1)),
        (theta_graph(2, 2, 2), adjacency_matrix(theta_graph(2, 2, 2)), Fraction(0)),
        (infinity_graph(3, 3, 3), adjacency_matrix(infinity_graph(3, 3, 3)), Fraction(-1)),
    ]
    for g, b, lam in cases:
        st = _structure(g)
        # keyed on the labeled graph: an equal graph shares it, a relabeled one does not
        assert _structure(Graph(g.n, g.edges)) is st
        flipped = Graph(g.n, [(g.n - 1 - u, g.n - 1 - v) for u, v in g.edges])
        assert flipped == g or _structure(flipped) is not st
        # nested tuples and frozen records only, so nothing in it can change
        hash((st.family, st.theta, st.p, st.majors, st.tree, st.form_c, st.form_d))
        # evidence is built on every call: wrecking one reply alters no later one
        first = conclusion_classifier(g, b, lam)
        assert first.evidence["consistent"] and first.verdict.startswith("OneDeficient")
        want = json.dumps(first.as_json(), sort_keys=True)
        _scramble(first.evidence)
        assert json.dumps(conclusion_classifier(g, b, lam).as_json(), sort_keys=True) == want


def test_classifier_preconditions():
    g = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(NotConnected):
        conclusion_classifier(g, adjacency_matrix(g), Fraction(0))
    k1 = Graph(1, [])
    with pytest.raises(NotApplicable):
        conclusion_classifier(k1, adjacency_matrix(k1), Fraction(0))
    with pytest.raises(PatternMismatch):
        conclusion_classifier(cycle_graph(4), adjacency_matrix(path_graph(4)), Fraction(0))


# ---------------------------------------------------------------------------
# Relation probes


def test_every_exported_pair_function_rejects_a_mismatched_pair():
    """Each exported function that takes a graph and a matrix refuses a
    matrix outside S(G) before it answers: an order mismatch raises
    DimensionMismatch and a support mismatch PatternMismatch."""
    unicyclic = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 5)])
    spider = Graph(6, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)])
    # a graph inside each function's scope, so only the pair can be wrong
    scope = {
        "check_upper_bound": unicyclic,
        "conclusion_classifier": unicyclic,
        "lemma_relation_checks": unicyclic,
        "tree_equality_predicate": spider,
        "unicyclic_equality_predicate": unicyclic,
    }
    pair_functions = {
        name
        for name in specmult.__all__
        if inspect.isfunction(getattr(specmult, name))
        and list(inspect.signature(getattr(specmult, name)).parameters)[:2] in (["g", "b"], ["t", "b"])
    }
    assert pair_functions == set(scope)
    probe = RelationProbe("interlace-v", vertex=0)
    for name, g in scope.items():
        fn = getattr(specmult, name)
        extra = (probe,) if name == "lemma_relation_checks" else ()
        for b, error in (
            (adjacency_matrix(path_graph(g.n + 1)), DimensionMismatch),
            (adjacency_matrix(path_graph(g.n)), PatternMismatch),
        ):
            with pytest.raises(error):
                fn(g, b, Fraction(0), *extra)
    with pytest.raises(DimensionMismatch):
        lemma_relation_checks(cycle_graph(5), adjacency_matrix(path_graph(6)), 0, probe)
    # gain-cycle reads alpha and the gains off b, so it checks the pair first
    c5 = cycle_graph(5)
    gain_probe = RelationProbe("gain-cycle")
    for b, error in (
        (adjacency_matrix(path_graph(6)), DimensionMismatch),
        (adjacency_matrix(path_graph(5)), PatternMismatch),
    ):
        with pytest.raises(error):
            lemma_relation_checks(c5, b, Fraction(0), gain_probe)


def test_relations_constant():
    assert RELATIONS == (
        "interlace-v",
        "interlace-e",
        "guvh",
        "path-removal",
        "pendant-cycle",
        "theta-infty",
        "gain-cycle",
    )
    with pytest.raises(SideConditionUnmet):
        lemma_relation_checks(
            cycle_graph(4), adjacency_matrix(cycle_graph(4)), Fraction(0),
            RelationProbe("frobnicate"),
        )


def test_interlace_vertex():
    c5 = cycle_graph(5)
    b = adjacency_matrix(c5)
    lam = AlgebraicEigenvalue.from_2cos(5, 1)
    rep = lemma_relation_checks(c5, b, lam, RelationProbe("interlace-v", vertex=0))
    assert rep.holds and rep.lhs == 2 and rep.rhs == 1
    with pytest.raises(SideConditionUnmet):
        lemma_relation_checks(c5, b, lam, RelationProbe("interlace-v"))
    with pytest.raises(SideConditionUnmet):
        lemma_relation_checks(c5, b, lam, RelationProbe("interlace-v", vertex=9))


def test_each_exact_matrix_is_cleared_once(monkeypatch):
    """The bound at three probes and interlace-v, piece included, all read
    the one set of cleared tables, which are tuples no caller can alter."""
    calls = []
    clear = hermitian_mod._clear_denominators

    def counting(rows):
        calls.append(rows)
        return clear(rows)

    monkeypatch.setattr(hermitian_mod, "_clear_denominators", counting)
    g = tadpole_graph(4, 2)
    b = random_in_S(g, seed=5)
    for lam in (Fraction(0), Fraction(1), b.entries[0][0].re):
        check_upper_bound(g, b, lam)
    rep = lemma_relation_checks(g, b, Fraction(1, 2), RelationProbe("interlace-v", vertex=4))
    assert rep.holds
    assert len(calls) == 1 and calls[0] is b.entries
    d, re, im = b.cleared
    assert d == clear(b.entries)[0] and len(calls) == 1
    for table in (re, im):
        assert isinstance(table, tuple) and all(type(row) is tuple for row in table)


def test_interlace_edge():
    c5 = cycle_graph(5)
    b = adjacency_matrix(c5)
    lam = AlgebraicEigenvalue.from_2cos(5, 1)
    rep = lemma_relation_checks(c5, b, lam, RelationProbe("interlace-e", edge=(0, 1)))
    # removing a cycle edge kills both copies: the +2 slack is tight here
    assert rep.holds and rep.lhs == 2 and rep.rhs == 0
    with pytest.raises(SideConditionUnmet):
        lemma_relation_checks(c5, b, lam, RelationProbe("interlace-e"))
    with pytest.raises(SideConditionUnmet):
        lemma_relation_checks(c5, b, lam, RelationProbe("interlace-e", edge=(0, 2)))


def _interlace_edge_against_from_rows(g, b, lam, u, v):
    """interlace-e's rhs on (u, v) equals the multiplicity in the same
    matrix with the edge's entries zeroed, built by from_rows, and the
    edge-zeroed matrix it asks has that matrix's entries and cleared
    tables."""
    rep = lemma_relation_checks(g, b, lam, RelationProbe("interlace-e", edge=(u, v)))
    rows = [list(r) for r in b.entries]
    rows[u][v] = rows[v][u] = ExactComplex(0)
    zeroed = HermitianMatrix.from_rows(rows)
    assert rep.rhs == multiplicity(zeroed, lam).multiplicity, (b.entries, lam, (u, v))
    assert rep.lhs == multiplicity(b, lam).multiplicity
    asked = theorems_mod._zero_edge(b, u, v)
    assert asked.entries == zeroed.entries and asked.cleared == zeroed.cleared
    return asked


def test_interlace_edge_matches_the_matrix_built_from_rows():
    """interlace-e's edge-zeroed matrix answers as the same matrix built by
    from_rows, and its d is the lcm of the denominators left."""
    rng = random.Random(16)
    for _ in range(40):
        n = rng.randint(2, 9)
        chord = tuple(sorted(rng.sample(range(n), 2)))
        edges = sorted({(rng.randrange(w), w) for w in range(1, n)} | {chord})
        g = Graph(n, edges)
        b = random_in_S(g, rng.randrange(1 << 30))
        u, v = edges[rng.randrange(len(edges))]
        for lam in (Fraction(0), Fraction(1), b.entries[u][u].re, b.entries[v][v].re):
            _interlace_edge_against_from_rows(g, b, lam, u, v)
    # the edge (0, 1) carries the only non-integer entry, so d drops from 6
    # to 1 once it is zeroed
    p3 = path_graph(3)
    b = HermitianMatrix.from_rows(
        [[1, ExactComplex(Fraction(1, 2), Fraction(1, 3)), 0],
         [ExactComplex(Fraction(1, 2), Fraction(-1, 3)), 1, 2], [0, 2, 1]]
    )
    assert b.cleared[0] == 6
    assert _interlace_edge_against_from_rows(p3, b, Fraction(1), 0, 1).cleared[0] == 1
    # d = 12 drops to 4 when the edge held the only factor 3
    b = HermitianMatrix.from_rows([[Fraction(1, 4), Fraction(1, 3)], [Fraction(1, 3), 0]])
    zeroed = _interlace_edge_against_from_rows(Graph(2, [(0, 1)]), b, Fraction(1, 4), 0, 1)
    assert b.cleared[0] == 12 and zeroed.cleared == (4, ((1, 0), (0, 0)), ((0, 0), (0, 0)))


def test_composition_transfer():
    """Multiplicity transfers across a cut edge when the eigenvalue lives on
    the left block but not on the left block minus the join vertex."""
    p5 = path_graph(5)
    b = adjacency_matrix(p5)
    rep = lemma_relation_checks(p5, b, Fraction(1), RelationProbe("guvh", left_part=(0, 1)))
    assert rep.holds and rep.lhs == rep.rhs == 1
    # the join is the one edge leaving the left part, u on the left side
    assert rep.instance["join"] == [1, 2]
    rep = lemma_relation_checks(p5, b, Fraction(1), RelationProbe("guvh", left_part=(4, 3)))
    assert rep.holds and rep.instance["join"] == [3, 2]


def test_composition_side_conditions():
    p5 = path_graph(5)
    b = adjacency_matrix(p5)
    with pytest.raises(SideConditionUnmet):  # left part missing
        lemma_relation_checks(p5, b, Fraction(1), RelationProbe("guvh"))
    # more than one crossing edge
    c4 = cycle_graph(4)
    with pytest.raises(SideConditionUnmet):
        lemma_relation_checks(
            c4, adjacency_matrix(c4), Fraction(0), RelationProbe("guvh", left_part=(0, 1))
        )
    # disconnected left side
    g = Graph(5, [(0, 1), (1, 2), (3, 4)])
    with pytest.raises(SideConditionUnmet):
        lemma_relation_checks(
            g, adjacency_matrix(g), Fraction(1), RelationProbe("guvh", left_part=(0, 1, 3, 4))
        )
    # lambda absent from the left part
    with pytest.raises(SideConditionUnmet):
        lemma_relation_checks(p5, b, Fraction(5), RelationProbe("guvh", left_part=(0, 1)))
    # lambda still present after dropping the join vertex
    star_tail = Graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
    with pytest.raises(SideConditionUnmet):
        lemma_relation_checks(
            star_tail, adjacency_matrix(star_tail), Fraction(0),
            RelationProbe("guvh", left_part=(0, 1, 2)),
        )


def test_path_removal():
    t = tadpole_graph(4, 3)
    b = adjacency_matrix(t)
    rep = lemma_relation_checks(t, b, Fraction(0), RelationProbe("path-removal", path=(4, 5, 6)))
    assert rep.holds and rep.lhs == 1 and rep.rhs == 2
    for bad in [(4, 4), (4, 9), (4, 6), (0, 4)]:
        with pytest.raises(SideConditionUnmet):
            lemma_relation_checks(t, b, Fraction(0), RelationProbe("path-removal", path=bad))
    with pytest.raises(SideConditionUnmet):
        lemma_relation_checks(t, b, Fraction(0), RelationProbe("path-removal", path=()))


def test_pendant_cycle_drop():
    t = tadpole_graph(4, 2)
    b = adjacency_matrix(t)
    rep = lemma_relation_checks(t, b, Fraction(0), RelationProbe("pendant-cycle", vertex=1))
    assert rep.holds and rep.lhs == 2 and rep.rhs == 1
    assert rep.instance["still_one_deficient"] is True
    with pytest.raises(SideConditionUnmet):  # cycles excluded
        c4 = cycle_graph(4)
        lemma_relation_checks(c4, adjacency_matrix(c4), Fraction(0), RelationProbe("pendant-cycle", vertex=1))
    with pytest.raises(SideConditionUnmet):  # anchor has degree 3
        lemma_relation_checks(t, b, Fraction(0), RelationProbe("pendant-cycle", vertex=0))
    with pytest.raises(SideConditionUnmet):  # not adjacent to a major
        t5 = tadpole_graph(5, 2)
        lemma_relation_checks(t5, adjacency_matrix(t5), Fraction(0), RelationProbe("pendant-cycle", vertex=2))
    with pytest.raises(SideConditionUnmet):  # not one-deficient at this lambda
        lemma_relation_checks(t, b, Fraction(5), RelationProbe("pendant-cycle", vertex=1))


def test_two_cycle_deletion_relation():
    inf = infinity_graph(3, 3, 3)
    rep = lemma_relation_checks(
        inf, adjacency_matrix(inf), Fraction(-1), RelationProbe("theta-infty")
    )
    assert rep.holds and rep.lhs == 3
    kinds = [d["kind"] for d in rep.instance["deletions"]]
    assert kinds.count("major") == 0  # infinity shape skips major deletions
    th = theta_graph(2, 2, 2)
    rep = lemma_relation_checks(
        th, adjacency_matrix(th), Fraction(0), RelationProbe("theta-infty")
    )
    assert rep.holds
    kinds = [d["kind"] for d in rep.instance["deletions"]]
    assert kinds.count("major") == 2 and kinds.count("degree-2-neighbor") == 3
    with pytest.raises(SideConditionUnmet):  # wrong shape
        c5 = cycle_graph(5)
        lemma_relation_checks(c5, adjacency_matrix(c5), Fraction(0), RelationProbe("theta-infty"))
    with pytest.raises(SideConditionUnmet):  # not one below the bound
        bow = infinity_graph(3, 3, 1)
        lemma_relation_checks(bow, adjacency_matrix(bow), Fraction(0), RelationProbe("theta-infty"))


def _a_alpha(g, assignment, alpha):
    """The exact A_alpha matrix of g with these gains (1 on the others)."""
    return a_alpha_gain(gain_graph(g, assignment), alpha, scalar="exact")


def test_gain_cycle_unit_gain():
    c5 = cycle_graph(5)
    a = _a_alpha(c5, {}, Fraction(0))
    lam = AlgebraicEigenvalue.from_2cos(5, 1)
    rep = lemma_relation_checks(c5, a, lam, RelationProbe("gain-cycle"))
    assert rep.holds and rep.lhs == 2
    assert rep.instance["gain_rho_zero"] and rep.instance["matched_index"] == 1
    # non-eigenvalue: multiplicity 0, equality side must also be off
    rep = lemma_relation_checks(c5, a, Fraction(1), RelationProbe("gain-cycle"))
    assert rep.holds and rep.lhs == 0


def test_gain_cycle_matches_the_nearest_conjugate():
    # 2cos(2pi/5) and 2cos(4pi/5) share the minimal polynomial x^2 + x - 1;
    # lambda = 2cos(4pi/5) is closed form 2, in exact mode by its isolating
    # interval and in floating mode by its value
    c5 = cycle_graph(5)
    lam = AlgebraicEigenvalue.from_2cos(5, 2)
    assert lam.minpoly == IntPolynomial((-1, 1, 1))
    for b in (_a_alpha(c5, {}, Fraction(0)), a_alpha_gain(gain_graph(c5, {}), 0.0)):
        rep = lemma_relation_checks(c5, b, lam, RelationProbe("gain-cycle"))
        assert rep.holds and rep.lhs == 2 and rep.instance["matched_index"] == 2


@pytest.mark.parametrize("n", [5, 10])
@pytest.mark.parametrize("flip", [False, True])
def test_gain_cycle_matches_conjugates_by_interval(n, flip):
    """Conjugate closed forms share a minimal polynomial but not an
    isolating interval: each doubled eigenvalue matches its own j, in exact
    and floating mode, also when it is named by a reducible squarefree
    polynomial (the product of all the forms' minimal polynomials)."""
    c = cycle_graph(n)
    gains = {(0, 1): -1} if flip else {}
    forms = theorems_mod._gain_closed_forms(n, Fraction(0), flip)
    product = (1,)
    for chi in {chi.coeffs for _, chi, _, _ in forms}:
        product = poly_mul(product, chi)
    matrices = (_a_alpha(c, gains, Fraction(0)), a_alpha_gain(gain_graph(c, gains), 0.0))
    for j, chi, exact, val in forms:
        named = [exact, AlgebraicEigenvalue(IntPolynomial(product), val)]
        for lam, b in itertools.product(named, matrices):
            rep = lemma_relation_checks(c, b, lam, RelationProbe("gain-cycle"))
            assert rep.holds and rep.lhs == 2 and rep.instance["matched_index"] == j, (j, lam)
    conjugates = [chi.coeffs for _, chi, _, _ in forms]
    assert len(set(conjugates)) < len(conjugates)


def test_gain_cycle_flipped_edge():
    c5 = cycle_graph(5)
    a = _a_alpha(c5, {(0, 1): -1}, Fraction(0))
    lam = AlgebraicEigenvalue(min_poly_2cos(10, 1), 2 * math.cos(math.pi / 5))
    rep = lemma_relation_checks(c5, a, lam, RelationProbe("gain-cycle"))
    assert rep.holds and rep.lhs == 2
    assert rep.instance["gain_rho_pi"] and rep.instance["matched_index"] == 0


def test_gain_cycle_alpha_shift():
    # lambda = 2a + (1-a) 2cos(2pi/5) at a = 1/2 has minpoly 4x^2 - 6x + 1
    c5 = cycle_graph(5)
    a = _a_alpha(c5, {}, Fraction(1, 2))
    lam = AlgebraicEigenvalue(IntPolynomial((1, -6, 4)), 1.0 + math.cos(2 * math.pi / 5))
    rep = lemma_relation_checks(c5, a, lam, RelationProbe("gain-cycle"))
    assert rep.holds and rep.lhs == 2 and rep.instance["matched_index"] == 1
    assert rep.instance["alpha"] == "1/2"


def test_gain_cycle_reports_the_multiplicity_in_its_own_matrix():
    """The check answers on b itself: 2cos(2pi/5) doubles in A(C5) but is
    no eigenvalue of A_1/2 = I + A/2, exact or floating."""
    c5 = cycle_graph(5)
    lam = AlgebraicEigenvalue.from_2cos(5, 1)
    for b in (_a_alpha(c5, {}, Fraction(1, 2)), a_alpha_gain(gain_graph(c5, {}), 0.5)):
        rep = lemma_relation_checks(c5, b, lam, RelationProbe("gain-cycle"))
        assert rep.holds and rep.lhs == 0 and rep.instance["matched_index"] is None
        assert rep.instance["gain_rho_zero"] and Fraction(rep.instance["alpha"]) == Fraction(1, 2)


def test_gain_cycle_imaginary_gains():
    c4 = cycle_graph(4)
    # two quarter turns compose to a half turn
    a = _a_alpha(c4, {(0, 1): ExactComplex(0, 1), (1, 2): ExactComplex(0, 1)}, Fraction(0))
    lam = AlgebraicEigenvalue(IntPolynomial((-2, 0, 1)), math.sqrt(2))
    rep = lemma_relation_checks(c4, a, lam, RelationProbe("gain-cycle"))
    assert rep.holds and rep.lhs == 2 and rep.instance["gain_rho_pi"]
    # a single quarter turn breaks every doubling
    a_i = _a_alpha(c4, {(0, 1): ExactComplex(0, 1)}, Fraction(0))
    rep = lemma_relation_checks(c4, a_i, 2 * math.cos(math.pi / 8), RelationProbe("gain-cycle"))
    assert rep.holds and rep.lhs == 1
    assert not rep.instance["gain_rho_zero"] and not rep.instance["gain_rho_pi"]


def _rows_map(b, fn) -> HermitianMatrix:
    """The exact matrix with entry (i, j) replaced by fn(i, j, entry)."""
    return HermitianMatrix.from_rows(
        [[fn(i, j, x) for j, x in enumerate(row)] for i, row in enumerate(b.entries)]
    )


def test_gain_cycle_side_conditions():
    c5 = cycle_graph(5)
    a = adjacency_matrix(c5)
    probe = RelationProbe("gain-cycle")
    # 3*A(C5): alpha 0, but edge entries of modulus 3 are no unit gains
    with pytest.raises(SideConditionUnmet, match="unit gains"):
        lemma_relation_checks(c5, _rows_map(a, lambda i, j, x: 3 * x), Fraction(0), probe)
    # a diagonal that is not constant names no alpha
    bumped = _rows_map(a, lambda i, j, x: x + 1 if i == j == 0 else x)
    with pytest.raises(SideConditionUnmet, match="constant"):
        lemma_relation_checks(c5, bumped, Fraction(0), probe)
    # a constant diagonal 2*alpha with alpha outside [0, 1)
    for d in (2, -2):
        shifted = _rows_map(a, lambda i, j, x: x + d if i == j else x)
        with pytest.raises(SideConditionUnmet, match="outside"):
            lemma_relation_checks(c5, shifted, Fraction(0), probe)
    with pytest.raises(SideConditionUnmet):  # base is not a cycle
        p4 = path_graph(4)
        lemma_relation_checks(p4, adjacency_matrix(p4), Fraction(0), probe)
    # a gain matrix on a different cycle is no matrix in S(G)
    other = _a_alpha(Graph(5, [(0, 2), (2, 4), (4, 1), (1, 3), (3, 0)]), {}, Fraction(0))
    with pytest.raises(PatternMismatch):
        lemma_relation_checks(c5, other, Fraction(0), probe)
