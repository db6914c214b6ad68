"""Structural predicates tying eigenvalue multiplicity to graph shape.

Each predicate evaluates the structural and spectral side conditions of one
characterization and reports them separately from the direct multiplicity
computation, so a disagreement between the two shows up as a recorded
discrepancy instead of being silently repaired.

Throughout, the bound of interest is 2*theta(G) + p(G) (cycle count and
pendant count); "one deficient" means multiplicity exactly one below it.
Every shape fact (theta, p, the family tag, the majors and each form's
vertices and pieces) is read from the graph's record in structure
(structure._structure); this module works none of them out itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional

from .errors import (
    NotApplicable,
    NotATree,
    NotCStarShape,
    NotUnicyclic,
    ParameterOutOfRange,
    PatternMismatch,
    SideConditionUnmet,
)
from .graphs import (
    Graph,
    bfs_distances,
    cycle_graph,
    delete_edge,
    induced_subgraph,
    is_connected,
    path_graph,
    pendant_vertices,
)
from .hermitian import (
    ExactComplex,
    HermitianMatrix,
    adjacency_matrix,
    cycle_gain,
    gain_graph,
    validate_pattern,
)
from .spectra import (
    AlgebraicEigenvalue,
    EigenvalueLike,
    _same_root,
    deletion_multiplicities,
    describe_eigenvalue,
    eigenvalue_float,
    min_poly_2cos,
    multiplicity,
    scale_minpoly,
    submatrix_multiplicity,
)
from .structure import (
    _connected_structure,
    _structure,
    cycle_vertices,
    is_cycle_graph,
    is_path_graph,
    is_tree,
    major_sets,
    tadpole_parts,
)


@dataclass(frozen=True)
class ClassificationOutcome:
    verdict: str
    evidence: dict

    def as_json(self) -> dict:
        return {"verdict": self.verdict, "evidence": self.evidence}


@dataclass(frozen=True)
class CheckReport:
    name: str
    holds: bool
    lhs: object
    rhs: object
    instance: dict

    def as_json(self) -> dict:
        return {
            "name": self.name,
            "holds": self.holds,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "instance": self.instance,
        }


@dataclass(frozen=True)
class PredicateResult:
    holds: bool
    evidence: dict

    def __bool__(self) -> bool:
        return self.holds


def structural_bound(g: Graph) -> int:
    """2*theta + p, the multiplicity ceiling for connected G on >= 2 vertices."""
    st = _structure(g)
    return 2 * st.theta + st.p


def _bound_holds(m: int, theta: int, p: int) -> bool:
    """The bound's rule for a connected graph: m <= 2*theta + p, with
    equality only on a cycle (theta 1, p 0) at m = 2."""
    return m < 2 * theta + p or (m == 2 and theta == 1 and p == 0)


def _mult(b: HermitianMatrix, lam: EigenvalueLike, tol: float = 1e-8) -> int:
    return multiplicity(b, lam, tol).multiplicity


def _instance_stub(g: Graph, lam) -> dict:
    return {
        "n": g.n,
        "edges": [list(e) for e in g.edges],
        "lambda": describe_eigenvalue(lam),
    }


def check_upper_bound(g: Graph, b: HermitianMatrix, lam: EigenvalueLike, tol: float = 1e-8) -> CheckReport:
    """multiplicity <= 2*theta + p, with equality only on cycles at multiplicity 2."""
    _connected_structure(g, "bound check needs a connected graph")
    if g.n < 2:
        raise NotApplicable("bound check needs at least two vertices")
    if not validate_pattern(b, g):
        raise PatternMismatch("matrix is not in S(G)")
    return _bound_report(g, b, lam, tol)


def _bound_report(g: Graph, b: HermitianMatrix, lam: EigenvalueLike, tol: float = 1e-8) -> CheckReport:
    """check_upper_bound on checked input."""
    m = _mult(b, lam, tol)
    st = _structure(g)
    bound = 2 * st.theta + st.p
    inst = _instance_stub(g, lam)
    inst["equality"] = m == bound
    return CheckReport("upper-bound", _bound_holds(m, st.theta, st.p), m, bound, inst)


# ---------------------------------------------------------------------------
# Trees


def tree_equality_predicate(
    t: Graph, b: HermitianMatrix, lam: EigenvalueLike, tol: float = 1e-8
) -> PredicateResult:
    """Structural test for multiplicity p-1 on a tree.

    Paths pass outright. Otherwise every component left after removing the
    major vertices must carry lambda in its principal submatrix, and no two
    major vertices may be adjacent.
    """
    if not is_tree(t):
        raise NotATree("predicate needs a connected tree")
    if t.n < 2:
        raise NotApplicable("predicate needs at least two vertices")
    if not validate_pattern(b, t):
        raise PatternMismatch("matrix is not in S(T)")
    return _tree_conditions(t, b, lam, tol)


def _tree_conditions(
    t: Graph, b: HermitianMatrix, lam: EigenvalueLike, tol: float = 1e-8
) -> PredicateResult:
    """tree_equality_predicate on checked input."""
    st = _structure(t)
    if st.family.kind == "Path":
        return PredicateResult(True, {"path": True})
    nonadjacent, piece_ids = st.tree
    pieces = []
    all_member = True
    for ids in piece_ids:
        member = submatrix_multiplicity(b, ids, lam, tol) >= 1
        pieces.append({"vertices": list(ids), "carries_lambda": member})
        all_member = all_member and member
    holds = nonadjacent and all_member
    return PredicateResult(
        holds,
        {
            "path": False,
            "majors": list(st.majors.X),
            "majors_nonadjacent": nonadjacent,
            "pieces": pieces,
        },
    )


def corollary_nullity_tree(t: Graph) -> bool:
    """Distance parity test matching nullity p-1 for trees with p >= 3.

    Every leaf must be at odd distance from the major set and every pair of
    major vertices at even distance.
    """
    if not is_tree(t):
        raise NotATree("needs a connected tree")
    leaves = pendant_vertices(t)
    if len(leaves) < 3:
        raise NotApplicable("needs at least three pendant vertices")
    x_set = major_sets(t).X
    dist_tables = {u: bfs_distances(t, u) for u in x_set}
    for v in leaves:
        nearest = min(dist_tables[u][v] for u in x_set)
        if nearest % 2 == 0:
            return False
    for u1, u2 in combinations(x_set, 2):
        if dist_tables[u1][u2] % 2 != 0:
            return False
    return True


def corollary_minus_one_tree(t: Graph) -> bool:
    """Distance test matching multiplicity p-1 at eigenvalue -1 for adjacency.

    Paths qualify exactly when n = 3k-1; otherwise every leaf-to-major
    distance must be congruent to 2 mod 3.
    """
    if not is_tree(t):
        raise NotATree("needs a connected tree")
    leaves = pendant_vertices(t)
    if len(leaves) < 2:
        raise NotApplicable("needs at least two pendant vertices")
    if is_path_graph(t):
        return t.n % 3 == 2
    x_set = major_sets(t).X
    for u in x_set:
        dist = bfs_distances(t, u)
        for v in leaves:
            if dist[v] % 3 != 2:
                return False
    return True


# ---------------------------------------------------------------------------
# Unicyclic graphs and the general decomposition form


def _form_d_conditions(
    g: Graph, b: HermitianMatrix, lam: EigenvalueLike, tol: float = 1e-8
) -> PredicateResult:
    """Decomposition form: deleting the off-cycle majors leaves exactly
    theta single-cycle pieces of multiplicity 2 plus paths carrying lambda."""
    structural, cycles, shapes = _structure(g).form_d
    checks = dict(structural)
    pieces = []
    u_mult_ok = True
    paths_ok = True
    for ids, kind in shapes:
        if kind == "path":
            member = submatrix_multiplicity(b, ids, lam, tol) >= 1
            pieces.append({"vertices": list(ids), "kind": kind, "carries_lambda": member})
            paths_ok = paths_ok and member
        elif kind == "single-cycle":
            mu = submatrix_multiplicity(b, ids, lam, tol)
            pieces.append({"vertices": list(ids), "kind": kind, "multiplicity": mu})
            u_mult_ok = u_mult_ok and mu == 2
        else:
            pieces.append({"vertices": list(ids), "kind": kind})
    checks["cycle_pieces_multiplicity_2"] = u_mult_ok
    checks["paths_carry_lambda"] = paths_ok
    holds = all(checks.values())
    cycle_reports = [
        {"cycle": list(vs), "majors": list(majors_on), "ok": ok} for vs, majors_on, ok in cycles
    ]
    return PredicateResult(holds, {"checks": checks, "pieces": pieces, "cycles": cycle_reports})


def unicyclic_equality_predicate(
    g: Graph, b: HermitianMatrix, lam: EigenvalueLike, tol: float = 1e-8
) -> PredicateResult:
    """Specialization of the decomposition form to exactly one cycle."""
    st = _structure(g)
    if not st.connected or st.theta != 1:
        raise NotUnicyclic("predicate needs a connected graph with exactly one cycle")
    if st.p < 2:
        raise NotApplicable("predicate needs at least two pendant vertices")
    if not validate_pattern(b, g):
        raise PatternMismatch("matrix is not in S(G)")
    return _form_d_conditions(g, b, lam, tol)


def _form_c_conditions(
    g: Graph, b: HermitianMatrix, lam: EigenvalueLike, m: int, tol: float = 1e-8
) -> PredicateResult:
    """Two-cycle forms: deleting any degree-2 cycle vertex next to a major
    must drop the multiplicity to 2; theta shapes additionally for every
    major. Only cycle vertices qualify: removing an interior vertex of the
    connecting path splits the graph in two, and the drop-to-2 argument
    needs the remainder connected.
    """
    st = _structure(g)
    is_theta = st.family.kind == "ThetaGraph"
    ys, xs = st.form_c
    subs = deletion_multiplicities(b, lam, ys + xs if is_theta else ys, tol)
    y_subs, x_subs = subs[: len(ys)], subs[len(ys) :]
    checks = {"multiplicity_3": m == 3}
    deletions = [
        {"vertex": y, "kind": "degree-2-neighbor", "multiplicity": sub}
        for y, sub in zip(ys, y_subs)
    ]
    checks["degree2_deletions_give_2"] = all(sub == 2 for sub in y_subs)
    if is_theta:
        deletions += [
            {"vertex": x, "kind": "major", "multiplicity": sub} for x, sub in zip(xs, x_subs)
        ]
        checks["major_deletions_give_2"] = all(sub == 2 for sub in x_subs)
    holds = all(checks.values())
    return PredicateResult(holds, {"checks": checks, "deletions": deletions})


# ---------------------------------------------------------------------------
# Adjacency-only predicate for the cycle-plus-tail shape


def cstar_adjacency_predicate(cstar: Graph, lam: EigenvalueLike, tol: float = 1e-8) -> bool:
    """Adjacency multiplicity 2 on a cycle with one pendant tail.

    True iff the tail beyond the cycle-attached vertex is nonempty, carries
    lambda as a standalone path, and lambda doubles on the bare cycle. A
    tail of one vertex (no spare path) always fails: the empty path carries
    no eigenvalue.
    """
    if not _structure(cstar).connected:
        raise NotCStarShape("shape must be connected")
    cyc, _anchor, tail = tadpole_parts(cstar)
    spare = tail[1:]
    if not spare:
        return False
    cyc_mult = _mult(adjacency_matrix(cycle_graph(len(cyc))), lam, tol)
    if cyc_mult != 2:
        return False
    return _mult(adjacency_matrix(path_graph(len(spare))), lam, tol) >= 1


# ---------------------------------------------------------------------------
# Hard-coded counterexample instances


def fixture_paw_matrix() -> HermitianMatrix:
    """Weighted triangle-plus-pendant with a doubled eigenvalue at 2."""
    rows = [
        [-10, -10, -10, 8],
        [-10, -3, -5, 0],
        [-10, -5, -3, 0],
        [8, 0, 0, 10],
    ]
    return HermitianMatrix.from_rows(rows)


def fixture_tadpole_matrix() -> HermitianMatrix:
    """Weighted triangle with a three-vertex tail, doubled eigenvalue at -9."""
    rows = [
        [0, 1, 1, 8, 0, 0],
        [1, 0, 9, 0, 0, 0],
        [1, 9, 0, 0, 0, 0],
        [8, 0, 0, 0, 4, 0],
        [0, 0, 0, 4, 0, 1],
        [0, 0, 0, 0, 1, 0],
    ]
    return HermitianMatrix.from_rows(rows)


def weighted_counterexample_check() -> CheckReport:
    """Pinned multiplicities showing the adjacency-only shape test cannot be
    transplanted to general weighted matrices.

    The tadpole instance has full multiplicity 2 at -9 even though its tail
    path does not carry -9 (submatrix multiplicity 0), so the biconditional
    that holds for adjacency fails for this matrix.
    """
    b1 = fixture_paw_matrix()
    b2 = fixture_tadpole_matrix()
    got = (
        _mult(b1, 2),
        submatrix_multiplicity(b1, (0, 1, 2), 2),
        _mult(b2, -9),
        submatrix_multiplicity(b2, (0, 1, 2), -9),
        submatrix_multiplicity(b2, (4, 5), -9),
    )
    expected = (2, 1, 2, 1, 0)
    return CheckReport(
        "weighted-counterexample",
        got == expected,
        list(got),
        list(expected),
        {
            "paw": [list(e) for e in b1.pattern.edges],
            "tadpole": [list(e) for e in b2.pattern.edges],
        },
    )


# ---------------------------------------------------------------------------
# Classifier


def conclusion_classifier(
    g: Graph, b: HermitianMatrix, lam: EigenvalueLike, tol: float = 1e-8
) -> ClassificationOutcome:
    """Classify (G, B, lambda) against the one-deficient characterization.

    The verdict is driven by the structural form tests; the direct
    multiplicity comparison is recorded alongside, and any mismatch between
    the two is logged under evidence["violations"] rather than repaired.
    """
    _connected_structure(g, "classifier needs a connected graph")
    if not validate_pattern(b, g):
        raise PatternMismatch("matrix is not in S(G)")
    if g.n < 2:
        raise NotApplicable("classifier needs at least two vertices")
    mres = multiplicity(b, lam, tol)
    return _classify(g, b, lam, tol, mres.multiplicity, mres.method)


def _classify(
    g: Graph, b: HermitianMatrix, lam: EigenvalueLike, tol: float, m: int, method: str
) -> ClassificationOutcome:
    """conclusion_classifier on checked input whose multiplicity m of lambda
    is already known (method names how it was obtained)."""
    st = _structure(g)
    fam, theta, p = st.family, st.theta, st.p
    bound = 2 * theta + p
    if fam.kind in ("Path", "TreeGeneral"):
        form = "OneDeficientFormA"
        cond = _tree_conditions(g, b, lam, tol)
    elif fam.kind == "Cycle":
        form = "OneDeficientFormB"
        cond = PredicateResult(m == 1, {"target_multiplicity": 1, "multiplicity": m})
    elif fam.kind == "CStarShape":
        form = "OneDeficientFormB"
        cond = PredicateResult(m == 2, {"target_multiplicity": 2, "multiplicity": m})
    elif fam.kind in ("ThetaGraph", "InfinityGraph"):
        form = "OneDeficientFormC"
        cond = _form_c_conditions(g, b, lam, m, tol)
    else:
        form = "OneDeficientFormD"
        cond = _form_d_conditions(g, b, lam, tol)
    if m == bound:
        verdict = "AttainsBound"
    elif m >= 1 and cond.holds:
        verdict = form
    else:
        # the characterization presupposes lambda is an eigenvalue, so m = 0
        # lands here regardless of the structural conditions
        verdict = "TwoPlusDeficient"
    violations = []
    if verdict == "AttainsBound" and not _bound_holds(m, theta, p):
        violations.append("bound attained on a non-cycle instance")
    if 1 <= m < bound and cond.holds != (m == bound - 1):
        violations.append(
            "form conditions and direct multiplicity disagree: "
            f"conditions {cond.holds}, multiplicity {m}, target {bound - 1}"
        )
    evidence = {
        "family": str(fam),
        "theta": theta,
        "pendant_count": p,
        "bound": bound,
        "multiplicity": m,
        "method": method,
        "certified": method != "NumericCluster",
        "form": form,
        "form_conditions": cond.evidence,
        "form_holds": cond.holds,
        "consistent": not violations,
        "violations": violations,
    }
    return ClassificationOutcome(verdict, evidence)


# ---------------------------------------------------------------------------
# Relation probes

RELATIONS = (
    "interlace-v",
    "interlace-e",
    "guvh",
    "path-removal",
    "pendant-cycle",
    "theta-infty",
    "gain-cycle",
)


@dataclass(frozen=True)
class RelationProbe:
    """Selects one relation check and carries the witnesses its caller
    chooses; everything else the check reads off (g, b).

    relation: one of interlace-v, interlace-e, guvh, path-removal,
    pendant-cycle, theta-infty, gain-cycle. vertex serves interlace-v and
    pendant-cycle, edge interlace-e, left_part guvh and path path-removal;
    theta-infty and gain-cycle take no witness.
    """

    relation: str
    vertex: Optional[int] = None
    edge: Optional[tuple[int, int]] = None
    left_part: Optional[tuple[int, ...]] = None  # guvh: vertices of the G side
    path: Optional[tuple[int, ...]] = None
    tol: float = 1e-8


def _zero_edge(b: HermitianMatrix, u: int, v: int) -> HermitianMatrix:
    g2 = delete_edge(b.pattern, (u, v))
    zero = ExactComplex(0, 0) if b.is_exact else complex(0)
    rows = [list(r) for r in b.entries]
    rows[u][v] = zero
    rows[v][u] = zero
    return HermitianMatrix(b.n, tuple(tuple(r) for r in rows), g2, b.scalar)


def lemma_relation_checks(
    g: Graph, b: HermitianMatrix, lam: EigenvalueLike, probe: RelationProbe
) -> CheckReport:
    """Check one deletion/composition/gain relation on a concrete instance.

    Every relation is a statement about b itself. guvh takes its join to
    be the one edge that crosses the left part, with u in the left part.
    gain-cycle reads alpha off b's constant diagonal (2*alpha on a cycle)
    and the unit gains off b's edge entries, divided by 1 - alpha, and
    reports b's own multiplicity of lambda.

    Raises PatternMismatch (DimensionMismatch on an order mismatch) when b
    is not in S(G), and SideConditionUnmet when the relation's hypotheses do
    not apply to this instance; that is not a failed check.
    """
    rel = probe.relation
    if not validate_pattern(b, g):
        raise PatternMismatch("matrix is not in S(G)")
    tol = probe.tol
    inst = _instance_stub(g, lam)
    inst["relation"] = rel
    if rel == "interlace-v":
        if probe.vertex is None or not (0 <= probe.vertex < g.n):
            raise SideConditionUnmet("needs a valid vertex witness")
        m = _mult(b, lam, tol)
        keep = [v for v in range(g.n) if v != probe.vertex]
        md = submatrix_multiplicity(b, keep, lam, tol)
        inst["vertex"] = probe.vertex
        return CheckReport(rel, md - 1 <= m <= md + 1, m, md, inst)
    if rel == "interlace-e":
        if probe.edge is None:
            raise SideConditionUnmet("needs an edge witness")
        u, v = probe.edge
        if not g.has_edge(u, v):
            raise SideConditionUnmet(f"({u}, {v}) is not an edge")
        m = _mult(b, lam, tol)
        md = _mult(_zero_edge(b, u, v), lam, tol)
        inst["edge"] = [u, v]
        return CheckReport(rel, m <= md + 2, m, md, inst)
    if rel == "guvh":
        if probe.left_part is None:
            raise SideConditionUnmet("needs the left part")
        left = tuple(sorted(probe.left_part))
        left_set = set(left)
        crossing = [(a, c) for a, c in g.edges if (a in left_set) != (c in left_set)]
        if len(crossing) != 1:
            raise SideConditionUnmet("exactly one edge must cross from the left part")
        u, v = crossing[0] if crossing[0][0] in left_set else crossing[0][::-1]
        right = [w for w in range(g.n) if w not in left_set]
        if not is_connected(induced_subgraph(g, left).child) or not is_connected(
            induced_subgraph(g, right).child
        ):
            raise SideConditionUnmet("both sides of the join must be connected")
        if submatrix_multiplicity(b, left, lam, tol) < 1:
            raise SideConditionUnmet("lambda must be an eigenvalue of the left part")
        left_minus_u = [w for w in left if w != u]
        if left_minus_u and submatrix_multiplicity(b, left_minus_u, lam, tol) >= 1:
            raise SideConditionUnmet("lambda must avoid the left part minus the join vertex")
        m = _mult(b, lam, tol)
        right_minus_v = [w for w in range(g.n) if w not in left_set and w != v]
        mh = submatrix_multiplicity(b, right_minus_v, lam, tol) if right_minus_v else 0
        inst["left_part"] = list(left)
        inst["join"] = [u, v]
        return CheckReport(rel, m == mh, m, mh, inst)
    if rel == "path-removal":
        if not probe.path:
            raise SideConditionUnmet("needs a path witness")
        path = tuple(probe.path)
        if len(set(path)) != len(path):
            raise SideConditionUnmet("path vertices must be distinct")
        for w in path:
            if not (0 <= w < g.n):
                raise SideConditionUnmet("path vertex out of range")
        for a, c in zip(path, path[1:]):
            if not g.has_edge(a, c):
                raise SideConditionUnmet("path vertices must be consecutively adjacent")
        cyc = cycle_vertices(g)
        if any(w in cyc for w in path):
            raise SideConditionUnmet("path must avoid all cycle vertices")
        m = _mult(b, lam, tol)
        keep = [v for v in range(g.n) if v not in set(path)]
        md = submatrix_multiplicity(b, keep, lam, tol) if keep else 0
        inst["path"] = list(path)
        return CheckReport(rel, md >= m - 1, m, md, inst)
    if rel == "pendant-cycle":
        if probe.vertex is None:
            raise SideConditionUnmet("needs the degree-2 cycle vertex witness")
        x = probe.vertex
        st = _structure(g)
        if not st.connected or st.family.kind == "Cycle":
            raise SideConditionUnmet("needs a connected non-cycle graph")
        # both neighbours of a degree-2 cycle vertex lie on its cycle
        if x not in st.form_c[0]:
            raise SideConditionUnmet("witness must be a degree-2 cycle vertex next to a major")
        m = _mult(b, lam, tol)
        if m != structural_bound(g) - 1:
            raise SideConditionUnmet("graph must be exactly one below the bound")
        keep = [v for v in range(g.n) if v != x]
        md = submatrix_multiplicity(b, keep, lam, tol)
        drop_ok = m == md + 1
        still_deficient = md == structural_bound(induced_subgraph(g, keep).child) - 1
        inst["vertex"] = x
        inst["still_one_deficient"] = still_deficient
        return CheckReport(rel, drop_ok and still_deficient, m, md, inst)
    if rel == "theta-infty":
        st = _structure(g)
        if not st.connected or st.family.kind not in ("ThetaGraph", "InfinityGraph"):
            raise SideConditionUnmet("needs a two-cycle shape")
        m = _mult(b, lam, tol)
        if m != structural_bound(g) - 1:
            raise SideConditionUnmet("graph must be exactly one below the bound")
        cond = _form_c_conditions(g, b, lam, m, tol)
        inst["deletions"] = cond.evidence["deletions"]
        return CheckReport(rel, cond.holds, m, 3, inst)
    if rel == "gain-cycle":
        return _gain_cycle_check(g, b, lam, tol, inst)
    raise SideConditionUnmet(f"unknown relation {rel!r}")


def _gain_cycle_check(
    g: Graph, b: HermitianMatrix, lam: EigenvalueLike, tol: float, inst: dict
) -> CheckReport:
    """The gain-cycle relation on b = alpha*D + (1 - alpha)*A(phi), with
    alpha and the gains phi read off b itself."""
    if not is_cycle_graph(g):
        raise SideConditionUnmet("needs a cycle base graph")
    exact_mode = b.is_exact
    diagonal = {x.re if exact_mode else x.real for x in (b.entries[v][v] for v in range(g.n))}
    if len(diagonal) != 1:
        raise SideConditionUnmet("the diagonal must be constant, 2*alpha on a cycle")
    alpha = diagonal.pop() / 2
    if not 0 <= alpha < 1:
        raise SideConditionUnmet(f"alpha {alpha} read off the diagonal is outside [0, 1)")
    try:
        phi = gain_graph(g, {(u, v): b.entries[u][v] / (1 - alpha) for u, v in g.edges})
    except ParameterOutOfRange as exc:
        raise SideConditionUnmet(f"edge entries are not (1 - alpha) times unit gains: {exc}") from None
    m = _mult(b, lam, tol)
    gain = cycle_gain(phi).value
    if isinstance(gain, ExactComplex):
        rho_zero = gain == ExactComplex(1, 0)
        rho_pi = gain == ExactComplex(-1, 0)
    else:
        rho_zero = abs(gain - 1) <= tol
        rho_pi = abs(gain + 1) <= tol
    matched = None
    if rho_zero or rho_pi:
        matched = _match_gain_eigenvalue(g.n, alpha, lam, rho_pi, tol, exact_mode)
    equality_side = (rho_zero or rho_pi) and matched is not None
    holds = m <= 2 and ((m == 2) == equality_side)
    inst["alpha"] = str(alpha)
    inst["gain_rho_zero"] = rho_zero
    inst["gain_rho_pi"] = rho_pi
    inst["matched_index"] = matched
    return CheckReport("gain-cycle", holds, m, 2, inst)


def _gain_closed_forms(n: int, alpha, rho_pi: bool) -> list[tuple]:
    """(j, minimal polynomial, exact value, float value) of each doubled
    eigenvalue of the A_alpha matrix of a gain n-cycle.

    Gain 1: lambda = 2a + (1-a) * 2cos(2j*pi/n), j = 1..ceil(n/2)-1.
    Gain -1: lambda = 2a + (1-a) * 2cos((2j+1)*pi/n), j = 0..floor(n/2)-1.
    The exact value is a Fraction when the minimal polynomial is linear.
    """
    a = Fraction(alpha)
    out = []
    for j in range(0, n // 2) if rho_pi else range(1, (n + 1) // 2):
        mu = min_poly_2cos(2 * n, 2 * j + 1) if rho_pi else min_poly_2cos(n, j)
        chi = scale_minpoly(mu, 1 - a, 2 * a)
        ang = (2 * j + 1) * math.pi / n if rho_pi else 2 * j * math.pi / n
        val = 2.0 * float(a) + 2.0 * (1.0 - float(a)) * math.cos(ang)
        if chi.degree == 1:
            out.append((j, chi, Fraction(-chi.coeffs[0], chi.coeffs[1]), val))
        else:
            out.append((j, chi, AlgebraicEigenvalue(chi, val), val))
    return out


def _match_gain_eigenvalue(n, alpha, lam, rho_pi, tol, exact_mode):
    """Index j whose closed-form doubled eigenvalue equals lambda, if any.
    In exact mode an exact lambda is compared by isolating interval
    (spectra._same_root): conjugate closed forms share a minimal
    polynomial chi but not an interval, and a form matches when gcd(chi,
    f) changes sign where the two intervals meet, f lambda's polynomial."""
    forms = _gain_closed_forms(n, alpha, rho_pi)
    if not exact_mode:
        lam_f = eigenvalue_float(lam)
        return next((j for j, _, _, val in forms if abs(val - lam_f) <= max(tol, 1e-9)), None)
    if isinstance(lam, (AlgebraicEigenvalue, int, Fraction)):
        return next((j for j, _, exact, _ in forms if _same_root(exact, lam)), None)
    return None
