import dataclasses
import hashlib
import json
import random
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
import sympy

import specmult.oracle as oracle_mod
import specmult.spectra as spectra_mod
from specmult.errors import CapExceeded, ParameterOutOfRange, TimeBudgetExceeded
from specmult.graphs import (
    Graph,
    cycle_graph,
    cyclomatic_number,
    is_connected,
    path_graph,
    theta_graph,
)
from specmult.hermitian import adjacency_matrix, random_in_S
from specmult.oracle import (
    CampaignConfig,
    CAP_CONNECTED,
    CAP_CSTAR,
    CAP_THETA_INFTY_PARAM,
    CAP_TREES_DEDUPED,
    CAP_TREES_LABELED,
    CAP_UNICYCLIC_DEDUPED,
    CAP_UNICYCLIC_LABELED,
    _batched_charpoly,
    _build_guvh_instance,
    _form_d_gate,
    certified_spectrum,
    enumerate_connected,
    enumerate_cstar_shapes,
    enumerate_theta_infinity,
    enumerate_trees,
    enumerate_unicyclic,
    int_multiplicity_profile,
    int_squarefree_parts,
    run_campaign,
)
from specmult.spectra import (
    AlgebraicEigenvalue,
    IntPolynomial,
    _real_roots,
    describe_eigenvalue,
    eigenvalue_float,
    irreducible_factors,
    scaled_char_poly,
    squarefree_parts,
)
from specmult.structure import _structure, classify_family, is_tree
from specmult.theorems import RelationProbe, _form_d_conditions, lemma_relation_checks

LABELED_CONNECTED = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26704}
DEDUPED_TREES = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106}
DEDUPED_UNICYCLIC = {3: 1, 4: 2, 5: 5, 6: 13, 7: 33, 8: 89, 9: 240}


def _nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


# ---------------------------------------------------------------------------
# Enumerators


def test_labeled_tree_counts():
    # Cayley: n^(n-2) labeled trees
    for n in range(2, 8):
        got = sum(1 for _ in enumerate_trees(n))
        assert got == n ** (n - 2)
    for t in enumerate_trees(5):
        assert is_tree(t) and is_connected(t)


def test_deduped_tree_counts_match_networkx():
    for n, want in DEDUPED_TREES.items():
        trees = list(enumerate_trees(n, dedupe=True))
        assert len(trees) == want
        if n >= 2:
            assert len(list(nx.nonisomorphic_trees(n))) == want
    # representatives at n = 7 are pairwise non-isomorphic
    reps = [_nx(t) for t in enumerate_trees(7, dedupe=True)]
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            assert not nx.is_isomorphic(reps[i], reps[j])


def test_unicyclic_counts_and_shapes():
    for n, want in DEDUPED_UNICYCLIC.items():
        gs = list(enumerate_unicyclic(n, dedupe=True))
        assert len(gs) == want
        assert all(is_connected(g) and cyclomatic_number(g) == 1 for g in gs)
    reps = [_nx(g) for g in enumerate_unicyclic(6, dedupe=True)]
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            assert not nx.is_isomorphic(reps[i], reps[j])


def test_labeled_unicyclic_against_connected_sweep():
    """Labeled unicyclic = connected graphs with exactly n edges."""
    for n in range(3, 7):
        ours = {g.edges for g in enumerate_unicyclic(n, dedupe=False)}
        ref = {g.edges for g in enumerate_connected(n) if len(g.edges) == n}
        assert ours == ref


def test_connected_counts():
    for n, want in LABELED_CONNECTED.items():
        assert sum(1 for _ in enumerate_connected(n)) == want
    for g in enumerate_connected(4):
        assert is_connected(g)


def test_shape_family_enumerators():
    shapes = list(enumerate_cstar_shapes(6))
    assert len(shapes) == 6  # (3,1..3), (4,1..2), (5,1)
    for m, t, g in shapes:
        assert g.n == m + t
        assert classify_family(g).kind == "CStarShape"
    kinds = {"theta": 0, "infinity": 0}
    for kind, params, g in enumerate_theta_infinity(4):
        kinds[kind] += 1
        fam = classify_family(g)
        assert fam.kind == ("ThetaGraph" if kind == "theta" else "InfinityGraph")
        assert tuple(sorted(fam.params)) == tuple(sorted(params))
    assert kinds["theta"] > 0 and kinds["infinity"] > 0


def test_enumerator_caps():
    with pytest.raises(CapExceeded):
        list(enumerate_trees(CAP_TREES_LABELED + 1))
    with pytest.raises(CapExceeded):
        list(enumerate_trees(CAP_TREES_DEDUPED + 1, dedupe=True))
    with pytest.raises(CapExceeded):
        list(enumerate_unicyclic(CAP_UNICYCLIC_DEDUPED + 1, dedupe=True))
    with pytest.raises(CapExceeded):
        list(enumerate_unicyclic(CAP_UNICYCLIC_LABELED + 1, dedupe=False))
    with pytest.raises(CapExceeded):
        list(enumerate_connected(CAP_CONNECTED + 1))
    with pytest.raises(CapExceeded):
        list(enumerate_cstar_shapes(CAP_CSTAR + 1))
    with pytest.raises(CapExceeded):
        list(enumerate_theta_infinity(CAP_THETA_INFTY_PARAM + 1))
    with pytest.raises(ParameterOutOfRange):
        list(enumerate_trees(0))
    with pytest.raises(ParameterOutOfRange):
        list(enumerate_unicyclic(2))


# ---------------------------------------------------------------------------
# Integer-only polynomial machinery


def test_int_multiplicity_profile_known():
    # (x-1)^2 (x-2)^2 (x-3): profile {2: 2, 1: 1}
    p = np.poly1d([1, 1, 2, 2, 3], True).coeffs.astype(int)[::-1]
    assert int_multiplicity_profile(tuple(p)) == {2: 2, 1: 1}
    assert int_multiplicity_profile((1,)) == {}
    # (x^2 - 2)^3 = x^6 - 6x^4 + 12x^2 - 8: degree 2 carried at multiplicity 3
    assert int_multiplicity_profile((-8, 0, 12, 0, -6, 0, 1)) == {3: 2}


def test_int_multiplicity_profile_matches_fraction_route():
    """Z[x]-only squarefree profile agrees with sympy's squarefree decomposition."""
    x = sympy.Symbol("x")
    rng = random.Random(11)
    for _ in range(60):
        roots = []
        for _ in range(rng.randint(1, 4)):
            roots.extend([rng.randint(-4, 4)] * rng.randint(1, 3))
        coeffs = np.poly1d(roots, True).coeffs.astype(np.int64)[::-1]
        prof = int_multiplicity_profile(tuple(int(c) for c in coeffs))
        ref: dict[int, int] = {}
        _, factors = sympy.Poly([int(c) for c in reversed(coeffs)], x).sqf_list()
        for f, m in factors:
            ref[m] = ref.get(m, 0) + f.degree()
        assert prof == ref
        # and the parts themselves, each primitive with a positive leading
        # coefficient, in (degree, coefficients) order
        parts = sorted(
            (tuple(int(c) for c in reversed(f.all_coeffs())), m) for f, m in factors if f.degree() >= 1
        )
        parts = [(IntPolynomial(f if f[-1] > 0 else [-c for c in f]), m) for f, m in parts]
        parts.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
        assert int_squarefree_parts(tuple(int(c) for c in coeffs)) == parts


def test_int_multiplicity_profile_on_random_patterns():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randint(2, 6)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
        ]
        g = Graph(n, edges)
        b = random_in_S(g, seed=rng.randrange(1 << 20))
        p, _d = scaled_char_poly(b)
        prof = int_multiplicity_profile(p.coeffs)
        assert sum(k * d for k, d in prof.items()) == n


def test_batched_charpoly_matches_references():
    rng = np.random.default_rng(7)
    batch = rng.integers(-3, 4, size=(40, 5, 5))
    batch = batch + batch.transpose(0, 2, 1)  # symmetric
    coeffs = _batched_charpoly(batch)
    for a, cs in zip(batch, coeffs):
        ref = np.poly(a)  # highest degree first
        assert np.allclose(cs[::-1], ref, atol=1e-6)
    # and against the exact route on an adjacency matrix
    c4 = adjacency_matrix(cycle_graph(4))
    arr = np.zeros((1, 4, 4), dtype=np.int64)
    for u, v in c4.pattern.edges:
        arr[0, u, v] = arr[0, v, u] = 1
    assert scaled_char_poly(c4)[1] == 1
    assert tuple(int(c) for c in _batched_charpoly(arr)[0]) == scaled_char_poly(c4)[0].coeffs


def test_batched_charpoly_asserts_its_int64_bound():
    # K_9, the densest 0/1 table of the n = 9 sweep: 9*(2*8)^9 < 2**63
    k9 = np.ones((1, 9, 9), dtype=np.int64) - np.eye(9, dtype=np.int64)
    complete = Graph(9, [(u, v) for u in range(9) for v in range(u + 1, 9)])
    assert tuple(_batched_charpoly(k9)[0].tolist()) == scaled_char_poly(adjacency_matrix(complete))[0].coeffs
    with pytest.raises(AssertionError, match="overflow"):
        _batched_charpoly(k9 << 20)


# ---------------------------------------------------------------------------
# Sweep gate (structural half behind the nonempty-M prefilter) vs the full
# decomposition predicate

STRUCTURAL_CLAUSES = (
    "theta_positive",
    "offcycle_majors_nonempty",
    "one_degree3_major_per_cycle",
    "offcycle_majors_nonadjacent",
    "decomposes_into_cycles_and_paths",
    "cycle_piece_count_matches_theta",
)


def _gate_reference(g: Graph) -> bool:
    cond = _form_d_conditions(g, adjacency_matrix(g), Fraction(0))
    return all(cond.evidence["checks"][k] for k in STRUCTURAL_CLAUSES)


def test_form_d_gate_matches_predicate_exhaustively():
    for n in range(2, 6):
        for g in enumerate_connected(n):
            assert _form_d_gate(g) == _gate_reference(g)


def test_form_d_gate_on_larger_samples():
    hits = 0
    for n in (6, 7, 8):
        for g in enumerate_unicyclic(n, dedupe=True):
            want = _gate_reference(g)
            assert _form_d_gate(g) == want
            hits += want
    assert hits > 0  # the sweep must exercise the accepting branch


def _split_rows(n: int, masks):
    """(rows with 3*theta + 1 > n, rows with 3*theta + 1 <= n) among those
    the sweep would otherwise gate: trees and graphs with one cycle and
    p <= 1 are classified anyway."""
    slots = oracle_mod._edge_slots(n)
    degs = np.zeros((masks.size, n), dtype=np.int64)
    for idx, (u, v) in enumerate(slots):
        bit = (masks >> idx) & 1
        degs[:, u] += bit
        degs[:, v] += bit
    theta = degs.sum(axis=1) // 2 - n + 1
    p = (degs == 1).sum(axis=1)
    gated = ~((theta == 0) | ((theta == 1) & (p <= 1)))
    small = 3 * theta + 1 > n
    return masks[gated & small], masks[gated & ~small], slots


def _offcycle_flags(n: int, masks):
    """The sweep's per-chunk off-cycle-major flag for each mask."""
    slots = oracle_mod._edge_slots(n)
    degs = np.zeros((masks.size, n), dtype=np.int64)
    for idx, (u, v) in enumerate(slots):
        bit = (masks >> idx) & 1
        degs[:, u] += bit
        degs[:, v] += bit
    return oracle_mod._has_offcycle_major(masks, degs, n).tolist(), slots


def test_offcycle_major_flag_matches_the_structure():
    """The bridge test by mask lookup finds an off-cycle major exactly where
    the block decomposition does: every connected graph for n <= 6, and a
    seeded 1 in 20 at n = 7."""
    rng = random.Random(20)
    flagged = 0
    for n in range(2, 8):
        masks = oracle_mod._connected_masks(n)
        if n == 7:
            masks = masks[[rng.randrange(20) == 0 for _ in range(masks.size)]]
            assert masks.size > 90000
        flags, slots = _offcycle_flags(n, masks)
        for mask, flag in zip(masks.tolist(), flags):
            g = Graph(n, oracle_mod._mask_edges(mask, slots))
            assert flag == bool(_structure(g).majors.M)
        flagged += sum(flags)
    assert flagged > 0


def test_sweep_skip_rule_drops_no_row_the_gate_passes():
    """Neither 3*theta + 1 > n nor a missing off-cycle major drops a row
    the gate passes: every row for n <= 6, a seeded sample at n = 7."""
    rng = random.Random(7)
    too_small = no_major = 0
    for n in range(2, 8):
        small, gated, slots = _split_rows(n, oracle_mod._connected_masks(n))
        if n == 7:
            small = small[[rng.randrange(50) == 0 for _ in range(small.size)]]
            gated = gated[[rng.randrange(20) == 0 for _ in range(gated.size)]]
            assert small.size > 30000
        flags, _ = _offcycle_flags(n, gated)
        dropped = small.tolist() + [m for m, flag in zip(gated.tolist(), flags) if not flag]
        for mask in dropped:
            assert _form_d_gate(Graph(n, oracle_mod._mask_edges(mask, slots))) is False
        if n < 7:
            too_small += small.size
            no_major += len(dropped) - small.size
    # 21,055 of them are not theta = 2, p = 0 rows, which see the family test first
    assert too_small == 22136
    assert no_major == 2430


def test_connected_sweep_gates_only_where_form_d_can_hold(monkeypatch):
    calls = {"_form_d_gate": 0, "_classify": 0}
    passed = []
    for name in calls:
        real = getattr(oracle_mod, name)

        def counted(*args, real=real, name=name):
            calls[name] += 1
            out = real(*args)
            if name == "_form_d_gate":
                passed.append(out)
            return out

        monkeypatch.setattr(oracle_mod, name, counted)
    summary, _ = _run("connected", cap=6)
    assert summary["checks"] == 71301
    # 23,665 gate calls before the 3*theta + 1 <= n rule and 2,610 before
    # the off-cycle-major prefilter; the classifier still runs once per
    # (labeled graph, lambda) it ran on before
    assert calls == {"_form_d_gate": 180, "_classify": 21913}
    # every row the prefilter kept passes the gate, so it dropped only
    # rows the gate would have rejected
    assert all(passed)


# ---------------------------------------------------------------------------
# Certified spectra


def test_certified_spectrum_cycle():
    clusters = certified_spectrum(adjacency_matrix(cycle_graph(6)))
    assert [(round(c.approx, 6), c.multiplicity) for c in clusters] == [
        (-2.0, 1),
        (-1.0, 2),
        (1.0, 2),
        (2.0, 1),
    ]
    assert all(c.scale == 1 for c in clusters)
    assert clusters[1].lam == Fraction(-1)


def test_certified_spectrum_scaled_entries():
    from specmult.hermitian import ExactComplex, HermitianMatrix

    half = Fraction(1, 2)
    rows = [
        [0, half, 0, half],
        [half, 0, half, 0],
        [0, half, 0, half],
        [half, 0, half, 0],
    ]
    b = HermitianMatrix.from_rows(rows)
    clusters = certified_spectrum(b)
    assert [(c.approx, c.multiplicity, c.scale) for c in clusters] == [
        (-1.0, 1, 2),
        (0.0, 2, 2),
        (1.0, 1, 2),
    ]
    # descriptors are eigenvalues of scale*B
    assert clusters[0].lam == Fraction(-2)


def test_certified_spectrum_totals_random():
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randint(2, 6)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
        ]
        b = random_in_S(Graph(n, edges), seed=rng.randrange(1 << 20))
        clusters = certified_spectrum(b)
        assert sum(c.multiplicity for c in clusters) == n
        assert all(a.approx < b2.approx for a, b2 in zip(clusters, clusters[1:]))


def _drop_last_root(monkeypatch):
    real = oracle_mod._real_roots
    monkeypatch.setattr(oracle_mod, "_real_roots", lambda coeffs: real(coeffs)[:-1])


def test_certified_spectrum_raises_on_a_lost_root(monkeypatch):
    _drop_last_root(monkeypatch)
    with pytest.raises(AssertionError, match="degree 2 yielded 1 real roots"):
        certified_spectrum(adjacency_matrix(cycle_graph(5)))


def test_connected_sweep_repairs_a_lost_root(monkeypatch):
    """The sweep isolates each part's roots by certified sign changes; a
    root finder that loses a root fails the certificate, and the roots are
    then isolated by Sturm bisection, so the sweep's answers do not move."""
    want = _json_sha1(_run("connected", cap=5)[0])
    oracle_mod._part_eigenvalues.cache_clear()
    spectra_mod._isolate.cache_clear()
    real = spectra_mod._real_roots
    lost = []

    def short(coeffs):
        found = real(coeffs)
        lost.append(len(found) > 1)
        return found[:-1] if len(found) > 1 else found

    monkeypatch.setattr(spectra_mod, "_real_roots", short)
    summary, discrepancies = _run("connected", cap=5)
    assert any(lost) and discrepancies == []
    assert _json_sha1(summary) == want


def test_certified_spectrum_raises_when_multiplicities_fall_short(monkeypatch):
    real = oracle_mod.squarefree_parts
    monkeypatch.setattr(oracle_mod, "squarefree_parts", lambda p: real(p)[1:])
    with pytest.raises(AssertionError, match="sum to the matrix order"):
        certified_spectrum(adjacency_matrix(cycle_graph(6)))


def test_certified_spectrum_memo_hands_out_fresh_lists():
    b = adjacency_matrix(cycle_graph(6))
    first = certified_spectrum(b)
    expected = list(first)
    first.pop()
    first.reverse()
    second = certified_spectrum(b)
    oracle_mod._spectral_parts.cache_clear()
    assert second == certified_spectrum(b) == expected
    coeffs = scaled_char_poly(b)[0].coeffs
    memo = oracle_mod._spectral_parts(coeffs)
    assert isinstance(memo, tuple) and all(isinstance(roots, tuple) for _, _, roots in memo)
    with pytest.raises(TypeError):
        oracle_mod._cached_profile(coeffs)[1] = 6


def _factored_spectrum(b) -> list:
    """(multiplicity, scale, lam, approx) of each distinct eigenvalue of b,
    ascending, from the irreducible factors of its characteristic
    polynomial: the route that factors everything up front."""
    p, d = scaled_char_poly(b)
    out = []
    for f, mult in irreducible_factors(p):
        if f.degree == 1:
            lams = [Fraction(-f.coeffs[0], f.coeffs[1])]
        else:
            lams = [AlgebraicEigenvalue(f, r) for r in _real_roots(f.coeffs)]
        out += [(mult, d, lam, eigenvalue_float(lam) / d) for lam in lams]
    return sorted(out, key=lambda c: c[3])


def test_certified_spectrum_matches_the_factored_route():
    rng = random.Random(1103)
    clusters = 0
    for trial in range(400):
        n = rng.randint(2, 12)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.35])
        b = adjacency_matrix(g) if trial % 2 else random_in_S(g, seed=rng.randrange(1 << 30))
        got = certified_spectrum(b)
        want = _factored_spectrum(b)
        assert len(got) == len(want), (n, g.edges)
        for c, (mult, d, lam, approx) in zip(got, want):
            assert (c.multiplicity, c.scale) == (mult, d)
            assert describe_eigenvalue(c.lam) == describe_eigenvalue(lam)
            if isinstance(lam, Fraction):
                assert c.approx == approx
            else:
                assert c.approx == pytest.approx(approx, rel=1e-9)
        clusters += len(got)
    assert clusters > 2000


def test_certified_spectrum_factors_nothing_until_lam_is_read(monkeypatch):
    def refuse(p):
        raise RuntimeError("factored")

    monkeypatch.setattr(oracle_mod, "irreducible_factors", refuse)
    b = random_in_S(theta_graph(2, 3, 3), seed=5)
    clusters = certified_spectrum(b)
    assert sum(c.multiplicity for c in clusters) == b.n
    ev = np.linalg.eigvalsh(b.to_numpy())
    approx = [c.approx for c in clusters for _ in range(c.multiplicity)]
    assert approx == pytest.approx(list(ev), rel=1e-9, abs=1e-12)
    with pytest.raises(RuntimeError, match="factored"):
        clusters[0].lam


def _count_factor_calls(monkeypatch) -> list:
    """Record the coefficients of every polynomial that oracle factors."""
    factored = []
    real = oracle_mod.irreducible_factors

    def counted(p):
        factored.append(p.coeffs)
        return real(p)

    monkeypatch.setattr(oracle_mod, "irreducible_factors", counted)
    return factored


def test_reading_one_lam_factors_only_its_part(monkeypatch):
    factored = _count_factor_calls(monkeypatch)
    # C_10's charpoly splits into x^2 - 4 (simple) and x^4 - 3x^2 + 1 (double)
    clusters = certified_spectrum(adjacency_matrix(cycle_graph(10)))
    assert [c.multiplicity for c in clusters] == [1, 2, 2, 2, 2, 1]
    assert factored == []
    assert clusters[1].lam.minpoly == IntPolynomial((-1, 1, 1))
    assert factored == [(1, 0, -3, 0, 1)]
    assert [c.lam.minpoly.coeffs for c in clusters[2:5]] == [(-1, -1, 1), (-1, 1, 1), (-1, -1, 1)]
    assert len(factored) == 1
    assert clusters[0].lam == Fraction(-2)
    assert factored == [(1, 0, -3, 0, 1), (-4, 0, 1)]


def test_certified_spectrum_takes_lost_roots_from_the_factors(monkeypatch):
    # C_10's doubled part x^4 - 3x^2 + 1 splits into x^2 + x - 1 and
    # x^2 - x - 1; the root finder loses a root of the part but not of either
    # factor, so the answer must come from the factors, unchanged
    b = adjacency_matrix(cycle_graph(10))
    part = (1, 0, -3, 0, 1)
    real = oracle_mod._real_roots
    monkeypatch.setattr(
        oracle_mod, "_real_roots", lambda c: real(c)[:-1] if tuple(c) == part else real(c)
    )
    factored = _count_factor_calls(monkeypatch)
    clusters = certified_spectrum(b)
    assert factored == [part]
    got = [(c.multiplicity, c.scale, c.lam, c.approx) for c in clusters]
    assert got == _factored_spectrum(b)


def test_a_part_that_loses_a_root_is_factored_once(monkeypatch):
    """The lost-root fallback and the exact descriptors share one factoring
    of the part, however many lam are read."""
    part = (1, 0, -3, 0, 1)
    real = oracle_mod._real_roots
    monkeypatch.setattr(
        oracle_mod, "_real_roots", lambda c: real(c)[:-1] if tuple(c) == part else real(c)
    )
    factored = _count_factor_calls(monkeypatch)
    clusters = certified_spectrum(adjacency_matrix(cycle_graph(10)))
    lams = [c.lam for c in clusters]
    assert [lam.minpoly.coeffs for lam in lams[1:5]] == [(-1, 1, 1), (-1, -1, 1), (-1, 1, 1), (-1, -1, 1)]
    assert factored.count(part) == 1


def test_root_descriptors_pair_tightly_clustered_roots_or_raise(monkeypatch):
    # (x^2 - 2)(985x - 1393): 1393/985 lies 3.6e-7 below sqrt(2)
    part = IntPolynomial((2786, -1970, -1393, 985))
    sqrt2 = IntPolynomial((-2, 0, 1))
    lams = oracle_mod._root_descriptors(part.coeffs)
    assert lams[1] == Fraction(1393, 985)
    assert [lam.minpoly for lam in (lams[0], lams[2])] == [sqrt2, sqrt2]
    assert lams[0].approx < 0 < lams[2].approx
    # np.roots is off by about 2e-9 here, well inside the 3.6e-7 gap
    roots = oracle_mod._part_roots(part.coeffs)
    assert roots == pytest.approx([eigenvalue_float(lam) for lam in lams], abs=1e-8)
    # a root finder that moves the rational root 1e-6 up puts it above
    # sqrt(2): the descriptors no longer fall nearest their own roots
    oracle_mod._root_descriptors.cache_clear()
    oracle_mod._part_roots.cache_clear()
    real = oracle_mod._real_roots

    def shifted(coeffs):
        found = real(coeffs)
        if tuple(coeffs) != part.coeffs:
            return found
        return sorted(r + 1e-6 if abs(r - 1393 / 985) < 1e-8 else r for r in found)

    monkeypatch.setattr(oracle_mod, "_real_roots", shifted)
    with pytest.raises(AssertionError, match="lies nearer another root"):
        oracle_mod._root_descriptors(part.coeffs)


def test_connected_sweep_split_agrees_with_the_integer_profile(monkeypatch):
    """The sweep proves the bound from the Z[x] profile and classifies at
    the parts of the same Z[x] split, so the parts must be sympy's
    squarefree split of every charpoly it meets, part for part."""
    charpolys = []
    real = oracle_mod.int_squarefree_parts

    def recorded(coeffs):
        charpolys.append(coeffs)
        return real(coeffs)

    monkeypatch.setattr(oracle_mod, "int_squarefree_parts", recorded)
    summary, _ = _run("connected", cap=6)
    assert summary["instances"] == 27475
    assert len(charpolys) == len(set(charpolys)) > 100
    for c in charpolys:
        assert list(oracle_mod._cached_parts(c)) == squarefree_parts(IntPolynomial(c)), c
        split = {mult: f.degree for f, mult in squarefree_parts(IntPolynomial(c))}
        assert split == dict(oracle_mod._cached_profile(c)), c


# ---------------------------------------------------------------------------
# Campaign harness


def _run(campaign, **kw):
    return run_campaign(CampaignConfig(campaign, **kw))


def test_unknown_campaign_rejected():
    with pytest.raises(ParameterOutOfRange):
        _run("nope")


def test_fixture_campaign_clean():
    summary, discrepancies = _run("fixtures")
    assert discrepancies == []
    assert summary["campaign"] == "fixtures"
    assert summary["instances"] > 0 and summary["checks"] > summary["instances"]
    assert summary["complete"] is True
    assert all(v["failures"] == 0 for v in summary["counters"].values())


def test_campaign_reruns_are_byte_identical():
    for campaign, kw in [("fixtures", {}), ("corollaries", {"cap": 7}), ("guvh", {})]:
        s1, d1 = _run(campaign, **kw)
        s2, d2 = _run(campaign, **kw)
        assert json.dumps(s1, sort_keys=True) == json.dumps(s2, sort_keys=True)
        assert [x.as_json() for x in d1] == [x.as_json() for x in d2]


def test_campaign_only_replays_single_instance():
    summary, discrepancies = _run("corollaries", cap=6, only="tree:n6:i3")
    assert summary["instances"] == 1 and summary["checks"] >= 1
    assert summary["only"] == "tree:n6:i3" and discrepancies == []
    s2, _ = _run("corollaries", cap=6, only="tree:n6:i3")
    assert json.dumps(summary, sort_keys=True) == json.dumps(s2, sort_keys=True)
    # random campaign draws stay aligned when replaying one instance
    r1, _ = _run("random", cap=6, seeds=2, only="random:g3:s1")
    assert r1["instances"] == 1 and r1["checks"] >= 4
    r2, _ = _run("random", cap=6, seeds=2, only="random:g3:s1")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_connected_sweep_builds_nothing_for_a_foreign_key(monkeypatch):
    """Another campaign's --only key names no graph of the sweep: no mask
    table and no charpoly batch is built, and the summary is the empty one
    the full pass reported (pinned by sha1 of its sorted JSON)."""
    calls = {"_connected_masks": 0, "_batched_charpoly": 0}
    for name in calls:
        real = getattr(oracle_mod, name)

        def counted(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(oracle_mod, name, counted)
    pinned = {
        6: "982b4de3f745f5e16b6b01eac800cb57abdeadaa",
        7: "05ef038141c8ce782ad8e02a753ac714e4fc5a43",
    }
    for cap, sha in pinned.items():
        summary, discrepancies = _run("connected", cap=cap, only="tree:n6:i3")
        text = json.dumps(summary, sort_keys=True, indent=2)
        assert hashlib.sha1(text.encode()).hexdigest() == sha
        assert summary["instances"] == 0 and summary["complete"] and discrepancies == []
    assert calls == {"_connected_masks": 0, "_batched_charpoly": 0}


def test_campaign_max_instances_truncates(monkeypatch):
    real = oracle_mod.enumerate_trees
    orders = []

    def counted(n, dedupe=False):
        orders.append(n)
        return real(n, dedupe)

    monkeypatch.setattr(oracle_mod, "enumerate_trees", counted)
    summary, _ = _run("trees", cap=7, max_instances=5)
    assert summary["instances"] == 5 and summary["complete"] is True
    # 1 + 1 + 2 + 3 trees on 2..5 vertices: the campaign ends inside n = 5
    assert orders == [2, 3, 4, 5]


def test_connected_sweep_stops_once_full(monkeypatch):
    real_charpoly, real_masks = oracle_mod._batched_charpoly, oracle_mod._connected_masks
    orders, mask_orders = [], []

    def counted(a_batch):
        orders.append(a_batch.shape[1])
        return real_charpoly(a_batch)

    def counted_masks(n):
        mask_orders.append(n)
        return real_masks(n)

    monkeypatch.setattr(oracle_mod, "_batched_charpoly", counted)
    monkeypatch.setattr(oracle_mod, "_connected_masks", counted_masks)
    summary, _ = _run("connected", cap=7, max_instances=50)
    assert summary["instances"] == 50
    # 1 + 4 + 38 graphs on 2..4 vertices, so the first n = 5 chunk fills it
    assert orders == [2, 3, 4, 5]
    # 43 fills exactly at the end of n = 4: no n = 5 batch, nor its masks
    orders.clear()
    mask_orders.clear()
    summary, _ = _run("connected", cap=7, max_instances=43)
    assert summary["instances"] == 43 and summary["complete"] is True
    assert orders == [2, 3, 4]
    assert set(mask_orders) == {2, 3, 4}


def _json_sha1(obj) -> str:
    return hashlib.sha1(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def test_connected_sweep_splits_each_charpoly_once_and_factors_nothing(monkeypatch):
    seen = {"int_squarefree_parts": [], "irreducible_factors": [], "squarefree_parts": []}
    for name, calls in seen.items():
        real = getattr(oracle_mod, name)

        def counted(p, real=real, calls=calls):
            calls.append(tuple(getattr(p, "coeffs", p)))
            return real(p)

        monkeypatch.setattr(oracle_mod, name, counted)
    summary, _ = _run("connected", cap=5)
    assert _json_sha1(summary) == "5f36a44cf15de048bc12bc72d4eabe6e62c09fbb"
    charpolys = {
        scaled_char_poly(adjacency_matrix(g))[0].coeffs
        for n in range(2, 6)
        for g in enumerate_connected(n)
    }
    assert sorted(seen["int_squarefree_parts"]) == sorted(charpolys)
    # the sweep names each eigenvalue by its part and an isolating
    # interval: nothing goes through sympy's split or factoring
    assert seen["squarefree_parts"] == seen["irreducible_factors"] == []


def test_connected_sweep_cap6_summary_digest():
    summary, discrepancies = _run("connected", cap=6)
    assert summary["instances"] == 27475 and summary["checks"] == 71301
    assert discrepancies == []
    assert _json_sha1(summary) == "3eab773926f632506a66d31c9f09c2b30208c96d"


@pytest.mark.parametrize(
    "key",
    [
        "conn:foo",  # not key-shaped
        "conn:n6",  # no mask
        "conn:n6:mxyz",  # mask not a number
        "conn:n06:m7",  # not the sweep's spelling, so it would match nothing
        "conn:n4:m0",  # disconnected
        "conn:n9:m3",  # order above the cap
        "conn:n1:m0",  # order below the sweep's 2
        "conn:n6:m99999999",  # bits beyond the 15 edge slots
    ],
)
def test_connected_only_key_is_validated(key):
    with pytest.raises(ParameterOutOfRange):
        _run("connected", cap=7, only=key)


def test_campaign_time_budget():
    with pytest.raises(TimeBudgetExceeded) as err:
        _run("connected", cap=7, time_budget_secs=0.05)
    assert err.value.summary["complete"] is False
    assert err.value.discrepancies == []
    payload = err.value.payload()
    assert payload["partial"] is True and "summary" in payload


def test_campaign_zero_time_budget_stops_at_once(monkeypatch):
    with pytest.raises(TimeBudgetExceeded) as err:
        _run("fixtures", time_budget_secs=0)
    assert err.value.summary["instances"] == 0
    monkeypatch.setenv("SPECMULT_TIME_BUDGET_SECS", "0")
    with pytest.raises(TimeBudgetExceeded):
        _run("fixtures")


@pytest.mark.parametrize("budget", [-1, float("nan"), "soon"])
def test_campaign_time_budget_rejects_bad_values(monkeypatch, budget):
    with pytest.raises(ParameterOutOfRange):
        _run("fixtures", time_budget_secs=budget)
    monkeypatch.setenv("SPECMULT_TIME_BUDGET_SECS", str(budget))
    with pytest.raises(ParameterOutOfRange):
        _run("fixtures")


def test_small_campaigns_have_zero_discrepancies():
    """Each summary is pinned by its sha1, so a change to the campaign
    plumbing cannot alter what a campaign reports."""
    for campaign, kw, digest in [
        ("fixtures", {}, "8ac5b018ea0b7f0282e0151c0654062748401949"),
        ("corollaries", {"cap": 7}, "51e8e5a75720d9e75fe7f9a3b3e763ce205f328f"),
        ("guvh", {"max_instances": 40}, "3c87598aea8230aece02cf7633a0cbe7b8c5959b"),
        ("trees", {"cap": 6}, "55a6be9594d7c7bbddb6516abb11ce0bf0e9a938"),
        ("unicyclic", {"cap": 6}, "87eb86779a6e8c70a1a9b25c5aab5e2d4556dddd"),
        ("cstar", {"cap": 7}, "4bcb1d9029a278eea0bc7eb9b687f4b598d82bc8"),
        ("theta_infty", {"cap": 4}, "618cd074f82ebde3cfa8eed27c9ac761f4c36b3e"),
        ("gain_cycles", {"cap": 5}, "24a37970390ff4055c9f8012ace136e28edfb317"),
        ("connected", {"cap": 5}, "5f36a44cf15de048bc12bc72d4eabe6e62c09fbb"),
        (
            "random",
            {"cap": 6, "seeds": 2, "max_instances": 30},
            "f3f973a68a0a774c280529df654d4f5cb7c43173",
        ),
        ("trees", {"cap": 7, "max_instances": 5}, "01dc6e5ee31ab13ded4f77d7b4041f178ce86237"),
    ]:
        summary, discrepancies = _run(campaign, **kw)
        assert discrepancies == [], f"{campaign}: {discrepancies[0].as_json()}"
        assert summary["checks"] > 0
        assert _json_sha1(summary) == digest, (campaign, kw)


def test_campaign_caps_are_used_as_given():
    for campaign, cap in [("cstar", 12), ("gain_cycles", 11)]:
        with pytest.raises(CapExceeded):
            _run(campaign, cap=cap)
    for campaign, cap in [("theta_infty", 0), ("random", 1)]:
        summary, _ = _run(campaign, cap=cap)
        assert summary["cap"] == cap and summary["instances"] == 0, campaign
    summary, _ = _run("cstar")
    assert summary["cap"] == CAP_CSTAR and summary["instances"] == 28
    # fixtures and guvh take no cap: any value is reported and ignored
    summary, _ = _run("guvh", cap=99, max_instances=3)
    assert summary["cap"] == 99 and summary["instances"] == 3


def test_inconsistent_classifier_records_are_unchanged(monkeypatch):
    """A classifier that reports a violation and flips every verdict yields
    exactly these discrepancy records (pinned by sha1), messages and --only
    repro lines included, on a tree, unicyclic, theta and connected graph."""
    real = oracle_mod._classify

    def broken(*args):
        out = real(*args)
        evidence = dict(out.evidence, consistent=False, violations=["injected"])
        verdict = "Generic" if out.verdict.startswith("OneDeficient") else "OneDeficientFormB"
        return dataclasses.replace(out, verdict=verdict, evidence=evidence)

    monkeypatch.setattr(oracle_mod, "_classify", broken)
    for campaign, kw, count, digest in [
        ("trees", {"cap": 6, "only": "tree:n6:i3"}, 10, "3236cad79a41ce0f2267610736d5fa1ef044cdaf"),
        (
            "unicyclic",
            {"cap": 6, "only": "unicyclic:n5:i2"},
            10,
            "8b726c8e4781f6bac87e83b7bfb83b1dbbcbad05",
        ),
        (
            "theta_infty",
            {"cap": 4, "only": "theta:3-2-2"},
            12,
            "5908b182a71ccf8695e4681784e25e29af63c738",
        ),
        ("connected", {"cap": 5, "only": "conn:n4:m7"}, 6, "b6b1c22a7d8a3176441eead5ba25ae84c96df7ef"),
    ]:
        _, discrepancies = _run(campaign, **kw)
        records = [d.as_json() for d in discrepancies]
        assert len(records) == count, campaign
        assert {r["predicate"] for r in records} == {"classifier-consistency", "one-deficient-iff"}
        assert all(r["repro"].endswith(f"--only {kw['only']}") for r in records)
        assert _json_sha1(records) == digest, campaign


def test_connected_sweep_builds_the_classifier_instance_only_on_failure(monkeypatch):
    """A passing classifier check builds no instance record; a failing one
    records exactly the instance the sweep used to build for every call."""
    built = []
    real_instance = oracle_mod._graph_instance

    def counting_instance(*args, **kwargs):
        built.append(args)
        return real_instance(*args, **kwargs)

    monkeypatch.setattr(oracle_mod, "_graph_instance", counting_instance)
    key = "conn:n5:m15"  # the star K_1,4: classified at every eigenvalue
    summary, discrepancies = _run("connected", cap=5, only=key)
    assert summary["checks"] > 2 and discrepancies == [] and built == []

    real = oracle_mod._classify
    calls = []

    def inconsistent(g, b, lam, tol, m, method):
        calls.append((g, lam, m))
        out = real(g, b, lam, tol, m, method)
        evidence = dict(out.evidence, consistent=False, violations=["injected"])
        return dataclasses.replace(out, evidence=evidence)

    monkeypatch.setattr(oracle_mod, "_classify", inconsistent)
    _, discrepancies = _run("connected", cap=5, only=key)
    assert len(calls) == 3 and len(discrepancies) == 3  # lambdas 0, +-2
    g = calls[0][0]
    want = [
        oracle_mod.Discrepancy(
            "classifier-consistency",
            key,
            real_instance(g, lam, multiplicity=m, bound=oracle_mod.structural_bound(g)),
            "no violations",
            "['injected']",
            f"specmult verify --campaign connected --cap 5 --seeds 16 --only {key}",
        )
        for _, lam, m in calls
    ]
    assert discrepancies == want


def test_guvh_builder_meets_side_conditions():
    for seed in range(5):
        g, b, lam, probe = _build_guvh_instance(random.Random(seed))
        rep = lemma_relation_checks(g, b, lam, probe)
        assert rep.holds
