"""Exhaustive enumeration and cross-verification campaigns.

Enumerators produce every graph of a family up to a hard cap (labeled via
Prufer sequences / edge subsets, deduplicated via canonical construction),
and campaigns sweep theorem predicates against independently computed
multiplicities over those families. A campaign returns a deterministic
summary plus a list of discrepancies; reruns are byte-identical, and every
discrepancy carries a command line that replays exactly that instance.

The exhaustive connected sweep (all labeled connected graphs on up to 7
vertices) is vectorized: edge-subset masks and characteristic polynomials
run through numpy in int64 batches, multiplicity profiles come from an
integer-only squarefree decomposition, and the full per-eigenvalue
classifier only runs on graphs whose structural form could possibly be
one-deficient (plus every graph where some multiplicity actually hits the
target). For the decomposition form that gate is the classifier's own
lambda-independent half, structure._structure(g).form_d, which the
classifier then reuses; it is asked only when 3*theta + 1 <= n, since
fewer vertices cannot hold theta disjoint cycle pieces and a major, and
only when some major lies on no cycle. That necessary condition is tested
per chunk in numpy beside theta and p (_has_offcycle_major): an edge of a
connected graph is a bridge exactly when the mask without it is not a
connected mask, one searchsorted per edge slot, so a graph without such a
major builds no Graph unless a multiplicity hits bound - 1.

Profiles, squarefree splits and the exact roots of a squarefree part are
pure functions of the exact integer coefficient tuple, and the n <= 7 sweep
has only 962 distinct characteristic polynomials among 1,893,731 graphs, so
each is memoised by coefficient tuple (_cached_parts, _cached_profile, and
per part _part_eigenvalues). The sweep proves the bound from the Z[x]
profile and classifies each eigenvalue at the multiplicity of its part in
the same Z[x] split. It names each root by its part and a certified
isolating interval (spectra._isolate), an integer root as a Fraction, and
spectra counts it in a slice charpoly by gcd rounds, so the sweep never
factors. certified_spectrum reads the same memoised Z[x] split, and names a
cluster's root the same way when its lam is read; a root lost by the root
finder is recovered by Sturm isolation. Nothing in the package imports
sympy. Classifier verdicts are never reused: every labeled graph is still
classified on its own.

run_campaign alone resolves a campaign's cap: None means the campaign's
default, any other value is used as given, and a value above the campaign's
ceiling raises CapExceeded (fixtures and guvh take no cap and ignore it).
max_instances stops admission: the campaign ends at the first instance past
the limit and its summary still reads complete, because the limit was asked
for.

Wall-clock budget: set SPECMULT_TIME_BUDGET_SECS (or CampaignConfig's
time_budget_secs) to abort long campaigns with partial results attached to
the raised TimeBudgetExceeded.
"""

from __future__ import annotations

import itertools
import os
import random
import re
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from types import MappingProxyType
from typing import Iterator, Mapping, Optional

import numpy as np

from .errors import (
    CapExceeded,
    NotApplicable,
    ParameterOutOfRange,
    SideConditionUnmet,
    TimeBudgetExceeded,
)
from .graphs import (
    Graph,
    cycle_graph,
    infinity_graph,
    is_connected,
    pendant_vertices,
    serialize_graph,
    tadpole_graph,
    theta_graph,
)
from .hermitian import (
    ExactComplex,
    HermitianMatrix,
    a_alpha_gain,
    adjacency_matrix,
    cycle_gain,
    gain_graph,
    random_in_S,
    serialize_matrix,
)
from .spectra import (
    AlgebraicEigenvalue,
    IntPolynomial,
    _int_derivative,
    _int_div_exact,
    _int_gcd_poly,
    _int_primitive,
    _int_sub,
    _isolate,
    _real_roots,
    _same_root,
    _sign_at,
    describe_eigenvalue,
    eigenvalues_numeric,
    multiplicity,
    scaled_char_poly,
)
from .structure import (
    _structure,
    is_cycle_graph,
    pendant_paths,
)
from .theorems import (
    RelationProbe,
    _bound_holds,
    _bound_report,
    _classify,
    _form_d_conditions,
    _gain_closed_forms,
    _tree_conditions,
    check_upper_bound,
    corollary_minus_one_tree,
    corollary_nullity_tree,
    cstar_adjacency_predicate,
    fixture_paw_matrix,
    fixture_tadpole_matrix,
    lemma_relation_checks,
    weighted_counterexample_check,
    structural_bound,
)

# hard enumeration caps; beyond these the enumerators raise CapExceeded
CAP_TREES_LABELED = 9
CAP_TREES_DEDUPED = 10
CAP_UNICYCLIC_LABELED = 7
CAP_UNICYCLIC_DEDUPED = 9
CAP_CONNECTED = 7
CAP_CSTAR = 10
CAP_THETA_INFTY_PARAM = 8
CAP_GAIN_CYCLE = 10
CAP_RANDOM_N = 10


# ---------------------------------------------------------------------------
# Labeled trees (Prufer decode)


def _prufer_edges(seq, n: int) -> tuple[tuple[int, int], ...]:
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapify(leaves)
    edges = []
    for x in seq:
        leaf = heappop(leaves)
        edges.append((leaf, x) if leaf < x else (x, leaf))
        degree[x] -= 1
        if degree[x] == 1:
            heappush(leaves, x)
    u, v = heappop(leaves), heappop(leaves)
    edges.append((u, v) if u < v else (v, u))
    return tuple(edges)


# ---------------------------------------------------------------------------
# Unlabeled rooted / free trees
#
# A rooted tree is a canonical nested tuple: the sorted (descending) tuple
# of its child subtrees. Free trees are rooted at the centroid, with the
# two-centroid case handled as an unordered pair joined by an edge.


@lru_cache(maxsize=None)
def _rooted_trees(k: int) -> tuple:
    if k == 1:
        return ((),)
    return _forest_multisets(k - 1)


@lru_cache(maxsize=None)
def _forest_multisets(total: int) -> tuple:
    """All multisets of rooted trees with sizes summing to total."""
    if total == 0:
        return ((),)
    acc = set()
    for size in range(1, total + 1):
        for form in _rooted_trees(size):
            for rest in _forest_multisets(total - size):
                acc.add(tuple(sorted((form,) + rest, reverse=True)))
    return tuple(sorted(acc))


@lru_cache(maxsize=None)
def _form_size(form) -> int:
    return 1 + sum(_form_size(child) for child in form)


def _attach_form(form, parent: int, next_id: int, edges: list) -> int:
    for child in form:
        cid = next_id
        next_id += 1
        edges.append((parent, cid))
        next_id = _attach_form(child, cid, next_id, edges)
    return next_id


def _free_tree_graphs(n: int) -> Iterator[Graph]:
    if n == 1:
        yield Graph(1, ())
        return
    half = (n - 1) // 2
    for forest in _forest_multisets(n - 1):
        # unique centroid at the root: every hanging subtree stays small
        if any(_form_size(c) > half for c in forest):
            continue
        edges: list = []
        nid = 1
        for child in forest:
            cid = nid
            nid += 1
            edges.append((0, cid))
            nid = _attach_form(child, cid, nid, edges)
        yield Graph(n, tuple(edges))
    if n % 2 == 0:
        # two centroids joined by an edge, halves of equal size
        forms = _rooted_trees(n // 2)
        for i, a in enumerate(forms):
            for b in forms[i:]:
                edges = []
                nid = _attach_form(a, 0, 1, edges)
                root_b = nid
                nid += 1
                edges.append((0, root_b))
                nid = _attach_form(b, root_b, nid, edges)
                yield Graph(n, tuple(edges))


def enumerate_trees(n: int, dedupe: bool = False) -> Iterator[Graph]:
    """Stream every tree on n vertices.

    dedupe=False: all labeled trees (Prufer decode), n <= 9.
    dedupe=True: one representative per isomorphism class, n <= 10.
    """
    if n < 1:
        raise ParameterOutOfRange("need at least one vertex")
    if dedupe:
        if n > CAP_TREES_DEDUPED:
            raise CapExceeded(f"deduped trees capped at n = {CAP_TREES_DEDUPED}")
        yield from _free_tree_graphs(n)
        return
    if n > CAP_TREES_LABELED:
        raise CapExceeded(f"labeled trees capped at n = {CAP_TREES_LABELED}")
    if n == 1:
        yield Graph(1, ())
        return
    if n == 2:
        yield Graph(2, ((0, 1),))
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        yield Graph(n, _prufer_edges(seq, n))


# ---------------------------------------------------------------------------
# Unicyclic graphs


def _necklace_canonical(seq: tuple) -> tuple:
    best = None
    m = len(seq)
    for base in (seq, tuple(reversed(seq))):
        for r in range(m):
            cand = base[r:] + base[:r]
            if best is None or cand < best:
                best = cand
    return best


def _unicyclic_necklaces(n: int) -> Iterator[tuple[int, tuple]]:
    """(cycle length, canonical tuple of rooted trees hung on the cycle)."""
    for m in range(3, n + 1):
        seen = set()

        def positions(pos: int, remaining: int, acc: tuple):
            slots_left = m - pos - 1
            if pos == m - 1:
                for form in _rooted_trees(remaining):
                    yield acc + (form,)
                return
            for size in range(1, remaining - slots_left + 1):
                for form in _rooted_trees(size):
                    yield from positions(pos + 1, remaining - size, acc + (form,))

        for seq in positions(0, n, ()):
            canon = _necklace_canonical(seq)
            if canon in seen:
                continue
            seen.add(canon)
            yield m, canon


def _necklace_to_graph(m: int, seq: tuple) -> Graph:
    edges = [(i, (i + 1) % m) if i + 1 < m else (0, m - 1) for i in range(m)]
    edges = [tuple(sorted(e)) for e in edges]
    nid = m
    for i, form in enumerate(seq):
        nid = _attach_form(form, i, nid, edges)
    return Graph(nid, tuple(sorted(edges)))


def enumerate_unicyclic(n: int, dedupe: bool = True) -> Iterator[Graph]:
    """Stream every connected graph with exactly one cycle on n vertices.

    dedupe=True: one representative per isomorphism class (cycle plus a
    necklace of rooted trees, canonical under rotation and reflection),
    n <= 9. dedupe=False: all labeled instances, built as labeled tree plus
    one chord and deduplicated by edge set, n <= 7.
    """
    if n < 3:
        raise ParameterOutOfRange("a cycle needs at least three vertices")
    if dedupe:
        if n > CAP_UNICYCLIC_DEDUPED:
            raise CapExceeded(f"deduped unicyclic capped at n = {CAP_UNICYCLIC_DEDUPED}")
        for m, seq in _unicyclic_necklaces(n):
            yield _necklace_to_graph(m, seq)
        return
    if n > CAP_UNICYCLIC_LABELED:
        raise CapExceeded(f"labeled unicyclic capped at n = {CAP_UNICYCLIC_LABELED}")
    seen: set = set()
    for t in enumerate_trees(n):
        tree_edges = frozenset(t.edges)
        for u in range(n):
            for v in range(u + 1, n):
                if (u, v) in t.edge_set:
                    continue
                es = tree_edges | {(u, v)}
                if es in seen:
                    continue
                seen.add(es)
    for es in sorted(seen, key=sorted):
        yield Graph(n, tuple(sorted(es)))


# ---------------------------------------------------------------------------
# All connected graphs (vectorized edge-subset enumeration)


def _edge_slots(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((u, v) for u in range(n) for v in range(u + 1, n))


_MASK_CACHE: dict[int, np.ndarray] = {}


def _connected_masks(n: int) -> np.ndarray:
    """Edge-subset bitmasks of all connected graphs on n labeled vertices."""
    if n in _MASK_CACHE:
        return _MASK_CACHE[n]
    slots = _edge_slots(n)
    masks = np.arange(1 << len(slots), dtype=np.int64)
    if n == 1:
        out = masks[:1]
        _MASK_CACHE[n] = out
        return out
    adj = np.zeros((n, masks.size), dtype=np.uint16)
    for idx, (u, v) in enumerate(slots):
        bit = ((masks >> idx) & 1).astype(np.uint16)
        adj[u] |= bit << v
        adj[v] |= bit << u
    reach = np.ones(masks.size, dtype=np.uint16)
    for _ in range(n):
        for i in range(n):
            sel = ((reach >> i) & 1).astype(bool)
            reach[sel] |= adj[i][sel]
    out = masks[reach == (1 << n) - 1]
    _MASK_CACHE[n] = out
    return out


def _has_offcycle_major(sub: np.ndarray, degs: np.ndarray, n: int) -> np.ndarray:
    """Per connected mask in sub (degs its rows' degrees): is some vertex of
    degree >= 3 on no cycle? An edge of a connected graph is a bridge exactly
    when the mask without it is missing from the sorted _connected_masks(n),
    and a vertex is on a cycle exactly when one of its edges is no bridge."""
    masks = _connected_masks(n)
    on_cycle = np.zeros(degs.shape, dtype=bool)
    for idx, (u, v) in enumerate(_edge_slots(n)):
        bit = 1 << idx
        rows = np.flatnonzero(sub & bit)
        rest = sub[rows] ^ bit
        # rest < its row's own mask, which is in masks, so pos is in range
        pos = np.searchsorted(masks, rest)
        keeps = rows[masks[pos] == rest]
        on_cycle[keeps, u] = True
        on_cycle[keeps, v] = True
    return ((degs >= 3) & ~on_cycle).any(axis=1)


def _mask_edges(mask: int, slots) -> tuple[tuple[int, int], ...]:
    return tuple(e for idx, e in enumerate(slots) if (mask >> idx) & 1)


def enumerate_connected(n: int) -> Iterator[Graph]:
    """Stream every connected labeled graph on n vertices, n <= 7."""
    if n < 1:
        raise ParameterOutOfRange("need at least one vertex")
    if n > CAP_CONNECTED:
        raise CapExceeded(f"connected enumeration capped at n = {CAP_CONNECTED}")
    slots = _edge_slots(n)
    for mask in _connected_masks(n):
        yield Graph(n, _mask_edges(int(mask), slots))


# ---------------------------------------------------------------------------
# Named shape families


def enumerate_cstar_shapes(max_n: int = CAP_CSTAR) -> Iterator[tuple[int, int, Graph]]:
    """(cycle length, tail length, graph) for every cycle-with-tail shape."""
    if max_n > CAP_CSTAR:
        raise CapExceeded(f"cycle-with-tail shapes capped at n = {CAP_CSTAR}")
    for m in range(3, max_n):
        for t in range(1, max_n - m + 1):
            yield m, t, tadpole_graph(m, t)


def enumerate_theta_infinity(max_param: int = CAP_THETA_INFTY_PARAM) -> Iterator[tuple[str, tuple, Graph]]:
    """All two-cycle shapes with path/cycle parameters up to max_param."""
    if max_param > CAP_THETA_INFTY_PARAM:
        raise CapExceeded(f"two-cycle shape parameters capped at {CAP_THETA_INFTY_PARAM}")
    for a in range(1, max_param + 1):
        for b in range(a, max_param + 1):
            for c in range(b, max_param + 1):
                if (a == 1) + (b == 1) + (c == 1) > 1:
                    continue
                yield "theta", (c, b, a), theta_graph(c, b, a)
    for p in range(3, max_param + 1):
        for q in range(p, max_param + 1):
            for l in range(1, max_param + 1):
                yield "infinity", (q, p, l), infinity_graph(q, p, l)


# ---------------------------------------------------------------------------
# Integer-only squarefree split
#
# Yun's algorithm over primitive pseudo-remainder gcds keeps the whole
# decomposition in Z[x]. It is the one squarefree split, of the connected
# sweep and of certified_spectrum alike; the tests check its parts against
# sympy's squarefree decomposition.


def int_squarefree_parts(coeffs) -> list[tuple[IntPolynomial, int]]:
    """Squarefree split of an integer polynomial: pairwise coprime primitive
    squarefree parts f_k with positive leading coefficient, each with its
    k, such that the polynomial is c * prod f_k^k (D. Y. Y. Yun, "On
    square-free decomposition algorithms", SYMSAC 1976), sorted by (degree,
    coefficients); constants dropped. Runs entirely in Z[x].
    """
    f = _int_primitive(list(coeffs))
    deg_f = len(f) - 1
    if deg_f < 1:
        return []
    fp = _int_derivative(f)
    g = _int_gcd_poly(f, fp)
    if len(g) == 1:
        return [(IntPolynomial(f), 1)]
    w = _int_div_exact(f, g)
    y = _int_div_exact(fp, g)
    z = _int_sub(y, _int_derivative(w))
    parts = []
    i = 1
    while len(w) > 1:
        if i > deg_f:
            raise AssertionError("squarefree decomposition failed to terminate")
        a = _int_gcd_poly(w, z)
        if len(a) > 1:
            parts.append((IntPolynomial(a), i))
        w = _int_div_exact(w, a)
        z = _int_sub(_int_div_exact(z, a), _int_derivative(w))
        i += 1
    if sum(k * a.degree for a, k in parts) != deg_f:
        raise AssertionError("squarefree parts do not add up to the degree")
    parts.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return parts


def _profile(parts) -> dict[int, int]:
    profile: dict[int, int] = {}
    for f, k in parts:
        profile[k] = profile.get(k, 0) + f.degree
    return profile


def int_multiplicity_profile(coeffs) -> dict[int, int]:
    """Map each eigenvalue multiplicity to the summed degree carrying it.

    E.g. a charpoly (x-1)^2 (x-2)^2 (x-3) profiles to {2: 2, 1: 1}: the
    degrees of int_squarefree_parts.
    """
    return _profile(int_squarefree_parts(coeffs))


@lru_cache(maxsize=4096)
def _cached_parts(coeffs: tuple) -> tuple:
    """int_squarefree_parts(coeffs), memoised, as a tuple."""
    return tuple(int_squarefree_parts(coeffs))


@lru_cache(maxsize=4096)
def _cached_profile(coeffs: tuple) -> Mapping[int, int]:
    """The profile of _cached_parts(coeffs), memoised; read-only because
    every caller with the same coefficients shares it."""
    return MappingProxyType(_profile(_cached_parts(coeffs)))


def _batched_charpoly(a_batch: np.ndarray) -> np.ndarray:
    """Characteristic polynomials of a batch of small integer symmetric
    matrices (Faddeev-LeVerrier), coefficients lowest degree first.

    The recursion runs in int64 and is exact while n*(2R)^n < 2**63, R
    the largest absolute row sum in the batch (the largest degree, on 0/1
    adjacency tables), which is asserted. Proof: |lambda| <= R for every
    eigenvalue and ||A^i||_inf <= R^i, so |c_(n-j)| <= C(n, j) R^j and the
    iterate M_k = sum_(j <= k) c_(n-j) A^(k-j) has ||M_k||_inf <= 2^n R^k.
    Every partial sum of an entry of A M_(k-1) is then at most
    R * 2^n R^(k-1), and every partial sum of its trace at most n 2^n R^k,
    which for k <= n and R >= 1 is at most n*(2R)^n.
    """
    cnt, n, _ = a_batch.shape
    radius = int(np.abs(a_batch).sum(axis=2).max(initial=0))
    if n * (2 * radius) ** n >= 2**63:
        raise AssertionError("batched charpoly could overflow int64")
    coeffs = np.zeros((cnt, n + 1), dtype=np.int64)
    coeffs[:, n] = 1
    m = np.broadcast_to(np.eye(n, dtype=np.int64), a_batch.shape).copy()
    idx = np.arange(n)
    for k in range(1, n + 1):
        m = a_batch @ m
        tr = np.trace(m, axis1=1, axis2=2)
        if np.any(tr % k):
            raise AssertionError("trace not divisible in the batched recursion")
        c = -(tr // k)
        coeffs[:, n - k] = c
        m[:, idx, idx] += c[:, None]
    return coeffs


# ---------------------------------------------------------------------------
# Certified eigenvalue descriptors


@dataclass(frozen=True, eq=False)
class CertifiedCluster:
    """One distinct eigenvalue of an exact matrix, with its exact multiplicity.

    The eigenvalue, times scale, is root number index (ascending) of part, a
    squarefree part of the characteristic polynomial of scale*B (which has
    Gaussian integer entries); every root of part has this multiplicity.
    approx locates the unscaled eigenvalue on the real line, exactly where
    it is an integer over scale. lam, the exact descriptor of
    scale*eigenvalue (valid against scale*B), is built on first read and
    memoised per part (_part_eigenvalues): part with a certified isolating
    interval, or a Fraction for an integer root. Each read asserts that the
    float root the cluster was placed by lies in that interval. Clusters are
    equal when their multiplicities, scales and exact eigenvalues are.
    """

    multiplicity: int
    scale: int
    approx: float
    part: IntPolynomial
    index: int

    @property
    def lam(self):
        lam = _part_eigenvalues(self.part.coeffs)[self.index]
        root = _part_roots(self.part.coeffs)[self.index]
        held = root == lam if isinstance(lam, Fraction) else lam.interval[0] < root < lam.interval[1]
        if not held:
            raise AssertionError(f"root {self.index} of {self.part} lies outside its isolating interval")
        return lam

    def __eq__(self, other):
        if not isinstance(other, CertifiedCluster):
            return NotImplemented
        if (self.multiplicity, self.scale) != (other.multiplicity, other.scale):
            return False
        if self.part == other.part:  # distinct roots of one squarefree part
            return self.index == other.index
        return _same_root(self.lam, other.lam)

    def __hash__(self):
        return hash((self.multiplicity, self.scale))


@lru_cache(maxsize=4096)
def _part_roots(coeffs: tuple) -> tuple:
    """Every root of the squarefree part f with these coefficients (a part
    of a Hermitian characteristic polynomial), ascending: a Fraction where
    it is known exactly (the root of a linear part, or an integer root), a
    float otherwise. Memoised, so a part is rooted once.

    All such roots are real. A rounded root k at which f vanishes exactly is
    the integer root k; a squarefree f has it once, so only the float
    nearest k takes it. When the root finder loses a root of f, the roots
    come from the Sturm isolation of _part_eigenvalues, which raises if f
    does not have deg f real roots, so the answer is never short.
    """
    f = IntPolynomial(coeffs)
    if f.degree == 1:
        return (Fraction(-f.coeffs[0], f.coeffs[1]),)
    roots: list = _real_roots(f.coeffs)
    if len(roots) != f.degree:
        return tuple(
            lam if isinstance(lam, Fraction) else lam.approx for lam in _part_eigenvalues(coeffs)
        )
    integer_at: dict[int, int] = {}
    for i, r in enumerate(roots):
        k = round(r)
        if _sign_at(f.coeffs, k) == 0 and (k not in integer_at or abs(r - k) < abs(roots[integer_at[k]] - k)):
            integer_at[k] = i
    for k, i in integer_at.items():
        roots[i] = Fraction(k)
    return tuple(sorted(roots))


@lru_cache(maxsize=4096)
def _part_eigenvalues(coeffs: tuple) -> tuple:
    """Exact descriptors of every root of the squarefree part f with these
    coefficients (a part of a Hermitian characteristic polynomial, so all
    deg f roots are real), ascending, without factoring: the root of a
    linear part, and an integer k in a root's isolating interval where f(k)
    = 0, is a Fraction; any other root is an AlgebraicEigenvalue carrying f
    and the interval, which _isolate has certified, so it is not checked
    again. Memoised, so a part is isolated once; a part that does not yield
    deg f certified roots raises AssertionError (_isolate).
    """
    f = IntPolynomial(coeffs)
    if f.degree == 1:
        return (Fraction(-coeffs[0], coeffs[1]),)
    out: list = []
    for approx, lo, hi in _isolate(coeffs, f.degree):
        k = round(approx)
        if lo < k < hi and _sign_at(coeffs, k) == 0:
            out.append(Fraction(k))
        else:
            out.append(AlgebraicEigenvalue._certified(f, approx, lo, hi))
    return tuple(out)


def certified_spectrum(b: HermitianMatrix) -> list[CertifiedCluster]:
    """Every distinct eigenvalue with its exact multiplicity, ascending.

    The multiplicities come from the Z[x] squarefree split of the
    characteristic polynomial (_cached_parts), and no exact descriptor is
    built until a cluster's lam is read. Raises AssertionError rather than
    return a short spectrum, when a part does not have as many real roots
    as its degree, or when the multiplicities do not sum to the matrix
    order.
    """
    p, d = scaled_char_poly(b)
    out = [
        CertifiedCluster(mult, d, float(r) / d, f, i)
        for f, mult in _cached_parts(p.coeffs)
        for i, r in enumerate(_part_roots(f.coeffs))
    ]
    if sum(c.multiplicity for c in out) != b.n:
        raise AssertionError("certified multiplicities do not sum to the matrix order")
    out.sort(key=lambda c: c.approx)
    return out


# ---------------------------------------------------------------------------
# Campaign plumbing


@dataclass
class CampaignConfig:
    """Knobs for one verification campaign; defaults follow the catalog."""

    campaign: str
    cap: Optional[int] = None
    seeds: int = 16
    tol: float = 1e-8
    max_instances: Optional[int] = None
    only: Optional[str] = None
    time_budget_secs: Optional[float] = None


@dataclass(frozen=True)
class Discrepancy:
    """A failed check, with everything needed to replay it exactly."""

    predicate: str
    key: str
    instance: dict
    expected: str
    observed: str
    repro: str

    def as_json(self) -> dict:
        return {
            "predicate": self.predicate,
            "key": self.key,
            "instance": self.instance,
            "expected": self.expected,
            "observed": self.observed,
            "repro": self.repro,
        }


class _Full(Exception):
    """Raised by _Recorder.take once max_instances are admitted; run_campaign
    ends the campaign there."""


class _Recorder:
    def __init__(self, cfg: CampaignConfig, cap: int):
        self.cfg = cfg
        self.cap = cap
        self.counters: dict[str, list[int]] = {}
        self.discrepancies: list[Discrepancy] = []
        self.instances = 0
        self.checks = 0
        budget = cfg.time_budget_secs
        if budget is None:
            budget = os.environ.get("SPECMULT_TIME_BUDGET_SECS") or None
        if budget is not None:
            try:
                budget = float(budget)
            except (TypeError, ValueError):
                raise ParameterOutOfRange(f"time budget {budget!r} is not a number") from None
            if not budget >= 0:
                raise ParameterOutOfRange(f"time budget {budget} must be >= 0 seconds")
        self._deadline = None if budget is None else time.monotonic() + budget
        self._base_cmd = (
            f"specmult verify --campaign {cfg.campaign} --cap {cap} --seeds {cfg.seeds}"
        )

    @property
    def full(self) -> bool:
        return (
            self.cfg.max_instances is not None
            and self.instances >= self.cfg.max_instances
        )

    def take(self, key: str) -> bool:
        """Admit one instance (False when filtered out by --only); raises
        _Full once max_instances are admitted."""
        if self.full:
            raise _Full
        if self._deadline is not None and time.monotonic() >= self._deadline:
            raise TimeBudgetExceeded(
                "campaign ran out of wall-clock budget",
                summary=self.summary(complete=False),
                discrepancies=self.discrepancies,
            )
        if self.cfg.only is not None and key != self.cfg.only:
            return False
        self.instances += 1
        return True

    def check(self, predicate: str, ok: bool, key: str, instance: dict, expected, observed) -> None:
        self.checks += 1
        c = self.counters.setdefault(predicate, [0, 0])
        c[0] += 1
        if not ok:
            c[1] += 1
            self.discrepancies.append(
                Discrepancy(
                    predicate,
                    key,
                    instance,
                    str(expected),
                    str(observed),
                    f"{self._base_cmd} --only {key}",
                )
            )

    def summary(self, complete: bool = True) -> dict:
        return {
            "campaign": self.cfg.campaign,
            "cap": self.cap,
            "seeds": self.cfg.seeds,
            "tol": self.cfg.tol,
            "only": self.cfg.only,
            "instances": self.instances,
            "checks": self.checks,
            "discrepancies": len(self.discrepancies),
            "complete": complete,
            "counters": {
                k: {"checks": v[0], "failures": v[1]}
                for k, v in sorted(self.counters.items())
            },
        }


def _graph_instance(g: Graph, lam=None, **extra) -> dict:
    inst = {"graph": serialize_graph(g)}
    if lam is not None:
        inst["lambda"] = describe_eigenvalue(lam)
    inst.update(extra)
    return inst


# ---------------------------------------------------------------------------
# Campaigns


def _form_d_gate(g: Graph) -> bool:
    """Can the decomposition form hold at some lambda? Its structural
    clauses, behind the cheap nonempty-M test that rejects almost every
    graph before blocks and pieces are computed; the classifier then reuses
    what the gate worked out."""
    st = _structure(g)
    return bool(st.majors.M) and all(ok for _, ok in st.form_d[0])


def _check_classifier(
    rec: _Recorder, key: str, g: Graph, a: HermitianMatrix, lam, mult: int, **extra
) -> None:
    """Classify lambda at its known multiplicity; record that the verdict is
    free of violations and one-deficient exactly when mult = bound - 1.

    Only a failed check reads the instance record, so
    _graph_instance(g, lam, multiplicity=mult, **extra) is built only then.
    """
    out = _classify(g, a, lam, rec.cfg.tol, mult, "precomputed")
    target = out.evidence["bound"] - 1
    consistent = out.evidence["consistent"]
    iff = out.verdict.startswith("OneDeficient") == (mult == target)
    inst = {} if consistent and iff else _graph_instance(g, lam, multiplicity=mult, **extra)
    rec.check(
        "classifier-consistency",
        consistent,
        key,
        inst,
        "no violations",
        out.evidence["violations"],
    )
    rec.check(
        "one-deficient-iff",
        iff,
        key,
        inst,
        f"verdict {out.verdict}",
        f"multiplicity {mult} vs target {target}",
    )


def _campaign_fixtures(cfg: CampaignConfig, rec: _Recorder) -> None:
    key = "fixtures:weighted-counterexample"
    if rec.take(key):
        rep = weighted_counterexample_check()
        rec.check("counterexample-values", rep.holds, key, rep.instance, rep.rhs, rep.lhs)

    key = "fixtures:cycle4-zero"
    if rec.take(key):
        c4 = cycle_graph(4)
        m = multiplicity(adjacency_matrix(c4), Fraction(0)).multiplicity
        rec.check("pinned-fixture-values", m == 2, key, _graph_instance(c4, Fraction(0)), 2, m)

    key = "fixtures:weighted-cycle4"
    if rec.take(key):
        g = cycle_graph(4)
        two = ExactComplex(2, 0)
        one = ExactComplex(1, 0)
        zero = ExactComplex(0, 0)
        rows = (
            (zero, two, zero, one),
            (two, zero, one, zero),
            (zero, one, zero, one),
            (one, zero, one, zero),
        )
        b = HermitianMatrix(4, rows, g, "exact")
        probes = [Fraction(k) for k in range(-4, 5)]
        probes += [Fraction(k, 2) for k in (-7, -5, -3, -1, 1, 3, 5, 7)]
        worst = max(multiplicity(b, lam).multiplicity for lam in probes)
        inst = _graph_instance(g, matrix=serialize_matrix(b))
        rec.check("weighted-cycle-simple", worst <= 1, key, inst, "<=1", worst)
        spec = eigenvalues_numeric(b)
        gaps = [
            spec.values[i + 1] - spec.values[i] for i in range(len(spec.values) - 1)
        ]
        simple = len(spec.values) == 4 and all(gap > cfg.tol for gap in gaps)
        rec.check("weighted-cycle-numeric", simple, key, inst, "4 simple eigenvalues", list(spec.values))

    key = "fixtures:tail-transplant"
    if rec.take(key):
        b2 = fixture_tadpole_matrix()
        g2 = b2.pattern
        lam = Fraction(-9)
        m = multiplicity(b2, lam).multiplicity
        transplanted = cstar_adjacency_predicate(g2, lam, cfg.tol)
        # the adjacency-only biconditional must NOT survive transplanting to
        # a general matrix in S(G): here m = 2 while the conditions fail
        rec.check(
            "tail-transplant-fails",
            m == 2 and not transplanted,
            key,
            _graph_instance(g2, lam, matrix=serialize_matrix(b2)),
            "multiplicity 2, conditions false",
            f"multiplicity {m}, conditions {transplanted}",
        )

    key = "fixtures:paw-bound"
    if rec.take(key):
        b1 = fixture_paw_matrix()
        rep = check_upper_bound(b1.pattern, b1, Fraction(2))
        rec.check("pinned-fixture-values", rep.holds, key, rep.instance, rep.rhs, rep.lhs)


def _campaign_corollaries(cfg: CampaignConfig, rec: _Recorder) -> None:
    for n in range(2, rec.cap + 1):
        for idx, t in enumerate(enumerate_trees(n, dedupe=True)):
            key = f"tree:n{n}:i{idx}"
            if not rec.take(key):
                continue
            a = adjacency_matrix(t)
            p = len(pendant_vertices(t))
            eta = multiplicity(a, Fraction(0)).multiplicity
            m1 = multiplicity(a, Fraction(-1)).multiplicity
            if p >= 3:
                pred = corollary_nullity_tree(t)
                rec.check(
                    "nullity-equivalence",
                    pred == (eta == p - 1),
                    key,
                    _graph_instance(t, Fraction(0), pendants=p, nullity=eta),
                    f"predicate {pred}",
                    f"nullity {eta} vs target {p - 1}",
                )
            pred1 = corollary_minus_one_tree(t)
            rec.check(
                "minus-one-equivalence",
                pred1 == (m1 == p - 1),
                key,
                _graph_instance(t, Fraction(-1), pendants=p, multiplicity=m1),
                f"predicate {pred1}",
                f"multiplicity {m1} vs target {p - 1}",
            )


def _campaign_trees(cfg: CampaignConfig, rec: _Recorder) -> None:
    int_probes = [Fraction(v) for v in (-2, -1, 0, 1, 2)]
    for n in range(2, rec.cap + 1):
        for idx, t in enumerate(enumerate_trees(n, dedupe=True)):
            key = f"tree:n{n}:i{idx}"
            if not rec.take(key):
                continue
            a = adjacency_matrix(t)
            p = len(pendant_vertices(t))
            clusters = certified_spectrum(a)
            maxm = max(c.multiplicity for c in clusters)
            rec.check(
                "tree-bound",
                maxm <= p - 1,
                key,
                _graph_instance(t, pendants=p, max_multiplicity=maxm),
                f"<= {p - 1}",
                maxm,
            )
            rationals = {c.lam for c in clusters if isinstance(c.lam, Fraction)}
            lams = [(c.lam, c.multiplicity) for c in clusters]
            lams += [(q, 0) for q in int_probes if q not in rationals]
            for lam, mult in lams:
                inst = _graph_instance(t, lam, multiplicity=mult, pendants=p)
                if mult > 0:
                    pred = _tree_conditions(t, a, lam, cfg.tol)
                    rec.check(
                        "tree-equality",
                        bool(pred) == (mult == p - 1),
                        key,
                        inst,
                        f"conditions {bool(pred)}",
                        f"multiplicity {mult} vs target {p - 1}",
                    )
                _check_classifier(rec, key, t, a, lam, mult, pendants=p)


def _campaign_unicyclic(cfg: CampaignConfig, rec: _Recorder) -> None:
    for n in range(3, rec.cap + 1):
        for idx, g in enumerate(enumerate_unicyclic(n, dedupe=True)):
            key = f"unicyclic:n{n}:i{idx}"
            if not rec.take(key):
                continue
            a = adjacency_matrix(g)
            p = len(pendant_vertices(g))
            bound = structural_bound(g)
            clusters = certified_spectrum(a)
            for c in clusters:
                inst = _graph_instance(g, c.lam, multiplicity=c.multiplicity, bound=bound)
                rep = _bound_report(g, a, c.lam, cfg.tol)
                rec.check("upper-bound", rep.holds, key, inst, rep.rhs, rep.lhs)
                _check_classifier(rec, key, g, a, c.lam, c.multiplicity, bound=bound)
                if p >= 2:
                    pred = _form_d_conditions(g, a, c.lam, cfg.tol)
                    rec.check(
                        "unicyclic-equality",
                        bool(pred) == (c.multiplicity == p + 1),
                        key,
                        inst,
                        f"conditions {bool(pred)}",
                        f"multiplicity {c.multiplicity} vs target {p + 1}",
                    )
                if c.multiplicity == bound - 1 and not is_cycle_graph(g):
                    for x in _structure(g).form_c[0]:
                        probe = RelationProbe("pendant-cycle", vertex=x, tol=cfg.tol)
                        try:
                            rel = lemma_relation_checks(g, a, c.lam, probe)
                        except SideConditionUnmet:
                            continue
                        rec.check("pendant-cycle", rel.holds, key, rel.instance, rel.rhs, rel.lhs)


def _campaign_cstar(cfg: CampaignConfig, rec: _Recorder) -> None:
    for m, t, g in enumerate_cstar_shapes(rec.cap):
        key = f"cstar:m{m}:t{t}"
        if not rec.take(key):
            continue
        a = adjacency_matrix(g)
        candidates = [(c.lam, c.multiplicity) for c in certified_spectrum(a)]
        # the doubled cycle eigenvalues are the natural off-spectrum probes:
        # the forward direction of the biconditional must be visible even
        # when the value fails to be an eigenvalue of the whole shape
        for k in range(1, (m + 1) // 2):
            lam = AlgebraicEigenvalue.from_2cos(m, k)
            candidates.append((lam, multiplicity(a, lam).multiplicity))
        for lam, mult in candidates:
            pred = cstar_adjacency_predicate(g, lam, cfg.tol)
            rec.check(
                "cstar-equivalence",
                pred == (mult == 2),
                key,
                _graph_instance(g, lam, multiplicity=mult, cycle=m, tail=t),
                f"conditions {pred}",
                f"multiplicity {mult}",
            )


def _campaign_theta_infty(cfg: CampaignConfig, rec: _Recorder) -> None:
    for kind, params, g in enumerate_theta_infinity(rec.cap):
        key = f"{kind}:{'-'.join(map(str, params))}"
        if not rec.take(key):
            continue
        a = adjacency_matrix(g)
        bound = structural_bound(g)
        for c in certified_spectrum(a):
            inst = _graph_instance(g, c.lam, multiplicity=c.multiplicity, kind=kind)
            rep = _bound_report(g, a, c.lam, cfg.tol)
            rec.check("upper-bound", rep.holds, key, inst, rep.rhs, rep.lhs)
            _check_classifier(rec, key, g, a, c.lam, c.multiplicity, kind=kind)
            if c.multiplicity == bound - 1:
                probe = RelationProbe("theta-infty", tol=cfg.tol)
                try:
                    rel = lemma_relation_checks(g, a, c.lam, probe)
                except SideConditionUnmet:
                    continue
                rec.check("theta-infty-deletions", rel.holds, key, rel.instance, rel.rhs, rel.lhs)


def _gain_variants() -> list[tuple[str, dict]]:
    i_unit = ExactComplex(0, 1)
    variants = [
        ("unit", {}),
        ("flip", {(0, 1): -1}),
        ("ii", {(0, 1): i_unit, (1, 2): i_unit}),
        ("iconj", {(0, 1): i_unit, (1, 2): ExactComplex(0, -1)}),
    ]
    return variants


def _campaign_gain_cycles(cfg: CampaignConfig, rec: _Recorder) -> None:
    alphas = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
    for n in range(3, rec.cap + 1):
        base = cycle_graph(n)
        for tag, assignment in _gain_variants():
            phi = gain_graph(base, assignment)
            rho = cycle_gain(phi).value
            rho_pi = rho == ExactComplex(-1, 0)
            rho_zero = rho == ExactComplex(1, 0)
            if not (rho_pi or rho_zero):
                raise AssertionError("campaign variants must have gain +1 or -1")
            for alpha in alphas:
                key = f"gain:n{n}:{tag}:a{alpha}"
                if not rec.take(key):
                    continue
                a_num = a_alpha_gain(phi, float(alpha), scalar="approx")
                spec = eigenvalues_numeric(a_num)
                groups: list[list[float]] = []
                for v in spec.values:
                    if groups and v - groups[-1][-1] <= cfg.tol:
                        groups[-1].append(v)
                    else:
                        groups.append([v])
                targets = [(lam, val) for _, _, lam, val in _gain_closed_forms(n, alpha, rho_pi)]
                inst = _graph_instance(base, alpha=str(alpha), variant=tag, rho="-1" if rho_pi else "+1")
                for grp in groups:
                    repv = sum(grp) / len(grp)
                    near = min(abs(repv - val) for _, val in targets) if targets else float("inf")
                    rec.check(
                        "gain-bound",
                        len(grp) <= 2,
                        key,
                        dict(inst, cluster=repv),
                        "<= 2",
                        len(grp),
                    )
                    rec.check(
                        "gain-equality-set",
                        (len(grp) == 2) == (near <= cfg.tol),
                        key,
                        dict(inst, cluster=repv, nearest_target=near),
                        "doubled exactly at the closed forms",
                        f"cluster size {len(grp)}, distance {near}",
                    )
                # exact route through the relation check, plus rational probes
                a_ex = a_alpha_gain(phi, alpha, scalar="exact")
                probe = RelationProbe("gain-cycle", tol=cfg.tol)
                lams = [lam for lam, _ in targets]
                lams += [Fraction(v) for v in (-1, 0, 2)]
                for lam in lams:
                    rel = lemma_relation_checks(base, a_ex, lam, probe)
                    rec.check("gain-relation", rel.holds, key, rel.instance, rel.rhs, rel.lhs)
                for lam, val in targets:
                    m_exact = multiplicity(a_ex, lam).multiplicity
                    cnt = sum(1 for v in spec.values if abs(v - val) <= cfg.tol)
                    rec.check(
                        "gain-exact-agree",
                        m_exact == cnt,
                        key,
                        dict(inst, target=val),
                        f"exact {m_exact}",
                        f"numeric cluster {cnt}",
                    )


def _random_connected_graph(rng: random.Random, n: int) -> Graph:
    if n == 1:
        return Graph(1, ())
    if n == 2:
        return Graph(2, ((0, 1),))
    seq = tuple(rng.randrange(n) for _ in range(n - 2))
    edges = set(_prufer_edges(seq, n))
    extra = rng.choice((0, 0, 1, 1, 2, 3))
    non_edges = [e for e in _edge_slots(n) if e not in edges]
    rng.shuffle(non_edges)
    edges.update(non_edges[:extra])
    return Graph(n, tuple(sorted(edges)))


def _campaign_random(cfg: CampaignConfig, rec: _Recorder) -> None:
    if rec.cap < 2:
        return  # no pattern on 2..cap vertices to draw from
    graphs = 500
    rng = random.Random(0x5EED)
    for gi in range(1, graphs + 1):
        n = rng.randint(2, rec.cap)
        g = _random_connected_graph(rng, n)
        seeds = [rng.randrange(1 << 30) for _ in range(cfg.seeds)]
        for si, seed in enumerate(seeds):
            key = f"random:g{gi}:s{si}"
            if not rec.take(key):
                continue
            # probe choices come from a per-instance stream so that --only
            # replays one instance bit-identically
            prng = random.Random(f"probe:{seed}")
            b = random_in_S(g, seed)
            bound = structural_bound(g)
            p, _d = scaled_char_poly(b)
            profile = int_multiplicity_profile(p.coeffs)
            maxm = max(profile)
            st = _structure(g)
            ok = _bound_holds(maxm, st.theta, st.p)
            inst = _graph_instance(g, seed=seed, profile=sorted(profile.items()), bound=bound)
            rec.check("upper-bound-random", ok, key, inst, f"<= {bound}", maxm)
            probes = [Fraction(0), Fraction(1), b.entries[0][0].re]
            for lam in probes:
                m = multiplicity(b, lam).multiplicity
                rec.check(
                    "upper-bound-probe",
                    m <= bound,
                    key,
                    _graph_instance(g, lam, seed=seed),
                    f"<= {bound}",
                    m,
                )
            lam = probes[prng.randrange(len(probes))]
            v = prng.randrange(g.n)
            rel = lemma_relation_checks(g, b, lam, RelationProbe("interlace-v", vertex=v, tol=cfg.tol))
            rec.check("interlace-v", rel.holds, key, rel.instance, rel.rhs, rel.lhs)
            e = g.edges[prng.randrange(len(g.edges))]
            rel = lemma_relation_checks(g, b, lam, RelationProbe("interlace-e", edge=e, tol=cfg.tol))
            rec.check("interlace-e", rel.holds, key, rel.instance, rel.rhs, rel.lhs)
            try:
                paths = pendant_paths(g)
            except NotApplicable:
                # path and cycle shapes have no anchored pendant path
                paths = []
            if paths:
                pp = paths[prng.randrange(len(paths))]
                cut = prng.randint(1, len(pp.vertices))
                witness = tuple(pp.vertices[:cut])
                try:
                    rel = lemma_relation_checks(
                        g, b, lam, RelationProbe("path-removal", path=witness, tol=cfg.tol)
                    )
                except SideConditionUnmet:
                    continue
                rec.check("path-removal", rel.holds, key, rel.instance, rel.rhs, rel.lhs)


def _build_guvh_instance(rng: random.Random):
    """Join a tuned path (left) to a random exact matrix (right) through a
    single edge so that every hypothesis of the composition identity holds
    by construction."""
    k = rng.randint(2, 4)
    while True:
        lam = Fraction(rng.randint(-2, 2), rng.choice((1, 1, 2)))
        diag = [Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(k)]
        offs = [
            Fraction(rng.choice((1, -1)) * rng.randint(1, 3), rng.choice((1, 2)))
            for _ in range(k - 1)
        ]
        minors = [Fraction(1), diag[0] - lam]
        for i in range(1, k - 1):
            minors.append((diag[i] - lam) * minors[i] - offs[i - 1] ** 2 * minors[i - 1])
        if minors[k - 1] == 0:
            continue
        # pin the last diagonal entry so lambda lands exactly in the left
        # spectrum while missing the left-minus-join spectrum
        diag[k - 1] = lam + offs[k - 2] ** 2 * minors[k - 2] / minors[k - 1]
        break
    nh = rng.randint(2, 5)
    gh = _random_connected_graph(rng, nh)
    bh = random_in_S(gh, rng.randrange(1 << 30))
    vh = rng.randrange(nh)
    n = k + nh
    zero = ExactComplex(0, 0)
    rows = [[zero] * n for _ in range(n)]
    edges = []
    for i in range(k):
        rows[i][i] = ExactComplex(diag[i], 0)
    for i in range(k - 1):
        w = ExactComplex(offs[i], 0)
        rows[i][i + 1] = w
        rows[i + 1][i] = w
        edges.append((i, i + 1))
    for i in range(nh):
        for j in range(nh):
            rows[k + i][k + j] = bh.entries[i][j]
    for u, v in gh.edges:
        edges.append((k + u, k + v))
    join = ExactComplex(Fraction(rng.choice((1, -1, 2))), Fraction(rng.randint(-2, 2), 2))
    rows[k - 1][k + vh] = join
    rows[k + vh][k - 1] = join.conjugate()
    edges.append((k - 1, k + vh))
    g = Graph(n, tuple(sorted(tuple(sorted(e)) for e in edges)))
    b = HermitianMatrix(n, tuple(tuple(r) for r in rows), g, "exact")
    probe = RelationProbe("guvh", left_part=tuple(range(k)))
    return g, b, lam, probe


def _campaign_guvh(cfg: CampaignConfig, rec: _Recorder) -> None:
    rng = random.Random(39473)
    for i in range(200):
        key = f"guvh:i{i}"
        g, b, lam, probe = _build_guvh_instance(rng)
        if not rec.take(key):
            continue
        inst = _graph_instance(g, lam, matrix=serialize_matrix(b))
        try:
            rel = lemma_relation_checks(g, b, lam, probe)
        except SideConditionUnmet as exc:
            rec.check("guvh-identity", False, key, inst, "side conditions hold", str(exc))
            continue
        rec.check("guvh-identity", rel.holds, key, dict(inst, join=rel.instance["join"]), rel.rhs, rel.lhs)


def _parse_conn_key(key: str, cap: int) -> tuple[int, int]:
    """(n, mask) of a connected-sweep key conn:n<N>:m<MASK>, which must name
    a connected graph on 2..cap vertices in the sweep's own spelling."""
    match = re.fullmatch(r"conn:n(\d+):m(\d+)", key)
    if match is None:
        raise ParameterOutOfRange(f"--only {key!r} is not of the form conn:n<N>:m<MASK>")
    n, mask = int(match[1]), int(match[2])
    if key != f"conn:n{n}:m{mask}":
        raise ParameterOutOfRange(f"--only {key!r} is not spelled as conn:n{n}:m{mask}")
    if not 2 <= n <= cap:
        raise ParameterOutOfRange(f"--only {key!r}: order {n} outside the sweep's 2..{cap}")
    slots = _edge_slots(n)
    if mask >= 1 << len(slots):
        raise ParameterOutOfRange(f"--only {key!r}: mask has bits beyond the {len(slots)} edge slots")
    if not is_connected(Graph(n, _mask_edges(mask, slots))):
        raise ParameterOutOfRange(f"--only {key!r}: mask {mask} is a disconnected graph")
    return n, mask


def _campaign_connected(cfg: CampaignConfig, rec: _Recorder) -> None:
    """Exhaustive sweep over all labeled connected graphs.

    Per graph: the multiplicity profile proves the bound (with equality
    forced onto cycles), and the per-eigenvalue classifier runs wherever a
    one-deficient verdict is structurally possible or the multiplicity
    actually hits bound - 1.
    """
    only_mask = None
    if cfg.only is not None:
        if not cfg.only.startswith("conn:"):
            return  # another campaign's key names no graph of this sweep
        only_mask = _parse_conn_key(cfg.only, rec.cap)
    chunk = 8192
    for n in range(2, rec.cap + 1):
        if only_mask is not None and only_mask[0] != n:
            continue
        slots = _edge_slots(n)
        start = 0
        # a chunk's batch (and a new order's masks) are built before any of
        # its graphs is admitted, so stop asking once the recorder is full
        while not rec.full:
            if only_mask is None:
                masks = _connected_masks(n)
            else:
                masks = np.array([only_mask[1]], dtype=np.int64)
            sub = masks[start : start + chunk]
            cnt = sub.size
            if not cnt:
                break
            start += chunk
            a_batch = np.zeros((cnt, n, n), dtype=np.int64)
            for idx, (u, v) in enumerate(slots):
                bit = (sub >> idx) & 1
                a_batch[:, u, v] = bit
                a_batch[:, v, u] = bit
            coeffs = _batched_charpoly(a_batch)
            degs = a_batch.sum(axis=2)
            pend = (degs == 1).sum(axis=1)
            theta = degs.sum(axis=1) // 2 - n + 1
            # trees and one-cycle graphs with p <= 1 are always classified;
            # form D needs theta disjoint cycle pieces of >= 3 vertices each
            # plus an off-cycle major, so 3*theta + 1 <= n and M nonempty
            classify_all = (theta == 0) | ((theta == 1) & (pend <= 1))
            maybe_d = ~classify_all & (3 * theta + 1 <= n)
            if only_mask is None:
                # a replay of one graph asks the gate without building the
                # order's mask list for the bridge test
                maybe_d[maybe_d] = _has_offcycle_major(sub[maybe_d], degs[maybe_d], n)
            coeffs_list = coeffs.tolist()
            pend_list = pend.tolist()
            theta_list = theta.tolist()
            classify_all_list = classify_all.tolist()
            maybe_d_list = maybe_d.tolist()
            sub_list = sub.tolist()
            for row in range(cnt):
                mask = sub_list[row]
                key = f"conn:n{n}:m{mask}"
                if not rec.take(key):
                    continue
                theta = theta_list[row]
                p = pend_list[row]
                bound = 2 * theta + p
                charpoly = tuple(coeffs_list[row])
                profile = _cached_profile(charpoly)
                maxm = max(profile)
                if not _bound_holds(maxm, theta, p):
                    g = Graph(n, _mask_edges(mask, slots))
                    rec.check(
                        "upper-bound-exhaustive",
                        False,
                        key,
                        _graph_instance(g, profile=sorted(profile.items()), bound=bound),
                        f"<= {bound}, equality only on cycles",
                        maxm,
                    )
                else:
                    rec.check("upper-bound-exhaustive", True, key, {}, "", "")
                hit = (bound - 1) in profile
                need_all = classify_all_list[row]
                g_obj = None
                if not need_all and theta == 2 and p == 0:
                    g_obj = Graph(n, _mask_edges(mask, slots))
                    need_all = _structure(g_obj).family.kind in ("ThetaGraph", "InfinityGraph")
                if not need_all and maybe_d_list[row]:
                    g_obj = g_obj or Graph(n, _mask_edges(mask, slots))
                    need_all = _form_d_gate(g_obj)
                if not (need_all or hit):
                    continue
                if g_obj is None:
                    g_obj = Graph(n, _mask_edges(mask, slots))
                a = adjacency_matrix(g_obj)
                for f, mult in _cached_parts(charpoly):
                    if not (need_all or mult == bound - 1):
                        continue
                    for lam in _part_eigenvalues(f.coeffs):
                        _check_classifier(rec, key, g_obj, a, lam, mult, bound=bound)


# campaign -> (body, default cap, ceiling); fixtures and guvh take no cap
_CAMPAIGNS = {
    "connected": (_campaign_connected, CAP_CONNECTED, CAP_CONNECTED),
    "corollaries": (_campaign_corollaries, CAP_TREES_DEDUPED, CAP_TREES_DEDUPED),
    "cstar": (_campaign_cstar, CAP_CSTAR, CAP_CSTAR),
    "fixtures": (_campaign_fixtures, 0, None),
    "gain_cycles": (_campaign_gain_cycles, CAP_GAIN_CYCLE, CAP_GAIN_CYCLE),
    "guvh": (_campaign_guvh, 0, None),
    "random": (_campaign_random, CAP_RANDOM_N, CAP_RANDOM_N),
    "theta_infty": (_campaign_theta_infty, 6, CAP_THETA_INFTY_PARAM),
    "trees": (_campaign_trees, CAP_TREES_DEDUPED, CAP_TREES_DEDUPED),
    "unicyclic": (_campaign_unicyclic, CAP_UNICYCLIC_DEDUPED, CAP_UNICYCLIC_DEDUPED),
}

CAMPAIGNS = tuple(sorted(_CAMPAIGNS))


def run_campaign(cfg: CampaignConfig) -> tuple[dict, list[Discrepancy]]:
    """Run one named campaign; returns (summary, discrepancies).

    Deterministic: rerunning the same config yields byte-identical output.
    """
    if cfg.campaign not in _CAMPAIGNS:
        raise ParameterOutOfRange(
            f"unknown campaign {cfg.campaign!r}; choose from {', '.join(CAMPAIGNS)}"
        )
    body, default_cap, ceiling = _CAMPAIGNS[cfg.campaign]
    cap = default_cap if cfg.cap is None else cfg.cap
    if ceiling is not None and cap > ceiling:
        raise CapExceeded(f"campaign {cfg.campaign} capped at {ceiling}, got {cap}")
    rec = _Recorder(cfg, cap)
    try:
        body(cfg, rec)
    except _Full:
        pass
    return rec.summary(complete=True), rec.discrepancies
