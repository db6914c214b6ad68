import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from sympy import QQ_I, ZZ_I
from sympy.polys.matrices import DomainMatrix

import specmult.spectra as spectra_mod
from specmult.errors import AmbiguousCluster, ParameterOutOfRange
from specmult.graphs import Graph, cycle_graph, path_graph, star_graph, theta_graph
from specmult.hermitian import (
    ExactComplex,
    HermitianMatrix,
    adjacency_matrix,
    principal_submatrix,
    random_in_S,
)
from specmult.oracle import int_squarefree_parts
from specmult.spectra import (
    AlgebraicEigenvalue,
    IntPolynomial,
    _int_div_exact,
    _int_primitive,
    _is_exact_scalar,
    cyclotomic,
    describe_eigenvalue,
    eigenvalues_numeric,
    exact_rank,
    min_poly_2cos,
    multiplicity,
    multiplicity_numeric,
    scale_minpoly,
    scaled_char_poly,
    submatrix_multiplicity,
)

X = sympy.symbols("x")


def _sympy_matrix(b: HermitianMatrix) -> sympy.Matrix:
    rows = []
    for row in b.entries:
        out = []
        for e in row:
            out.append(sympy.Rational(e.re) + sympy.I * sympy.Rational(e.im))
        rows.append(out)
    return sympy.Matrix(rows)


def test_int_polynomial_normalization():
    p = IntPolynomial((1, 2, 1))
    assert p.degree == 2 and p.is_monic
    assert IntPolynomial((1, 0)).coeffs == (1,)  # trailing zeros trimmed
    assert IntPolynomial(()).coeffs == ()
    assert str(IntPolynomial((-1, 0, 4))) == "4x^2 - 1"
    # the primitive part: content divided out, leading coefficient positive
    assert _int_primitive([-4, -8]) == (1, 2)
    assert _int_primitive([3, 0, 6, 0, 0]) == (1, 0, 2)
    assert _int_primitive([0, 0]) == ()
    # exact division in Z[x], and an inexact one raises
    assert _int_div_exact((-1, 0, 1), (-1, 1)) == (1, 1)
    assert _int_div_exact((0, 0, 2), (0, 2)) == (0, 1)
    with pytest.raises(AssertionError, match="inexact"):
        _int_div_exact((0, 0, 1), (0, 2))  # x^2 / (2x) = x/2
    with pytest.raises(AssertionError, match="remainder"):
        _int_div_exact((1, 0, 1), (-1, 1))  # x^2 + 1 = (x - 1)(x + 1) + 2


def _mul(a: tuple, b: tuple) -> tuple:
    """a*b for integer coefficient tuples, lowest degree first, by sympy."""
    prod = sympy.Poly(list(reversed(a)), X) * sympy.Poly(list(reversed(b)), X)
    return tuple(int(c) for c in reversed(prod.all_coeffs()))


def _sympy_factors(p: IntPolynomial) -> list[tuple[IntPolynomial, int]]:
    """The irreducible factors of p with their multiplicities, by sympy's
    factor_list (constants dropped): the independent reference."""
    _, factors = sympy.Poly(list(reversed(p.coeffs)), X).factor_list()
    return [
        (IntPolynomial(_int_primitive([int(c) for c in reversed(f.all_coeffs())])), int(m))
        for f, m in factors
        if f.degree() >= 1
    ]


def test_squarefree_parts_group_the_factors_by_multiplicity():
    """The Z[x] squarefree split against sympy's factors, grouped by
    multiplicity."""
    rng = random.Random(12)
    pieces = [(-2, 1), (1, 1), (3, -2), (-1, 0, 1), (-1, 1, 1), (2, 0, 0, 1)]
    for _ in range(30):
        p: tuple = (rng.choice((-3, 1, 2)),)
        for _ in range(rng.randint(1, 5)):
            p = _mul(p, rng.choice(pieces))
        parts = int_squarefree_parts(p)
        by_mult: dict = {}
        for f, m in _sympy_factors(IntPolynomial(p)):
            by_mult[m] = _mul(by_mult.get(m, (1,)), f.coeffs)
        assert sorted((m, f.coeffs) for f, m in parts) == sorted(
            (m, _int_primitive(list(f))) for m, f in by_mult.items()
        )
        assert parts == sorted(parts, key=lambda fm: (fm[0].degree, fm[0].coeffs))


def test_cyclotomic_against_sympy():
    for m in range(1, 25):
        ours = cyclotomic(m)
        ref = tuple(
            reversed([int(c) for c in sympy.Poly(sympy.cyclotomic_poly(m, X), X).all_coeffs()])
        )
        assert ours == ref


def test_min_poly_2cos_against_sympy():
    for n in range(3, 13):
        for k in range(1, (n + 1) // 2):
            mu = min_poly_2cos(n, k)
            val = 2 * sympy.cos(2 * sympy.pi * k / n)
            ref = sympy.minimal_polynomial(val, X)
            ref_coeffs = tuple(reversed([int(c) for c in sympy.Poly(ref, X).all_coeffs()]))
            assert mu.coeffs == ref_coeffs
            # the numeric locator lands on the intended root
            assert abs(float(val) - AlgebraicEigenvalue.from_2cos(n, k).approx) < 1e-12


def test_scale_minpoly():
    # minpoly of 2cos(2pi/5) is x^2 + x - 1; minpoly of 3x is x^2 + 3x - 9
    mu = min_poly_2cos(5, 1)
    assert mu.coeffs == (-1, 1, 1)
    nu = scale_minpoly(mu, 3)
    assert nu.coeffs == (-9, 3, 1)
    assert scale_minpoly(mu, 1) is mu
    # 1 + x/2, the doubled A_1/2 eigenvalue of C5: 4y^2 - 6y + 1
    assert scale_minpoly(mu, Fraction(1, 2), 1).coeffs == (1, -6, 4)
    # a rational root: the primitive q*y - p of 2/3 - 3*(1/2) = -5/6
    assert scale_minpoly(IntPolynomial((-1, 2)), -3, Fraction(2, 3)).coeffs == (5, 6)
    # a Fraction scale and shift: -2/3 + (5/7)*x for a root x of x^3 - 3x + 1
    # (the minimal polynomial of 2cos(2pi/9)), against sympy's minpoly of
    # the same number
    mu = min_poly_2cos(9, 1)
    scale, shift = Fraction(5, 7), Fraction(-2, 3)
    root = sympy.Poly(list(reversed(mu.coeffs)), X).all_roots()[0]
    value = sympy.Rational(-2, 3) + sympy.Rational(5, 7) * root
    ref = sympy.Poly(sympy.minimal_polynomial(value, X), X)
    want = _int_primitive([int(c) for c in reversed(ref.all_coeffs())])
    assert scale_minpoly(mu, scale, shift).coeffs == want


def test_gcd_rounds_count_a_root_of_a_reducible_non_monic_part():
    # q = (2x - 1)^2 (x + 1) = 4x^3 - 3x + 1, and the squarefree part
    # f = (2x - 1)(x + 1) = 2x^2 + x - 1 names each root by its interval
    q = (1, -3, 0, 4)
    f = IntPolynomial((-1, 1, 2))
    half, minus_one = (AlgebraicEigenvalue.real_root(f, x) for x in (0.4, -0.9))
    assert spectra_mod._gcd_rounds(q, *spectra_mod._root_of(half)) == 2
    assert spectra_mod._gcd_rounds(q, *spectra_mod._root_of(minus_one)) == 1
    # a rational takes the same rounds through its linear polynomial
    assert spectra_mod._gcd_rounds(q, *spectra_mod._root_of(Fraction(1, 2))) == 2
    assert spectra_mod._gcd_rounds(q, *spectra_mod._root_of(Fraction(1))) == 0
    with pytest.raises(ParameterOutOfRange):
        AlgebraicEigenvalue(IntPolynomial((5,)), 0.0)


# (x^2 - 2)(985x - 1393): 1393/985 lies 3.6e-7 below sqrt(2)
TIGHT_PART = (2786, -1970, -1393, 985)


def _holds_root(cell, root) -> bool:
    """Does the cell (approx, lo, hi) hold the root, given as a Fraction or
    as 'sqrt2' / '-sqrt2'? Decided exactly."""
    _, lo, hi = cell
    if isinstance(root, Fraction):
        return lo < root < hi
    sign = -1 if root.startswith("-") else 1
    lo, hi = (lo, hi) if sign > 0 else (-hi, -lo)
    return hi > 0 and (lo < 0 or lo * lo < 2) and hi * hi > 2


TIGHT_ROOTS = ("-sqrt2", Fraction(1393, 985), "sqrt2")


def test_isolation_separates_roots_3_6e_7_apart():
    cells = spectra_mod._isolate(TIGHT_PART, 3)
    assert [_holds_root(c, r) for c in cells for r in TIGHT_ROOTS] == [
        True, False, False, False, True, False, False, False, True,
    ]
    # the cells partition (-B, B), and f changes sign across each
    assert all(a[2] == b[1] for a, b in zip(cells, cells[1:]))
    for _, lo, hi in cells:
        ends = (spectra_mod._sign_at(TIGHT_PART, *x.as_integer_ratio()) for x in (lo, hi))
        assert math.prod(ends) < 0
    # an eigenvalue named by the part and a cell is equal to the same
    # number named by its minimal polynomial, and to no other
    lams = [AlgebraicEigenvalue(IntPolynomial(TIGHT_PART), a, (lo, hi)) for a, lo, hi in cells]
    sqrt2 = AlgebraicEigenvalue(IntPolynomial((-2, 0, 1)), 1.4142135)
    assert [spectra_mod._same_root(lam, sqrt2) for lam in lams] == [False, False, True]
    assert [spectra_mod._same_root(lam, Fraction(1393, 985)) for lam in lams] == [False, True, False]


@pytest.mark.parametrize("patch", ["moved", "dropped", "complex"])
def test_isolation_repairs_a_wrong_root_finder(monkeypatch, patch):
    """A root finder that moves the rational root across sqrt(2), drops a
    root, or returns none fails the sign certificate; the roots are then
    isolated by Sturm bisection, never returned short or mis-assigned."""
    real = spectra_mod._real_roots

    def wrong(coeffs):
        found = real(coeffs)
        if patch == "moved":
            return sorted(r + 1e-6 if abs(r - 1393 / 985) < 1e-8 else r for r in found)
        return found[:-1] if patch == "dropped" else []

    monkeypatch.setattr(spectra_mod, "_real_roots", wrong)
    cells = spectra_mod._isolate(TIGHT_PART, 3)
    assert len(cells) == 3
    for cell, root in zip(cells, TIGHT_ROOTS):
        assert [_holds_root(cell, r) for r in TIGHT_ROOTS] == [r is root for r in TIGHT_ROOTS]
        approx, lo, hi = cell
        assert lo < approx < hi
    # np.roots is off by about 2e-9 on this part
    assert cells[1][0] == pytest.approx(1393 / 985, abs=1e-8)
    # a count that the polynomial does not have raises: x^3 - 2 has one
    # real root, not three
    with pytest.raises(AssertionError, match="has 1 real roots, expected 3"):
        spectra_mod._isolate((-2, 0, 0, 1), 3)


def test_algebraic_eigenvalue_is_validated_where_it_is_built():
    k3 = adjacency_matrix(cycle_graph(3))  # eigenvalues 2 and -1 (double)
    with pytest.raises(ParameterOutOfRange, match="not squarefree"):
        AlgebraicEigenvalue(IntPolynomial((4, -4, 1)), 2.0)
    with pytest.raises(ParameterOutOfRange, match="no real root"):
        AlgebraicEigenvalue(IntPolynomial((1, 0, 1)), 0.0)
    with pytest.raises(ParameterOutOfRange, match="midway"):
        AlgebraicEigenvalue(IntPolynomial((-2, 0, 1)), 0.0)
    with pytest.raises(ParameterOutOfRange, match="2 real roots"):
        AlgebraicEigenvalue.real_root(IntPolynomial((-2, 0, 1)))
    # a reducible squarefree polynomial names each of its roots
    both = IntPolynomial((2, -3, 1))  # (x - 1)(x - 2)
    assert multiplicity(k3, AlgebraicEigenvalue(both, 2.2)).multiplicity == 1
    assert multiplicity(k3, AlgebraicEigenvalue(both, 0.7)).multiplicity == 0
    minus_one = AlgebraicEigenvalue(IntPolynomial((-2, -1, 1)), -0.9)  # (x + 1)(x - 2)
    assert multiplicity(k3, minus_one).multiplicity == 2
    assert spectra_mod.deletion_multiplicities(k3, minus_one, [0]) == [1]
    # x^3 - 2 has one real root and needs no locator
    cube_root = AlgebraicEigenvalue.real_root(IntPolynomial((-2, 0, 0, 1)))
    assert cube_root.approx == pytest.approx(2 ** (1 / 3))
    # a given interval must isolate exactly one root, with no root at an end
    for interval in [(0, 3), (Fraction(3, 2), 1), (1, 2), (-1, 0)]:
        with pytest.raises(ParameterOutOfRange, match="does not isolate"):
            AlgebraicEigenvalue(both, 1.0, interval)
    assert AlgebraicEigenvalue(both, 1.0, (0, Fraction(3, 2))).interval == (0, Fraction(3, 2))


def test_algebraic_eigenvalue_refuses_an_approx_outside_its_interval():
    """approx is what a floating matrix is asked about, so it must be a
    finite number inside the interval that names the root: otherwise the
    exact and the floating adjacency matrix of one graph would disagree."""
    sqrt2 = IntPolynomial((-2, 0, 1))
    for approx in (100.0, 1.0, 2.0, -1.5, math.nan, math.inf):
        with pytest.raises(ParameterOutOfRange, match="approx"):
            AlgebraicEigenvalue(sqrt2, approx, (1, 2))
    # without an interval approx picks the cell of sqrt(2), which ends at
    # the root bound 8, and must lie in it
    with pytest.raises(ParameterOutOfRange, match="approx"):
        AlgebraicEigenvalue(sqrt2, 100.0)
    with pytest.raises(ParameterOutOfRange, match="not finite"):
        AlgebraicEigenvalue(sqrt2, math.nan)
    lam = AlgebraicEigenvalue(sqrt2, 1.5, (1, 2))
    p3 = path_graph(3)  # eigenvalues -sqrt(2), 0, sqrt(2)
    for scalar in ("exact", "approx"):
        assert multiplicity(adjacency_matrix(p3, scalar=scalar), lam, tol=0.1).multiplicity == 1


def _factored_count(q: tuple, f: tuple, lo: Fraction, hi: Fraction) -> int:
    """sympy's answer to _gcd_rounds: the number of times the irreducible
    factor of f that changes sign on (lo, hi) divides q."""
    x = sympy.Symbol("x")
    factors = sympy.Poly(list(reversed(f)), x).factor_list()[1]
    sign = lambda p, t: sympy.sign(p.eval(sympy.Rational(t.numerator, t.denominator)))
    [mu] = [h for h, _ in factors if sign(h, lo) != sign(h, hi)]
    rem, count = sympy.Poly(list(reversed(q)), x, domain="QQ"), 0
    while True:
        quo, r = rem.div(mu)
        if not r.is_zero:
            return count
        rem, count = quo, count + 1


def test_gcd_rounds_equal_the_factored_division_count_on_the_sweep(monkeypatch):
    """The slice charpolys and the squarefree parts that the cap-6
    connected sweep asks about, every charpoly against every root of every
    part: gcd rounds against sympy's factor-and-divide."""
    from specmult.oracle import CampaignConfig, run_campaign

    asked = set()
    real = spectra_mod._gcd_rounds

    def recorded(q, f, lo, hi):
        asked.add((q, f))
        return real(q, f, lo, hi)

    monkeypatch.setattr(spectra_mod, "_gcd_rounds", recorded)
    summary, found = run_campaign(CampaignConfig("connected", cap=6))
    assert summary["instances"] == 27475 and found == []
    charpolys = sorted({q for q, _ in asked})
    roots = sorted({(f, lo, hi) for _, f in asked for _, lo, hi in spectra_mod._isolate(f, len(f) - 1)})
    reducible = sum(len(_sympy_factors(IntPolynomial(f))) > 1 for f in {f for f, _, _ in roots})
    counts = [
        real(q, f, lo.as_integer_ratio(), hi.as_integer_ratio()) for q in charpolys for f, lo, hi in roots
    ]
    assert counts == [_factored_count(q, *root) for q in charpolys for root in roots]
    # 13 charpolys x 75 roots of 20 polynomials (parts, and the linear
    # polynomials of rational lambdas), 11 of them reducible; 113 pairs
    # share the root, 2 of them twice
    assert len(counts) >= 900 and sum(c > 0 for c in counts) >= 100 and max(counts) == 2
    assert reducible >= 10


def test_scaled_char_poly_against_sympy():
    rng = random.Random(3)
    for _ in range(12):
        n = rng.randint(1, 5)
        from specmult.graphs import Graph

        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6
        ]
        g = Graph(n, edges)
        b = random_in_S(g, seed=rng.randrange(1 << 20))
        p, d = scaled_char_poly(b)
        m = _sympy_matrix(b)
        ref = sympy.Poly((d * m).charpoly(X).as_expr(), X)
        ref_coeffs = tuple(reversed([int(sympy.nsimplify(c)) for c in ref.all_coeffs()]))
        assert p.coeffs == ref_coeffs
        assert p.is_monic
    # integer entries need no clearing: det(xI - A(C_4)) = x^4 - 4x^2
    c4 = adjacency_matrix(cycle_graph(4))
    assert scaled_char_poly(c4) == (IntPolynomial((0, 0, -4, 0, 1)), 1)


def _deletion_test_matrices():
    """Seeded Gaussian-rational matrices (complex, non-integer entries) on
    1..6 vertices, n = 1 and 2 included, plus integer and halved adjacency
    matrices whose deletions share eigenvalues."""
    rng = random.Random(11)
    out = []
    for n in [1, 2, 2] + [rng.randint(3, 6) for _ in range(9)]:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6]
        out.append(random_in_S(Graph(n, edges), seed=rng.randrange(1 << 20)))
    for g in (theta_graph(3, 2, 2), star_graph(4), cycle_graph(6)):
        a = adjacency_matrix(g)
        out.append(a)
        halved = [[ExactComplex(e.re / 2, e.im / 2) for e in row] for row in a.entries]
        out.append(HermitianMatrix.from_rows(halved, pattern=g))
    return out


def _delete(b, v):
    return principal_submatrix(b, [u for u in range(b.n) if u != v])[0]


def test_adjugate_diagonal_gives_vertex_deleted_charpolys():
    rng = random.Random(12)
    larger = [random_in_S(_connected_pattern(rng, n), rng.randrange(1 << 20)) for n in (12, 16)]
    for b in _deletion_test_matrices() + larger:
        d, cre, cim = spectra_mod._clear_denominators(b.entries)
        charpoly, deleted = spectra_mod._faddeev_leverrier(cre, cim)
        assert charpoly == scaled_char_poly(b)[0]
        assert len(deleted) == b.n
        for v in range(b.n):
            # det(xI - d*B_v) = d^(n-1) det((x/d)I - B_v), coefficientwise,
            # against the charpoly of the submatrix cleared by its own d_v
            unscaled = [Fraction(c, d ** (b.n - 1 - j)) for j, c in enumerate(deleted[v])]
            sub, d_v = scaled_char_poly(_delete(b, v))
            want = [Fraction(c, d_v ** (b.n - 1 - j)) for j, c in enumerate(sub.coeffs)]
            assert unscaled == want, (b.n, v)


def _sympy_charpoly(re, im) -> tuple[int, ...]:
    """det(xI - C) of the Gaussian integer matrix C = re + i*im, by sympy
    over ZZ_I, lowest degree first."""
    n = len(re)
    rows = [[ZZ_I(re[i][j], im[i][j]) for j in range(n)] for i in range(n)]
    coeffs = DomainMatrix(rows, (n, n), ZZ_I).charpoly()
    assert all(c.y == 0 for c in coeffs)
    return tuple(int(c.x) for c in reversed(coeffs))


def test_multimodular_kernel_matches_sympy_beyond_int64():
    rng = random.Random(21)
    widest = 0
    for n in [1, 2, 3, 5, 8, 11, 14, 16, 16]:
        d, re, im = random_in_S(_connected_pattern(rng, n), rng.randrange(1 << 20)).cleared
        charpoly, deleted = spectra_mod._faddeev_leverrier(re, im)
        assert charpoly.coeffs == _sympy_charpoly(re, im)
        for v in range(n):
            keep = [u for u in range(n) if u != v]
            sub = [[re[i][j] for j in keep] for i in keep], [[im[i][j] for j in keep] for i in keep]
            assert deleted[v] == _sympy_charpoly(*sub), (n, v)
        widest = max(widest, max(abs(c) for c in charpoly.coeffs))
    # a coefficient beyond 2**63 needs a product of primes beyond 2**64,
    # so at least three primes below 2**26
    assert widest > 2**63


@pytest.mark.parametrize("sign", [1, -1])
def test_multimodular_kernel_is_exact_next_to_its_bound(sign):
    # diag(lam), lam = +-R: the largest coefficient of (x - lam)^8, R^8, is
    # within a factor 2 of the bound (1 + r)^8, r = 1 + floor(sqrt(8/7) R),
    # and the product of the primes exceeds twice that bound
    n, lam = 8, sign * 10**12
    re = tuple(tuple(lam if i == j else 0 for j in range(n)) for i in range(n))
    im = tuple((0,) * n for _ in range(n))
    charpoly, deleted = spectra_mod._faddeev_leverrier(re, im)
    assert charpoly.coeffs == tuple(math.comb(n, j) * (-lam) ** (n - j) for j in range(n + 1))
    below = tuple(math.comb(n - 1, j) * (-lam) ** (n - 1 - j) for j in range(n))
    assert deleted == (below,) * n


def test_multimodular_kernel_reduces_entries_beyond_int64():
    a, dd, b_re, b_im = 2**64 + 1, -7, 3, 5 * 2**70
    re = ((a, b_re), (b_re, dd))
    im = ((0, b_im), (-b_im, 0))
    charpoly, deleted = spectra_mod._faddeev_leverrier(re, im)
    assert charpoly.coeffs == (a * dd - b_re**2 - b_im**2, -(a + dd), 1)
    assert deleted == ((-dd, 1), (-a, 1))


def test_multimodular_kernel_small_and_oversized_orders():
    assert spectra_mod._faddeev_leverrier((), ()) == (IntPolynomial((1,)), ())
    assert spectra_mod._faddeev_leverrier(((-3,),), ((0,),)) == (IntPolynomial((3, 1)), ((1,),))
    too_big = ((),) * 2048  # refused on its order, before any entry is read
    with pytest.raises(ParameterOutOfRange):
        spectra_mod._faddeev_leverrier(too_big, too_big)


def test_a_wrong_root_of_minus_one_trips_an_invariant(monkeypatch):
    # with s*s != -1 mod one prime, tr C^2 comes out as sum(re^2 - s^2 im^2)
    # there, so the lifted c_(n-2) disagrees with (t^2 - sum |c_ij|^2)/2
    real_table = spectra_mod._prime_table

    def patched(count):
        (p, s), *rest = real_table(count)
        return ((p, s + 1), *rest)

    d, re, im = random_in_S(cycle_graph(5), 4).cleared
    assert any(any(row) for row in im)
    spectra_mod._moduli.cache_clear()
    monkeypatch.setattr(spectra_mod, "_prime_table", patched)
    try:
        with pytest.raises(AssertionError, match="c_\\(n-2\\)"):
            spectra_mod._faddeev_leverrier(re, im)
    finally:
        spectra_mod._moduli.cache_clear()
    # a prime table that derives a wrong root refuses to take the entry in
    real_root = spectra_mod._root_of_minus_one
    monkeypatch.setattr(spectra_mod, "_root_of_minus_one", lambda p: real_root(p) + 1)
    with pytest.raises(AssertionError, match="square root of -1"):
        spectra_mod._PrimeTable(spectra_mod._CERT_BITS)[0]


def test_prime_table_rederived_by_trial_division():
    table = spectra_mod._prime_table(16)
    primes = [p for p, _ in table]
    assert primes == sorted(set(primes), reverse=True)
    for p, s in table:
        assert p < 2**26 and p % 4 == 1
        assert all(p % q for q in range(2, math.isqrt(p) + 1))
        assert s * s % p == p - 1


def test_certifying_primes_rederived_by_sympy():
    # every candidate p = 1 (mod 4) from 2**81 down to the eighth entry is
    # tested again by sympy's isprime, so no prime is skipped or wrongly taken
    table = [spectra_mod._CERT_PRIMES[i] for i in range(8)]
    assert 2**spectra_mod._CERT_BITS < 3_317_044_064_679_887_385_961_981
    taken = [p for p in range(2**81 - 3, table[-1][0] - 1, -4) if sympy.isprime(p)]
    assert [p for p, _ in table] == taken
    for p, s in table:
        assert s * s % p == p - 1
    # 318665857834031151167461 = 399165290221 * 798330580441, below 2**81
    # and 1 mod 4, is a strong probable prime to every prime base up to 37;
    # base 41 exposes it
    psi12 = 318665857834031151167461
    assert psi12 == 399165290221 * 798330580441 and psi12 < 2**81 and psi12 % 4 == 1
    assert not spectra_mod._is_prime(psi12)
    assert spectra_mod._is_prime(798330580441)


def _eigenvalues_of(b: HermitianMatrix) -> list:
    """Every eigenvalue of the exact matrix b, one per root of each
    irreducible factor: a Fraction, or an AlgebraicEigenvalue for each
    conjugate root of a factor of degree 2 or more."""
    charpoly, d = scaled_char_poly(b)
    out = []
    for f, _ in _sympy_factors(charpoly):
        # a root r of f is the eigenvalue r/d, whose minimal polynomial is f(d*x)
        mu = IntPolynomial(_int_primitive([c * d**j for j, c in enumerate(f.coeffs)]))
        if mu.degree == 1:
            out.append(Fraction(-mu.coeffs[0], mu.coeffs[1]))
        else:
            roots = np.roots(list(reversed(mu.coeffs)))
            assert len(roots) == mu.degree
            out += [AlgebraicEigenvalue(mu, float(r.real)) for r in roots]
    return out


def test_deletion_multiplicities_match_each_submatrix():
    checked = positive = 0
    for b in _deletion_test_matrices():
        lams = {Fraction(1, 3), Fraction(0)}
        for v in range(b.n):
            lams.update(_eigenvalues_of(_delete(b, v)))
        for lam in lams:
            got = spectra_mod.deletion_multiplicities(b, lam, range(b.n))
            want = [multiplicity(_delete(b, v), lam).multiplicity for v in range(b.n)]
            assert got == want, (b.n, lam)
            # and against the per-vertex submatrix route, on B's own tables
            minus = [[u for u in range(b.n) if u != v] for v in range(b.n)]
            assert got == [submatrix_multiplicity(b, keep, lam) for keep in minus], (b.n, lam)
            checked += 1
            positive += any(want)
    assert checked > 100 and positive > 50
    # inexact matrices and float eigenvalues count each submatrix (a path
    # P_5, eigenvalues 0, +-1, +-sqrt 3) numerically
    c6 = adjacency_matrix(cycle_graph(6))
    approx = HermitianMatrix.from_rows([[float(e.re) for e in row] for row in c6.entries])
    assert spectra_mod.deletion_multiplicities(approx, 1.0, [0, 3]) == [1, 1]
    assert spectra_mod.deletion_multiplicities(c6, 2.0, [5]) == [0]


def test_submatrix_route_matches_each_principal_submatrix():
    """submatrix_multiplicity slices B's cleared tables; it agrees with
    multiplicity() on the principal submatrix built and cleared on its own:
    at every eigenvalue of the piece (each conjugate root of a factor), at
    rational probes and at an algebraic non-eigenvalue, on pieces whose own
    denominator differs from B's; and numerically on approx matrices and
    float lambdas."""
    rng = random.Random(29)
    other_d = exact_hits = conjugates = numeric_hits = 0
    for _ in range(24):
        n = rng.randint(3, 7)
        b = random_in_S(_connected_pattern(rng, n), rng.randrange(1 << 30))
        approx = HermitianMatrix.from_rows(
            [[e.to_complex() for e in row] for row in b.entries], pattern=b.pattern
        )
        for _ in range(3):
            keep = sorted(rng.sample(range(n), rng.randint(1, n - 1)))
            sub = principal_submatrix(b, keep)[0]
            other_d += sub.cleared[0] != b.cleared[0]
            lams = _eigenvalues_of(sub) + [
                Fraction(0),
                Fraction(1, 3),
                b.entries[keep[-1]][keep[-1]].re,
                AlgebraicEigenvalue.from_2cos(5, 1),
            ]
            for lam in lams:
                got = submatrix_multiplicity(b, keep, lam)
                assert got == multiplicity(sub, lam).multiplicity, (b.entries, keep, lam)
                exact_hits += got > 0
                conjugates += got > 0 and isinstance(lam, AlgebraicEigenvalue)
            approx_sub = principal_submatrix(approx, keep)[0]
            for lam in eigenvalues_numeric(approx_sub).values + (1e3,):
                want = multiplicity(approx_sub, lam).multiplicity
                assert submatrix_multiplicity(approx, keep, lam) == want
                assert submatrix_multiplicity(b, keep, lam) == want
                numeric_hits += want > 0
    # 51 of the 72 pieces have their own denominator; 213 exact hits, 107 of
    # them at a conjugate root, and 170 numeric hits
    assert other_d >= 40 and exact_hits >= 200 and conjugates >= 100 and numeric_hits >= 150


def _gauss_rational(rng, num: int, den: int) -> ExactComplex:
    return ExactComplex(
        Fraction(rng.randint(-num, num), rng.randint(1, den)),
        Fraction(rng.randint(-num, num), rng.randint(1, den)),
    )


def _product(left, right):
    inner = range(len(right))
    return [
        [sum((row[t] * right[t][j] for t in inner), ExactComplex()) for j in range(len(right[0]))]
        for row in left
    ]


def _sympy_rank(rows, ncols: int) -> int:
    m = sympy.Matrix(
        len(rows),
        ncols,
        lambda i, j: sympy.Rational(rows[i][j].re) + sympy.I * sympy.Rational(rows[i][j].im),
    )
    return DomainMatrix.from_Matrix(m).to_field().rank()


def _rank_cases():
    """(rows, ncols) pairs: square and rectangular, full rank and rank k
    products, sparse ones whose zero pivots force row swaps and column
    skips, and denominators up to 10^6."""
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randint(1, 6)
        yield [[_gauss_rational(rng, 4, 3) for _ in range(n)] for _ in range(n)], n
    for _ in range(30):
        r, c = rng.randint(1, 10), rng.randint(1, 10)
        yield [[_gauss_rational(rng, 10**6, 10**6) for _ in range(c)] for _ in range(r)], c
    for _ in range(30):
        n = rng.randint(2, 10)
        k = rng.randint(1, n - 1)
        r, c = (n, n) if rng.random() < 0.5 else (rng.randint(1, 10), rng.randint(1, 10))
        den = rng.choice((1, 7, 10**6))
        left = [[_gauss_rational(rng, 9, den) for _ in range(k)] for _ in range(r)]
        right = [[_gauss_rational(rng, 9, den) for _ in range(c)] for _ in range(k)]
        yield _product(left, right), c
    for _ in range(30):
        r, c = rng.randint(2, 10), rng.randint(2, 10)
        rows = [
            [_gauss_rational(rng, 3, 5) if rng.random() < 0.3 else ExactComplex() for _ in range(c)]
            for _ in range(r)
        ]
        lead = rng.randint(0, c - 1)  # zero leading columns
        for row in rows:
            row[:lead] = [ExactComplex()] * lead
            row[-1] = row[lead] * 2  # a dependent column
        yield rows, c


def test_exact_rank_against_sympy():
    deficient = 0
    for rows, ncols in _rank_cases():
        ours = exact_rank(rows)
        assert ours == _sympy_rank(rows, ncols)
        deficient += ours < min(len(rows), ncols)
    assert deficient >= 40


def test_exact_rank_swaps_rows_and_skips_columns():
    z, one, two = ExactComplex(), ExactComplex(1), ExactComplex(2)
    # column 0 has no pivot, column 1's first entry is zero, and column 2
    # is 3/2 times column 1 below the first row
    rows = [[z, z, one], [z, two, ExactComplex(3)], [z, ExactComplex(4), ExactComplex(6)]]
    assert exact_rank(rows) == 2
    i = ExactComplex(0, 1)
    assert exact_rank([[z, i], [i, z]]) == 2
    assert exact_rank([[one, i], [i, ExactComplex(-1)]]) == 1  # row 2 = i * row 1


def test_exact_rank_of_empty_matrices():
    assert exact_rank([]) == 0
    assert exact_rank([[], [], []]) == 0


def test_exact_rank_is_certified_past_a_prime_it_vanishes_mod():
    # [[p0]] and [[-s0 + i]] are nonzero, so of rank 1, but their image mod
    # the first prime p0, where i -> s0, is 0; rows p0*(1, 0, 1), (0, 1, 1)
    # and their sum have rank 2 but rank 1 mod p0. The Hadamard bound
    # exceeds p0 in each case, so certifying primes must find the rank.
    p0, s0 = spectra_mod._prime_table(1)[0]
    cases = [
        (((p0,),), ((0,),), 1),
        (((-s0,),), ((1,),), 1),
        (((p0, 0, p0), (0, 1, 1), (p0, 1, p0 + 1)), ((0,) * 3,) * 3, 2),
    ]
    for re, im, rank in cases:
        assert spectra_mod._rank_mod(spectra_mod._residue_rows(re, im, p0, s0), p0) == rank - 1
        assert exact_rank(re, im) == rank
        rows = [[ExactComplex(x, y) for x, y in zip(a, b)] for a, b in zip(re, im)]
        assert _sympy_rank(rows, len(rows[0])) == rank


def test_exact_rank_refuses_ragged_or_mismatched_tables():
    e0, e1 = ExactComplex(0), ExactComplex(1)
    for args in [
        ([[1, 0], [0, 1]], [[0], [0]]),
        ([[1, 0], [0, 1]], [[0, 0]]),
        ([[1, 0], [0]], [[0, 0], [0]]),
        ([[e1], [e0, e1]],),
    ]:
        with pytest.raises(ParameterOutOfRange):
            exact_rank(*args)
    assert exact_rank([[1, 0], [0, 1]], [[0, 0], [0, 0]]) == 2


def test_multiplicity_exact_rational_fixture():
    b = adjacency_matrix(cycle_graph(4))
    res = multiplicity(b, Fraction(0))
    assert res.multiplicity == 2 and res.method == "ExactRank"
    assert multiplicity(b, Fraction(2)).multiplicity == 1
    assert multiplicity(b, Fraction(5)).multiplicity == 0


def _counting_exact_rank(monkeypatch) -> list:
    """Record every call that reaches the public exact_rank through the
    module name, where perfbench's span wrappers count it."""
    seen = []
    kernel = spectra_mod.exact_rank

    def counting(rows, im=None):
        seen.append((rows, im))
        return kernel(rows, im)

    monkeypatch.setattr(spectra_mod, "exact_rank", counting)
    return seen


def test_multiplicity_exact_rational_ranks_through_exact_rank(monkeypatch):
    # a full rank on the slice's residues mod p0 is the answer: no shifted
    # integer table is built, and neither exact_rank nor its certifying
    # passes are reached
    seen = _counting_exact_rank(monkeypatch)
    certified = []
    certify = spectra_mod._certify

    def counting_certify(re, im, best, full):
        certified.append((re, im, best, full))
        return certify(re, im, best, full)

    monkeypatch.setattr(spectra_mod, "_certify", counting_certify)
    b = adjacency_matrix(cycle_graph(4))
    assert multiplicity(b, Fraction(1, 2)).multiplicity == 0
    assert seen == [] and certified == []
    # a deficient one is certified on exactly q*(d*B) - p*d*I, here with
    # d = 1 and lambda = p/q = 0, from the first pass's rank 2
    assert multiplicity(b, Fraction(0)).multiplicity == 2
    ((re, im, best, full),) = certified
    assert re == [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]]
    assert im == [[0] * 4] * 4 and (best, full) == (2, 4)
    assert seen == []


def _shifted_tables(b: HermitianMatrix, ids: list[int], lam: Fraction) -> tuple[list, list]:
    """q*(d*B) - p*d*I on the rows and columns in ids, built from the
    entries, with d the lcm of every entry's denominator."""
    d = math.lcm(*(f.denominator for row in b.entries for e in row for f in (e.re, e.im)))
    p, q = lam.as_integer_ratio()
    re = [[q * d * b.entries[i][j].re - (p * d if i == j else 0) for j in ids] for i in ids]
    im = [[q * d * b.entries[i][j].im for j in ids] for i in ids]
    return [[int(x) for x in row] for row in re], [[int(x) for x in row] for row in im]


def test_residue_route_equals_the_rank_of_shifted_tables():
    """multiplicity and submatrix_multiplicity, which take their first pass
    on the slice's residues mod p0, equal len(ids) - exact_rank of
    q*(d*B) - p*d*I, tables the test builds from the entries, on random
    matrices in S(G) and random vertex slices."""
    rng = random.Random(16)
    deficient = 0
    for n in range(1, 11):
        for _ in range(8):
            b = random_in_S(_connected_pattern(rng, n), rng.randrange(1 << 30))
            ids = sorted(rng.sample(range(n), rng.randint(1, n)))
            v = rng.randrange(n)
            lams = [
                Fraction(0),
                Fraction(1),
                b.entries[v][v].re,
                b.entries[ids[0]][ids[0]].re,
                Fraction(rng.randint(-40, 40), rng.randint(1, 12)),
            ]
            for lam in lams:
                m = multiplicity(b, lam).multiplicity
                assert m == n - exact_rank(*_shifted_tables(b, list(range(n)), lam)), (b.entries, lam)
                ms = submatrix_multiplicity(b, ids, lam)
                assert ms == len(ids) - exact_rank(*_shifted_tables(b, ids, lam)), (b.entries, ids, lam)
                deficient += (m > 0) + (ms > 0)
    # 81 with this seed: every diagonal entry is an eigenvalue at n = 1, and
    # of each slice of one vertex
    assert deficient >= 60


def test_residue_route_falls_back_when_p0_divides_q(monkeypatch):
    # q is no unit mod p0, so the residues cannot be shifted: exact_rank
    # takes the integer tables whole
    p0 = spectra_mod._prime_table(1)[0][0]
    seen = _counting_exact_rank(monkeypatch)
    for k in (1, 3):
        lam = Fraction(k, p0)
        b = HermitianMatrix.from_rows([[lam, 1], [1, lam]])
        assert multiplicity(b, lam).multiplicity == 0
        assert multiplicity(b, lam + 1).multiplicity == 1
        assert submatrix_multiplicity(b, [1], lam) == 1
    assert len(seen) == 6


def test_residue_route_certifies_tables_singular_mod_p0():
    # [[p0]] and [[p0 + 1]] - 1 are 0 mod p0 but not over Q: the first pass
    # finds rank 0, and the certifying primes find rank 1
    p0 = spectra_mod._prime_table(1)[0][0]
    assert multiplicity(HermitianMatrix.from_rows([[p0]]), Fraction(0)).multiplicity == 0
    assert multiplicity(HermitianMatrix.from_rows([[p0 + 1]]), Fraction(1)).multiplicity == 0
    assert multiplicity(HermitianMatrix.from_rows([[p0 + 1]]), Fraction(p0 + 1)).multiplicity == 1
    # rank 2 over Q, rank 1 mod p0: the 3x3 table from the exact_rank test
    b = HermitianMatrix.from_rows([[p0, 0, p0], [0, 1, 1], [p0, 1, p0 + 1]])
    assert multiplicity(b, Fraction(0)).multiplicity == 1


def _connected_pattern(rng, n: int) -> Graph:
    """A random spanning tree on n vertices plus up to three chords."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    if n > 1:
        edges |= {tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(0, 3))}
    return Graph(n, sorted(edges))


def _twin_pendants(rng, twins: int) -> tuple[HermitianMatrix, Fraction]:
    """random_in_S on a random tree with `twins` extra pendants hung on
    vertex 0, all with one diagonal entry c: then c is an eigenvalue of
    multiplicity at least twins - 1 (a vector on two of the pendants,
    weighted against their edges to 0, is annihilated by B - c*I)."""
    base = rng.randint(1, 5)
    edges = [(rng.randrange(v), v) for v in range(1, base)]
    edges += [(0, base + t) for t in range(twins)]
    b = random_in_S(Graph(base + twins, edges), rng.randrange(1 << 30))
    c = b.entries[base][base].re
    rows = [list(r) for r in b.entries]
    for t in range(twins):
        rows[base + t][base + t] = ExactComplex(c)
    return HermitianMatrix(b.n, tuple(map(tuple, rows)), b.pattern, "exact"), c


def _shifted_over_qq_i(b: HermitianMatrix, lam: Fraction) -> DomainMatrix:
    """B - lambda*I as a sympy matrix over QQ<I>, straight from the entries."""
    rows = [
        [QQ_I(e.re - (lam if i == j else 0), e.im) for j, e in enumerate(row)]
        for i, row in enumerate(b.entries)
    ]
    return DomainMatrix(rows, (b.n, b.n), QQ_I)


def _pinned(rng, n: int) -> tuple[HermitianMatrix, Fraction]:
    """random_in_S with B[0][0] re-chosen so that a non-integer lambda is an
    eigenvalue. det(B - lambda*I) is affine in B[0][0]: it is t*D + R, with
    t = B[0][0] - lambda, D the determinant with row and column 0 deleted
    and R the determinant with t = 0, so t = -R/D (both real, B Hermitian)."""
    while True:
        b = random_in_S(_connected_pattern(rng, n), rng.randrange(1 << 30))
        lam = Fraction(2 * rng.randint(-20, 20) + 1, 2 * rng.randint(1, 5))
        rows = [list(r) for r in b.entries]
        rows[0][0] = ExactComplex(lam)
        r_det = _shifted_over_qq_i(HermitianMatrix(n, tuple(map(tuple, rows)), b.pattern, "exact"), lam).det()
        d_det = _shifted_over_qq_i(principal_submatrix(b, range(1, n))[0], lam).det()
        if d_det != 0:
            t = r_det / d_det
            rows[0][0] = ExactComplex(lam - Fraction(int(t.x.numerator), int(t.x.denominator)))
            return HermitianMatrix(n, tuple(map(tuple, rows)), b.pattern, "exact"), lam


def _probes(rng, b: HermitianMatrix) -> list[Fraction]:
    """0, +-1, a diagonal entry, p/q with q up to 10^6, and rationals whose
    product with the clearing denominator d is integral and is not."""
    d = math.lcm(*(f.denominator for row in b.entries for e in row for f in (e.re, e.im)))
    v = rng.randrange(b.n)
    return [
        Fraction(0),
        Fraction(1),
        Fraction(-1),
        b.entries[v][v].re,
        Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)),
        Fraction(rng.randint(-30, 30), d),
        Fraction(rng.randint(-30, 30) * 2 + 1, 7 * d),
    ]


def test_multiplicity_exact_rational_against_sympy():
    """n - rank(B - lambda*I) from the integer route equals sympy's rank over
    QQ<I> on random matrices in S(G), and on twin-pendant and pinned
    matrices with a known eigenvalue."""
    rng = random.Random(41)
    cases = []
    for n in range(1, 11):
        for _ in range(6):
            b = random_in_S(_connected_pattern(rng, n), rng.randrange(1 << 30))
            cases.append((b, _probes(rng, b)))
    for _ in range(30):
        b, c = _twin_pendants(rng, rng.randint(2, 4))
        cases.append((b, [c] + _probes(rng, b)))
    for _ in range(30):
        b, lam = _pinned(rng, rng.randint(2, 8))
        cases.append((b, [lam] + _probes(rng, b)))
    deficient = fractional = 0
    for b, lams in cases:
        for lam in lams:
            m = multiplicity(b, lam).multiplicity
            assert m == b.n - _shifted_over_qq_i(b, lam).to_field().rank(), (b.entries, lam)
            deficient += m > 0
            fractional += m > 0 and lam.denominator > 1
    # every twin-pendant and pinned matrix contributes at least one, and
    # n = 1 always hits at its diagonal entry: 84 in all, 54 of them at a
    # non-integer lambda, where the shift scales the whole matrix by q
    assert deficient >= 75 and fractional >= 45


def test_is_exact_scalar():
    assert _is_exact_scalar(0) and _is_exact_scalar(Fraction(1, 2))
    for lam in (True, np.int64(0), 0.5, AlgebraicEigenvalue.from_2cos(5, 1)):
        assert not _is_exact_scalar(lam)
    # a bool or a numpy integer is asked numerically, never as an exact rank
    b = adjacency_matrix(cycle_graph(4))
    assert multiplicity(b, np.int64(0)).method == "NumericCluster"
    assert multiplicity(b, True).method == "NumericCluster"
    assert multiplicity(b, 0).method == "ExactRank"


def test_multiplicity_algebraic_vs_numeric():
    rng = random.Random(23)
    for n, k in [(5, 1), (8, 1), (8, 3), (12, 5)]:
        b = adjacency_matrix(cycle_graph(n))
        lam = AlgebraicEigenvalue.from_2cos(n, k)
        exact = multiplicity(b, lam).multiplicity
        numeric = multiplicity_numeric(b, lam.approx, 1e-8).multiplicity
        assert exact == numeric == 2


def test_multiplicity_algebraic_non_monic_minpoly():
    # lambda = 1/2 + cos(2pi/5): primitive minpoly is non-monic
    half = Fraction(1, 2)
    mu = min_poly_2cos(5, 1)
    assert mu.coeffs == (-1, 1, 1)  # x^2 + x - 1, root 2cos(2pi/5)
    # minpoly of 1/2 + t/2 where t = 2cos(2pi/5): substitute t = 2x - 1
    # into t^2 + t - 1 to get 4x^2 - 2x - 1
    val = 0.5 + math.cos(2 * math.pi / 5)
    lam = AlgebraicEigenvalue(IntPolynomial((-1, -2, 4)), val)
    # diagonal-shifted path realizes this eigenvalue: B = A(P_2)/2 + I/2 has
    # eigenvalues 1/2 +- 1/2; instead verify against a matrix with entry 1/2
    rows = [
        [ExactComplex(half), ExactComplex(half)],
        [ExactComplex(half), ExactComplex(half)],
    ]
    b = HermitianMatrix.from_rows(rows)
    # eigenvalues are 0 and 1; lam not among them
    assert multiplicity(b, lam).multiplicity == 0
    # and a matrix that genuinely has it: C_5 adjacency scaled by 1/2, shifted
    c5 = adjacency_matrix(cycle_graph(5))
    rows = [
        [
            ExactComplex(half if i == j else 0) + e * ExactComplex(half)
            for j, e in enumerate(row)
        ]
        for i, row in enumerate(c5.entries)
    ]
    b2 = HermitianMatrix.from_rows(rows, pattern=c5.pattern)
    res = multiplicity(b2, lam)
    assert res.multiplicity == 2 and res.method == "CharPolyDivision"


def test_eigenvalues_numeric_residual():
    b = adjacency_matrix(star_graph(3))
    spec = eigenvalues_numeric(b)
    assert len(spec.values) == 4
    assert abs(spec.values[-1] - math.sqrt(3)) < 1e-9
    assert spec.residual_bound < 1e-10


def test_multiplicity_numeric_tolerance_guards():
    b = adjacency_matrix(path_graph(3))
    with pytest.raises(ParameterOutOfRange):
        multiplicity_numeric(b, 0.0, 1e-17)
    # C_5 has a doubled pair split by ~0: huge tol merges distinct clusters
    c = adjacency_matrix(cycle_graph(5))
    with pytest.raises(AmbiguousCluster):
        multiplicity_numeric(c, 0.6, 1.3)


def test_multiplicity_dispatcher_routes():
    b = adjacency_matrix(cycle_graph(5))
    assert multiplicity(b, Fraction(2)).method == "ExactRank"
    lam = AlgebraicEigenvalue.from_2cos(5, 1)
    assert multiplicity(b, lam).method == "CharPolyDivision"
    assert multiplicity(b, 0.25).method == "NumericCluster"
    approx = adjacency_matrix(cycle_graph(5), scalar="approx")
    assert multiplicity(approx, Fraction(2)).method == "NumericCluster"
    # a path piece carries lambda when its multiplicity is at least 1, on
    # every route: P_3 has eigenvalues -sqrt2, 0, sqrt2
    p3 = adjacency_matrix(path_graph(3))
    assert multiplicity(p3, Fraction(0)).multiplicity == 1
    assert multiplicity(p3, Fraction(1)).multiplicity == 0
    sqrt2 = AlgebraicEigenvalue(IntPolynomial((-2, 0, 1)), math.sqrt(2))
    assert multiplicity(p3, sqrt2).multiplicity == 1
    b = random_in_S(path_graph(4), seed=77)
    for v in eigenvalues_numeric(b).values:
        res = multiplicity(b, float(v), tol=1e-7)
        assert res.multiplicity == 1 and res.method == "NumericCluster"


def test_describe_eigenvalue_shapes():
    assert describe_eigenvalue(Fraction(-3, 2)) == {"kind": "rational", "value": "-3/2"}
    d = describe_eigenvalue(AlgebraicEigenvalue.from_2cos(5, 1))
    assert d["kind"] == "algebraic" and d["minpoly"] == [-1, 1, 1]
    assert describe_eigenvalue(1.5) == {"kind": "float", "value": 1.5}
