import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specmult.errors import (
    AlphaOutOfRange,
    DimensionMismatch,
    IndexOutOfRange,
    NotACycle,
    ParameterOutOfRange,
    ParseError,
    PatternMismatch,
)
from specmult.graphs import Graph, cycle_graph, path_graph, star_graph
from specmult.hermitian import (
    EC_ONE,
    EC_ZERO,
    ExactComplex,
    HermitianMatrix,
    a_alpha_gain,
    adjacency_matrix,
    cycle_gain,
    gain_graph,
    parse_matrix,
    principal_submatrix,
    random_in_S,
    serialize_matrix,
    _clear_denominators,
    validate_pattern,
)

fracs = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(a=fracs, b=fracs, c=fracs, d=fracs)
def test_exact_complex_field_ops(a, b, c, d):
    x = ExactComplex(a, b)
    y = ExactComplex(c, d)
    zx, zy = complex(float(a), float(b)), complex(float(c), float(d))
    assert np.isclose((x + y).to_complex(), zx + zy)
    assert np.isclose((x - y).to_complex(), zx - zy)
    assert np.isclose((x * y).to_complex(), zx * zy)
    if not y.is_zero():
        assert np.isclose((x / y).to_complex(), zx / zy)
        assert (x / y) * y == x
    assert x.conjugate().conjugate() == x
    assert (x * x.conjugate()).re == x.norm2()
    assert (x * x.conjugate()).im == 0


def test_exact_complex_basics():
    i = ExactComplex(0, 1)
    assert i * i == ExactComplex(-1, 0)
    assert str(ExactComplex(Fraction(1, 2), Fraction(-3, 4))) == "1/2-3/4 i"
    assert ExactComplex(2) == ExactComplex(Fraction(2), Fraction(0))
    assert not ExactComplex(0, 0)
    with pytest.raises(ZeroDivisionError):
        ExactComplex(1) / ExactComplex(0)


def test_from_rows_validates_hermitian():
    with pytest.raises(PatternMismatch):
        HermitianMatrix.from_rows([[ExactComplex(0, 1)]])  # imaginary diagonal
    with pytest.raises(PatternMismatch):
        HermitianMatrix.from_rows(
            [
                [ExactComplex(0), ExactComplex(1, 1)],
                [ExactComplex(1, 1), ExactComplex(0)],
            ]
        )
    with pytest.raises(DimensionMismatch):
        HermitianMatrix.from_rows([[ExactComplex(0), ExactComplex(1)]])
    # floating input is held to the same checks at tolerance 1e-12
    with pytest.raises(PatternMismatch):
        HermitianMatrix.from_rows([[1j]])
    with pytest.raises(PatternMismatch):
        HermitianMatrix.from_rows([[0.0, 1 + 1j], [1 + 1j, 0.0]])
    with pytest.raises(PatternMismatch):
        HermitianMatrix.from_rows([[0.0, 1.0], [1.0 + 1e-9, 0.0]])
    near = HermitianMatrix.from_rows([[1e-13j, 1.0], [1.0 + 1e-13, 0.0]])
    assert not near.is_exact and near.pattern.edges == ((0, 1),)


def test_from_rows_infers_pattern_and_scalar():
    b = HermitianMatrix.from_rows([[0, 2], [2, 1]])
    assert b.is_exact
    assert b.pattern.edges == ((0, 1),)
    c = HermitianMatrix.from_rows([[0.0, 1.0], [1.0, 0.5]])
    assert not c.is_exact


def test_pattern_validation_against_graph():
    g = path_graph(3)
    b = adjacency_matrix(g)
    assert validate_pattern(b, g)
    assert not validate_pattern(b, cycle_graph(3))
    rows = [[e for e in row] for row in b.entries]
    with pytest.raises(PatternMismatch):
        HermitianMatrix.from_rows(rows, pattern=cycle_graph(3))


def _in_pattern_reference(b: HermitianMatrix, g: Graph) -> bool:
    """validate_pattern's contract, entry by entry with Fraction arithmetic."""
    for i in range(b.n):
        if b.entries[i][i].im != 0:
            return False
        for j in range(b.n):
            x, y = b.entries[i][j], b.entries[j][i]
            if i != j and (x.re != y.re or x.im != -y.im or (x.re != 0 or x.im != 0) != g.has_edge(i, j)):
                return False
    return True


def _mutations(rng, b: HermitianMatrix):
    """(label, rows) pairs: b itself and b with one seeded fault."""
    n = b.n
    edges = list(b.pattern.edges)
    non_edges = [(u, v) for u in range(n) for v in range(u + 1, n) if not b.pattern.has_edge(u, v)]
    yield "intact", [list(r) for r in b.entries]
    u, v = rng.choice(edges)
    x = b.entries[u][v]
    shift = Fraction(rng.randint(1, 5), rng.randint(1, 4))
    for label, new in (
        ("conjugate pair, real part", ExactComplex(x.re + shift, -x.im)),
        ("conjugate pair, imaginary part", ExactComplex(x.re, -x.im + shift)),
    ):
        rows = [list(r) for r in b.entries]
        rows[v][u] = new
        yield label, rows
    rows = [list(r) for r in b.entries]
    w = rng.randrange(n)
    rows[w][w] = ExactComplex(rows[w][w].re, shift)
    yield "imaginary diagonal", rows
    rows = [list(r) for r in b.entries]
    rows[u][v] = rows[v][u] = ExactComplex()
    yield "missing edge", rows
    if non_edges:
        a, c = rng.choice(non_edges)
        rows = [list(r) for r in b.entries]
        rows[a][c] = ExactComplex(0, shift)
        rows[c][a] = ExactComplex(0, -shift)
        yield "extra support", rows


def test_exact_validation_matches_an_entrywise_reference():
    """validate_pattern's exact route on seeded faults: every fault is
    rejected, every intact matrix accepted, as the reference says."""
    rng = random.Random(59)
    seen = {}
    for _ in range(120):
        n = rng.randint(2, 8)
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        edges |= {tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(0, 2))}
        g = Graph(n, sorted(edges))
        b = random_in_S(g, rng.randrange(1 << 30))
        for label, rows in _mutations(rng, b):
            m = HermitianMatrix(n, tuple(map(tuple, rows)), g, "exact")
            want = _in_pattern_reference(m, g)
            assert validate_pattern(m, g) == want, label
            assert want == (label == "intact"), label
            seen[label] = seen.get(label, 0) + 1
    assert len(seen) == 6 and min(seen.values()) >= 50


def test_exact_validation_compares_values_not_objects():
    # 2/4 and 1/2 are equal Fractions held in distinct objects
    half, two_quarters = Fraction(1, 2), Fraction(2, 4)
    assert half == two_quarters and half is not two_quarters
    g = path_graph(2)
    rows = (
        (ExactComplex(two_quarters), ExactComplex(half, two_quarters)),
        (ExactComplex(Fraction(1, 2), -half), ExactComplex(Fraction(-2, -4))),
    )
    assert validate_pattern(HermitianMatrix(2, rows, g, "exact"), g)
    off = ((rows[0][0], ExactComplex(half, Fraction(2, 4))), (ExactComplex(half, Fraction(2, 4)), rows[1][1]))
    assert not validate_pattern(HermitianMatrix(2, off, g, "exact"), g)


def test_adjacency_matrix_exact_and_numeric():
    g = star_graph(3)
    a = adjacency_matrix(g)
    arr = a.to_numpy()
    assert arr.shape == (4, 4)
    assert arr[0, 1] == 1 and arr[1, 2] == 0
    approx = adjacency_matrix(g, scalar="approx")
    assert not approx.is_exact
    assert np.allclose(approx.to_numpy(), arr)


def test_adjacency_matrix_carries_its_cleared_tables():
    """Every graph on at most 5 vertices, disconnected and edgeless ones
    included: the entries are the 0/1 pattern, the tables kept at
    construction are the ones clearing would give, and the floating matrix
    has the same pattern."""
    for n in range(6):
        slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for mask in range(1 << len(slots)):
            g = Graph(n, [e for k, e in enumerate(slots) if mask >> k & 1])
            a = adjacency_matrix(g)
            assert a.entries == tuple(
                tuple(EC_ONE if g.has_edge(i, j) else EC_ZERO for j in range(n)) for i in range(n)
            )
            assert a.cleared == _clear_denominators(a.entries)
            assert validate_pattern(a, g)
            approx = adjacency_matrix(g, scalar="approx")
            assert approx.entries == tuple(
                tuple(complex(g.has_edge(i, j)) for j in range(n)) for i in range(n)
            )
            assert approx.scalar == "approx" and approx.pattern == g
            assert validate_pattern(approx, g)


def test_random_in_s_properties():
    g = cycle_graph(5)
    b = random_in_S(g, seed=42)
    assert b.is_exact
    assert validate_pattern(b, g)
    # off-diagonal support exactly the edges, all nonzero
    for u in range(5):
        for v in range(u + 1, 5):
            nz = not b.entries[u][v].is_zero()
            assert nz == g.has_edge(u, v)
    assert random_in_S(g, seed=42) == b
    assert random_in_S(g, seed=43) != b


def test_principal_submatrix():
    g = cycle_graph(4)
    b = random_in_S(g, seed=1)
    sub, mp = principal_submatrix(b, [0, 1, 3])
    assert sub.n == 3 and mp.to_parent == (0, 1, 3)
    assert sub.entries[0][1] == b.entries[0][1]
    assert sub.entries[1][2].is_zero()  # vertices 1 and 3 not adjacent in C4


def test_gain_graph_conjugates_on_flip():
    g = cycle_graph(3)
    i = ExactComplex(0, 1)
    phi = gain_graph(g, {(0, 1): i})
    assert phi.gain(0, 1) == i
    assert phi.gain(1, 0) == i.conjugate()
    assert phi.gain(1, 2) == ExactComplex(1)  # unassigned edges default to 1
    with pytest.raises(IndexOutOfRange):
        phi.gain(0, 0)
    with pytest.raises(IndexOutOfRange):
        gain_graph(g, {(0, 4): i})


def test_cycle_gain():
    g = cycle_graph(4)
    phi = gain_graph(g, {(0, 1): -1})
    rho = cycle_gain(phi)
    assert rho.value == ExactComplex(-1, 0)
    phi2 = gain_graph(g, {(0, 1): ExactComplex(0, 1), (1, 2): ExactComplex(0, 1)})
    assert cycle_gain(phi2).value == ExactComplex(-1, 0)
    with pytest.raises(NotACycle):
        cycle_gain(gain_graph(path_graph(3), {}))


def test_a_alpha_gain_exact_matches_numeric():
    g = cycle_graph(5)
    phi = gain_graph(g, {(0, 1): ExactComplex(0, 1)})
    for alpha in (Fraction(0), Fraction(1, 4), Fraction(1, 2)):
        ex = a_alpha_gain(phi, alpha, scalar="exact")
        ap = a_alpha_gain(phi, float(alpha), scalar="approx")
        assert ex.is_exact and not ap.is_exact
        assert np.allclose(ex.to_numpy(), ap.to_numpy())
        arr = ex.to_numpy()
        # diagonal carries alpha * degree
        assert np.allclose(np.diag(arr), 2 * float(alpha))
    with pytest.raises(AlphaOutOfRange):
        a_alpha_gain(phi, Fraction(3, 2), scalar="exact")
    with pytest.raises(AlphaOutOfRange):
        a_alpha_gain(phi, 1.0, scalar="approx")


def test_serialize_parse_round_trip_exact():
    g = cycle_graph(3)
    b = random_in_S(g, seed=9)
    text = serialize_matrix(b)
    back = parse_matrix(text)
    assert back.is_exact and back.entries == b.entries


def test_serialize_parse_round_trip_complex_entries():
    rows = [
        [ExactComplex(0), ExactComplex(Fraction(1, 2), Fraction(-3, 4))],
        [ExactComplex(Fraction(1, 2), Fraction(3, 4)), ExactComplex(-2)],
    ]
    b = HermitianMatrix.from_rows(rows)
    text = serialize_matrix(b)
    assert "1/2-3/4 i" in text
    back = parse_matrix(text)
    assert back.entries == b.entries


def test_parse_matrix_rejects_malformed():
    with pytest.raises(ParseError):
        parse_matrix("")
    with pytest.raises(ParseError):
        parse_matrix("2\n0 1\n")
    with pytest.raises(ParseError):
        parse_matrix("1\n0 0\n")
    with pytest.raises(PatternMismatch):
        parse_matrix("2\n0 1\n2 0\n")  # not hermitian


def test_parse_matrix_scalar_override():
    text = "2\n0 0.5\n0.5 0\n"
    approx = parse_matrix(text)
    assert not approx.is_exact
    exact = parse_matrix(text, scalar="exact")
    assert exact.is_exact
    assert exact.entries[0][1].re == Fraction(1, 2)


def _ec(re, im=0) -> ExactComplex:
    return ExactComplex(Fraction(re), Fraction(im))


# What the matrix file format accepts: (id, text, scalar, kind, rows), where
# rows holds the entries row by row (ExactComplex when kind is "exact").
_PARSE_ACCEPTS = [
    ("zero", "1\n0\n", None, "exact", [[_ec(0)]]),
    ("rational", "1\n-5/2\n", None, "exact", [[_ec("-5/2")]]),
    ("complex", "2\n0 1+2i\n1-2i 0\n", None, "exact",
     [[_ec(0), _ec(1, 2)], [_ec(1, -2), _ec(0)]]),
    ("spaced-i", "2\n0 1+2 i\n1-2 i 0\n", None, "exact",
     [[_ec(0), _ec(1, 2)], [_ec(1, -2), _ec(0)]]),
    ("minus-i-and-lone-first-i", "2\n0 -i\ni 0\n", None, "exact",
     [[_ec(0), _ec(0, -1)], [_ec(0, 1), _ec(0)]]),
    ("lone-sign", "1\n-\n", None, "exact", [[_ec(-1)]]),
    ("decimal", "1\n1e-3\n", None, "approx", [[0.001]]),
    ("decimal-forced-exact", "1\n1e-3\n", "exact", "exact", [[_ec("1/1000")]]),
    ("upper-exponent", "1\n1E2\n", None, "approx", [[100.0]]),
    ("exponent-in-imaginary", "2\n0 1+2E-1i\n1-2E-1i 0\n", None, "approx",
     [[0j, 1 + 0.2j], [1 - 0.2j, 0j]]),
    ("exponent-in-imaginary-exact", "2\n0 1+2E-1i\n1-2E-1i 0\n", "exact", "exact",
     [[_ec(0), _ec(1, "1/5")], [_ec(1, "-1/5"), _ec(0)]]),
    ("tenth-forced-exact", "1\n0.1\n", "exact", "exact", [[_ec("1/10")]]),
    ("rational-forced-approx", "1\n1/4\n", "approx", "approx", [[0.25]]),
    ("underscore", "1\n1_000\n", None, "exact", [[_ec(1000)]]),
    ("non-ascii-digit", "1\n٣\n", None, "exact", [[_ec(3)]]),
    ("comments-and-blanks", "# m\n\n2\n  # row 0 next\n0 1\n\n1 0\n", None, "exact",
     [[_ec(0), _ec(1)], [_ec(1), _ec(0)]]),
]


@pytest.mark.parametrize(
    "text, scalar, kind, rows", [c[1:] for c in _PARSE_ACCEPTS], ids=[c[0] for c in _PARSE_ACCEPTS]
)
def test_parse_matrix_accepts(text, scalar, kind, rows):
    b = parse_matrix(text, scalar=scalar)
    assert b.scalar == kind
    want = [tuple(x if kind == "exact" else complex(x) for x in row) for row in rows]
    assert [tuple(row) for row in b.entries] == want
    assert all(type(x) is (ExactComplex if kind == "exact" else complex) for row in b.entries for x in row)
    n = len(rows)
    assert b.pattern == Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rows[i][j]])


# What it rejects: (id, text, scalar, error class, message, line of a ParseError)
_PARSE_REJECTS = [
    ("empty", "", None, ParseError, "line 0: empty matrix file", 0),
    ("only-comments", "# c\n\n", None, ParseError, "line 0: empty matrix file", 0),
    ("bad-order", "x\n", None, ParseError, "line 1: first line must be the matrix order", 1),
    ("negative-order", "-1\n", None, ParseError, "line 1: matrix order must be nonnegative", 1),
    ("missing-row", "2\n0 1\n", None, ParseError, "line 1: expected 2 rows, found 1", 1),
    ("short-row", "2\n0\n1 0\n", None, ParseError, "line 2: expected 2 entries, found 1", 2),
    ("long-row", "1\n0 0\n", None, ParseError, "line 2: expected 1 entries, found 2", 2),
    ("nan", "1\nnan\n", None, ParseError, "line 2: bad numeric literal 'nan'", 2),
    ("inf", "1\ninf\n", None, ParseError, "line 2: bad numeric literal 'inf'", 2),
    ("two-slashes", "1\n1/2/3\n", None, ParseError, "line 2: bad numeric literal '1/2/3'", 2),
    ("double-sign", "1\n+-1\n", None, ParseError, "line 2: real entry '+-1' has an embedded sign", 2),
    ("signed-denominator", "1\n1/-2\n", None, ParseError,
     "line 2: real entry '1/-2' has an embedded sign", 2),
    ("zero-denominator", "1\n1/0\n", None, ParseError, "line 2: bad numeric literal '1/0'", 2),
    ("zero-denominator-forced-exact", "1\n1/0\n", "exact", ParseError,
     "line 2: bad numeric literal '1/0'", 2),
    ("glued-second-i", "1\n1i i\n", None, ParseError, "line 2: bad numeric literal '1i'", 2),
    ("repeated-bad-token", "3\n0 0 0\n0 0 1/x\n# c\n1/x 0 0\n", None, ParseError,
     "line 3: bad numeric literal '1/x'", 3),
    ("overflow", "2\n0 1e400\n1e400 0\n", None, ParameterOutOfRange, "entry (0,1) is not finite", None),
    ("not-hermitian", "2\n0 1\n2 0\n", None, PatternMismatch,
     "matrix is not Hermitian with its support on the graph's edges", None),
    ("imaginary-diagonal", "1\ni\n", None, PatternMismatch,
     "matrix is not Hermitian with its support on the graph's edges", None),
]


@pytest.mark.parametrize(
    "text, scalar, error, message, line", [c[1:] for c in _PARSE_REJECTS], ids=[c[0] for c in _PARSE_REJECTS]
)
def test_parse_matrix_rejects(text, scalar, error, message, line):
    with pytest.raises(error) as info:
        parse_matrix(text, scalar=scalar)
    assert type(info.value) is error and str(info.value) == message
    if line is not None:
        assert info.value.line == line


def _random_pattern(rng: random.Random, n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4])


def test_parse_matrix_round_trips_serialize_matrix():
    rng = random.Random(18)
    for n in range(1, 17):
        b = random_in_S(_random_pattern(rng, n), seed=rng.randrange(1 << 30))
        back = parse_matrix(serialize_matrix(b))
        assert back.scalar == "exact" and back.entries == b.entries and back.pattern == b.pattern
    texts = []
    for n in (1, 2, 5, 9):
        g = _random_pattern(rng, n)
        rows = [[complex(rng.choice((1e-05, -2.5, 1e20)), 0) for _ in range(n)] for _ in range(n)]
        for u, v in g.edges:
            w = complex(rng.choice((1e-05, -1e20, 0.1)), rng.choice((0.0, 3e-07, -1e20)))
            rows[u][v], rows[v][u] = w, w.conjugate()
        for i in range(n):
            for j in range(n):
                if i != j and not g.has_edge(i, j):
                    rows[i][j] = 0j
        b = HermitianMatrix.from_rows(rows)
        texts.append(serialize_matrix(b))
        back = parse_matrix(texts[-1])
        assert back.scalar == "approx" and back.entries == b.entries and back.pattern == g
    assert all(form in "".join(texts) for form in ("1e-05", "1e+20", "-1e+20 i", "3e-07 i"))


def test_parse_matrix_names_an_overflowed_entry_in_either_scalar():
    """A decimal that overflows a float is refused as not finite whether
    the matrix is floating or forced exact, at the first such entry."""
    for scalar in (None, "exact", "approx"):
        with pytest.raises(ParameterOutOfRange) as info:
            parse_matrix("1\n1e400\n", scalar=scalar)
        assert str(info.value) == "entry (0,0) is not finite"
        with pytest.raises(ParameterOutOfRange) as info:
            parse_matrix("2\n0 1-1e400 i\n1+1e400i 0\n", scalar=scalar)
        assert str(info.value) == "entry (0,1) is not finite"


def test_parse_matrix_refuses_an_integer_too_large_for_a_float():
    """A floating matrix holding an integer or p/q literal beyond the float
    range is refused at its first such entry, as an overflowed decimal is;
    forced exact, the same text is a matrix."""
    big = "1" * 401
    cases = (
        (f"2\n{big} 0.5\n0.5 1\n", None, "entry (0,0) is not finite"),
        (f"2\n1 {big}/3\n{big}/3 1\n", "approx", "entry (0,1) is not finite"),
        (f"2\n0 -{big}i\n{big}i 0.5\n", None, "entry (0,1) is not finite"),
        (f"2\n-{big} 1e400\n1e400 0.5\n", None, "entry (0,0) is not finite"),
    )
    for text, scalar, message in cases:
        with pytest.raises(ParameterOutOfRange) as info:
            parse_matrix(text, scalar=scalar)
        assert str(info.value) == message
    exact = parse_matrix(f"2\n{big} 0.5\n0.5 1\n", scalar="exact")
    assert exact.entries[0][0] == ExactComplex(int(big))
