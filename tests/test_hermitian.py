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
    ParseError,
    PatternMismatch,
)
from specmult.graphs import Graph, cycle_graph, path_graph, star_graph
from specmult.hermitian import (
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
