"""Pattern-constrained Hermitian matrices over exact and floating scalars.

The exact scalar is a Gaussian rational (pair of arbitrary-precision
rationals); the floating scalar is the built-in complex. A matrix carries
its pattern graph: off-diagonal entry (i, j) is nonzero exactly when
{i, j} is an edge, and the diagonal is unconstrained (real).

Matrix file format: first line "n", then n rows of n whitespace-separated
entries. An exact entry looks like "3/4", "1/2+2/3i" or "1/2+2/3 i"; a
floating entry like "0.25" or "1.5-2.0 i". A lone "i" token is glued to
the entry before it on its row. README "Matrix files" lists every literal
form.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence, Union

from .errors import (
    AlphaOutOfRange,
    DimensionMismatch,
    IndexOutOfRange,
    NotACycle,
    ParameterOutOfRange,
    ParseError,
    PatternMismatch,
)
from .graphs import Graph, SubgraphMap, induced_subgraph
from .structure import cycle_order, is_cycle_graph

_APPROX_HERMITIAN_TOL = 1e-12


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise ParameterOutOfRange(f"cannot coerce {x!r} to an exact rational")


@dataclass(frozen=True)
class ExactComplex:
    """Gaussian rational a + b*i with exact arithmetic."""

    re: Fraction
    im: Fraction

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    def conjugate(self) -> "ExactComplex":
        return ExactComplex(self.re, -self.im)

    def norm2(self) -> Fraction:
        """Squared modulus, exact."""
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __add__(self, other) -> "ExactComplex":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return ExactComplex(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self) -> "ExactComplex":
        return ExactComplex(-self.re, -self.im)

    def __sub__(self, other) -> "ExactComplex":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return ExactComplex(self.re - other.re, self.im - other.im)

    def __rsub__(self, other) -> "ExactComplex":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "ExactComplex":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return ExactComplex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ExactComplex":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        d = other.norm2()
        if d == 0:
            raise ZeroDivisionError("division by exact zero")
        return ExactComplex(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __rtruediv__(self, other) -> "ExactComplex":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)} i"


def _coerce(x) -> ExactComplex | None:
    if isinstance(x, ExactComplex):
        return x
    if isinstance(x, (int, Fraction)):
        return ExactComplex(x, 0)
    return None


EC_ZERO = ExactComplex(0, 0)
EC_ONE = ExactComplex(1, 0)

Scalar = Union[ExactComplex, complex]
IntTable = tuple[tuple[int, ...], ...]


def _clear_denominators(rows: Sequence[Sequence[ExactComplex]]) -> tuple[int, IntTable, IntTable]:
    """The lcm d of all entry denominators, with the real and imaginary
    parts of d*rows as int tables."""
    re_parts = [[e.re.as_integer_ratio() for e in row] for row in rows]
    im_parts = [[e.im.as_integer_ratio() for e in row] for row in rows]
    d = math.lcm(*{q for parts in (re_parts, im_parts) for row in parts for _, q in row})
    re = tuple(tuple(p * (d // q) for p, q in row) for row in re_parts)
    im = tuple(tuple(p * (d // q) for p, q in row) for row in im_parts)
    return d, re, im


def _is_finite_complex(z: complex) -> bool:
    return math.isfinite(z.real) and math.isfinite(z.imag)


@dataclass(frozen=True)
class HermitianMatrix:
    """n x n Hermitian matrix with a graph pattern.

    scalar is "exact" (ExactComplex entries) or "approx" (complex entries).
    Use from_rows for validated construction.
    """

    n: int
    entries: tuple[tuple[Scalar, ...], ...]
    pattern: Graph
    scalar: str

    @property
    def is_exact(self) -> bool:
        return self.scalar == "exact"

    @cached_property
    def cleared(self) -> tuple[int, IntTable, IntTable]:
        """(d, re, im): the lcm d of the entries' denominators, with the real
        and imaginary parts of d*B as int tables. Worked out on first use and
        kept, as tuples, so that every exact question about B or about one
        of its principal submatrices shares one clearing that no caller can
        alter; d clears every principal submatrix as well."""
        if not self.is_exact:
            raise ParameterOutOfRange("cleared tables need exact entries")
        return _clear_denominators(self.entries)

    def to_numpy(self):
        import numpy as np

        if self.is_exact:
            return np.array(
                [[e.to_complex() for e in row] for row in self.entries],
                dtype=complex,
            )
        return np.array(self.entries, dtype=complex)

    @classmethod
    def from_rows(
        cls,
        rows: Sequence[Sequence],
        pattern: Graph | None = None,
        scalar: str | None = None,
    ) -> "HermitianMatrix":
        """Validated constructor; infers the pattern from the support if absent.

        Integers and Fractions coerce to exact scalars; floats and complex
        to approx. Mixed input upgrades everything to approx unless
        scalar="exact" is forced (decimal strings convert exactly).
        One sweep over the pairs i < j both checks B and reads its support,
        exact entries on their cleared tables, which the matrix keeps.
        """
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise DimensionMismatch("matrix must be square")
        if scalar is None:
            has_float = any(
                isinstance(x, (float, complex)) and not isinstance(x, bool)
                for r in rows
                for x in r
            )
            scalar = "approx" if has_float else "exact"
        if scalar not in ("exact", "approx"):
            raise ParameterOutOfRange("scalar must be 'exact' or 'approx'")
        if scalar == "exact":
            ents = tuple(
                tuple(x if isinstance(x, ExactComplex) else _exact_entry(x) for x in r) for r in rows
            )
            cleared = _clear_denominators(ents)
            support = _exact_support(cleared[1], cleared[2])
        else:
            ents = tuple(
                tuple(complex(x.to_complex() if isinstance(x, ExactComplex) else x) for x in r)
                for r in rows
            )
            for i in range(n):
                for j in range(n):
                    if not _is_finite_complex(ents[i][j]):
                        raise ParameterOutOfRange(f"entry ({i},{j}) is not finite")
            support = _approx_support(ents)
        if pattern is not None and pattern.n != n:
            raise DimensionMismatch(f"matrix order {n} vs graph order {pattern.n}")
        if support is None or (pattern is not None and support != list(pattern.edges)):
            raise PatternMismatch("matrix is not Hermitian with its support on the graph's edges")
        mat = cls(n, ents, Graph(n, support) if pattern is None else pattern, scalar)
        if scalar == "exact":
            # the support sweep read these tables; keep them for the exact
            # questions to come, as the cached_property would have
            mat.__dict__["cleared"] = cleared
        return mat


def _exact_entry(x) -> ExactComplex:
    if isinstance(x, complex):
        raise ParameterOutOfRange("complex floats cannot be coerced to exact entries")
    return ExactComplex(_frac(x), 0)


def _exact_support(re: IntTable, im: IntTable) -> list[tuple[int, int]] | None:
    """The off-diagonal support {(i, j): i < j} of an exact matrix B, read
    off the cleared Gaussian integer tables of d*B (HermitianMatrix.cleared),
    which every exact question about B reads anyway; None unless B is
    Hermitian with a real diagonal. d > 0, so d*B has B's support, and it is
    Hermitian with a real diagonal exactly when B is; the pairs are compared
    as ints, without building a conjugate."""
    support = []
    for i, (row_re, row_im) in enumerate(zip(re, im)):
        if row_im[i]:
            return None
        for j in range(i + 1, len(re)):
            xr, xi = row_re[j], row_im[j]
            if xr != re[j][i] or xi != -im[j][i]:
                return None
            if xr or xi:
                support.append((i, j))
    return support


def _approx_support(ents: Sequence[Sequence[complex]]) -> list[tuple[int, int]] | None:
    """_exact_support for floating entries: Hermitian and real on the
    diagonal to within _APPROX_HERMITIAN_TOL, support read off the upper
    triangle."""
    support = []
    for i, row in enumerate(ents):
        if abs(row[i].imag) > _APPROX_HERMITIAN_TOL:
            return None
        for j in range(i + 1, len(ents)):
            x = row[j]
            if abs(x - ents[j][i].conjugate()) > _APPROX_HERMITIAN_TOL:
                return None
            if x != 0:
                support.append((i, j))
    return support


def validate_pattern(b: HermitianMatrix, g: Graph) -> bool:
    """True iff b is Hermitian, has a real diagonal, and its off-diagonal
    support is exactly the edge set of g."""
    if b.n != g.n:
        raise DimensionMismatch(f"matrix order {b.n} vs graph order {g.n}")
    support = _exact_support(*b.cleared[1:]) if b.is_exact else _approx_support(b.entries)
    return support == list(g.edges)


def adjacency_matrix(g: Graph, scalar: str = "exact") -> HermitianMatrix:
    """0/1 symmetric matrix of the graph with zero diagonal. Its entries come
    from one 0/1 int table filled from the edge list, and an exact matrix
    keeps that table as its cleared tables (1, table, zeros)."""
    if scalar == "exact":
        pick: tuple[Scalar, Scalar] = (EC_ZERO, EC_ONE)
    elif scalar == "approx":
        pick = (complex(0), complex(1))
    else:
        raise ParameterOutOfRange("scalar must be 'exact' or 'approx'")
    n = g.n
    table = [[0] * n for _ in range(n)]
    for u, v in g.edges:
        table[u][v] = table[v][u] = 1
    rows = tuple(map(tuple, table))
    mat = HermitianMatrix(n, tuple(tuple(map(pick.__getitem__, row)) for row in rows), g, scalar)
    if scalar == "exact":
        mat.__dict__["cleared"] = (1, rows, ((0,) * n,) * n)
    return mat


@dataclass(frozen=True)
class GainGraph:
    """Unit-modulus edge weights; the reverse orientation is the conjugate.

    gains holds one value per stored edge (u, v) with u < v, in the edge
    order of the base graph. Typical exact values are 1, -1, i, -i.
    """

    base: Graph
    gains: tuple[Scalar, ...]

    def gain(self, u: int, v: int) -> Scalar:
        flip = u > v
        if flip:
            u, v = v, u
        try:
            idx = self.base.edges.index((u, v))
        except ValueError:
            raise IndexOutOfRange(f"({u}, {v}) is not an edge") from None
        val = self.gains[idx]
        if flip:
            return val.conjugate()
        return val


def gain_graph(base: Graph, assignments) -> GainGraph:
    """Build a gain graph from {edge: unit value} (missing edges get gain 1).

    Exact values must have squared modulus exactly 1; floating values
    within 1e-12 of modulus 1.
    """
    table = {}
    for e, val in dict(assignments).items():
        u, v = int(e[0]), int(e[1])
        flip = u > v
        if flip:
            u, v = v, u
        if not base.has_edge(u, v):
            raise IndexOutOfRange(f"({u}, {v}) is not an edge")
        if isinstance(val, (int, Fraction)):
            val = ExactComplex(val, 0)
        if flip:
            val = val.conjugate() if isinstance(val, ExactComplex) else complex(val).conjugate()
        table[(u, v)] = val
    gains = []
    for e in base.edges:
        val = table.get(e, EC_ONE)
        if isinstance(val, ExactComplex):
            if val.norm2() != 1:
                raise ParameterOutOfRange(f"gain on {e} has squared modulus {val.norm2()}, not 1")
        else:
            val = complex(val)
            if abs(abs(val) - 1.0) > _APPROX_HERMITIAN_TOL:
                raise ParameterOutOfRange(f"gain on {e} has modulus {abs(val)}, not 1")
        gains.append(val)
    return GainGraph(base, tuple(gains))


@dataclass(frozen=True)
class CycleGain:
    """Product of gains around a fixed cycle orientation; unit modulus."""

    value: Scalar


def cycle_gain(phi: GainGraph) -> CycleGain:
    """Gain of the cycle, taken around the orientation starting at vertex 0."""
    if not is_cycle_graph(phi.base):
        raise NotACycle("gain product needs a cycle base graph")
    order = cycle_order(phi.base)
    total: Scalar = EC_ONE
    exact = all(isinstance(x, ExactComplex) for x in phi.gains)
    if not exact:
        total = complex(1)
    for k in range(len(order)):
        u, v = order[k], order[(k + 1) % len(order)]
        gval = phi.gain(u, v)
        if not exact and isinstance(gval, ExactComplex):
            gval = gval.to_complex()
        total = total * gval
    return CycleGain(total)


def a_alpha_gain(phi: GainGraph, alpha, scalar: str = "approx") -> HermitianMatrix:
    """alpha * (degree diagonal) + (1 - alpha) * gain adjacency.

    The default floating build accepts any real alpha in [0, 1); the exact
    build needs a rational alpha and exact gains.
    """
    alpha_f = float(alpha)
    if not (0 <= alpha_f < 1):
        raise AlphaOutOfRange(f"alpha must lie in [0, 1), got {alpha}")
    g = phi.base
    if scalar == "exact":
        a = _frac(alpha) if not isinstance(alpha, float) else Fraction(alpha)
        rows = []
        for i in range(g.n):
            row: list[Scalar] = []
            for j in range(g.n):
                if i == j:
                    row.append(ExactComplex(a * g.degree(i), 0))
                elif g.has_edge(i, j):
                    gv = phi.gain(i, j)
                    if not isinstance(gv, ExactComplex):
                        raise ParameterOutOfRange("exact build needs exact gains")
                    row.append(ExactComplex(1 - a, 0) * gv)
                else:
                    row.append(EC_ZERO)
            rows.append(tuple(row))
        return HermitianMatrix(g.n, tuple(rows), g, "exact")
    if scalar != "approx":
        raise ParameterOutOfRange("scalar must be 'exact' or 'approx'")
    rows_c = []
    for i in range(g.n):
        row_c: list[complex] = []
        for j in range(g.n):
            if i == j:
                row_c.append(complex(alpha_f * g.degree(i)))
            elif g.has_edge(i, j):
                gv = phi.gain(i, j)
                gc = gv.to_complex() if isinstance(gv, ExactComplex) else complex(gv)
                row_c.append((1.0 - alpha_f) * gc)
            else:
                row_c.append(complex(0))
        rows_c.append(tuple(row_c))
    return HermitianMatrix(g.n, tuple(rows_c), g, "approx")


# ranges for random_in_S: numerators of each part, denominators, diagonal
_RANDOM_NUM = (-10, 10)
_RANDOM_DEN_HI = 4
_RANDOM_DIAG = (-10, 10)


def random_in_S(g: Graph, seed: int) -> HermitianMatrix:
    """Deterministic random exact Hermitian matrix with pattern g.

    Every edge weight is a nonzero Gaussian rational (zero draws are
    resampled); the diagonal is real rational.
    """
    rng = random.Random(seed)

    def draw_frac(lo: int, hi: int) -> Fraction:
        return Fraction(rng.randint(lo, hi), rng.randint(1, _RANDOM_DEN_HI))

    ents: list[list[Scalar]] = [[EC_ZERO] * g.n for _ in range(g.n)]
    for i in range(g.n):
        ents[i][i] = ExactComplex(draw_frac(*_RANDOM_DIAG), 0)
    for u, v in g.edges:
        while True:
            w = ExactComplex(draw_frac(*_RANDOM_NUM), draw_frac(*_RANDOM_NUM))
            if not w.is_zero():
                break
        ents[u][v] = w
        ents[v][u] = w.conjugate()
    return HermitianMatrix(g.n, tuple(tuple(r) for r in ents), g, "exact")


def principal_submatrix(b: HermitianMatrix, keep: Iterable[int]) -> tuple[HermitianMatrix, SubgraphMap]:
    """Rows and columns restricted to keep, aligned with the induced subgraph."""
    sub = induced_subgraph(b.pattern, keep)
    ids = sub.to_parent
    rows = tuple(tuple(b.entries[i][j] for j in ids) for i in ids)
    return HermitianMatrix(len(ids), rows, sub.child, b.scalar), sub


# ---------------------------------------------------------------------------
# Matrix file format


def _format_entry(x: Scalar) -> str:
    if isinstance(x, ExactComplex):
        return str(x)
    z = complex(x)
    if z.imag == 0:
        return repr(z.real)
    sign = "+" if z.imag > 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r} i"


def serialize_matrix(b: HermitianMatrix) -> str:
    lines = [str(b.n)]
    for row in b.entries:
        lines.append(" ".join(_format_entry(x) for x in row))
    return "\n".join(lines) + "\n"


def _split_real_imag(tok: str, line_no: int) -> tuple[str, str | None]:
    has_i = tok.endswith("i")
    if has_i:
        tok = tok[:-1]
    # split at the last sign after the first character, skipping an exponent's sign
    split_at, end = -1, len(tok)
    while (k := max(tok.rfind("+", 1, end), tok.rfind("-", 1, end))) > 0:
        if tok[k - 1] not in "eE":
            split_at = k
            break
        end = k
    if has_i:
        if split_at < 0:
            return "0", tok or "1"
        return tok[:split_at], tok[split_at:]
    if split_at >= 0:
        raise ParseError(line_no, f"real entry {tok!r} has an embedded sign")
    return tok, None


def _parse_part(text: str, line_no: int):
    """One real coefficient: Fraction for p/q or integers, float for decimals.

    p and q are read by int(), which takes what Fraction(str) takes for
    them (a sign on p only, underscores between digits, any Unicode decimal
    digit), and the pair is reduced as Fraction(p, q)."""
    if text in ("+", "-"):
        text += "1"
    try:
        if "." in text or "e" in text or "E" in text:
            return float(text)
        num, slash, den = text.partition("/")
        if not slash:
            return Fraction(int(num))
        if den.startswith(("+", "-")):
            raise ValueError(text)
        return Fraction(int(num), int(den))
    except (ValueError, ZeroDivisionError):
        raise ParseError(line_no, f"bad numeric literal {text!r}") from None


_F0 = Fraction(0)


def _parse_token(tok: str, line_no: int) -> tuple:
    """(re, im) of one entry token, its imaginary "i" already glued on."""
    re_s, im_s = _split_real_imag(tok, line_no)
    return _parse_part(re_s, line_no), _parse_part(im_s, line_no) if im_s is not None else _F0


def _exact_decimals(parsed: dict[str, tuple], rows: list[list[str]]) -> dict[str, tuple]:
    """parsed with every decimal read as the exact value of its float's
    shortest repr ("0.1" is 1/10); a decimal that overflowed the float is
    refused at the first entry, row by row, that holds it."""
    overflowed = {
        tok
        for tok, pair in parsed.items()
        if any(isinstance(x, float) and not math.isfinite(x) for x in pair)
    }
    if overflowed:
        i, j = next(
            (i, j) for i, row in enumerate(rows) for j, tok in enumerate(row) if tok in overflowed
        )
        raise ParameterOutOfRange(f"entry ({i},{j}) is not finite")
    return {
        tok: tuple(Fraction(repr(x)) if isinstance(x, float) else x for x in pair)
        for tok, pair in parsed.items()
    }


def _float_part(x) -> float:
    """float(x); a rational too large for a float reads as infinite, so that
    from_rows refuses its first entry as not finite, as it does "1e400"."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def parse_matrix(text: str, scalar: str | None = None) -> HermitianMatrix:
    """Parse the matrix file format; detects exact vs floating entries.

    scalar="exact" converts decimal literals to exact rationals;
    scalar="approx" lowers everything to floating complex.

    One pass: each distinct token is parsed once, at its first occurrence
    (so a bad token is reported on the first line it appears on), and every
    occurrence shares one entry object.
    """
    lines = [
        (no, ln)
        for no, raw in enumerate(text.splitlines(), start=1)
        if (ln := raw.strip()) and not ln.startswith("#")
    ]
    if not lines:
        raise ParseError(0, "empty matrix file")
    head_no, head = lines[0]
    try:
        n = int(head)
    except ValueError:
        raise ParseError(head_no, "first line must be the matrix order") from None
    if n < 0:
        raise ParseError(head_no, "matrix order must be nonnegative")
    if len(lines) - 1 != n:
        raise ParseError(head_no, f"expected {n} rows, found {len(lines) - 1}")
    parsed: dict[str, tuple] = {}  # token -> (re, im)
    rows = []
    for no, ln in lines[1:]:
        row = ln.split()
        if "i" in row:  # a lone "i" attaches to the entry before it
            merged: list[str] = []
            for tok in row:
                if tok == "i" and merged:
                    merged[-1] += "i"
                else:
                    merged.append(tok)
            row = merged
        if len(row) != n:
            raise ParseError(no, f"expected {n} entries, found {len(row)}")
        for tok in dict.fromkeys(row):
            if tok not in parsed:
                parsed[tok] = _parse_token(tok, no)
        rows.append(row)
    saw_float = any(isinstance(x, float) for pair in parsed.values() for x in pair)
    if scalar is None:
        scalar = "approx" if saw_float else "exact"
    if scalar == "exact":
        if saw_float:
            parsed = _exact_decimals(parsed, rows)
        entry = {tok: ExactComplex(re, im) for tok, (re, im) in parsed.items()}
    else:
        entry = {tok: complex(_float_part(re), _float_part(im)) for tok, (re, im) in parsed.items()}
    return HermitianMatrix.from_rows(
        [tuple(map(entry.__getitem__, row)) for row in rows], scalar=scalar
    )
