"""Eigenvalue multiplicity machinery.

One dispatch answers "how often is lambda an eigenvalue of this principal
submatrix of B?": multiplicity() asks it for B itself,
submatrix_multiplicity() for the principal submatrix on a vertex set, and
a piece "carries lambda" when that multiplicity is at least 1.

Exact route: an exact HermitianMatrix clears its denominators once, on
first use, to Gaussian integer tables d*B (HermitianMatrix.cleared), and
every exact question about B or its principal submatrices reads them; the
slice of d*B on a vertex set is d times the submatrix, so no submatrix is
built. The multiplicity of a rational eigenvalue lambda = p/q is
n - rank(B - lambda*I), the rank taken by elimination over F_p, i standing
for a square root of -1 mod p (_rank_mod). The first pass reads the slice
of d*B mod p0, the largest prime p = 1 (mod 4) below 2**26, as residues
(re + s0*im) mod p0, less p*d/q mod p0 on the diagonal alone: for q a unit
mod p0 they are q^-1 times q*(d*B) - p*d*I, so they have its rank mod p0.
A full rank there is the rank, and no integer table is built. A deficient
one (or p0 | q) builds the shift in Z as q*(d*B) - p*d*I, and further
primes, proven by Miller-Rabin to the bases 2..41, certify its rank until
their product exceeds Hadamard's bound on the next larger minors.

An algebraic eigenvalue is named without factoring, by a squarefree
integer polynomial f (its minimal polynomial, or a squarefree part of a
characteristic polynomial) and an isolating interval (lo, hi) that holds
its one root of f; the interval is certified by exact signs of f at
rational points (_isolate). It goes through the one integer characteristic
polynomial route, Faddeev-LeVerrier on d*B (or on the slice), and its
multiplicity in that charpoly q is the number of rounds q <- q / gcd(q, f)
in which the gcd changes sign on (lo, hi) (_gcd_rounds), for the
polynomial and interval of d*lambda. The recursion runs multimodularly:
over F_p for as many primes p = 1 (mod 4) below 2**26 as a proven
coefficient bound needs, i standing for a square root of -1 mod p, each
step one batched int64 numpy product over all the primes; Garner's CRT
lifts the residues to the exact integers, and three identities (the two
top coefficients from the entries, and Jacobi's formula for the deleted
charpolys) are asserted on the result. deletion_multiplicities reads the
charpolys of every B - v off the same run and counts the same rounds, a
rational r = p/q taking its linear polynomial q*x - p on (r - 1, r + 1).
Memos hold pure functions of exact inputs: the charpoly (with the
vertex-deleted charpolys) of a cleared table, the isolating intervals of
a polynomial, the round gcds of a charpoly against a polynomial, which all
its roots share, and the rounds at one root, which the graphs with equal
charpolys share. hermitian.validate_pattern checks exact
matrices on the cleared tables as well.

Numeric route: Hermitian eigendecomposition with a residual bound of
10 * n * eps * ||B||  (c = 10; ||B|| is the spectral norm read off the
computed spectrum). Cluster counting refuses to guess: if an excluded
eigenvalue sits within 2*tol of the included cluster the call raises
instead of returning a number.

Polynomials are integer coefficient tuples, lowest degree first, handled by
one set of Z[x] helpers (_int_primitive, _int_prem, _int_gcd_poly,
_int_div_exact, _int_derivative, _int_sub, _sign_at); none holds a Fraction.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Optional, Sequence, Union

import numpy as np

from .errors import AmbiguousCluster, ConvergenceFailure, IndexOutOfRange, ParameterOutOfRange
from .hermitian import HermitianMatrix, IntTable, _clear_denominators, principal_submatrix

# ---------------------------------------------------------------------------
# Polynomials (coefficient tuples, lowest degree first)


def _trim(coeffs: Sequence) -> tuple:
    k = len(coeffs)
    while k > 0 and coeffs[k - 1] == 0:
        k -= 1
    return tuple(coeffs[:k])


def _real_roots(coeffs: Sequence[int]) -> list[float]:
    """Real roots of an integer polynomial as floats, ascending.

    Roots whose computed imaginary part reaches 1e-9 are dropped as
    non-real; callers that know every root is real must check the count.
    """
    arr = np.roots(list(reversed(coeffs)))
    return sorted(float(r.real) for r in arr if abs(complex(r).imag) < 1e-9)


# Integer polynomial arithmetic in Z[x]: primitive pseudo-remainder gcds
# keep every coefficient an integer, with no Fraction and no sympy.


def _int_primitive(c: list) -> tuple:
    """The primitive part of c, leading coefficient positive (c is consumed)."""
    while c and c[-1] == 0:
        c.pop()
    if not c:
        return ()
    g = 0
    for x in c:
        if x:
            g = math.gcd(g, x)
    if c[-1] < 0:
        g = -g
    return tuple(x // g for x in c)


def _int_prem(a, b) -> list:
    """A positive multiple of the remainder of a mod b, in Z[x]: each step
    scales by |lead(b)|, so the sign survives (Sturm chains need it)."""
    db = len(b) - 1
    lb = b[-1]
    scale = abs(lb)
    r = list(a)
    while len(r) - 1 >= db and r:
        t = r[-1]
        if t == 0:
            r.pop()
            continue
        k = len(r) - 1 - db
        if scale != 1:
            r = [scale * x for x in r]
        if lb < 0:
            t = -t
        for j in range(db + 1):
            r[k + j] -= t * b[j]
        r.pop()
    while r and r[-1] == 0:
        r.pop()
    return r


def _int_gcd_poly(a, b) -> tuple:
    """The primitive gcd of a and b in Z[x], leading coefficient positive."""
    a = _int_primitive(list(a))
    b = _int_primitive(list(b))
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _int_prem(a, b)
        a, b = b, _int_primitive(r)
    return tuple(a)


def _int_div_exact(a, b) -> tuple:
    """a / b in Z[x], which must divide exactly (AssertionError otherwise)."""
    out = [0] * (len(a) - len(b) + 1)
    r = list(a)
    lb = b[-1]
    db = len(b) - 1
    for k in range(len(a) - len(b), -1, -1):
        t = r[k + db]
        q = t // lb
        if q * lb != t:
            raise AssertionError("inexact integer polynomial division")
        out[k] = q
        if q:
            for j in range(db + 1):
                r[k + j] -= q * b[j]
    if any(r):
        raise AssertionError("nonzero remainder in exact division")
    return tuple(out)


def _int_derivative(a) -> tuple:
    return tuple(j * a[j] for j in range(1, len(a)))


def _int_sub(a, b) -> list:
    """a - b in Z[x], trailing zeros trimmed."""
    out = [*a, *[0] * (len(b) - len(a))]
    for j, c in enumerate(b):
        out[j] -= c
    while out and out[-1] == 0:
        out.pop()
    return out


# ---------------------------------------------------------------------------
# Certified real roots: an isolating interval per root
#
# A real root of a squarefree integer polynomial f is named exactly by f
# and an interval (lo, hi), with rational ends where f does not vanish, that
# holds no other root of f. Every question about the root is then a sign
# question: a divisor g of f vanishes at it exactly when g changes sign on
# (lo, hi), since g has at most that one root there.


def _sign_at(coeffs: Sequence[int], a: int, b: int = 1) -> int:
    """The sign of the integer polynomial at the rational a/b, b > 0,
    exactly: the homogeneous Horner sum of c_j a^j b^(k-j) is b^k f(a/b)."""
    acc, power = 0, 1
    for c in reversed(coeffs):
        acc = acc * a + c * power
        power *= b
    return (acc > 0) - (acc < 0)


def _root_bound(coeffs: Sequence[int]) -> Fraction:
    """A power of two B with every complex root of the polynomial inside
    |z| < B (Cauchy: |z| < 1 + max |c_j / c_k|)."""
    top = max(abs(c) for c in coeffs[:-1]) if len(coeffs) > 1 else 0
    return Fraction(1 << max(top.bit_length() - abs(coeffs[-1]).bit_length() + 2, 1))


def _sturm_chain(coeffs: tuple) -> list[tuple]:
    """Sturm's sequence f, f', -rem(f, f'), ... with each member a positive
    multiple of the textbook one, so the signs are Sturm's. The last member
    is gcd(f, f') up to a constant: of degree 0 exactly when f is
    squarefree."""
    chain = [tuple(coeffs), _int_derivative(coeffs)]
    while len(chain[-1]) > 1:
        r = _int_prem(chain[-2], chain[-1])
        if not r:
            break
        g = math.gcd(*r)
        chain.append(tuple(-x // g for x in r))
    return chain


def _variations(chain: Sequence[tuple], x: Fraction) -> int:
    """Sign changes along the Sturm chain at x. For a and b no roots of f,
    V(a) - V(b) counts the roots of f in (a, b) (Sturm's theorem)."""
    signs = [s for s in (_sign_at(p, *x.as_integer_ratio()) for p in chain) if s]
    return sum(s != t for s, t in zip(signs, signs[1:]))


@lru_cache(maxsize=4096)
def _isolate(coeffs: tuple, count: int) -> tuple[tuple[float, Fraction, Fraction], ...]:
    """(approx, lo, hi) for each real root of the squarefree integer
    polynomial f with these coefficients, ascending, given that f has
    exactly count distinct real roots. Each (lo, hi) holds exactly one root,
    and the intervals partition (-B, B) of _root_bound. Memoised by
    coefficients, so a part is isolated once.

    The certificate: take the count float roots of _real_roots and the
    dyadic midpoints between neighbours, and evaluate the sign of f at each
    midpoint exactly. The sign at -infinity is (-1)^k sign(lead) and at
    +infinity sign(lead), k = deg f. If the signs alternate across all
    count + 1 points, every one of the count intervals holds an odd number
    of roots, so each holds exactly one. Otherwise (a lost, moved or
    complex-looking root) the roots are isolated by bisection with Sturm
    counts, which need no float at all; AssertionError when f does not have
    count real roots after all.
    """
    if count == 0:
        return ()
    k = len(coeffs) - 1
    bound = _root_bound(coeffs)
    lead = 1 if coeffs[-1] > 0 else -1
    floats = _real_roots(coeffs)
    if len(floats) == count:
        cuts = [(Fraction(a) + Fraction(b)) / 2 for a, b in zip(floats, floats[1:])]
        signs = [-lead if k % 2 else lead, *(_sign_at(coeffs, *c.as_integer_ratio()) for c in cuts), lead]
        if all(s * t < 0 for s, t in zip(signs, signs[1:])):
            edges = [-bound, *cuts, bound]
            return tuple(zip(floats, edges, edges[1:]))
    return _isolate_by_bisection(coeffs, count, bound, floats)


def _isolate_by_bisection(coeffs: tuple, count: int, bound: Fraction, floats: list[float]) -> tuple:
    """_isolate's refinement: halve (-B, B) until Sturm's theorem counts one
    root in each piece, a split point never being a root. The float of a
    root is a given float inside its piece, or else the piece halved by
    signs down to float resolution."""
    chain = _sturm_chain(coeffs)
    pieces = []
    stack = [(-bound, _variations(chain, -bound), bound, _variations(chain, bound))]
    if stack[0][1] - stack[0][3] != count:
        raise AssertionError(
            f"{IntPolynomial(coeffs)} has {stack[0][1] - stack[0][3]} real roots, expected {count}"
        )
    while stack:
        a, va, b, vb = stack.pop()
        if va - vb == 1:
            pieces.append((a, b))
        elif va - vb > 1:
            m = (a + b) / 2
            while _sign_at(coeffs, *m.as_integer_ratio()) == 0:
                m = (m + b) / 2
            vm = _variations(chain, m)
            stack += [(m, vm, b, vb), (a, va, m, vm)]
    pieces.sort()
    out = []
    for i, (a, b) in enumerate(pieces):
        approx = next((x for x in floats if a < x < b), None)
        if approx is None:
            lo, hi, s_lo = a, b, _sign_at(coeffs, *a.as_integer_ratio())
            while float(lo) != float(hi):
                m = (lo + hi) / 2
                s = _sign_at(coeffs, *m.as_integer_ratio())
                if s == 0:
                    lo = hi = m
                elif s == s_lo:
                    lo = m
                else:
                    hi = m
            approx = float(lo)
        # the cells meet at the lower end of each next piece, where f is
        # nonzero and which lies above this piece's root
        cell_hi = pieces[i + 1][0] if i + 1 < len(pieces) else bound
        out.append((approx, -bound if i == 0 else a, cell_hi))
    return tuple(out)


@lru_cache(maxsize=1024)
def _squarefree_chain(poly: "IntPolynomial") -> tuple[tuple, ...]:
    """The Sturm chain of a polynomial that enters as a public
    AlgebraicEigenvalue; ParameterOutOfRange unless it is nonconstant and
    squarefree. Memoised: it is checked once per polynomial."""
    if poly.degree < 1:
        raise ParameterOutOfRange("minimal polynomial must be nonconstant")
    chain = _sturm_chain(poly.coeffs)
    if len(chain[-1]) > 1:
        raise ParameterOutOfRange(f"{poly} is not squarefree: it shares a factor with its derivative")
    return tuple(chain)


@dataclass(frozen=True)
class IntPolynomial:
    """Integer-coefficient polynomial, lowest degree first, no trailing zeros."""

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Sequence):
        cs = _trim([int(c) for c in coeffs])
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                term = str(mag)
            else:
                xs = "x" if k == 1 else f"x^{k}"
                term = xs if mag == 1 else f"{mag}{xs}"
            parts.append(("-" if c < 0 else "+", term))
        sign0, t0 = parts[0]
        out = ("-" if sign0 == "-" else "") + t0
        for sign, t in parts[1:]:
            out += f" {sign} {t}"
        return out


# ---------------------------------------------------------------------------
# Cyclotomic polynomials and minimal polynomials of 2cos(2k*pi/n)


@lru_cache(maxsize=None)
def cyclotomic(m: int) -> tuple[int, ...]:
    """Coefficients of the m-th cyclotomic polynomial, lowest degree first."""
    if m < 1:
        raise ParameterOutOfRange("cyclotomic index must be >= 1")
    p = (-1, *[0] * (m - 1), 1)
    for d in range(1, m):
        if m % d == 0:
            p = _int_div_exact(p, cyclotomic(d))
    return p


def min_poly_2cos(n: int, k: int) -> IntPolynomial:
    """Monic integer minimal polynomial of 2cos(2k*pi/n).

    Valid for n >= 3 and 1 <= k <= ceil(n/2) - 1, which keeps the angle
    strictly inside (0, pi).
    """
    if n < 3:
        raise ParameterOutOfRange(f"need n >= 3, got {n}")
    if not (1 <= k <= (n + 1) // 2 - 1):
        raise ParameterOutOfRange(f"k={k} outside 1..{(n + 1) // 2 - 1} for n={n}")
    m = n // math.gcd(n, k)
    phi = cyclotomic(m)
    d2 = len(phi) - 1
    if d2 % 2 != 0:
        raise AssertionError("cyclotomic degree must be even for m >= 3")
    big_d = d2 // 2
    # strip psi out of  z^D * psi(z + 1/z) = Phi_m(z), top degree down:
    # the term c*z^(D-j)*(z^2 + 1)^j of psi's z^j has its top at z^(D+j)
    residue = list(phi)
    psi = [0] * (big_d + 1)
    for j in range(big_d, -1, -1):
        c = psi[j] = residue[big_d + j]
        if c:
            for i in range(j + 1):
                residue[big_d - j + 2 * i] -= c * math.comb(j, i)
    if any(residue):
        raise AssertionError("coefficient matching left a nonzero residue")
    return IntPolynomial(psi)


def scale_minpoly(mu: IntPolynomial, scale, shift=0) -> IntPolynomial:
    """The primitive minimal polynomial of shift + scale*x, given the one,
    mu, of x (scale a nonzero rational, shift a rational); mu itself when
    shift is 0 and scale 1."""
    if shift == 0 and scale == 1:
        return mu
    a, b = Fraction(scale).as_integer_ratio()
    s, t = Fraction(shift).as_integer_ratio()
    deg = mu.degree
    # (a*t)^deg * mu(b*(t*y - s)/(a*t)) in Z[y], a positive multiple of
    # scale^deg * mu((y - shift)/scale): the term of c_j is
    # c_j (a*t)^(deg-j) b^j (t*y - s)^j
    acc = [0] * (deg + 1)
    for j, c in enumerate(mu.coeffs):
        w = c * (a * t) ** (deg - j) * b**j
        for k in range(j + 1):
            acc[k] += w * math.comb(j, k) * t**k * (-s) ** (j - k)
    return IntPolynomial(_int_primitive(acc))


@lru_cache(maxsize=4096)
def _gcd_chain(q: tuple, f: tuple) -> tuple[tuple, ...]:
    """The gcds of the rounds q <- q / gcd(q, f), while they are not
    constant: g_1 = gcd(q, f) and g_(i+1) = gcd(q / (g_1 ... g_i), g_i),
    which is gcd(q / (g_1 ... g_i), f) since each g_i divides f. A root of
    the squarefree f of multiplicity m in q is a root of g_1, ..., g_m and
    of no later one. A pure function of integer tuples, memoised: every
    root of f shares it, and so do the graphs with equal charpolys."""
    chain = []
    g = f
    while len(q) > 1:
        g = _int_gcd_poly(q, g)
        if len(g) == 1:
            break
        chain.append(g)
        q = _int_div_exact(q, g)
    return tuple(chain)


@lru_cache(maxsize=4096)
def _gcd_rounds(q: tuple, f: tuple, lo: tuple[int, int], hi: tuple[int, int]) -> int:
    """Multiplicity in the integer polynomial q of the one root of the
    squarefree integer polynomial f in (lo, hi), whose ends, given as
    integer pairs (a, b) for a/b with b > 0, are no roots of f: the number
    of rounds of _gcd_chain whose gcd changes sign on (lo, hi). Each gcd
    divides f, so it has at most that one root there, and a simple one,
    which it has exactly when it changes sign. For an irreducible f this is
    the number of times f divides q.

    Memoised as well, since the sweep asks the same question of the same
    slice charpoly many times. The ends are integer pairs, not Fractions,
    because the memo hashes its key on every call.
    """
    count = 0
    for g in _gcd_chain(q, f):
        if _sign_at(g, *lo) == _sign_at(g, *hi):
            break
        count += 1
    return count


# ---------------------------------------------------------------------------
# Exact characteristic polynomial (multimodular Faddeev-LeVerrier)

_MODULUS_BITS = 26  # every prime is below 2**26, so (n + 1)*(p - 1)**2 < 2**63 while n <= 2047
_MAX_ORDER = 2047
_CERT_BITS = 81  # the rank's certifying primes are below 2**81, where _is_prime is a proof

# Miller-Rabin to the thirteen prime bases 2..41 is a proof of primality
# below 3,317,044,064,679,887,385,961,981 (J. Sorenson and J. Webster,
# "Strong pseudoprimes to twelve prime bases", Math. Comp. 86 (2017)
# 985-1003), and 2**81 lies below that
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Is n > 1 prime? Exact for n below 3.3e24 (see _MR_BASES)."""
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    r = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^r * d, d odd
    d = (n - 1) >> r
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _root_of_minus_one(p: int) -> int:
    """A square root of -1 mod the prime p = 1 (mod 4), which exists because
    4 divides p - 1: a^((p-1)/4) for the least quadratic non-residue a."""
    a = 2
    while pow(a, (p - 1) // 2, p) != p - 1:
        a += 1
    return pow(a, (p - 1) // 4, p)


class _PrimeTable:
    """The primes p = 1 (mod 4) below 2**bits, descending, each paired with
    a square root s of -1 mod p. One list grows in place: entry i is derived
    when it is first read and kept for every later reader, and s*s = -1
    (mod p) is asserted as each entry goes in."""

    def __init__(self, bits: int):
        self.entries: list[tuple[int, int]] = []
        self._candidates = iter(range((1 << bits) - 3, 1, -4))

    def __getitem__(self, i: int) -> tuple[int, int]:
        while len(self.entries) <= i:
            p = next(self._candidates)
            if _is_prime(p):
                s = _root_of_minus_one(p)
                if s * s % p != p - 1:
                    raise AssertionError(f"{s} is not a square root of -1 mod {p}")
                self.entries.append((p, s))
        return self.entries[i]


_SMALL_PRIMES = _PrimeTable(_MODULUS_BITS)
_CERT_PRIMES = _PrimeTable(_CERT_BITS)


def _prime_table(count: int) -> list[tuple[int, int]]:
    """The count largest primes p = 1 (mod 4) below 2**26, descending, each
    with a square root of -1 mod p."""
    return [_SMALL_PRIMES[i] for i in range(count)]


@dataclass(frozen=True)
class _Moduli:
    """The tables one kernel run over count primes at order n reads: the
    primes and roots of -1 shaped to broadcast over (count, n, n) stacks,
    -1/k mod p for k = 1..n, Garner's inverses, and the product of the
    primes."""

    primes: tuple[int, ...]
    p3: object  # (count, 1, 1) int64
    s3: object  # (count, 1, 1) int64
    neg_inv: object  # (n + 1, count, 1) int64: -1/k mod p at [k]
    garner: tuple[int, ...]  # 1/(p_0 ... p_(i-1)) mod p_i for i >= 1
    modulus: int


@lru_cache(maxsize=256)
def _moduli(count: int, n: int) -> _Moduli:
    primes, roots = zip(*_prime_table(count))
    col = np.array(primes, dtype=np.int64).reshape(count, 1, 1)
    roots = np.array(roots, dtype=np.int64).reshape(count, 1, 1)
    neg_inv = np.zeros((n + 1, count, 1), dtype=np.int64)
    for k in range(1, n + 1):
        neg_inv[k, :, 0] = [-pow(k, -1, p) % p for p in primes]
    garner = tuple(pow(math.prod(primes[:i]), -1, primes[i]) for i in range(1, count))
    return _Moduli(primes, col, roots, neg_inv, garner, math.prod(primes))


def _moduli_beyond(bound: int, n: int) -> _Moduli:
    """The tables for the fewest primes whose product exceeds bound. Each
    prime is below 2**26, so the search starts at the least count whose
    product could."""
    count = (bound.bit_length() - 1) // _MODULUS_BITS + 1
    while _moduli(count, n).modulus <= bound:
        count += 1
    return _moduli(count, n)


def _garner_lift(res, mod: _Moduli) -> list[int]:
    """The integers in the symmetric range (-M/2, M/2), M the product of the
    primes, with residues res[i] mod primes[i] (Garner's mixed-radix CRT;
    J. von zur Gathen and J. Gerhard, Modern Computer Algebra, ch. 5).

    The mixed-radix digits are worked out in int64, where every product is
    of two numbers below 2**26; only a number of three or more digits is
    assembled from Python ints.
    """
    primes = mod.primes
    digits = [res[0]]
    for i in range(1, len(primes)):
        p = primes[i]
        t = digits[-1] % p
        for j in range(i - 2, -1, -1):
            t = (t * primes[j] + digits[j]) % p
        digits.append((res[i] - t) * mod.garner[i - 1] % p)
    acc = digits[-1] if len(primes) <= 2 else digits[-1].astype(object)
    for j in range(len(primes) - 2, -1, -1):
        acc = acc * primes[j] + digits[j]
    return np.where(acc > mod.modulus // 2, acc - mod.modulus, acc).tolist()


def _faddeev_leverrier(
    cre: Sequence[Sequence[int]], cim: Sequence[Sequence[int]]
) -> tuple[IntPolynomial, tuple[tuple[int, ...], ...]]:
    """Integer charpoly of the Gaussian integer matrix C = cre + i*cim, with
    the coefficients (lowest degree first) of det(xI - C_v) for every v,
    where C_v deletes row and column v.

    The iterates M_0 = I, M_k = C M_(k-1) + c_(n-k) I, c_(n-k) =
    -tr(C M_(k-1))/k, are the coefficients of adj(xI - C) = sum_k M_k
    x^(n-1-k), and the (v, v) entry of the adjugate is det(xI - C_v)
    (C. D. Godsil, Algebraic Combinatorics, 1993), so the deleted
    polynomials cost no product beyond the charpoly's own.

    The recursion runs over F_p for several primes p = 1 (mod 4) below
    2**26 at once, where i is a square root s of -1 mod p and C is the one
    matrix cre + s*cim: each step is one batched int64 product of the
    (primes, n, n) stack, reduced mod p. Entries stay below p, the
    iterate's diagonal below 2p, so an entry of a product sums to less than
    (n + 1)(p - 1)^2 and cannot overflow int64 while n <= 2047; a larger
    order raises ParameterOutOfRange.

    The residues are lifted exactly. A coefficient of det(xI - X), X
    Hermitian of order m, is +-e_k of its real eigenvalues mu, and
    |e_k(mu)| <= e_k(|mu|) <= C(m, k) (sum |mu|/m)^k (Maclaurin's
    inequality) <= C(m, k) (sum mu^2/m)^(k/2), where sum mu^2 = tr X^2 =
    sum |x_ij|^2. For X = C (m = n) and X = C_v (m = n - 1, whose entries
    are among C's) that sum is at most F^2 = sum (re_ij^2 + im_ij^2), so
    with r >= F/sqrt(max(n - 1, 1)) every coefficient of every polynomial
    is at most (1 + r)^n in absolute value. The primes are taken until
    their product exceeds 2(1 + r)^n, and Garner's CRT returns the
    symmetric residues, which are then the coefficients.

    Three exact identities are asserted after the lift, raising
    AssertionError when one fails: c_(n-1) = -tr C; c_(n-2) = (t^2 -
    sum |c_ij|^2)/2 with t = tr C, since tr C^2 = sum |c_ij|^2 for a
    Hermitian C; and sum_v det(xI - C_v) = p'(x) (Jacobi's formula).
    """
    n = len(cre)
    if n > _MAX_ORDER:
        raise ParameterOutOfRange(f"exact characteristic polynomial needs order <= {_MAX_ORDER}, got {n}")
    if n == 0:
        return IntPolynomial((1,)), ()
    sq = sum(x * x for row in cre for x in row) + sum(x * x for row in cim for x in row)
    r = math.isqrt(sq // max(n - 1, 1)) + 1
    mod = _moduli_beyond(2 * (1 + r) ** n, n)
    count, p3 = len(mod.primes), mod.p3
    p2 = p3[:, :, 0]
    # entries of any size are reduced mod p before they go to int64; each
    # is at most sqrt(sq) in absolute value
    dtype = np.int64 if sq < 1 << 126 else object
    parts = (np.array((cre, cim), dtype=dtype) % p3[:, None]).astype(np.int64, copy=False)
    a = parts[:, 0] + mod.s3 * parts[:, 1]
    a %= p3
    w = n + 1
    # res[:, 0] holds the charpoly's coefficients, res[:, 1 + v] those of
    # det(xI - C_v) (degree n - 1, padded with a 0); M_0 = I gives the
    # leading 1s
    res = np.zeros((count, w, w), dtype=np.int64)
    res[:, 0, n] = 1
    res[:, 1:, n - 1] = 1
    cur, nxt = np.zeros((2, count, n, n), dtype=np.int64)
    cur_diag, nxt_diag = (m.reshape(count, n * n)[:, :: n + 1] for m in (cur, nxt))
    cur_diag[:] = 1
    for k in range(1, w):
        np.matmul(a, cur, out=nxt)
        nxt %= p3
        c = res[:, 0, n - k : w - k]
        np.multiply(nxt_diag.sum(axis=1, keepdims=True), mod.neg_inv[k], out=c)
        c %= p2
        # M_k = N + c*I, its diagonal left unreduced below 2p; at k = n the
        # diagonal of M_n = 0 lands in the unread padding
        nxt_diag += c
        res[:, 1:, n - 1 - k] = nxt_diag
        cur, nxt, cur_diag, nxt_diag = nxt, cur, nxt_diag, cur_diag
    res %= p3
    lifted = _garner_lift(res.reshape(count, w * w), mod)
    coeffs = lifted[:w]
    deleted = tuple(tuple(lifted[w * v : w * v + n]) for v in range(1, w))
    t = sum(cre[i][i] for i in range(n))
    if coeffs[n - 1] != -t:
        raise AssertionError("lifted charpoly: c_(n-1) is not -tr C")
    if n >= 2 and 2 * coeffs[n - 2] != t * t - sq:
        raise AssertionError("lifted charpoly: c_(n-2) is not (t^2 - sum |c_ij|^2)/2")
    if [sum(col) for col in zip(*deleted)] != [j * coeffs[j] for j in range(1, w)]:
        raise AssertionError("lifted adjugate diagonal does not sum to the derivative")
    return IntPolynomial(coeffs), deleted


def scaled_char_poly(b: HermitianMatrix) -> tuple[IntPolynomial, int]:
    """Integer charpoly of d*B together with the denominator-clearing d.

    Roots correspond by lambda <-> d*lambda; d = 1 when the entries are
    Gaussian integers.
    """
    if not b.is_exact:
        raise ParameterOutOfRange("exact characteristic polynomial needs exact entries")
    d, cre, cim = b.cleared
    return _faddeev_leverrier(cre, cim)[0], d


@lru_cache(maxsize=4096)
def _char_poly_of_tables(cre: IntTable, cim: IntTable) -> tuple[IntPolynomial, tuple]:
    # exhaustive sweeps hit the same small principal submatrices constantly;
    # keyed on the cleared int tables (the charpolys of d*B and of its
    # vertex deletions depend on nothing else), which hash without touching
    # a Fraction or the pattern
    return _faddeev_leverrier(cre, cim)


# ---------------------------------------------------------------------------
# Exact rank / multiplicity


def exact_rank(rows, im: Sequence[Sequence[int]] | None = None) -> int:
    """Rank over the Gaussian rationals, by elimination over finite fields.

    rows holds ExactComplex entries, whose denominators are cleared first;
    or, with im given, C = rows + i*im is already a Gaussian integer matrix,
    held as tables of real and imaginary parts. Ragged rows, or re and im
    tables of different shapes, raise ParameterOutOfRange.

    For a prime p = 1 (mod 4) with s*s = -1 (mod p), the ring map
    Z[i] -> F_p, i -> s, sends C to the residues c_ij = re_ij + s*im_ij mod
    p, and Gaussian elimination over F_p gives rank_p, the rank of that
    image. The map commutes with determinants, so a minor of C that is
    nonzero mod p is nonzero, and rank_p <= rank C for every p. The first
    pass runs modulo the largest prime below 2**26, whose residues and their
    products fit in two CPython digits. When rank_p reaches min(rows,
    cols), that is the rank.

    Otherwise best = max rank_p over the primes used so far is certified as
    follows. Let mu be a (best + 1)-minor of C, a Gaussian integer. Its
    image mod each prime used vanishes, so mu lies in the prime ideal (p, i
    - s), and so does its norm N(mu) = mu*conj(mu) = |mu|^2, an integer:
    p divides N(mu). The primes are distinct, so their product divides
    N(mu). By Hadamard's inequality |mu|^2 is at most the product of the
    squared norms sum_j |c_ij|^2 of mu's rows, and so at most H, the product
    of the best + 1 largest squared row norms of C. Once the product of the
    primes exceeds H, every such mu is 0 and rank C = best (J. von zur
    Gathen and J. Gerhard, Modern Computer Algebra, ch. 5). Until then one
    more pass runs modulo the next certifying prime: the primes below 2**81,
    where Miller-Rabin to the bases 2..41 proves primality, so that a wide
    bound takes few passes. A larger rank_p raises best (and H), and a full
    one ends the search.
    """
    cols = len(rows[0]) if rows else 0
    other = rows if im is None else im
    if len(other) != len(rows) or {*map(len, rows), *map(len, other)} - {cols}:
        raise ParameterOutOfRange("exact_rank needs rectangular tables, re and im of one shape")
    if im is None:
        _, rows, im = _clear_denominators(rows)
    full = min(len(rows), cols)
    if full == 0:
        return 0
    p, s = _SMALL_PRIMES[0]
    return _certify(rows, im, _rank_mod(_residue_rows(rows, im, p, s), p), full)


def _certify(re: Sequence[Sequence[int]], im: Sequence[Sequence[int]], best: int, full: int) -> int:
    """The rank of the Gaussian integer table re + i*im from best, its rank
    mod p0, and full = min(rows, cols): exact_rank's certifying passes, run
    after its own first pass or after the multiplicity route's."""
    if best == full:
        return best
    norms = sorted(sum(map(mul, a, a)) + sum(map(mul, b, b)) for a, b in zip(re, im))
    bound = math.prod(norms[-best - 1 :])
    modulus, k = _SMALL_PRIMES[0][0], 0
    while modulus <= bound:
        p, s = _CERT_PRIMES[k]
        k += 1
        rank = _rank_mod(_residue_rows(re, im, p, s), p)
        if rank > best:
            if rank == full:
                return rank
            best = rank
            bound = math.prod(norms[-best - 1 :])
        modulus *= p
    return best


def _residue_rows(re: Sequence[Sequence[int]], im: Sequence[Sequence[int]], p: int, s: int) -> list[list[int]]:
    """The residues (re + s*im) mod p of a Gaussian integer table, as fresh
    lists: its image under Z[i] -> F_p, i -> s, for s*s = -1 (mod p)."""
    return [[(x + s * y) % p for x, y in zip(a, b)] for a, b in zip(re, im)]


def _rank_mod(work: list[list[int]], p: int) -> int:
    """Rank over F_p of the residue rows in work, which it consumes, by
    Gaussian elimination. A column without a pivot is skipped, and a row
    whose entry in the pivot column is 0 is left as it is. Entries are
    reduced mod p where they are read, as a pivot or a row's factor, so they
    may come in unreduced; an update x - f*y adds less than p**2 to x."""
    rank = 0
    for j in range(len(work[0]) if work else 0):
        for k, row in enumerate(work):
            if row[j] % p:
                break
        else:
            continue
        prow = work.pop(k)
        rank += 1
        if not work:
            break
        inv = pow(prow[j], -1, p)
        tail = [y * inv % p for y in prow[j + 1 :]]
        for row in work:
            f = row[j] % p
            if f:
                row[j + 1 :] = [x - f * y for x, y in zip(row[j + 1 :], tail)]
    return rank


@dataclass(frozen=True)
class AlgebraicEigenvalue:
    """Real algebraic number: the one root in its isolating interval (lo,
    hi) of minpoly, a squarefree integer polynomial (its minimal polynomial,
    or any squarefree multiple of it, such as a squarefree part of a
    characteristic polynomial), plus a floating locator for reporting.

    Built by a caller, it is checked once, here, and ParameterOutOfRange
    names what fails. minpoly must be nonconstant and squarefree. A given
    interval must hold exactly one root, by Sturm's count, with f nonzero
    at its ends. Without one, approx names the root whose isolating cell
    holds it (the cells of _isolate meet midway between neighbouring float
    roots), which fails when there is no real root or approx lies within
    1e-9 (relative) of the boundary of two cells. Either way approx must be
    finite and lie inside the interval, since the numeric route reads it.
    A descriptor built from an interval that _isolate has just certified
    (real_root, and the roots of a certified spectrum) is not checked a
    second time. Equality reads minpoly and approx only.
    """

    minpoly: IntPolynomial
    approx: float
    interval: Optional[tuple[Fraction, Fraction]] = field(default=None, compare=False)

    def __post_init__(self):
        if self.interval is None:
            lo, hi = _locate_root(self.minpoly, self.approx)[1:]
        else:
            lo, hi = map(Fraction, self.interval)
            chain = _squarefree_chain(self.minpoly)
            ends_nonzero = all(_sign_at(chain[0], *end.as_integer_ratio()) for end in (lo, hi))
            if not (lo < hi and ends_nonzero and _variations(chain, lo) - _variations(chain, hi) == 1):
                raise ParameterOutOfRange(f"({lo}, {hi}) does not isolate one root of {self.minpoly}")
        if not (math.isfinite(self.approx) and lo < self.approx < hi):
            raise ParameterOutOfRange(f"approx {self.approx} is not finite or lies outside ({lo}, {hi})")
        object.__setattr__(self, "interval", (lo, hi))

    @classmethod
    def _certified(
        cls, minpoly: IntPolynomial, approx: float, lo: Fraction, hi: Fraction
    ) -> "AlgebraicEigenvalue":
        """The descriptor of the root of minpoly in (lo, hi), an interval
        that _isolate has certified, built without __post_init__'s check."""
        self = object.__new__(cls)
        vars(self).update(minpoly=minpoly, approx=approx, interval=(lo, hi))
        return self

    @classmethod
    def from_2cos(cls, n: int, k: int) -> "AlgebraicEigenvalue":
        return cls(min_poly_2cos(n, k), 2.0 * math.cos(2.0 * math.pi * k / n))

    @classmethod
    def real_root(cls, poly: IntPolynomial, near: Optional[float] = None) -> "AlgebraicEigenvalue":
        """The real root of poly whose isolating cell holds near, or its
        only real root when near is None, located by its float root."""
        return cls._certified(poly, *_locate_root(poly, near))


def _locate_root(poly: IntPolynomial, near: Optional[float]) -> tuple[float, Fraction, Fraction]:
    """(approx, lo, hi) of the real root of poly named by near, as
    AlgebraicEigenvalue describes: poly is checked (_squarefree_chain), its
    real roots counted by Sturm's theorem on (-B, B) of _root_bound and
    isolated (_isolate). ParameterOutOfRange when there is no such root, or
    no single one."""
    chain = _squarefree_chain(poly)
    bound = _root_bound(poly.coeffs)
    roots = _isolate(poly.coeffs, _variations(chain, -bound) - _variations(chain, bound))
    if not roots:
        raise ParameterOutOfRange(f"{poly} has no real root")
    if near is None:
        if len(roots) > 1:
            raise ParameterOutOfRange(f"polynomial has {len(roots)} real roots; pick one with a locator")
        return roots[0]
    if not math.isfinite(near):
        raise ParameterOutOfRange(f"root locator {near} is not finite")
    cuts = [lo for _, lo, _ in roots[1:]]
    i = bisect_left(cuts, near)
    # a cut is the midpoint of two float roots, so a locator within float
    # noise of one names neither root
    slack = 1e-9 * max(1.0, abs(near))
    if any(abs(near - cuts[j]) <= slack for j in (i - 1, i) if 0 <= j < len(cuts)):
        raise ParameterOutOfRange(f"locator {near} lies midway between two roots of {poly}; move it toward one")
    return roots[i]


def _root_of(lam, d: int = 1) -> tuple[tuple, tuple[int, int], tuple[int, int]]:
    """d*lambda, for an exact lambda and a positive integer d, as the one
    root of a squarefree integer polynomial in an interval: (coeffs, lo,
    hi), the ends as integer pairs (a, b) for a/b, b > 0, as _gcd_rounds
    takes them. A rational r = p*d/q is the root of q*x - p*d in
    (r - 1, r + 1)."""
    if isinstance(lam, AlgebraicEigenvalue):
        (a, b), (c, e) = (end.as_integer_ratio() for end in lam.interval)
        return scale_minpoly(lam.minpoly, d).coeffs, (a * d, b), (c * d, e)
    p, q = Fraction(lam).as_integer_ratio()
    return (-p * d, q), (p * d - q, q), (p * d + q, q)


def _same_root(a, b) -> bool:
    """Are the exact eigenvalues a and b equal? Each is the one root of its
    polynomial in its interval, so they are equal exactly when gcd(f_a,
    f_b) changes sign on the intersection of the intervals: a root of the
    gcd there is a root of f_a in a's interval and of f_b in b's."""
    fa, alo, ahi = _root_of(a)
    fb, blo, bhi = _root_of(b)
    lo = max(Fraction(*alo), Fraction(*blo))
    hi = min(Fraction(*ahi), Fraction(*bhi))
    if lo >= hi:
        return False
    g = _int_gcd_poly(fa, fb)
    return len(g) > 1 and _sign_at(g, *lo.as_integer_ratio()) != _sign_at(g, *hi.as_integer_ratio())


EigenvalueLike = Union[int, Fraction, float, AlgebraicEigenvalue]


def _is_exact_scalar(lam) -> bool:
    """Is lambda an exact rational: an int or a Fraction that is not a bool?
    Anything else (a float, a numpy integer, True) takes the numeric route."""
    return isinstance(lam, (int, Fraction)) and not isinstance(lam, bool)


def describe_eigenvalue(lam: EigenvalueLike):
    """JSON-friendly descriptor for an eigenvalue."""
    if isinstance(lam, AlgebraicEigenvalue):
        return {
            "kind": "algebraic",
            "minpoly": list(lam.minpoly.coeffs),
            "approx": lam.approx,
        }
    if _is_exact_scalar(lam):
        return {"kind": "rational", "value": str(Fraction(lam))}
    return {"kind": "float", "value": float(lam)}


def eigenvalue_float(lam: EigenvalueLike) -> float:
    if isinstance(lam, AlgebraicEigenvalue):
        return lam.approx
    return float(lam)


@dataclass(frozen=True)
class MultiplicityResult:
    lam: EigenvalueLike
    multiplicity: int
    method: str  # ExactRank | CharPolyDivision | NumericCluster
    tolerance: float

    def as_json(self) -> dict:
        return {
            "lambda": describe_eigenvalue(self.lam),
            "multiplicity": self.multiplicity,
            "method": self.method,
            "tolerance": self.tolerance,
        }


@dataclass(frozen=True)
class SpectrumNumeric:
    values: tuple[float, ...]
    residual_bound: float


def _takes_exact_route(b: HermitianMatrix, lam: EigenvalueLike) -> bool:
    """Exact entries and a rational or algebraic lambda."""
    return b.is_exact and (isinstance(lam, AlgebraicEigenvalue) or _is_exact_scalar(lam))


def _exact_multiplicity(b: HermitianMatrix, ids: Sequence[int], lam) -> MultiplicityResult:
    """Multiplicity of lambda in the principal submatrix of the exact B on
    the sorted, distinct vertices ids, read off B's cleared tables (d, re, im).

    The slice of d*B on ids is d times the submatrix, so d clears it too.
    For lambda = p/q the shift is made in Z: q*(d*B) - p*d*I on ids is q*d
    times B[ids] - lambda*I and has the same rank. For q a unit mod p0,
    exact_rank's first prime, it is q times the slice's residues (re +
    s0*im) mod p0 less p*d/q on the diagonal, which therefore have its rank
    mod p0. A full rank there is the answer, and no integer table is built;
    a deficient one is certified on the integer tables from that rank (or,
    for p0 | q, exact_rank takes the integer tables whole). An algebraic
    lambda, the root of its squarefree polynomial f in its interval, counts
    the gcd rounds (_gcd_rounds) of the memoised charpoly of the slice at
    d*lambda: the root of f scaled by d in the interval scaled by d. f need
    not be irreducible.
    """
    d, re, im = b.cleared
    n = len(ids)
    if isinstance(lam, AlgebraicEigenvalue):
        if n < b.n:
            re = tuple(tuple(re[i][j] for j in ids) for i in ids)
            im = tuple(tuple(im[i][j] for j in ids) for i in ids)
        charpoly, _ = _char_poly_of_tables(re, im)
        m = _gcd_rounds(charpoly.coeffs, *_root_of(lam, d))
        return MultiplicityResult(lam, m, "CharPolyDivision", 0.0)
    lam = Fraction(lam)
    p, q = lam.as_integer_ratio()
    p0, s0 = _SMALL_PRIMES[0]
    if q % p0:
        if n == b.n:
            work = _residue_rows(re, im, p0, s0)
        else:
            work = [[(re[i][j] + s0 * im[i][j]) % p0 for j in ids] for i in ids]
        shift = p * d * pow(q, -1, p0) % p0
        for a, row in enumerate(work):
            row[a] -= shift
        rank = _rank_mod(work, p0)
        if rank < n:
            rank = _certify(*_shifted(b.cleared, ids, p, q), rank, n)
    else:
        rank = exact_rank(*_shifted(b.cleared, ids, p, q))
    return MultiplicityResult(lam, n - rank, "ExactRank", 0.0)


def _shifted(
    cleared: tuple[int, IntTable, IntTable], keep: Sequence[int], p: int, q: int
) -> tuple[list[list[int]], list[list[int]]]:
    """Real and imaginary int tables of q*(d*B) - p*d*I on the rows and
    columns in keep, from B's cleared tables (d, re, im)."""
    d, re, im = cleared
    shift = p * d
    out_re, out_im = [], []
    for a, i in enumerate(keep):
        row_re, row_im = re[i], im[i]
        row = [q * row_re[j] for j in keep]
        row[a] -= shift
        out_re.append(row)
        out_im.append([q * row_im[j] for j in keep])
    return out_re, out_im


def deletion_multiplicities(
    b: HermitianMatrix, lam: EigenvalueLike, vertices: Sequence[int], tol: float = 1e-8
) -> list[int]:
    """Multiplicity of lambda in the principal submatrix B - v, for each v
    in vertices.

    On the exact route all of them come off the one memoised
    Faddeev-LeVerrier run on d*B: each deleted charpoly counts its gcd
    rounds at d*lambda (_root_of: a rational takes its linear polynomial).
    That run costs more than one exact rank, so a single
    deletion is cheaper through submatrix_multiplicity(). Other inputs take
    the numeric cluster count of each submatrix.
    """
    if _takes_exact_route(b, lam):
        d, re, im = b.cleared
        _, deleted = _char_poly_of_tables(re, im)
        root = _root_of(lam, d)
        return [_gcd_rounds(deleted[v], *root) for v in vertices]
    return [
        submatrix_multiplicity(b, [u for u in range(b.n) if u != v], lam, tol) for v in vertices
    ]


def submatrix_multiplicity(
    b: HermitianMatrix, keep: Sequence[int], lam: EigenvalueLike, tol: float = 1e-8
) -> int:
    """Multiplicity of lambda in the principal submatrix of B on the
    vertices in keep (as principal_submatrix takes them: sorted, repeats
    dropped).

    It asks the same dispatch as multiplicity(). On the exact route no
    submatrix is built: the question is answered on B's cleared tables.
    Other inputs count the eigenvalues of the submatrix numerically.
    """
    ids = sorted(set(keep))
    if ids and not (0 <= ids[0] and ids[-1] < b.n):
        raise IndexOutOfRange(f"vertices {ids} outside range 0..{b.n - 1}")
    return _multiplicity_on(b, ids, lam, tol).multiplicity


def eigenvalues_numeric(b: HermitianMatrix) -> SpectrumNumeric:
    """All eigenvalues, ascending, with the documented residual bound."""
    mat = b.to_numpy()
    if not np.all(np.isfinite(mat)):
        raise ParameterOutOfRange("matrix entries must be finite")
    try:
        vals = np.linalg.eigvalsh(mat)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigendecomposition failed: {exc}") from exc
    vals = [float(v) for v in vals]
    norm = max((abs(v) for v in vals), default=0.0)
    eps = float(np.finfo(np.float64).eps)
    bound = 10.0 * max(b.n, 1) * eps * norm
    return SpectrumNumeric(tuple(sorted(vals)), bound)


def multiplicity_numeric(b: HermitianMatrix, lam, tol: float = 1e-8) -> MultiplicityResult:
    """Count eigenvalues within tol of lambda, refusing ambiguous clusters
    and a lambda that is not finite."""
    lam_f = eigenvalue_float(lam)
    if not math.isfinite(lam_f):
        raise ParameterOutOfRange(f"lambda {lam_f} is not finite")
    spec = eigenvalues_numeric(b)
    if not tol > spec.residual_bound:
        raise ParameterOutOfRange(
            f"tol {tol} must exceed the residual bound {spec.residual_bound}"
        )
    included = [v for v in spec.values if abs(v - lam_f) <= tol]
    excluded = [v for v in spec.values if abs(v - lam_f) > tol]
    if included and excluded:
        gap = min(abs(e - i) for e in excluded for i in included)
        if gap < 2.0 * tol:
            raise AmbiguousCluster(
                f"eigenvalue at distance {gap} from the cluster around {lam_f}",
                gap=gap,
                tol=tol,
            )
    elif not included and excluded:
        near = min(abs(e - lam_f) for e in excluded)
        if near < 2.0 * tol:
            raise AmbiguousCluster(
                f"no eigenvalue within tol but one within {near} of {lam_f}",
                gap=near,
                tol=tol,
            )
    return MultiplicityResult(lam, len(included), "NumericCluster", tol)


def multiplicity(b: HermitianMatrix, lam: EigenvalueLike, tol: float = 1e-8) -> MultiplicityResult:
    """Dispatch to the strongest applicable method for this matrix/eigenvalue."""
    return _multiplicity_on(b, range(b.n), lam, tol)


def _multiplicity_on(
    b: HermitianMatrix, ids: Sequence[int], lam: EigenvalueLike, tol: float
) -> MultiplicityResult:
    """The one dispatch: multiplicity of lambda in the principal submatrix
    of B on the sorted, distinct vertices ids (all of them for B itself)."""
    if _takes_exact_route(b, lam):
        return _exact_multiplicity(b, ids, lam)
    if b.is_exact:
        lam = float(lam)
    if len(ids) < b.n:
        b = principal_submatrix(b, ids)[0]
    return multiplicity_numeric(b, lam, tol)
