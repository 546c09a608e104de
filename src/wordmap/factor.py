"""Univariate polynomial factorization.

Finite fields get the full pipeline: squarefree decomposition (with p-th
root extraction in characteristic p), distinct-degree splitting, then
Cantor-Zassenhaus equal-degree splitting.  Distinct-degree splitting takes
x^(q^d) mod g from x^(q^(d-1)) by one product with the Frobenius matrix of g
(column j is x^(qj) mod g): h -> h^q is F_q-linear, so only x^q mod g needs
a modular power (von zur Gathen and Gerhard, Modern Computer Algebra,
ch. 14).  The equal-degree step draws from a fixed ``random.Random(0)``;
the factors are sorted, so the draws change only the time taken.  In
characteristic 2 it uses the additive trace map since the multiplicative
variant degenerates there.

Two rules pick how a piece g_d, a product of irreducibles of degree d,
is split; both give the factors the plain Cantor-Zassenhaus split gives.

- Frobenius split: in odd characteristic, from d = 2 on, a draw's
  a^((q^d-1)/2) mod g_d is N(a)^((q-1)/2) with N(a) = a a^q ...
  a^(q^(d-1)), built by d - 1 products with the Frobenius rows that the
  distinct-degree step already holds (reduced mod g_d) and d - 1 products
  mod g_d (von zur Gathen and Shoup, "Computing Frobenius maps and
  factoring polynomials", Computational Complexity 2, 1992).  Each draw
  gets the value of one binary power by (q^d-1)/2, about 1.5 d log2 q
  products, so the gcd and the next draw are the same.
- Root scan: over F_p with p <= FIELD_TABLE_BOUND = 256, the linear
  factors (d = 1) are the roots found by evaluating g_1 at all p elements
  at once (``_roots_by_scan``), with no draw.  On a 2-core x86-64 host
  (best of 5 over 40 products of deg g_1 distinct linear factors, scan
  against random splitting), at p = 101 it took 16 against 88 us at
  deg 2 and 61 against 502 at deg 8, at p = 251 34 against 118 and 133
  against 627, and at p = 1021 185 against 147 and 675 against 846: the
  crossover is near p = 1000 at low degree, so the table bound keeps the
  scan well on its side.  p = 2 and 3 take it too, and Zassenhaus's
  primes below.

Over the 1,350 charpolys ``factor`` meets in the benchmark's comm-f101
stream (seed 1, F_101, n = 4..12), the two rules and reducing the
Frobenius rows only when the next degree reads them took it from about
340-370 to 274 us per call on the same host (316 without the root scan,
298 without the Frobenius split).

The pipeline runs on raw coefficient lists through the field's kernel
ops (``poly_gcd``, ``poly_divmod``, ``poly_derivative``, ``poly_powmod``)
and wraps each factor in a Poly once, at the end.  Its powers and the
Frobenius rows go through one product mod g prepared by
``poly_mulmod_fn``: the distinct-degree step prepares it once, for f,
and the equal-degree step once per polynomial it splits by draws.  Over
F_p that product is packed Kronecker arithmetic (``PrimeKernel``).

Over Q, f is factored by Zassenhaus's algorithm (ch. 15) on the same
pipeline: its primitive integer multiple is factored modulo the least odd
prime p that does not divide lc(f) and keeps f squarefree; the factors
mod p are Hensel-lifted quadratically past twice the Mignotte bound and
recombined in subsets, smallest first; lifting and recombination run on
``PrimeKernel(p^k)``, the kernel of F_p taken modulo a prime power.  f
squarefree mod p proves f squarefree, so squarefree decomposition over Q
runs only when no prime up to 13 does that.  Every factor returned is
proven irreducible, so ``is_irreducible`` is "one factor of multiplicity
one" over every base: over F_q the distinct-degree step does the work of
Rabin's test.

``factor`` keeps its last FACTOR_MEMO_SIZE = 256 results in a
``functools.lru_cache`` on ``_factorization``, keyed by the Poly, which
hashes and compares by the field's key and the coefficient reps.  A hit
returns the same immutable Factorization, which the uniqueness of
factorization makes the one a new run would build.  Nothing else is
filed: a Jordan factor's working field is proven by the factorization that
found it (``reduction.working_field``), and the 2x2 commutator step reads
chi's roots from the Jordan blocks.  What the cache serves is charpolys
that recur across ops over small fields: on the small-fields stream of
seed 1, 896 of 1,425 factorizations repeat an earlier op's charpoly, and
each would cost 42-133 us to factor again (10th to 90th percentile,
median 70 us, on a 2-core x86-64 host).  Over the seed-1 timed streams
of the benchmark workloads (``cache_info()`` after the ops a 15 s run
times), 256 entries answered 53% of small-fields' 1,439 calls (21% at
64; 63% at 512, where every repeat is kept), 31% of diag-f101's 272, and
none of char0's 88 or comm-f101's 385, whose charpolys never repeat; 256
entries hold about 0.2-0.3 MB.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass

from .errors import UnsupportedField, VerificationFailed, ZeroPolynomial
from .fields import (
    FIELD_TABLE_BOUND,
    Field,
    FieldElement,
    PrimeKernel,
    _interned_field,
    _is_prime,
    _primitive,
    random_element,
)
from .polynomials import Poly, require_poly


@dataclass(frozen=True)
class FactorTerm:
    poly: Poly
    multiplicity: int


@dataclass(frozen=True)
class Factorization:
    unit: FieldElement
    factors: tuple

    def expand(self) -> Poly:
        field = self.unit.field
        mul = field.kernel.poly_mul
        out = [self.unit.rep]
        for term in self.factors:
            for _ in range(term.multiplicity):
                out = mul(out, term.poly.reps)
        return Poly._from_raw(field, out)

    def __iter__(self):
        return iter(self.factors)


# how many recent results ``_factorization`` keeps (see the module docstring)
FACTOR_MEMO_SIZE = 256


def factor(f: Poly) -> Factorization:
    """Factor f into monic irreducibles times a unit (see module docstring).
    The factorization is unique and its factors are sorted, so the result
    depends on f alone, and a polynomial among the last FACTOR_MEMO_SIZE
    factored gets the same immutable Factorization again."""
    require_poly(f)
    if f.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    return _factorization(f)


@functools.lru_cache(maxsize=FACTOR_MEMO_SIZE)
def _factorization(f: Poly) -> Factorization:
    field = f.field
    if field.is_finite:
        terms = _factor_finite(f)
    elif field.kind == "rationals":
        terms = _factor_rationals(f)
    else:
        raise UnsupportedField(f"factorization over {field} is not supported")
    unit = f.leading()
    terms.sort(key=lambda t: t.poly.sort_key())
    fac = Factorization(unit, tuple(terms))
    if fac.expand() != f:
        raise VerificationFailed("factorization does not reproduce its input")
    return fac


def is_irreducible(f: Poly) -> bool:
    """The irreducibility predicate ``Field`` checks a named extension's
    modulus with, over every base ``factor`` supports: f is irreducible when
    its factorization is one factor of multiplicity one.  A Jordan factor's
    working field skips it, proven by the factorization that found it."""
    return f.degree >= 1 and [term.multiplicity for term in factor(f)] == [1]


# ----------------------------------------------------------------------
# finite fields
# ----------------------------------------------------------------------

def _factor_finite(f: Poly) -> list:
    field = f.field
    rng = random.Random(0)
    out = []
    for g, mult in _squarefree_decomposition(field, _monic(field.kernel, f.reps)):
        for h in _squarefree_factor(field, g, rng):
            out.append(FactorTerm(Poly._from_raw(field, h), mult))
    return out


def _monic(kern, a) -> list:
    return kern.vscale(a, kern.inv(a[-1]))


def _pth_root_poly(field: Field, f) -> list:
    """For f(x) = g(x^p) over F_{p^d}, return g with the coefficients' p-th
    roots (Frobenius inverse: c -> c^(p^(d-1)))."""
    p = field.characteristic
    root_exp = p ** (field.absolute_degree - 1)
    return [field._rpow(c, root_exp) for c in f[::p]]


def _squarefree_decomposition(field: Field, f: list) -> list:
    """Monic f -> list of (squarefree monic g_i, multiplicity m_i), char-p
    aware; a squarefree f (gcd(f, f') = 1) is its own decomposition."""
    kern = field.kernel
    gcd, divmod_ = kern.poly_gcd, kern.poly_divmod
    p = field.characteristic
    out = []

    def rec(g, outer: int):
        if len(g) < 2:
            return
        dg = kern.poly_derivative(g)
        if not dg:
            rec(_pth_root_poly(field, g), outer * p)
            return
        c = gcd(g, dg)
        if len(c) == 1:
            out.append((g, outer))
            return
        w = divmod_(g, c)[0]
        m = 1
        while len(w) > 1:
            y = gcd(w, c)
            piece = divmod_(w, y)[0]
            if len(piece) > 1:
                out.append((_monic(kern, piece), m * outer))
            w = y
            c = divmod_(c, y)[0]
            m += 1
        if len(c) > 1:
            # what survives is exactly the p-th power part
            rec(_pth_root_poly(field, c), outer * p)

    rec(f, 1)
    return out


def _squarefree_factor(field: Field, f: list, rng: random.Random) -> list:
    """Factor a monic squarefree polynomial over a finite field: split it by
    degree, then split each piece g_d by the module docstring's rules
    (``_equal_degree``): its linear factors by the root scan over F_p up
    to FIELD_TABLE_BOUND, and from d = 2 on, in odd characteristic, by
    draws powered through the Frobenius rows the degree split already
    holds."""
    out = []
    for g, d, rows in _distinct_degree(field, f):
        out.extend(_equal_degree(field, g, d, rng, rows))
    return out


def _distinct_degree(field: Field, f: list) -> list:
    """(g_d, d, rows) for monic squarefree f: g_d is the product of the
    irreducible factors of degree d, and rows are the Frobenius rows
    x^(qj) mod G, j < deg G, of a multiple G of g_d for the pieces found
    from d = 2 on, and None for those at d = 1 and for a last piece that
    is one irreducible.  h runs through x^(q^d) mod g; from d = 2 on it is
    advanced by the Frobenius matrix of g, built once from x^q mod g and,
    when g has lost a factor, reduced modulo g before its next step, and
    applied through one prepared matrix-vector product per g.  x^q mod f
    and the Frobenius rows come from one product mod f, prepared once:
    when f loses its linear factors, the rows x^(qj) mod f are built first
    and then reduced."""
    kern = field.kernel
    x = [kern.zero, kern.one]
    out = []
    h = x
    g = f
    frob = None  # rows x^(qj) mod a multiple of g, j < deg g
    advance = None  # h -> h^q mod g, once frob is reduced mod g
    d = 0
    while len(g) > 1:
        d += 1
        n = len(g) - 1
        if 2 * d > n:
            out.append((g, n, None))
            break
        if d == 1:
            mulmod = kern.poly_mulmod_fn(g)
            h = kern.poly_powmod(h, field.cardinality, g, mulmod)
        else:
            if frob is None:
                frob = _frobenius_rows(kern, h, n, mulmod)
            elif advance is None:
                frob = [kern.poly_divmod(row, g)[1] for row in frob[:n]]
            if advance is None:
                advance = _row_times(kern, frob, n)
            h = kern.poly_trim(advance(_padded(kern, h, n)))
        gd = kern.poly_gcd(g, kern.poly_sub(h, x))
        if len(gd) > 1:
            out.append((gd, d, frob))
            g = kern.poly_divmod(g, gd)[0]
            n = len(g) - 1
            if frob is None and 2 * (d + 1) <= n:
                # x^(qj) mod the old g reduces to x^(qj) mod its factor g
                frob = _frobenius_rows(kern, h, n, mulmod)
            advance = None
            h = kern.poly_divmod(h, g)[1]
    return out


def _row_times(kern, rows, n: int):
    """v -> v * rows for row vectors v, the rows padded to length n,
    prepared once."""
    return kern.matvec_fn([list(col) for col in zip(*(_padded(kern, row, n) for row in rows))])


def _padded(kern, a: list, m: int) -> list:
    return list(a) + [kern.zero] * (m - len(a))


def _frobenius_rows(kern, xq: list, count: int, mulmod) -> list:
    """The first ``count`` rows of the Frobenius matrix of g, from
    xq = x^q mod g and a product mod g: row j holds x^(qj) mod g, so that
    h^q mod g is the row vector h times the deg g rows."""
    rows = [[kern.one]]
    for _ in range(count - 1):
        rows.append(mulmod(rows[-1], xq))
    return rows


def _equal_degree(field: Field, f: list, d: int, rng: random.Random, rows=None) -> list:
    """Split a monic product of distinct irreducibles all of degree d; rows
    are x^(qj) mod a multiple of f, j < deg f, as ``_distinct_degree``
    hands them on (read from d = 2 on in odd characteristic).  The rules
    of the module docstring pick the split:

    - d = 1 over F_p with p <= FIELD_TABLE_BOUND: the root scan.
    - otherwise each draw a gives gcd(f, s(a)), and a proper factor is
      split again with the same rows.  In characteristic 2, s is the
      trace map a + a^2 + ... + a^(2^(de-1)), q = 2^e; in odd
      characteristic s(a) = a^((q^d-1)/2) - 1, by the Frobenius split
      from d = 2 on and one power by (q-1)/2 at d = 1 (``_half_power``).
    """
    n = len(f) - 1
    if n == d:
        return [f]
    kern = field.kernel
    if d == 1 and field.kind == "prime" and field.p <= FIELD_TABLE_BOUND:
        return [[kern.rneg(r), kern.one] for r in _roots_by_scan(f, field.p)]
    mulmod = kern.poly_mulmod_fn(f)
    if field.characteristic == 2:
        def split(a):
            t = b = a
            for _ in range(d * field.absolute_degree - 1):
                t = mulmod(t, t)
                b = kern.poly_add(b, t)
            return b
    else:
        if d > 1:
            rows = [kern.poly_divmod(row, f)[1] for row in rows[:n]]
        power = _half_power(kern, f, d, field.cardinality, rows, mulmod)

        def split(a):
            return kern.poly_sub(power(a), [kern.one])
    while True:
        a = kern.poly_trim([random_element(field, rng).rep for _ in range(n)])
        if len(a) < 2:
            continue
        g = kern.poly_gcd(f, split(a))
        if 0 < len(g) - 1 < n:
            return (_equal_degree(field, g, d, rng, rows)
                    + _equal_degree(field, kern.poly_divmod(f, g)[0], d, rng, rows))


def _half_power(kern, f: list, d: int, q: int, rows, mulmod):
    """a -> a^((q^d-1)/2) mod f for odd q and reduced a, through mulmod, a
    product mod f, and (from d = 2 on) the Frobenius rows x^(qj) mod f,
    j < deg f.  (q^d-1)/2 = (1 + q + ... + q^(d-1)) (q-1)/2, so the power
    is N(a)^((q-1)/2) with N(a) = a a^q ... a^(q^(d-1)).  N(a) takes d - 1
    Frobenius steps b -> b^q (one prepared matrix-vector product each)
    and d - 1 products, and a power by (q-1)/2 ends it: about
    2(d - 1) + 1.5 log2 q products for the value that binary powering by
    (q^d-1)/2 reaches in about 1.5 d log2 q (von zur Gathen and Shoup,
    1992)."""
    e = (q - 1) // 2
    if d == 1:
        return lambda a: kern.poly_powmod(a, e, f, mulmod)
    n = len(f) - 1
    frobenius = _row_times(kern, rows, n)

    def power(a):
        norm = b = a
        for _ in range(d - 1):
            b = kern.poly_trim(frobenius(_padded(kern, b, n)))
            norm = mulmod(norm, b)
        return kern.poly_powmod(norm, e, f, mulmod)
    return power


def _roots_by_scan(f: list, p: int) -> list:
    """The roots in F_p of monic f over F_p, ascending, by Horner's rule at
    all p elements at once: p deg f products, with no draw and no product
    mod f.  For a product of distinct linear factors this is the
    equal-degree split at d = 1; the module docstring gives its bound."""
    xs = range(p)
    values = [1] * p
    for c in reversed(f[:-1]):
        values = [(v * x + c) % p for v, x in zip(values, xs)]
    return [x for x, v in zip(xs, values) if not v]


# ----------------------------------------------------------------------
# rationals
# ----------------------------------------------------------------------

def _factor_rationals(f: Poly) -> list:
    rng = random.Random(0)
    if f.degree < 1:
        return []
    factors = _zassenhaus(_primitive(f.reps), rng, 13)
    if factors is not None:
        return [FactorTerm(Poly(f.field, g).monic(), 1) for g in factors]
    # no small prime keeps f squarefree: split off its repeated factors
    return [FactorTerm(Poly(f.field, g).monic(), mult)
            for piece, mult in _squarefree_decomposition(f.field, f.monic().reps)
            for g in _zassenhaus(_primitive(piece), rng)]


def _zassenhaus(f: list, rng: random.Random, limit: float = math.inf) -> list:
    """The irreducible factors in Z[x] of the squarefree primitive f (integer
    coefficients, low degree first), by Zassenhaus's algorithm (von zur
    Gathen and Gerhard, Modern Computer Algebra, Alg. 15.19).  p is the least
    odd prime that does not divide lc(f) and keeps f squarefree mod p; None
    when there is none up to ``limit``.  The factors mod p are
    lifted past twice the Mignotte bound B = lc(f) 2^n ||f||_2 and subsets
    of them recombined, smallest first: a candidate pair g*, h* with
    ||g*||_1 ||h*||_1 <= B is exactly a factorization of lc(f) f."""
    for p in itertools.count(3, 2):
        if p > limit:
            return None
        if f[-1] % p and _is_prime(p):
            field = _interned_field("prime", p=p)
            kern = field.kernel
            fp = kern.poly_trim([c % p for c in f])
            if len(kern.poly_gcd(fp, kern.poly_derivative(fp))) == 1:
                break
    modular = _squarefree_factor(field, _monic(kern, fp), rng)
    bound = (f[-1] << len(f) - 1) * (math.isqrt(sum(c * c for c in f)) + 1)
    M = p
    while M <= 2 * bound:
        M *= p
    lifted = _hensel_lift(f, modular, kern, M)
    mul = PrimeKernel(M).poly_mul

    def symmetric(polys):  # lc(f) * prod polys mod M, coefficients in (-M/2, M/2]
        return [c - M if 2 * c > M else c for c in functools.reduce(mul, polys, [f[-1]])]

    out, size = [], 1
    while 2 * size <= len(lifted):
        for subset in itertools.combinations(range(len(lifted)), size):
            rest = [h for i, h in enumerate(lifted) if i not in subset]
            g, h = symmetric([lifted[i] for i in subset]), symmetric(rest)
            if sum(map(abs, g)) * sum(map(abs, h)) <= bound:
                out.append(_primitive(g))
                f, lifted = _primitive(h), rest
                break
        else:
            size += 1
    return out + [f]


def _hensel_lift(f: list, modular: list, kern: PrimeKernel, M: int) -> list:
    """Monic h_i = g_i mod p with f = lc(f) prod h_i mod M (a power of p),
    for the coprime monic g_i in ``modular`` with f = lc(f) prod g_i mod p;
    ``kern`` is the kernel of F_p.  Split in halves f = g h, then g, h and
    s = g^-1 mod h take quadratic Newton steps (h -= s (g h - f) mod h;
    g = f quo h; s -= s (s g - 1) mod h) on the kernel of Z/m, and each half
    is lifted alike."""
    if len(modular) == 1:
        return [PrimeKernel(M).vscale(f, pow(f[-1], -1, M))]
    half = len(modular) // 2
    h = functools.reduce(kern.poly_mul, modular[half:])
    g = kern.poly_divmod(f, h)[0]
    r, s = kern.poly_gcdext(g, h)
    s = kern.vscale(s, kern.inv(r[0]))
    m = kern.m
    while m < M:
        m = min(m * m, M)
        km = PrimeKernel(m)
        mul, sub, divmod_ = km.poly_mul, km.poly_sub, km.poly_divmod
        h = sub(h, divmod_(mul(s, sub(mul(g, h), f)), h)[1])
        g = divmod_(f, h)[0]
        s = sub(s, divmod_(mul(s, sub(mul(s, g), [1])), h)[1])
    return (_hensel_lift(g, modular[:half], kern, M)
            + _hensel_lift(h, modular[half:], kern, M))
