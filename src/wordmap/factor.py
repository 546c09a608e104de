"""Univariate polynomial factorization.

Finite fields get the full pipeline: squarefree decomposition (with p-th
root extraction in characteristic p), distinct-degree splitting, then
Cantor-Zassenhaus equal-degree splitting.  Distinct-degree splitting takes
x^(q^d) mod g from x^(q^(d-1)) by one product with the Frobenius matrix of g
(column j is x^(qj) mod g): h -> h^q is F_q-linear, so only x^q mod g needs
a modular power (von zur Gathen and Gerhard, Modern Computer Algebra,
ch. 14).  The equal-degree step is randomised with an explicit seed; in
characteristic 2 it uses the additive trace map since the multiplicative
variant degenerates there.

Over Q only content removal, rational-root extraction, squarefree
decomposition of what remains, and quadratic/cubic splits are performed.
Rational-root candidates p/q are taken only inside Fujiwara's bound on the
size of the complex roots, computed in integers.  A squarefree residual
factor of degree >= 4 with no rational root is returned whole with
``certified=False``; downstream code treats it as irreducible and final
witnesses are verified unconditionally anyway.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import UnsupportedField, VerificationFailed, ZeroPolynomial
from .fields import FieldElement, _irreducible_over_prime, random_element
from .polynomials import Poly


@dataclass(frozen=True)
class FactorTerm:
    poly: Poly
    multiplicity: int
    certified: bool = True


@dataclass(frozen=True)
class Factorization:
    unit: FieldElement
    factors: tuple

    def expand(self) -> Poly:
        out = Poly.constant(self.unit)
        for term in self.factors:
            out = out * term.poly ** term.multiplicity
        return out

    def __iter__(self):
        return iter(self.factors)


def factor(f: Poly, seed: int = 0) -> Factorization:
    """Factor f into monic irreducibles times a unit (see module docstring)."""
    if f.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    field = f.field
    if field.is_finite:
        terms = _factor_finite(f, seed)
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
    """The irreducibility predicate ``Field`` checks every extension modulus
    with: Rabin's test on the monic f over finite fields (towers included);
    over Q a single factor of multiplicity one from ``factor``, where an
    uncertified factor of degree >= 4 counts as irreducible."""
    if f.degree < 1:
        return False
    if f.field.is_finite:
        return _irreducible_over_prime(f.monic()._raw(), f.field)
    fac = factor(f)
    return len(fac.factors) == 1 and fac.factors[0].multiplicity == 1


# ----------------------------------------------------------------------
# finite fields
# ----------------------------------------------------------------------

def _factor_finite(f: Poly, seed: int) -> list:
    rng = random.Random(seed)
    out = []
    for g, mult in _squarefree_decomposition(f.monic()):
        for h in _squarefree_factor(g, rng):
            out.append(FactorTerm(h, mult))
    return out


def _pth_root_poly(f: Poly) -> Poly:
    """For f(x) = g(x^p) over F_{p^d}, return g with the coefficients' p-th
    roots (Frobenius inverse: c -> c^(p^(d-1)))."""
    field = f.field
    p = field.characteristic
    root_exp = p ** (field.absolute_degree - 1)
    coeffs = []
    for i in range(0, f.degree + 1, p):
        coeffs.append(f[i] ** root_exp)
    return Poly(field, coeffs)


def _squarefree_decomposition(f: Poly) -> list:
    """Monic f -> list of (squarefree g_i, multiplicity m_i), char-p aware."""
    p = f.field.characteristic
    out = []
    if f.degree < 1:
        return out

    def rec(g: Poly, outer: int):
        if g.degree < 1:
            return
        dg = g.derivative()
        if dg.is_zero():
            rec(_pth_root_poly(g), outer * p)
            return
        c = g.gcd(dg)
        w = g // c
        m = 1
        while w.degree >= 1:
            y = w.gcd(c)
            piece = w // y
            if piece.degree >= 1:
                out.append((piece.monic(), m * outer))
            w = y
            c = c // y
            m += 1
        if c.degree >= 1:
            # what survives is exactly the p-th power part
            rec(_pth_root_poly(c), outer * p)

    rec(f, 1)
    return out


def _squarefree_factor(f: Poly, rng: random.Random) -> list:
    """Factor a monic squarefree polynomial over a finite field."""
    out = []
    for g, d in _distinct_degree(f):
        out.extend(_equal_degree(g, d, rng))
    return out


def _distinct_degree(f: Poly) -> list:
    """(g_d, d) for monic squarefree f: g_d is the product of the irreducible
    factors of degree d.  h runs through x^(q^d) mod g; from d = 2 on it is
    advanced by the Frobenius matrix of g, built once from x^q mod g and
    reduced modulo g whenever g loses a factor."""
    field = f.field
    kern = field.kernel
    q = field.cardinality
    x = Poly.x(field)
    out = []
    h = x
    g = f
    frob = None  # rows j = 0..deg g - 1: x^(qj) mod g, padded to deg g
    d = 0
    while g.degree > 0:
        d += 1
        if 2 * d > g.degree:
            out.append((g, g.degree))
            break
        if d == 1:
            h = h.pow_mod(q, g)
        else:
            if frob is None:
                frob = _frobenius_rows(h, g)
            hv = _padded(kern, h._raw(), g.degree)
            h = Poly._from_raw(field, kern.poly_trim(kern.matmul([hv], frob)[0]))
        gd = g.gcd(h - x)
        if gd.degree > 0:
            out.append((gd, d))
            g = g // gd
            h = h % g
            if frob is not None:
                graw = g._raw()
                frob = [_padded(kern, kern.poly_divmod(kern.poly_trim(row), graw)[1], g.degree)
                        for row in frob[:g.degree]]
    return out


def _padded(kern, a: list, m: int) -> list:
    return a + [kern.zero] * (m - len(a))


def _frobenius_rows(xq: Poly, g: Poly) -> list:
    """The Frobenius matrix of g, from xq = x^q mod g: row j holds x^(qj) mod
    g, padded to deg g, so that h^q mod g is the row vector h times it."""
    kern = g.field.kernel
    graw, xraw = g._raw(), xq._raw()
    rows = [[kern.one]]
    for _ in range(g.degree - 1):
        rows.append(kern.poly_divmod(kern.poly_mul(rows[-1], xraw), graw)[1])
    return [_padded(kern, row, g.degree) for row in rows]


def _equal_degree(f: Poly, d: int, rng: random.Random) -> list:
    """Split a product of distinct irreducibles all of degree d."""
    field = f.field
    if f.degree == d:
        return [f.monic()]
    q = field.cardinality
    p = field.characteristic
    one = Poly.one(field)
    while True:
        a = Poly(field, [random_element(field, rng) for _ in range(f.degree)])
        if a.degree < 1:
            continue
        if p == 2:
            # additive trace map over F_2
            t = a % f
            b = t
            steps = d * field.absolute_degree - 1
            for _ in range(steps):
                t = t.pow_mod(2, f)
                b = (b + t) % f
        else:
            b = a.pow_mod((q ** d - 1) // 2, f) - one
        g = f.gcd(b)
        if 0 < g.degree < f.degree:
            return _equal_degree(g, d, rng) + _equal_degree((f // g).monic(), d, rng)


# ----------------------------------------------------------------------
# rationals
# ----------------------------------------------------------------------

def _divisors(n: int, limit: int) -> list:
    """The positive divisors of n that are at most ``limit``, ascending."""
    n = abs(n)
    small, large = [], []
    i = 1
    while i * i <= n and i <= limit:
        if n % i == 0:
            small.append(i)
            if i != n // i and n // i <= limit:
                large.append(n // i)
        i += 1
    return small + large[::-1]


def _iroot_ceil(m: int, k: int) -> int:
    """The least c >= 0 with c**k >= m, in integer arithmetic."""
    if m <= 0:
        return 0
    c = 1 << -(-m.bit_length() // k)  # c**k > m
    while True:  # Newton from above settles on the floor of the k-th root
        d = ((k - 1) * c + m // c ** (k - 1)) // k
        if d >= c:
            break
        c = d
    return c if c ** k >= m else c + 1


def _root_bound(ints: list) -> int:
    """An integer B with |z| <= B for every complex root z of the integer
    polynomial ``ints`` (low degree first, nonzero constant term): Fujiwara's
    bound 2*max(|a_{n-i}/a_n|^(1/i) for i < n, |a_0/(2 a_n)|^(1/n)), rounded
    up exactly: term i needs B^i * |a_n| >= |a_{n-i}| * 2^i, and the last
    term B^n * |a_n| >= |a_0| * 2^(n-1)."""
    n = len(ints) - 1
    an = abs(ints[-1])
    bound = 0
    for i in range(1, n + 1):
        num = abs(ints[n - i]) << (i if i < n else n - 1)
        bound = max(bound, _iroot_ceil(-(-num // an), i))
    return bound


def _rational_roots(f: Poly) -> list:
    """All rational roots of f (integer-cleared), each listed once.

    Candidates p/q (p | a_0, q | a_n) are taken only inside Fujiwara's root
    bound B (``_root_bound``), so p runs over the divisors of a_0 up to
    B*|a_n| rather than over all of them."""
    field = f.field
    denom = 1
    for c in f.coeffs:
        denom = denom * c.rep.denominator // math.gcd(denom, c.rep.denominator)
    ints = [int(c.rep * denom) for c in f.coeffs]
    while ints and ints[0] == 0:
        ints = ints[1:]  # x | f: root 0 handled by caller loop via evaluation
    if not ints:
        return []
    a0, an = ints[0], ints[-1]
    bound = _root_bound(ints)
    roots = []
    seen = set()
    candidates = [Fraction(0)]
    dens = _divisors(an, abs(an))
    for pnum in _divisors(a0, bound * abs(an)):
        for pden in dens:
            if pnum <= bound * pden:
                candidates.append(Fraction(pnum, pden))
                candidates.append(Fraction(-pnum, pden))
    for cand in candidates:
        if cand in seen:
            continue
        seen.add(cand)
        if f(field(cand)).is_zero():
            roots.append(cand)
    return roots


def _factor_rationals(f: Poly) -> list:
    field = f.field
    work = f.monic()
    out = []
    x = Poly.x(field)
    # strip rational roots (with multiplicity)
    while work.degree >= 1:
        roots = _rational_roots(work)
        if not roots:
            break
        for r in sorted(roots):
            lin = x - Poly.constant(field(r))
            mult = 0
            while (work % lin).is_zero():
                work = work // lin
                mult += 1
            out.append(FactorTerm(lin, mult))
    if work.degree == 0:
        return out
    if work.degree in (2, 3):
        # no rational root at this point -> irreducible over Q
        out.append(FactorTerm(work.monic(), 1))
        return out
    # split repeated factors apart by squarefree decomposition
    g = work.gcd(work.derivative())
    if g.degree >= 1:
        for piece, mult in _squarefree_decomposition(work):
            for term in _factor_rationals(piece):
                out.append(FactorTerm(term.poly, term.multiplicity * mult, term.certified))
        return out
    certified = work.degree < 4
    out.append(FactorTerm(work.monic(), 1, certified))
    return out
