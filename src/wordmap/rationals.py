"""Q's rational core: the element closures and the raw kernel of Q.

``Field("rationals")`` imports this module when Q's field is first built,
so a process that never builds Q, over F_p, R or C, loads neither it nor
``fractions`` (with its ``decimal`` and ``numbers`` imports).

Q's element closures are int-pair functions, the gcd-reduced sum and
product of CPython 3.12's ``fractions``, and every Fraction that they and
RationalKernel compute comes from ``_ratio`` (any int pair, normalised) or
``_rational`` (a coprime pair with positive denominator).  ``_rational``
fills Fraction's two private slots itself, as CPython 3.12+ does in
``Fraction._from_coprime_ints``: the constructor's type dispatch and
normalisation took a fifth of the slowest Q solves.  A normalised
Fraction is unique, so values, hashes and everything built from them are
those of Fraction arithmetic.  ``_rational`` is the only code that
touches the private slots (the check ``fraction_internals_in_one_place``
in ``tools/invariants.py``); the closures read the public ``numerator``
and ``denominator``, so ints pass through them too, and a property test
compares them with the fractions module on every supported Python.

RationalKernel is ``fields.GenericKernel`` with the dense work of Q done
on integers (see its docstring and the kernel layer in ``fields``).
"""

import functools
import math
import operator
from fractions import Fraction

from .fields import GenericKernel


def _rational(n: int, d: int) -> Fraction:
    """The Fraction n/d for coprime ints n and d > 0, with its two slots
    filled directly, as CPython 3.12+ does in ``Fraction._from_coprime_ints``:
    the constructor's type dispatch and normalisation cost more than the
    arithmetic they wrap.  The only code that touches Fraction's private
    slots (checked by ``fraction_internals_in_one_place`` in
    ``tools/invariants.py``)."""
    q = object.__new__(Fraction)
    q._numerator = n
    q._denominator = d
    return q


def _ratio(n: int, d: int) -> Fraction:
    """n/d normalised, for ints n and d != 0: the value Fraction(n, d) gives."""
    g = math.gcd(n, d)
    if d < 0:
        g = -g
    if g != 1:
        n //= g
        d //= g
    return _rational(n, d)


def _q_sum(na: int, da: int, nb: int, db: int) -> Fraction:
    """na/da + nb/db for normalised pairs, by the gcd-reduced sum of
    CPython 3.12's ``fractions``: a common factor can only come from
    gcd(da, db)."""
    g = math.gcd(da, db)
    if g == 1:
        return _rational(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = math.gcd(t, g)
    if g2 == 1:
        return _rational(t, s * db)
    return _rational(t // g2, s * (db // g2))


def _q_add(a, b) -> Fraction:
    return _q_sum(a.numerator, a.denominator, b.numerator, b.denominator)


def _q_sub(a, b) -> Fraction:
    return _q_sum(a.numerator, a.denominator, -b.numerator, b.denominator)


def _q_mul(a, b) -> Fraction:
    """a*b with each numerator reduced against the other's denominator."""
    na, da = a.numerator, a.denominator
    nb, db = b.numerator, b.denominator
    g1 = math.gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = math.gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    return _rational(na * nb, da * db)


def _q_neg(a) -> Fraction:
    return _rational(-a.numerator, a.denominator)


def _q_inv(a) -> Fraction:
    """1/a; ZeroDivisionError for a = 0, as ``1 / Fraction(0)`` raises."""
    n, d = a.numerator, a.denominator
    if n > 0:
        return _rational(d, n)
    if n < 0:
        return _rational(-d, -n)
    raise ZeroDivisionError("Fraction(1, 0)")


def _cleared(xs):
    """(v, d): integers v and one denominator d > 0 with xs = v / d; each
    entry (a Fraction or an int) is read once."""
    pairs = [x.as_integer_ratio() for x in xs]
    d = math.lcm(*[e for _, e in pairs])
    if d == 1:
        return [n for n, _ in pairs], 1
    return [n * (d // e) for n, e in pairs], d


def _cleared_rows(A):
    """(M, d): an integer matrix M and one denominator d > 0 with A = M / d."""
    flat, d = _cleared([x for row in A for x in row])
    ncols = len(A[0]) if A else 0
    return [flat[i * ncols:(i + 1) * ncols] for i in range(len(A))], d


def _int_matmul(A, B):
    """The product of two integer matrices."""
    mul = operator.mul
    cols = list(zip(*B))
    return [[sum(map(mul, row, col)) for col in cols] for row in A]


def _primitive(xs: list) -> list:
    """The primitive integer multiple, with positive leading coefficient, of
    the rationals (or ints) xs, not all zero."""
    ints, _ = _cleared(xs)
    g = math.gcd(*ints) if ints[-1] > 0 else -math.gcd(*ints)
    return [c // g for c in ints]


def _pseudo_remainder(a: list, b: list) -> list:
    """The remainder of lc(b)^k * a by b for the integer polynomials a and
    b, trimmed, with one factor lc(b) per nonzero division step, so that
    it stays integral."""
    d, lead, low = len(b) - 1, b[-1], b[:-1]
    r = list(a)
    while len(r) > d:
        c = r.pop()
        if c:
            k = len(r) - d
            r = [x * lead for x in r]
            r[k:] = [x - c * y for x, y in zip(r[k:], low)]
    while r and not r[-1]:
        r.pop()
    return r


class RationalKernel(GenericKernel):
    """Q on integers.  A dot product, matrix product or matrix-vector
    product clears each row and each column to integers over one lcm
    denominator, so an entry costs one integer dot product and one
    ``_ratio``; ``matvec_fn`` clears the fixed matrix's rows once.  The
    chain products (``matmul_chain``, ``commutator_chain``) clear each
    operand once, to an integer matrix over one denominator, multiply and
    subtract on ints, and normalise each entry of the result with one
    ``_ratio``, not every entry of every intermediate product.  The zero
    test is ``0 == a``, which takes Fraction.__eq__'s int branch instead
    of its ``numbers.Rational`` check.  ``echelon`` is fraction-free
    Gauss-Jordan on primitive integer rows, with the pivot rule of the
    generic kernel; it returns the same rows: normalised pivot rows and,
    past them, the reduced non-pivot rows at their true scale.  A product
    mod g, the product of Q(alpha), is the generic list product and
    division: number-field solves make few of them.  ``fraction`` is the
    rep type, which ``Field.__call__`` and ``kth_roots`` build Q's values
    with."""

    __slots__ = ()
    fraction = Fraction

    def __init__(self, field: "Field"):
        super().__init__(field)
        self.is_zero = functools.partial(operator.eq, 0)

    def dot(self, xs, ys):
        u, du = _cleared(xs)
        v, dv = _cleared(ys)
        return _ratio(sum(map(operator.mul, u, v)), du * dv)

    def matmul(self, A, B):
        mul = operator.mul
        cols = [_cleared(col) for col in zip(*B)]
        out = []
        for row in A:
            u, du = _cleared(row)
            out.append([_ratio(sum(map(mul, u, v)), du * dv) for v, dv in cols])
        return out

    def matmul_chain(self, mats):
        acc, den = _cleared_rows(mats[0])
        for M in mats[1:]:
            ints, d = _cleared_rows(M)
            acc, den = _int_matmul(acc, ints), den * d
        return [[_ratio(x, den) for x in row] for row in acc]

    def commutator_chain(self, pairs):
        acc, den = None, 1
        for X, Y in pairs:
            (x, dx), (y, dy) = _cleared_rows(X), _cleared_rows(Y)
            c = [list(map(operator.sub, r, s))
                 for r, s in zip(_int_matmul(x, y), _int_matmul(y, x))]
            acc, den = (c if acc is None else _int_matmul(acc, c)), den * dx * dy
        return [[_ratio(x, den) for x in row] for row in acc]

    def matvec_fn(self, A):
        mul = operator.mul
        rows = [_cleared(row) for row in A]

        def apply(v):
            u, du = _cleared(v)
            return [_ratio(sum(map(mul, r, u)), dr * du) for r, dr in rows]
        return apply

    def poly_gcd(self, a, b):
        """By the primitive remainder sequence (von zur Gathen and Gerhard,
        Modern Computer Algebra, 6.12): both inputs are cleared to primitive
        integer polynomials, and each pseudo-remainder loses its content, so
        the coefficients stay integers of the gcd's size; the last nonzero
        remainder is made monic."""
        a, b = (_primitive(a) if a else []), (_primitive(b) if b else [])
        while b:
            r = _pseudo_remainder(a, b)
            a, b = b, (_primitive(r) if r else [])
        return [_ratio(c, a[-1]) for c in a]

    def echelon(self, rows, ncols: int = None) -> list:
        nrows = len(rows)
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        # row i is scales[i] * ints[i], with ints[i] primitive (or zero)
        ints, scales = [], []
        for row in rows:
            v, d = _cleared(row)
            g = math.gcd(*v)
            ints.append([a // g for a in v] if g > 1 else v)
            scales.append(_ratio(g, d))
        pivots = []
        r = 0
        for c in range(ncols):
            for piv in range(r, nrows):
                if ints[piv][c]:
                    break
            else:
                continue
            ints[r], ints[piv] = ints[piv], ints[r]
            scales[r], scales[piv] = scales[piv], scales[r]
            prow = ints[r]
            p = prow[c]
            # rows at and below r vanish left of c, the pivot row included
            tail = prow[c:]
            for rr in range(nrows):
                f = ints[rr][c]
                if not f or rr == r:
                    continue
                row = ints[rr]
                new = [a * p for a in row[:c]]
                new += [a * p - f * b for a, b in zip(row[c:], tail)]
                g = math.gcd(*new)
                ints[rr] = [a // g for a in new] if g > 1 else new
                if rr > r:
                    # (s/p)(p*v - f*w) = (s*g/p) * new/g; rows above r
                    # are pivot rows, whose scale the normalisation drops
                    s = scales[rr]
                    scales[rr] = _ratio(s.numerator * g, s.denominator * p)
            pivots.append(c)
            r += 1
            if r == nrows:
                break
        for i, c in enumerate(pivots):
            p = ints[i][c]
            rows[i] = [_ratio(a, p) for a in ints[i]]
        for i in range(r, nrows):
            sn, sd = scales[i].numerator, scales[i].denominator
            rows[i] = [_ratio(sn * a, sd) for a in ints[i]]
        return pivots
