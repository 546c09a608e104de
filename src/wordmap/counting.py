"""Quantitative layer: exact solution counts for diagonal equations over
finite fields, the Lang-Weil style bound that controls them, the scalar
threshold q > k1^4 * k2^4, and exhaustive image enumeration for word maps on
small matrix spaces (the oracle the solvers are tested against).  For
n >= 2 the enumeration computes on ``matrices.MatrixSpace``'s byte
planes, every matrix of M_n(F_q) at once; at n = 1 it reads the image off
scalar value sets.  The space's code order (at n = 1, the order of
``enumerate_elements``) decides which matrices ``ImageSummary.missing``
lists.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass
from typing import Tuple

from .errors import TooLarge, UsageError
from .fields import Field, FieldElement, enumerate_elements, require_field
from .matrices import Matrix, MatrixSpace
from .words import CommutatorProduct, DiagonalWord, require_int

DEFAULT_CAP = 2 * 10 ** 8


@dataclass(frozen=True)
class CountReport:
    q: int
    m: int
    exponents: Tuple[int, ...]
    coefficients: tuple
    gamma: FieldElement
    count: int
    expected: int
    bound: float
    passes: bool

    def csv_row(self) -> str:
        """One RFC 4180 record; fields holding commas (tower elements print
        as [a,b]) are quoted, everything else is written bare."""
        ks = ";".join(str(k) for k in self.exponents)
        ds = ";".join(repr(d) for d in self.coefficients)
        out = io.StringIO()
        csv.writer(out, lineterminator="").writerow(
            [self.q, self.m, ks, ds, repr(self.gamma), self.count, self.expected,
             f"{self.bound:.6f}", str(self.passes).lower()])
        return out.getvalue()


CSV_HEADER = "q,m,k_list,delta_list,gamma,S,expected,bound,pass"


@dataclass(frozen=True)
class ThresholdReport:
    k1: int
    k2: int
    threshold: int
    note: str = ("existence constant for the full matrix statement is certified "
                 "per-q by direct search; only the scalar threshold has a closed form")


def threshold(k1: int, k2: int) -> ThresholdReport:
    """Scalar two-solution threshold: q > k1^4 * k2^4 suffices."""
    require_int(k1, "k1")
    require_int(k2, "k2")
    if k1 < 1 or k2 < 1:
        raise UsageError("exponents must be positive")
    return ThresholdReport(k1, k2, k1 ** 4 * k2 ** 4)


def lang_weil_bound(q: int, exponents) -> float:
    """k1*...*km * q^{(m-1)/2} * (1 - 1/q)^{-m/2}."""
    m = len(exponents)
    prod = 1.0
    for k in exponents:
        prod *= k
    return prod * q ** ((m - 1) / 2.0) * (1.0 - 1.0 / q) ** (-m / 2.0)


def count_solutions(field: Field, coefficients, exponents, gamma,
                    cap: int = DEFAULT_CAP) -> CountReport:
    """Exact number of solutions of sum_i delta_i x_i^{k_i} = gamma in F_q^m,
    with the bound check |S - q^{m-1}| <= bound."""
    require_field(field)
    if not field.is_finite:
        raise UsageError("counting needs a finite field")
    require_int(cap, "cap")
    coeffs = [field(c) for c in coefficients]
    ks = list(exponents)
    for k in ks:
        require_int(k, "an exponent")
    if len(coeffs) != len(ks) or not ks:
        raise UsageError("coefficients and exponents must align and be nonempty")
    gamma = field(gamma)
    q = field.cardinality
    m = len(ks)
    if q ** m > cap:
        raise TooLarge(f"q^m = {q ** m} exceeds the cap {cap}")
    folded = None
    for delta, k in zip(coeffs, ks):
        counter = {}
        for x in enumerate_elements(field):
            v = (delta * x ** k).rep
            counter[v] = counter.get(v, 0) + 1
        if folded is None:
            folded = counter
            continue
        nxt = {}
        for v1, c1 in folded.items():
            e1 = field.element(v1)
            for v2, c2 in counter.items():
                key = (e1 + field.element(v2)).rep
                nxt[key] = nxt.get(key, 0) + c1 * c2
        folded = nxt
    S = folded.get(gamma.rep, 0)
    expected = q ** (m - 1)
    bound = lang_weil_bound(q, ks)
    passes = abs(S - expected) <= bound + 1e-9
    return CountReport(q, m, tuple(ks), tuple(coeffs), gamma, S, expected,
                       bound, passes)


@dataclass(frozen=True)
class ImageSummary:
    size: int
    total: int
    missing: Tuple[Matrix, ...]  # up to 10 witnesses of non-surjectivity

    @property
    def surjective(self) -> bool:
        return self.size == self.total


def image_enumerate(word, n: int, field: Field, cap: int = DEFAULT_CAP) -> ImageSummary:
    """Exact image of the word map on M_n(F_q)^m by exhaustive enumeration.

    At n = 1 the image is a set of scalars: a commutator is 0, and a
    diagonal word's values are the sumset of the sets {delta x^k} of its
    terms.  For n >= 2 values are ``MatrixSpace`` codes, computed on its
    digit planes (one byte per matrix and entry): a diagonal term's values
    are its power planes times its coefficient; a sumset adds each value
    of the smaller set to the planes of the larger; [X, Y] is linear in Y,
    so each X gives [X, Y] for every Y, X running over one matrix per
    class of X + cI and cX; a product of commutators multiplies each
    element of the smaller factor set into the planes of the larger.  The
    cap still bounds ``work``, the evaluations of a walk over every tuple.
    ``missing`` is read off the set of values in code order (at n = 1,
    ``enumerate_elements`` order): the first ten non-values, whatever
    order the values were computed in.
    """
    if not isinstance(word, (CommutatorProduct, DiagonalWord)):
        raise UsageError(f"image_enumerate takes a word, got {word!r}")
    require_field(field)
    require_int(n, "n")
    if not field.is_finite:
        raise UsageError("image enumeration needs a finite field")
    require_int(cap, "cap")
    cells = MatrixSpace.cardinality(field, n)
    work = cells ** 2 if word.arity >= 2 else cells
    if work > cap:
        raise TooLarge(f"enumeration needs about {work} evaluations, over the cap {cap}")
    if n == 1:
        return _scalar_image(word, field)
    space = MatrixSpace(field, n)
    if isinstance(word, CommutatorProduct):
        singles = _commutators(space)
        image = singles
        for _ in range(word.m // 2 - 1):
            image = _products(space, image, singles)
    else:
        image = None
        for delta, k in word.terms:
            d = space.digit(delta.rep)
            values = set()
            for planes in space.blocks():
                values.update(space.codes([space.scale(P, d) for P in space.power(planes, k)]))
            image = values if image is None else _sumset(space, image, values)
    missing = []
    if len(image) != cells:
        for c in range(cells):
            if c not in image:
                missing.append(space.matrix_at(c))
                if len(missing) == 10:
                    break
    return ImageSummary(len(image), cells, tuple(missing))


def _scalar_image(word, field: Field) -> ImageSummary:
    """The image on M_1(F_q) = F_q: {0} for a commutator word, and for a
    diagonal word the sumset of its terms' value sets {delta x^k}, each
    element of the smaller side adding the larger side in turn until the
    sums are all of F_q; ``missing`` in ``enumerate_elements`` order."""
    elems = list(enumerate_elements(field))
    image = {field._zero_raw}  # every 1x1 commutator, and the empty sum
    for delta, k in (word.terms if isinstance(word, DiagonalWord) else ()):
        few, many = sorted((image, {(delta * x ** k).rep for x in elems}), key=len)
        image = set()
        for a in few:
            image.update(field._radd(a, b) for b in many)
            if len(image) == len(elems):
                break
    outside = (x.rep for x in elems if x.rep not in image)
    missing = tuple(Matrix._from_raw(field, [[r]]) for r in itertools.islice(outside, 10))
    return ImageSummary(len(image), len(elems), missing)


def _commutators(space: MatrixSpace) -> set:
    """Codes of every [X, Y]: entry (i, j) is sum_k X_ik Y_kj - Y_ik X_kj.
    As [X + cI, Y] = [X, Y] and [cX, Y] = [X, cY], the X with last entry
    zero and first nonzero entry one already give every value."""
    n, Y = space.n, space.planes()
    neg = space.table(space.field._rneg)
    out = set()
    for x in range(0, space.size, space.q):
        X = space.digits_at(x)
        if next((d for d in X if d != space.zero), space.one) != space.one:
            continue
        out.update(space.codes([
            space.lincomb([(X[i * n + k], Y[k * n + j]) for k in range(n)]
                          + [(neg[X[k * n + j]], Y[i * n + k]) for k in range(n)], space.size)
            for i in range(n) for j in range(n)]))
    return out


def _products(space: MatrixSpace, left: set, right: set) -> set:
    """Codes of every A B with A in ``left`` and B in ``right``: each element
    of the smaller set, as a constant, times the planes of the larger.  It
    stops once the products are all of M_n(F_q)."""
    n = space.n
    const_left = len(left) <= len(right)
    consts, many = (left, right) if const_left else (right, left)
    P = space.select(space.planes(), list(many))
    out = set()
    for c in consts:
        C = space.digits_at(c)
        out.update(space.codes([
            space.lincomb([(C[i * n + k], P[k * n + j]) if const_left else
                           (C[k * n + j], P[i * n + k]) for k in range(n)], len(many))
            for i in range(n) for j in range(n)]))
        if len(out) == space.size:
            break
    return out


def _sumset(space: MatrixSpace, first: set, second: set) -> set:
    """Codes of every A + B with A in ``first`` and B in ``second``; it
    stops once the sums are all of M_n(F_q)."""
    few, many = sorted((first, second), key=len)
    planes = space.select(space.planes(), list(many))
    out = set()
    for v in few:
        out.update(space.codes([space.shift(P, d) for P, d in zip(planes, space.digits_at(v))]))
        if len(out) == space.size:
            break
    return out
