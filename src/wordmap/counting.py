"""Quantitative layer: exact solution counts for diagonal equations over
finite fields, the Lang-Weil style bound that controls them, the scalar
threshold q > k1^4 * k2^4, and exhaustive image enumeration for word maps on
small matrix spaces (the oracle the solvers are tested against).  The
enumeration walks ``matrices.MatrixSpace``, the one enumeration of M_n(F_q);
its code order decides which matrices ``ImageSummary.missing`` lists.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Tuple

from .errors import TooLarge, UsageError
from .fields import Field, FieldElement, enumerate_elements
from .matrices import Matrix, MatrixSpace
from .words import CommutatorProduct, DiagonalWord

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
    if not field.is_finite:
        raise UsageError("counting needs a finite field")
    coeffs = [field(c) for c in coefficients]
    ks = [int(k) for k in exponents]
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

    Values are ``MatrixSpace`` codes.  Product words enumerate
    single-commutator values once and compose value sets; diagonal words
    compose per-term value sets, so the tuple count never materialises.
    ``missing`` lists the first ten non-values in the space's code order.
    """
    if not field.is_finite:
        raise UsageError("image enumeration needs a finite field")
    cells = MatrixSpace.cardinality(field, n)
    work = cells ** 2 if word.arity >= 2 else cells
    if work > cap:
        raise TooLarge(f"enumeration needs about {work} evaluations, over the cap {cap}")
    space = MatrixSpace(field, n)
    kern = field.kernel
    code, rows_at = space.code, space.rows_at
    if isinstance(word, CommutatorProduct):
        mats = list(space.rows())
        singles = set()
        for X in mats:
            for Y in mats:
                singles.add(code([kern.vsub(a, b) for a, b in
                                  zip(kern.matmul(X, Y), kern.matmul(Y, X))]))
        single_rows = [rows_at(c) for c in singles]
        image = singles
        for _ in range(word.m // 2 - 1):
            image = {code(kern.matmul(A, B))
                     for A in map(rows_at, image) for B in single_rows}
    elif isinstance(word, DiagonalWord):
        image = None
        for delta, k in word.terms:
            d = delta.rep
            values = {code([kern.vscale(row, d) for row in kern.matpow(M, k)])
                      for M in space.rows()}
            if image is None:
                image = values
            else:
                value_rows = [rows_at(c) for c in values]
                image = {code([kern.vadd(a, b) for a, b in zip(A, B)])
                         for A in map(rows_at, image) for B in value_rows}
    else:
        raise UsageError(f"unknown word {word!r}")
    missing = []
    if len(image) != cells:
        for c in range(cells):
            if c not in image:
                missing.append(space.matrix_at(c))
                if len(missing) == 10:
                    break
    return ImageSummary(len(image), cells, tuple(missing))
