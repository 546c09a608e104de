"""Univariate polynomials over a Field.

Coefficients are stored low degree first with no trailing zeros; the zero
polynomial has an empty coefficient tuple.  Evaluation accepts anything with
ring operations (field elements and square matrices), so ``p(A)`` works.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .errors import DescriptorMismatch, UsageError, ZeroPolynomial
from .fields import Field, FieldElement

# Durand-Kerner sweeps ``approx_roots`` makes at most.
APPROX_ROOT_ITERATIONS = 400


class Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Sequence = ()):
        elems = [field(c) for c in coeffs]
        while elems and elems[-1].is_zero():
            elems.pop()
        self.field = field
        self.coeffs = tuple(elems)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _from_raw(field: Field, raws) -> "Poly":
        """Wrap trimmed raw coefficients (the kernel's output) without coercion."""
        p = object.__new__(Poly)
        p.field = field
        p.coeffs = field.wrap(raws)
        return p

    def _raw(self) -> list:
        return [c.rep for c in self.coeffs]

    @staticmethod
    def zero(field: Field) -> "Poly":
        return Poly(field, ())

    @staticmethod
    def one(field: Field) -> "Poly":
        return Poly(field, (field.one(),))

    @staticmethod
    def x(field: Field) -> "Poly":
        return Poly(field, (field.zero(), field.one()))

    @staticmethod
    def constant(c: FieldElement) -> "Poly":
        return Poly(c.field, (c,))

    @staticmethod
    def from_roots(field: Field, roots) -> "Poly":
        out = Poly.one(field)
        x = Poly.x(field)
        for r in roots:
            out = out * (x - Poly.constant(field(r)))
        return out

    # -- inspection ---------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one()

    def leading(self) -> FieldElement:
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, i: int) -> FieldElement:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.field.zero()

    def __iter__(self) -> Iterator[FieldElement]:
        return iter(self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, Poly) and other.field.key == self.field.key
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((self.field.key, self.coeffs))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            if i == 0:
                parts.append(f"{c!r}")
            elif i == 1:
                parts.append(f"{c!r}*T")
            else:
                parts.append(f"{c!r}*T^{i}")
        return " + ".join(reversed(parts))

    def sort_key(self):
        return (self.degree, tuple(c.sort_key() for c in self.coeffs))

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "Poly"):
        if not isinstance(other, Poly):
            raise UsageError(f"expected a Poly operand, got {type(other).__name__}")
        if other.field.key != self.field.key:
            raise DescriptorMismatch("polynomials over different fields")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        return Poly._from_raw(self.field,
                              self.field.kernel.poly_add(self._raw(), other._raw()))

    def __sub__(self, other: "Poly") -> "Poly":
        self._check(other)
        return Poly._from_raw(self.field,
                              self.field.kernel.poly_sub(self._raw(), other._raw()))

    def __neg__(self) -> "Poly":
        return Poly(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            return self.scale(other)
        self._check(other)
        return Poly._from_raw(self.field,
                              self.field.kernel.poly_mul(self._raw(), other._raw()))

    def scale(self, c: FieldElement) -> "Poly":
        kern = self.field.kernel
        return Poly._from_raw(self.field,
                              kern.poly_trim(kern.vscale(self._raw(), self.field(c).rep)))

    def __pow__(self, k: int) -> "Poly":
        if not isinstance(k, int):
            raise UsageError(f"polynomial powers need an int exponent, got {type(k).__name__}")
        if k < 0:
            raise UsageError("negative polynomial power")
        result = Poly.one(self.field)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:  # the last squaring would go unused
                base = base * base
        return result

    def divmod(self, other: "Poly") -> tuple:
        self._check(other)
        quot, rem = self.field.kernel.poly_divmod(self._raw(), other._raw())
        return Poly._from_raw(self.field, quot), Poly._from_raw(self.field, rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def monic(self) -> "Poly":
        if self.is_zero():
            raise ZeroPolynomial("cannot normalise the zero polynomial")
        return self.scale(self.leading().inverse())

    def derivative(self) -> "Poly":
        field = self.field
        out = []
        for i in range(1, len(self.coeffs)):
            mult = field(i)
            out.append(self.coeffs[i] * mult)
        return Poly(field, out)

    def gcd(self, other: "Poly") -> "Poly":
        """The monic gcd.  Over exact kinds every remainder is made monic,
        which keeps Q coefficients small; R and C divide as they come."""
        self._check(other)
        kern = self.field.kernel
        exact = self.field.is_exact
        a, b = self._raw(), other._raw()
        while b:
            if exact:
                b = kern.vscale(b, kern.inv(b[-1]))
            a, b = b, kern.poly_divmod(a, b)[1]
        if not a:
            return Poly.zero(self.field)
        return Poly._from_raw(self.field, a).monic()

    def lcm(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.field)
        return ((self * other) // self.gcd(other)).monic()

    def pow_mod(self, e: int, mod: "Poly") -> "Poly":
        self._check(mod)
        return Poly._from_raw(self.field,
                              self.field.kernel.poly_powmod(self._raw(), e, mod._raw()))

    def __call__(self, x):
        """Horner evaluation; x may be a FieldElement or a square Matrix."""
        if isinstance(x, FieldElement):
            acc = self.field.zero()
            for c in reversed(self.coeffs):
                acc = acc * x + c
            return acc
        # matrix argument
        from .matrices import Matrix

        if not isinstance(x, Matrix):
            raise UsageError(f"cannot evaluate polynomial at {type(x)!r}")
        if x.nrows != x.ncols:
            raise UsageError("polynomials are evaluated at square matrices only")
        field, n = x.field, x.nrows
        kern, radd = field.kernel, field._radd
        X = x._raw()
        coeffs = [field(c).rep for c in reversed(self.coeffs)]
        # Horner: acc <- acc*X + c*I, starting from the zero matrix; over
        # exact kinds the first product (c*I)*X is c*X, so it is skipped
        acc = [[field._zero_raw] * n for _ in range(n)]
        for k, c in enumerate(coeffs):
            if k == 1 and kern.exact:
                acc = [kern.vscale(row, coeffs[0]) for row in X]
            elif k:
                acc = kern.matmul(acc, X)
            for i in range(n):
                acc[i][i] = radd(acc[i][i], c)
        return Matrix._from_raw(field, acc)


def approx_roots(p: Poly) -> list:
    """All complex roots of a real/complex-coefficient polynomial by the
    Durand-Kerner iteration.  Desk-scale degrees only."""
    if p.degree < 1:
        return []
    coeffs = [complex(c.rep) for c in p.coeffs]
    lead = coeffs[-1]
    coeffs = [c / lead for c in coeffs]
    n = len(coeffs) - 1
    scale = 1.0 + max(abs(c) for c in coeffs[:-1])
    roots = [(0.4 + 0.9j) ** k * scale for k in range(1, n + 1)]

    def ev(z):
        acc = 0j
        for c in reversed(coeffs):
            acc = acc * z + c
        return acc

    for _ in range(APPROX_ROOT_ITERATIONS):
        moved = 0.0
        new = []
        for i, z in enumerate(roots):
            denom = 1.0 + 0j
            for j, w in enumerate(roots):
                if i != j:
                    denom *= (z - w)
            if denom == 0:
                denom = 1e-30
            step = ev(z) / denom
            new.append(z - step)
            moved = max(moved, abs(step))
        roots = new
        if moved < 1e-14 * scale:
            break
    return roots
