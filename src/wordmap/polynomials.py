"""Univariate polynomials over a Field.

``Poly.reps`` holds the coefficients as one tuple of raw reps, the kernel's
format, low degree first with no trailing zeros; the zero polynomial has
an empty tuple.  ``coeffs``, ``p[i]``, ``leading`` and iteration wrap
coefficients as FieldElements when they are read.  Evaluation accepts
field elements and square matrices, so ``p(A)`` works.
"""

from __future__ import annotations

import functools
from typing import Iterator, Sequence

from .errors import DescriptorMismatch, UsageError, ZeroPolynomial
from .fields import Field, FieldElement, _binary_power, require_field

# Durand-Kerner sweeps ``approx_roots`` makes at most.
APPROX_ROOT_ITERATIONS = 400

# Degrees whose generated Durand-Kerner sweeps ``_durand_kerner`` keeps.
SWEEP_CACHE_SIZE = 16


def require_poly(value) -> None:
    """Refuse an argument that is not a Poly."""
    if not isinstance(value, Poly):
        raise UsageError(f"expected a Poly, got {type(value).__name__}")


class Poly:
    __slots__ = ("field", "reps")

    def __init__(self, field: Field, coeffs: Sequence = ()):
        require_field(field)
        if not isinstance(coeffs, (list, tuple)):
            raise UsageError(f"coefficients are a list or tuple, got {coeffs!r}")
        reps = [field(c).rep for c in coeffs]
        while reps and field.kernel.is_zero(reps[-1]):
            reps.pop()
        self.field = field
        self.reps = tuple(reps)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _from_raw(field: Field, raws) -> "Poly":
        """The one internal constructor: trimmed raw coefficients of
        ``field`` (kernel output), stored without a check."""
        p = object.__new__(Poly)
        p.field = field
        p.reps = tuple(raws)
        return p

    @staticmethod
    def zero(field: Field) -> "Poly":
        return Poly._from_raw(field, ())

    @staticmethod
    def one(field: Field) -> "Poly":
        return Poly._from_raw(field, (field._one_raw,))

    @staticmethod
    def x(field: Field) -> "Poly":
        return Poly._from_raw(field, (field._zero_raw, field._one_raw))

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
    def coeffs(self) -> tuple:
        """The coefficients as FieldElements, low degree first."""
        return self.field.wrap(self.reps)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.reps) - 1

    def is_zero(self) -> bool:
        return not self.reps

    def is_monic(self) -> bool:
        return bool(self.reps) and self.reps[-1] == self.field._one_raw

    def leading(self) -> FieldElement:
        if not self.reps:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.field.element(self.reps[-1])

    def __getitem__(self, i: int) -> FieldElement:
        if 0 <= i < len(self.reps):
            return self.field.element(self.reps[i])
        return self.field.zero()

    def __iter__(self) -> Iterator[FieldElement]:
        return iter(self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, Poly) and other.field.key == self.field.key
                and other.reps == self.reps)

    def __hash__(self):
        return hash((self.field.key, self.reps))

    def __repr__(self):
        if not self.reps:
            return "0"
        field = self.field
        parts = []
        for i, c in enumerate(self.reps):
            if field.kernel.is_zero(c):
                continue
            c = field.format_raw(c)
            if i == 0:
                parts.append(c)
            elif i == 1:
                parts.append(f"{c}*T")
            else:
                parts.append(f"{c}*T^{i}")
        return " + ".join(reversed(parts))

    def sort_key(self):
        return (self.degree, tuple(map(self.field.sort_key_raw, self.reps)))

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "Poly"):
        if not isinstance(other, Poly):
            raise UsageError(f"expected a Poly operand, got {type(other).__name__}")
        if other.field.key != self.field.key:
            raise DescriptorMismatch("polynomials over different fields")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        return Poly._from_raw(self.field, self.field.kernel.poly_add(self.reps, other.reps))

    def __sub__(self, other: "Poly") -> "Poly":
        self._check(other)
        return Poly._from_raw(self.field, self.field.kernel.poly_sub(self.reps, other.reps))

    def __neg__(self) -> "Poly":
        return Poly._from_raw(self.field, map(self.field._rneg, self.reps))

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            return self.scale(other)
        self._check(other)
        return Poly._from_raw(self.field, self.field.kernel.poly_mul(self.reps, other.reps))

    def scale(self, c: FieldElement) -> "Poly":
        kern = self.field.kernel
        return Poly._from_raw(self.field,
                              kern.poly_trim(kern.vscale(self.reps, self.field(c).rep)))

    def __pow__(self, k: int) -> "Poly":
        if not isinstance(k, int):
            raise UsageError(f"polynomial powers need an int exponent, got {type(k).__name__}")
        if k < 0:
            raise UsageError("negative polynomial power")
        return _binary_power(Poly.__mul__, self, k, Poly.one(self.field))

    def divmod(self, other: "Poly") -> tuple:
        self._check(other)
        quot, rem = self.field.kernel.poly_divmod(self.reps, other.reps)
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
        return Poly._from_raw(self.field, self.field.kernel.poly_derivative(self.reps))

    def gcd(self, other: "Poly") -> "Poly":
        """The monic gcd (``poly_gcd`` of the field's kernel)."""
        self._check(other)
        return Poly._from_raw(self.field, self.field.kernel.poly_gcd(self.reps, other.reps))

    def lcm(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.field)
        return ((self * other) // self.gcd(other)).monic()

    def __call__(self, x):
        """Horner evaluation; x may be a FieldElement or a square Matrix."""
        if isinstance(x, FieldElement):
            acc = self.field.zero()
            for c in reversed(self.reps):
                acc = acc * x + self.field.element(c)
            return acc
        # matrix argument
        from .matrices import Matrix

        if not isinstance(x, Matrix):
            raise UsageError(f"cannot evaluate polynomial at {type(x)!r}")
        if x.nrows != x.ncols:
            raise UsageError("polynomials are evaluated at square matrices only")
        field, n = x.field, x.nrows
        if self.reps and field.key != self.field.key:
            raise DescriptorMismatch(f"cannot coerce {self.field} into {field}")
        kern, radd = field.kernel, field._radd
        X = x.reps
        coeffs = self.reps[::-1]
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
    Durand-Kerner iteration.  Desk-scale degrees only.

    The sweeps run in ``_durand_kerner(n)``, code generated once per degree
    n: the textbook loop (``ref_durand_kerner`` in the tests) unrolled, so
    that a sweep pays for its complex operations and not for nested loops,
    slices and list appends.  It makes the loop's complex operations in the
    loop's order on the loop's operand types, and no summation helper,
    whose rounding may depend on the interpreter, so the returned floats
    are the same bits."""
    if p.degree < 1:
        return []
    coeffs = [complex(c) for c in p.reps]
    lead = coeffs[-1]
    coeffs = [c / lead for c in coeffs]
    n = len(coeffs) - 1
    scale = 1.0 + max(map(abs, coeffs[:-1]))
    roots = [(0.4 + 0.9j) ** k * scale for k in range(1, n + 1)]
    return _durand_kerner(n)(roots, coeffs[::-1], 1e-14 * scale)


@functools.lru_cache(maxsize=SWEEP_CACHE_SIZE)
def _durand_kerner(n: int):
    """(roots, coefficients top down, tol) -> roots: the Jacobi sweeps of
    Durand-Kerner for degree n as straight-line statements, none nested
    deeper for a higher degree, so any degree compiles.  Per root z_i of a
    sweep, the denominator is d = ONE, then d = d * (z_i - z_j) for each
    j != i in ascending order (1e-30, a float, when it is 0) and the value
    h = ZERO, then h = h * z_i + c_k from the top coefficient down; every
    root moves by its step h / d after all steps are made.  The sweeps stop
    once the largest step is below tol; ``max`` starting from 0.0 passes
    over NaN steps, as a running maximum from 0.0 does."""
    z = [f"z{i}" for i in range(n)]
    lines = ["def sweeps(roots, top_down, tol):",
             f"    {', '.join(z)}, = roots",
             f"    {', '.join(f'c{k}' for k in range(n + 1))}, = top_down",
             f"    for _ in range({APPROX_ROOT_ITERATIONS}):"]
    for i in range(n):
        lines += ["        d = ONE"]
        lines += [f"        d = d * (z{i} - z{j})" for j in range(n) if j != i]
        lines += ["        if d == 0:", "            d = 1e-30", "        h = ZERO"]
        lines += [f"        h = h * z{i} + c{k}" for k in range(n + 1)]
        lines += [f"        s{i} = h / d"]
    lines += [f"        z{i} = z{i} - s{i}" for i in range(n)]
    lines += [f"        if max(0.0, {', '.join(f'abs(s{i})' for i in range(n))}) < tol:",
              "            break",
              f"    return [{', '.join(z)}]"]
    namespace = {"ONE": 1.0 + 0j, "ZERO": 0j}
    exec("\n".join(lines), namespace)
    return namespace["sweeps"]
