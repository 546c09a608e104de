"""Coefficient fields: F_p, one-step extensions, Q, and approximate R/C.

A :class:`Field` instance owns the raw representation of its elements and a
set of raw arithmetic closures; :class:`FieldElement` is a thin wrapper that
overloads the operators.  Raw representations:

  prime      int in [0, p)
  ext        tuple of base raws, low degree first, fixed length d
  rationals  fractions.Fraction (always normalised)
  real       float
  complex    complex

The rational core.  Q's element closures and RationalKernel live in
``wordmap.rationals``, which ``Field("rationals")`` imports when Q's field
is first built: a process over F_p, R or C loads neither it nor
``fractions``.  Q's field is kept in the field table like F_p's, and
``RATIONALS`` (a module attribute made on first read, PEP 562) is that
one field.

Kernel layer.  Each field also builds one immutable raw kernel
(``Field.kernel``) that does the dense work on lists of raw reps: dot
products, matrix products and powers, chain products of matrices and of
commutators (``matmul_chain``, ``commutator_chain``), prepared
matrix-vector products (``matvec_fn``), shears E*M*E^-1 (row and column
operations over exact kinds), products P*M*Q*diag(s) by permutation and
diagonal matrices (``reorder``: indexing and scaling over exact kinds;
over R/C each entry is the single term of its dense sum, added to zero
and skipped when its left factor is tolerance-zero, since the sum's other
terms are signed zeros, so the float bits are the dense product's),
in-place reduced row echelon form, and
polynomial add/sub/mul/divmod, the derivative, the monic gcd
(``poly_gcd``), prepared products modulo a fixed g (``poly_mulmod_fn``)
with the modular powers built on them, and the extended gcd.  There are
three implementations, picked by the field kind:

  PrimeKernel     Z/m on plain ints, built from m alone: the kernel of
                  F_p, whose element closures come from it, and of the
                  Z/p^k that Hensel lifting in ``factor`` works in; each
                  dot product or convolution coefficient is summed
                  exactly and reduced mod m once, large enough products,
                  eliminations and products mod g pack a row into one
                  big int (a product mod g of degree 12 over F_101 takes
                  an eighth of the list loops' time), and the gcd
                  takes the usual Euclid step in one pass
  RationalKernel  Q on integers, in ``wordmap.rationals``: dot, matrix
                  and prepared matrix-vector products clear rows and
                  columns to one common denominator (a matvec_fn clears
                  its matrix once),
                  a chain product clears each factor once and
                  normalises each entry of its result once,
                  echelon is fraction-free Gauss-Jordan on primitive
                  integer rows, and the gcd runs on primitive integer
                  remainders; the other ops, the product mod g of
                  Q(alpha) among them, are the generic ones
  GenericKernel   every other kind, through the closures above, in the
                  operation order, zero skips and pivot rules of
                  element-by-element arithmetic, so R/C results are the
                  same floats FieldElement operators give

Every power by squaring (field elements, ``matpow``, ``poly_powmod``,
Poly and whole-space powers) runs one loop, ``_binary_power``; each caller
picks its start, so the products and their order are those of its own
former loop.

Matrix and Poly store raw reps in the kernel's format, so kernel output is
stored as it comes; FieldElements are made only where a caller reads an
entry or a coefficient.  Extension fields have no arithmetic of their own:
their element closures are the base field's kernel ops on coefficient
tuples.  A product is one product mod the modulus from
``poly_mulmod_fn``, prepared when the field is built (over F_p packed
where PrimeKernel's rule allows, over Q and over towers the generic list
product and division), sums and negation are coefficientwise,
and an inverse is the extended gcd with the modulus.

Log tables.  A finite extension with log tables, towers included,
replaces its element closures with Zech-logarithm lookups when it is
constructed (Lidl and Niederreiter, Finite Fields, ch. 2): with g a
primitive element, a product is antilog[log a + log b] and a sum is
antilog[log a + zech[log b - log a]], where g^zech[i] = 1 + g^i.  The
reps stay coefficient tuples, so values and orders do not change; only
the cost of an operation does.  g is the first element in
``enumerate_elements`` order with g^((q-1)/r) != 1 for every prime r |
q-1.  The tables are built once, with about one multiplication by g and
one addition per element, and never change.  Which fields get them is
decided where fields are built (``_interned_field``): a named field
(``GF``, ``parse_field_spec``, ``extend``, ``Field(...)``) when q <=
ELEMENT_TABLE_BOUND, and a Jordan factor's per-solve working field
(``reduction.working_field``) only when the field table keeps it, q <=
FIELD_TABLE_BOUND.  Every other finite extension runs on
the base kernel's ops.  A per-solve F_343 or F_729 does a few hundred
operations, fewer than its tables cost to build (an F_64 solve through
F_{64^2} spent 30 of its 32 ms on them); a named field may serve many
solves, and at q = 343..2187 its solves ran 6-7.5x slower without them.

The scalar layer.  K-th roots and the power-sum searches live in
``wordmap.scalars``, which ``wordmap.diagonal`` imports: building a field
runs none of them.  ``kth_roots`` and ``regular_solution_search`` are
module attributes made on first read (PEP 562), the functions of
``wordmap.scalars`` themselves.

Extensions are a quotient step ``base[t]/(m)`` with ``base`` a finite field
(giving F_{p^d} and towers over F_{p^d}) or Q.  An extension ``Field``
refuses a modulus that is not monic (UsageError) or not irreducible
(ReduciblePolynomial); it is the one place that checks, through
``factor.is_irreducible``, which factors the modulus over every base.
``extend``, ``GF`` and ``parse_field_spec`` rely on that check.  A Jordan
factor's working field skips it: its modulus is an irreducible factor of
chi that ``factor`` found and proved (distinct- and equal-degree splitting,
or Zassenhaus, with the product checked), so one solve proves each modulus
once, and only ``_interned_field``'s ``per_solve`` flag, which
``reduction.working_field`` alone sets, can skip the check.

The field table.  ``_interned_field`` builds each F_p and finite extension
that ``extend``, ``GF``, ``parse_field_spec``, ``reduction.working_field``
and ``factor``'s Zassenhaus step ask for, and keeps the one Field of each
key with at most FIELD_TABLE_BOUND = 256 elements, built once per process,
log tables included; it keeps Q's one field too (``parse_field_spec("Q")``,
``RATIONALS``).  Sharing is safe: a Field never changes after ``__init__``, and
elements compare by ``field is other or key ==``, so a per-solve field and
the named field of the same modulus, one with tables and one without, hold
the same values.  Failed builds, ``Field(...)`` calls, fields past the
bound, Q(alpha), R and C are not stored: at a bound of 4096, one-off F_343
and F_729 fields stayed with their tables (small-fields peak RSS +17-20%).

Approximate kinds carry an explicit tolerance used only when *comparing*
values; every construction stays formula driven.  The tolerance lies in
(0, 1), since from 1 on the one would be tolerance-zero, and the kernel's
``is_zero`` is the one test against it: ``close_raw`` tests a - b, and the
few tests scaled by their operands' size build on the tolerance itself.

The field-spec grammar used by the CLI and the JSON formats:

  Fp:7    Fq:p=2,d=2,mod=[1,1,1]    Q    R:tol=1e-9    C:tol=1e-9
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
import random
import sys
from array import array
from typing import Iterator, Optional

from .errors import (
    DescriptorMismatch,
    DivisionByZero,
    InfiniteField,
    ReduciblePolynomial,
    UnsupportedBase,
    UsageError,
)

# Named finite extensions (GF, parse_field_spec, Field(...)) up to this size
# do their arithmetic by log tables.
ELEMENT_TABLE_BOUND = 1 << 12
# Finite fields up to this size are built once per process, with their log
# tables; a per-solve working field past it gets none (``extend``).
FIELD_TABLE_BOUND = 256


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    # deterministic Miller-Rabin for 64-bit range
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldElement:
    """A value of a :class:`Field`; immutable and hashable."""

    __slots__ = ("field", "rep")

    def __init__(self, field: "Field", rep):
        self.field = field
        self.rep = rep

    def _coerced(self, other):
        if isinstance(other, FieldElement):
            if other.field is self.field or other.field.key == self.field.key:
                return other
            raise DescriptorMismatch(f"{self.field} vs {other.field}")
        return self.field(other)

    def __add__(self, other):
        other = self._coerced(other)
        return FieldElement(self.field, self.field._radd(self.rep, other.rep))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerced(other)
        return FieldElement(self.field, self.field._rsub(self.rep, other.rep))

    def __rsub__(self, other):
        return self._coerced(other).__sub__(self)

    def __mul__(self, other):
        other = self._coerced(other)
        return FieldElement(self.field, self.field._rmul(self.rep, other.rep))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerced(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self._coerced(other).__truediv__(self)

    def __neg__(self):
        return FieldElement(self.field, self.field._rneg(self.rep))

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise UsageError(f"field powers need an int exponent, got {type(k).__name__}")
        f = self.field
        if k < 0:
            return self.inverse() ** (-k)
        return FieldElement(f, f._rpow(self.rep, k))

    def inverse(self) -> "FieldElement":
        # the tolerance governs comparisons; division only refuses exact zero
        if self.rep == self.field._zero_raw:
            raise DivisionByZero(f"inverse of zero in {self.field}")
        return FieldElement(self.field, self.field._rinv(self.rep))

    def is_zero(self) -> bool:
        return self.field.kernel.is_zero(self.rep)

    def is_close(self, other) -> bool:
        """Equality up to the field tolerance (exact equality for exact kinds)."""
        other = self._coerced(other)
        return self.field.close_raw(self.rep, other.rep)

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            try:
                other = self._coerced(other)
            except (UsageError, TypeError, ValueError):
                return NotImplemented
        elif other.field is not self.field and other.field.key != self.field.key:
            return False
        return self.rep == other.rep

    def __hash__(self):
        return hash((self.field.key, self.rep))

    def __repr__(self):
        return self.field.format_raw(self.rep)

    def sort_key(self):
        return self.field.sort_key_raw(self.rep)


def require_field(value) -> None:
    """Refuse an argument that is not a Field."""
    if not isinstance(value, Field):
        raise UsageError(f"expected a Field, got {type(value).__name__}")


def require_element(value) -> None:
    """Refuse an argument that is not a FieldElement."""
    if not isinstance(value, FieldElement):
        raise UsageError(f"expected a FieldElement, got {type(value).__name__}")


def _integer(value) -> int:
    """An int from an int, an integral number (a float, Fraction or
    Decimal), or an integer string; UsageError for anything else, bytes
    included."""
    try:
        n = int(value)
        # bytes are not text, and a number that is not an int must be integral
        if isinstance(value, (bytes, bytearray)) or (
                not isinstance(value, (int, str)) and n != value):
            raise ValueError("not integral")
    except (ValueError, TypeError, OverflowError) as exc:
        raise UsageError(f"not an integer: {value!r}") from exc
    return n


def _binary_power(mul, x, k: int, result=None):
    """x^k by binary powering under the product ``mul``: x's repeated
    squares are multiplied into ``result`` at the set bits of k, from the
    lowest, starting from x itself when result is None (then k >= 1, or the
    answer is None), and the last, unused squaring is skipped."""
    while k:
        if k & 1:
            result = x if result is None else mul(result, x)
        k >>= 1
        if k:
            x = mul(x, x)
    return result


class Field:
    """A coefficient field descriptor plus its raw arithmetic."""

    __slots__ = (
        "kind", "p", "degree", "modulus", "tolerance", "base", "key",
        "_radd", "_rsub", "_rmul", "_rneg", "_rinv", "_zero_raw", "_one_raw",
        "_zero", "_one", "kernel",
    )

    def __init__(self, kind: str, p: int = 0, modulus: tuple = (),
                 tolerance: float = 0.0, base: "Field" = None, *,
                 _per_solve: bool = False):
        self.kind = kind
        self.p = p
        self.base = base
        self.modulus = modulus
        self.tolerance = tolerance
        if kind == "prime":
            if not (isinstance(p, int) and _is_prime(p)):
                raise UsageError(f"{p!r} is not prime")
            self.degree = 1
            self.key = ("prime", p)
            self._zero_raw, self._one_raw = 0, 1
            self.kernel = kern = PrimeKernel(p)
            self._radd, self._rsub, self._rmul = kern.radd, kern.rsub, kern.rmul
            self._rneg, self._rinv = kern.rneg, kern.inv
        elif kind == "ext":
            if not isinstance(base, Field) or not (
                    base.kind in ("prime", "rationals") or (base.kind == "ext" and base.is_finite)):
                raise UnsupportedBase(
                    "extensions are supported over finite fields and Q only")
            d = len(modulus) - 1 if isinstance(modulus, tuple) else 0
            if d < 1 or modulus[-1] != base._one_raw:
                raise UsageError("modulus must be monic of degree >= 1")
            if not _per_solve:  # a Jordan factor is proven by the factorization that found it
                from .factor import is_irreducible  # deferred: factor imports this module
                from .polynomials import Poly

                mod_poly = Poly._from_raw(base, modulus)
                if not is_irreducible(mod_poly):
                    raise ReduciblePolynomial(f"modulus {mod_poly!r} factors over {base!r}")
            self.degree = d
            self.p = base.p
            self.key = ("ext", base.key, modulus)
            self._zero_raw = (base._zero_raw,) * d
            self._one_raw = tuple(
                base._one_raw if i == 0 else base._zero_raw for i in range(d))
            self._install_ext_ops()
            bound = FIELD_TABLE_BOUND if _per_solve else ELEMENT_TABLE_BOUND
            if self.is_finite and self.cardinality <= bound:
                self._install_log_ops(*_log_tables(self))
        elif kind == "rationals":
            from . import rationals  # deferred: Q's core is loaded with Q's field

            self.degree = 1
            self.key = ("rationals",)
            self._zero_raw, self._one_raw = rationals.Fraction(0), rationals.Fraction(1)
            self._radd, self._rsub = rationals._q_add, rationals._q_sub
            self._rmul, self._rneg = rationals._q_mul, rationals._q_neg
            self._rinv = rationals._q_inv
            self.kernel = rationals.RationalKernel(self)
        elif kind in ("real", "complex"):
            if not (isinstance(tolerance, (int, float)) and math.isfinite(tolerance)
                    and tolerance > 0):
                raise UsageError("approximate fields need a finite tolerance > 0")
            if tolerance >= 1:
                raise UsageError(f"tolerance {tolerance!r} would make 1 tolerance-zero; "
                                 "approximate fields need a tolerance below 1")
            self.degree = 1
            self.key = (kind, tolerance)
            cast = float if kind == "real" else complex
            self._zero_raw, self._one_raw = cast(0), cast(1)
            self._install_operator_ops()
        else:
            raise UsageError(f"unknown field kind {kind!r}")
        self._zero = FieldElement(self, self._zero_raw)
        self._one = FieldElement(self, self._one_raw)
        if kind not in ("prime", "rationals"):
            self.kernel = GenericKernel(self)

    def _install_operator_ops(self):
        """R and C: the reps are Python numbers and the operators are
        exactly the field operations."""
        self._radd, self._rsub, self._rmul = operator.add, operator.sub, operator.mul
        self._rneg = operator.neg
        self._rinv = lambda a: 1 / a

    def _install_ext_ops(self):
        """base[t]/(m) on the base field's kernel: a product is one prepared
        product mod m, padded back to d coefficients; sums are the kernel's
        vector ops, and an inverse is its extended gcd with m."""
        base, mod, d = self.base, self.modulus, self.degree
        kern, bneg = base.kernel, base._rneg
        mulmod = kern.poly_mulmod_fn(mod)
        pad = (base._zero_raw,) * d

        def rmul(a, b):
            c = mulmod(a, b)
            return (*c, *pad[len(c):])

        def rinv(a):
            # extended Euclid over base[t]; returns u with u*a = 1 mod m
            g, u = kern.poly_gcdext(a, mod)
            if len(g) != 1:
                raise DivisionByZero("element is a zero divisor (reducible modulus?)")
            u = kern.vscale(u, kern.inv(g[0]))
            return (*u, *pad[len(u):])

        self._radd = lambda a, b: tuple(kern.vadd(a, b))
        self._rsub = lambda a, b: tuple(kern.vsub(a, b))
        self._rneg = lambda a: tuple(map(bneg, a))
        self._rmul, self._rinv = rmul, rinv

    def _install_log_ops(self, log, antilog, zech):
        """Arithmetic by table lookups; see ``_log_tables`` for the layout."""
        n = self.cardinality - 1
        zero_log = 2 * n
        neg_shift = log[self._rneg(self._one_raw)]  # -1 = g^neg_shift

        def rmul(a, b):
            return antilog[log[a] + log[b]]

        def rneg(a):
            return antilog[log[a] + neg_shift]

        def radd(a, b):
            la, lb = log[a], log[b]
            if la == zero_log:
                return b
            if lb == zero_log:
                return a
            return antilog[la + zech[lb - la]]

        def rsub(a, b):
            lb = log[b]
            if lb == zero_log:
                return a
            lb += neg_shift
            la = log[a]
            if la == zero_log:
                return antilog[lb]
            return antilog[la + zech[lb - la]]

        def rinv(a):
            la = log[a]
            if la == zero_log:
                raise DivisionByZero(f"inverse of zero in {self}")
            return antilog[n - la]

        self._radd, self._rsub, self._rmul = radd, rsub, rmul
        self._rneg, self._rinv = rneg, rinv

    # -- basic raw helpers ------------------------------------------------

    def _rpow(self, a, k: int):
        """a^k by binary powering from one: the first product is one * a,
        on which the signed zeros of some R/C powers depend."""
        return _binary_power(self._rmul, a, k, self._one_raw)

    def close_raw(self, a, b) -> bool:
        if self.kind in ("real", "complex"):
            return self.kernel.is_zero(a - b)
        return a == b

    def sort_key_raw(self, a):
        if self.kind == "complex":
            return (a.real, a.imag)
        if self.kind == "ext":
            return tuple(self.base.sort_key_raw(c) for c in a)
        return a

    def format_raw(self, a) -> str:
        if self.kind == "ext":
            return "[" + ",".join(self.base.format_raw(c) for c in a) + "]"
        return str(a)

    # -- properties -------------------------------------------------------

    @property
    def characteristic(self) -> int:
        return self.p

    @property
    def is_finite(self) -> bool:
        return self.kind == "prime" or (self.kind == "ext" and self.base.is_finite)

    @property
    def is_exact(self) -> bool:
        return self.kind not in ("real", "complex")

    @property
    def absolute_degree(self) -> int:
        """Total degree over the prime field (or over Q), through any tower."""
        if self.kind == "ext":
            return self.degree * self.base.absolute_degree
        return 1

    @property
    def cardinality(self) -> Optional[int]:
        if self.kind == "prime":
            return self.p
        if self.kind == "ext" and self.base.is_finite:
            return self.base.cardinality ** self.degree
        return None

    def zero(self) -> FieldElement:
        return self._zero

    def one(self) -> FieldElement:
        return self._one

    def element(self, raw) -> FieldElement:
        return FieldElement(self, raw)

    def wrap(self, raws) -> tuple:
        """FieldElements for a sequence of raw reps."""
        return tuple([FieldElement(self, r) for r in raws])

    def __call__(self, value) -> FieldElement:
        """Coerce ints, fractions, floats, coefficient lists, or elements.
        A value that is not one of the field raises UsageError: finite
        fields take integers only (integral floats and fractions included),
        R and C finite numbers only."""
        if isinstance(value, FieldElement):
            if value.field is self or value.field.key == self.key:
                return value
            raise DescriptorMismatch(f"cannot coerce {value.field} into {self}")
        if self.kind == "prime":
            return FieldElement(self, _integer(value) % self.p)
        if self.kind == "ext":
            if isinstance(value, (list, tuple)):
                coeffs = [self.base(v).rep for v in value]
                if len(coeffs) > self.degree:
                    raise UsageError("coefficient list longer than extension degree")
                coeffs += [self.base._zero_raw] * (self.degree - len(coeffs))
                return FieldElement(self, tuple(coeffs))
            return self.embed_base(self.base(value))
        if self.kind == "rationals":
            if isinstance(value, float):
                raise UsageError("refusing silent float -> Q coercion")
            try:
                return FieldElement(self, self.kernel.fraction(value))
            except (ValueError, TypeError, ZeroDivisionError, OverflowError) as exc:
                raise UsageError(f"not a rational number: {value!r}") from exc
        try:
            if self.kind == "real":
                x = float(value)
            elif isinstance(value, (list, tuple)) and len(value) == 2:
                x = complex(float(value[0]), float(value[1]))
            else:
                x = complex(value)
        except (ValueError, TypeError, OverflowError) as exc:
            raise UsageError(f"not a {self.kind} number: {value!r}") from exc
        if not cmath.isfinite(x):
            raise UsageError(f"not a finite {self.kind} number: {value!r}")
        return FieldElement(self, x)

    def embed_base(self, x: FieldElement) -> FieldElement:
        """Embed a base-field element into this extension."""
        if self.kind != "ext":
            raise UsageError("embed_base only applies to extensions")
        rep = (x.rep,) + (self.base._zero_raw,) * (self.degree - 1)
        return FieldElement(self, rep)

    def generator(self) -> FieldElement:
        """The class of t in base[t]/(m)."""
        if self.kind != "ext":
            raise UsageError("generator only applies to extensions")
        bz, bo = self.base._zero_raw, self.base._one_raw
        rep = tuple(bo if i == 1 else bz for i in range(self.degree))
        return FieldElement(self, rep)

    def __eq__(self, other):
        return isinstance(other, Field) and other.key == self.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return self.spec_string()

    def spec_string(self) -> str:
        if self.kind == "prime":
            return f"Fp:{self.p}"
        if self.kind == "ext":
            mod = ",".join(str(c) for c in self.modulus)
            if self.base.kind == "prime":
                return f"Fq:p={self.base.p},d={self.degree},mod=[{mod}]"
            if self.base.is_finite:
                return f"Ftower:card={self.cardinality}"
            return f"Qext:mod=[{mod}]"
        if self.kind == "rationals":
            return "Q"
        if self.kind == "real":
            return f"R:tol={self.tolerance:g}"
        return f"C:tol={self.tolerance:g}"

    # -- JSON entry round trip ---------------------------------------------

    def entry_to_json(self, x: FieldElement):
        if self.kind == "prime":
            return x.rep
        if self.kind == "ext":
            return [self.base.entry_to_json(self.base.element(c)) for c in x.rep]
        if self.kind == "rationals":
            return str(x.rep)
        if self.kind == "real":
            return x.rep
        return [x.rep.real, x.rep.imag]

    def entry_from_json(self, value) -> FieldElement:
        return self(value)


# ----------------------------------------------------------------------
# raw kernels: dense matrix and polynomial arithmetic on lists of reps
# ----------------------------------------------------------------------

class GenericKernel:
    """Raw arithmetic for any kind, through the field's raw closures.

    A matrix is a list of row lists of raw reps; a polynomial is a list of
    raw coefficients, low degree first, with no trailing zeros (results
    included).  Ops return new lists, except that ``echelon`` and ``shear``
    work in place, and ``matpow`` with k = 1 and ``matmul_chain`` of one
    matrix return their argument.

    The operation order, the skip of (tolerance-)zero left factors and the
    pivot rules are those of element-by-element FieldElement arithmetic, so
    R/C results come out bit for bit the same.  Pivots compare
    ``magnitude``: abs, over C with inf where a finite entry's modulus
    overflows, so that no entry raises.
    """

    __slots__ = ("radd", "rsub", "rmul", "rneg", "inv", "zero", "one",
                 "is_zero", "exact", "eps", "magnitude")

    def __init__(self, field: "Field"):
        self.radd, self.rsub, self.rmul = field._radd, field._rsub, field._rmul
        self.rneg, self.inv = field._rneg, field._rinv
        self.zero, self.one = field._zero_raw, field._one_raw
        self.exact = field.is_exact
        if self.exact:
            self.is_zero = functools.partial(operator.eq, field._zero_raw)
            self.eps = 0.0
        else:
            tol = field.tolerance
            if field.kind == "complex":
                # the real part first: with tol < 1 a finite a whose real
                # part passes has a finite modulus, while abs of another
                # finite complex can overflow; the verdict is abs(a) <= tol's
                self.is_zero = lambda a: abs(a.real) <= tol and abs(a) <= tol
            else:
                self.is_zero = lambda a: abs(a) <= tol
            # pivots must exceed eps * max(1, largest magnitude)
            self.eps = max(1e-12, tol * 1e-3)
        self.magnitude = _modulus if field.kind == "complex" else abs

    def lead(self, xs):
        """Pivot index of a vector for span tests: the first nonzero entry
        (exact kinds) or the first entry of largest magnitude above eps."""
        if self.exact:
            is_zero = self.is_zero
            for i, a in enumerate(xs):
                if not is_zero(a):
                    return i
            return None
        best, best_abs, magnitude = None, self.eps, self.magnitude
        for i, a in enumerate(xs):
            m = magnitude(a)
            if m > best_abs:
                best, best_abs = i, m
        return best

    def _pick_pivot(self, rows, start: int, col: int):
        """Elimination pivot: the first nonzero row (exact kinds) or the
        row of largest magnitude, refused at or below eps times the largest
        entry of the whole working matrix."""
        if self.exact:
            is_zero = self.is_zero
            for r in range(start, len(rows)):
                if not is_zero(rows[r][col]):
                    return r
            return None
        best, best_abs, magnitude = None, 0.0, self.magnitude
        for r in range(start, len(rows)):
            a = magnitude(rows[r][col])
            if a > best_abs:
                best, best_abs = r, a
        scale = max(map(magnitude, itertools.chain.from_iterable(rows)), default=0.0)
        if best is None or best_abs <= self.eps * max(1.0, scale):
            return None
        return best

    # -- vectors and matrices ------------------------------------------------

    def dot(self, xs, ys):
        radd, rmul, is_zero = self.radd, self.rmul, self.is_zero
        acc = self.zero
        for a, b in zip(xs, ys):
            if not is_zero(a):
                acc = radd(acc, rmul(a, b))
        return acc

    def vadd(self, xs, ys):
        return list(map(self.radd, xs, ys))

    def vsub(self, xs, ys):
        return list(map(self.rsub, xs, ys))

    def vscale(self, xs, c):
        rmul = self.rmul
        return [rmul(x, c) for x in xs]

    def vsub_scaled(self, xs, c, ys):
        """xs - c*ys."""
        rsub, rmul = self.rsub, self.rmul
        return [rsub(x, rmul(c, y)) for x, y in zip(xs, ys)]

    def matmul(self, A, B):
        radd, rmul, is_zero, zero = self.radd, self.rmul, self.is_zero, self.zero
        cols = list(zip(*B))
        out = []
        for row in A:
            nz = [(k, a) for k, a in enumerate(row) if not is_zero(a)]
            out_row = []
            for col in cols:
                acc = zero
                for k, a in nz:
                    acc = radd(acc, rmul(a, col[k]))
                out_row.append(acc)
            out.append(out_row)
        return out

    def matmul_chain(self, mats):
        """mats[0] * mats[1] * ... for a nonempty sequence, as a left fold
        of ``matmul``."""
        return functools.reduce(self.matmul, mats)

    def commutator_chain(self, pairs):
        """The product, in order, of the commutators X*Y - Y*X of a
        nonempty sequence of (X, Y) pairs of square matrices."""
        matmul, vsub = self.matmul, self.vsub
        return self.matmul_chain([list(map(vsub, matmul(x, y), matmul(y, x)))
                                  for x, y in pairs])

    def matvec_fn(self, A):
        """v -> A*v for a fixed matrix A, as one ``dot`` per row: the sums
        ``matmul`` makes against v as a single column (F_p and Q prepare A
        once in their own versions)."""
        dot = self.dot
        return lambda v: [dot(row, v) for row in A]

    def shear(self, rows, r: int, s: int, c, conjugate: bool = True):
        """In place: rows becomes E*rows*E^-1, or E*rows when ``conjugate``
        is false, for E = I + c*e_{r,s} with r != s.

        Exact kinds do it as row r += c*row s, then column s -= c*column r:
        the values are unique, so they equal the dense products.  R/C keep
        the dense products, whose skips of tolerance-zero left factors set
        the float bits."""
        if self.exact:
            radd, rsub, rmul = self.radd, self.rsub, self.rmul
            rows[r] = [radd(a, rmul(c, b)) for a, b in zip(rows[r], rows[s])]
            if conjugate:
                for row in rows:
                    row[s] = rsub(row[s], rmul(c, row[r]))
            return
        n = len(rows)
        zero, one = self.zero, self.one
        ident = [[one if i == j else zero for j in range(n)] for i in range(n)]
        unit = [[zero] * n for _ in range(n)]
        unit[r][s] = one
        scaled = [self.vscale(row, c) for row in unit]
        out = self.matmul([self.vadd(a, b) for a, b in zip(ident, scaled)], rows)
        if conjugate:
            out = self.matmul(out, [self.vsub(a, b) for a, b in zip(ident, scaled)])
        rows[:] = out

    def reorder(self, rows, row_order=None, col_order=None, col_scale=None):
        """P*rows*Q*diag(col_scale) as new lists, for P with one at
        (i, row_order[i]) and Q with one at (col_order[j], j); a factor
        whose argument is None is left out.  Entry (i, j) is
        rows[row_order[i]][col_order[j]] * col_scale[j].

        Exact kinds index and scale.  Over R/C each product keeps the one
        term a*b its dense sum holds, added to ``zero`` and skipped when
        the left factor a is tolerance-zero, as ``matmul`` skips it: P's
        left factors are ``one``, so P*rows is zero when ``one`` is
        tolerance-zero, and the entries of rows are the left factors of
        their products by Q*diag(col_scale).  The dense sums' other terms
        are signed zeros, which leave a nonzero sum as it is and a zero
        one +0, so the float bits are those of the dense products."""
        radd, rmul, is_zero, zero, one = self.radd, self.rmul, self.is_zero, self.zero, self.one
        term = rmul if self.exact else lambda a, b: zero if is_zero(a) else radd(zero, rmul(a, b))
        if row_order is not None:
            rows = [rows[i] if self.exact else [term(one, x) for x in rows[i]] for i in row_order]
        if col_order is not None:
            rows = [[row[k] for k in col_order] for row in rows]
        if col_scale is None and (col_order is None or self.exact):
            return list(map(list, rows))
        scale = [one] * len(col_order) if col_scale is None else col_scale
        return [list(map(term, row, scale)) for row in rows]

    def matpow(self, A, k: int):
        """A^k for k >= 1: binary powering that starts from A itself (not
        from the identity)."""
        return _binary_power(self.matmul, A, k)

    def echelon(self, rows, ncols: int = None) -> list:
        """Reduced row echelon form over the first ``ncols`` columns, in
        place; returns the pivot columns."""
        rsub, rmul, is_zero = self.rsub, self.rmul, self.is_zero
        nrows = len(rows)
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        pivots = []
        r = 0
        for c in range(ncols):
            piv = self._pick_pivot(rows, r, c)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            inv = self.inv(rows[r][c])
            prow = rows[r] = [rmul(a, inv) for a in rows[r]]
            for rr in range(nrows):
                if rr == r:
                    continue
                f = rows[rr][c]
                if is_zero(f):
                    continue
                rows[rr] = [rsub(a, rmul(f, b)) for a, b in zip(rows[rr], prow)]
            pivots.append(c)
            r += 1
            if r == nrows:
                break
        return pivots

    # -- polynomials -----------------------------------------------------------

    def poly_trim(self, a):
        is_zero = self.is_zero
        while a and is_zero(a[-1]):
            a.pop()
        return a

    def poly_add(self, a, b):
        n = max(len(a), len(b))
        return self.poly_trim(self.vadd(list(a) + [self.zero] * (n - len(a)),
                                        list(b) + [self.zero] * (n - len(b))))

    def poly_sub(self, a, b):
        n = max(len(a), len(b))
        return self.poly_trim(self.vsub(list(a) + [self.zero] * (n - len(a)),
                                        list(b) + [self.zero] * (n - len(b))))

    def poly_mul(self, a, b):
        if not a or not b:
            return []
        radd, rmul, is_zero = self.radd, self.rmul, self.is_zero
        out = [self.zero] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if is_zero(x):
                continue
            for j, y in enumerate(b):
                out[i + j] = radd(out[i + j], rmul(x, y))
        return self.poly_trim(out)

    def poly_divmod(self, a, b):
        if not b:
            raise DivisionByZero("polynomial division by zero")
        rsub, rmul, is_zero = self.rsub, self.rmul, self.is_zero
        rem = list(a)
        db = len(b) - 1
        if len(rem) - 1 < db:
            return [], rem
        inv_lead = self.inv(b[-1])
        quot = [self.zero] * (len(rem) - db)
        while len(rem) - 1 >= db and rem:
            c = rmul(rem[-1], inv_lead)
            shift = len(rem) - 1 - db
            quot[shift] = c
            for i, bc in enumerate(b):
                rem[shift + i] = rsub(rem[shift + i], rmul(c, bc))
            while rem and is_zero(rem[-1]):
                rem.pop()
        return self.poly_trim(quot), rem

    def poly_gcdext(self, a, b):
        """(g, u) with g = gcd(a, b), not normalised, and u*a = g (mod b);
        the arguments may carry trailing zeros."""
        r0, r1 = self.poly_trim(list(a)), self.poly_trim(list(b))
        u0, u1 = [self.one], []
        while r1:
            q, r = self.poly_divmod(r0, r1)
            r0, r1 = r1, r
            u0, u1 = u1, self.poly_sub(u0, self.poly_mul(q, u1))
        return r0, u0

    def poly_derivative(self, a):
        """The formal derivative; the integer i is the sum of i ones, so over
        R and C the products are those of the coefficients with float(i)."""
        radd, rmul, one = self.radd, self.rmul, self.one
        out, i = [], self.zero
        for c in a[1:]:
            i = radd(i, one)
            out.append(rmul(c, i))
        return self.poly_trim(out)

    def poly_gcd(self, a, b):
        """The monic gcd ([] when both are zero).  Over exact kinds every
        remainder is made monic, which keeps coefficients small; R and C
        divide as they come."""
        exact = self.exact
        while b:
            if exact:
                b = self.vscale(b, self.inv(b[-1]))
            a, b = b, self.poly_divmod(a, b)[1]
        if not a:
            return []
        return self.poly_trim(self.vscale(a, self.inv(a[-1])))

    def poly_mulmod_fn(self, g):
        """(a, b) -> a*b mod g for a fixed g, prepared once; a and b must be
        reduced mod g."""
        return _mulmod_lists(self, g)

    def _xpow_rows(self, g):
        """The rows x^(d+j) mod g, d = deg g and j = 0..d-2 (one row when
        d < 2), by x^d = -(g_0 + ... + g_(d-1) x^(d-1)) / g_d and
        x^(d+j) = x * x^(d+j-1), both mod g."""
        d = len(g) - 1
        rows = [self.vscale(g[:d], self.rneg(self.inv(g[-1])))]
        for _ in range(d - 2):
            row = rows[-1]
            rows.append(self.vadd([self.zero] + row[:-1], self.vscale(rows[0], row[-1])))
        return rows

    def poly_powmod(self, a, e: int, m, mulmod=None):
        """a^e mod m by binary powering, through ``mulmod``, a product mod m
        from ``poly_mulmod_fn(m)``, prepared here when none is given and a
        product is made (e >= 2)."""
        if mulmod is None and e > 1:
            mulmod = self.poly_mulmod_fn(m)
        cur = self.poly_divmod(a, m)[1]
        result = None if e else self.poly_divmod([self.one], m)[1]
        return _binary_power(mulmod, cur, e, result)


def _modulus(z: complex) -> float:
    """abs(z), and inf where the modulus of finite parts overflows, which
    abs refuses with OverflowError: the pivot magnitude over C."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def _mulmod_lists(kern, g):
    """(a, b) -> a*b mod g as one product and one division on lists."""
    mul, divmod_ = kern.poly_mul, kern.poly_divmod
    return lambda a, b: divmod_(mul(a, b), g)[1]


# PrimeKernel packs a product with at least PACK_MIN_COLS result columns,
# and an elimination with at least ECHELON_PACK_MIN_ROWS rows and
# ECHELON_PACK_MIN_COLS columns; below them the list loops measured faster.
PACK_MIN_COLS = 4
ECHELON_PACK_MIN_ROWS = 6
ECHELON_PACK_MIN_COLS = 8
# It packs a product mod g when deg g >= MULMOD_PACK_MIN_DEGREE.
MULMOD_PACK_MIN_DEGREE = 3


def _pack(xs, code: str) -> int:
    """Non-negative ints below the slot size as one int, xs[j] in slot j."""
    return int.from_bytes(array(code, xs), sys.byteorder)


def _unpack(x: int, count: int, width: int, code: str):
    """The ``count`` slots of a packed int, each ``width`` bytes."""
    return memoryview(x.to_bytes(width * count, sys.byteorder)).cast(code)


class PrimeKernel(GenericKernel):
    """Z/m on plain ints, for any modulus m >= 2: F_p when m is prime, and
    Z/p^k for Hensel lifting.  The hot ops accumulate each dot product or
    convolution coefficient exactly and reduce it mod m once.  Inverses are
    pow(a, -1, m), so every division (echelon pivots, leading coefficients
    of divisors) needs a unit; over F_p every nonzero a is one.  Matrix
    entries are reps in [0, m).

    Two layouts for matrices.  The list layout keeps rows as lists and sums
    ``map(mul, row, col)`` per entry.  The packed layout (Kronecker
    substitution: von zur Gathen and Gerhard, Modern Computer Algebra,
    8.4) holds a vector as one int with a 4- or 8-byte slot per entry, so
    that one big-int multiply-add does a whole row:

    - ``matmul`` packs each row of B; row i of A*B is one
      ``sum(map(mul, A[i], packs))``, and all rows are read back by one
      ``to_bytes`` each, one ``memoryview.cast`` and one ``% m`` per entry.
      A slot holds at most inner*(m-1)^2 + m, inner the shared dimension.
    - ``matvec_fn(A)`` packs the columns of A once; each v -> A*v is then
      one such sum.  Bound: ncols*(m-1)^2 + m.
    - ``echelon`` keeps each row packed, unreduced and non-negative: it
      eliminates with row += f*neg(pivot row), neg packing (-b) mod m,
      reads a column by shift and mask, and unpacks every row once, in
      place, at the end.  A row gains at most (m-1)^2 per pivot, so the
      bound is nrows*(m-1)^2 + m.
    - ``poly_mulmod_fn(g)``, d = deg g, packs the rows x^(d+j) mod g,
      j = 0..d-2, once.  A product a*b mod g of reduced a and b is then
      one big-int product of the packed a and b, whose d - 1 high slots,
      read back unreduced, fold onto the d low slots by one
      ``sum(map(mul, high, rows))``; one ``to_bytes`` and one ``% m`` per
      coefficient read the result back.  Bound:
      d*(m-1)^2*(1 + (d-1)*(m-1)) + m.  ``poly_powmod`` is binary powering
      through such a product.

    One fixed rule picks the layout from the shape and the modulus: packed
    when the slot bound fits in 8 bytes (4 when it fits there) and the
    product has at least PACK_MIN_COLS columns (for ``matvec_fn``, A at
    least PACK_MIN_COLS rows), or the eliminated rows are at least
    ECHELON_PACK_MIN_ROWS by ECHELON_PACK_MIN_COLS.  Per call at F_101 on
    a 2-core x86-64 host (medians of interleaved runs, lists against
    packed): n x n products 157 against 59 us at n = 12, 35 against 25
    at n = 6, 10 against 11 at n = 4 and 4 against 6 at n = 2; echelon
    on an inverse's 12 x 24 augmented rows 583 against 285 us, on 6 x 12
    rows 79 against 66, on 6 x 6 rows 66 against 68 and on 4 x 8 rows
    34 against 43; a prepared 12 x 12 matrix-vector product 11.5
    against 3.8 us, after a preparation of 1 against 17.5 us, so it pays
    from the third product on.  A modulus such as 2^31 - 1 fits five or
    more terms in no slot and stays on lists.  Both layouts form the same
    sums of products exactly and reduce them mod m, and the elimination
    makes the same pivot choices and row operations, so their results
    are equal.

    A product mod g is packed when the slot bound fits in 8 bytes (4
    when it fits there) and deg g >= MULMOD_PACK_MIN_DEGREE.  At F_101,
    on the same host and in the same way (list product and division
    against packed): 14 against 5.7 us at deg g = 4, 45 against 7.8 at
    8 and 53 against 5.7 at 12, after a preparation of 11, 28 and 34 us;
    at deg g = 2 both take about 5 us.
    a^(q^(d/2)) mod g at deg g = d takes 385 against 140 us at d = 4 and
    2,815 against 330 at d = 12.  F_101 packs into 4-byte slots up to
    deg g = 66, F_65521 into 8-byte slots up to 256, and 2^31 - 1 never."""

    __slots__ = ("m",)

    def __init__(self, m: int):
        self.m = m
        self.radd = lambda a, b: (a + b) % m
        self.rsub = lambda a, b: (a - b) % m
        self.rmul = lambda a, b: a * b % m
        self.rneg = lambda a: -a % m
        self.inv = lambda a: pow(a, -1, m)
        self.zero, self.one = 0, 1
        self.exact, self.eps = True, 0.0
        self.is_zero = functools.partial(operator.eq, 0)

    def _slot(self, terms: int):
        """(width in bytes, array type code) of the narrowest slot that holds
        ``terms`` products of reps plus one rep, or None past 8 bytes."""
        bound = terms * (self.m - 1) ** 2 + self.m
        if bound < 1 << 32:
            return 4, "I"
        if bound < 1 << 64:
            return 8, "Q"
        return None

    def dot(self, xs, ys):
        return sum(map(operator.mul, xs, ys)) % self.m

    def vscale(self, xs, c):
        m = self.m
        return [x * c % m for x in xs]

    def vsub_scaled(self, xs, c, ys):
        m = self.m
        return [(x - c * y) % m for x, y in zip(xs, ys)]

    def matmul(self, A, B):
        m, mul = self.m, operator.mul
        ncols = len(B[0]) if B else 0
        slot = self._slot(len(B)) if ncols >= PACK_MIN_COLS else None
        if slot is None:
            cols = list(zip(*B))
            return [[sum(map(mul, row, col)) % m for col in cols] for row in A]
        width, code = slot
        packs = [_pack(row, code) for row in B]
        nbytes, order = width * ncols, sys.byteorder
        image = b"".join([sum(map(mul, row, packs)).to_bytes(nbytes, order) for row in A])
        flat = [x % m for x in memoryview(image).cast(code)]
        return [flat[i:i + ncols] for i in range(0, len(flat), ncols)]

    def matvec_fn(self, A):
        m, mul = self.m, operator.mul
        nrows = len(A)
        slot = self._slot(len(A[0])) if nrows >= PACK_MIN_COLS else None
        if slot is None:
            return lambda v: [sum(map(mul, row, v)) % m for row in A]
        width, code = slot
        packs = [_pack(col, code) for col in zip(*A)]
        return lambda v: [x % m for x in _unpack(sum(map(mul, v, packs)), nrows, width, code)]

    def echelon(self, rows, ncols: int = None) -> list:
        nrows = len(rows)
        width = len(rows[0]) if rows else 0
        if ncols is None:
            ncols = width
        slot = (self._slot(nrows) if nrows >= ECHELON_PACK_MIN_ROWS
                and width >= ECHELON_PACK_MIN_COLS else None)
        if slot is None:
            return self._echelon_lists(rows, ncols)
        m = self.m
        nbytes, code = slot
        bits = 8 * nbytes
        mask = (1 << bits) - 1
        packed = [_pack(row, code) for row in rows]
        pivots = []
        r = 0
        for c in range(ncols):
            shift = bits * c
            for piv in range(r, nrows):
                if (packed[piv] >> shift & mask) % m:
                    break
            else:
                continue
            row = _unpack(packed[piv], width, nbytes, code)
            packed[piv] = packed[r]
            inv = pow(row[c], -1, m)
            packed[r] = _pack([a * inv % m for a in row], code)
            inv = m - inv
            neg = _pack([a * inv % m for a in row], code)
            for rr in range(nrows):
                if rr != r:
                    f = (packed[rr] >> shift & mask) % m
                    if f:
                        packed[rr] += f * neg
            pivots.append(c)
            r += 1
            if r == nrows:
                break
        for i, x in enumerate(packed):
            rows[i] = [a % m for a in _unpack(x, width, nbytes, code)]
        return pivots

    def _echelon_lists(self, rows, ncols: int) -> list:
        m = self.m
        nrows = len(rows)
        pivots = []
        r = 0
        for c in range(ncols):
            for piv in range(r, nrows):
                if rows[piv][c]:
                    break
            else:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            inv = pow(rows[r][c], -1, m)
            prow = rows[r] = [a * inv % m for a in rows[r]]
            # rows at and below r vanish left of c, so only the tail moves
            tail = prow[c:]
            for rr in range(nrows):
                f = rows[rr][c]
                if f and rr != r:
                    row = rows[rr]
                    row[c:] = [(a - f * b) % m for a, b in zip(row[c:], tail)]
            pivots.append(c)
            r += 1
            if r == nrows:
                break
        return pivots

    def poly_sub(self, a, b):
        m = self.m
        return self.poly_trim([(x - y) % m for x, y in itertools.zip_longest(a, b, fillvalue=0)])

    def poly_mul(self, a, b):
        if not a or not b:
            return []
        lb = len(b)
        out = [0] * (len(a) + lb - 1)
        for i, x in enumerate(a):
            if x:
                out[i:i + lb] = [s + x * y for s, y in zip(out[i:i + lb], b)]
        m = self.m
        return self.poly_trim([c % m for c in out])

    def _mulmod_slot(self, d: int):
        """The slot of a packed product mod a g of degree d, or None for the
        list loops.  Each of the d low slots gets at most d products of
        reps, and each of the d - 1 high slots, unreduced, times a rep:
        d (m-1)^2 (1 + (d-1)(m-1)) in all, plus one rep."""
        if d < MULMOD_PACK_MIN_DEGREE:
            return None
        return self._slot(d * (1 + (d - 1) * (self.m - 1)))

    def poly_mulmod_fn(self, g):
        d = len(g) - 1
        slot = self._mulmod_slot(d)
        if slot is None:
            return _mulmod_lists(self, g)
        m, mul, trim = self.m, operator.mul, self.poly_trim
        width, code = slot
        packs = [_pack(row, code) for row in self._xpow_rows(g)]
        shift = 8 * width * d
        low = (1 << shift) - 1

        def mulmod(a, b):
            prod = _pack(a, code)
            prod *= prod if a is b else _pack(b, code)
            high = _unpack(prod >> shift, d - 1, width, code)
            return trim([x % m for x in _unpack(sum(map(mul, high, packs), prod & low),
                                                d, width, code)])
        return mulmod

    def poly_derivative(self, a):
        m = self.m
        return self.poly_trim([i * c % m for i, c in enumerate(a) if i])

    def poly_gcd(self, a, b):
        """Euclid on remainders as they come, made monic once at the end.
        The usual step, deg a = deg b + 1, is fused: the quotient q1*x + q0
        comes from the top two coefficients of a, and the remainder
        a - (q1*x + q0)*b is one pass over a; other steps divide."""
        m = self.m
        while len(b) > 1:
            d = len(b) - 1
            if len(a) == d + 2:
                inv = pow(b[-1], -1, m)
                q1 = a[-1] * inv % m
                q0 = (a[-2] - q1 * b[-2]) * inv % m
                r = [(x - q1 * y - q0 * z) % m
                     for x, y, z in zip(a, itertools.chain((0,), b), b[:d])]
            else:
                r = self.poly_divmod(a, b)[1]
            a, b = b, self.poly_trim(r)
        if b:  # a nonzero constant: the gcd is 1
            return [1]
        if not a:
            return []
        inv = pow(a[-1], -1, m)
        return [c * inv % m for c in a]

    def poly_divmod(self, a, b):
        """One pass over the quotient positions, top down, skipping zero
        quotient coefficients; the leading coefficient of b must be a unit.
        The coefficients of a may be any ints."""
        if not b:
            raise DivisionByZero("polynomial division by zero")
        m = self.m
        rem = [c % m for c in a]
        d = len(b) - 1
        inv = pow(b[-1], -1, m)
        quot = [0] * max(len(rem) - d, 0)
        for i in range(len(quot) - 1, -1, -1):
            c = quot[i] = rem[i + d] * inv % m
            if c:
                rem[i:i + d + 1] = [(x - c * y) % m for x, y in zip(rem[i:i + d + 1], b)]
        return self.poly_trim(quot), self.poly_trim(rem[:d])


def _prime_divisors(n: int) -> list:
    """The distinct prime divisors of n >= 1, in increasing order."""
    primes = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            primes.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        primes.append(n)
    return primes


def _log_tables(field: Field):
    """Zech-logarithm tables (log, antilog, zech) of a finite extension
    field, built with its kernel arithmetic.  The modulus is irreducible
    (``Field`` refuses any other), so a primitive element exists.

    With n = q - 1 and g the first element in ``enumerate_elements`` order
    whose powers g^(n/r), r a prime divisor of n, all differ from 1:

      log      dict raw -> i with g^i = raw, 0 <= i < n; zero maps to 2n
      antilog  tuple of length 4n + 1: g^(i mod n) at i < 2n, zero from 2n
               on, so a sum of two logs indexes it with no reduction
      zech     tuple of length 2n: zech[i] = log(1 + g^(i mod n)), 2n
               where that sum is zero, so log(g^a + g^b) = a + zech[b - a]
               for any b - a in (-2n, 2n)

    Building them costs one multiplication by g and one addition of 1 per
    element, after the search for g."""
    base, d = field.base, field.degree
    n = field.cardinality - 1
    zero, one = field._zero_raw, field._one_raw
    bzero, bone = base._zero_raw, base._one_raw
    exps = [n // r for r in _prime_divisors(n)]
    # for d >= 2 the first |base| elements are the base field's: their
    # orders divide |base| - 1, a proper divisor of n, so none passes
    for i in range(base.cardinality if d >= 2 else 1, n + 1):
        g = _element_at(field, i)
        if all(field._rpow(g, e) != one for e in exps):
            break

    # x*g by Horner's rule on the coefficients of g (g has low degree, so
    # this is a few vector ops, which measured faster than the product mod
    # the modulus):
    # x*t shifts x up and subtracts its top coefficient times the modulus
    kern, mod = base.kernel, list(field.modulus[:d])
    e = max(i for i, c in enumerate(g) if c != bzero)
    neg_g = [base._rneg(c) for c in g]

    def times_g(x):
        acc = x if g[e] == bone else kern.vscale(x, g[e])
        for j in range(e - 1, -1, -1):
            top, acc = acc[-1], [bzero] + acc[:-1]
            if top != bzero:
                acc = kern.vsub_scaled(acc, top, mod)
            if g[j] != bzero:
                acc = kern.vsub_scaled(acc, neg_g[j], x)
        return acc

    log, powers = {one: 0}, [one]
    x = list(one)
    for i in range(1, n):
        x = times_g(x)
        rep = tuple(x)
        log[rep] = i
        powers.append(rep)
    log[zero] = 2 * n
    badd = base._radd
    zech = [log[(badd(y[0], bone),) + y[1:]] for y in powers]
    return log, tuple(powers * 2 + [zero] * (2 * n + 1)), tuple(zech * 2)


# ----------------------------------------------------------------------
# spec-level operations
# ----------------------------------------------------------------------

def enumerate_elements(field: Field) -> Iterator[FieldElement]:
    """Yield every element of a finite field once, in ``_element_at`` order."""
    require_field(field)
    if not field.is_finite:
        raise InfiniteField(f"{field} is not finite")
    for i in range(field.cardinality):
        yield FieldElement(field, _element_at(field, i))


def random_element(field: Field, rng: random.Random) -> FieldElement:
    """A seeded random element: over finite fields one ``randrange(p)`` per
    prime-field coefficient, low degree first; elsewhere an integer drawn by
    ``randrange(-9, 10)``."""
    if field.kind == "prime":
        return field.element(rng.randrange(field.p))
    if field.is_finite:
        return field.element(tuple(
            random_element(field.base, rng).rep for _ in range(field.degree)))
    return field(rng.randrange(-9, 10))


def _element_index(field: Field, rep) -> int:
    """Position of a raw value in ``_element_at`` order, the inverse map."""
    if field.kind == "prime":
        return rep
    b, idx = field.base.cardinality, 0
    for c in reversed(rep):
        idx = idx * b + _element_index(field.base, c)
    return idx


def _element_at(field: Field, idx: int):
    """The raw value at position ``idx`` of a finite field's element order:
    over F_p the integer itself, over an extension the base-|base| digits
    of idx, low degree first, each read in the base field's order."""
    if field.kind == "prime":
        return idx
    b, rep = field.base.cardinality, []
    for _ in range(field.degree):
        idx, digit = divmod(idx, b)
        rep.append(_element_at(field.base, digit))
    return tuple(rep)


def _iroot_ceil(m: int, k: int) -> int:
    """The least c >= 0 with c**k >= m, in integer arithmetic."""
    if m <= 1:  # without a power of k, which may be huge
        return max(m, 0)
    c = 1 << -(-m.bit_length() // k)  # c**k > m
    while True:  # Newton from above settles on the floor of the k-th root
        d = ((k - 1) * c + m // c ** (k - 1)) // k
        if d >= c:
            break
        c = d
    return c if c ** k >= m else c + 1


def extend(base: Field, modulus) -> tuple:
    """Quotient extension base[t]/(p), a named field like ``GF(q, modulus)``.
    Returns (field, generator, embed); ``Field`` refuses a p that is not
    monic (UsageError) or not irreducible (ReduciblePolynomial).  A Jordan
    factor's working field is ``reduction.working_field``'s, not this."""
    from .polynomials import Poly  # deferred: polynomials imports this module

    require_field(base)
    if not isinstance(modulus, (Poly, list, tuple)):
        raise UsageError(f"a modulus is a Poly or a coefficient list, got {modulus!r}")
    if not (base.is_finite or base.kind == "rationals"):
        raise UnsupportedBase(f"cannot extend {base}")
    if isinstance(modulus, Poly):
        if modulus.field.key != base.key:
            raise DescriptorMismatch("modulus must live over the base field")
        coeffs = modulus.reps
    else:
        coeffs = tuple(base(c).rep for c in modulus)
    field = _interned_field("ext", modulus=coeffs, base=base)
    return field, field.generator(), field.embed_base


# ----------------------------------------------------------------------
# field-spec grammar
# ----------------------------------------------------------------------

def parse_field_spec(spec: str) -> Field:
    if not isinstance(spec, str):
        raise UsageError(f"field spec must be a string, got {spec!r}")
    spec = spec.strip()
    if spec == "Q":
        return _interned_field("rationals")
    if spec.startswith("Fp:"):
        try:
            p = int(spec[3:])
        except ValueError as exc:
            raise UsageError(f"bad prime in field spec {spec!r}") from exc
        return _interned_field("prime", p=p)
    if spec.startswith("Fq:"):
        parts = dict()
        body = spec[3:]
        # mod=[...] may contain commas; extract it first
        if "mod=[" not in body:
            raise UsageError(f"field spec {spec!r} needs mod=[...]")
        head, mod_part = body.split("mod=[", 1)
        if not mod_part.endswith("]"):
            raise UsageError(f"field spec {spec!r}: unterminated mod list")
        try:
            mod = tuple(int(c) for c in mod_part[:-1].split(","))
        except ValueError as exc:
            raise UsageError(f"field spec {spec!r}: mod entries must be integers") from exc
        for item in head.strip(",").split(","):
            if not item:
                continue
            key, _, val = item.partition("=")
            parts[key] = val
        try:
            p, d = int(parts["p"]), int(parts["d"])
        except (KeyError, ValueError) as exc:
            raise UsageError(f"field spec {spec!r} needs p= and d=") from exc
        if d < 1:
            raise UsageError(f"field spec {spec!r} needs d >= 1")
        if len(mod) != d + 1:
            raise UsageError(f"mod list must have degree d = {d}")
        base = _interned_field("prime", p=p)  # refuses p = 0 before c % p divides by it
        return _interned_field("ext", modulus=tuple(c % p for c in mod), base=base)
    for prefix, kind in (("R", "real"), ("C", "complex")):
        if spec == prefix:
            return Field(kind, tolerance=1e-9)
        if spec.startswith(prefix + ":tol="):
            try:
                tol = float(spec[len(prefix) + 5:])
            except ValueError as exc:
                raise UsageError(f"bad tolerance in {spec!r}") from exc
            return Field(kind, tolerance=tol)
    raise UsageError(f"cannot parse field spec {spec!r}")


def GF(q: int, modulus=None) -> Field:
    """Convenience constructor for finite fields by cardinality."""
    if not isinstance(q, int):
        raise UsageError(f"{q!r} is not a prime power")
    if _is_prime(q):
        if modulus is not None and len(modulus) != 2:
            raise UsageError(f"GF({q}) needs a modulus of degree 1")
        return _interned_field("prime", p=q)
    # q = p^d for at most one prime p: the exact d-th root of q, tried for
    # every d up to log2 q
    for d in range(q.bit_length(), 1, -1):
        p = _iroot_ceil(q, d)
        if p ** d == q and _is_prime(p):
            break
    else:
        raise UsageError(f"{q} is not a prime power")
    base = _interned_field("prime", p=p)
    if modulus is not None:
        if not isinstance(modulus, (list, tuple)):
            raise UsageError(f"a modulus is a coefficient list, got {modulus!r}")
        modulus = tuple(_integer(c) % p for c in modulus)
        if len(modulus) != d + 1:
            raise UsageError(f"GF({q}) needs a modulus of degree {d}")
        return _interned_field("ext", modulus=modulus, base=base)
    for cand in _monic_polys(p, d):
        try:
            return _interned_field("ext", modulus=cand, base=base)
        except ReduciblePolynomial:
            continue


def _monic_polys(p: int, d: int) -> Iterator[tuple]:
    """Monic degree-d candidates in the order of the base-p numbers their
    low coefficients spell, constant term most significant, so it varies
    slowest; for d >= 2 it starts at 1, since t divides every other
    candidate.  They are made one at a time, so a large p costs nothing."""
    span = p ** (d - 1)
    for n in range(span if d >= 2 else 0, p * span):
        yield tuple(n // p ** i % p for i in range(d - 1, -1, -1)) + (1,)


_FIELD_TABLE: dict = {}  # the field table: Field.key -> the one Field of that key


def __getattr__(name):
    """``RATIONALS``, Q's one field, built on first read (PEP 562), so that
    importing this module does not load the rational core; ``kth_roots``
    and ``regular_solution_search``, the scalar layer's functions, so that
    it does not load that layer."""
    if name == "RATIONALS":
        return _interned_field("rationals")
    if name in ("kth_roots", "regular_solution_search"):
        from . import scalars  # deferred: scalars imports this module

        return getattr(scalars, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _interned_field(kind: str, p: int = 0, modulus: tuple = (), base=None,
                    per_solve: bool = False) -> Field:
    """``Field(kind, ...)`` for kind "prime", "ext" or "rationals", from the
    field table when it holds the key; Q and a new finite field with q <=
    FIELD_TABLE_BOUND go in.
    A ``per_solve`` field is a Jordan factor's working field
    (``reduction.working_field``, the one caller that sets the flag): its
    modulus is a factor that ``factor`` found, which proves it irreducible,
    so it is not proved again, and it gets log tables only when the table
    keeps it: past FIELD_TABLE_BOUND it lives for one solve, which does too
    few operations in it to pay for them."""
    key = (("prime", p) if kind == "prime" else ("ext", base.key, modulus) if kind == "ext"
           else (kind,))
    field = _FIELD_TABLE.get(key)
    if field is None:
        field = Field(kind, p=p, modulus=modulus, base=base, _per_solve=per_solve)
        if kind == "rationals" or field.is_finite and field.cardinality <= FIELD_TABLE_BOUND:
            _FIELD_TABLE[key] = field
    return field
