"""Dense matrices over a Field, stored as raw reps in the kernel's format
(``Matrix.reps``), plus the exact decompositions the solvers need:
Berkowitz characteristic polynomials, Krylov minimal polynomials,
nullspaces, nilpotent Jordan structure, the generalized Jordan form with
companion blocks, and the companion-lift homomorphism that carries
extension-field witnesses back to the base field.  ``MatrixSpace`` is the
one enumeration of M_n(F_q) and the whole-space kernel of the searches
over it: its order decides ``ImageSummary.missing`` and the witness of the
exhaustive diagonal-word search.

The exact Jordan form.  Over exact kinds ``generalized_jordan_form`` first
looks for a cyclic vector v among e_0, e_{n-1} and the all-ones vector
(Keller-Gehrig, TCS 36, 1985; Storjohann, ISSAC 1998).  With
K = [v, Av, ..., A^(n-1) v] of rank n, one echelon of [K | A^n v] gives
chi, and ker p(A)^j is K applied to the coefficient vectors of
x^i * chi/p^j, i < j deg p.  A subspace has one basis with 1 at its free
columns and 0 at the others (a free column is the last nonzero place of
some vector of it): the basis ``_nullspace_raw`` gives, and the echelon
form on reversed coordinates, which is how the Krylov route reduces its
spanning vectors.  So both routes hand the same kernel bases to the one
chain-tops loop (``_chain_tops``), and the blocks, the conjugator and its
inverse are equal.  Inputs with no cyclic candidate, derogatory ones
among them, take Berkowitz's chi and the nullspaces of p(A)^j.  On the
comm-f101 benchmark some candidate is cyclic for 898 of 900 Jordan forms
of seed 1.

Nilpotent structure.  A nilpotent N's Jordan type and its chain basis
come from one pass, the kernel chain ker N, ker N^2, ... of
``_chain_filtration`` in ``_nilpotent_chains``, which also decides
nilpotency (the chains cover n): ``nilpotent_partition`` reads the chain
lengths, ``nilpotent_jordan_basis`` the chains themselves, and no rank of
a power is computed.

Verification rule: a result is checked where a public entry point returns
it (``generalized_jordan_form``), where a failed check selects another
attempt (the R/C cluster radii, one ``errors.first_route`` route each,
whose exhausted error lists the radii tried in ``.routes``), or where the
next step needs it.  The
helpers that build a basis for a solver (``eigenbasis``,
``nilpotent_jordan_basis``) check nothing; the public solve that uses them
verifies its finished witness once.

Conventions.  The companion matrix of p(x) = x^n + a_{n-1}x^{n-1} + ... + a_0
has subdiagonal ones and last column (-a_0, ..., -a_{n-1}).  J_{p,l} is the
l*d x l*d block matrix with companion diagonal blocks and identity
superdiagonal blocks; J_{alpha,l} is the d = 1 case (scalar Jordan block,
superdiagonal ones).  Nilpotent partitions are reported weakly increasing.
"""

from __future__ import annotations

import cmath
import itertools
import math
import sys
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Optional, Sequence, Tuple

from .errors import (
    DescriptorMismatch,
    NonSquare,
    NotNilpotent,
    NotSimilar,
    SingularMatrix,
    TooLarge,
    UsageError,
    VerificationFailed,
    first_route,
)
from .fields import Field, FieldElement, _binary_power, enumerate_elements, require_field
from .polynomials import Poly, approx_roots, require_poly

# Newton steps ``_newton_refine_root`` takes at most.
NEWTON_ITERATIONS = 40
# Codes per run of ``MatrixSpace.blocks`` (at least q): it bounds the
# planes a whole-space pass holds at once.
BLOCK_CODES = 1 << 18
_BYTE = 256


class Matrix:
    """An immutable dense matrix over ``field``.  ``reps`` holds the entries
    in the kernel's format, one tuple of row tuples of raw reps, and kernel
    output is stored as it comes.  FieldElements are made only where an
    entry is read: ``rows``, ``col``, ``cols``, ``M[i, j]`` and the vectors
    that ``nullspace``, ``apply`` and ``solve_right`` return."""

    __slots__ = ("field", "nrows", "ncols", "reps")

    def __init__(self, field: Field, rows: Sequence[Sequence[FieldElement]]):
        require_field(field)
        rows = _row_tuples(rows)
        ncols = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != ncols:
                raise UsageError(f"ragged rows: lengths {len(row)} and {ncols}")
            for x in row:
                if not isinstance(x, FieldElement) or (
                        x.field is not field and x.field.key != field.key):
                    raise UsageError(f"matrix entry {x!r} is not an element of {field}")
        self.field, self.nrows, self.ncols = field, len(rows), ncols
        self.reps = tuple(tuple(x.rep for x in row) for row in rows)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def _from_raw(field: Field, raw_rows) -> "Matrix":
        """The one internal constructor: equal-length rows of raw reps of
        ``field`` (kernel output), stored without a check."""
        M = object.__new__(Matrix)
        M.field = field
        M.reps = tuple(map(tuple, raw_rows))
        M.nrows = len(M.reps)
        M.ncols = len(M.reps[0]) if M.reps else 0
        return M

    @staticmethod
    def from_rows(field: Field, rows) -> "Matrix":
        require_field(field)
        return Matrix(field, [[field(x) for x in row] for row in _row_tuples(rows)])

    @staticmethod
    def zeros(field: Field, nrows: int, ncols: int = None) -> "Matrix":
        ncols = nrows if ncols is None else ncols
        return Matrix._from_raw(field, [(field._zero_raw,) * ncols] * nrows)

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        return Matrix.permutation(field, range(n))

    @staticmethod
    def unit(field: Field, n: int, i: int, j: int) -> "Matrix":
        """e_{i,j}: single 1 at 0-indexed position (i, j)."""
        z, o = field._zero_raw, field._one_raw
        return Matrix._from_raw(field, [[o if (r, c) == (i, j) else z for c in range(n)]
                                        for r in range(n)])

    @staticmethod
    def diagonal(field: Field, entries) -> "Matrix":
        entries = [field(e).rep for e in entries]
        z = field._zero_raw
        n = len(entries)
        return Matrix._from_raw(field, [[entries[i] if i == j else z for j in range(n)]
                                        for i in range(n)])

    @staticmethod
    def companion(p: Poly) -> "Matrix":
        if not p.is_monic() or p.degree < 1:
            raise UsageError("companion matrix needs a monic polynomial of degree >= 1")
        field = p.field
        n = p.degree
        z, o = field._zero_raw, field._one_raw
        rows = [[z] * n for _ in range(n)]
        for i in range(1, n):
            rows[i][i - 1] = o
        for i in range(n):
            rows[i][n - 1] = field._rneg(p.reps[i])
        return Matrix._from_raw(field, rows)

    @staticmethod
    def jordan_block(alpha: FieldElement, l: int) -> "Matrix":
        """J_{alpha,l}: alpha on the diagonal, ones on the superdiagonal."""
        field = alpha.field
        z, o = field._zero_raw, field._one_raw
        rows = [[z] * l for _ in range(l)]
        for i in range(l):
            rows[i][i] = alpha.rep
            if i + 1 < l:
                rows[i][i + 1] = o
        return Matrix._from_raw(field, rows)

    @staticmethod
    def generalized_jordan_block(p: Poly, l: int) -> "Matrix":
        """J_{p,l}: l companion blocks of p with identity superblocks."""
        field = p.field
        d = p.degree
        C = Matrix.companion(p).reps
        n = l * d
        z, o = field._zero_raw, field._one_raw
        rows = [[z] * n for _ in range(n)]
        for b in range(l):
            for i in range(d):
                rows[b * d + i][b * d:(b + 1) * d] = C[i]
            if b + 1 < l:
                for i in range(d):
                    rows[b * d + i][(b + 1) * d + i] = o
        return Matrix._from_raw(field, rows)

    @staticmethod
    def block_diag(field: Field, mats: Iterable["Matrix"]) -> "Matrix":
        mats = list(mats)
        for m in mats:
            if m.ncols and m.field is not field and m.field.key != field.key:
                raise UsageError(f"matrix entry {m[0, 0]!r} is not an element of {field}")
        n = sum(m.nrows for m in mats)
        z = field._zero_raw
        rows = [[z] * n for _ in range(n)]
        off = 0
        for m in mats:
            for i, row in enumerate(m.reps):
                rows[off + i][off:off + m.ncols] = row
            off += m.nrows
        return Matrix._from_raw(field, rows)

    @staticmethod
    def cyclic_shift(field: Field, n: int) -> "Matrix":
        """Superdiagonal ones plus a 1 in the bottom-left corner."""
        return Matrix.permutation(field, [(t + 1) % n for t in range(n)])

    @staticmethod
    def permutation(field: Field, order: Sequence[int]) -> "Matrix":
        """P with P e_{order[t]} = e_t, i.e. (P A P^-1)[t][u] = A[order[t]][order[u]]."""
        n = len(order)
        z, o = field._zero_raw, field._one_raw
        rows = [[z] * n for _ in range(n)]
        for t, src in enumerate(order):
            rows[t][src] = o
        return Matrix._from_raw(field, rows)

    @staticmethod
    def from_cols(field: Field, cols) -> "Matrix":
        n = len(cols[0]) if cols else 0
        if not n or any(len(col) != n for col in cols):
            raise UsageError(f"ragged columns: lengths {[len(col) for col in cols]}")
        return Matrix(field, list(zip(*cols)))

    # -- reading entries ----------------------------------------------------

    rows = property(lambda self: tuple(map(self.field.wrap, self.reps)),
                    doc="The entries as row tuples of FieldElements.")

    def __getitem__(self, ij) -> FieldElement:
        i, j = ij
        return self.field.element(self.reps[i][j])

    def col(self, j: int) -> tuple:
        return self.field.wrap([row[j] for row in self.reps])

    # -- arithmetic -----------------------------------------------------------

    def _check(self, other: "Matrix"):
        if not isinstance(other, Matrix):
            raise UsageError(f"expected a Matrix operand, got {type(other).__name__}")
        if other.field.key != self.field.key:
            raise DescriptorMismatch("matrices over different fields")

    def _check_same_shape(self, other: "Matrix"):
        self._check(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise UsageError("matrix dimensions do not match")

    def _check_product(self, other: "Matrix"):
        """The checks of self*other: one field, inner sizes equal."""
        self._check(other)
        if self.ncols != other.nrows:
            raise UsageError("matrix dimensions do not match")

    def _check_square_pair(self, other: "Matrix"):
        """The checks of self*other - other*self: one field, one square size."""
        self._check(other)
        if not self.nrows == self.ncols == other.nrows == other.ncols:
            raise UsageError("matrix dimensions do not match")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix._from_raw(self.field, map(self.field.kernel.vadd, self.reps, other.reps))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix._from_raw(self.field, map(self.field.kernel.vsub, self.reps, other.reps))

    def __neg__(self) -> "Matrix":
        rneg = self.field._rneg
        return Matrix._from_raw(self.field, [map(rneg, row) for row in self.reps])

    def scale(self, c) -> "Matrix":
        c = self.field(c).rep
        vscale = self.field.kernel.vscale
        return Matrix._from_raw(self.field, [vscale(row, c) for row in self.reps])

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            return self.scale(other)
        self._check_product(other)
        return Matrix._from_raw(self.field, self.field.kernel.matmul(self.reps, other.reps))

    @staticmethod
    def product(*mats: "Matrix") -> "Matrix":
        """mats[0] * mats[1] * ..., with the checks of ``*``, as one
        ``matmul_chain`` of the kernel: over Q each factor is cleared to
        integers once and each entry normalised once."""
        require_matrix(mats[0])
        for a, b in zip(mats, mats[1:]):
            a._check_product(b)
        field = mats[0].field
        return Matrix._from_raw(field, field.kernel.matmul_chain([M.reps for M in mats]))

    def commutator(self, other: "Matrix") -> "Matrix":
        """self*other - other*self, with the checks of ``*`` and ``-``, as
        one ``commutator_chain`` of the kernel."""
        self._check_square_pair(other)
        return Matrix._from_raw(self.field, self.field.kernel.commutator_chain(
            [(self.reps, other.reps)]))

    def __pow__(self, k: int) -> "Matrix":
        if not isinstance(k, int):
            raise UsageError(f"matrix powers need an int exponent, got {type(k).__name__}")
        _require_square(self)
        if k < 0:
            return self.inverse() ** (-k)
        if k == 0:
            return Matrix.identity(self.field, self.nrows)
        return Matrix._from_raw(self.field, self.field.kernel.matpow(self.reps, k))

    def trace(self) -> FieldElement:
        _require_square(self)
        radd = self.field._radd
        acc = self.field._zero_raw
        for i, row in enumerate(self.reps):
            acc = radd(acc, row[i])
        return self.field.element(acc)

    def is_zero(self) -> bool:
        is_zero = self.field.kernel.is_zero
        return all(is_zero(a) for row in self.reps for a in row)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and other.field.key == self.field.key
                and other.reps == self.reps)

    def __hash__(self):
        return hash((self.field.key, self.reps))

    def allclose(self, other: "Matrix") -> bool:
        """Entrywise equality, up to the field tolerance for approximate kinds."""
        self._check(other)
        if self.nrows != other.nrows or self.ncols != other.ncols:
            return False
        if self.field.is_exact:  # close_raw is == there
            return self.reps == other.reps
        close = self.field.close_raw
        return all(close(x, y) for ra, rb in zip(self.reps, other.reps)
                   for x, y in zip(ra, rb))

    def __repr__(self):
        fmt = self.field.format_raw
        return "[" + "; ".join(" ".join(map(fmt, row)) for row in self.reps) + "]"

    # -- elimination ---------------------------------------------------------

    def rank(self) -> int:
        return len(self.field.kernel.echelon(list(map(list, self.reps))))

    def inverse(self) -> "Matrix":
        _require_square(self)
        return Matrix._from_raw(self.field, _inverse_raw(self.field, self.reps))

    def nullspace(self) -> list:
        """Basis of the right kernel, deterministic order (free columns ascending)."""
        return list(map(self.field.wrap, _nullspace_raw(self.field, self.reps)))

    def solve_right(self, b: Sequence[FieldElement]):
        """One solution x of self*x = b, or None."""
        field = self.field
        if len(b) != self.nrows:
            raise UsageError("right-hand side length does not match the matrix rows")
        x = _solve_raw(field, [[*row, field(bi).rep] for row, bi in zip(self.reps, b)],
                       self.ncols)
        return None if x is None else field.wrap(x)

    def apply(self, v: Sequence[FieldElement]) -> tuple:
        # a single product, for which preparing a matvec_fn does not pay
        col = self.field.kernel.matmul(self.reps, [[x.rep] for x in v])
        return self.field.wrap([r[0] for r in col])

    def shear(self, r: int, s: int, c, conjugate: bool = True) -> "Matrix":
        """E*self*E^-1, or E*self when ``conjugate`` is false, for the
        shear E = I + c*e_{r,s} (r != s)."""
        _require_square(self)
        if r == s:
            raise UsageError("a shear needs two distinct indices")
        rows = list(map(list, self.reps))
        self.field.kernel.shear(rows, r, s, self.field(c).rep, conjugate)
        return Matrix._from_raw(self.field, rows)


def _inverse_raw(field: Field, rows) -> list:
    """The inverse of a square matrix of raw rows, as raw rows."""
    n = len(rows)
    zero, one = field._zero_raw, field._one_raw
    aug = [[*row, *(one if j == i else zero for j in range(n))] for i, row in enumerate(rows)]
    if len(field.kernel.echelon(aug, n)) != n:
        raise SingularMatrix("matrix is not invertible")
    return [row[n:] for row in aug]


def _nullspace_raw(field: Field, rows) -> list:
    """Raw basis vectors of the right kernel of raw rows, free columns
    ascending."""
    ncols = len(rows[0]) if rows else 0
    rows = list(map(list, rows))
    pivots = field.kernel.echelon(rows)
    pivot_cols = set(pivots)
    rneg = field._rneg
    basis = []
    for fcol in range(ncols):
        if fcol in pivot_cols:
            continue
        vec = [field._zero_raw] * ncols
        vec[fcol] = field._one_raw
        for rowidx, pcol in enumerate(pivots):
            vec[pcol] = rneg(rows[rowidx][fcol])
        basis.append(vec)
    return basis


def _solve_raw(field: Field, aug, n: int) -> Optional[list]:
    """One raw solution x of A*x = b for the augmented raw rows [A | b] of
    n unknowns, or None; ``aug`` is reduced in place."""
    kern = field.kernel
    pivots = kern.echelon(aug, n)
    if any(not kern.is_zero(row[n]) for row in aug[len(pivots):]):
        return None
    x = [field._zero_raw] * n
    for rowidx, pcol in enumerate(pivots):
        x[pcol] = aug[rowidx][n]
    return x


def _transpose(vecs) -> list:
    """Rows from columns, or columns from rows, as lists."""
    return [list(r) for r in zip(*vecs)]


def _row_tuples(rows) -> list:
    """The rows of a constructor's argument as tuples, refusing what is not
    a sequence of sequences."""
    try:
        return [tuple(r) for r in rows]
    except TypeError as exc:
        raise UsageError(f"matrix rows must be sequences, got {rows!r}") from exc


def require_matrix(value) -> None:
    """Refuse an argument that is not a Matrix (a solver's target, say)."""
    if not isinstance(value, Matrix):
        raise UsageError(f"expected a Matrix, got {type(value).__name__}")


def _require_square(A: Matrix):
    require_matrix(A)
    if A.nrows != A.ncols:
        raise NonSquare(f"{A.nrows}x{A.ncols} matrix where square is required")


class MatrixSpace:
    """M_n(F_q) in its one enumeration order, and the whole-space kernel of
    the brute-force searches, for q <= 256.

    A matrix's code is its index in that order: its entries' digits
    (indices in ``enumerate_elements`` order) as base-q digits, row-major,
    first entry most significant.  The searches keep the first hit or
    non-value in code order, so this order alone decides their witnesses
    and ``ImageSummary.missing``, however the kernel computes.

    Digit planes: over a run of codes, entry t's plane holds entry t's
    digit of the run's i-th matrix in slot i, so n^2 planes stand for all
    of them.  A plane is a ``bytes``, one byte per slot: a map of one
    entry is one ``translate``; a sum or product packs each slot pair into
    a*q + b by big-int arithmetic, carry-free while that fits a byte
    (always for q <= 16; above, the first digit goes in groups of 256 // q
    values, one masked translate each), then translates once.  ``codes``
    widens the planes into 4- or 8-byte slots and takes one weighted
    big-int sum.  A field over 256 elements is refused with TooLarge: the
    searches reach it only at n = 1, where they solve scalar equations.
    """

    @staticmethod
    def cardinality(field: Field, n: int) -> int:
        """q^(n^2), without building the space; refuses n < 1."""
        if not isinstance(n, int) or n < 1:
            raise UsageError(f"matrix size must be a positive int, got {n!r}")
        return field.cardinality ** (n * n)

    def __init__(self, field: Field, n: int):
        self.size = MatrixSpace.cardinality(field, n)
        if field.cardinality > _BYTE:
            raise TooLarge(f"digit planes hold one byte per entry, and {field} "
                           f"has {field.cardinality} elements")
        self.field = field
        self.n = n
        reps = self._reps = [x.rep for x in enumerate_elements(field)]
        digit = self._digit = {r: i for i, r in enumerate(reps)}
        q = self.q = len(reps)
        self.zero, self.one = digit[field._zero_raw], digit[field._one_raw]
        # _rows[op][c] is the table of d -> c + d (op 0) or c * d (op 1)
        self._rows = [[self.table(partial(f, r)) for r in reps]
                      for f in (field._radd, field._rmul)]
        # (a, b) packs into a byte as (a mod g)*q + b, g = 256 // q, with one
        # mask and one pair table per group of g consecutive first digits
        g = _BYTE // q
        groups = [range(h, min(h + g, q)) for h in range(0, q, g)]
        self._low = bytes(d % g for d in range(_BYTE))
        self._masks = [bytes(255 if d in grp else 0 for d in range(_BYTE)) for grp in groups]
        self._pairs = [[b"".join(rows[a][:q] for a in grp).ljust(_BYTE, b"\0")
                        for grp in groups] for rows in self._rows]

    # -- codes and single matrices ---------------------------------------

    def digits_at(self, code: int) -> list:
        """The n^2 digits of a code, row-major."""
        q, out = self.q, [0] * (self.n * self.n)
        for t in range(len(out) - 1, -1, -1):
            code, out[t] = divmod(code, q)
        return out

    def rows_at(self, code: int) -> list:
        n, reps = self.n, self._reps
        flat = [reps[d] for d in self.digits_at(code)]
        return [flat[i * n:(i + 1) * n] for i in range(n)]

    def matrix_at(self, code: int) -> Matrix:
        return Matrix._from_raw(self.field, self.rows_at(code))

    def digit(self, rep) -> int:
        return self._digit[rep]

    # -- digit planes -----------------------------------------------------

    def planes(self) -> list:
        """The digit planes of the whole space, in code order."""
        return next(self.blocks(self.size))

    def blocks(self, limit: int = BLOCK_CODES):
        """The digit planes of the whole space, run by run in code order:
        q^j consecutive codes per run, for the largest j >= 1 with
        q^j <= limit.  The last j entries repeat the same planes in every
        run; the others are constant over a run."""
        q, nn = self.q, self.n * self.n
        j = nn
        while j > 1 and q ** j > limit:
            j -= 1
        span = q ** j
        low = [b"".join(bytes((d,)) * q ** (j - 1 - t) for d in range(q)) * q ** t
               for t in range(j)]
        for top in range(q ** (nn - j)):
            yield [bytes((d,)) * span for d in self.digits_at(top)[j:]] + low

    def select(self, P, codes) -> list:
        """The planes P restricted to the slots ``codes``, in that order."""
        return [bytes(map(plane.__getitem__, codes)) for plane in P]

    def codes(self, P):
        """The code of the matrix in each slot of the planes P."""
        q, count = self.q, len(P[0])
        fmt, width = ("I", 4) if self.size <= 1 << 32 else ("Q", 8)
        order = sys.byteorder
        buf = bytearray(width * count)
        low = 0 if order == "little" else width - 1
        acc = 0
        for plane in P:
            buf[low::width] = plane
            acc = acc * q + int.from_bytes(buf, order)
        return memoryview(acc.to_bytes(width * count, order)).cast(fmt)

    # -- arithmetic on planes ---------------------------------------------

    def table(self, f) -> bytes:
        """The translate table of d -> digit of f(element d), f on raw reps."""
        digit = self._digit
        return bytes(digit[f(r)] for r in self._reps).ljust(_BYTE, b"\0")

    def _binary(self, op: int, P, Q):
        count, tables = len(P), self._pairs[op]
        low = P if len(tables) == 1 else P.translate(self._low)
        packed = (int.from_bytes(low, "little") * self.q
                  + int.from_bytes(Q, "little")).to_bytes(count, "little")
        if len(tables) == 1:
            return packed.translate(tables[0])
        out = 0
        for mask, table in zip(self._masks, tables):
            out |= (int.from_bytes(P.translate(mask), "little")
                    & int.from_bytes(packed.translate(table), "little"))
        return out.to_bytes(count, "little")

    def shift(self, P, c: int):
        """c + P for a digit c."""
        return P.translate(self._rows[0][c])

    def scale(self, P, c: int):
        """c * P for a digit c."""
        return P.translate(self._rows[1][c])

    def add(self, P, Q):
        return self._binary(0, P, Q)

    def mul(self, P, Q):
        return self._binary(1, P, Q)

    def lincomb(self, terms, count: int):
        """sum c * P over (digit c, plane P) terms of ``count`` slots."""
        acc = None
        for c, P in terms:
            if c == self.zero:
                continue
            if c != self.one:
                P = self.scale(P, c)
            acc = P if acc is None else self.add(acc, P)
        return bytes((self.zero,)) * count if acc is None else acc

    def matmul(self, X, Y) -> list:
        n, add, mul = self.n, self.add, self.mul
        out = []
        for i in range(n):
            for j in range(n):
                acc = mul(X[i * n], Y[j])
                for k in range(1, n):
                    acc = add(acc, mul(X[i * n + k], Y[k * n + j]))
                out.append(acc)
        return out

    def power(self, X, k: int) -> list:
        """X^k for k >= 1, by the binary powering of ``kernel.matpow``."""
        return _binary_power(self.matmul, X, k)


class _Echelon:
    """Incremental echelon structure for span-membership tests."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.rows = {}  # pivot index -> normalised raw vector

    def insert(self, vec) -> bool:
        """Add the raw vector vec to the span; True if it was independent."""
        kern = self.kernel
        for piv in sorted(self.rows):
            c = vec[piv]
            if not kern.is_zero(c):
                vec = kern.vsub_scaled(vec, c, self.rows[piv])
        piv = kern.lead(vec)
        if piv is None:
            return False
        self.rows[piv] = kern.vscale(vec, kern.inv(vec[piv]))
        return True


# ----------------------------------------------------------------------
# characteristic and minimal polynomials
# ----------------------------------------------------------------------

def charpoly(A: Matrix) -> Poly:
    """det(T*I - A) by the Berkowitz algorithm (division free)."""
    _require_square(A)
    field = A.field
    n = A.nrows
    if n == 0:
        return Poly.one(field)
    kern = field.kernel
    dot, rneg, one = kern.dot, field._rneg, field._one_raw
    rows = A.reps
    C = [one]
    for r in range(1, n + 1):
        R = rows[r - 1][: r - 1]
        t = [one, rneg(rows[r - 1][r - 1])]
        v = [rows[i][r - 1] for i in range(r - 1)]
        if r > 2:
            lead = kern.matvec_fn([row[: r - 1] for row in rows[: r - 1]])
        for j in range(2, r + 1):
            if j > 2:
                v = lead(v)
            t.append(rneg(dot(R, v)))
        # coefficient i of the product is the sum of t[i - j] * C[j] over
        # j = 0..min(i, r - 1), zero left factors skipped
        C = [dot(t[i::-1], C) for i in range(r + 1)]
    return Poly._from_raw(field, kern.poly_trim(C[::-1]))


def krylov_annihilator(A: Matrix, v: Sequence[FieldElement]) -> Poly:
    """Monic minimal g with g(A)v = 0, from one echelon of the columns v,
    Av, ..., A^n v: the first j columns are independent, deg g = j, and
    column j of the reduced form holds the coordinates of A^j v on them.

    Over R/C a later column can pass the pivot test after one failed it,
    so j is the count of leading pivots.  The pivot test is relative to
    the largest entry with a floor eps, so column i is s A^i v / rho^i
    for powers of two rho >= n |A| (entrywise maxima), which no column
    outgrows, and s that brings |v| to about 2^46 eps (at least 1), where
    rounding noise (2^-52 of an entry, times up to 64) stays below eps.
    The scalings are exact bar subnormals; coefficient i of g is rho^(j-i)
    times the one the reduced form gives."""
    _require_square(A)
    field = A.field
    kern = field.kernel
    apply = kern.matvec_fn(A.reps)
    cols = [[x.rep for x in v]]
    if not field.is_exact:
        shrink = _binary_scale(kern, itertools.chain.from_iterable(A.reps), -A.nrows.bit_length())
        target = max(0, math.frexp(kern.eps)[1] + 46)
        cols[0] = kern.vscale(cols[0], _binary_scale(kern, cols[0], target))
        apply = partial(lambda times_a, u: kern.vscale(times_a(u), shrink), apply)
    for _ in range(A.nrows):
        cols.append(apply(cols[-1]))
    rref = _transpose(cols)
    j = sum(c == i for i, c in enumerate(kern.echelon(rref)))
    g = [field._rneg(row[j]) for row in rref[:j]] + [field._one_raw]
    for i in range(0 if field.is_exact else j):  # g[k] takes rho j - k times
        g[:i + 1] = kern.vscale(g[:i + 1], 1 / shrink)
    return Poly._from_raw(field, g)


def _binary_scale(kern, xs, e: int) -> float:
    """2^(e - f), f the binary exponent of the largest magnitude in xs (0
    for none), the exponent clamped to +-1000: exact to multiply by."""
    top = max(map(kern.magnitude, xs), default=0.0)
    return math.ldexp(1.0, max(-1000, min(1000, e - math.frexp(top)[1])))


def minpoly(A: Matrix) -> Poly:
    """Monic minimal polynomial via iterated Krylov spans."""
    _require_square(A)
    field = A.field
    n = A.nrows
    m = Poly.one(field)
    z, o = field.zero(), field.one()
    for i in range(n):
        g = krylov_annihilator(A, [o if t == i else z for t in range(n)])
        m = m.lcm(g)
        if m.degree == n:
            break
    return m


# ----------------------------------------------------------------------
# nilpotent structure
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Partition:
    """Weakly increasing parts summing to the ambient size."""

    parts: Tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.parts, tuple) or any(
                not isinstance(p, int) or isinstance(p, bool) or p < 1 for p in self.parts):
            raise UsageError(f"partition parts must be positive ints, got {self.parts!r}")
        if tuple(sorted(self.parts)) != self.parts:
            raise UsageError("partition parts must be weakly increasing")

    @property
    def total(self) -> int:
        return sum(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)


def is_nilpotent(A: Matrix) -> bool:
    _require_square(A)
    return (A ** A.nrows).is_zero()


def nilpotent_partition(A: Matrix) -> Partition:
    """Jordan partition of a nilpotent matrix: the lengths of its kernel
    chains (``_nilpotent_chains``)."""
    return Partition(tuple(sorted(level for _, level in _nilpotent_chains(A))))


def _nilpotent_chains(A: Matrix) -> list:
    """The chain tops (v, level) of a nilpotent A, from one pass of
    ``_chain_filtration``.  A is nilpotent exactly when its chains cover
    n, so A is powered to A^n only when they do not, to name the error:
    NotNilpotent, or VerificationFailed when A^n = 0, since over R/C the
    kernels of an ill-conditioned nilpotent can stall below n at the pivot
    tolerance."""
    _require_square(A)
    chains = _chain_filtration(A, A, 1)
    total = sum(level for _, level in chains)
    if total != A.nrows:
        if not is_nilpotent(A):
            raise NotNilpotent("matrix is not nilpotent")
        raise VerificationFailed(
            f"kernel chains of total length {total} in a {A.nrows}x{A.nrows} nilpotent")
    return chains


def _chain_filtration(A: Matrix, B: Matrix, d: int, dim: int = None) -> list:
    """Chain tops (v, level), v a raw vector, for the K[x]-module structure
    of A on ker-powers of B = p(A), deg p = d, from the nullspaces of the
    powers of B (see ``_chain_tops``).

    The kernels ker B^j grow until they stabilise, by j = n in exact
    arithmetic; over R/C, kernels that have not stabilised after n + 1
    powers raise VerificationFailed.  ``dim``, when the caller knows the
    dimension of the generalized eigenspace, stops them as soon as they
    reach it, which saves one power of B and its nullspace."""
    field = A.field
    kern = field.kernel
    n = A.nrows
    braw = B.reps
    kers = [[]]
    Bj = braw
    for _ in range(n + 1):
        ker = _nullspace_raw(field, Bj)
        if len(ker) == len(kers[-1]):
            break
        kers.append(ker)
        if len(ker) == n or len(ker) == dim:
            break
        Bj = kern.matmul(Bj, braw)
    else:  # exact kernels stabilise by ker B^n; these are float noise
        raise VerificationFailed(f"kernel chain did not stabilise in {n + 1} powers of a "
                                 f"{n}x{n} matrix: dimensions {[len(k) for k in kers[1:]]}")
    # A-orbits have more than one vector only for d > 1, and chains are
    # carried down by B only from a level above the first
    apply_a = kern.matvec_fn(A.reps) if d > 1 else None
    apply_b = kern.matvec_fn(braw) if len(kers) > 2 else None
    return _chain_tops(kern, kers, d, apply_a, apply_b)


def _chain_tops(kern, kers, d: int, apply_a, apply_b) -> list:
    """Chain tops (v, level) from the bases ``kers[j]`` of ker p(A)^j,
    j = 0..s (``kers[0]`` empty), deg p = d; ``apply_a`` and ``apply_b``
    are v -> A v and v -> p(A) v.  Independence is tested K-linearly on
    the A-orbits {A^i v : i < d}, which realises L-linear independence
    for L = K[x]/(p).  The tops depend on the bases as given, in order."""
    s = len(kers) - 1
    if s == 0:
        return []
    dims = [len(k) for k in kers] + [len(kers[-1])]
    chains = []
    carry = []
    for level in range(s, 0, -1):
        expected = (2 * dims[level] - dims[level - 1] - dims[level + 1]) // d
        if expected * d != 2 * dims[level] - dims[level - 1] - dims[level + 1]:
            raise VerificationFailed("kernel dimensions incompatible with factor degree")
        ech = _Echelon(kern)
        for vec in kers[level - 1]:
            ech.insert(vec)
        for orbit in carry:
            ech.insert(orbit)
            for _ in range(d - 1):
                orbit = apply_a(orbit)
                ech.insert(orbit)
        new_tops = []
        for u in kers[level]:
            if len(new_tops) == expected:
                break
            if ech.insert(u):
                orbit = u
                for _ in range(d - 1):
                    orbit = apply_a(orbit)
                    if not ech.insert(orbit):
                        raise VerificationFailed("orbit of a new chain top is dependent")
                new_tops.append(u)
        if len(new_tops) != expected:
            raise VerificationFailed(
                f"found {len(new_tops)} chain tops at level {level}, expected {expected}")
        chains.extend((u, level) for u in new_tops)
        if level > 1:
            carry = [apply_b(w) for w in carry + new_tops]
    return chains


def nilpotent_jordan_basis(N: Matrix) -> tuple:
    """(S, partition_desc) with S^-1 N S = block_diag(J_{0,l}) for the parts
    in descending order (chains from ``_nilpotent_chains``)."""
    chains = _nilpotent_chains(N)
    chains.sort(key=lambda c: -c[1])
    apply = N.field.kernel.matvec_fn(N.reps)
    cols = []
    for v, l in chains:
        chain_vecs = [v]
        for _ in range(l - 1):
            chain_vecs.append(apply(chain_vecs[-1]))
        cols.extend(reversed(chain_vecs))
    S = Matrix._from_raw(N.field, _transpose(cols))
    return S, tuple(l for _, l in chains)


def eigenbasis(M: Matrix, eigenvalues) -> Matrix:
    """S with S^-1 M S = diag(eigenvalues); eigenvalues must be simple."""
    field = M.field
    n = M.nrows
    ident = Matrix.identity(field, n)
    cols = []
    for lam in eigenvalues:
        ns = _nullspace_raw(field, (M - ident.scale(field(lam))).reps)
        if not ns:
            raise NotSimilar(f"no eigenvector for {lam!r}")
        cols.append(ns[0])
    return Matrix._from_raw(field, _transpose(cols))


# ----------------------------------------------------------------------
# generalized Jordan form
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class JordanBlockSpec:
    poly: Poly
    size: int  # l, the number of companion blocks

    @property
    def degree(self) -> int:
        return self.poly.degree

    @property
    def alpha(self) -> Optional[FieldElement]:
        if self.poly.degree == 1:
            return -self.poly[0]
        return None

    def realization(self) -> Matrix:
        return Matrix.generalized_jordan_block(self.poly, self.size)


@dataclass(frozen=True)
class GeneralizedJordanForm:
    blocks: Tuple[JordanBlockSpec, ...]
    conjugator: Matrix  # P with P A P^-1 = realization
    realization: Matrix
    # P^-1 over exact kinds, where it is built before P; None over R/C,
    # whose callers invert P themselves
    conjugator_inverse: Optional[Matrix] = None


def generalized_jordan_form(A: Matrix) -> GeneralizedJordanForm:
    """P A P^-1 = the direct sum of generalized Jordan blocks J_{f,l}.
    The blocks come from the factorization of charpoly(A), which is unique,
    so the form depends on A alone.

    Over exact kinds there are two routes to the kernels ker p(A)^j, with
    the same result (see the module docstring).  The Krylov route, taken
    when e_0, e_{n-1} or the all-ones vector is cyclic for A
    (``_cyclic_krylov``), reads chi and every kernel off one basis
    [v, Av, ..., A^(n-1) v]; the nullspace route, for the other inputs
    (derogatory ones among them), computes chi by Berkowitz and the
    nullspaces of the powers of p(A).  Per call at F_101 on random
    matrices, on a 2-core x86-64 host (medians of the two routes
    interleaved call by call): 1.54-1.78 against 2.32-2.72 ms at n = 12,
    0.91-1.14 against 1.07-1.36 ms at n = 6, and 0.42-0.47 against
    0.44-0.52 ms at n = 4; factoring chi takes 0.55, 0.24-0.38 and
    0.13-0.18 ms of each.  ``conjugator_inverse`` is Q = P^-1, from which
    P is computed, over exact kinds, and None over R/C."""
    _require_square(A)
    if not A.nrows:
        raise UsageError("the Jordan form needs a matrix of size at least 1")
    field = A.field
    exact = field.is_exact
    if exact:
        from .factor import factor

        krylov = _cyclic_krylov(A)
        chi = charpoly(A) if krylov is None else krylov[0]
        pairs = [(t.poly, t.multiplicity) for t in factor(chi).factors]
        block_data = _jordan_block_data(A, pairs, krylov)
    else:
        # (poly, multiplicity) clusters come from the numeric roots.  A root
        # of multiplicity m is only located to about eps^(1/m) by the
        # global iteration, so the cluster radius widens, one route per
        # radius up to 0.05 * scale, until the chain structure validates
        # the clusters; over R every complex cluster must find a conjugate
        # partner at that radius.  Cluster centers are polished by Newton
        # on a derivative of the characteristic polynomial.  The spectrum
        # is computed once; a radius that reproduces clusters already tried
        # declines at once (the chain check depends only on A and the
        # clusters, so it would fail the same way).
        chi = charpoly(A)
        roots = sorted(_finite_roots(chi), key=lambda z: (round(z.real, 8), round(z.imag, 8)))
        coeffs = [complex(c) for c in chi.reps]
        scale = 1.0 + max(abs(r) for r in roots) if roots else 1.0
        tried = set()

        def clustering(radius):
            pairs = _pair_clusters(field, _cluster_roots(roots, radius), radius, coeffs)
            key = repr([(p.reps, s) for p, s in pairs])  # repr tells -0.0 from 0.0
            if key not in tried:  # else None: the same clusters fail the same way
                tried.add(key)
                return _jordan_block_data(A, pairs)

        first = max(1e-8, field.tolerance * 1e-1) * scale
        radii = itertools.takewhile(lambda radius: radius <= 0.05 * scale,
                                    (first * 8.0 ** attempt for attempt in itertools.count()))
        block_data = first_route(
            ((f"radius {radius!r}", partial(clustering, radius), (VerificationFailed,))
             for radius in radii),
            lambda declined: VerificationFailed("no consistent eigenvalue clustering found: "
                                                "eigenvalue cluster radius escalation exhausted"))

    specs = tuple(JordanBlockSpec(p, l) for p, l, _ in block_data)
    realization = Matrix.block_diag(field, [b.realization() for b in specs])
    # Q's columns: each block's Krylov columns times the inverse of the
    # cyclic basis of its J_{p,l}, so that Q^-1 A Q is the realization
    # (over exact kinds the cyclic basis of a companion block, l = 1, is I)
    kern = field.kernel
    Q = [[] for _ in range(A.nrows)]
    for p, l, cols in block_data:
        part = _transpose(cols)
        if l > 1 or not exact:
            W = _cyclic_basis_cols(Matrix.generalized_jordan_block(p, l))
            part = kern.matmul(part, _inverse_raw(field, _transpose(W)))
        for qrow, prow in zip(Q, part):
            qrow.extend(prow)
    P = _inverse_raw(field, Q)
    if not Matrix._from_raw(field, kern.matmul_chain([P, A.reps, Q])).allclose(realization):
        raise VerificationFailed("generalized Jordan form failed to verify")
    return GeneralizedJordanForm(specs, Matrix._from_raw(field, P), realization,
                                 Matrix._from_raw(field, Q) if exact else None)


def _cyclic_krylov(A: Matrix):
    """(chi, rows, apply) for the first of e_0, e_{n-1} and the all-ones
    vector v that is cyclic for A, or None when none is: chi = charpoly(A),
    rows[k] = A^k v for k < n, apply the prepared v -> A v.  One echelon
    of [K | A^n v], K the columns A^k v, gives the coordinates of A^n v."""
    field = A.field
    kern = field.kernel
    n = A.nrows
    zero, one = field._zero_raw, field._one_raw
    apply = kern.matvec_fn(A.reps)
    for v in ([one] + [zero] * (n - 1), [zero] * (n - 1) + [one], [one] * n):
        rows = [v]
        for _ in range(n):
            rows.append(apply(rows[-1]))
        aug = _transpose(rows)
        if len(kern.echelon(aug, n)) == n:
            rneg = field._rneg
            chi = Poly._from_raw(field, [rneg(row[n]) for row in aug] + [one])
            return chi, rows[:n], apply
    return None


def _cyclic_basis_cols(M: Matrix) -> list:
    """The columns, as raw vectors, of a Krylov basis from a cyclic vector
    of M (M must be non-derogatory).  Candidates, in order: the standard
    basis vectors, then sums of two of them, then the sums of the first 3,
    4, ..., n."""
    field = M.field
    kern = field.kernel
    n = M.nrows
    one, zero = field._one_raw, field._zero_raw
    apply = kern.matvec_fn(M.reps)
    supports = itertools.chain(((i,) for i in range(n)),
                               itertools.combinations(range(n), 2),
                               (range(count) for count in range(3, n + 1)))
    for support in supports:
        v = [one if t in support else zero for t in range(n)]
        cols = [v]
        ech = _Echelon(kern)
        ech.insert(v)
        for _ in range(n - 1):
            v = apply(v)
            if not ech.insert(v):
                break
            cols.append(v)
        else:
            return cols
    raise NotSimilar("matrix block has no cyclic vector")


def _newton_refine_root(coeffs, z: complex, mult: int) -> complex:
    """Polish a root of multiplicity ``mult``: it is a simple root of the
    (mult-1)-th derivative, where Newton converges to machine precision."""
    der = [complex(c) for c in coeffs]
    for _ in range(mult - 1):
        der = [der[i] * i for i in range(1, len(der))]

    def ev(poly, x):
        acc = 0j
        for c in reversed(poly):
            acc = acc * x + c
        return acc

    dder = [der[i] * i for i in range(1, len(der))]
    for _ in range(NEWTON_ITERATIONS):
        fz = ev(der, z)
        dz = ev(dder, z)
        if dz == 0:
            break
        step = fz / dz
        z -= step
        if abs(step) < 1e-15 * (1.0 + abs(z)):
            break
    return z


def _jordan_block_data(A: Matrix, pairs, krylov=None) -> list:
    """(poly, l, raw Krylov columns) per block; raises when the kernel chain
    structure contradicts the claimed factor multiplicities.  Over exact
    kinds the generalized eigenspace of p has dimension s * deg p, and the
    kernel chain stops there; over R/C the multiplicity is a guess from the
    root clusters, and the chain runs until it stabilises, which tests it.
    ``krylov``, from ``_cyclic_krylov``, takes the kernels from the cyclic
    basis instead of nullspaces of powers of p(A)."""
    exact = A.field.is_exact
    kern = A.field.kernel
    if krylov is None:
        apply = kern.matvec_fn(A.reps)
    else:
        chi, rows, apply = krylov
    block_data = []
    for p, s in pairs:
        d = p.degree
        if krylov is None:
            chains = _chain_filtration(A, p(A), d, s * d if exact else None)
        else:
            chains = _chain_tops(kern, _krylov_kernels(kern, rows, chi, p, s), d, apply,
                                 partial(_horner, kern, apply, p.reps))
        chains.sort(key=lambda c: -c[1])
        if sum(l for _, l in chains) != s:
            raise VerificationFailed("chain multiplicities do not match the factorization")
        for v, l in chains:
            cols = [v]
            for _ in range(l * d - 1):
                cols.append(apply(cols[-1]))
            block_data.append((p, l, cols))
    return block_data


def _krylov_kernels(kern, rows, chi: Poly, p: Poly, s: int) -> list:
    """[[], ker p(A)^1, ..., ker p(A)^s] for A with cyclic vector v,
    rows[k] = A^k v, in the bases ``_nullspace_raw`` gives (see the module
    docstring): on the basis rows A acts as x on K[x]/(chi), so ker p(A)^j
    is spanned by the vectors of x^i * chi/p^j, i < j deg p, which an
    echelon on reversed coordinates reduces to that basis."""
    n = len(rows)
    zero = kern.zero
    kers = [[]]
    h = chi.reps
    for j in range(1, s + 1):
        h = kern.poly_divmod(h, p.reps)[0]
        shifts = [[zero] * i + h + [zero] * (n - len(h) - i)
                  for i in range(n - len(h) + 1)]
        span = [vec[::-1] for vec in kern.matmul(shifts, rows)]
        pivots = kern.echelon(span)
        kers.append([vec[::-1] for vec in reversed(span[:len(pivots)])])
    return kers


def _horner(kern, apply, coeffs, v) -> list:
    """p(A) v for monic p with raw coefficients ``coeffs`` (low degree
    first), by Horner on vectors through ``apply`` = (v -> A v)."""
    acc = v
    for c in coeffs[-2::-1]:
        acc = kern.vadd(apply(acc), kern.vscale(v, c))
    return acc


def _finite_roots(chi: Poly) -> list:
    """``approx_roots(chi)`` for a characteristic polynomial over R or C,
    refused when float overflow left a coefficient or a root that is not
    finite (an overflowed chi gives NaN roots, which no field accepts)."""
    if not all(map(cmath.isfinite, chi.reps)):
        raise VerificationFailed("floating-point overflow: the characteristic polynomial "
                                 "has a coefficient that is not finite")
    try:
        roots = approx_roots(chi)
    except OverflowError as exc:  # a complex abs in the sweep
        raise VerificationFailed("floating-point overflow: the eigenvalue iteration "
                                 "overflowed") from exc
    if not all(map(cmath.isfinite, roots)):
        raise VerificationFailed("floating-point overflow: an eigenvalue estimate is not finite")
    return roots


def _cluster_roots(roots, radius):
    """Clusters [center, count] of roots sorted by their rounded parts."""
    clusters = []
    for r in roots:
        for c in clusters:
            if abs(c[0] - r) <= radius:
                c[1] += 1
                c[0] = c[0] + (r - c[0]) / c[1]
                break
        else:
            clusters.append([r, 1])
    return clusters


def _pair_clusters(field, clusters, radius, coeffs):
    for c in clusters:
        if c[1] > 1:
            c[0] = _newton_refine_root(coeffs, c[0], c[1])
    pairs = []
    if field.kind == "complex":
        for z, m in clusters:
            pairs.append((Poly(field, [field(-z), field.one()]), m))
        return pairs
    used = [False] * len(clusters)
    for i, (z, m) in enumerate(clusters):
        if used[i]:
            continue
        if abs(z.imag) <= radius:
            used[i] = True
            pairs.append((Poly(field, [field(-z.real), field.one()]), m))
            continue
        for j in range(i + 1, len(clusters)):
            if not used[j] and clusters[j][1] == m and \
                    abs(clusters[j][0] - z.conjugate()) <= 2 * radius:
                used[i] = used[j] = True
                b = -2.0 * z.real
                c = abs(z) ** 2
                pairs.append((Poly(field, [field(c), field(b), field.one()]), m))
                break
        else:
            raise VerificationFailed("unpaired complex eigenvalue over R")
    pairs.sort(key=lambda t: t[0].sort_key())
    return pairs


# ----------------------------------------------------------------------
# companion lift (the left-multiplication homomorphism)
# ----------------------------------------------------------------------

def companion_lift(W: Matrix, p: Poly, root: complex = None) -> Matrix:
    """Entrywise left-multiplication lift M_l(K(alpha)) -> M_{l*d}(K).

    Exact kinds: the entries of W live in K[t]/(p) and each entry c(alpha)
    becomes c evaluated at the companion matrix of p.  Over R with a complex
    quadratic factor, ``root`` names the chosen complex root and entries are
    decomposed as u + v*root.
    """
    require_matrix(W)
    require_poly(p)
    base = p.field
    d = p.degree
    C = Matrix.companion(p)
    powers = [Matrix.identity(base, d)]
    for _ in range(d - 1):
        powers.append(powers[-1] * C)

    wf = W.field
    if wf.kind == "ext" and wf.base.key == base.key and wf.modulus == p.reps:
        def lift_entry(x):
            out = Matrix.zeros(base, d, d)
            for i, c in enumerate(x):
                if not base.kernel.is_zero(c):
                    out = out + powers[i].scale(base.element(c))
            return out
    elif wf.kind == "complex" and base.kind == "real" and d == 2 and root is not None:
        lam = complex(root)

        def lift_entry(x):
            w = complex(x)
            v = w.imag / lam.imag
            u = w.real - v * lam.real
            return powers[0].scale(base(u)) + powers[1].scale(base(v))
    else:
        raise DescriptorMismatch(
            f"cannot lift entries of {wf} through the companion of {p!r} over {base}")

    rows = [[] for _ in range(W.nrows * d)]
    for i, wrow in enumerate(W.reps):
        for x in wrow:
            for bi, brow in enumerate(lift_entry(x).reps):
                rows[i * d + bi].extend(brow)
    return Matrix._from_raw(base, rows)
