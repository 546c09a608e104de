"""Products of commutators on M_n(K).

Every matrix over a perfect field is a product of two trace-zero matrices;
the constructions here produce the two factors explicitly for each canonical
shape (2x2 shapes, Jordan blocks, diagonals, Jordan-plus-scalar, companions)
and a dispatcher that routes an arbitrary matrix through its generalized
Jordan form; the blocks of an extension factor are solved over the
factor's working field (``reduction.working_field``: K(alpha), or C with a
chosen root over R) and lifted back through the companion map.  A second
layer writes any trace-zero matrix as one commutator [X, Y], which together
solves [X1,X2]...[X_{m-1},X_m] = A for even m >= 4 (and m = 2 exactly on
the trace-zero slice).

Verification rule: one gate per public entry point, at the call that
returns the answer.  ``factor_two_trace_zero`` checks its pair's traces and
product, ``trace_zero_to_commutator`` checks X*Y - Y*X = T once at its end,
whichever route answered, and ``solve_commutator_product`` checks the
finished word through ``words.make_witness`` and nothing else.  What they
are built from is unchecked: the shape constructors (the ``*_trace_zero``
functions) return plain (t1, t2) tuples, the planner covers the Jordan
blocks by construction, and the lifted pairs, the task assembly and the
single commutators (``_commutator``, whose component split recurses into
it: the m = 2 commutator, the four inner factors, the m >= 6 peel pair)
are checked again by the gate above them.  Inside the library nothing calls
``trace_zero_to_commutator``.  One re-check stays below a gate, the linear
search's partner check, since its failure selects the next candidate.

Structured products.  A product by a permutation, an identity or a
diagonal matrix is the kernel's ``reorder`` for every field kind: the task
layout's permutation applied to the Jordan conjugator (and, over exact
kinds, to its inverse), the pairing permutation of ``diagonal_trace_zero``,
the row rotation of the m >= 6 peel's target, the peel pair's
conjugation, S^-1 D in Shoda's [D, B], and D and B between identities when
no shear ran.  Over exact kinds it reorders and scales.  Over R and C it
keeps the one term each dense sum holds, skipped where the dense product
skips a tolerance-zero left factor and added to zero as it adds it, so the
witnesses are those of the dense products, float bits included.  The kinds
part only where they compute differently: chi's roots (factored, or
numeric over R and C), inverses (built alongside, or dense over R and C for
their float bits) and association (``solve_commutator_product`` conjugates
its four inner factors once, by G2*G, where exact products associate).
The conjugations G^-1 x G and the commutator checks run on the kernel's
chain products (``Matrix.product``, ``Matrix.commutator``): over Q each
factor is cleared to integers once and each entry normalised once;
elsewhere they are the products left to right, with the same results.

The peel pair.  For m >= 6, ``solve_commutator_product`` peels (m-4)/2
copies of one commutator [X_U, Y_U] = U, U the cyclic shift, conjugated
once by the Jordan conjugator G.  U has zero diagonal, so over a field
with at least n elements, every infinite field among them, Shoda's [D, B]
needs no shear and the pair is in closed form (``_shift_pair``):
X_U = diag(d), d the n values of ``_distinct_values`` that
``_zero_diag_commutator`` uses too, and Y_U = diag(w) U with
w_i = 1/(d_i - d_{i+1 mod n}), the weighted shift that ``_weighted_shift``
builds, as it builds the scalar formula's Y.  The peel forms neither
matrix: G^-1 X_U is G^-1 with its columns scaled by d, and G^-1 Y_U is
G^-1 with its columns scaled by w and rotated one place, two ``reorder``
calls, so each matrix costs one dense product, by G, where the solved pair
took two.  Over R and C, G = I, and the product by G is the identity
conjugation through ``reorder`` that the other factors get: the closed
form gives the bits the routes' products I D I and I B I gave, and no
dense product is left.  Over F_q with q < n,
``_commutator`` solves U on every call and the dense products stay.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .errors import (
    NonzeroTrace,
    UnhandledShape,
    Unsupported,
    UsageError,
    VerificationFailed,
    WitnessNotFound,
    first_route,
)
from .fields import Field, FieldElement, enumerate_elements, random_element
from .matrices import (
    Matrix,
    _cyclic_basis_cols,
    _finite_roots,
    _inverse_raw,
    _nullspace_raw,
    _solve_raw,
    _transpose,
    charpoly,
    generalized_jordan_form,
    companion_lift,
    require_matrix,
)
from .polynomials import Poly
from .reduction import working_field
from .words import CommutatorProduct, Witness, make_witness, require_int


@dataclass(frozen=True)
class TraceZeroPair:
    """Two trace-zero matrices whose product is ``target``, as
    ``factor_two_trace_zero`` checked them."""

    t1: Matrix
    t2: Matrix
    target: Matrix

    def __iter__(self):
        return iter((self.t1, self.t2))


def _conjugated_pair(t1: Matrix, t2: Matrix, S: Matrix) -> Tuple[Matrix, Matrix]:
    """(S t1 S^-1, S t2 S^-1)."""
    Si = S.inverse()
    return S * t1 * Si, S * t2 * Si


# ----------------------------------------------------------------------
# 2x2 canonical shapes
# ----------------------------------------------------------------------

def two_by_two_trace_zero(A: Matrix) -> Tuple[Matrix, Matrix]:
    """Explicit factor pair for the three canonical 2x2 shapes, unchecked;
    general matrices must be canonicalized first (see factor_two_trace_zero)."""
    if A.nrows != 2 or A.ncols != 2:
        raise UnhandledShape("2x2 matrix expected")
    field = A.field
    a00, a01, a10, a11 = A[0, 0], A[0, 1], A[1, 0], A[1, 1]
    one = field.one()
    zero = field.zero()
    if a01.is_zero() and a10.is_zero():
        t1 = Matrix(field, [[zero, a00], [one, zero]])
        t2 = Matrix(field, [[zero, a11], [one, zero]])
        return t1, t2
    if a01 == one and a10.is_zero() and a00 == a11:
        alpha = a00
        t1 = Matrix.diagonal(field, [one, -one])
        t2 = Matrix(field, [[alpha, one], [zero, -alpha]])
        return t1, t2
    if a00.is_zero() and a10 == one and not a01.is_zero():
        b, a = a01, a11
        t1 = Matrix(field, [[a, -b], [one + a * a / b, -a]])
        t2 = Matrix(field, [[one, zero], [a / b, -one]])
        return t1, t2
    raise UnhandledShape("not a canonical 2x2 shape; canonicalize first")


# ----------------------------------------------------------------------
# Jordan blocks, diagonals, Jordan-plus-scalar, companions
# ----------------------------------------------------------------------

def _sign_diag_fix(field: Field, signs: List[FieldElement], extra: int = 0) -> Matrix:
    """Diagonal D with D J' D^-1 = J for J' having superdiagonal ``signs``;
    ``extra`` appends that many trailing ones (untouched coordinates)."""
    d = [field.one()]
    for s in signs:
        d.append(d[-1] * s)
    d.extend([field.one()] * extra)
    return Matrix.diagonal(field, d)


def jordan_block_trace_zero(alpha: FieldElement, n: int) -> Tuple[Matrix, Matrix]:
    """J_{alpha,n} as a product of two trace-zero matrices (n >= 2),
    unchecked."""
    if n < 2:
        raise UsageError("Jordan factorization needs n >= 2")
    field = alpha.field
    one, zero = field.one(), field.zero()
    if n == 2:
        return two_by_two_trace_zero(Matrix.jordan_block(alpha, n))
    if n % 2 == 0:
        d = [one if i % 2 == 0 else -one for i in range(n)]
        t1 = Matrix.diagonal(field, d)
        rows = [[zero] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = alpha if i % 2 == 0 else -alpha
            if i + 1 < n:
                rows[i][i + 1] = one if i % 2 == 0 else -one
        return t1, Matrix(field, rows)
    # odd n: cyclic-shift factorization lands on the sign-alternating block
    t1 = Matrix.cyclic_shift(field, n)
    rows = [[zero] * n for _ in range(n)]
    rows[0][n - 1] = alpha
    for j in range(1, n):
        rows[j][j - 1] = alpha
        rows[j][j] = one if (j + 1) % 2 == 0 else -one
    t2 = Matrix(field, rows)
    signs = [one if i % 2 == 0 else -one for i in range(n - 1)]
    return _conjugated_pair(t1, t2, _sign_diag_fix(field, signs))


def diagonal_trace_zero(entries) -> Tuple[Matrix, Matrix]:
    """diag(entries) as a product of two trace-zero matrices, unchecked.

    Zero entries are paired with arbitrary partners through the 2x2 swap
    formula (which needs no division); the 3x3 closing formula is used once
    for odd sizes and needs two nonzero entries in its corners.  An all-zero
    diagonal is 0 * 0.
    """
    entries = list(entries)
    n = len(entries)
    if n < 1:
        raise UsageError("empty diagonal")
    field = entries[0].field
    one, zero = field.one(), field.zero()
    nz = [i for i, e in enumerate(entries) if not e.is_zero()]
    if not nz:
        z = Matrix.zeros(field, n, n)
        return z, z
    if n == 1:
        raise UnhandledShape("a nonzero 1x1 block is not a product of two trace-zero 1x1s")
    order, blocks1, blocks2 = [], [], []
    pairs, zeros = list(range(n)), []
    if n % 2 == 1 and len(nz) >= 2:
        i, k = nz[0], nz[1]
        j = next(t for t in range(n) if t not in (i, k))
        order.extend([i, j, k])
        a1, a2, a3 = entries[i], entries[j], entries[k]
        blocks1.append(Matrix(field, [
            [zero, a3, zero], [-a1, a3, zero], [zero, zero, -a3]]))
        blocks2.append(Matrix(field, [
            [one, -(a2 / a1), zero], [a1 / a3, zero, zero], [zero, zero, -one]]))
        pairs = [t for t in pairs if t not in (i, j, k)]
    elif n % 2 == 1:
        i = nz[0]
        j = next(t for t in range(n) if t != i)
        pairs, zeros = [i, j], [t for t in range(n) if t not in (i, j)]
    for i, j in zip(pairs[::2], pairs[1::2]):
        order.extend([i, j])
        blocks1.append(Matrix(field, [[zero, one], [one, zero]]))
        blocks2.append(Matrix(field, [[zero, entries[j]], [entries[i], zero]]))
    if zeros:
        order.extend(zeros)
        z = Matrix.zeros(field, len(zeros), len(zeros))
        blocks1.append(z)
        blocks2.append(z)
    t1 = Matrix.block_diag(field, blocks1)
    t2 = Matrix.block_diag(field, blocks2)
    # P^-1 t P, P = Matrix.permutation(field, order), reorders the rows and
    # columns of t: its (a, b) entry is t[inv[a]][inv[b]]
    inv = sorted(range(n), key=order.__getitem__)
    return tuple(Matrix._from_raw(field, field.kernel.reorder(t.reps, inv, inv)) for t in (t1, t2))


def jordan_plus_scalar_trace_zero(alpha: FieldElement, n: int,
                                  beta: FieldElement) -> Tuple[Matrix, Matrix]:
    """J_{alpha,n} (+) (beta), total size n+1, as a trace-zero product,
    unchecked."""
    if n < 2:
        raise UsageError("needs a Jordan part of size >= 2")
    field = alpha.field
    N = n + 1
    one, zero = field.one(), field.zero()
    r1 = [[zero] * N for _ in range(N)]
    r2 = [[zero] * N for _ in range(N)]
    if n % 2 == 0:
        for i in range(n - 1):
            r1[i][i + 1] = one
        r1[n - 1][0] = one
        r1[n - 1][n] = one
        r1[n][0] = beta
        r2[0][N - 1] = one
        for j in range(1, N):
            r2[j][j - 1] = alpha
        for j in range(1, n):
            r2[j][j] = one if (j + 1) % 2 == 0 else -one
        r2[n][n] = -one
    else:
        for i in range(N - 1):
            r1[i][i + 1] = one
        r1[N - 1][0] = one
        r2[0][N - 1] = beta
        for j in range(1, N):
            r2[j][j - 1] = alpha
        for j in range(1, n):
            r2[j][j] = one if (j + 1) % 2 == 0 else -one
    t1, t2 = Matrix(field, r1), Matrix(field, r2)
    prod = t1 * t2
    signs = [prod[i, i + 1] for i in range(n - 1)]
    return _conjugated_pair(t1, t2, _sign_diag_fix(field, signs, extra=1))


def companion_trace_zero(p: Poly) -> Tuple[Matrix, Matrix]:
    """The companion matrix of monic p, deg p >= 3, as a trace-zero
    product, unchecked."""
    n = p.degree
    if n < 3:
        raise UsageError("companion factorization needs degree >= 3")
    if not p.is_monic():
        raise UsageError("p must be monic")
    field = p.field
    one, zero = field.one(), field.zero()
    nm2 = field(n - 2)
    r1 = [[zero] * n for _ in range(n)]
    r2 = [[zero] * n for _ in range(n)]
    r1[0][n - 1] = p[0]
    for j in range(1, n - 1):
        r1[j][j] = one
        r1[j][n - 1] = p[j]
    r1[n - 1][0] = one
    r1[n - 1][1] = -one
    r1[n - 1][n - 1] = -nm2
    r2[0][0] = one
    r2[0][n - 2] = r2[0][n - 2] + one
    r2[0][n - 1] = -p[n - 1] - nm2
    for j in range(1, n - 1):
        r2[j][j - 1] = one
    r2[n - 1][n - 1] = -one
    return Matrix(field, r1), Matrix(field, r2)


# ----------------------------------------------------------------------
# general dispatcher (two trace-zero factors for any matrix)
# ----------------------------------------------------------------------

def factor_two_trace_zero(A: Matrix, seed: int = 0) -> TraceZeroPair:
    """Write any square A (n >= 2; n = 1 only for A = 0) as T1*T2 with
    trace(T1) = trace(T2) = 0, routing through the generalized Jordan form.
    The pair is a fixed function of A alone: ``seed`` is accepted for the
    callers that pass one and changes nothing."""
    require_matrix(A)
    require_int(seed, "seed")
    u, v, G, Gi = _factor_two_canonical(A)
    t1, t2 = Matrix.product(Gi, u, G), Matrix.product(Gi, v, G)
    if not t1.trace().is_zero() or not t2.trace().is_zero():
        raise VerificationFailed("factor has nonzero trace")
    if not (t1 * t2).allclose(A):
        raise VerificationFailed("trace-zero factor product mismatch")
    return TraceZeroPair(t1, t2, A)


def _factor_two_canonical(A: Matrix, blocks=None):
    """(U, V, G, G^-1) with U*V = G A G^-1, a middle that depends only on
    the Jordan data of A (so conjugate inputs share it).  ``blocks``, when
    given, are the Jordan blocks of A and A is their realization: the
    realization is a fixed point of ``generalized_jordan_form`` (same
    blocks, identity conjugator), so its Jordan form is not computed, and
    the 2x2 step reads chi's roots from them.  Over exact kinds G^-1 comes
    from the bases G is built from; over R/C it is G.inverse(), whose float
    bits the callers had before."""
    field = A.field
    n = A.nrows
    if n != A.ncols:
        raise UsageError("square matrix expected")
    if A.is_zero():
        u = v = Matrix.zeros(field, n, n)
        G = Gi = Matrix.identity(field, n)
    elif n == 1:
        raise Unsupported("a nonzero 1x1 matrix is not a product of two trace-zero factors")
    elif n == 2:
        shape, S = _canonical_2x2(A, blocks)
        u, v = two_by_two_trace_zero(shape)
        G, Gi = S.inverse(), S
    else:
        pairs, G, Gi = _factorization_tasks(A, blocks)
        u = Matrix.block_diag(field, [t1 for t1, _ in pairs])
        v = Matrix.block_diag(field, [t2 for _, t2 in pairs])
    if not field.is_exact:
        Gi = G.inverse()
    return u, v, G, Gi


def _canonical_2x2(A: Matrix, blocks=None):
    """(canonical shape C, S) with S^-1 A S = C; C is one of the 2x2 canonical
    shapes.  ``blocks`` are as in ``_factor_two_canonical``."""
    field = A.field
    chi = charpoly(A)
    a = -chi[1]
    b = -chi[0]
    roots = _quadratic_roots(chi, blocks)
    ident = Matrix.identity(field, 2)
    if len(roots) == 2 and roots[0] != roots[1]:
        cols = []
        for r in roots:
            ns = _nullspace_raw(field, (A - ident.scale(r)).reps)
            if not ns:
                # approximate kinds: the eigenvalue missed the spectrum by
                # more than the pivot tolerance
                raise VerificationFailed(f"no eigenvector for the eigenvalue {r!r}")
            cols.append(ns[0])
        S = Matrix._from_raw(field, _transpose(cols))
        return Matrix.diagonal(field, roots), S
    kern = field.kernel
    if len(roots) >= 1:
        alpha = roots[0]
        N = A - ident.scale(alpha)
        if N.is_zero():
            return Matrix.diagonal(field, [alpha, alpha]), ident
        apply = kern.matvec_fn(N.reps)
        for v in ident.reps:  # e_0, e_1
            u = apply(v)
            if not all(map(kern.is_zero, u)):
                S = Matrix._from_raw(field, _transpose([u, v]))
                jshape = Matrix(field, [[alpha, field.one()], [field.zero(), alpha]])
                return jshape, S
        raise VerificationFailed("double root without Jordan vector")
    # irreducible characteristic polynomial: cyclic to the companion shape
    v = ident.reps[0]
    S = Matrix._from_raw(field, _transpose([v, kern.matvec_fn(A.reps)(v)]))
    comp = Matrix(field, [[field.zero(), b], [field.one(), a]])
    return comp, S


def _quadratic_roots(chi: Poly, blocks=None) -> list:
    """chi's roots in its field, sorted.  Over exact kinds a linear factor
    x - alpha of multiplicity l gives l copies of alpha; the linear Jordan
    blocks of a matrix with charpoly chi, when given, hold the same roots
    (J_{x - alpha, l} holds alpha l times), and chi is not factored."""
    field = chi.field
    if field.is_exact:
        from .factor import factor

        pairs = ([(spec.poly, spec.size) for spec in blocks] if blocks is not None
                 else [(term.poly, term.multiplicity) for term in factor(chi)])
        roots = [-p[0] for p, count in pairs if p.degree == 1 for _ in range(count)]
        return sorted(roots, key=lambda r: r.sort_key())
    rts = _finite_roots(chi)
    tol = max(field.tolerance, 1e-10) * (1.0 + max(abs(r) for r in rts))
    out = []
    for r in rts:
        if field.kind == "real" and abs(r.imag) > tol:
            continue
        out.append(field(r.real) if field.kind == "real" else field(r))
    if len(out) == 2 and abs(complex(out[0].rep) - complex(out[1].rep)) <= tol:
        out = [out[0], out[0]]
    out.sort(key=lambda r: r.sort_key())
    return out


def _factorization_tasks(A: Matrix, blocks=None):
    """Cover the Jordan blocks of A by factorizable groups.

    Factors are taken in ``sort_key`` order and blocks in Jordan-form order.
    The cover rules, in task order:

    1. A lone scalar block (the only 1x1 block of a linear factor) goes with
       the first larger linear-factor block to Jordan-plus-scalar, or else
       with the first block of the first extension factor to the companion
       merge: one companion of the coprime product (A is n x n, n >= 3, so
       one of the two is there).
    2. Each other linear-factor block of size >= 2 is its own Jordan task.
    3. The remaining scalars form one diagonal.
    4. Per extension factor p, a lone 1x1 block is the companion of p over
       K.  Otherwise the tasks are Jordan-plus-scalar (when p has exactly
       one 1x1 block and a larger one), Jordan (each other block of size
       >= 2) and diagonal (the 1x1 blocks left) over the factor's working
       field (``reduction.working_field``: K(alpha), or C with a chosen
       root over R), chosen once per factor, each lifted back to K through
       the companion map.

    Returns (pairs, G, G^-1): one (t1, t2) over K per task, whose product
    is the direct sum of the task's blocks after the global reordering; G
    conjugates A onto the concatenated task products.  G^-1 is None over
    R/C.  ``blocks`` are as in ``_factor_two_canonical``.
    """
    field = A.field
    # the Jordan conjugator of A and its inverse; None when A is its realization
    P = Pinv = None
    if blocks is None:
        jf = generalized_jordan_form(A)
        blocks, P, Pinv = jf.blocks, jf.conjugator, jf.conjugator_inverse
    blocks = list(blocks)
    by_factor = {}
    for idx, spec in enumerate(blocks):
        by_factor.setdefault(spec.poly, []).append(idx)

    bigs, scalars, ext_factors = [], [], []
    for p in sorted(by_factor, key=lambda q: q.sort_key()):
        idxs = by_factor[p]
        if p.degree == 1:
            for i in idxs:
                (bigs if blocks[i].size >= 2 else scalars).append(i)
        else:
            ext_factors.append((p, idxs))

    tasks = []  # ((t1, t2), block indices, W with W^-1 (+)blocks W = t1*t2, or None)
    if len(scalars) == 1 and (bigs or ext_factors):
        s = scalars.pop()
        if bigs:
            i = bigs.pop(0)
            tasks.append((jordan_plus_scalar_trace_zero(
                blocks[i].alpha, blocks[i].size, blocks[s].alpha), [i, s], None))
        else:
            p, idxs = ext_factors[0]
            j = idxs.pop(0)
            if not idxs:
                ext_factors.pop(0)
            gamma = blocks[s].alpha
            pair = companion_trace_zero((Poly.x(field) - Poly.constant(gamma))
                                        * p ** blocks[j].size)
            B = Matrix.block_diag(field, [
                Matrix.diagonal(field, [gamma]), blocks[j].realization()])
            W = Matrix._from_raw(field, _transpose(_cyclic_basis_cols(B)))
            tasks.append((pair, [s, j], W))
    for i in bigs:
        tasks.append((jordan_block_trace_zero(blocks[i].alpha, blocks[i].size), [i], None))
    if scalars:
        tasks.append((diagonal_trace_zero([blocks[i].alpha for i in scalars]), scalars, None))
    for p, idxs in ext_factors:
        bigs = [i for i in idxs if blocks[i].size >= 2]
        scalars = [i for i in idxs if blocks[i].size == 1]
        if not bigs and len(scalars) == 1:
            pair = (two_by_two_trace_zero(Matrix.companion(p)) if p.degree == 2
                    else companion_trace_zero(p))
            tasks.append((pair, scalars, None))
            continue
        _, alpha, _, root = working_field(field, p)
        ext_tasks = []  # (pair over the working field, block indices)
        if len(scalars) == 1 and bigs:
            i = bigs.pop(0)
            pair = jordan_plus_scalar_trace_zero(alpha, blocks[i].size, alpha)
            ext_tasks.append((pair, [i, scalars.pop()]))
        for i in bigs:
            ext_tasks.append((jordan_block_trace_zero(alpha, blocks[i].size), [i]))
        if scalars:
            ext_tasks.append((diagonal_trace_zero([alpha] * len(scalars)), scalars))
        tasks.extend((tuple(companion_lift(M, p, root) for M in pair), idxs, None)
                     for pair, idxs in ext_tasks)

    flat = [i for _, idxs, _ in tasks for i in idxs]
    # permutation sending the Jordan realization layout to the task layout
    spans = []
    off = 0
    for spec in blocks:
        size = spec.size * spec.degree
        spans.append(range(off, off + size))
        off += size
    order = [pos for i in flat for pos in spans[i]]
    pairs = [pair for pair, _, _ in tasks]
    # R^-1 per task: the cyclic basis of a companion merge, else I
    bases = [Matrix.identity(field, t1.nrows) if W is None else W for (t1, _), _, W in tasks]
    merged = any(W is not None for _, _, W in tasks)
    # G = Rall Pi P, Pi = Matrix.permutation(field, order) and Rall = I
    # unless a companion merge happened: Rall Pi reorders the columns of
    # Rall, and Pi P the rows of P (of I when P is None)
    kern = field.kernel
    inv = sorted(range(len(order)), key=order.__getitem__)
    if merged:
        Rall = Matrix.block_diag(field, [B if W is None else B.inverse()
                                         for (_, _, W), B in zip(tasks, bases)])
        G = kern.reorder(Rall.reps, col_order=inv)
        G = G if P is None else kern.matmul(G, P.reps)
    else:
        G = kern.reorder((Matrix.identity(field, len(order)) if P is None else P).reps, order)
    G = Matrix._from_raw(field, G)
    if not field.is_exact:
        return pairs, G, None
    if not merged and P is not None:
        # G^-1 = P^-1 Pi^-1 reorders the columns of P^-1
        return pairs, G, Matrix._from_raw(field, kern.reorder(Pinv.reps, col_order=order))
    # G^-1 = P^-1 Pi^-1 Rall^-1, whose factor Pi^-1 reorders rows
    Gi = Matrix._from_raw(field, kern.reorder(Matrix.block_diag(field, bases).reps,
                                              row_order=inv))
    return pairs, G, Gi if P is None else Pinv * Gi


# ----------------------------------------------------------------------
# single commutators
# ----------------------------------------------------------------------

def trace_zero_to_commutator(T: Matrix, seed: int = 0) -> Tuple[Matrix, Matrix]:
    """(X, Y) with X*Y - Y*X = T, for trace(T) = 0."""
    require_matrix(T)
    require_int(seed, "seed")
    if not T.trace().is_zero():
        raise NonzeroTrace("commutators have trace zero")
    X, Y = _commutator(T, seed)
    if not X.commutator(Y).allclose(T):
        raise VerificationFailed("commutator witness failed to verify")
    return X, Y


def _commutator(T: Matrix, seed: int) -> Tuple[Matrix, Matrix]:
    """(X, Y) with X*Y - Y*X = T for trace(T) = 0, unchecked.  Zero and
    scalar targets have their formulas; any other T runs the route tuple
    support components, zero diagonal, linear search, each declining with
    None.  When all three decline, the error lists them as ``.routes``:
    WitnessNotFound over a finite field, where the linear search is a
    bounded draw that ran out, and VerificationFailed over an infinite one,
    where every trace-zero matrix is a commutator (Shoda), so the routes
    broke down (over R and C, in floating point).  A nonzero scalar has
    trace zero only in characteristic p with p | n, so only there is the
    scalar formula used; in characteristic 0 a target within the tolerance
    of c*I goes on to the routes."""
    if T.is_zero():
        z = Matrix.zeros(T.field, T.nrows, T.nrows)
        return z, z
    p = T.field.characteristic
    if p and T.nrows % p == 0 and T == Matrix.identity(T.field, T.nrows).scale(T[0, 0]):
        return _scalar_commutator(T)
    return first_route((
        ("support components", lambda: _component_commutator(T, seed), ()),
        ("zero diagonal", lambda: _zero_diag_commutator(T), ()),
        ("linear search", lambda: _commutator_linear_search(T, seed), ()),
    ), lambda declined: (WitnessNotFound("no commutator witness found in the fallback family")
                         if T.field.is_finite else
                         VerificationFailed(f"every commutator route broke down over {T.field}")))


def _component_commutator(T: Matrix, seed: int):
    """Solve per connected component of the symmetric nonzero support when
    every component has trace zero; the diagonal matrix of the [D, B] step
    then only needs distinct values inside each component, which rescues
    small fields."""
    field = T.field
    kern = field.kernel
    is_zero = kern.is_zero
    n = T.nrows
    rows = T.reps
    label = list(range(n))  # the least index of i's component so far
    for i in range(n):
        for j in range(i + 1, n):
            if label[i] != label[j] and (not is_zero(rows[i][j]) or not is_zero(rows[j][i])):
                lo, hi = sorted((label[i], label[j]))
                label = [lo if t == hi else t for t in label]
    groups = {}
    for i in range(n):
        groups.setdefault(label[i], []).append(i)
    comps = list(groups.values())  # ascending, ordered by their least index
    if len(comps) <= 1:
        return None
    subs = [Matrix._from_raw(field, [[rows[i][j] for j in comp] for i in comp]) for comp in comps]
    if not all(sub.trace().is_zero() for sub in subs):
        return None
    x_rows = [[kern.zero] * n for _ in range(n)]
    y_rows = [[kern.zero] * n for _ in range(n)]
    for comp, sub in zip(comps, subs):
        Xc, Yc = _commutator(sub, seed)
        for a, i in enumerate(comp):
            for b, j in enumerate(comp):
                x_rows[i][j] = Xc.reps[a][b]
                y_rows[i][j] = Yc.reps[a][b]
    return Matrix._from_raw(field, x_rows), Matrix._from_raw(field, y_rows)


def _scalar_commutator(T: Matrix) -> Tuple[Matrix, Matrix]:
    """c*I = [X, Y] for X the cyclic shift down and Y the shift up weighted
    by y_{i,i+1} = -(i+1)c; exact when char | n."""
    field, n, c = T.field, T.nrows, T[0, 0]
    X = Matrix.permutation(field, [(i - 1) % n for i in range(n)])
    return X, _weighted_shift(field, [(-(field(i + 1) * c)).rep for i in range(n)])


def _weighted_shift(field: Field, weights) -> Matrix:
    """diag(weights) times the cyclic shift, built entry by entry:
    weights[i] at (i, i+1 mod n), zero elsewhere."""
    n = len(weights)
    return Matrix._from_raw(field, [[w if j == (i + 1) % n else field.kernel.zero
                                     for j in range(n)] for i, w in enumerate(weights)])


def _distinct_values(field: Field, n: int) -> list:
    """Raw reps of n distinct elements, the diagonal of Shoda's D: the
    first n in ``enumerate_elements`` order over a finite field (q >= n),
    0, 1, ..., n-1 elsewhere."""
    if field.is_finite:
        return [e.rep for _, e in zip(range(n), enumerate_elements(field))]
    return [field(i).rep for i in range(n)]


def _zero_diag_commutator(T: Matrix):
    """Shoda's [D, B]: with Z = S T S^-1 of zero diagonal and D diagonal
    with distinct d_i, B_ij = Z_ij / (d_i - d_j), both conjugated back by
    S.  None when K has fewer than n elements or the shears get stuck."""
    field = T.field
    n = T.nrows
    if field.is_finite and field.cardinality < n:
        return None  # no n distinct diagonal values available
    res = _zero_diagonalize(T)
    if res is None:
        return None
    S, Si, Z = res
    kern = field.kernel
    rmul, rsub, inv, zero = kern.rmul, kern.rsub, kern.inv, kern.zero
    dvals = _distinct_values(field, n)
    B = [[zero if i == j else rmul(Z[i][j], inv(rsub(dvals[i], dvals[j])))
          for j in range(n)] for i in range(n)]
    # S = I when T's diagonal was zero already: no shear ran
    if all(kern.is_zero(row[i]) for i, row in enumerate(T.reps)):
        D = [[dvals[i] if i == j else zero for j in range(n)] for i in range(n)]
        return tuple(Matrix._from_raw(field, kern.reorder(M, range(n), range(n))) for M in (D, B))
    if Si is None:  # R/C: the float bits of the dense inverse
        Si = _inverse_raw(field, S)
    return (Matrix._from_raw(field, kern.matmul(kern.reorder(Si, col_scale=dvals), S)),
            Matrix._from_raw(field, kern.matmul_chain([Si, B, S])))


def _zero_diagonalize(T: Matrix):
    """Raw rows (S, S^-1, Z) with Z = S T S^-1 of zero diagonal, via 2x2
    shear merges; S^-1 is None over R/C, whose callers invert S for its
    float bits.  Returns None when the merge loop gets stuck (tiny-field
    pathologies) or Z comes back to a state it had: Z alone decides each
    step, so from there the merges cycle."""
    kern = T.field.kernel
    is_zero, rmul, rsub, inv = kern.is_zero, kern.rmul, kern.rsub, kern.inv
    n = T.nrows
    Z = list(map(list, T.reps))
    S = [[kern.one if i == j else kern.zero for j in range(n)] for i in range(n)]
    # S^-1 E^-1 for each shear E = I + c*e_{r,s}: column s -= c*column r
    Si = [row[:] for row in S] if kern.exact else None
    seen = set()

    def shear(r, s, c):
        kern.shear(Z, r, s, c)
        kern.shear(S, r, s, c, conjugate=False)
        if Si is not None:
            for row in Si:
                row[s] = rsub(row[s], rmul(c, row[r]))

    for _ in range(8 * n * n + 16):
        nonzero = [i for i in range(n) if not is_zero(Z[i][i])]
        if not nonzero:
            return S, Si, Z
        size = len(seen)
        seen.add(tuple(map(tuple, Z)))
        if len(seen) == size:  # a state seen before: the shears cycle
            return None
        # a pair that is coupled or has unequal diagonal entries: merges
        # of two nonzero diagonal entries first
        pair = next(((i, j) for zero_j in (False, True) for i in nonzero
                     for j in range(n)
                     if j != i and is_zero(Z[j][j]) == zero_j
                     and (not is_zero(Z[i][j]) or not is_zero(Z[j][i])
                          or Z[i][i] != Z[j][j])), None)
        if pair is None:
            return None
        i, j = pair
        if is_zero(Z[i][j]) and is_zero(Z[j][i]):
            shear(i, j, kern.one)  # creates coupling since diag entries differ
        a, b, d = Z[i][i], Z[i][j], Z[j][i]
        if not is_zero(b):
            shear(j, i, rmul(a, inv(b)))
        elif not is_zero(d):
            shear(i, j, kern.rneg(rmul(a, inv(d))))
        else:
            return None
    return None


def _solve_partner(X: Matrix, T: Matrix):
    """Y with X*Y - Y*X = T, if T lies in the image of ad_X."""
    field = T.field
    n = T.nrows
    radd, rsub = field._radd, field._rsub
    x = X.reps
    aug = []
    for i in range(n):
        for j in range(n):
            row = [field._zero_raw] * (n * n)
            for l in range(n):
                row[l * n + j] = radd(row[l * n + j], x[i][l])
            for k in range(n):
                row[i * n + k] = rsub(row[i * n + k], x[k][j])
            aug.append(row + [T.reps[i][j]])
    sol = _solve_raw(field, aug, n * n)
    if sol is None:
        return None
    Y = Matrix._from_raw(field, [sol[i * n:(i + 1) * n] for i in range(n)])
    if X.commutator(Y).allclose(T):
        return Y
    return None


def _moments_vanish(X: Matrix, T: Matrix) -> bool:
    """trace(T * X^j) = 0 for 0 < j < n: necessary for T in im(ad_X), and
    also sufficient when X is non-derogatory.  Early exit keeps rejection
    cheap: the first moment is the sum of row i of T times column i of X,
    n dot products in the order the product's diagonal would take them
    (so R and C get its float bits), and T*X, T*X^2, ... are formed only
    when it vanishes."""
    n = T.nrows
    if n < 2:
        return True
    kern = T.field.kernel
    first = kern.zero
    for row, col in zip(T.reps, zip(*X.reps)):
        first = kern.radd(first, kern.dot(row, col))
    if not kern.is_zero(first):
        return False
    P = T * X
    for _ in range(n - 2):
        P = P * X
        if not P.trace().is_zero():
            return False
    return True


def _commutator_linear_search(T: Matrix, seed: int) -> Optional[Tuple[Matrix, Matrix]]:
    """Drive the linear system [X, Y] = T over a stream of mostly-cyclic
    candidates; a random candidate admits a partner with probability about
    q^{1-n}, so the stream is long and rejections are prechecked cheaply.
    None when every try is spent."""
    field = T.field
    n = T.nrows
    rng = random.Random(seed)

    def shear(M):
        i = rng.randrange(n)
        j = (i + 1 + rng.randrange(n - 1)) % n
        return M.shear(i, j, random_element(field, rng))

    def candidates():
        yield Matrix.cyclic_shift(field, n)
        yield Matrix.companion(charpoly(T))
        while True:
            coeffs = [random_element(field, rng) for _ in range(n)] + [field.one()]
            C = Matrix.companion(Poly(field, coeffs))
            yield C
            yield shear(shear(C))
            yield Matrix(field, [
                [random_element(field, rng) for _ in range(n)] for _ in range(n)])

    if field.is_finite:
        # success odds per cyclic candidate are about q^(1-n)
        tries = min(24000, max(2000, 24 * field.cardinality ** max(0, n - 1)))
    else:
        tries = 64
    stream = candidates()
    for _ in range(tries):
        X = next(stream)
        if not _moments_vanish(X, T):
            continue
        Y = _solve_partner(X, T)
        if Y is not None:
            return X, Y
    return None


# ----------------------------------------------------------------------
# products of commutators
# ----------------------------------------------------------------------

def _shift_pair(field: Field, n: int) -> Tuple[list, list]:
    """[X_U, Y_U] = U, U the n x n cyclic shift, in closed form over a
    field with at least n elements (see the module docstring): raw
    (d, w) with X_U = diag(d) and Y_U = ``_weighted_shift(field, w)``, the
    matrices ``_zero_diag_commutator(U)`` builds."""
    kern = field.kernel
    d = _distinct_values(field, n)
    return d, [kern.inv(kern.rsub(d[i], d[(i + 1) % n])) for i in range(n)]


def _peel_pair(Gi: Matrix, conjugate, times_g, seed: int) -> List[Matrix]:
    """G^-1 X_U G and G^-1 Y_U G for [X_U, Y_U] = U, ``conjugate`` the
    product x -> G^-1 x G and ``times_g`` the raw product rows -> rows G.
    With ``_shift_pair`` G^-1 X_U is G^-1 with column j times d_j, and
    G^-1 Y_U has column j-1 of G^-1 times w_{j-1} in column j; over F_q
    with q < n ``_commutator`` solves U and the products are dense."""
    field, n = Gi.field, Gi.nrows
    if field.is_finite and field.cardinality < n:
        return [conjugate(x) for x in _commutator(Matrix.cyclic_shift(field, n), seed)]
    kern = field.kernel
    d, w = _shift_pair(field, n)
    rot = [(j - 1) % n for j in range(n)]
    gi_x = kern.reorder(Gi.reps, col_scale=d)
    gi_y = kern.reorder(Gi.reps, col_order=rot, col_scale=[w[j] for j in rot])
    return [Matrix._from_raw(field, times_g(rows)) for rows in (gi_x, gi_y)]


def solve_commutator_product(A: Matrix, m: int, seed: int = 0) -> Witness:
    """Witness (X_1..X_m) with [X1,X2]...[X_{m-1},X_m] = A; m even.

    m = 2 requires trace(A) = 0 (the exact image of the commutator map);
    m >= 4 covers all of M_n(K) for n >= 2 over the supported perfect fields;
    at n = 1 every commutator is zero, so every even m reaches [[0]] alone.
    """
    word = CommutatorProduct(m)
    require_matrix(A)
    require_int(seed, "seed")
    field = A.field
    n = A.nrows
    if n != A.ncols:
        raise UsageError("square matrix expected")
    if m == 2 and not A.trace().is_zero():
        raise NonzeroTrace("target has nonzero trace")
    blocks = None  # the Jordan blocks that M realizes, when M is not A
    kern = field.kernel
    if field.is_exact and n >= 2 and not A.is_zero():
        jf = generalized_jordan_form(A)
        G, Gi, M, blocks = jf.conjugator, jf.conjugator_inverse, jf.realization, jf.blocks
        conjugate = lambda x: Matrix.product(Gi, x, G)
        times_g = lambda rows: kern.matmul(rows, G.reps)
    else:
        G = Gi = Matrix.identity(field, n)
        M = A
        # Gi x G and x G by the identity: the dense products' float bits,
        # not their cost
        times_g = lambda rows: kern.reorder(rows, range(n), range(n))
        conjugate = lambda x: Matrix._from_raw(field, times_g(x.reps))
    if m == 2:
        mats = [conjugate(x) for x in _commutator(M, seed)]
        return make_witness(word, A, mats, conjugators=(G,))
    if n == 1:
        # a 1x1 commutator is zero: the factors past the first four are
        # zeros, and those four solve A as at m = 4
        peel, peeled = 0, [Matrix.zeros(field, 1, 1)] * (m - 4)
    else:
        peel, peeled = (m - 4) // 2, []
    if peel:
        # the peel's copies of [X_U, Y_U] are one pair, conjugated once
        peeled = _peel_pair(Gi, conjugate, times_g, seed) * peel
        # U^-peel M moves row t - peel of M to row t
        rest_target = Matrix._from_raw(field, kern.reorder(
            M.reps, row_order=[(t - peel) % n for t in range(n)]))
        u, v, G2, G2i = _factor_two_canonical(rest_target)
    else:
        u, v, G2, G2i = _factor_two_canonical(M, blocks)
    inner = (*_commutator(u, seed), *_commutator(v, seed))
    if field.is_exact:
        # Gi (G2i x G2) G = (Gi G2i) x (G2 G): exact products associate
        Hi, H = Gi * G2i, G2 * G
        mats = peeled + [Matrix.product(Hi, x, H) for x in inner]
    else:
        mats = peeled + [conjugate(Matrix.product(G2i, x, G2)) for x in inner]
    return make_witness(word, A, mats, conjugators=(G, G2))
