"""Diagonal word equations  d_1 X_1^{k_1} + ... + d_m X_m^{k_m} = A.

The two-term core X^{k1} + beta*Y^{k2} = A is solved block-by-block on the
generalized Jordan form:

  * invertible blocks J_{alpha,n} decompose as G_n + H_n, two upper
    bidiagonal matrices built from two scalar solutions of
    a^{k1} + beta*b^{k2} = alpha with distinct powers; both summands are
    exact powers of explicit diagonalizable matrices;
  * nilpotent blocks J_{0,n} with n >= 2*k1 split as (Jordan power) +
    (junction matrix), the junction being beta times a k2-th power of a
    nilpotent built from the partition arithmetic of Jordan-block powers;
  * smaller nilpotent blocks use bordered matrices M(eps, x, y, z) whose
    characteristic polynomial is prescribed through a triangular Toeplitz
    system fed by regular solutions of scalar power-sum equations;
  * remaining terms of the word are witnessed by zero matrices.

Both searches (scalar solutions, regular solutions) run
``fields._power_sum_solutions``; they are deterministic and their
exhaustion is reported as NotFound: over a small finite field that is a
legitimate mathematical answer, not a failure.  When n >= 2 and the
whole witness space M_n(F_q)^2 is small enough to enumerate, a final
hash-join search on ``matrices.MatrixSpace``'s digit planes runs before
NotFound is raised, making the negative an actual proof; the space's code
order decides its witness.  At n = 1 the scalar search has already walked
every element of F_q, so its exhaustion is the proof.

Fallbacks are route tuples run by ``errors.first_route``: the blockwise
solve and the exhaustive join (``_solve_two_term``), a nilpotent block's
junction, bordered, alpha = 0 scalar-pair and swapped-junction routes
(``_solve_block``), the bordered route's corner values
(``small_nilpotent_decompose``), and the real even/even blockwise solve
(``_real_even_even``, a one-route chain whose exhaustion is Unsupported).
A chain whose routes all decline raises the error it always raised, with
the declined routes and their reasons in ``.routes``.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Tuple

from .errors import (
    CharPolyMismatch,
    InfiniteField,
    NotFound,
    NotSimilar,
    PartitionTooSmall,
    SingularMatrix,
    SizeTooSmall,
    TooLarge,
    Unsupported,
    UsageError,
    VerificationFailed,
    ZeroLeadingCoordinate,
    first_route,
)
from .fields import (
    SCAN_BOUND,
    Field,
    FieldElement,
    _power_sum_solutions,
    enumerate_elements,
    kth_roots,
    random_element,
    regular_solution_iter,
    regular_solution_search,
)
from .matrices import (
    Matrix,
    MatrixSpace,
    Partition,
    _transpose,
    charpoly,
    eigenbasis,
    nilpotent_jordan_basis,
    require_matrix,
)
from .polynomials import Poly
from .reduction import BlockPlan, solve_blockwise
from .words import DiagonalWord, Witness, make_witness, require_int

# Seeded random scalar candidates tried over fields above SCAN_BOUND.
RANDOM_TRIES = 4096
# Scalar candidates a tried over Q and number fields.
SMALL_INTEGERS = (0,) + tuple(v for i in range(1, 11) for v in (i, -i))
# Regular solutions tried per scalar equation by the 2x2 nilpotent route.
PAIR_CAP = 64
# Values tried for the free corner z of the bordered construction.
CORNER_CAP = 16
# Largest witness space q^(n^2) the exhaustive hash join enumerates.
EXHAUSTIVE_CAP = 200000
# Numerical breakdowns of the bordered route over R and C, on which a
# nilpotent block goes on to its next route.
NUMERICAL_BREAKDOWNS = (VerificationFailed, NotSimilar, CharPolyMismatch, SingularMatrix)


# ----------------------------------------------------------------------
# scalar equations
# ----------------------------------------------------------------------

def _scalar_solutions(field: Field, alpha: FieldElement, k1: int, k2: int,
                      beta: FieldElement, seed: int):
    """(a, b) with a^{k1} + beta*b^{k2} = alpha for each candidate a that
    leaves a k2-th power, b its first k2-th root.  Finite fields try every
    element in enumeration order up to SCAN_BOUND (so exhaustion is a
    proof) and RANDOM_TRIES seeded random elements beyond it, then zero,
    which random draws almost never hit; Q and number fields try
    SMALL_INTEGERS.  At alpha = 0 over F_q a hit with a != 0 has b != 0, so
    -beta = a^{k1} / b^{k2} is a g-th power in F_q^*, g = gcd(k1, k2, q - 1);
    when it is not, zero is the only candidate that can hit."""
    if not field.is_finite:
        candidates = (field(v) for v in SMALL_INTEGERS)
    elif alpha.is_zero() and (-beta) ** (
            (field.cardinality - 1) // math.gcd(k1, k2, field.cardinality - 1)) != field.one():
        candidates = [field.zero()]
    elif field.cardinality <= SCAN_BOUND:
        candidates = enumerate_elements(field)
    else:
        rng = random.Random(seed)
        candidates = itertools.chain(
            (random_element(field, rng) for _ in range(RANDOM_TRIES)), [field.zero()])
    # b^{k2} = (alpha - a^{k1}) * beta^-1, beta inverted once per search
    return _power_sum_solutions(alpha, (k1, k2), lambda: candidates, beta.inverse())


def scalar_two_solutions(field: Field, alpha: FieldElement, k1: int, k2: int,
                         beta: FieldElement, seed: int = 0) -> tuple:
    """Two solutions (a,b), (c,d) of a^{k1} + beta*b^{k2} = alpha with
    a^{k1} != c^{k1} and b^{k2} != d^{k2}.

    Since b^{k2} is determined by a^{k1}, distinct first powers force
    distinct second powers; the search only needs two usable a-powers.
    """
    alpha, beta = field(alpha), field(beta)
    if beta.is_zero():
        raise UsageError("beta must be nonzero")
    if field.kind == "complex" or (field.kind == "real" and k2 % 2 == 1):
        a, c = field(0), field(1)
        b = kth_roots((alpha - a ** k1) / beta, k2)[0]
        d = kth_roots((alpha - c ** k1) / beta, k2)[0]
        return ((a, b), (c, d))
    if field.kind == "real":
        if k1 % 2 == 1:
            # choose the a-side to make both b-targets exact even powers
            t1, t2 = field(1), field(2 ** k2)
            a = kth_roots(alpha - beta * t1, k1)[0]
            c = kth_roots(alpha - beta * t2, k1)[0]
            b = kth_roots(t1, k2)[0]
            d = kth_roots(t2, k2)[0]
            return ((a, b), (c, d))
        # both even
        if beta.rep > 0 and alpha.rep > 0:
            a = kth_roots(alpha * field(0.5), k1)[0]
            b = kth_roots(alpha / (beta * field(2)), k2)[0]
            c = kth_roots(alpha / field(3), k1)[0]
            d = kth_roots(alpha * field(2) / (beta * field(3)), k2)[0]
            return ((a, b), (c, d))
        if beta.rep < 0:
            base = 1.0 + abs(alpha.rep)
            out = []
            for mult in (1.0, 2.0):
                t = field(mult * base / abs(beta.rep))
                b = kth_roots(t, k2)[0]
                a = kth_roots(alpha - beta * t, k1)[0]
                out.append((a, b))
            return tuple(out)
        raise NotFound(
            f"no real solutions of X^{k1} + {beta!r}*Y^{k2} = {alpha!r} with even powers")
    hits = _scalar_solutions(field, alpha, k1, k2, beta, seed)
    first = next(hits, None)
    if first is not None:
        power = first[0] ** k1
        for a, b in hits:
            if a ** k1 != power:
                return first, (a, b)
    if field.is_finite:
        raise NotFound(
            f"fewer than two scalar solutions of X^{k1} + {beta!r}*Y^{k2} = {alpha!r}")
    raise NotFound(f"no two small solutions for alpha = {alpha!r} over {field}")


def scalar_solution(field: Field, alpha: FieldElement, k1: int, k2: int,
                    beta: FieldElement, seed: int = 0) -> tuple:
    """One solution (a, b) of a^{k1} + beta*b^{k2} = alpha."""
    alpha, beta = field(alpha), field(beta)
    if field.kind in ("real", "complex"):
        (a, b), _ = scalar_two_solutions(field, alpha, k1, k2, beta, seed)
        return a, b
    for hit in _scalar_solutions(field, alpha, k1, k2, beta, seed):
        return hit
    raise NotFound(
        f"no scalar solution of X^{k1} + {beta!r}*Y^{k2} = {alpha!r} over {field}")


def _power_sum_ratio(u: FieldElement, w: FieldElement, k: int) -> FieldElement:
    """S(k) = sum_{i<k} u^i w^{k-1-i}; nonzero whenever u^k != w^k.

    Exact kinds walk the bits of k with S(2j) = S(j) (u^j + w^j) and
    S(j+1) = u^j + w S(j), in O(log k) products and no division, skipping
    the powers the last step does not use; R and C keep the k-term sum,
    whose float bits the pinned digests carry."""
    field = u.field
    if not field.is_exact:
        acc = field.zero()
        for i in range(k):
            acc = acc + u ** i * w ** (k - 1 - i)
        return acc
    bits = bin(k)[3:]
    s, uj, wj = field.one(), u, w  # S(j), u^j, w^j for j = 1
    for i, bit in enumerate(bits):
        last = i == len(bits) - 1
        s = s * (uj + wj)
        if bit == "1" or not last:
            uj, wj = uj * uj, wj * wj
        if bit == "1":
            s = uj + w * s
            if not last:
                uj, wj = uj * u, wj * w
    return s


def invertible_jordan_decompose(alpha: FieldElement, n: int, k1: int, k2: int,
                                beta: FieldElement, sols: tuple = None) -> Tuple[Matrix, Matrix]:
    """(B, C) with B^{k1} + beta*C^{k2} = J_{alpha,n}, both diagonalizable.

    Works for alpha = 0 too, whenever the scalar equation has the two
    required solutions.
    """
    field = alpha.field
    beta = field(beta)
    if sols is None:
        sols = scalar_two_solutions(field, alpha, k1, k2, beta)
    (a, b), (c, d) = sols
    if n == 1:
        B = Matrix.diagonal(field, [a])
        C = Matrix.diagonal(field, [b])
        _check_two_term(B, C, k1, k2, beta, Matrix.diagonal(field, [alpha]))
        return B, C
    # B^{k1} = G_n (diagonal blocks [[a^k1, 1], [0, c^k1]]) and
    # beta*C^{k2} = H_n (blocks [[beta*d^k2, 1], [0, beta*b^k2]], offset by
    # one place along the diagonal): the bidiagonal summands of J_{alpha,n}
    zero = field.zero()
    tb = _power_sum_ratio(a, c, k1).inverse()
    td = (beta * _power_sum_ratio(d, b, k2)).inverse()
    bblock = Matrix(field, [[a, tb], [zero, c]])
    cblock = Matrix(field, [[d, td], [zero, b]])
    if n % 2 == 0:
        B = Matrix.block_diag(field, [bblock] * (n // 2))
        cparts = [Matrix.diagonal(field, [b])] + [cblock] * ((n - 2) // 2) \
            + [Matrix.diagonal(field, [d])]
    else:
        B = Matrix.block_diag(field, [bblock] * ((n - 1) // 2)
                              + [Matrix.diagonal(field, [a])])
        cparts = [Matrix.diagonal(field, [b])] + [cblock] * ((n - 1) // 2)
    C = Matrix.block_diag(field, cparts)
    _check_two_term(B, C, k1, k2, beta, Matrix.jordan_block(alpha, n))
    return B, C


def _check_two_term(X: Matrix, Y: Matrix, k1: int, k2: int,
                    beta: FieldElement, target: Matrix):
    got = X ** k1 + (Y ** k2).scale(beta)
    if not got.allclose(target):
        raise VerificationFailed("two-term witness failed re-verification")


# ----------------------------------------------------------------------
# junction matrices and partitions of nilpotent powers
# ----------------------------------------------------------------------

def junction_matrix(field: Field, partition: Partition) -> Matrix:
    """Sum of unit matrices at the partition boundaries."""
    if not isinstance(partition, Partition):
        partition = Partition(tuple(partition))
    n = partition.total
    J = Matrix.zeros(field, n, n)
    cum = 0
    for part in list(partition)[:-1]:
        cum += part
        J = J + Matrix.unit(field, n, cum - 1, cum)
    return J


def nilpotent_power_partition(n: int, k: int) -> Partition:
    """Jordan type of J_{0,n}^k: k-m blocks of floor(n/k) and m of ceil(n/k),
    m = n mod k (zero-size blocks dropped)."""
    require_int(n, "n")
    require_int(k, "k")
    if n < 1 or k < 1:
        raise UsageError("n, k must be positive")
    lo, m = divmod(n, k)
    parts = [lo] * (k - m) + [lo + 1] * m
    parts = [p for p in parts if p > 0]
    return Partition(tuple(sorted(parts)))


def junction_as_scaled_power(field: Field, partition: Partition, k: int,
                             beta: FieldElement) -> Matrix:
    """B with beta * B^k equal to the junction matrix of ``partition``.

    The nilpotent source B0 pads 1x1 blocks around blocks of size k+s
    (1 <= s <= k), chosen so that B0^k has exactly len(partition)-1 Jordan
    blocks of size 2; the scalar 1/beta is absorbed by the chain-basis
    conjugation (nilpotents are conjugate to their nonzero multiples).
    """
    beta = field(beta)
    if beta.is_zero():
        raise UsageError("beta must be nonzero")
    J = junction_matrix(field, partition)
    n = J.nrows
    if k == 1:
        return J.scale(beta.inverse())
    if len(partition) == 1:
        return Matrix.zeros(field, n, n)
    if any(p < 2 for p in partition):
        raise PartitionTooSmall("junction power construction needs all parts >= 2")
    twos = len(partition) - 1
    sizes = []
    while twos > 0:
        s = min(k, twos)
        sizes.append(k + s)
        twos -= s
    pad = n - sum(sizes)
    if pad < 0:
        raise PartitionTooSmall(
            f"partition of {n} cannot host a {k}-th power of rank {len(partition) - 1}")
    blocks = []
    if pad:
        blocks.append(Matrix.zeros(field, pad, pad))
    blocks.extend(Matrix.jordan_block(field.zero(), s) for s in sizes)
    B0 = Matrix.block_diag(field, blocks)
    N = B0 ** k
    target = J.scale(beta.inverse())
    S1, l1 = nilpotent_jordan_basis(N)
    S2, l2 = nilpotent_jordan_basis(target)
    if l1 != l2:
        raise VerificationFailed("junction source has the wrong Jordan type")
    Q = S2 * S1.inverse()
    B = Q * B0 * Q.inverse()
    if not (B ** k).scale(beta).allclose(J):
        raise VerificationFailed("junction power witness failed")
    return B


def large_nilpotent_decompose(field: Field, n: int, k1: int, k2: int,
                              beta: FieldElement) -> Tuple[Matrix, Matrix]:
    """(X, Y) with X^{k1} + beta*Y^{k2} = J_{0,n}, for n >= 2*k1.

    X is the Jordan matrix itself moved by the residue-class basis
    permutation, so that X^{k1} equals the predicted block sum exactly and the
    difference J_{0,n} - X^{k1} is exactly the junction matrix.
    """
    if k1 < 2 or k2 < 1:
        raise UsageError("exponents must satisfy k1 >= 2, k2 >= 1")
    if n < 2 * k1:
        raise SizeTooSmall(f"need n >= 2*k1 = {2 * k1}, got {n}")
    beta = field(beta)
    part = nilpotent_power_partition(n, k1)
    groups = []
    for r in range(1, k1 + 1):
        idxs = list(range(r, n + 1, k1))
        groups.append((len(idxs), r, idxs))
    groups.sort(key=lambda g: (g[0], g[1]))
    order = [i - 1 for _, _, idxs in groups for i in idxs]
    J = Matrix.jordan_block(field.zero(), n)
    # P J P^-1 for P = Matrix.permutation(field, order), read off J
    X = Matrix._from_raw(field, [[J.reps[t][u] for u in order] for t in order])
    Y = junction_as_scaled_power(field, part, k2, beta)
    _check_two_term(X, Y, k1, k2, beta, J)
    return X, Y


# ----------------------------------------------------------------------
# bordered matrices
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BorderedSpec:
    x: tuple
    y: tuple
    matrix: Matrix
    witness: Matrix           # scale * witness^k = matrix
    spectrum: tuple           # the prescribed eigenvalues scale*mu_i^k


def _elementary_symmetric(values) -> list:
    """e[0..n] with e[j] the j-th elementary symmetric polynomial."""
    field = values[0].field
    e = [field.one()]
    for v in values:
        e.append(field.zero())
        for j in range(len(e) - 1, 0, -1):
            e[j] = e[j] + v * e[j - 1]
    return e


def bordered_matrix(field: Field, eps: FieldElement, x, y, z: FieldElement) -> Matrix:
    n = len(x) + 1
    M = [[field.zero()] * n for _ in range(n)]
    for i in range(n - 2):
        M[i][i + 1] = eps
    for i in range(n - 1):
        M[i][n - 1] = x[i]
        M[n - 1][i] = y[i]
    M[n - 1][n - 1] = z
    return Matrix(field, M)


def bordered_solve(field: Field, eps: FieldElement, z: FieldElement, mu, k: int,
                   given_y=None, given_x=None, scale: FieldElement = None) -> BorderedSpec:
    """Complete M(eps, x, y, z) so that chi_M = prod(T - scale*mu_i^k).

    Exactly one border side is given: y with y_1 != 0 (solve for x by back
    substitution in an upper triangular Toeplitz system) or x with
    x_{n-1} != 0 (solve for y, lower triangular).  Returns the matrix and a
    witness W with scale * W^k = M, built on the eigenbasis of M.
    """
    eps, z = field(eps), field(z)
    scale = field.one() if scale is None else field(scale)
    if eps.is_zero() or scale.is_zero():
        raise UsageError("eps and scale must be nonzero")
    mu = [field(m) for m in mu]
    n = len(mu)
    if n < 3:
        raise UsageError("bordered matrices need n >= 3")
    powers = [scale * m ** k for m in mu]
    if len({p.rep for p in powers}) != n and field.is_exact:
        raise UsageError("mu is not a regular solution (repeated k-th powers)")
    total = field.zero()
    for p in powers:
        total = total + p
    if not total.is_close(z):
        raise UsageError("sum of prescribed eigenvalues must equal z")
    E = _elementary_symmetric(powers)
    rhs = {}
    sign = field.one()
    for j in range(2, n + 1):
        sign = -sign  # (-1)^{j+1}: j=2 -> -1
        rhs[j] = sign * (eps ** (j - 2)).inverse() * E[j]
    if (given_y is None) == (given_x is None):
        raise UsageError("give exactly one of x, y")
    if given_y is not None:
        y = [field(v) for v in given_y]
        if len(y) != n - 1:
            raise UsageError("y must have length n-1")
        if y[0].is_zero():
            raise ZeroLeadingCoordinate("y_1 must be nonzero")
        x = [field.zero()] * (n - 1)
        for r in range(n - 1, 0, -1):
            acc = rhs[r + 1]
            for i in range(r + 1, n):
                acc = acc - y[i - r] * x[i - 1]
            x[r - 1] = acc / y[0]
    else:
        x = [field(v) for v in given_x]
        if len(x) != n - 1:
            raise UsageError("x must have length n-1")
        if x[n - 2].is_zero():
            raise ZeroLeadingCoordinate("x_{n-1} must be nonzero")
        y = [field.zero()] * (n - 1)
        for t in range(1, n):
            r = n - t
            acc = rhs[r + 1]
            for u in range(1, t):
                acc = acc - y[u - 1] * x[r + u - 2]
            y[t - 1] = acc / x[n - 2]
    M = bordered_matrix(field, eps, x, y, z)
    chi = charpoly(M)
    expected = Poly.from_roots(field, powers)
    if field.is_exact:
        if chi != expected:
            raise CharPolyMismatch("bordered system signs are inconsistent")
    elif not all(map(field.close_raw, chi.reps, expected.reps)):
        raise CharPolyMismatch("bordered system signs are inconsistent (approx)")
    S = eigenbasis(M, powers)
    W = S * Matrix.diagonal(field, mu) * S.inverse()
    if not (W ** k).scale(scale).allclose(M):
        raise VerificationFailed("bordered power witness failed")
    return BorderedSpec(tuple(x), tuple(y), M, W, tuple(powers))


# ----------------------------------------------------------------------
# small nilpotent blocks
# ----------------------------------------------------------------------

def _first_eps(field: Field) -> FieldElement:
    if field.is_finite:
        for e in enumerate_elements(field):
            if not e.is_zero() and not (e + field.one()).is_zero():
                return e
        raise NotFound("field too small for an eps outside {0, -1}")
    return field.one()


def _corner_candidates(field: Field) -> list:
    """Values for the free corner z; the construction pairs corners (z, -z).
    z = 1 first, then other field values for small-field robustness."""
    one = field.one()
    if not field.is_finite:
        return [one]
    others = (e for e in enumerate_elements(field) if e != one)
    return [one] + list(itertools.islice(others, CORNER_CAP - 1))


def small_nilpotent_decompose(field: Field, n: int, k1: int, k2: int,
                              beta: FieldElement) -> Tuple[Matrix, Matrix]:
    """(X, Y) with X^{k1} + beta*Y^{k2} = J_{0,n} for 2 <= n < 2*k1, via
    regular solutions of the two scalar power-sum equations.

    The corners z of ``_corner_candidates`` are a route tuple, one route
    per corner: at n = 2 a corner declines when no regular-solution pair
    fits it, at n >= 3 when either regular-solution search is exhausted
    (the matrices are then built for the first corner that passed).  When
    every corner declines, NotFound with ``.routes``."""
    beta = field(beta)
    if n < 2:
        raise UsageError("use the scalar route for 1x1 blocks")
    if field.is_finite and field.cardinality <= 2:
        raise NotFound("the small-nilpotent construction needs |K| > 2")
    target = Matrix.jordan_block(field.zero(), n)
    one = field.one()
    if n == 2:
        X, Y = first_route(
            ((f"z = {z!r}", lambda z=z: _small_nilpotent_2(field, k1, k2, beta, z), ())
             for z in _corner_candidates(field)),
            lambda declined: NotFound(
                f"no regular-solution pair solves J_{{0,2}} for X^{k1}+{beta!r}Y^{k2}"))
    else:
        eps = _first_eps(field)
        z, lam, mu_head = first_route(
            ((f"z = {z!r}", lambda z=z: (
                z, regular_solution_search(field, k1, n, z, require_nonzero=True),
                regular_solution_search(field, k2, n - 1, -(z / beta), require_nonzero=True)),
              (NotFound,)) for z in _corner_candidates(field)),
            lambda declined: NotFound(
                f"no corner value admits the required regular solutions over {field}"
                f" (last: {declined[-1][1]})"))
        mu = tuple(mu_head) + (field.zero(),)
        xvec = [field.zero()] * (n - 1)
        xvec[n - 2] = one + eps
        b1 = bordered_solve(field, eps, z, lam, k1, given_x=xvec)
        if b1.y[0].is_zero():
            raise VerificationFailed("y_1 vanished for a non-zero regular solution")
        b2 = bordered_solve(field, one, -z, mu, k2,
                            given_y=[-v for v in b1.y], scale=beta)
        if not b2.x[n - 2].is_zero():
            raise VerificationFailed("mu_n = 0 must force x_{n-1} = 0")
        R = b1.matrix + b2.matrix
        S1, lengths = nilpotent_jordan_basis(R)
        if lengths != (n,):
            raise VerificationFailed("bordered sum is not a full nilpotent block")
        # the chain basis of J_{0,n} itself is the identity
        Qc = S1.inverse()
        Qc_inv = Qc.inverse()
        X = Qc * b1.witness * Qc_inv
        Y = Qc * b2.witness * Qc_inv
    _check_two_term(X, Y, k1, k2, beta, target)
    return X, Y


def _small_nilpotent_2(field: Field, k1: int, k2: int, beta: FieldElement,
                       z: FieldElement):
    one = field.one()
    mus = itertools.islice(regular_solution_iter(field, k1, 2, z), PAIR_CAP)
    for mu in mus:
        P = mu[0] ** k1 * mu[1] ** k1
        lams = itertools.islice(
            regular_solution_iter(field, k2, 2, -(z / beta)), PAIR_CAP)
        for lam in lams:
            Qv = beta * beta * lam[0] ** k2 * lam[1] ** k2
            if P.is_zero():
                xv, yv = -one, Qv
            elif Qv.is_zero():
                xv, yv = field.zero(), -P
            elif P != Qv:
                xv = Qv / (P - Qv)
                yv = Qv - P
            else:
                continue
            A1 = Matrix(field, [[field.zero(), one + xv], [yv, z]])
            A2 = Matrix(field, [[field.zero(), -(xv / beta)],
                                [-(yv / beta), -(z / beta)]])
            S1 = eigenbasis(A1, [mu[0] ** k1, mu[1] ** k1])
            S2 = eigenbasis(A2, [lam[0] ** k2, lam[1] ** k2])
            X = S1 * Matrix.diagonal(field, list(mu)) * S1.inverse()
            Y = S2 * Matrix.diagonal(field, list(lam)) * S2.inverse()
            return X, Y
    return None


# ----------------------------------------------------------------------
# full diagonal-word solver
# ----------------------------------------------------------------------

def solve_diagonal_word(A: Matrix, word: DiagonalWord, seed: int = 0) -> Witness:
    """Verified witness for  sum_i delta_i X_i^{k_i} = A.

    Any exponent 1 absorbs the target immediately.  Otherwise the first two
    terms carry the solution and later terms are zero.  NotFound signals a
    search exhausted over a small field; Unsupported marks the open real
    even/even case.
    """
    if not isinstance(word, DiagonalWord):
        raise UsageError(f"solve_diagonal_word takes a DiagonalWord, got {word!r}")
    require_matrix(A)
    require_int(seed, "seed")
    field = A.field
    m = word.arity
    zero_mat = Matrix.zeros(field, A.nrows, A.ncols)
    for idx, (delta, k) in enumerate(word.terms):
        if k == 1:
            mats = [zero_mat] * m
            mats[idx] = A.scale(delta.inverse())
            return make_witness(word, A, mats)
    if m == 1:
        delta, k = word.terms[0]
        X = _matrix_kth_root(A.scale(delta.inverse()), k)
        return make_witness(word, A, [X])
    (d1, k1), (d2, k2) = word.terms[0], word.terms[1]
    Aprime = A.scale(d1.inverse())
    beta = d2 / d1
    X, Y, *conjs = _solve_two_term(Aprime, k1, beta, k2, seed)
    mats = [X, Y] + [zero_mat] * (m - 2)
    return make_witness(word, A, mats, conjugators=conjs)


def _solve_two_term(A: Matrix, k1: int, beta: FieldElement, k2: int,
                    seed: int) -> tuple:
    """(X, Y, *conjugators) with X^{k1} + beta*Y^{k2} = A, the conjugator
    being the Jordan form's when one was used.

    The route tuple is the Jordan blocks one by one, then the exhaustive
    join, which turns the blocks' NotFound into a proof over a tiny field.
    When both decline, the blocks' NotFound is raised again, and its
    ``.routes`` tells a join that walked the whole space and found nothing
    (reason None, a proof) from one that could not run."""
    real = A.field.kind == "real"
    if real and k1 % 2 == 0 and k2 % 2 == 0:
        return _real_even_even(A, k1, beta, k2)
    # the larger exponent as k1; over R the odd one as k2
    if (k2 % 2 == 0 if real else k2 > k1):
        X, Y, *conjs = _solve_two_term(A.scale(beta.inverse()), k2, beta.inverse(), k1, seed)
        return (Y, X, *conjs)

    def blockwise():
        (X, Y), P = solve_blockwise(A, lambda bp: _solve_block(bp, k1, beta, k2, seed))
        return X, Y, P
    return first_route((("blockwise", blockwise, (NotFound,)),
                        ("exhaustive join", lambda: _exhaustive_two_term(A, k1, beta, k2),
                         (SizeTooSmall, InfiniteField, TooLarge))),
                       lambda declined: NotFound(str(declined[0][1])))


def _exhaustive_two_term(A: Matrix, k1: int, beta: FieldElement, k2: int):
    """Hash join over all of M_n(F_q)^2 on ``MatrixSpace``'s digit planes
    (one byte per matrix and entry); None when no pair solves.

    X^{k1} for every X at once gives a dict from each power's code to the
    first X with it; A - beta*Y^{k2} for every Y at once is n^2 unary
    translates of Y^{k2}'s planes (X^{k1}'s when k1 = k2), and the first Y
    whose value is in the dict decides the witness.  Both sides keep the
    lowest code, so the pair is the one a walk in code order meets first.
    Each table is dropped once read, to keep the peak memory low.  At
    n = 1 (where the scalar search has walked all of F_q already), over an
    infinite field and past EXHAUSTIVE_CAP it refuses to run."""
    field, n = A.field, A.nrows
    if n < 2:
        raise SizeTooSmall("at n = 1 the scalar search walks the whole field")
    if not field.is_finite:
        raise InfiniteField(f"M_{n}({field}) cannot be enumerated")
    if MatrixSpace.cardinality(field, n) > EXHAUSTIVE_CAP:
        raise TooLarge(f"{field.cardinality}^{n * n} > EXHAUSTIVE_CAP = {EXHAUSTIVE_CAP}")
    space = MatrixSpace(field, n)
    planes = space.planes()
    powers = space.power(planes, k1)
    codes = space.codes(powers)
    first_x = dict(zip(reversed(codes), range(len(codes) - 1, -1, -1)))
    del codes
    if k2 != k1:
        powers = space.power(planes, k2)
    del planes
    rsub, rmul, b = field._rsub, field._rmul, beta.rep
    want = space.codes([P.translate(space.table(lambda r, a=a: rsub(a, rmul(b, r))))
                        for P, a in zip(powers, itertools.chain(*A.reps))])
    del powers
    y = bytes(map(first_x.__contains__, want)).find(1)
    if y < 0:
        return None
    return space.matrix_at(first_x[want[y]]), space.matrix_at(y)


def _solve_block(bp: BlockPlan, k1: int, beta: FieldElement, k2: int, seed: int = 0):
    """Solve X^{k1} + beta*Y^{k2} = J_{alpha,l} in the block's working field.

    A nilpotent block runs the route tuple junction, bordered, alpha = 0
    scalar pair, swapped junction.  A junction declines when the block has
    no room for it (SizeTooSmall below 2*k1, resp. 2*k2, or
    PartitionTooSmall), the other routes when a search is exhausted
    (NotFound), and over R and C the bordered route also when it breaks
    down numerically.  When every route declines, NotFound: the bordered
    route's own, or one that names its breakdown, with ``.routes``."""
    L = bp.field
    beta_L = bp.embed(beta) if bp.embed is not None else beta
    alpha, l = bp.alpha, bp.size
    if l == 1 and not alpha.is_zero():
        # a 1x1 block needs just one scalar solution, not the distinct pair
        a, b = scalar_solution(L, alpha, k1, k2, beta_L, seed)
        return (Matrix.diagonal(L, [a]), Matrix.diagonal(L, [b]))

    def scalar_pair(a):
        sols = scalar_two_solutions(L, a, k1, k2, beta_L, seed)
        return invertible_jordan_decompose(a, l, k1, k2, beta_L, sols)
    if not alpha.is_zero() or L.kind == "complex":
        return scalar_pair(alpha)
    # nilpotent block over the base field
    if l == 1:
        return (Matrix.zeros(L, 1, 1), Matrix.zeros(L, 1, 1))
    no_room = (SizeTooSmall, PartitionTooSmall)
    return first_route((
        ("junction", lambda: large_nilpotent_decompose(L, l, k1, k2, beta_L), no_room),
        ("bordered", lambda: small_nilpotent_decompose(L, l, k1, k2, beta_L),
         (NotFound,) + (() if L.is_exact else NUMERICAL_BREAKDOWNS)),
        ("scalar pair", lambda: scalar_pair(L.zero()), (NotFound,)),
        ("swapped junction", lambda: _swapped_junction(L, l, k1, k2, beta_L), no_room),
    ), lambda declined: _nilpotent_not_found(L, l, dict(declined)["bordered"]))


def _nilpotent_not_found(L: Field, l: int, small_err: Exception) -> NotFound:
    """The bordered route's own NotFound, or one that names its breakdown."""
    return NotFound(str(small_err) if isinstance(small_err, NotFound) else
                    f"no route solves J_{{0,{l}}} over {L} (small route: {small_err})")


def _swapped_junction(L: Field, l: int, k1: int, k2: int, beta: FieldElement):
    """The junction for Y^{k2} + beta^-1*X^{k1} = beta^-1*J_{0,l}, moved
    back to J_{0,l} by the scaling E with E J E^-1 = beta*J."""
    Yp, Xp = large_nilpotent_decompose(L, l, k2, k1, beta.inverse())
    E = _nilpotent_scaling(L, l, beta)
    Ei = E.inverse()
    return Ei * Xp * E, Ei * Yp * E


def _nilpotent_scaling(field: Field, n: int, c: FieldElement) -> Matrix:
    """E with E J_{0,n} E^-1 = c * J_{0,n}: the geometric diagonal."""
    vals = [field.one()]
    for _ in range(n - 1):
        vals.append(vals[-1] / c)
    return Matrix.diagonal(field, vals)


# ----------------------------------------------------------------------
# the real even/even corner (open beyond 2x2 sums of squares)
# ----------------------------------------------------------------------

def _real_even_even(A: Matrix, k1: int, beta: FieldElement, k2: int):
    """X^{k1} + beta*Y^{k2} = A over R with k1, k2 even.  Blocks are solved
    over R or C, where the scalar steps are closed forms, so no seed is
    needed."""
    field = A.field
    n = A.nrows
    if n == 1:
        a = A[0, 0]
        if a.rep >= 0:
            X = Matrix.diagonal(field, [kth_roots(a, k1)[0]])
            Y = Matrix.zeros(field, 1, 1)
        elif beta.rep < 0:
            X = Matrix.zeros(field, 1, 1)
            Y = Matrix.diagonal(field, [kth_roots(a / beta, k2)[0]])
        else:
            raise Unsupported("negative scalar with positive even word over R")
        return X, Y
    if n == 2 and k1 == 2 and k2 == 2 and beta.rep > 0:
        return _sum_of_two_squares_2x2(A, beta)
    # per-block attempt: complex-pair blocks always work, real blocks work
    # when individually reachable (nonnegative eigenvalues, large nilpotents)
    def blockwise():
        (X, Y), P = solve_blockwise(A, lambda bp: _solve_block(bp, k1, beta, k2))
        return X, Y, P
    return first_route((("blockwise", blockwise, (NotFound,)),),
                       lambda declined: Unsupported(
                           f"even/even exponents over R beyond 2x2 sums of squares are open "
                           f"({declined[0][1]})"))


def _sum_of_two_squares_2x2(A: Matrix, beta: FieldElement):
    """X^2 + beta*Y^2 = A over R for beta > 0, through the beta = 1 case."""
    sqrt_beta = kth_roots(beta, 2)[0]
    X, Z = _two_squares_2x2(A)
    return X, Z.scale(sqrt_beta.inverse())


def _two_squares_2x2(A: Matrix):
    """X, Z with X^2 + Z^2 = A (real 2x2)."""
    field = A.field
    one, zero = field.one(), field.zero()
    tr = A.trace()
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    disc = tr * tr - field(4) * det
    tol = field.tolerance * (1.0 + abs(tr.rep) + abs(det.rep))
    if not (math.isfinite(tol) and math.isfinite(disc.rep)):
        raise VerificationFailed("floating-point overflow in a 2x2 discriminant or tolerance")
    if disc.rep < -tol:
        # irreducible characteristic polynomial: complex-block route
        (X, Z), _ = solve_blockwise(A, lambda bp: _solve_block(bp, 2, one, 2))
        return X, Z
    r1 = (tr.rep - math.sqrt(max(disc.rep, 0.0))) / 2.0
    r2 = (tr.rep + math.sqrt(max(disc.rep, 0.0))) / 2.0
    ident = Matrix.identity(field, 2)
    if abs(r2 - r1) <= math.sqrt(max(tol, 0.0)) * 2:
        alpha = field((r1 + r2) / 2.0)
        N = A - ident.scale(alpha)
        if N.allclose(Matrix.zeros(field, 2, 2)):
            half = alpha / field(2)
            M = Matrix(field, [[zero, half], [one, zero]])
            got = M * M + M * M
            if got.allclose(A):
                return M, M
            alpha = A[0, 0]
            half = alpha / field(2)
            M = Matrix(field, [[zero, half], [one, zero]])
            return M, M
        apply = field.kernel.matvec_fn(N.reps)
        v = next((cand for cand in ident.reps  # e_0, e_1
                  if any(abs(c) > tol for c in apply(cand))), None)
        if v is None:  # N is not zero, yet below the tolerance scaled by A
            raise VerificationFailed("nilpotent part below the scaled tolerance, yet not zero")
        S = Matrix._from_raw(field, _transpose([apply(v), v]))
        X0 = Matrix(field, [[zero, alpha - field(0.25)], [one, zero]])
        Y0 = Matrix(field, [[field(0.5), one], [zero, field(0.5)]])
        Si = S.inverse()
        return S * X0 * Si, S * Y0 * Si
    S = eigenbasis(A, [field(r1), field(r2)])
    Si = S.inverse()
    if r1 >= -tol and r2 >= -tol:
        X0 = Matrix.diagonal(field, [field(math.sqrt(max(r1, 0.0))),
                                     field(math.sqrt(max(r2, 0.0)))])
        Y0 = Matrix.zeros(field, 2, 2)
    elif r2 < tol:
        # both negative: diag(-a, -b) with a = -r1 >= b = -r2
        a, b = -r1, -r2
        X0 = Matrix(field, [[zero, field(-(4 * a + 1) / 4.0)], [one, zero]])
        Y0 = Matrix.diagonal(field, [field(0.5), field(math.sqrt(a - b + 0.25))])
    else:
        # mixed: order the eigenbasis as (positive, negative)
        S = eigenbasis(A, [field(r2), field(r1)])
        Si = S.inverse()
        p, q = r2, -r1
        X0 = Matrix(field, [[zero, field(-2.0 * q)], [one, zero]])
        Y0 = Matrix.diagonal(field, [field(math.sqrt(p + 2.0 * q)),
                                     field(math.sqrt(q))])
    return S * X0 * Si, S * Y0 * Si


# ----------------------------------------------------------------------
# pure power equations (m = 1)
# ----------------------------------------------------------------------

def _matrix_kth_root(A: Matrix, k: int) -> Matrix:
    """Best-effort X with X^k = A; NotFound when a block obstructs."""
    (X,), _ = solve_blockwise(A, lambda bp: (_block_kth_root(bp, k),))
    return X


def _block_kth_root(bp: BlockPlan, k: int) -> Matrix:
    L, alpha, l = bp.field, bp.alpha, bp.size
    if alpha.is_zero():
        if l == 1:
            return Matrix.zeros(L, 1, 1)
        raise NotFound(f"J_{{0,{l}}} has no {k}-th root")
    roots = kth_roots(alpha, k)
    if not roots:
        raise NotFound(f"eigenvalue {alpha!r} is not a {k}-th power")
    r = roots[0]
    X = Matrix.identity(L, l).scale(r)
    target = Matrix.jordan_block(alpha, l)
    N = Matrix.jordan_block(L.zero(), l)
    for _ in range(l + 1):
        E = target - X ** k
        if E.is_zero():
            return X
        lvl = None
        for t in range(1, l):
            if any(not E[i, i + t].is_zero() for i in range(l - t)):
                lvl = t
                break
        if lvl is None:
            raise NotFound("matrix root correction stalled")
        coeff = E[0, lvl]
        denom = L(k) * r ** (k - 1)
        if denom.is_zero():
            raise NotFound(f"characteristic divides {k}: no triangular root")
        X = X + (N ** lvl).scale(coeff / denom)
    if (X ** k).allclose(target):
        return X
    raise NotFound("no polynomial-in-block root found")
