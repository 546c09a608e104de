"""Independent oracles used by the tests.

These deliberately avoid the library's production algorithms: the
characteristic polynomial here is a Laplace cofactor expansion over
polynomial entries, brute-force enumeration is plain nested iteration, and
nothing below calls the code paths it is used to check.  The ``naive_*``
functions are the element-by-element references for the raw kernels: they
touch only FieldElement operators and the Matrix/Poly constructors.
"""

import itertools
import math
from fractions import Fraction

from wordmap.errors import NotSimilar
from wordmap.fields import enumerate_elements, random_element
from wordmap.matrices import Matrix, nilpotent_jordan_basis
from wordmap.polynomials import APPROX_ROOT_ITERATIONS, Poly


def poly_det(entries):
    """Determinant of a small square matrix of Poly entries by cofactor
    expansion along the first row."""
    n = len(entries)
    if n == 1:
        return entries[0][0]
    field = entries[0][0].field
    total = Poly.zero(field)
    for j in range(n):
        piv = entries[0][j]
        if piv.is_zero():
            continue
        minor = [[entries[r][c] for c in range(n) if c != j] for r in range(1, n)]
        term = piv * poly_det(minor)
        if j % 2:
            term = -term
        total = total + term
    return total


def charpoly_cofactor(A: Matrix) -> Poly:
    """det(T*I - A) via cofactor expansion (independent of Berkowitz)."""
    field = A.field
    n = A.nrows
    x = Poly.x(field)
    entries = []
    for i in range(n):
        row = []
        for j in range(n):
            p = -Poly.constant(A.rows[i][j])
            if i == j:
                p = p + x
            row.append(p)
        entries.append(row)
    return poly_det(entries)


def all_matrices(field, n):
    elems = list(enumerate_elements(field))
    for flat in itertools.product(elems, repeat=n * n):
        yield Matrix(field, [flat[i * n:(i + 1) * n] for i in range(n)])


def brute_solution_count(field, coefficients, exponents, gamma):
    """Count solutions of sum delta_i x_i^{k_i} = gamma by plain nested loops."""
    elems = list(enumerate_elements(field))
    count = 0
    for tup in itertools.product(elems, repeat=len(exponents)):
        acc = field.zero()
        for delta, k, x in zip(coefficients, exponents, tup):
            acc = acc + delta * x ** k
        if acc == gamma:
            count += 1
    return count


def random_matrix(field, n, rng):
    if field.kind == "prime":
        return Matrix.from_rows(field, [[rng.randrange(field.p) for _ in range(n)]
                                        for _ in range(n)])
    if field.kind == "real":
        return Matrix.from_rows(field, [[rng.uniform(-2, 2) for _ in range(n)]
                                        for _ in range(n)])
    if field.kind == "complex":
        return Matrix.from_rows(field, [
            [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)]
            for _ in range(n)])
    raise NotImplementedError


def random_invertible(field, n, rng):
    from wordmap.errors import SingularMatrix

    while True:
        M = random_matrix(field, n, rng)
        try:
            M.inverse()
            return M
        except SingularMatrix:
            continue


# ----------------------------------------------------------------------
# element-by-element references for the raw kernels
#
# Plain FieldElement operators in the operation order, zero skips and pivot
# rules the kernels promise, so that kernel results must match these
# exactly, float bits included.  They use only the Matrix and Poly
# constructors and element arithmetic.
# ----------------------------------------------------------------------

def naive_dot(xs, ys, field):
    acc = field.zero()
    for a, b in zip(xs, ys):
        if not a.is_zero():
            acc = acc + a * b
    return acc


def naive_matmul(A, B):
    field = A.field
    cols = [[B.rows[i][j] for i in range(B.nrows)] for j in range(B.ncols)]
    return Matrix(field, [[naive_dot(row, col, field) for col in cols]
                          for row in A.rows])


def naive_apply(A, v):
    return tuple(naive_dot(row, v, A.field) for row in A.rows)


def naive_power(A, k):
    """Binary powering from the identity, as plain products."""
    field, n = A.field, A.nrows
    result = Matrix(field, [[field.one() if i == j else field.zero()
                             for j in range(n)] for i in range(n)])
    base = A
    while k:
        if k & 1:
            result = naive_matmul(result, base)
        base = naive_matmul(base, base)
        k >>= 1
    return result


def _naive_pivot(rows, start, col, field):
    if field.is_exact:
        for r in range(start, len(rows)):
            if not rows[r][col].is_zero():
                return r
        return None
    best, best_abs = None, 0.0
    for r in range(start, len(rows)):
        a = abs(rows[r][col].rep)
        if a > best_abs:
            best, best_abs = r, a
    scale = max((abs(x.rep) for row in rows for x in row), default=0.0)
    eps = max(1e-12, field.tolerance * 1e-3) * max(1.0, scale)
    if best is None or best_abs <= eps:
        return None
    return best


def naive_echelon(rows, field, ncols=None):
    """Reduced row echelon form of FieldElement rows; (rows, pivots)."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = (len(rows[0]) if rows else 0) if ncols is None else ncols
    pivots, r = [], 0
    for c in range(ncols):
        piv = _naive_pivot(rows, r, c, field)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [a * inv for a in rows[r]]
        for rr in range(nrows):
            if rr != r and not rows[rr][c].is_zero():
                f = rows[rr][c]
                rows[rr] = [a - f * b for a, b in zip(rows[rr], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def naive_rank(A):
    return len(naive_echelon(A.rows, A.field)[1])


def naive_inverse(A):
    """The inverse, or None when A is singular."""
    field, n = A.field, A.nrows
    aug = [list(A.rows[i]) + [field.one() if j == i else field.zero() for j in range(n)]
           for i in range(n)]
    reduced, pivots = naive_echelon(aug, field, n)
    if len(pivots) != n:
        return None
    return Matrix(field, [row[n:] for row in reduced])


def naive_nullspace(A):
    field = A.field
    reduced, pivots = naive_echelon(A.rows, field)
    basis = []
    for fcol in range(A.ncols):
        if fcol in pivots:
            continue
        vec = [field.zero()] * A.ncols
        vec[fcol] = field.one()
        for rowidx, pcol in enumerate(pivots):
            vec[pcol] = -reduced[rowidx][fcol]
        basis.append(tuple(vec))
    return basis


def naive_solve_right(A, b):
    field, n = A.field, A.ncols
    reduced, pivots = naive_echelon(
        [list(A.rows[i]) + [b[i]] for i in range(A.nrows)], field, n)
    if any(not row[n].is_zero() for row in reduced[len(pivots):]):
        return None
    x = [field.zero()] * n
    for rowidx, pcol in enumerate(pivots):
        x[pcol] = reduced[rowidx][n]
    return tuple(x)


def naive_trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return coeffs


def naive_berkowitz(A):
    """Coefficients of det(T*I - A), low degree first, by Berkowitz."""
    field, n = A.field, A.nrows
    one, zero = field.one(), field.zero()
    rows = A.rows
    C = [one]
    for r in range(1, n + 1):
        R = rows[r - 1][: r - 1]
        t = [one, -rows[r - 1][r - 1]]
        v = [rows[i][r - 1] for i in range(r - 1)]
        for j in range(2, r + 1):
            if j > 2:
                v = [naive_dot(rows[i][: r - 1], v, field) for i in range(r - 1)]
            t.append(-naive_dot(R, v, field))
        Cn = []
        for i in range(r + 1):
            acc = zero
            for j in range(max(0, i - r), min(i, r - 1) + 1):
                if not t[i - j].is_zero():
                    acc = acc + t[i - j] * C[j]
            Cn.append(acc)
        C = Cn
    return naive_trim(reversed(C))


def naive_poly_mul(a, b, field):
    if not a or not b:
        return []
    out = [field.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x.is_zero():
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return naive_trim(out)


def naive_poly_divmod(a, b, field):
    rem = list(a)
    db = len(b) - 1
    if len(rem) - 1 < db:
        return [], rem
    inv_lead = b[-1].inverse()
    quot = [field.zero()] * (len(rem) - db)
    while len(rem) - 1 >= db and rem:
        c = rem[-1] * inv_lead
        shift = len(rem) - 1 - db
        quot[shift] = c
        for i, bc in enumerate(b):
            rem[shift + i] = rem[shift + i] - c * bc
        rem = naive_trim(rem)
    return naive_trim(quot), rem


def naive_poly_gcd(a, b, field):
    """Monic gcd by the Euclidean algorithm ([] when both are zero)."""
    while b:
        a, b = b, naive_poly_divmod(a, b, field)[1]
    if not a:
        return []
    inv = a[-1].inverse()
    return naive_trim(c * inv for c in a)


def naive_horner(coeffs, A):
    """p(A) for p given by its coefficients, low degree first."""
    field, n = A.field, A.nrows
    ident = [[field.one() if i == j else field.zero() for j in range(n)]
             for i in range(n)]
    acc = Matrix(field, [[field.zero()] * n for _ in range(n)])
    for c in reversed(coeffs):
        prod = naive_matmul(acc, A)
        acc = Matrix(field, [[x + ident[i][j] * c for j, x in enumerate(row)]
                             for i, row in enumerate(prod.rows)])
    return acc


def ref_durand_kerner(p, start=None):
    """The Durand-Kerner loop in its textbook form, the reference for
    ``approx_roots``' float bits: a nested Horner, the denominator over
    every j != i, and ``max`` for the largest step.  ``start``, when
    given, replaces the initial roots."""
    if p.degree < 1:
        return []
    coeffs = [complex(c) for c in p.reps]
    lead = coeffs[-1]
    coeffs = [c / lead for c in coeffs]
    n = len(coeffs) - 1
    scale = 1.0 + max(abs(c) for c in coeffs[:-1])
    roots = (list(start) if start is not None
             else [(0.4 + 0.9j) ** k * scale for k in range(1, n + 1)])

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


def brute_inverse(x):
    """The inverse of a finite-field element by search."""
    for y in enumerate_elements(x.field):
        if (x * y).rep == x.field.one().rep:
            return y
    return None


# Raw arithmetic of F_p and of quotients base[t]/(m) from the definitions:
# coefficientwise sums, schoolbook products reduced by the modulus, down to
# integers mod p or to rationals.  Nothing here calls the field's own
# operations.

def ref_add(field, a, b):
    if field.kind == "prime":
        return (a + b) % field.p
    if field.kind == "rationals":
        return a + b
    return tuple(ref_add(field.base, x, y) for x, y in zip(a, b))


def ref_neg(field, a):
    if field.kind == "prime":
        return -a % field.p
    if field.kind == "rationals":
        return -a
    return tuple(ref_neg(field.base, x) for x in a)


def ref_sub(field, a, b):
    return ref_add(field, a, ref_neg(field, b))


def ref_mul(field, a, b):
    if field.kind == "prime":
        return a * b % field.p
    if field.kind == "rationals":
        return a * b
    base, d, mod = field.base, field.degree, field.modulus
    conv = [base._zero_raw] * (2 * d - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] = ref_add(base, conv[i + j], ref_mul(base, x, y))
    # t^k = t^(k-d) * (t^d - m(t)) for k >= d: clear the top coefficients
    for k in range(2 * d - 2, d - 1, -1):
        c = conv[k]
        for j in range(d + 1):
            conv[k - d + j] = ref_sub(base, conv[k - d + j], ref_mul(base, c, mod[j]))
    return tuple(conv[:d])


def ref_pow(field, a, k):
    """a^k for k >= 0 by k - 1 schoolbook products."""
    out = field._one_raw
    for _ in range(k):
        out = ref_mul(field, out, a)
    return out


def ref_inverses(field):
    """raw -> raw inverse of every unit of a finite field or ring, by search."""
    raws = [x.rep for x in enumerate_elements(field)]
    one = field._one_raw
    return {a: b for a in raws for b in raws if ref_mul(field, a, b) == one}


def naive_rational_roots(f):
    """Rational roots of a Poly over Q by the rational root theorem with no
    size bound: every ±p/q with p | a_0 and q | a_n, found by trial division
    up to sqrt(|a_0|) and sqrt(|a_n|), in that candidate order."""
    def divisors(n):
        n = abs(n)
        small, large = [], []
        i = 1
        while i * i <= n:
            if n % i == 0:
                small.append(i)
                if i != n // i:
                    large.append(n // i)
            i += 1
        return small + large[::-1]

    denom = 1
    for c in f.coeffs:
        denom = denom * c.rep.denominator // math.gcd(denom, c.rep.denominator)
    ints = [int(c.rep * denom) for c in f.coeffs]
    while ints and ints[0] == 0:
        ints = ints[1:]
    if not ints:
        return []
    candidates = [Fraction(0)]
    for p in divisors(ints[0]):
        for q in divisors(ints[-1]):
            candidates += [Fraction(p, q), Fraction(-p, q)]
    roots = []
    for cand in dict.fromkeys(candidates):
        if f(f.field(cand)).is_zero():
            roots.append(cand)
    return roots


def naive_kth_roots(e, k):
    """Every x with x^k = e, by trying each element in enumeration order."""
    return [x for x in enumerate_elements(e.field) if x ** k == e]


def ref_sqrt_tonelli_shanks(e):
    """Tonelli-Shanks (Shanks 1973) square root of a nonzero square e of
    F_q, q odd, with c built from the first non-square in enumeration
    order: the reference for the l = 2 step of ``fields.kth_roots``, whose
    square roots are [r, -r] for this r."""
    field = e.field
    q, one = field.cardinality, field.one()
    s, m = q - 1, 0
    while s % 2 == 0:
        s //= 2
        m += 1
    z = next(x for x in enumerate_elements(field) if x ** ((q - 1) // 2) == -one)
    c, t, x = z ** s, e ** s, e ** ((s + 1) // 2)
    while t != one:
        i, t2 = 0, t
        while t2 != one:
            t2 = t2 * t2
            i += 1
        b = c ** (2 ** (m - i - 1))
        m, c = i, b * b
        t = t * c
        x = x * b
    return x


def _pow_mod(a, e, m):
    """a^e mod m by the kernel's modular power."""
    return Poly._from_raw(a.field, a.field.kernel.poly_powmod(a.reps, e, m.reps))


def rabin_irreducible(mod, base):
    """Rabin's irreducibility test (Rabin 1980) for a monic polynomial of
    degree d >= 1 over a finite field F_q, raw coefficients low degree
    first: x^(q^d) = x mod m, and gcd(x^(q^(d/r)) - x, m) = 1 for every
    prime r | d.  The reference for ``factor.is_irreducible``, which
    decides by factoring."""
    m = Poly(base, [base.element(c) for c in mod])
    d, q = m.degree, base.cardinality
    x = Poly.x(base)
    if _pow_mod(x, q ** d, m) != x % m:
        return False
    primes = [r for r in range(2, d + 1) if d % r == 0 and all(r % s for s in range(2, r))]
    return all(m.gcd(_pow_mod(x, q ** (d // r), m) - x).degree == 0 for r in primes)


def power_per_degree_distinct_degree(f):
    """Distinct-degree splitting of a monic polynomial over F_q with one
    modular power x^(q^d) = (x^(q^(d-1)))^q mod g per degree d: the loop
    the Frobenius-matrix step of ``factor._distinct_degree`` replaced."""
    field = f.field
    q = field.cardinality
    x = Poly.x(field)
    out = []
    h = x
    g = f
    d = 0
    while g.degree > 0:
        d += 1
        if 2 * d > g.degree:
            out.append((g, g.degree))
            break
        h = _pow_mod(h, q, g)
        gd = g.gcd(h - x)
        if gd.degree > 0:
            out.append((gd, d))
            g = g // gd
            h = h % g
    return out


def frobenius_rows(g):
    """x^(qj) mod g for j < deg g, each by its own modular power: the rows
    ``factor._distinct_degree`` hands on, reduced mod g."""
    q = g.field.cardinality
    x = Poly.x(g.field)
    return [_pow_mod(x, q * j, g) for j in range(g.degree)]


def equal_degree_power(a, d, g):
    """a^((q^d-1)/2) mod g by one binary power: the value each
    Cantor-Zassenhaus draw needs in odd characteristic, as
    ``factor._equal_degree`` computed it before the Frobenius split."""
    return _pow_mod(a, (a.field.cardinality ** d - 1) // 2, g)


def power_equal_degree_split(f, d, rng):
    """The monic irreducible factors, sorted, of a monic product f of
    distinct irreducibles of degree d over F_q, q odd: Cantor-Zassenhaus
    with ``equal_degree_power`` per draw (at d = 1, random root splitting),
    the split ``factor._equal_degree`` made before the Frobenius split and
    the root scan."""
    field = f.field
    if f.degree == d:
        return [f]
    while True:
        a = Poly(field, [random_element(field, rng) for _ in range(f.degree)])
        if a.degree < 1:
            continue
        g = f.gcd(equal_degree_power(a, d, f) - Poly.one(field))
        if 0 < g.degree < f.degree:
            parts = (power_equal_degree_split(g, d, rng)
                     + power_equal_degree_split(f // g, d, rng))
            return sorted(parts, key=Poly.sort_key)


def product_loop_moments_vanish(X, T):
    """trace(T X^j) = 0 for 0 < j < n, each from the product T X^j: the
    loop ``commutators._moments_vanish`` ran before it tested the first
    moment as a sum of entry products."""
    P = T
    for _ in range(T.nrows - 1):
        P = P * X
        if not P.trace().is_zero():
            return False
    return True


def nilpotent_conjugator(N1: Matrix, N2: Matrix) -> Matrix:
    """Q with Q N1 Q^-1 = N2 for nilpotents of equal partition."""
    S1, l1 = nilpotent_jordan_basis(N1)
    S2, l2 = nilpotent_jordan_basis(N2)
    if l1 != l2:
        raise NotSimilar(f"nilpotent partitions differ: {l1} vs {l2}")
    return S2 * S1.inverse()


def bordered_charpoly_closed_form(field, eps, x, y, z) -> Poly:
    """chi_M(T) for M(eps, x, y, z), written directly from the closed form:
    coefficient of T^{n-j} is -eps^{j-2} * sum_{i=j-1}^{n-1} x_i y_{i-j+2}."""
    n = len(x) + 1
    coeffs = [field.zero()] * (n + 1)
    coeffs[n] = field.one()
    coeffs[n - 1] = -z
    for j in range(2, n + 1):
        acc = field.zero()
        for i in range(j - 1, n):
            acc = acc + x[i - 1] * y[i - j + 1]
        coeffs[n - j] = -(eps ** (j - 2)) * acc
    return Poly(field, coeffs)


# The five binary powering loops that ``fields._binary_power`` replaced,
# as they were written in Field._rpow, GenericKernel.matpow,
# GenericKernel.poly_powmod, Poly.__pow__ and MatrixSpace.power: the
# references of the bit pin in test_kernels.

def loop_rpow(field, a, k: int):
    result = field._one_raw
    while k:
        if k & 1:
            result = field._rmul(result, a)
        k >>= 1
        if k:
            a = field._rmul(a, a)
    return result


def loop_matpow(kern, A, k: int):
    result = None
    while True:
        if k & 1:
            result = A if result is None else kern.matmul(result, A)
        k >>= 1
        if not k:
            return result
        A = kern.matmul(A, A)


def loop_poly_powmod(kern, a, e: int, m, mulmod=None):
    if mulmod is None and e > 1:
        mulmod = kern.poly_mulmod_fn(m)
    cur = kern.poly_divmod(a, m)[1]
    result = None if e else kern.poly_divmod([kern.one], m)[1]
    while e:
        if e & 1:
            result = cur if result is None else mulmod(result, cur)
        e >>= 1
        if e:
            cur = mulmod(cur, cur)
    return result


def loop_poly_pow(p, k: int):
    result = Poly.one(p.field)
    base = p
    while k:
        if k & 1:
            result = result * base
        k >>= 1
        if k:  # the last squaring would go unused
            base = base * base
    return result


def loop_space_power(space, X, k: int):
    result = None
    while True:
        if k & 1:
            result = X if result is None else space.matmul(result, X)
        k >>= 1
        if not k:
            return result
        X = space.matmul(X, X)


def plain_power_sum_walk(gamma, ks, candidates, inv=None, distinct=False, nonzero=False):
    """The scalar search ``scalars._power_sum_solutions`` as a plain depth
    first walk, with no memo of dead states and no number-field shortcut:
    every subtree is walked, and a remainder closes by its first root."""
    from wordmap.errors import Unsupported
    from wordmap.fields import kth_roots

    n, used = len(ks), set()

    def close(w):
        if (nonzero and w.is_zero()) or (distinct and w.rep in used):
            return None
        try:
            roots = kth_roots(w if inv is None else w * inv, ks[-1])
        except Unsupported:
            return None
        return roots[0] if roots else None

    def walk(prefix, w):
        if len(prefix) == n - 1:
            last = close(w)
            if last is not None:
                yield prefix + (last,)
            return
        for x in candidates():
            if nonzero and x.is_zero():
                continue
            p = x ** ks[len(prefix)]
            if distinct and p.rep in used:
                continue
            used.add(p.rep)
            yield from walk(prefix + (x,), w - p)
            used.discard(p.rep)

    return walk((), gamma)


def loop_krylov_annihilator(A: Matrix, v) -> Poly:
    """The monic minimal g with g(A)v = 0 by the incremental elimination
    that ``matrices.krylov_annihilator`` ran before it became one echelon:
    each A^j v is reduced against the earlier ones, carrying the power
    combination that it is, until one reduces to zero."""
    field, n = A.field, A.nrows
    kern = field.kernel
    zero, one = field._zero_raw, field._one_raw
    apply = kern.matvec_fn(A.reps)
    ech_rows = []
    cur = [x.rep for x in v]
    for j in range(n + 1):
        vec = cur
        tail = [zero] * (n + 1)
        tail[j] = one
        for evec, etail, piv in ech_rows:
            c = vec[piv]
            if kern.is_zero(c):
                continue
            vec = kern.vsub_scaled(vec, c, evec)
            tail = kern.vsub_scaled(tail, c, etail)
        piv = kern.lead(vec)
        if piv is None:
            return Poly._from_raw(field, kern.poly_trim(tail)).monic()
        inv = kern.inv(vec[piv])
        evec = kern.vscale(vec, inv)
        ech_rows.append((evec, kern.vscale(tail, inv), kern.lead(evec)))
        cur = apply(cur)
    raise ValueError("the Krylov sequence did not become dependent")
