import itertools
import math
import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import wordmap.matrices as matrices_mod
from wordmap.errors import (
    DescriptorMismatch,
    NotNilpotent,
    TooLarge,
    UsageError,
    VerificationFailed,
)
from wordmap.factor import factor, is_irreducible
from wordmap.fields import (
    GF,
    Field,
    FieldElement,
    enumerate_elements,
    extend,
    parse_field_spec,
    random_element,
)
from wordmap.matrices import (
    Matrix,
    MatrixSpace,
    Partition,
    charpoly,
    companion_lift,
    eigenbasis,
    generalized_jordan_form,
    is_nilpotent,
    minpoly,
    nilpotent_jordan_basis,
    nilpotent_partition,
)
from wordmap.polynomials import Poly

from oracles import (
    all_matrices,
    charpoly_cofactor,
    nilpotent_conjugator,
    random_invertible,
    random_matrix,
)

F2 = Field("prime", p=2)
F5 = Field("prime", p=5)
F7 = Field("prime", p=7)
F101 = Field("prime", p=101)
Q = Field("rationals")


def test_charpoly_nilpotent_block():
    J = Matrix.jordan_block(F7(0), 3)
    assert charpoly(J) == Poly(F7, [0, 0, 0, 1])


def test_charpoly_companion_reproduces_polynomial():
    for field, coeffs in ((F7, [3, 1, 2, 1]), (Q, [-5, 0, 2, 0, 1]),
                          (F2, [1, 1, 0, 0, 1])):
        p = Poly(field, coeffs)
        assert charpoly(Matrix.companion(p)) == p


def test_charpoly_matches_cofactor_oracle():
    rng = random.Random(11)
    for n in (2, 3, 4):
        for _ in range(10):
            A = random_matrix(F101, n, rng)
            assert charpoly(A) == charpoly_cofactor(A)


def test_charpoly_conjugation_invariant():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randrange(2, 5)
        A = random_matrix(F101, n, rng)
        P = random_invertible(F101, n, rng)
        assert charpoly(P * A * P.inverse()) == charpoly(A)


def test_cayley_hamilton():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randrange(1, 5)
        A = random_matrix(F101, n, rng)
        assert charpoly(A)(A).is_zero()


def test_minpoly_examples():
    assert minpoly(Matrix.identity(F7, 3)) == Poly(F7, [-1, 1])
    assert minpoly(Matrix.diagonal(F5, [1, 2])) == Poly(F5, [2, -3, 1])
    J = Matrix.jordan_block(F5(0), 4)
    assert minpoly(J * J) == Poly(F5, [0, 0, 1])
    assert (J * J * J * J).is_zero() and not (J * J).is_zero()


def test_nilpotent_partition_examples():
    assert nilpotent_partition(Matrix.jordan_block(F5(0), 4)).parts == (4,)
    J7 = Matrix.jordan_block(F7(0), 7)
    assert nilpotent_partition(J7 * J7).parts == (3, 4)
    assert nilpotent_partition(Matrix.zeros(F5, 3, 3)).parts == (1, 1, 1)
    with pytest.raises(NotNilpotent):
        nilpotent_partition(Matrix.identity(F5, 2))


def test_nilpotent_partition_conjugation_invariant():
    rng = random.Random(2)
    N = Matrix.block_diag(F101, [Matrix.jordan_block(F101(0), s) for s in (3, 2, 2, 1)])
    for _ in range(10):
        P = random_invertible(F101, 8, rng)
        assert nilpotent_partition(P * N * P.inverse()).parts == (1, 2, 2, 3)


def _stalled_real_nilpotent():
    # over R the kernels of this type (1, 4) nilpotent stall at dimension 4
    # at the pivot tolerance; the chains then add up to 4, not 5
    R = parse_field_spec("R:tol=1e-9")
    rng = random.Random(20)
    S = Matrix.from_rows(R, [[rng.uniform(-1, 1) for _ in range(5)] for _ in range(5)])
    J = Matrix.block_diag(R, [Matrix.jordan_block(R(0), 1), Matrix.jordan_block(R(0), 4)])
    return S * J * S.inverse()


def test_nilpotent_partition_refuses_chains_that_miss_n():
    with pytest.raises(VerificationFailed, match="total length 4 in a 5x5"):
        nilpotent_partition(_stalled_real_nilpotent())


def test_nilpotent_jordan_basis_refuses_chains_that_miss_n():
    """The basis reads the same chain pass, so it refuses the stall too,
    rather than return a 5x4 basis that fails later as NonSquare."""
    with pytest.raises(VerificationFailed, match="total length 4 in a 5x5"):
        nilpotent_jordan_basis(_stalled_real_nilpotent())


def test_nilpotent_conjugator():
    N1 = Matrix.block_diag(F7, [Matrix.jordan_block(F7(0), 2),
                                Matrix.jordan_block(F7(0), 3)])
    N2 = N1.scale(F7(4))
    Q_ = nilpotent_conjugator(N1, N2)
    assert Q_ * N1 * Q_.inverse() == N2


def test_jordan_form_fixed_points():
    J = Matrix.jordan_block(F7(0), 3)
    gj = generalized_jordan_form(J)
    assert len(gj.blocks) == 1
    assert gj.blocks[0].poly == Poly(F7, [0, 1]) and gj.blocks[0].size == 3
    assert gj.conjugator == Matrix.identity(F7, 3)


def _f16_over_f4():
    F4 = GF(4)
    F16, _, _ = extend(F4, Poly(F4, [F4.generator(), F4.one(), F4.one()]))
    return F16


# every exact kind: prime fields, F_{p^d}, a tower, and Q
EXACT_FIELDS = [F2, Field("prime", p=3), F101, GF(4), GF(9), _f16_over_f4(), Q]


def _exact_elements(field):
    if field.is_finite:
        return st.sampled_from(list(enumerate_elements(field)))
    return st.integers(-3, 3).map(field)


@st.composite
def jordan_targets(draw):
    """A random matrix, or S J S^-1 for S = L*U with random unit triangular
    L and U, and J a direct sum of generalized Jordan blocks of random
    irreducible factors of degree 1 or 2, often repeated."""
    field = draw(st.sampled_from(EXACT_FIELDS))
    elems = _exact_elements(field)
    if not draw(st.booleans()):
        n = draw(st.integers(1, 5))
        return Matrix(field, [draw(st.lists(elems, min_size=n, max_size=n)) for _ in range(n)])
    factors, blocks, n = [], [], 0
    while n < 2 or (n < 6 and draw(st.booleans())):
        if factors and draw(st.booleans()):
            p = draw(st.sampled_from(factors))
        else:
            deg = draw(st.integers(1, 2))
            p = Poly(field, draw(st.lists(elems, min_size=deg, max_size=deg)) + [field.one()])
            if not is_irreducible(p):
                continue
            factors.append(p)
        l = draw(st.integers(1, 3))
        blocks.append(Matrix.generalized_jordan_block(p, l))
        n += l * p.degree
    one, zero = field.one(), field.zero()
    L = [[draw(elems) if i > j else one if i == j else zero for j in range(n)]
         for i in range(n)]
    U = [[draw(elems) if i < j else one if i == j else zero for j in range(n)]
         for i in range(n)]
    S = Matrix(field, L) * Matrix(field, U)
    return S * Matrix.block_diag(field, blocks) * S.inverse()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(A=jordan_targets())
def test_realization_is_a_fixed_point_of_the_jordan_form(A):
    """The Jordan form of a realization is (the same blocks, the identity,
    the same realization); the m = 4 commutator solve relies on it to skip
    a second Jordan form."""
    jf = generalized_jordan_form(A)
    again = generalized_jordan_form(jf.realization)
    assert again.blocks == jf.blocks
    assert again.conjugator == Matrix.identity(A.field, A.nrows)
    assert again.realization == jf.realization


def test_jordan_form_of_the_empty_matrix_is_a_usage_error():
    # it once raised IndexError
    for field in (Field("prime", p=5), Q):
        with pytest.raises(UsageError):
            generalized_jordan_form(Matrix(field, []))


def test_jordan_form_rotation_over_q():
    A = Matrix.from_rows(Q, [[0, -1], [1, 0]])
    gj = generalized_jordan_form(A)
    assert [(b.poly.coeffs, b.size) for b in gj.blocks] == \
        [((Q.one(), Q.zero(), Q.one()), 1)]
    P = gj.conjugator
    assert P * A * P.inverse() == gj.realization


def test_jordan_form_diagonal_multiplicities():
    A = Matrix.diagonal(F5, [1, 1, 2])
    gj = generalized_jordan_form(A)
    stats = sorted((tuple(c.rep for c in b.poly.coeffs), b.size) for b in gj.blocks)
    assert stats == [((3, 1), 1), ((4, 1), 1), ((4, 1), 1)]


def test_jordan_form_random_round_trip():
    rng = random.Random(21)
    for _ in range(25):
        n = rng.randrange(2, 7)
        A = random_matrix(F101, n, rng)
        gj = generalized_jordan_form(A)
        P = gj.conjugator
        assert P * A * P.inverse() == gj.realization
        assert sum(b.size * b.degree for b in gj.blocks) == n


def test_jordan_form_extension_blocks():
    p = Poly(F2, [1, 1, 1])
    A = Matrix.generalized_jordan_block(p, 2)
    gj = generalized_jordan_form(A)
    assert [(b.poly, b.size) for b in gj.blocks] == [(p, 2)]


# the Krylov route against the nullspace route: every exact kind, packed and
# unpacked F_p kernels among them
KRYLOV_FIELDS = {"F2": F2, "F3": Field("prime", p=3), "F4": GF(4), "F9": GF(9),
                 "F101": F101, "F65521": Field("prime", p=65521),
                 "F2147483647": Field("prime", p=2**31 - 1), "Q": Q}


def _krylov_cases(field, n, rng):
    """(name, A, cyclic): scalar, derogatory, nilpotent, repeated-factor
    and S J S^-1 targets, and two inputs on which e_0 is not cyclic.
    ``cyclic`` is the candidate the Krylov route starts from, "e0", None
    when no candidate is cyclic, or "maybe" for a cyclic matrix conjugated
    by a random S, which leaves it to chance which candidate is cyclic."""
    if field.is_finite:
        elems = list(itertools.islice(enumerate_elements(field), 64))
        draw = partial(random_element, field, rng)
    else:
        elems = [field(c) for c in range(-4, 5)]
        draw = partial(rng.choice, elems)
    one, zero = field.one(), field.zero()
    a = draw()
    b = next(e for e in elems if e != a)

    def square():
        return Matrix(field, [[draw() for _ in range(n)] for _ in range(n)])

    # S = L*U, unit triangular factors; over Q with entries in -1..1, which
    # keeps S J S^-1 small
    small = draw if field.is_finite else partial(rng.choice, elems[3:6])
    L = Matrix(field, [[small() if i > j else one if i == j else zero for j in range(n)]
                       for i in range(n)])
    U = Matrix(field, [[small() if i < j else one if i == j else zero for j in range(n)]
                       for i in range(n)])
    S = L * U
    Si = S.inverse()

    def conj(J):
        return S * J * Si

    def jordan_sum(*parts):
        return Matrix.block_diag(field, [Matrix.jordan_block(x, l) for x, l in parts if l])

    ones = [one] * n
    last = [zero] * (n - 1) + [one]
    cases = [("scalar", Matrix.identity(field, n).scale(a), None if n > 1 else "e0"),
             ("nilpotent", conj(Matrix.jordan_block(zero, n)), "maybe"),
             ("random", square(), "maybe"),
             # e_0 is an eigenvector; only the top of the chain, e_{n-1}, is cyclic
             ("e_{n-1} only", Matrix.jordan_block(a, n), "e0" if n == 1 else last),
             # e_0 and e_{n-1} each generate one block; their sum generates both
             ("all-ones only", jordan_sum((a, n - n // 2), (b, n // 2)),
              "e0" if n == 1 else ones)]
    if n >= 2:
        cases.append(("derogatory", conj(jordan_sum((a, n - 1), (a, 1))), None))
        cases.append(("nilpotent derogatory", conj(jordan_sum((zero, n // 2),
                                                              (zero, n - n // 2))), None))
    if n >= 3:
        cases.append(("repeated factor", conj(jordan_sum((a, n - 2), (b, 2))), "maybe"))
        cases.append(("repeated factor, all-ones", jordan_sum((a, n - 2), (b, 2)), ones))
    p = next((Poly(field, [c, one, one]) for c in elems
              if is_irreducible(Poly(field, [c, one, one]))), None)
    if p is not None and n >= 4:
        J = Matrix.block_diag(field, [Matrix.generalized_jordan_block(p, n // 2 - 1),
                                      jordan_sum((a, n - 2 * (n // 2 - 1)))])
        cases.append(("S J S^-1 extension factor", conj(J), "maybe"))
        if n >= 6:
            J = Matrix.block_diag(field, [Matrix.generalized_jordan_block(p, 1),
                                          Matrix.generalized_jordan_block(p, 2),
                                          jordan_sum((a, n - 6))])
            cases.append(("S J S^-1 repeated extension factor", conj(J), None))
    return cases


@pytest.mark.parametrize("name", list(KRYLOV_FIELDS))
def test_krylov_route_equals_the_nullspace_route(monkeypatch, name):
    field = KRYLOV_FIELDS[name]
    rng = random.Random(2024)
    krylov = matrices_mod._cyclic_krylov
    routes = {True: 0, False: 0}
    for n in range(1, 13):
        for case, A, cyclic in _krylov_cases(field, n, rng):
            found = krylov(A)
            if cyclic is None:
                assert found is None, (case, n)
            elif cyclic == "e0":
                assert found[1][0] == [field._one_raw] + [field._zero_raw] * (n - 1)
            elif cyclic != "maybe":
                assert found[1][0] == [x.rep for x in cyclic], (case, n)
            else:
                routes[found is not None] += 1
            if found is not None:
                assert found[0] == charpoly(A)
            jf = generalized_jordan_form(A)
            monkeypatch.setattr(matrices_mod, "_cyclic_krylov", lambda A: None)
            ref = generalized_jordan_form(A)
            monkeypatch.setattr(matrices_mod, "_cyclic_krylov", krylov)
            assert jf.blocks == ref.blocks, (case, n)
            assert jf.conjugator.reps == ref.conjugator.reps, (case, n)
            assert jf.realization == ref.realization, (case, n)
            assert jf.conjugator_inverse == ref.conjugator_inverse \
                == jf.conjugator.inverse(), (case, n)
    # most random and conjugated cyclic inputs take the Krylov route
    assert routes[True] > routes[False]


def test_krylov_kernels_are_the_nullspace_bases():
    rng = random.Random(7)
    repeated = 0
    for field in (F101, Field("prime", p=3), Q):
        # repeated factors: (x^2 + 1)^3, irreducible over F_3 and Q and a
        # product of two linear factors over F_101, and (x - 1)^3 (x - 2)^2
        blocks = [Matrix.generalized_jordan_block(Poly(field, [1, 0, 1]), 3),
                  Matrix.block_diag(field, [Matrix.jordan_block(field(1), 3),
                                            Matrix.jordan_block(field(2), 2)])]
        for A in blocks + [Matrix(field, [[field(rng.randrange(-2, 3)) for _ in range(n)]
                                          for _ in range(n)]) for n in range(2, 9)]:
            found = matrices_mod._cyclic_krylov(A)
            if found is None:
                continue
            chi, rows, _ = found
            for term in factor(chi):
                p, s = term.poly, term.multiplicity
                kers = matrices_mod._krylov_kernels(field.kernel, rows, chi, p, s)
                B = p(A)
                assert kers[0] == []
                for j in range(1, s + 1):
                    assert kers[j] == matrices_mod._nullspace_raw(field, (B ** j).reps)
                repeated += s > 1
    assert repeated >= 6


@pytest.mark.parametrize("field", [Field("real", tolerance=1e-9),
                                   Field("complex", tolerance=1e-9)])
def test_conjugator_inverse_is_left_to_callers_over_r_and_c(field):
    A = random_matrix(field, 4, random.Random(3))
    assert generalized_jordan_form(A).conjugator_inverse is None


def test_companion_lift_base_cases():
    pQ = Poly(Q, [1, 0, 1])
    L, i, embed = extend(Q, pQ)
    W = Matrix(L, [[i]])
    assert companion_lift(W, pQ) == Matrix.from_rows(Q, [[0, -1], [1, 0]])
    W = Matrix(L, [[embed(Q(3))]])
    assert companion_lift(W, pQ) == Matrix.identity(Q, 2).scale(Q(3))


def test_companion_lift_sends_jordan_to_generalized_jordan():
    p = Poly(F2, [1, 1, 1])
    L, alpha, embed = extend(F2, p)
    assert companion_lift(Matrix.jordan_block(alpha, 2), p) == \
        Matrix.generalized_jordan_block(p, 2)


def test_companion_lift_is_ring_homomorphism():
    rng = random.Random(4)
    cases = []
    p4 = Poly(F2, [1, 1, 1])
    F4, a4, _ = extend(F2, p4)
    cases.append((F4, p4, lambda: F4([rng.randrange(2), rng.randrange(2)])))
    pQi = Poly(Q, [1, 0, 1])
    Qi, ii, _ = extend(Q, pQi)
    cases.append((Qi, pQi, lambda: Qi([rng.randrange(-3, 4), rng.randrange(-3, 4)])))
    for L, p, rand_elem in cases:
        for _ in range(10):
            U = Matrix(L, [[rand_elem() for _ in range(2)] for _ in range(2)])
            V = Matrix(L, [[rand_elem() for _ in range(2)] for _ in range(2)])
            assert companion_lift(U + V, p) == companion_lift(U, p) + companion_lift(V, p)
            assert companion_lift(U * V, p) == companion_lift(U, p) * companion_lift(V, p)


def test_eigenbasis():
    A = Matrix.from_rows(F7, [[0, 1], [1, 0]])
    S = eigenbasis(A, [F7(1), F7(6)])
    assert S.inverse() * A * S == Matrix.diagonal(F7, [1, 6])


def test_partition_validation():
    with pytest.raises(Exception):
        Partition((3, 2))
    assert Partition((2, 3)).total == 5


def test_is_nilpotent():
    assert is_nilpotent(Matrix.jordan_block(F5(0), 3))
    assert not is_nilpotent(Matrix.identity(F5, 2))


def test_jordan_form_defective_approx():
    R7 = Field("real", tolerance=1e-7)
    A = Matrix.jordan_block(R7(2.5), 3)
    gj = generalized_jordan_form(A)
    assert [(b.degree, b.size) for b in gj.blocks] == [(1, 3)]
    C7 = Field("complex", tolerance=1e-7)
    B = Matrix.jordan_block(C7(1j), 3).scale(C7(1j).inverse())
    gj = generalized_jordan_form(B)
    assert sum(b.size * b.degree for b in gj.blocks) == 3
    assert (gj.conjugator * B * gj.conjugator.inverse()).allclose(gj.realization)


def test_add_sub_reject_unequal_shapes():
    for a, b in ((Matrix.identity(F5, 2), Matrix.identity(F5, 3)),
                 (Matrix.zeros(F5, 2, 3), Matrix.zeros(F5, 3, 2))):
        with pytest.raises(UsageError):
            a + b
        with pytest.raises(UsageError):
            a - b
    two = Matrix.identity(F5, 2)
    assert two + two == Matrix.identity(F5, 2).scale(F5(2))


def test_foreign_operands_raise_usage_error():
    A = Matrix.identity(F5, 2)
    P = Poly(F5, [1, 2])
    for bad in (2, 1.5, "x", None):
        for op in (lambda: A + bad, lambda: A - bad, lambda: A * bad,
                   lambda: P + bad, lambda: P - bad, lambda: P * bad):
            with pytest.raises(UsageError):
                op()
    for k in (1.5, "2", None):
        with pytest.raises(UsageError):
            A ** k
        with pytest.raises(UsageError):
            P ** k
    assert A * F5(2) == A + A and A ** 3 == A and P * F5(2) == P + P


def test_solve_right_rejects_wrong_length():
    ident = Matrix.identity(F5, 3)
    for b in ([F5(1)], [F5(1)] * 4):
        with pytest.raises(UsageError):
            ident.solve_right(b)
    assert ident.solve_right([F5(1), F5(2), F5(3)]) == (F5(1), F5(2), F5(3))


def test_matrix_rejects_entries_outside_its_field():
    R = Field("real", tolerance=1e-9)
    with pytest.raises(UsageError):  # raw floats, not elements of R
        Matrix(R, [[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(UsageError):
        Matrix(F5, [[F5(1), F7(1)]])
    with pytest.raises(UsageError):
        Matrix(F5, [[F5(1), 2]])
    same_key = Field("prime", p=5)  # another descriptor of the same field
    assert Matrix(F5, [[same_key(2)]]) == Matrix.from_rows(F5, [[2]])


def test_matrix_rejects_ragged_rows():
    for rows in ([[F5(1), F5(2)], [F5(3)]], [[F5(1)], [F5(2), F5(3)]]):
        with pytest.raises(UsageError):
            Matrix(F5, rows)
    assert Matrix(F5, []).nrows == 0


def test_checked_constructors_keep_their_refusals():
    # from_rows and from_cols build through Matrix's own checks; block_diag
    # checks each operand's field once, with the same message
    with pytest.raises(UsageError, match=r"^ragged rows: lengths 1 and 2$"):
        Matrix.from_rows(F5, [[1, 2], [3]])
    with pytest.raises(DescriptorMismatch, match="cannot coerce Fp:7 into Fp:5"):
        Matrix.from_rows(F5, [[F7(1)]])
    with pytest.raises(UsageError, match=r"^matrix entry 1 is not an element of Fp:5$"):
        Matrix.from_cols(F5, [[F5(1)], [F7(1)]])
    with pytest.raises(UsageError, match=r"^matrix entry 3 is not an element of Fp:5$"):
        Matrix.block_diag(F5, [Matrix.identity(F5, 1), Matrix.identity(F7, 2).scale(3)])
    same_key = Field("prime", p=5)
    assert Matrix.block_diag(F5, [Matrix.identity(same_key, 2), Matrix.zeros(F5, 0)]) == \
        Matrix.identity(F5, 2)


R9 = Field("real", tolerance=1e-9)
C9 = Field("complex", tolerance=1e-9)


# -- storage: raw reps inside, FieldElements where an entry is read ----------

def _f16_tower():
    F4 = GF(4)
    # T^2 + T + t has no root in F_4, so it is irreducible
    return extend(F4, Poly(F4, [F4.generator(), F4.one(), F4.one()]))[0]


# each kind's field and nine entry values; the fourth is nonzero, and the R
# and C lists hold a negative zero
STORAGE_CASES = {
    "Fp:5": (lambda: F5, lambda F: [F(v) for v in (3, 0, 4, 1, 2, 2, 0, 1, 4)]),
    "F9": (lambda: GF(9), lambda F: list(enumerate_elements(F))[:9]),
    "F16-tower": (_f16_tower, lambda F: list(enumerate_elements(F))[3:12]),
    "Q": (lambda: Q, lambda F: [F(v) for v in (Fraction(1, 2), 0, -3, Fraction(7, 3), 5,
                                               Fraction(-1, 4), 2, 0, 1)]),
    "R": (lambda: R9, lambda F: [F(v) for v in (0.5, -0.0, -3.25, 1e4, 2.0, -1e-3,
                                                7.0, 0.0, 1.0)]),
    "C": (lambda: C9, lambda F: [F(v) for v in (0.5 + 1j, complex(-0.0, -0.0), -3 + 2j,
                                                1e3j, 2, -1e-3 + 0.5j, 1j, 0, 1)]),
}


@pytest.mark.parametrize("name", list(STORAGE_CASES))
def test_readers_wrap_the_stored_reps(name):
    """rows, col, M[i, j], coeffs, p[i] and iteration give the FieldElements
    the values were built from, and a kernel product read back entry by
    entry is the element-by-element arithmetic."""
    make_field, make_values = STORAGE_CASES[name]
    field = make_field()
    elems = make_values(field)
    rows = [elems[:3], elems[3:6]]
    M = Matrix(field, rows)
    assert M.reps == tuple(tuple(x.rep for x in row) for row in rows)
    assert M.rows == tuple(map(tuple, rows))
    assert all(type(x) is FieldElement and x.field is field for row in M.rows for x in row)
    assert [M[i, j] for i in range(2) for j in range(3)] == elems[:6]
    assert [M.col(j) for j in range(3)] == [(rows[0][j], rows[1][j]) for j in range(3)]
    v = elems[6:9]
    got = M * Matrix(field, [[x] for x in v])
    for i, row in enumerate(rows):
        want = field.zero()
        for a, b in zip(row, v):
            if not a.is_zero():
                want = want + a * b
        assert got[i, 0] == want and got.rows[i] == (want,)
    p = Poly(field, elems[:4])
    assert p.reps == tuple(x.rep for x in elems[:4])
    assert p.coeffs == tuple(elems[:4]) == tuple(p)
    assert [p[i] for i in range(6)] == elems[:4] + [field.zero()] * 2
    assert p.leading() == elems[3]
    assert all(type(x) is FieldElement and x.field is field for x in p.coeffs)


@pytest.mark.parametrize("name", list(STORAGE_CASES))
def test_built_and_computed_values_are_equal_and_hash_equal(name):
    """A matrix or polynomial from the checked constructors and the same one
    from a kernel operation are equal and hash equal; over R and C the
    kernel's zeros are +0.0 where the built ones are -0.0."""
    make_field, make_values = STORAGE_CASES[name]
    field = make_field()
    elems = make_values(field)
    A = Matrix(field, [elems[:3], elems[3:6], elems[6:9]])
    for B in (Matrix.identity(field, 3) * A, A + Matrix.zeros(field, 3), -(-A)):
        assert B == A and hash(B) == hash(A) and {A: 1}[B] == 1
    p = Poly(field, elems[:4])
    q = p * Poly.one(field)
    assert q == p and hash(q) == hash(p)
    if not field.is_exact:
        sign = lambda x: math.copysign(1, complex(x).real)
        assert sign(A.reps[0][1]) == -1 and sign((Matrix.identity(field, 3) * A).reps[0][1]) == 1
        assert sign(p.reps[1]) == -1 and sign(q.reps[1]) == 1


def test_constructors_refuse_foreign_ragged_and_non_field_entries():
    for field, rows in ((F5, [[F5(1)], [F5(2), F5(3)]]), (F5, [[F5(1), F7(1)]]),
                        (F5, [[F5(1), 2]]), (F5, [[F5(1), "x"]]), (F5, [[None]]),
                        (R9, [[R9(1.0), C9(1.0)]]), (R9, [[R9(1.0), 1.0]])):
        with pytest.raises(UsageError):
            Matrix(field, rows)
    for field, coeffs in ((F5, ["x"]), (F5, [1.5]), (F5, [None]), (Q, [1.5]),
                          (R9, [float("nan")]), (C9, ["x"])):
        with pytest.raises(UsageError):
            Poly(field, coeffs)
    # a foreign element is a coercion error, which is a usage error, as it
    # is for Matrix
    with pytest.raises(DescriptorMismatch):
        Poly(F5, [F7(1)])
    with pytest.raises(UsageError):
        Poly(F5, [F7(1)])


def test_from_cols_refuses_ragged_and_empty_columns():
    for cols in ([], [[F5(1)], []], [[], []], [[F5(1)], [F5(1), F5(2)]]):
        with pytest.raises(UsageError, match="ragged columns"):
            Matrix.from_cols(F5, cols)
    with pytest.raises(UsageError, match="not an element"):
        Matrix.from_cols(F5, [[F5(1)], [F7(1)]])
    assert Matrix.from_cols(F5, [[F5(1), F5(2)], [F5(3), F5(4)]]) == \
        Matrix.from_rows(F5, [[1, 3], [2, 4]])


def _large_entries(field, seed):
    rng = random.Random(seed)
    return Matrix(field, [[field(round(rng.uniform(-1e4, 1e4), 1)) for _ in range(3)]
                          for _ in range(3)])


@pytest.mark.parametrize("target,exhausts", [
    (Matrix.jordan_block(R9(2.5), 3), False),
    (Matrix.jordan_block(C9(1j), 2), False),
    (_large_entries(R9, 0), True),  # absolute tolerances fail at this scale
    (_large_entries(C9, 1), True),
])
def test_jordan_form_approx_computes_one_spectrum(monkeypatch, target, exhausts):
    calls = {"charpoly": 0, "approx_roots": 0}

    def counted(name):
        inner = getattr(matrices_mod, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(matrices_mod, name, counted(name))
    if exhausts:
        with pytest.raises(VerificationFailed) as info:
            generalized_jordan_form(target)
        assert str(info.value) == ("no consistent eigenvalue clustering found: "
                                   "eigenvalue cluster radius escalation exhausted")
    else:
        gj = generalized_jordan_form(target)
        assert (gj.conjugator * target * gj.conjugator.inverse()).allclose(gj.realization)
    assert calls == {"charpoly": 1, "approx_roots": 1}


# ----------------------------------------------------------------------
# the enumeration of M_n(F_q)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("spec,n", [("Fp:2", 1), ("Fp:2", 2), ("Fp:3", 2),
                                    ("Fq:p=2,d=2,mod=[1,1,1]", 2), ("Fp:2", 3)])
def test_matrix_space_order_and_round_trip(spec, n):
    """Slot c of the digit planes holds the matrix of code c, and the runs
    of ``blocks`` concatenate to the whole-space planes."""
    field = parse_field_spec(spec)
    space = MatrixSpace(field, n)
    expected = list(all_matrices(field, n))
    planes = space.planes()
    assert len(expected) == MatrixSpace.cardinality(field, n) == space.size
    assert [len(P) for P in planes] == [space.size] * (n * n)
    assert list(space.codes(planes)) == list(range(space.size))
    reps = [x.rep for x in enumerate_elements(field)]
    for code, M in enumerate(expected):
        rows = [[reps[planes[i * n + j][code]] for j in range(n)] for i in range(n)]
        assert M.reps == tuple(map(tuple, rows))
        assert space.rows_at(code) == rows
        assert space.matrix_at(code) == M
    for limit in range(1, space.size + 1, 3):
        runs = list(space.blocks(limit))
        assert [b"".join(run[t] for run in runs) for t in range(n * n)] == planes


def test_matrix_space_refuses_fields_over_one_byte():
    """Planes hold one byte per entry: F_256 is the largest field a space
    takes, and F_257 is refused even at n = 1."""
    assert MatrixSpace(parse_field_spec("Fq:p=2,d=8,mod=[1,0,1,1,1,0,0,0,1]"), 1).q == 256
    with pytest.raises(TooLarge):
        MatrixSpace(parse_field_spec("Fp:257"), 1)


@pytest.mark.parametrize("n", [0, -2, 1.5, "2"])
def test_matrix_space_needs_a_positive_int_size(n):
    with pytest.raises(UsageError):
        MatrixSpace(F2, n)
    with pytest.raises(UsageError):
        MatrixSpace.cardinality(F2, n)


# one field per way the byte planes combine two planes: digit pairs in one
# byte (q <= 16) and one masked translate per digit (16 < q <= 256)
PLANE_CELLS = [("Fp:2", 3), ("Fq:p=3,d=2,mod=[2,2,1]", 2), ("Fp:17", 2),
               ("Fq:p=5,d=2,mod=[2,1,1]", 2)]


@pytest.mark.parametrize("spec,n", PLANE_CELLS, ids=[f"{s}-{n}" for s, n in PLANE_CELLS])
def test_matrix_space_kernel_matches_matrix_arithmetic(spec, n):
    """Sums, products, powers, constants and linear combinations on the
    planes of seeded code samples, against Matrix arithmetic."""
    field = parse_field_spec(spec)
    space = MatrixSpace(field, n)
    rng = random.Random(16)
    xs = [rng.randrange(space.size) for _ in range(40)]
    ys = [rng.randrange(space.size) for _ in range(40)]
    whole = space.planes()
    X, Y = space.select(whole, xs), space.select(whole, ys)
    mats = lambda planes: [space.matrix_at(c) for c in space.codes(planes)]
    Xs, Ys = mats(X), mats(Y)
    assert Xs == [space.matrix_at(x) for x in xs]
    assert mats(space.matmul(X, Y)) == [A * B for A, B in zip(Xs, Ys)]
    assert mats([space.add(P, Q) for P, Q in zip(X, Y)]) == [A + B for A, B in zip(Xs, Ys)]
    assert mats(space.power(X, 5)) == [A ** 5 for A in Xs]
    elems = list(enumerate_elements(field))
    c, d = rng.randrange(space.q), rng.randrange(space.q)
    assert mats([space.scale(P, c) for P in X]) == [A.scale(elems[c]) for A in Xs]
    shifted = [space.shift(P, c) for P in X]
    assert mats(shifted) == [A + Matrix.from_rows(field, [[elems[c]] * n] * n) for A in Xs]
    combo = [space.lincomb([(c, P), (d, Q), (space.zero, P)], len(xs)) for P, Q in zip(X, Y)]
    assert mats(combo) == [A.scale(elems[c]) + B.scale(elems[d]) for A, B in zip(Xs, Ys)]
