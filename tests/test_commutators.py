import hashlib
import itertools
import random

import pytest

from wordmap.commutators import (
    TraceZeroPair,
    _factorization_tasks,
    _zero_diag_commutator,
    _zero_diagonalize,
    companion_trace_zero,
    diagonal_trace_zero,
    factor_two_trace_zero,
    jordan_block_trace_zero,
    jordan_plus_scalar_trace_zero,
    solve_commutator_product,
    trace_zero_to_commutator,
    two_by_two_trace_zero,
)
from wordmap.errors import NonzeroTrace, UnhandledShape, Unsupported, WordmapError
from wordmap.fields import Field, GF, GenericKernel, extend, parse_field_spec
from wordmap.matrices import Matrix, generalized_jordan_form
from wordmap.polynomials import Poly
from wordmap.words import CommutatorProduct, eval_word

from oracles import all_matrices, random_invertible, random_matrix

F2 = Field("prime", p=2)
F3 = Field("prime", p=3)
F5 = Field("prime", p=5)
F7 = Field("prime", p=7)
F101 = Field("prime", p=101)
Q = Field("rationals")


def check(pair: TraceZeroPair):
    assert pair.t1.trace().is_zero() and pair.t2.trace().is_zero()
    assert pair.t1 * pair.t2 == pair.target


# -- the three 2x2 displays ------------------------------------------------

def test_2x2_diagonal_identity_random():
    rng = random.Random(0)
    for _ in range(100):
        a, b = F101(rng.randrange(101)), F101(rng.randrange(101))
        lhs = Matrix.diagonal(F101, [a, b])
        t1 = Matrix.from_rows(F101, [[0, a.rep], [1, 0]])
        t2 = Matrix.from_rows(F101, [[0, b.rep], [1, 0]])
        assert t1 * t2 == lhs and t1.trace().is_zero() and t2.trace().is_zero()
        check(two_by_two_trace_zero(lhs))


def test_2x2_jordan_identity_random():
    rng = random.Random(1)
    for _ in range(100):
        a = F101(rng.randrange(101))
        lhs = Matrix(F101, [[a, F101(1)], [F101(0), a]])
        t1 = Matrix.diagonal(F101, [1, -1])
        t2 = Matrix(F101, [[a, F101(1)], [F101(0), -a]])
        assert t1 * t2 == lhs
        check(two_by_two_trace_zero(lhs))


def test_2x2_companion_identity_random():
    rng = random.Random(2)
    one = F101.one()
    for _ in range(100):
        a = F101(rng.randrange(101))
        b = F101(rng.randrange(1, 101))
        lhs = Matrix(F101, [[F101(0), b], [one, a]])
        t1 = Matrix(F101, [[a, -b], [one + a * a / b, -a]])
        t2 = Matrix(F101, [[one, F101(0)], [a / b, -one]])
        assert t1 * t2 == lhs and t1.trace().is_zero() and t2.trace().is_zero()
        check(two_by_two_trace_zero(lhs))


def test_2x2_rejects_noncanonical():
    with pytest.raises(UnhandledShape):
        two_by_two_trace_zero(Matrix.from_rows(F5, [[1, 2], [3, 4]]))


# -- Jordan blocks, diagonals, companion displays ---------------------------

def test_jordan_block_even_identity():
    # diag(1,-1,...) times the signed bidiagonal reproduces J exactly
    alpha = F5(1)
    pair = jordan_block_trace_zero(alpha, 4)
    check(pair)
    assert pair.t1 == Matrix.diagonal(F5, [1, -1, 1, -1])
    assert pair.target == Matrix.jordan_block(alpha, 4)


def test_jordan_block_odd_cyclic():
    pair = jordan_block_trace_zero(F7(2), 3)
    check(pair)
    assert pair.target == Matrix.jordan_block(F7(2), 3)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_jordan_block_sizes(n):
    for field, val in ((F5, 2), (Q, 3), (F2, 1), (F2, 0)):
        check(jordan_block_trace_zero(field(val), n))


def test_diagonal_identities():
    # the 2x2 swap pair and the 3x3 closing formula
    a1, a2 = F7(3), F7(6)
    t1 = Matrix.from_rows(F7, [[0, 1], [1, 0]])
    t2 = Matrix(F7, [[F7(0), a1], [a2, F7(0)]])
    assert t1 * t2 == Matrix.diagonal(F7, [a2, a1])  # swapped order, verified literally
    check(diagonal_trace_zero([a1, a2]))
    a1, a2, a3 = F7(1), F7(2), F7(3)
    t1 = Matrix(F7, [[F7(0), a3, F7(0)], [-a1, a3, F7(0)], [F7(0), F7(0), -a3]])
    t2 = Matrix(F7, [[F7(1), -(a2 / a1), F7(0)],
                     [a1 / a3, F7(0), F7(0)], [F7(0), F7(0), F7(-1)]])
    assert t1 * t2 == Matrix.diagonal(F7, [a1, a2, a3])
    check(diagonal_trace_zero([a1, a2, a3]))


def test_diagonal_zero_handling():
    check(diagonal_trace_zero([F7(0), F7(0)]))
    check(diagonal_trace_zero([F7(5), F7(0), F7(0)]))
    check(diagonal_trace_zero([F7(0), F7(0), F7(0), F7(0), F7(0)]))
    check(diagonal_trace_zero([F7(1), F7(0), F7(2), F7(0), F7(5)]))
    check(diagonal_trace_zero([F2(1), F2(1), F2(1)]))


# SHA-256 of repr((t1, t2)) for the inputs above and two all-nonzero
# diagonals, recorded before the block layout was rewritten
DIAGONAL_GOLDEN = [
    (F7, [0, 0], "438a1d332bdf33eea3a217dc56ca1857a17463f337a375a0d755a8563a66f0d0"),
    (F7, [5, 0, 0], "2343d94f45aedc24c0fdb20a73baff45367f35c4535ebae446e1b2059faca180"),
    (F7, [0, 0, 0, 0, 0], "1f265737e40850e19f9d30cac95ca87d04bdb86fea649c033133ea31a67c0b6f"),
    (F7, [1, 0, 2, 0, 5], "1cfc6fa1d71801279b314aa6999f028a8aa1c9bae655d7af1acafd3e6884bc82"),
    (F2, [1, 1, 1], "e1d0156b86299e0eed94b9193c926b3916a0dca20fd45c7f6bf1937420eb7e1e"),
    (F7, [1, 2], "f8c2a2e1ee8e07d489e10461a8a18d984bb5afde1b92a50a2492434c404b8530"),
    (F7, [1, 2, 3], "8b6785471fff59609f7f83bad6c8cb33d4936c6f4e57a7896f9129b37e1a5447"),
]


@pytest.mark.parametrize("field,entries,digest", DIAGONAL_GOLDEN)
def test_diagonal_trace_zero_is_pinned(field, entries, digest):
    pair = diagonal_trace_zero([field(v) for v in entries])
    assert hashlib.sha256(repr((pair.t1, pair.t2)).encode()).hexdigest() == digest


def test_jordan_plus_scalar_cases():
    check(jordan_plus_scalar_trace_zero(F3(0), 2, F3(1)))
    check(jordan_plus_scalar_trace_zero(F3(0), 2, F3(0)))
    check(jordan_plus_scalar_trace_zero(F7(1), 3, F7(2)))
    check(jordan_plus_scalar_trace_zero(F5(2), 4, F5(3)))
    check(jordan_plus_scalar_trace_zero(Q(2), 5, Q(-7)))
    check(jordan_plus_scalar_trace_zero(F2(1), 2, F2(1)))


@pytest.mark.parametrize("field,coeffs", [
    ("F7", [0, 0, 0, 1]),
    ("F5", [-1, 0, 0, 1]),
    ("F7", [1, 2, 0, 1]),
    ("Q", [2, 3, 4, 1]),
    ("Q", [1, 1, 1, 1, 1]),
    ("F7", [1, 2, 3, 4, 5, 1]),
    ("F2", [1, 1, 0, 0, 1]),
])
def test_companion_identities(field, coeffs):
    fobj = {"F7": F7, "F5": F5, "Q": Q, "F2": F2}[field]
    check(companion_trace_zero(Poly(fobj, coeffs)))


# -- the full dispatcher ------------------------------------------------------

def test_factor_two_exhaustive_f3():
    for A in all_matrices(F3, 2):
        check(factor_two_trace_zero(A))


def test_factor_two_zero_matrix():
    pair = factor_two_trace_zero(Matrix.zeros(F3, 3, 3))
    assert pair.t1.is_zero() and pair.t2.is_zero()


def test_factor_two_companion_f2():
    A = Matrix.companion(Poly(F2, [1, 1, 0, 0, 1]))
    check(factor_two_trace_zero(A))


def test_factor_two_merge_and_groupings():
    # isolated scalar + quadratic factor (coprime companion merge)
    A = Matrix.block_diag(F7, [Matrix.diagonal(F7, [5]),
                               Matrix.companion(Poly(F7, [1, 0, 1]))])
    check(factor_two_trace_zero(A))
    # scalar absorbed into a Jordan block
    A = Matrix.block_diag(F7, [Matrix.jordan_block(F7(3), 2),
                               Matrix.diagonal(F7, [4])])
    check(factor_two_trace_zero(A))
    # extension-scalar pairs: two copies of the same quadratic factor
    A = Matrix.block_diag(F5, [Matrix.companion(Poly(F5, [2, 0, 1]))] * 2)
    check(factor_two_trace_zero(A))
    # scalar merged with a bigger extension block
    A = Matrix.block_diag(F7, [Matrix.diagonal(F7, [5]),
                               Matrix.generalized_jordan_block(Poly(F7, [1, 0, 1]), 2)])
    check(factor_two_trace_zero(A))


def test_factor_two_random_f101_and_q():
    rng = random.Random(77)
    for _ in range(30):
        n = rng.randrange(2, 6)
        check(factor_two_trace_zero(random_matrix(F101, n, rng)))
    for _ in range(5):
        A = Matrix.from_rows(Q, [[rng.randrange(-3, 4) for _ in range(3)]
                                 for _ in range(3)])
        check(factor_two_trace_zero(A))


# -- single commutators -------------------------------------------------------

def test_commutator_swap_example():
    T = Matrix.from_rows(F3, [[0, 1], [1, 0]])
    X, Y = trace_zero_to_commutator(T)
    assert X * Y - Y * X == T


def test_commutator_scalar_char_divides_n():
    T = Matrix.identity(F2, 2)
    X, Y = trace_zero_to_commutator(T)
    assert X * Y - Y * X == T
    assert X == Matrix.from_rows(F2, [[0, 1], [1, 0]])
    assert Y == Matrix.from_rows(F2, [[0, 1], [0, 0]])
    T = Matrix.identity(F3, 3).scale(F3(2))
    X, Y = trace_zero_to_commutator(T)
    assert X * Y - Y * X == T


def test_commutator_zero():
    X, Y = trace_zero_to_commutator(Matrix.zeros(F3, 2, 2))
    assert X.is_zero() and Y.is_zero()


def test_commutator_rejects_nonzero_trace():
    with pytest.raises(NonzeroTrace):
        trace_zero_to_commutator(Matrix.identity(F5, 2))


def test_commutator_exhaustive_trace_zero_f2_f3():
    for field in (F2, F3):
        for T in all_matrices(field, 2):
            if not T.trace().is_zero():
                continue
            X, Y = trace_zero_to_commutator(T)
            assert X * Y - Y * X == T


def test_commutator_random_f101():
    rng = random.Random(8)
    for _ in range(20):
        n = rng.randrange(2, 6)
        T = random_matrix(F101, n, rng)
        # project to trace zero by fixing one diagonal entry
        rows = [list(r) for r in T.rows]
        rows[0][0] = rows[0][0] - T.trace()
        T = Matrix(F101, rows)
        X, Y = trace_zero_to_commutator(T)
        assert X * Y - Y * X == T


# -- products of commutators ---------------------------------------------------

def test_solve_m2_diag():
    A = Matrix.from_rows(Q, [[1, 0], [0, -1]])
    w = solve_commutator_product(A, 2)
    assert eval_word(CommutatorProduct(2), w.matrices) == A


def test_solve_m2_nonzero_trace_rejected():
    with pytest.raises(NonzeroTrace):
        solve_commutator_product(Matrix.identity(Q, 2), 2)


def test_solve_m4_exhaustive_f2():
    for A in all_matrices(F2, 2):
        w = solve_commutator_product(A, 4)
        assert eval_word(CommutatorProduct(4), w.matrices) == A


def test_solve_m6():
    A = Matrix.jordan_block(F5(2), 3)
    w = solve_commutator_product(A, 6)
    assert eval_word(CommutatorProduct(6), w.matrices) == A


def test_solve_conjugation_covariance():
    # witnesses of A and P A P^-1 differ by one common conjugation
    rng = random.Random(13)
    from oracles import random_invertible

    A = random_matrix(F101, 3, rng)
    P = random_invertible(F101, 3, rng)
    B = P * A * P.inverse()
    wa = solve_commutator_product(A, 4, seed=5)
    wb = solve_commutator_product(B, 4, seed=5)
    Ga, Gb = wa.conjugators[0], wb.conjugators[0]
    Qc = Gb.inverse() * Ga
    for xa, xb in zip(wa.matrices, wb.matrices):
        assert Qc * xa * Qc.inverse() == xb


def test_commutator_small_field_large_matrix():
    # |K| < n: the distinct-diagonal route is unavailable; component
    # splitting and the cyclic-candidate fallback must cover it
    rng = random.Random(3)
    F5 = Field("prime", p=5)
    for _ in range(3):
        rows = [[rng.randrange(5) for _ in range(6)] for _ in range(6)]
        A = Matrix.from_rows(F5, rows)
        w = solve_commutator_product(A, 4, seed=1)
        assert eval_word(CommutatorProduct(4), w.matrices) == A


def test_commutator_component_split():
    # block-diagonal trace-zero-per-block target over a tiny field
    F2 = Field("prime", p=2)
    blocks = [Matrix.from_rows(F2, [[0, 1], [1, 0]]),
              Matrix.from_rows(F2, [[1, 1], [0, 1]]),
              Matrix.from_rows(F2, [[0, 1], [0, 0]])]
    T = Matrix.block_diag(F2, blocks)
    X, Y = trace_zero_to_commutator(T)
    assert X * Y - Y * X == T


# SHA-256 of repr((X, Y)) for the F_4 target below, recorded before the
# zero-diagonal route moved onto the kernel's raw rows
STUCK_F4_DIGEST = "e04c3a89be8a930b6be0fe4a0ac78300cede1b66e111973bca18c07e1517d39b"


def test_stuck_zero_diagonal_falls_back_to_the_linear_search(monkeypatch):
    # over F_4, the merges of diag(1+t, 0, 1+t) cycle, so the shears stop
    # once Z repeats a state rather than at the end of the budget; over R,
    # diagonal entries 1e-12 apart give a merge shear whose coupling is
    # within the tolerance
    F4 = parse_field_spec("Fq:p=2,d=2,mod=[1,1,1]")
    T = Matrix(F4, [[F4(e) for e in row] for row in
                    [[[1, 1], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]],
                     [[0, 0], [0, 0], [1, 1]]]])
    assert _zero_diag_commutator(T) is None
    conjugating = []
    shear = GenericKernel.shear

    def counted(self, rows, r, s, c, conjugate=True):
        conjugating.append(conjugate)
        return shear(self, rows, r, s, c, conjugate)

    monkeypatch.setattr(GenericKernel, "shear", counted)
    X, Y = trace_zero_to_commutator(T)
    monkeypatch.undo()
    assert 0 < conjugating.count(True) <= 4
    assert X * Y - Y * X == T
    assert hashlib.sha256(repr((X, Y)).encode()).hexdigest() == STUCK_F4_DIGEST
    R = Field("real", tolerance=1e-9)
    T = Matrix.diagonal(R, [1.0, 1.0 + 1e-12, -2.0])
    assert _zero_diag_commutator(T) is None
    X, Y = trace_zero_to_commutator(T)
    assert (X * Y - Y * X).allclose(T)


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_near_scalar_targets_in_characteristic_zero_get_a_commutator(kind):
    # T is within the tolerance of c*I but is no scalar; a trace-zero scalar
    # is zero in characteristic 0, so the scalar route, whose formula needs
    # char | n, is not taken, and the other routes answer
    field = Field(kind, tolerance=1e-9)
    T = Matrix.diagonal(field, [1e-10, 1.1e-9, -9e-10])
    X, Y = trace_zero_to_commutator(T)
    assert (X * Y - Y * X).allclose(T)
    w = solve_commutator_product(T, 2)
    assert eval_word(w.word, w.matrices).allclose(T)


def test_factor_two_repeated_extension_factor_tower():
    # over F_4 a repeated irreducible quadratic factor forces a field tower
    import itertools
    from wordmap.factor import is_irreducible
    from wordmap.fields import enumerate_elements

    F4 = GF(4)
    for c0, c1 in itertools.product(list(enumerate_elements(F4)), repeat=2):
        p = Poly(F4, [c0, c1, F4.one()])
        if is_irreducible(p):
            break
    A = Matrix.generalized_jordan_block(p, 2)
    check(factor_two_trace_zero(A))
    B = Matrix.block_diag(F4, [Matrix.companion(p)] * 2)
    check(factor_two_trace_zero(B))


def test_factorization_tasks_hand_back_the_inverse_of_their_conjugator():
    # every task kind: Jordan, Jordan-plus-scalar, diagonal, companion and
    # the companion merge of a lone scalar with an extension block (whose
    # cyclic basis is R^-1), with and without a Jordan conjugator
    F3 = Field("prime", p=3)
    rng = random.Random(11)
    targets = [random_matrix(F101, n, rng) for n in (3, 5, 8)]
    for field, parts in ((F3, [([1, 1], 2), ([2, 1], 1), ([1, 0, 1], 1)]),
                         (F3, [([0, 1], 1), ([1, 0, 1], 2), ([1, 0, 1], 1)]),
                         (F101, [([5, 1], 3), ([7, 1], 1), ([7, 1], 1), ([1, 1, 0, 1], 1)])):
        J = Matrix.block_diag(field, [Matrix.generalized_jordan_block(Poly(field, c), l)
                                      for c, l in parts])
        S = random_invertible(field, J.nrows, rng)
        targets += [J, S * J * S.inverse()]
    for A in targets:
        _, G, Gi = _factorization_tasks(A)
        assert Gi == G.inverse()
        jf = generalized_jordan_form(A)
        _, G, Gi = _factorization_tasks(jf.realization, jf.blocks)
        assert Gi == G.inverse()
    R = Field("real", tolerance=1e-9)
    assert _factorization_tasks(random_matrix(R, 4, rng))[2] is None


def _trace_zero(field, rows):
    rows = [[field(x) for x in row] for row in rows]
    rows[-1][-1] = rows[-1][-1] - Matrix(field, rows).trace()
    return Matrix(field, rows)


def test_zero_diagonalize_builds_the_inverse_alongside():
    rng = random.Random(12)
    checked = 0
    for field in (F5, F101, Q, GF(9)):
        for n in range(2, 7):
            T = _trace_zero(field, [[rng.randrange(5) for _ in range(n)] for _ in range(n)])
            res = _zero_diagonalize(T)
            if res is not None:
                S, Si, Z = res
                assert Matrix._from_raw(field, Si) == Matrix._from_raw(field, S).inverse()
                checked += 1
    assert checked >= 15
    R = Field("real", tolerance=1e-9)
    assert _zero_diagonalize(_trace_zero(R, [[1, 2, 0], [3, -1, 1], [0, 1, 5]]))[1] is None


# a real 2x2 target whose computed eigenvalue misses the spectrum by more
# than the pivot tolerance, so the eigenvector nullspace comes back empty
MISSED_EIGENVALUE_2X2 = [[-5279.038, -7936.679], [-2078.835, -6900.555]]


def test_empty_eigenvector_nullspace_raises_verification_failed():
    from wordmap.errors import VerificationFailed

    R = Field("real", tolerance=1e-9)
    A = Matrix.from_rows(R, MISSED_EIGENVALUE_2X2)
    with pytest.raises(VerificationFailed, match="no eigenvector"):
        solve_commutator_product(A, 4, seed=0)


@pytest.mark.parametrize("sizes", [(1, 1), (2, 1)], ids=["C+C", "J2+C"])
def test_real_repeated_complex_pair(sizes):
    # S (C(x^2+1) + C(x^2+1)) S^-1 (n = 4) and S (J_{x^2+1,2} + C(x^2+1)) S^-1
    # (n = 6) over R: the planner solves the factor's blocks over C with a
    # chosen root and lifts them back to real 2x2 blocks
    R = Field("real", tolerance=1e-9)
    p = Poly(R, [1, 0, 1])
    J = Matrix.block_diag(R, [Matrix.generalized_jordan_block(p, l) for l in sizes])
    n = J.nrows
    rng = random.Random(0)
    while True:
        S = Matrix(R, [[R(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)])
        try:
            A = S * J * S.inverse()
            generalized_jordan_form(A)
            break
        except WordmapError:
            continue
    w = solve_commutator_product(A, 4)
    assert eval_word(CommutatorProduct(4), w.matrices).allclose(A)
    pair = factor_two_trace_zero(A)
    assert (pair.t1 * pair.t2).allclose(A)
    assert pair.t1.trace().is_zero() and pair.t2.trace().is_zero()


def _two_multiplicity_q_target():
    """companion(x^2+1) + J_{x^2+x+1,2} over Q: charpoly (x^2+1)(x^2+x+1)^2,
    repeated factors that are no perfect power."""
    Q = Field("rationals")
    return Matrix.block_diag(Q, [Matrix.companion(Poly(Q, [1, 0, 1])),
                                 Matrix.generalized_jordan_block(Poly(Q, [1, 1, 1]), 2)])


def test_m4_over_q_with_factors_of_two_multiplicities():
    J = _two_multiplicity_q_target()
    S = Matrix.from_rows(J.field, [[1 if j >= i else 0 for j in range(6)] for i in range(6)])
    S = S * Matrix.from_rows(J.field, [[2 if i == j + 1 else int(i == j) for j in range(6)]
                                       for i in range(6)])
    for A in (J, S * J * S.inverse()):
        w = solve_commutator_product(A, 4, seed=0)
        assert eval_word(CommutatorProduct(4), w.matrices) == A


def test_cli_m4_over_q_with_factors_of_two_multiplicities(capsys):
    import json

    from wordmap.cli import main

    A = _two_multiplicity_q_target()
    entries = [[str(x.rep) for x in row] for row in A.rows]
    code = main(["solve", "--field", "Q", "--word", "comm:m=4", "--matrix",
                 json.dumps({"rows": 6, "cols": 6, "entries": entries})])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["verified"] is True
