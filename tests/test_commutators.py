import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wordmap.commutators as commutators_mod
from wordmap.commutators import (
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
from wordmap.errors import (
    NonzeroTrace,
    UnhandledShape,
    Unsupported,
    WitnessNotFound,
    WordmapError,
)
from wordmap.fields import (
    Field,
    GF,
    GenericKernel,
    PrimeKernel,
    extend,
    parse_field_spec,
    random_element,
)
from wordmap.matrices import Matrix, generalized_jordan_form
from wordmap.polynomials import Poly
from wordmap.words import CommutatorProduct, eval_word

from oracles import all_matrices, product_loop_moments_vanish, random_invertible, random_matrix

F2 = Field("prime", p=2)
F3 = Field("prime", p=3)
F5 = Field("prime", p=5)
F7 = Field("prime", p=7)
F101 = Field("prime", p=101)
Q = Field("rationals")
R = Field("real", tolerance=1e-9)
C = Field("complex", tolerance=1e-9)


def check(pair, target: Matrix):
    """``pair`` is two trace-zero matrices whose product is ``target``."""
    t1, t2 = pair
    assert t1.trace().is_zero() and t2.trace().is_zero()
    assert t1 * t2 == target


# -- the three 2x2 displays ------------------------------------------------

def test_2x2_diagonal_identity_random():
    rng = random.Random(0)
    for _ in range(100):
        a, b = F101(rng.randrange(101)), F101(rng.randrange(101))
        lhs = Matrix.diagonal(F101, [a, b])
        t1 = Matrix.from_rows(F101, [[0, a.rep], [1, 0]])
        t2 = Matrix.from_rows(F101, [[0, b.rep], [1, 0]])
        assert t1 * t2 == lhs and t1.trace().is_zero() and t2.trace().is_zero()
        check(two_by_two_trace_zero(lhs), lhs)


def test_2x2_jordan_identity_random():
    rng = random.Random(1)
    for _ in range(100):
        a = F101(rng.randrange(101))
        lhs = Matrix(F101, [[a, F101(1)], [F101(0), a]])
        t1 = Matrix.diagonal(F101, [1, -1])
        t2 = Matrix(F101, [[a, F101(1)], [F101(0), -a]])
        assert t1 * t2 == lhs
        check(two_by_two_trace_zero(lhs), lhs)


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
        check(two_by_two_trace_zero(lhs), lhs)


def test_2x2_rejects_noncanonical():
    with pytest.raises(UnhandledShape):
        two_by_two_trace_zero(Matrix.from_rows(F5, [[1, 2], [3, 4]]))


# -- Jordan blocks, diagonals, companion displays ---------------------------

def test_jordan_block_even_identity():
    # diag(1,-1,...) times the signed bidiagonal reproduces J exactly
    alpha = F5(1)
    t1, t2 = jordan_block_trace_zero(alpha, 4)
    check((t1, t2), Matrix.jordan_block(alpha, 4))
    assert t1 == Matrix.diagonal(F5, [1, -1, 1, -1])


def test_jordan_block_odd_cyclic():
    check(jordan_block_trace_zero(F7(2), 3), Matrix.jordan_block(F7(2), 3))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_jordan_block_sizes(n):
    for field, val in ((F5, 2), (Q, 3), (F2, 1), (F2, 0)):
        check(jordan_block_trace_zero(field(val), n), Matrix.jordan_block(field(val), n))


def test_diagonal_identities():
    # the 2x2 swap pair and the 3x3 closing formula
    a1, a2 = F7(3), F7(6)
    t1 = Matrix.from_rows(F7, [[0, 1], [1, 0]])
    t2 = Matrix(F7, [[F7(0), a1], [a2, F7(0)]])
    assert t1 * t2 == Matrix.diagonal(F7, [a2, a1])  # swapped order, verified literally
    check(diagonal_trace_zero([a1, a2]), Matrix.diagonal(F7, [a1, a2]))
    a1, a2, a3 = F7(1), F7(2), F7(3)
    t1 = Matrix(F7, [[F7(0), a3, F7(0)], [-a1, a3, F7(0)], [F7(0), F7(0), -a3]])
    t2 = Matrix(F7, [[F7(1), -(a2 / a1), F7(0)],
                     [a1 / a3, F7(0), F7(0)], [F7(0), F7(0), F7(-1)]])
    assert t1 * t2 == Matrix.diagonal(F7, [a1, a2, a3])
    check(diagonal_trace_zero([a1, a2, a3]), Matrix.diagonal(F7, [a1, a2, a3]))


def test_diagonal_zero_handling():
    for field, values in ((F7, [0, 0]), (F7, [5, 0, 0]), (F7, [0, 0, 0, 0, 0]),
                          (F7, [1, 0, 2, 0, 5]), (F2, [1, 1, 1])):
        entries = [field(v) for v in values]
        check(diagonal_trace_zero(entries), Matrix.diagonal(field, entries))


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
    t1, t2 = diagonal_trace_zero([field(v) for v in entries])
    assert hashlib.sha256(repr((t1, t2)).encode()).hexdigest() == digest


def test_jordan_plus_scalar_cases():
    for alpha, n, beta in ((F3(0), 2, F3(1)), (F3(0), 2, F3(0)), (F7(1), 3, F7(2)),
                           (F5(2), 4, F5(3)), (Q(2), 5, Q(-7)), (F2(1), 2, F2(1))):
        target = Matrix.block_diag(alpha.field, [Matrix.jordan_block(alpha, n),
                                                 Matrix.diagonal(alpha.field, [beta])])
        check(jordan_plus_scalar_trace_zero(alpha, n, beta), target)


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
    p = Poly(fobj, coeffs)
    check(companion_trace_zero(p), Matrix.companion(p))


# -- the full dispatcher ------------------------------------------------------

def test_factor_two_exhaustive_f3():
    for A in all_matrices(F3, 2):
        check(factor_two_trace_zero(A), A)


def test_factor_two_zero_matrix():
    pair = factor_two_trace_zero(Matrix.zeros(F3, 3, 3))
    assert pair.t1.is_zero() and pair.t2.is_zero()


def test_factor_two_companion_f2():
    A = Matrix.companion(Poly(F2, [1, 1, 0, 0, 1]))
    check(factor_two_trace_zero(A), A)


def test_factor_two_merge_and_groupings():
    # isolated scalar + quadratic factor (coprime companion merge)
    A = Matrix.block_diag(F7, [Matrix.diagonal(F7, [5]),
                               Matrix.companion(Poly(F7, [1, 0, 1]))])
    check(factor_two_trace_zero(A), A)
    # scalar absorbed into a Jordan block
    A = Matrix.block_diag(F7, [Matrix.jordan_block(F7(3), 2),
                               Matrix.diagonal(F7, [4])])
    check(factor_two_trace_zero(A), A)
    # extension-scalar pairs: two copies of the same quadratic factor
    A = Matrix.block_diag(F5, [Matrix.companion(Poly(F5, [2, 0, 1]))] * 2)
    check(factor_two_trace_zero(A), A)
    # scalar merged with a bigger extension block
    A = Matrix.block_diag(F7, [Matrix.diagonal(F7, [5]),
                               Matrix.generalized_jordan_block(Poly(F7, [1, 0, 1]), 2)])
    check(factor_two_trace_zero(A), A)


def test_factor_two_random_f101_and_q():
    rng = random.Random(77)
    for _ in range(30):
        n = rng.randrange(2, 6)
        A = random_matrix(F101, n, rng)
        check(factor_two_trace_zero(A), A)
    for _ in range(5):
        A = Matrix.from_rows(Q, [[rng.randrange(-3, 4) for _ in range(3)]
                                 for _ in range(3)])
        check(factor_two_trace_zero(A), A)


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


@pytest.mark.parametrize("m", [6, 8])
@pytest.mark.parametrize("field", [F5, Q, R], ids=["F5", "Q", "R"])
def test_one_by_one_targets_answer_at_every_m_as_at_m_4(field, m):
    # every 1x1 commutator is zero: [[0]] has the all-zero witness, and a
    # nonzero scalar gets m = 4's Unsupported
    zero = Matrix.zeros(field, 1, 1)
    w = solve_commutator_product(zero, m)
    assert w.matrices == (zero,) * m
    assert w.conjugators == solve_commutator_product(zero, 4).conjugators
    scalar = Matrix.diagonal(field, [field(3)])
    with pytest.raises(Unsupported) as at_4:
        solve_commutator_product(scalar, 4)
    with pytest.raises(Unsupported) as at_m:
        solve_commutator_product(scalar, m)
    assert str(at_m.value) == str(at_4.value)


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


def target(field, n, rng):
    """A random n x n matrix, with entries in -5..5 over Q."""
    if field is Q:
        return Matrix.from_rows(Q, [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(n)])
    return random_matrix(field, n, rng)


def char0_target(field, n, rng):
    """The char0 benchmark's entry law over R: magnitudes log-uniform over
    1e-2..1e4 with random signs, and about a quarter of the entries -0.0."""
    return Matrix.from_rows(field, [[-0.0 if rng.random() < 0.25 else
                                     rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-2.0, 4.0)
                                     for _ in range(n)] for _ in range(n)])


# SHA-256 of the witness matrices' reps for the seed-1 solves below, the
# target drawn by ``draw`` from random.Random(target seed); the first eight
# recorded when the peel pair was solved by trace_zero_to_commutator on
# every call, the C and char0 rows while R and C still solved it by the
# routes and formed its products densely, and the n = 8 row while R still
# multiplied the closed-form pair by G = I densely
PEEL_GOLDEN = [
    (F2, 4, 6, target, 4, "5e84931cb2784c04ed60cd59abe959bd706a407946425bf84c52fbd8b5ee1782"),
    (F2, 4, 8, target, 4, "e1ae5c94150c99eacf483a2d59cbee42da40969e50f8b3cba0938a9cc59a5fe6"),
    (F101, 7, 6, target, 7, "baf5ae735b426527f1d9259db6f16eaf272670fdb42bf668cf7535bf63040f95"),
    (F101, 7, 8, target, 7, "5c2dd354c103637dfa4d02221d9edc51e03ae1ce395b385e1189b64d56bdb652"),
    (Q, 5, 6, target, 5, "3627eda3b1cc00663f13db8715e8424e6fd8a0347ee798b3e1b8264a12b127d3"),
    (Q, 5, 8, target, 5, "1aeedb90285d6f063504a280e088bc092cdef18d5c437ac72aa6076fe7c15716"),
    (R, 4, 6, target, 4, "09e98153177b7ff7bbf6836bd946506c1097b81fabbb27cb307218af823a8177"),
    (R, 4, 8, target, 4, "45895cb713a1ea4061c71a3b58e79d8cbb0d52c2082a33e0291a0fd3c06bef39"),
    (C, 4, 6, target, 4, "31b0fe02fb55641981d981d229e2717e005e66134bdb1492bf304ee3b1444136"),
    (C, 4, 8, target, 4, "aa2140844e1b4f7d5e9e2814d11dc91d09f876e4af6bd420dac88500828579ee"),
    (R, 3, 6, char0_target, 4, "f4f06b288ceb40c113fbdd4c66b679e78d14fd418009f34a9fe4d6c8a47c62ac"),
    (R, 3, 8, char0_target, 4, "38c8b62b6a7114cfd934e66d93a6e0a47c34c6857c8d8e209f67217e3689c064"),
    (R, 4, 6, char0_target, 38, "1053b389582d9070bb6482e666b4a604b6769ecfa12757bd071e5f9328ebc957"),
    (R, 4, 8, char0_target, 38, "5624d81fe30998b0ccb73c22d5a6a20c179e4088a49cf8a81b992feb5673d2c5"),
    (R, 8, 6, target, 8, "f0a83f4ffdbdf4c5f9bafb5811cd3f5c3b3e188efc4c644472331f3fd28af071"),
]


@pytest.mark.parametrize("field,n,m,draw,seed,digest", PEEL_GOLDEN, ids=[
    f"{f!r}-{'' if draw is target else 'char0-'}n={n}-m={m}"
    for f, n, m, draw, _, _ in PEEL_GOLDEN])
def test_the_peel_pair_keeps_its_witnesses(field, n, m, draw, seed, digest):
    """The m >= 6 peel's [X_U, Y_U] = U, in closed form over F_101, Q, R
    and C, and solved by the routes over F_2 at n = 4 (q < n), gives the
    witnesses it gave when it was solved by the gated single commutator
    (and, over R and C, formed by dense products), float bits included."""
    w = solve_commutator_product(draw(field, n, random.Random(seed)), m, 1)
    assert hashlib.sha256(repr([x.reps for x in w.matrices]).encode()).hexdigest() == digest


F9 = GF(9)
F13 = Field("prime", p=13)
SHIFT_PAIR_GRID = [(field, n) for field in (F101, F13, F7, F9, Q) for n in range(2, 13)
                   if not field.is_finite or field.cardinality >= n]


@pytest.mark.parametrize("field,n", SHIFT_PAIR_GRID,
                         ids=[f"{f!r}-n={n}" for f, n in SHIFT_PAIR_GRID])
def test_the_closed_form_shift_pair_is_the_gated_commutator(field, n):
    """Over exact kinds with q >= n, the peel's closed-form (X_U, Y_U) is
    the pair trace_zero_to_commutator gives for the cyclic shift, for every
    seed, reps equal."""
    U = Matrix.cyclic_shift(field, n)
    d, w = commutators_mod._shift_pair(field, n)
    pair = (Matrix.diagonal(field, [field.element(x) for x in d]),
            commutators_mod._weighted_shift(field, w))
    for seed in (0, 1, 7):
        assert [M.reps for M in pair] == [M.reps for M in trace_zero_to_commutator(U, seed)]


GATE_TARGETS = [(field, n, m) for field in (F101, Q, R) for n, m in ((4, 2), (4, 4), (5, 6))]


@pytest.mark.parametrize("field,n,m", GATE_TARGETS + [(F2, 4, 6)],
                         ids=[f"{f!r}-n={n}-m={m}" for f, n, m in GATE_TARGETS + [(F2, 4, 6)]])
def test_solve_commutator_product_checks_only_the_word(monkeypatch, field, n, m):
    """The product solver's single commutators (m = 2, the four inner
    factors and the m >= 6 peel, q < n over F_2 included) run the unchecked
    routes: with the gated entry point made to raise, every solve answers,
    and make_witness is the one check."""
    def gated(*args, **kwargs):
        raise AssertionError("solve_commutator_product called trace_zero_to_commutator")
    monkeypatch.setattr(commutators_mod, "trace_zero_to_commutator", gated)
    A = target(field, n, random.Random(3))
    if m == 2:
        A = A - Matrix.unit(field, n, 0, 0).scale(A.trace())
    w = solve_commutator_product(A, m, 1)
    assert eval_word(CommutatorProduct(m), w.matrices).allclose(A)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_peeled_solves_conjugate_the_gated_shift_commutator(data):
    """Over F_101 and Q every m = 4, 6, 8 solve answers, and for m >= 6 the
    first two witnesses are the gated trace_zero_to_commutator(U, seed),
    U the cyclic shift, conjugated by the target's Jordan conjugator."""
    field = data.draw(st.sampled_from([F101, Q]), label="field")
    n = data.draw(st.integers(2, 8), label="n")
    m = data.draw(st.sampled_from([4, 6, 8]), label="m")
    seed = data.draw(st.integers(0, 9), label="seed")
    entries = st.integers(0, 100) if field is F101 else st.integers(-5, 5)
    A = Matrix.from_rows(field, data.draw(st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n), label="A"))
    w = solve_commutator_product(A, m, seed)
    assert eval_word(CommutatorProduct(m), w.matrices) == A
    if m >= 6:
        G = (generalized_jordan_form(A).conjugator if not A.is_zero()
             else Matrix.identity(field, n))
        Gi = G.inverse()
        X, Y = trace_zero_to_commutator(Matrix.cyclic_shift(field, n), seed)
        assert w.matrices[:2] == (Matrix.product(Gi, X, G), Matrix.product(Gi, Y, G))


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
    check(factor_two_trace_zero(A), A)
    B = Matrix.block_diag(F4, [Matrix.companion(p)] * 2)
    check(factor_two_trace_zero(B), B)


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


# finite targets whose eigenvalue search overflows: over R chi is finite and
# its roots overflow, over C chi has the coefficient inf+nanj
OVERFLOW_TARGETS = [
    ("R:tol=1e-9", [[1e200, 1], [1, 1e-200]], "an eigenvalue estimate is not finite"),
    ("C:tol=1e-9", [[1e300, 2, 3], [4, 1e300, 6], [7, 8, 1e-300]],
     "the characteristic polynomial has a coefficient that is not finite"),
]


@pytest.mark.parametrize("spec,rows,message", OVERFLOW_TARGETS, ids=["R", "C"])
def test_overflow_in_the_eigenvalue_search_is_named(spec, rows, message):
    # the NaN roots of an overflowed search were once passed to the field,
    # which refused them as if the user had given them
    from wordmap.diagonal import solve_diagonal_word
    from wordmap.errors import VerificationFailed
    from wordmap.words import parse_word

    F = parse_field_spec(spec)
    A = Matrix.from_rows(F, rows)
    for solve in (lambda: generalized_jordan_form(A),
                  lambda: solve_commutator_product(A, 4, seed=0),
                  lambda: solve_diagonal_word(A, parse_word("diag:d=1,k=2;d=1,k=3", F))):
        with pytest.raises(VerificationFailed, match="floating-point overflow: " + message):
            solve()


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


def test_exact_reorderings_replace_dense_products(monkeypatch):
    # over exact kinds the conjugations by permutations and identities are
    # reorderings: the dense products made 49 (m = 4) and 69 (m = 6)
    # PrimeKernel products on this target.  With the single commutators
    # unchecked (make_witness checks the word) and the peel pair's
    # conjugation one product per matrix, they make 35 and 41
    rng = random.Random(7)
    A = Matrix.from_rows(F101, [[rng.randrange(101) for _ in range(8)] for _ in range(8)])
    calls = []
    matmul = PrimeKernel.matmul

    def counted(self, X, Y):
        calls.append(None)
        return matmul(self, X, Y)
    monkeypatch.setattr(PrimeKernel, "matmul", counted)
    for m, bound in ((4, 35), (6, 41)):
        calls.clear()
        solve_commutator_product(A, m)
        assert len(calls) <= bound, (m, len(calls))


@pytest.mark.parametrize("field", [F2, F3, GF(4), R], ids=repr)
def test_the_first_moment_precheck_keeps_every_decision(field):
    """On seeded candidate streams (cyclic companions and dense draws
    against trace-zero targets, a third of them commutators with the
    candidate), ``_moments_vanish`` accepts and rejects exactly the
    candidates the product loop does; R checks that the first moment
    keeps the product's float bits."""
    rng = random.Random(5)

    def draw(n):
        return Matrix(field, [[random_element(field, rng) for _ in range(n)]
                              for _ in range(n)])

    decisions = []
    for t in range(300):
        n = rng.randrange(2, 6)
        X = (Matrix.companion(Poly(field, [random_element(field, rng) for _ in range(n)]
                                   + [field.one()]))
             if t % 2 else draw(n))
        if t % 3 == 0:
            T = X.commutator(draw(n))
        else:
            T = draw(n)
            T = T - Matrix.diagonal(field, [field.zero()] * (n - 1) + [T.trace()])
        expected = product_loop_moments_vanish(X, T)
        assert commutators_mod._moments_vanish(X, T) == expected
        decisions.append(expected)
    assert 0 < decisions.count(True) < len(decisions)


def test_an_exhausted_commutator_chain_lists_its_three_routes(monkeypatch):
    """J_{0,3} over F_2: one support component, and F_2 has no three
    distinct diagonal values, so the first two routes decline at once; with
    every candidate's moment check failing, the linear search spends its
    tries and declines too.  WitnessNotFound keeps its message."""
    monkeypatch.setattr(commutators_mod, "_moments_vanish", lambda X, T: False)
    with pytest.raises(WitnessNotFound) as info:
        trace_zero_to_commutator(Matrix.jordan_block(F2(0), 3))
    assert str(info.value) == "no commutator witness found in the fallback family"
    assert info.value.routes == (("support components", None), ("zero diagonal", None),
                                 ("linear search", None))
