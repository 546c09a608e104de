import hashlib
import math
import os
import random
import subprocess
import sys

import pytest

import wordmap

from wordmap.diagonal import (
    EXHAUSTIVE_CAP,
    SMALL_INTEGERS,
    _power_sum_ratio,
    bordered_matrix,
    bordered_solve,
    invertible_jordan_decompose,
    junction_as_scaled_power,
    junction_matrix,
    large_nilpotent_decompose,
    nilpotent_power_partition,
    scalar_solution,
    scalar_two_solutions,
    small_nilpotent_decompose,
    solve_diagonal_word,
)
from wordmap.errors import (
    NotFound,
    SizeTooSmall,
    TooLarge,
    Unsupported,
    UsageError,
    WordmapError,
    ZeroLeadingCoordinate,
)
from wordmap.fields import (
    Field,
    extend,
    kth_roots,
    parse_field_spec,
    regular_solution_search,
)
from wordmap.matrices import (
    Matrix,
    MatrixSpace,
    Partition,
    charpoly,
    minpoly,
    nilpotent_partition,
)
from wordmap.polynomials import Poly
from wordmap.scalars import regular_solution_iter
from wordmap.words import DiagonalWord, eval_word

from oracles import (
    all_matrices,
    bordered_charpoly_closed_form,
    charpoly_cofactor,
    naive_power,
    random_matrix,
)

F2 = Field("prime", p=2)
F3 = Field("prime", p=3)
F5 = Field("prime", p=5)
F7 = Field("prime", p=7)
F11 = Field("prime", p=11)
F101 = Field("prime", p=101)
Q = Field("rationals")
R = Field("real", tolerance=1e-9)
C = Field("complex", tolerance=1e-9)


def two_term_ok(X, Y, k1, k2, beta, target):
    assert (X ** k1 + (Y ** k2).scale(beta)).allclose(target)


# -- scalar solutions ---------------------------------------------------------

def test_scalar_two_solutions_f7():
    (a, b), (c, d) = scalar_two_solutions(F7, F7(5), 2, 2, F7(1))
    assert (a.rep, b.rep, c.rep, d.rep) == (1, 2, 2, 1)
    assert a ** 2 + b ** 2 == F7(5) and c ** 2 + d ** 2 == F7(5)
    assert a ** 2 != c ** 2 and b ** 2 != d ** 2


def test_scalar_two_solutions_complex_and_real():
    (a, b), (c, d) = scalar_two_solutions(C, C(2 + 1j), 3, 4, C(1))
    assert abs((a ** 3 + b ** 4).rep - (2 + 1j)) < 1e-9
    assert abs((c ** 3 + d ** 4).rep - (2 + 1j)) < 1e-9
    (a, b), (c, d) = scalar_two_solutions(R, R(-3.5), 2, 3, R(2))
    assert abs((a ** 2 + R(2) * b ** 3).rep + 3.5) < 1e-9
    assert abs((c ** 2 + R(2) * d ** 3).rep + 3.5) < 1e-9
    # over R an even k2 takes b^k2 = 1 and 2^k2 when k1 is odd, and
    # b^k2 = t, 2t with t = (1 + |alpha|) / |beta| when beta < 0, k1 even
    for alpha, k1, k2, beta in ((-1.5, 3, 2, 2.0), (2.0, 3, 4, -0.5), (0.0, 1, 2, 1.0),
                                (-1.5, 2, 2, -2.0), (2.0, 4, 2, -1.0), (0.0, 2, 4, -0.5)):
        (a, b), (c, d) = scalar_two_solutions(R, R(alpha), k1, k2, R(beta))
        for x, y in ((a, b), (c, d)):
            assert abs((x ** k1 + R(beta) * y ** k2).rep - alpha) < 1e-9
        assert not (a ** k1).is_close(c ** k1) and not (b ** k2).is_close(d ** k2)


def test_scalar_two_solutions_not_found_small_field():
    # over F_3, a^2 + b^2 = 2 has solutions but all share a^2 = 1, so no
    # pair with distinct first powers exists
    with pytest.raises(NotFound):
        scalar_two_solutions(F3, F3(2), 2, 2, F3(1))


# SHA-256 over the lines scalar_solution and scalar_two_solutions give (the
# solution's repr, or the error type and message) for every alpha, (k1, k2)
# in (2, 2), (2, 3), (3, 3) and beta in 1, 3 (and the generator over
# extensions); recorded before the two searches were merged.  GF(101^3) lies
# above SCAN_BOUND, so its candidates are seeded random draws and then zero;
# its one_digest was recorded again when zero was added, which turned its
# one NotFound line (alpha = 0, k1 = k2 = 2, beta = 3) into (0, 0).  Q(alpha)
# has no field spec: its row names the modulus t^3 - 2 (``_scalar_field``)
# and was recorded before the search inverted beta once per search.
QA_SPEC = "Q[t]/(t^3-2)"
SCALAR_GOLDEN = [
    ("Fp:7", "9e2ba55500ea92a4ce0ca5ae068a91f65186e7a65af06fe6207291757088181f",
     "10b771d86a50cde5de3e117941bbb024c1ad66d77359ac924b99a3424a7e50d2"),
    ("Fq:p=3,d=2,mod=[1,0,1]",
     "6a4df7b1af4118096636dbfb73e259039459927a7425712a094aea17dbca3373",
     "6e59f7552034e628d3c8e20c65df294671f8d732e17d6e3e0dabb230ca18c8be"),
    ("Fq:p=101,d=3,mod=[1,0,1,1]",
     "4383edaec0a7a46b8378c0303e27088a9b319382e812727ce745a1562c86b50a",
     "c6cb92c82a6cb211a59a00c7e189ba36d7fefadd79efa1ec400da79bd45c20da"),
    ("Q", "5c45b14edf43edcd086c5adb362efb2bd8057e781cfd9a742fb72a39f7e57c0a",
     "1b30d94301abbcd6b018c1e971aaa11ab832f057e2a4df4fd67eb3e884e1cc5d"),
    (QA_SPEC, "44c70efbcd6820413c67088bff674bb60333132eb047357927d1cd51d283f2b3",
     "bbc3f21ac2d3e0b6b31e612f06e99541ba17f9c4c0aae6be20a357568cc544f4"),
]


def _scalar_field(spec):
    if spec == QA_SPEC:
        return extend(Field("rationals"), [-2, 0, 0, 1])[0]
    return parse_field_spec(spec)


def test_scalar_solution_above_scan_bound_tries_zero():
    """a^2 + 3 b^2 = 0 has only a = b = 0 in GF(101^3), since -3 is not a
    square there, and random draws almost never hit a = 0."""
    field = parse_field_spec("Fq:p=101,d=3,mod=[1,0,1,1]")
    zero = field.zero()
    assert scalar_solution(field, zero, 2, 2, field(3)) == (zero, zero)


@pytest.mark.parametrize("spec,one_digest,two_digest", SCALAR_GOLDEN,
                         ids=[spec for spec, _, _ in SCALAR_GOLDEN])
def test_scalar_solutions_are_pinned(spec, one_digest, two_digest):
    field = _scalar_field(spec)
    if field.kind == "rationals":
        alphas = [field(v) for v in (0, 1, -1, 2, 7, "1/2", -19)]
    else:
        g = field.generator() if field.kind == "ext" else field(3)
        alphas = [field(0), field(1), field(2), g, g + field(1)]
    betas = [field(1), field(3)] + ([field.generator()] if field.kind == "ext" else [])
    digests = []
    for fn in (scalar_solution, scalar_two_solutions):
        h = hashlib.sha256()
        for alpha in alphas:
            for k1, k2 in ((2, 2), (2, 3), (3, 3)):
                for beta in betas:
                    try:
                        line = repr(fn(field, alpha, k1, k2, beta))
                    except WordmapError as exc:
                        line = f"{type(exc).__name__}: {exc}"
                    h.update((line + "\n").encode())
        digests.append(h.hexdigest())
    assert digests == [one_digest, two_digest]


def test_scalar_search_inverts_beta_once(monkeypatch):
    """Over Q, (2 - a^2)/3 is a cube for no SMALL_INTEGERS candidate a
    (its denominator is 3), so the search tries every candidate and raises
    NotFound; it inverts beta once for all of them, not once per candidate.
    The roots are taken by the shared search in ``scalars``."""
    import wordmap.scalars as scalars_mod

    field = Field("rationals")
    calls = {"kth_roots": 0, "inverse": 0}
    roots, inverse = scalars_mod.kth_roots, field._rinv

    def counted_roots(e, k):
        calls["kth_roots"] += 1
        return roots(e, k)

    def counted_inverse(a):
        calls["inverse"] += 1
        return inverse(a)

    monkeypatch.setattr(scalars_mod, "kth_roots", counted_roots)
    monkeypatch.setattr(field, "_rinv", counted_inverse)
    with pytest.raises(NotFound):
        scalar_solution(field, field(2), 2, 3, field(3))
    assert calls == {"kth_roots": len(SMALL_INTEGERS), "inverse": 1}


def test_number_field_scalar_search_is_decided_without_roots(monkeypatch):
    """Over Q(alpha), alpha^3 = 2, the candidates are rationals, so every
    remainder keeps the target's irrational part and no draw can close:
    the search raises today's NotFound without taking a k-th root."""
    import wordmap.scalars as scalars_mod

    field = _scalar_field(QA_SPEC)
    t = field.generator()
    calls = []
    roots = scalars_mod.kth_roots
    monkeypatch.setattr(scalars_mod, "kth_roots", lambda e, k: calls.append(k) or roots(e, k))
    with pytest.raises(NotFound) as info:
        scalar_solution(field, t, 2, 3, t + field(1))
    assert str(info.value) == (
        "no scalar solution of X^2 + [1,1,0]*Y^3 = [0,1,0] over Qext:mod=[-2,0,0,1]")
    assert calls == []


# -- invertible Jordan blocks -------------------------------------------------

def test_power_sum_ratio_matches_the_sum():
    """The O(log k) recurrence over exact kinds against the k-term sum."""
    rng = random.Random(800)
    F9 = parse_field_spec("Fq:p=3,d=2,mod=[2,2,1]")
    draws = {F7: lambda: F7(rng.randrange(7)), F101: lambda: F101(rng.randrange(101)),
             F9: lambda: F9([rng.randrange(3), rng.randrange(3)]),
             Q: lambda: Q(rng.randrange(-9, 10)) / Q(rng.randrange(1, 10))}
    for field, draw in draws.items():
        for _ in range(200):
            u, w, k = draw(), draw(), rng.randrange(1, 41)
            want = field.zero()
            for i in range(k):
                want = want + u ** i * w ** (k - 1 - i)
            assert _power_sum_ratio(u, w, k) == want, (field, u, w, k)


def test_invertible_jordan_f7_known_values():
    B, Cm = invertible_jordan_decompose(F7(5), 2, 2, 2, F7(1))
    assert B ** 2 == Matrix.from_rows(F7, [[1, 1], [0, 4]])
    assert Cm ** 2 == Matrix.from_rows(F7, [[4, 0], [0, 1]])
    assert B ** 2 + Cm ** 2 == Matrix.jordan_block(F7(5), 2)


def test_invertible_jordan_n1():
    B, Cm = invertible_jordan_decompose(F7(5), 1, 2, 2, F7(1))
    two_term_ok(B, Cm, 2, 2, F7(1), Matrix.diagonal(F7, [5]))


def test_invertible_jordan_alpha_zero_remark():
    # works for alpha = 0 whenever the scalar solutions exist
    B, Cm = invertible_jordan_decompose(F2(0), 2, 2, 2, F2(1))
    two_term_ok(B, Cm, 2, 2, F2(1), Matrix.jordan_block(F2(0), 2))


@pytest.mark.parametrize("n", list(range(1, 13)))
def test_invertible_jordan_sizes_and_diagonalizability(n):
    rng = random.Random(n)
    for _ in range(4):
        alpha = F101(rng.randrange(1, 101))
        beta = F101(rng.randrange(1, 101))
        B, Cm = invertible_jordan_decompose(alpha, n, 2, 2, beta)
        two_term_ok(B, Cm, 2, 2, beta, Matrix.jordan_block(alpha, n))
        for W in (B, Cm):
            mp = minpoly(W)
            assert mp.gcd(mp.derivative()).degree == 0  # squarefree: diagonalizable


# -- junction matrices and the power-partition layer ----------------------------

def test_junction_matrix_examples():
    assert junction_matrix(F5, Partition((4,))).is_zero()
    j = junction_matrix(F5, Partition((2, 2)))
    assert j == Matrix.unit(F5, 4, 1, 2)
    j = junction_matrix(F7, Partition((2, 2, 3)))
    assert j == Matrix.unit(F7, 7, 1, 2) + Matrix.unit(F7, 7, 3, 4)


def test_junction_as_scaled_power_examples():
    B = junction_as_scaled_power(F5, Partition((2, 2)), 2, F5(1))
    assert (B ** 2) == junction_matrix(F5, Partition((2, 2)))
    assert nilpotent_partition(B ** 2).parts == (1, 1, 2)
    B = junction_as_scaled_power(F7, Partition((3, 4)), 2, F7(3))
    assert (B ** 2).scale(F7(3)) == junction_matrix(F7, Partition((3, 4)))
    B = junction_as_scaled_power(F7, Partition((2, 2)), 1, F7(3))
    assert B.scale(F7(3)) == junction_matrix(F7, Partition((2, 2)))


def test_nilpotent_types_come_from_one_chain_pass_per_matrix(monkeypatch):
    """The junction reads the Jordan type and chain basis of each of the
    two nilpotents it conjugates from one kernel-chain pass, which also
    decides nilpotency; the bordered route reads only its bordered sum's,
    since the chain basis of J_{0,n} is the identity.  No power A^n is
    taken when the chains cover n."""
    import wordmap.matrices as matrices_mod

    calls, powers = [], []
    inner, nilpotent = matrices_mod._chain_filtration, matrices_mod.is_nilpotent

    def counted(A, *args):
        calls.append(A.nrows)
        return inner(A, *args)

    def counted_power(A):
        powers.append(A.nrows)
        return nilpotent(A)

    monkeypatch.setattr(matrices_mod, "_chain_filtration", counted)
    monkeypatch.setattr(matrices_mod, "is_nilpotent", counted_power)
    junction_as_scaled_power(F7, (3, 4), 2, 3)
    assert len(calls) == 2
    calls.clear()
    small_nilpotent_decompose(F101, 3, 2, 2, 1)
    assert len(calls) == 1
    assert powers == []


def test_junction_many_parts_needs_multiple_blocks():
    # 6 parts, power 2: five 2-blocks in the k-th power
    part = Partition((2, 2, 2, 2, 2, 2))
    B = junction_as_scaled_power(F7, part, 2, F7(2))
    assert (B ** 2).scale(F7(2)) == junction_matrix(F7, part)


def test_power_partition_examples():
    assert nilpotent_power_partition(7, 2).parts == (3, 4)
    assert nilpotent_power_partition(6, 2).parts == (3, 3)
    assert nilpotent_power_partition(5, 1).parts == (5,)
    assert nilpotent_power_partition(3, 5).parts == (1, 1, 1)


def test_power_partition_matches_ranks():
    for n in range(1, 21):
        for k in range(1, 6):
            J = Matrix.jordan_block(F7(0), n)
            assert nilpotent_power_partition(n, k) == nilpotent_partition(J ** k)


# -- large nilpotent blocks -----------------------------------------------------

def test_large_nilpotent_examples():
    X, Y = large_nilpotent_decompose(F5, 4, 2, 2, F5(1))
    assert X == nilpotent_helper_x(F5, 4, 2)
    two_term_ok(X, Y, 2, 2, F5(1), Matrix.jordan_block(F5(0), 4))
    X, Y = large_nilpotent_decompose(F7, 6, 3, 2, F7(2))
    two_term_ok(X, Y, 3, 2, F7(2), Matrix.jordan_block(F7(0), 6))
    X, Y = large_nilpotent_decompose(Q, 4, 2, 2, Q(1))
    two_term_ok(X, Y, 2, 2, Q(1), Matrix.jordan_block(Q(0), 4))
    with pytest.raises(SizeTooSmall):
        large_nilpotent_decompose(F5, 3, 2, 2, F5(1))


def nilpotent_helper_x(field, n, k1):
    # X must be conjugate to J_{0,n} with X^{k1} the predicted block sum
    X, _ = large_nilpotent_decompose(field, n, k1, k1, field.one())
    assert nilpotent_partition(X).parts == (n,)
    part = nilpotent_power_partition(n, k1)
    assert nilpotent_partition(X ** k1) == part
    return X


def test_large_nilpotent_works_over_f2():
    # the junction route uses no scalar searches, so tiny fields are fine
    X, Y = large_nilpotent_decompose(F2, 4, 2, 2, F2(1))
    two_term_ok(X, Y, 2, 2, F2(1), Matrix.jordan_block(F2(0), 4))


# -- bordered matrices ----------------------------------------------------------

def test_bordered_solve_worked_example():
    b = bordered_solve(F7, F7(1), F7(0), [F7(1), F7(2), F7(3)], 2,
                       given_y=[F7(1), F7(0)])
    assert tuple(x.rep for x in b.x) == (0, 1)
    assert b.matrix == Matrix.from_rows(F7, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert charpoly(b.matrix) == Poly(F7, [-1, 0, 0, 1])
    assert sorted(p.rep for p in b.spectrum) == [1, 2, 4]
    assert (b.witness ** 2) == b.matrix


def test_bordered_solve_given_x():
    b = bordered_solve(F7, F7(1), F7(0), [F7(1), F7(2), F7(3)], 2,
                       given_x=[F7(0), F7(1)])
    assert tuple(y.rep for y in b.y) == (1, 0)


def test_bordered_zero_mu_forces_zero_corner():
    # with mu_n = 0 the last equation x_{n-1} y_1 = 0 forces x_{n-1} = 0
    mu = (F7(1), F7(2), F7(0))
    assert len({(m ** 2).rep for m in mu}) == 3
    b = bordered_solve(F7, F7(1), F7(5), mu, 2, given_y=[F7(2), F7(3)])
    assert b.x[-1].is_zero()


def test_bordered_rejects_zero_leading():
    with pytest.raises(ZeroLeadingCoordinate):
        bordered_solve(F7, F7(1), F7(0), [F7(1), F7(2), F7(3)], 2,
                       given_y=[F7(0), F7(1)])


def test_bordered_charpoly_closed_form_matches_cofactor_oracle():
    rng = random.Random(3)
    for n in (3, 4):
        for _ in range(50):
            eps = F101(rng.randrange(1, 101))
            z = F101(rng.randrange(101))
            x = [F101(rng.randrange(101)) for _ in range(n - 1)]
            y = [F101(rng.randrange(101)) for _ in range(n - 1)]
            M = bordered_matrix(F101, eps, x, y, z)
            display = bordered_charpoly_closed_form(F101, eps, x, y, z)
            assert display == charpoly_cofactor(M)
            assert display == charpoly(M)


def test_bordered_random_regular_solutions():
    rng = random.Random(4)
    for n in (3, 4, 5):
        for _ in range(20):
            lam = _random_regular(rng, n, 2)
            z = sum((l ** 2 for l in lam), F101.zero())
            y = [F101(rng.randrange(1, 101))] + \
                [F101(rng.randrange(101)) for _ in range(n - 2)]
            b = bordered_solve(F101, F101(rng.randrange(1, 101)), z, lam, 2,
                               given_y=y)
            expected = Poly.from_roots(F101, [l ** 2 for l in lam])
            assert charpoly(b.matrix) == expected


def _random_regular(rng, n, k):
    while True:
        lam = [F101(rng.randrange(101)) for _ in range(n)]
        if len({(l ** k).rep for l in lam}) == n:
            return lam


# -- small nilpotent blocks -------------------------------------------------------

def test_small_nilpotent_n2_f5_known_values():
    X, Y = small_nilpotent_decompose(F5, 2, 2, 2, F5(1))
    J = Matrix.jordan_block(F5(0), 2)
    two_term_ok(X, Y, 2, 2, F5(1), J)
    assert X ** 2 == Matrix.from_rows(F5, [[0, 0], [0, 1]])
    assert Y ** 2 == Matrix.from_rows(F5, [[0, 1], [0, 4]])


def test_small_nilpotent_n2_f2_not_found():
    with pytest.raises(NotFound):
        small_nilpotent_decompose(F2, 2, 2, 2, F2(1))


def test_small_nilpotent_n3():
    for field in (F11, F101):
        X, Y = small_nilpotent_decompose(field, 3, 2, 2, field.one())
        two_term_ok(X, Y, 2, 2, field.one(), Matrix.jordan_block(field.zero(), 3))


def test_small_nilpotent_f7_n3_unreachable():
    # over F_7 the three distinct nonzero squares sum to 0, never to a corner
    # value with a matching k2 partner, so the search honestly exhausts
    with pytest.raises(NotFound):
        small_nilpotent_decompose(F7, 3, 2, 2, F7(1))


def test_small_nilpotent_witness_structure():
    X, Y = small_nilpotent_decompose(F101, 3, 2, 2, F101(1))
    for W in (X, Y):
        mp = minpoly(W)
        assert mp.gcd(mp.derivative()).degree == 0


# -- the solver ---------------------------------------------------------------

def test_nilpotent_2x2_sum_of_squares_identities():
    # char != 2 with i in the field (F_5, i = 2)
    lhs = Matrix.from_rows(F5, [[0, 1], [0, 0]])
    x1 = Matrix.from_rows(F5, [[1, 3], [0, 1]])        # [[1, 1/2], [0, 1]]
    x2 = Matrix.diagonal(F5, [2, 2])
    assert x1 * x1 + x2 * x2 == lhs
    # char = 2
    lhs2 = Matrix.from_rows(F2, [[0, 1], [0, 0]])
    y1 = Matrix.from_rows(F2, [[1, 0], [0, 0]])
    y2 = Matrix.from_rows(F2, [[1, 1], [0, 0]])
    assert y1 * y1 + y2 * y2 == lhs2


def test_solve_diagonal_word_f5_nilpotent():
    word = DiagonalWord(((F5(1), 2), (F5(1), 2)))
    A = Matrix.from_rows(F5, [[0, 1], [0, 0]])
    w = solve_diagonal_word(A, word)
    assert eval_word(word, w.matrices) == A


def test_solve_diagonal_word_m3_zero_padding():
    rng = random.Random(5)
    word = DiagonalWord(((F101(1), 2), (F101(1), 2), (F101(1), 5)))
    A = random_matrix(F101, 3, rng)
    w = solve_diagonal_word(A, word)
    assert w.matrices[2].is_zero()
    assert eval_word(word, w.matrices) == A


def test_solve_diagonal_word_k1_shortcut():
    rng = random.Random(6)
    word = DiagonalWord(((F101(3), 5), (F101(2), 1)))
    A = random_matrix(F101, 4, rng)
    w = solve_diagonal_word(A, word)
    assert w.matrices[0].is_zero()
    assert eval_word(word, w.matrices) == A


def test_solve_diagonal_word_scaling_covariance():
    rng = random.Random(7)
    A = random_matrix(F101, 3, rng)
    word = DiagonalWord(((F101(1), 2), (F101(3), 2)))
    w = solve_diagonal_word(A, word, seed=2)
    for _ in range(5):
        c = F101(rng.randrange(1, 101))
        word_c = DiagonalWord(((c, 2), (c * F101(3), 2)))
        wc = solve_diagonal_word(A.scale(c), word_c, seed=2)
        assert wc.matrices == w.matrices


def test_solve_diagonal_word_m1():
    rng = random.Random(8)
    B = random_matrix(F101, 3, rng)
    word = DiagonalWord(((F101(1), 2),))
    w = solve_diagonal_word(B * B, word)
    assert eval_word(word, w.matrices) == B * B
    with pytest.raises(NotFound):
        solve_diagonal_word(Matrix.jordan_block(F101(0), 2), word)


def test_solve_diagonal_word_f3_nilpotent_via_exhaustion():
    # the block constructions need |K| > 2 and regular solutions, but over a
    # field this small the full witness space is searched instead
    word = DiagonalWord(((F3(1), 2), (F3(1), 2)))
    A = Matrix.jordan_block(F3(0), 2)
    w = solve_diagonal_word(A, word)
    assert eval_word(word, w.matrices) == A


@pytest.mark.parametrize("field,n,d2", [(F3, 5, 1), (F5, 6, 2)])
def test_small_nilpotent_fallback_swaps_the_exponents(monkeypatch, field, n, d2):
    """J_{0,n} with n < 2*k1 = 8: the small-nilpotent route and the scalar
    pair at alpha = 0 find nothing, so the block is solved by the large-index
    route with k1 and k2 swapped, conjugated back by the scaling of J_{0,n}
    by beta = d2."""
    import wordmap.diagonal as diagonal_mod

    calls = []
    scaling = diagonal_mod._nilpotent_scaling

    def spy(L, size, c):
        calls.append((size, c))
        return scaling(L, size, c)

    monkeypatch.setattr(diagonal_mod, "_nilpotent_scaling", spy)
    word = DiagonalWord(((field(1), 4), (field(d2), 2)))
    A = Matrix.jordan_block(field(0), n)
    w = solve_diagonal_word(A, word)
    assert calls == [(n, field(d2))]
    assert eval_word(word, w.matrices) == A


def test_solver_matches_exhaustive_image_oracle_f3():
    # dual route: on M_2(F_3) the solver and the brute-force image agree
    # exactly, so NotFound would be a proof of unreachability (none here)
    import itertools

    from wordmap.fields import enumerate_elements

    word = DiagonalWord(((F3(1), 2), (F3(1), 2)))
    elems = list(enumerate_elements(F3))
    mats = [Matrix(F3, [flat[0:2], flat[2:4]])
            for flat in itertools.product(elems, repeat=4)]
    image = {(a ** 2) + (b ** 2) for a in mats for b in mats}
    assert len(image) == 81
    for A in mats:
        w = solve_diagonal_word(A, word, seed=0)
        assert eval_word(word, w.matrices) == A


@pytest.mark.parametrize("spec,n", [("Fp:2", 2), ("Fp:2", 3), ("Fp:3", 2),
                                    ("Fq:p=2,d=2,mod=[1,1,1]", 2), ("Fp:5", 2)])
def test_finite_not_found_within_the_exhaustive_cap_is_a_proof(spec, n):
    """With q^(n^2) <= EXHAUSTIVE_CAP, X^{k1} + Y^{k2} = A either answers
    with a witness or raises NotFound, and NotFound comes exactly when a
    hash join over every (X, Y) finds no solution."""
    field = parse_field_spec(spec)
    assert field.cardinality ** (n * n) <= EXHAUSTIVE_CAP
    mats = list(all_matrices(field, n))

    def key(M):
        return tuple(tuple(x.rep for x in row) for row in M.rows)

    powers = {k: [naive_power(X, k) for X in mats] for k in (2, 3)}
    power_keys = {k: {key(P) for P in ps} for k, ps in powers.items()}
    rng = random.Random(f"{spec} n={n}")
    for k1, k2 in ((2, 2), (2, 3), (3, 2), (3, 3)):
        word = DiagonalWord(((field.one(), k1), (field.one(), k2)))
        for A in rng.sample(mats, 12):
            reachable = any(key(A - Q) in power_keys[k1] for Q in powers[k2])
            try:
                X, Y = solve_diagonal_word(A, word).matrices
            except NotFound:
                assert not reachable, (k1, k2, key(A))
                continue
            assert naive_power(X, k1) + naive_power(Y, k2) == A
            assert reachable


# (field, n, k1, k2) of X^k1 + 2 Y^k2 = J_{0,n} where one route fails and a
# later one answers: the junction has no room (PartitionTooSmall), or over R
# the small route breaks down numerically (VerificationFailed,
# CharPolyMismatch, SingularMatrix, NotSimilar); over R an odd exponent
# makes the word onto, so every such cell has a witness
NILPOTENT_FALLBACK_CELLS = [
    ("R", 4, 2, 5), ("R", 4, 3, 4), ("R", 6, 4, 3), ("R", 6, 4, 7), ("R", 9, 3, 6),
    ("Fp:101", 12, 4, 6), ("Fp:101", 12, 6, 4),
]


@pytest.mark.parametrize("spec,n,k1,k2", NILPOTENT_FALLBACK_CELLS,
                         ids=[f"{s}-n={n}-{k1},{k2}" for s, n, k1, k2 in NILPOTENT_FALLBACK_CELLS])
def test_nilpotent_blocks_fall_back_to_the_next_route(spec, n, k1, k2):
    field = parse_field_spec(spec)
    J = Matrix.jordan_block(field(0), n)
    word = DiagonalWord(((field(1), k1), (field(2), k2)))
    w = solve_diagonal_word(J, word)
    assert eval_word(word, w.matrices).allclose(J)


def test_an_exhausted_chain_keeps_its_error_and_lists_its_routes():
    """X^2 + 2Y^6 = J_{0,3} over F_13, solved as Y^6 + 7X^2 = 7J_{0,3}:
    NotFound with the message it always had.  The blockwise route declined,
    and the exhaustive join never ran (13^9 > EXHAUSTIVE_CAP); the nilpotent
    block declined on its four routes in order, the bordered one on each
    corner value."""
    F13 = parse_field_spec("Fp:13")
    word = DiagonalWord(((F13(1), 2), (F13(2), 6)))
    with pytest.raises(NotFound) as info:
        solve_diagonal_word(Matrix.jordan_block(F13(0), 3), word)
    err = info.value
    assert str(err) == (
        "no corner value admits the required regular solutions over Fp:13 (last: no "
        "non-zero regular solution of sum of 3 6-th powers = 12 over Fp:13)")
    (blockwise, block_err), (join, join_err) = err.routes
    assert (blockwise, join) == ("blockwise", "exhaustive join")
    assert type(block_err) is NotFound and str(block_err) == str(err)
    assert type(join_err) is TooLarge and 13 ** 9 > EXHAUSTIVE_CAP
    assert [(name, type(reason)) for name, reason in block_err.routes] == [
        ("junction", SizeTooSmall), ("bordered", NotFound),
        ("scalar pair", NotFound), ("swapped junction", SizeTooSmall)]
    corners = block_err.routes[1][1].routes
    assert [name for name, _ in corners] == [f"z = {z}" for z in [1, 0] + list(range(2, 13))]
    assert all(type(reason) is NotFound for _, reason in corners)
    assert str(err).endswith(f"(last: {corners[-1][1]})")


def test_a_join_that_walked_the_space_is_a_proof():
    """A NotFound within the exhaustive cap: the join ran and declined with
    no reason, which separates it from a join that could not run."""
    F2 = parse_field_spec("Fp:2")
    A = MatrixSpace(F2, 3).matrix_at(507)
    with pytest.raises(NotFound) as info:
        solve_diagonal_word(A, DiagonalWord(((F2(1), 84), (F2(1), 84))))
    assert [name for name, _ in info.value.routes] == ["blockwise", "exhaustive join"]
    assert info.value.routes[1][1] is None
    # at n = 1 the scalar search walked all of F_13; the join does not run
    F13 = parse_field_spec("Fp:13")
    word = DiagonalWord(((F13(1), 12), (F13(1), 12)))
    with pytest.raises(NotFound) as info:
        solve_diagonal_word(Matrix.diagonal(F13, [3]), word)
    assert type(info.value.routes[1][1]) is SizeTooSmall


@pytest.mark.parametrize("call", [
    lambda F: regular_solution_search(F, 2, "3", F(1)),
    lambda F: next(regular_solution_iter(F, 2, 3.0, F(1))),
    lambda F: nilpotent_power_partition("4", 2),
    lambda F: nilpotent_power_partition(4, 2.0),
], ids=["regular_solution_search-n", "regular_solution_iter-n",
        "nilpotent_power_partition-n", "nilpotent_power_partition-k"])
def test_wrong_typed_sizes_are_usage_errors(call):
    with pytest.raises(UsageError):
        call(parse_field_spec("Fp:7"))


@pytest.mark.parametrize("spec,k", [("Fp:13", 12), ("Fp:257", 256)])
def test_one_by_one_not_found_builds_no_matrix_space(spec, k, monkeypatch):
    """x^k takes only the values 0 and 1 here, so 3 is not x^k + y^k.  The
    scalar search has walked all of F_q by then, which is the proof: no
    whole-space join (and no MatrixSpace) follows at n = 1."""
    import wordmap.matrices as matrices_mod

    built = []
    monkeypatch.setattr(matrices_mod.MatrixSpace, "__init__",
                        lambda self, field, n: built.append((field, n)))
    field = parse_field_spec(spec)
    word = DiagonalWord(((field.one(), k), (field.one(), k)))
    with pytest.raises(NotFound):
        solve_diagonal_word(Matrix.diagonal(field, [3]), word)
    assert built == []


# -- real and complex dispatch ---------------------------------------------------

def test_real_2x2_sum_of_squares_identities():
    tol = 1e-9
    # Case 1: alpha*I = M^2 + M^2 with M = [[0, alpha/2], [1, 0]]
    for alpha in (3.0, -2.5, 0.0):
        M = Matrix.from_rows(R, [[0, alpha / 2], [1, 0]])
        S = M * M + M * M
        assert S.allclose(Matrix.diagonal(R, [alpha, alpha]))
    # Case 2: [[-a, 1], [0, -a]] = [[0, -(4a+1)/4], [1, 0]]^2 + [[1/2, 1], [0, 1/2]]^2
    for a in (2.0, -1.0, 0.0):
        X = Matrix.from_rows(R, [[0, -(4 * a + 1) / 4.0], [1, 0]])
        Y = Matrix.from_rows(R, [[0.5, 1], [0, 0.5]])
        assert (X * X + Y * Y).allclose(Matrix.from_rows(R, [[-a, 1], [0, -a]]))
    # Case 3: positive diagonal, both-negative, and mixed displays
    a, b = 3.0, 5.0
    Xp = Matrix.diagonal(R, [math.sqrt(a), math.sqrt(b)])
    assert (Xp * Xp).allclose(Matrix.diagonal(R, [a, b]))
    X = Matrix.from_rows(R, [[0, -(4 * a + 1) / 4.0], [1, 0]])
    Y = Matrix.diagonal(R, [0.5, math.sqrt(a - b + 0.25)]) \
        if a - b + 0.25 >= 0 else None
    a, b = 5.0, 3.0  # order so the radicand is nonnegative
    X = Matrix.from_rows(R, [[0, -(4 * a + 1) / 4.0], [1, 0]])
    Y = Matrix.diagonal(R, [0.5, math.sqrt(a - b + 0.25)])
    assert (X * X + Y * Y).allclose(Matrix.diagonal(R, [-a, -b]))
    a, b = 2.0, 5.0
    X = Matrix.from_rows(R, [[0, -2 * b], [1, 0]])
    Y = Matrix.diagonal(R, [math.sqrt(a + 2 * b), math.sqrt(b)])
    assert (X * X + Y * Y).allclose(Matrix.diagonal(R, [a, -b]))


def test_solve_sum_of_squares_2x2_real_shapes():
    word = DiagonalWord(((R(1), 2), (R(1), 2)))
    shapes = ([[0, 1], [0, 0]], [[-3, 0], [0, -5]], [[4, 0], [0, 9]],
              [[2, 0], [0, -5]], [[3, 0], [0, 3]], [[-2, 1], [0, -2]],
              [[1, 2], [-2, 1]], [[0, -0.25], [1, 0]])
    for rows in shapes:
        A = Matrix.from_rows(R, rows)
        w = solve_diagonal_word(A, word)
        assert eval_word(word, w.matrices).allclose(A)


def test_solve_real_even_even_unsupported_beyond_2x2():
    word = DiagonalWord(((R(1), 2), (R(1), 2)))
    A = Matrix.diagonal(R, [-1.0, -2.0, -3.0])
    with pytest.raises(Unsupported) as info:
        solve_diagonal_word(A, word)
    # the blockwise solve is a one-route chain, whose declined NotFound the
    # message quotes
    (name, reason), = info.value.routes
    assert name == "blockwise" and type(reason) is NotFound
    assert str(info.value) == ("even/even exponents over R beyond 2x2 sums of squares "
                               f"are open ({reason})")


def test_solve_real_even_even_scalars():
    # a 1x1 target takes a root on the side whose sign allows it
    for k1, k2, beta, a in ((2, 2, 1.0, 1.5), (2, 4, 1.0, 0.0), (4, 2, -2.0, -1.5),
                            (2, 2, -0.5, -2.0)):
        word = DiagonalWord(((R(1), k1), (R(beta), k2)))
        A = Matrix.from_rows(R, [[a]])
        w = solve_diagonal_word(A, word)
        assert eval_word(word, w.matrices).allclose(A)
    for beta in (1.0, 2.0):
        with pytest.raises(Unsupported, match="negative scalar"):
            solve_diagonal_word(Matrix.from_rows(R, [[-1.0]]),
                                DiagonalWord(((R(1), 2), (R(beta), 2))))


def test_solve_real_odd_exponent_random():
    # over R an even second exponent with an odd first one swaps the terms
    rng = random.Random(9)
    for word in (DiagonalWord(((R(1), 2), (R(2), 3))), DiagonalWord(((R(1), 3), (R(1), 2))),
                 DiagonalWord(((R(1), 3), (R(-2), 2)))):
        for n in (1, 2, 3, 4):
            for _ in range(5):
                A = random_matrix(R, n, rng)
                w = solve_diagonal_word(A, word)
                got = eval_word(word, w.matrices)
                assert got.allclose(A)


def test_solve_complex_always():
    rng = random.Random(10)
    word = DiagonalWord(((C(1), 2), (C(1), 2)))
    for n in (1, 2, 3):
        A = random_matrix(C, n, rng)
        w = solve_diagonal_word(A, word)
        assert eval_word(word, w.matrices).allclose(A)
    w = solve_diagonal_word(Matrix.jordan_block(C(0), 3), word)
    assert eval_word(word, w.matrices).allclose(Matrix.jordan_block(C(0), 3))


def test_invertible_jordan_random_f101_entrywise():
    rng = random.Random(33)
    for _ in range(50):
        n = rng.randrange(1, 13)
        alpha = F101(rng.randrange(101))
        beta = F101(rng.randrange(1, 101))
        k1, k2 = rng.choice(((2, 2), (3, 2), (4, 3)))
        try:
            B, Cm = invertible_jordan_decompose(alpha, n, k1, k2, beta)
        except NotFound:
            continue  # legitimately absent scalar solutions
        assert B ** k1 + (Cm ** k2).scale(beta) == Matrix.jordan_block(alpha, n)


def test_large_nilpotent_x_power_is_partition_realization():
    X, Y = large_nilpotent_decompose(F101, 7, 3, 2, F101(5))
    part = nilpotent_power_partition(7, 3)
    expected = Matrix.block_diag(F101, [Matrix.jordan_block(F101(0), s) for s in part])
    assert X ** 3 == expected
    assert nilpotent_partition(X).parts == (7,)


def test_4x4_rotation_pair_end_to_end_over_r():
    Rf = Field("real", tolerance=1e-9)
    word = DiagonalWord(((Rf(1), 2), (Rf(1), 2)))
    A = Matrix.from_rows(Rf, [[0, -1, 1, 0], [1, 0, 0, 1],
                              [0, 0, 0, -1], [0, 0, 1, 0]])
    w = solve_diagonal_word(A, word)
    assert eval_word(word, w.matrices).allclose(A)
    # witnesses are real matrices of the lifted complex solution
    assert all(M.field.kind == "real" for M in w.matrices)


def test_solve_diagonal_word_over_extension_field_target():
    # targets over F_4 route through F_16 towers where needed
    rng = random.Random(12)
    F4 = Field("ext", modulus=(1, 1, 1), base=F2)
    from wordmap.fields import enumerate_elements

    elems = list(enumerate_elements(F4))
    word = DiagonalWord(((F4.one(), 2), (F4.one(), 3)))
    solved = 0
    for _ in range(10):
        A = Matrix(F4, [[rng.choice(elems) for _ in range(3)] for _ in range(3)])
        try:
            w = solve_diagonal_word(A, word, seed=3)
        except NotFound:
            continue
        assert eval_word(word, w.matrices) == A
        solved += 1
    assert solved >= 5


@pytest.mark.parametrize("d2", [1, 2])
def test_cube_roots_beyond_scan_bound(d2):
    # x^4 + x^3 + 1 is irreducible over F_101, so the one Jordan block lives
    # in F_{101^4}, above SCAN_BOUND, where gcd(3, q-1) = 3: the cube roots
    # come from an Adleman-Manders-Miller step, in the order x, x*zeta,
    # x*zeta^2
    A = Matrix.companion(Poly(F101, [1, 0, 0, 1, 1]))
    word = DiagonalWord(((F101.one(), 3), (F101(d2), 3)))
    w = solve_diagonal_word(A, word)
    assert eval_word(word, w.matrices) == A


def test_nilpotent_blocks_beyond_scan_bound_stop_at_their_first_candidates():
    """J_{0,2} and J_{0,3} over F_{101^4} take the small-nilpotent route,
    whose corner values and regular solutions are searched in enumeration
    order.  Both searches once listed all 10^8 elements first and hung; a
    subprocess with a timeout keeps a regression from hanging the suite."""
    code = (
        "from wordmap.diagonal import solve_diagonal_word\n"
        "from wordmap.fields import GF\n"
        "from wordmap.matrices import Matrix\n"
        "from wordmap.words import DiagonalWord, eval_word\n"
        "L = GF(101 ** 4)\n"
        "for size in (2, 3):\n"
        "    A = Matrix.jordan_block(L.zero(), size)\n"
        "    for k1, k2 in ((2, 2), (3, 2)):\n"
        "        word = DiagonalWord(((L.one(), k1), (L.one(), k2)))\n"
        "        assert eval_word(word, solve_diagonal_word(A, word).matrices) == A\n"
        "print('ok')\n")
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(wordmap.__file__)))
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_defective_blocks_over_r_and_c():
    R7 = Field("real", tolerance=1e-7)
    C7 = Field("complex", tolerance=1e-7)
    word_r = DiagonalWord(((R7(1), 2), (R7(2), 3)))
    for A in (Matrix.jordan_block(R7(2.5), 3), Matrix.jordan_block(R7(-1.0), 4),
              Matrix.block_diag(R7, [Matrix.from_rows(R7, [[0.0, -1.0], [1.0, 0.0]]),
                                     Matrix.jordan_block(R7(3.0), 2)])):
        w = solve_diagonal_word(A, word_r, seed=0)
        assert eval_word(word_r, w.matrices).allclose(A)
    word_c = DiagonalWord(((C7(1), 3), (C7(1j), 4)))
    for A in (Matrix.jordan_block(C7(1j), 3), Matrix.jordan_block(C7(0), 4)):
        w = solve_diagonal_word(A, word_c, seed=0)
        assert eval_word(word_c, w.matrices).allclose(A)


def test_repeated_quadratic_factor_over_r():
    R7 = Field("real", tolerance=1e-7)
    word = DiagonalWord(((R7(1), 2), (R7(1), 2)))
    A = Matrix.from_rows(R7, [[0, -1, 1, 0], [1, 0, 0, 1],
                              [0, 0, 0, -1], [0, 0, 1, 0]])
    w = solve_diagonal_word(A, word, seed=0)
    assert eval_word(word, w.matrices).allclose(A)


def test_real_even_even_reachable_cases():
    R7 = Field("real", tolerance=1e-7)
    word = DiagonalWord(((R7(1), 2), (R7(1), 2)))
    for A in (Matrix.diagonal(R7, [1.0, 4.0, 9.0]),
              Matrix.jordan_block(R7(0.0), 4),
              Matrix.block_diag(R7, [Matrix.from_rows(R7, [[0.0, -1.0], [1.0, 0.0]]),
                                     Matrix.diagonal(R7, [4.0])])):
        w = solve_diagonal_word(A, word)
        assert eval_word(word, w.matrices).allclose(A)
