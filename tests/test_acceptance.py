"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with  pytest tests/test_acceptance.py -s  to see the per-criterion
summary.  Exact fields are compared with zero tolerance; approximate checks
state their tolerance explicitly.
"""

import math
import random
import time

import pytest

from wordmap.commutators import companion_trace_zero, solve_commutator_product
from wordmap.counting import count_solutions, image_enumerate, threshold
from wordmap.diagonal import (
    bordered_matrix,
    bordered_solve,
    junction_as_scaled_power,
    junction_matrix,
    nilpotent_power_partition,
    solve_diagonal_word,
)
from wordmap.fields import Field, regular_solution_search
from wordmap.matrices import Matrix, Partition, charpoly, nilpotent_partition
from wordmap.polynomials import Poly
from wordmap.words import CommutatorProduct, DiagonalWord, eval_word

from oracles import (
    all_matrices,
    bordered_charpoly_closed_form,
    charpoly_cofactor,
    random_matrix,
)

F2 = Field("prime", p=2)
F3 = Field("prime", p=3)
F5 = Field("prime", p=5)
F7 = Field("prime", p=7)
F101 = Field("prime", p=101)
Q = Field("rationals")


def report(num, detail):
    print(f"\nACCEPTANCE {num}: PASS ({detail})")


def test_criterion_1_exhaustive_commutator_products_q2():
    t0 = time.monotonic()
    word = CommutatorProduct(4)
    for A in all_matrices(F2, 2):
        w = solve_commutator_product(A, 4)
        assert eval_word(word, w.matrices) == A
    summary = image_enumerate(word, 2, F2)
    assert summary.size == 16 == summary.total
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(1, f"16/16 targets solved and image size 16 in {elapsed:.2f}s")


def test_criterion_2_commutator_image_law():
    t0 = time.monotonic()
    sizes = {}
    for field, expected in ((F2, 8), (F3, 27)):
        summary = image_enumerate(CommutatorProduct(2), 2, field)
        trace_zero = {M for M in all_matrices(field, 2) if M.trace().is_zero()}
        assert summary.size == len(trace_zero) == expected == field.p ** 3
        sizes[field.p] = summary.size
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(2, f"images = trace-zero sets, sizes {sizes} in {elapsed:.2f}s")


def _two_by_two_identities(field, a, b):
    one, zero = field.one(), field.zero()
    checks = []
    d1 = Matrix(field, [[zero, a], [one, zero]])
    d2 = Matrix(field, [[zero, b], [one, zero]])
    checks.append((d1, d2, Matrix.diagonal(field, [a, b])))
    j1 = Matrix.diagonal(field, [one, -one])
    j2 = Matrix(field, [[a, one], [zero, -a]])
    checks.append((j1, j2, Matrix(field, [[a, one], [zero, a]])))
    if not b.is_zero():
        c1 = Matrix(field, [[a, -b], [one + a * a / b, -a]])
        c2 = Matrix(field, [[one, zero], [a / b, -one]])
        checks.append((c1, c2, Matrix(field, [[zero, b], [one, a]])))
    return checks


def test_criterion_3_identity_fixtures():
    rng = random.Random(31)
    # the three 2x2 factor identities, 100 random parameter choices over F_101
    for _ in range(100):
        a, b = F101(rng.randrange(101)), F101(rng.randrange(101))
        for t1, t2, target in _two_by_two_identities(F101, a, b):
            assert t1.trace().is_zero() and t2.trace().is_zero()
            assert t1 * t2 == target

    # Jordan blocks, even size: diag(1,-1,...) times the signed bidiagonal
    alpha = F101(17)
    D = Matrix.diagonal(F101, [1, -1, 1, -1])
    U = Matrix.from_rows(F101, [[17, 1, 0, 0], [0, -17, -1, 0],
                                [0, 0, 17, 1], [0, 0, 0, -17]])
    assert D.trace().is_zero() and U.trace().is_zero()
    assert D * U == Matrix.jordan_block(alpha, 4)
    # odd size: cyclic shift times the wrap-around matrix, equal up to signs
    P3 = Matrix.cyclic_shift(F101, 3)
    Q3 = Matrix.from_rows(F101, [[0, 0, 17], [17, 1, 0], [0, 17, -1]])
    assert P3.trace().is_zero() and Q3.trace().is_zero()
    assert P3 * Q3 == Matrix.from_rows(F101, [[17, 1, 0], [0, 17, -1], [0, 0, 17]])

    # diagonal targets: 2x2 swap identity (literally multiplies to the swapped
    # diagonal) and the 3x3 closing display
    a1, a2, a3 = F101(3), F101(5), F101(7)
    s1 = Matrix.from_rows(F101, [[0, 1], [1, 0]])
    s2 = Matrix(F101, [[F101(0), a1], [a2, F101(0)]])
    assert s1 * s2 == Matrix.diagonal(F101, [a2, a1])
    g1 = Matrix(F101, [[F101(0), a3, F101(0)], [-a1, a3, F101(0)],
                       [F101(0), F101(0), -a3]])
    g2 = Matrix(F101, [[F101(1), -(a2 / a1), F101(0)],
                       [a1 / a3, F101(0), F101(0)],
                       [F101(0), F101(0), F101(-1)]])
    assert g1.trace().is_zero() and g2.trace().is_zero()
    assert g1 * g2 == Matrix.diagonal(F101, [a1, a2, a3])

    # Jordan-plus-scalar: the two trace-zero factor shapes (even and odd n)
    from wordmap.commutators import jordan_plus_scalar_trace_zero

    for n, alpha_v, beta_v in ((2, 9, 4), (3, 9, 4), (4, 2, 0), (5, 1, 1)):
        alpha, beta = F101(alpha_v), F101(beta_v)
        t1, t2 = jordan_plus_scalar_trace_zero(alpha, n, beta)
        assert t1.trace().is_zero() and t2.trace().is_zero()
        assert t1 * t2 == Matrix.block_diag(F101, [Matrix.jordan_block(alpha, n),
                                                   Matrix.diagonal(F101, [beta])])

    # companion factor identity at n = 3, 4, 5 over F_7 and Q
    for field in (F7, Q):
        for coeffs in ([3, 1, 2, 1], [1, 2, 3, 4, 1], [5, 4, 3, 2, 1, 1]):
            p = Poly(field, coeffs)
            n = p.degree
            one, zero = field.one(), field.zero()
            nm2 = field(n - 2)
            t1 = Matrix.zeros(field, n, n)
            rows1 = [list(r) for r in t1.rows]
            rows1[0][n - 1] = p[0]
            for j in range(1, n - 1):
                rows1[j][j] = one
                rows1[j][n - 1] = p[j]
            rows1[n - 1][0] = one
            rows1[n - 1][1] = -one
            rows1[n - 1][n - 1] = -nm2
            rows2 = [[zero] * n for _ in range(n)]
            rows2[0][0] = one
            rows2[0][n - 2] = rows2[0][n - 2] + one
            rows2[0][n - 1] = -p[n - 1] - nm2
            for j in range(1, n - 1):
                rows2[j][j - 1] = one
            rows2[n - 1][n - 1] = -one
            t1, t2 = Matrix(field, rows1), Matrix(field, rows2)
            assert t1.trace().is_zero() and t2.trace().is_zero()
            assert t1 * t2 == Matrix.companion(p)
            assert companion_trace_zero(p) == (t1, t2)

    # nilpotent 2x2 sum-of-squares displays: F_5 with i = 2, and char 2
    assert Matrix.from_rows(F5, [[1, 3], [0, 1]]) ** 2 + \
        Matrix.diagonal(F5, [2, 2]) ** 2 == Matrix.from_rows(F5, [[0, 1], [0, 0]])
    assert Matrix.from_rows(F2, [[1, 0], [0, 0]]) ** 2 + \
        Matrix.from_rows(F2, [[1, 1], [0, 0]]) ** 2 == \
        Matrix.from_rows(F2, [[0, 1], [0, 0]])

    # the 4x4 real identity through the 8th root of unity (within 1e-9)
    R9 = Field("real", tolerance=1e-9)
    c = math.cos(2 * math.pi / 8)
    s = math.sin(2 * math.pi / 8)
    A = Matrix.from_rows(R9, [[0, -1, 1, 0], [1, 0, 0, 1],
                              [0, 0, 0, -1], [0, 0, 1, 0]])
    X1 = Matrix.from_rows(R9, [[c, -s, c, s], [s, c, -s, c],
                               [0, 0, 0, 0], [0, 0, 0, 0]])
    X2 = Matrix.from_rows(R9, [[0, 0, 0, 0], [0, 0, 0, 0],
                               [0, 0, c, -s], [0, 0, s, c]])
    assert (X1 * X1 + X2 * X2).allclose(A)
    C9 = Field("complex", tolerance=1e-9)
    zeta = complex(c, s)
    Z1 = Matrix.from_rows(C9, [[zeta, 1 / zeta], [0, 0]])
    Z2 = Matrix.from_rows(C9, [[0, 0], [0, zeta]])
    assert (Z1 * Z1 + Z2 * Z2).allclose(Matrix.from_rows(C9, [[1j, 1], [0, 1j]]))

    # 2x2 sums of squares over R: the three case displays (within 1e-9)
    for alpha in (3.0, -2.5, 0.0):
        M = Matrix.from_rows(R9, [[0, alpha / 2], [1, 0]])
        assert (M * M + M * M).allclose(Matrix.diagonal(R9, [alpha, alpha]))
    for a in (2.0, -1.0, 0.75):
        X = Matrix.from_rows(R9, [[0, -(4 * a + 1) / 4.0], [1, 0]])
        Y = Matrix.from_rows(R9, [[0.5, 1], [0, 0.5]])
        assert (X * X + Y * Y).allclose(Matrix.from_rows(R9, [[-a, 1], [0, -a]]))
    a, b = 3.0, 5.0
    Xp = Matrix.diagonal(R9, [math.sqrt(a), math.sqrt(b)])
    assert (Xp * Xp).allclose(Matrix.diagonal(R9, [a, b]))
    a, b = 5.0, 3.0
    X = Matrix.from_rows(R9, [[0, -(4 * a + 1) / 4.0], [1, 0]])
    Y = Matrix.diagonal(R9, [0.5, math.sqrt(a - b + 0.25)])
    assert (X * X + Y * Y).allclose(Matrix.diagonal(R9, [-a, -b]))
    a, b = 2.0, 5.0
    X = Matrix.from_rows(R9, [[0, -2 * b], [1, 0]])
    Y = Matrix.diagonal(R9, [math.sqrt(a + 2 * b), math.sqrt(b)])
    assert (X * X + Y * Y).allclose(Matrix.diagonal(R9, [a, -b]))
    report(3, "all identity fixtures reproduced (exact fields at zero tolerance)")


def test_criterion_4_power_partition_junction_layer():
    t0 = time.monotonic()
    for n in range(1, 21):
        for k in range(1, 6):
            J = Matrix.jordan_block(F7(0), n)
            assert nilpotent_power_partition(n, k) == nilpotent_partition(J ** k)
    rng = random.Random(41)
    done = 0
    while done < 50:
        k = rng.randrange(1, 5)
        parts = sorted(rng.randrange(2, 6) for _ in range(rng.randrange(2, 5)))
        part = Partition(tuple(parts))
        beta = F7(rng.randrange(1, 7))
        B = junction_as_scaled_power(F7, part, k, beta)
        assert (B ** k).scale(beta) == junction_matrix(F7, part)
        done += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report(4, f"partitions n<=20,k<=5 + 50 junction witnesses in {elapsed:.2f}s")


def test_criterion_5_bordered_systems():
    rng = random.Random(51)
    for n in (3, 4, 5):
        done = 0
        while done < 50:
            k = rng.choice((2, 3))
            lam = [F101(rng.randrange(101)) for _ in range(n)]
            if len({(l ** k).rep for l in lam}) != n:
                continue
            z = sum((l ** k for l in lam), F101.zero())
            eps = F101(rng.randrange(1, 101))
            if rng.random() < 0.5:
                y = [F101(rng.randrange(1, 101))] + \
                    [F101(rng.randrange(101)) for _ in range(n - 2)]
                b = bordered_solve(F101, eps, z, lam, k, given_y=y)
            else:
                x = [F101(rng.randrange(101)) for _ in range(n - 2)] + \
                    [F101(rng.randrange(1, 101))]
                b = bordered_solve(F101, eps, z, lam, k, given_x=x)
            assert charpoly(b.matrix) == Poly.from_roots(F101, [l ** k for l in lam])
            done += 1
    # the closed-form characteristic polynomial at n = 3, 4 against
    # an independent cofactor expansion, term by term
    for n in (3, 4):
        for _ in range(50):
            eps = F101(rng.randrange(1, 101))
            z = F101(rng.randrange(101))
            x = [F101(rng.randrange(101)) for _ in range(n - 1)]
            y = [F101(rng.randrange(101)) for _ in range(n - 1)]
            M = bordered_matrix(F101, eps, x, y, z)
            disp = bordered_charpoly_closed_form(F101, eps, x, y, z)
            assert disp == charpoly_cofactor(M)
            assert disp == charpoly(M)
    report(5, "prescribed spectra exact for n in {3,4,5}; closed form matches cofactor oracle")


def test_criterion_6_end_to_end_diagonal_f101():
    rng = random.Random(61)
    # certify the scalar searches the nilpotent routes rely on
    for n_vars, gamma in ((2, F101(1)), (3, F101(1))):
        regular_solution_search(F101, 2, n_vars, gamma, require_nonzero=True)
    total, worst = 0, 0.0
    for n in (2, 3, 4, 5):
        for _ in range(200):
            beta = F101(rng.randrange(1, 101))
            word = DiagonalWord(((F101(1), 2), (beta, 2)))
            A = random_matrix(F101, n, rng)
            t1 = time.monotonic()
            w = solve_diagonal_word(A, word, seed=rng.randrange(100))
            dt = time.monotonic() - t1
            assert dt < 1.0
            worst = max(worst, dt)
            assert eval_word(word, w.matrices) == A
            total += 1
    report(6, f"{total} verified witnesses, worst solve {worst * 1000:.0f} ms")


def test_criterion_7_lang_weil_reports():
    t0 = time.monotonic()
    passes = 0
    for q in (3, 5, 7, 11, 13, 101):
        field = Field("prime", p=q)
        for k1, k2 in ((2, 2), (2, 3), (3, 3)):
            rep = count_solutions(field, [field(1), field(1)], [k1, k2], field(1))
            assert rep.passes
            passes += 1
    rep = count_solutions(F5, [F5(1), F5(1)], [2, 2], F5(1))
    assert rep.count == 4
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report(7, f"{passes} bound checks passed, F_5 S = 4, in {elapsed:.2f}s")


def test_criterion_8_real_odd_exponent():
    rng = random.Random(81)
    R7 = Field("real", tolerance=1e-7)
    word = DiagonalWord(((R7(1), 2), (R7(2), 3)))
    done = 0
    for n in (1, 2, 3, 4):
        for _ in range(25):
            A = random_matrix(R7, n, rng)
            w = solve_diagonal_word(A, word, seed=rng.randrange(100))
            got = eval_word(word, w.matrices)
            err = max(abs((a - b).rep) for ra, rb in zip(got.rows, A.rows)
                      for a, b in zip(ra, rb))
            assert err <= 1e-7
            done += 1
    report(8, f"{done} real witnesses within 1e-7")


def test_criterion_9_threshold_formula():
    assert threshold(2, 2).threshold == 256
    assert threshold(3, 2).threshold == 1296
    report(9, "threshold(2,2) = 256, threshold(3,2) = 1296")
